//! `figures_full`: every table of `figures --quick all`, then `check`.
//!
//! What a reader of the paper runs, at the iteration counts of the `--quick`
//! preset (`Quality::quick()`): a regeneration at the paper's counts takes
//! 6-7 s, so a run would time two or three of them, too few for a steady
//! number; at the quick counts it takes ~1.6 s through the same code. All
//! work goes through the sequential `Scheduler`, `World::sim`, `SimFabric`
//! and `partix-model`; nothing here is real-time. The experiments fix their
//! own seeds, so `--seed` changes nothing on this workload — which is also
//! its check: every repetition must render byte-identical tables.

use partix_bench::check::check_table;
use partix_bench::experiments::{self, Quality};
use partix_bench::report::Table;
use partix_core::AggregatorKind;

use crate::harness::{median_s, repeat, secs, Ctx};
use crate::probes;
use crate::trace::Tracer;

/// Verdict rows `check` renders.
const VERDICTS: u64 = 9;
/// Index of fig14 in [`PARTS`], and the aggregators it sweeps per table row.
const FIG14: usize = 6;
const FIG14_KINDS: u64 = 3;
/// The smallest complete regeneration: what set-up and `--quick` run.
const SMALLEST: Quality = Quality {
    warmup: 1,
    iters: 2,
    sweep_warmup: 1,
    sweep_iters: 1,
    search_iters: 1,
    jobs: 1,
};

/// FNV-1a over rendered output: equal digests mean byte-identical tables.
fn fold(mut h: u64, text: &str) -> u64 {
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The parts a regeneration is timed in, and the per-layer metric of each.
const PARTS: [(&str, &str); 8] = [
    ("bench.experiments.rest", "bench.experiments.rest_s"),
    ("bench.experiments.fig6", "bench.experiments.fig6_s"),
    ("bench.experiments.fig7", "bench.experiments.fig7_s"),
    ("bench.experiments.fig8", "bench.experiments.fig8_s"),
    ("bench.experiments.fig9", "bench.experiments.fig9_s"),
    ("bench.experiments.fig10_13", "bench.experiments.fig10_13_s"),
    ("bench.experiments.fig14", "bench.experiments.fig14_s"),
    ("bench.experiments.check", "bench.experiments.check_s"),
];

/// What one regeneration produced.
struct Regenerated {
    /// Seconds per part, in [`PARTS`] order.
    times: [f64; 8],
    /// Digest of everything rendered.
    digest: u64,
    /// `check` verdicts that are not `PASS`.
    not_pass: u64,
    /// 1024-core sweep iterations fig14 simulated: one sweep per table row
    /// and aggregator, each of `sweep_warmup + sweep_iters` iterations.
    sweep_iterations: u64,
}

/// One regeneration in `figures all` order.
fn regenerate(q: Quality, t: &mut Tracer) -> Regenerated {
    let mut times = [0.0; 8];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut part = |i: usize, t: &mut Tracer, f: &mut dyn FnMut() -> Vec<Table>| {
        let (tables, s) = t.span(PARTS[i].0, |_| secs(f));
        times[i] += s;
        h = tables.iter().fold(h, |h, table| fold(h, &table.to_csv()));
        tables
    };
    part(0, t, &mut || {
        vec![experiments::table1_table(), experiments::fig3_table()]
    });
    part(1, t, &mut || vec![experiments::fig6_table(q)]);
    part(2, t, &mut || vec![experiments::fig7_table(q)]);
    part(3, t, &mut || experiments::fig8_tables(q));
    part(4, t, &mut || experiments::fig9_tables(q));
    part(5, t, &mut || {
        vec![
            experiments::arrival_profile_table(8 << 20, "Fig 10", q),
            experiments::arrival_profile_table(128 << 20, "Fig 11", q),
            experiments::fig12_table(q),
            experiments::fig13_table(q),
        ]
    });
    let fig14_rows: usize = part(FIG14, t, &mut || experiments::fig14_tables(q))
        .iter()
        .map(|table| table.rows.len())
        .sum();
    // `figures all` runs the timelines after fig14; they are text, not
    // tables, and go into the digest through a one-cell table.
    part(0, t, &mut || {
        let mut text = Table::new("timelines", &["text"]);
        for kind in [AggregatorKind::Persistent, AggregatorKind::TimerPLogGp] {
            text.push(vec![experiments::timeline_text(8 << 20, kind, q)]);
        }
        vec![text]
    });
    let check = part(7, t, &mut || vec![check_table(q)]).remove(0);
    // A missing row is a verdict that did not pass.
    let passed = check.rows.iter().filter(|r| r[4] == "PASS").count() as u64;
    let not_pass = VERDICTS.saturating_sub(passed);
    Regenerated {
        times,
        digest: h,
        not_pass,
        sweep_iterations: fig14_rows as u64 * FIG14_KINDS * (q.sweep_warmup + q.sweep_iters) as u64,
    }
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) {
    let q = if ctx.args.quick {
        SMALLEST
    } else {
        Quality::quick().with_jobs(1)
    };
    ctx.report.note(format!(
        "--seed {} is unused: the experiments fix their own seeds",
        ctx.args.seed
    ));

    // Set-up is the warm-up, which is all the set-up this workload has: the
    // smallest complete regeneration pages the code in and warms the
    // allocator.
    let mut off = Tracer::new(false);
    let setups = if ctx.args.quick { 1 } else { 3 };
    let setup_s = median_s(setups, || {
        std::hint::black_box(regenerate(SMALLEST, &mut off).digest);
    });
    ctx.report.set("setup_s", setup_s);

    let mut digests = Vec::new();
    let mut not_pass = 0u64;
    let mut sweep_iterations = 0u64;
    let reps = repeat(ctx, 1, |ctx| {
        let r = regenerate(q, &mut ctx.tracer);
        digests.push(r.digest);
        not_pass += r.not_pass;
        sweep_iterations = r.sweep_iterations;
        r.times
    });
    let n = digests.len() as u64;
    ctx.report
        .ops(n * VERDICTS, not_pass, "check verdicts that are not PASS");
    let differing = digests.iter().filter(|d| **d != digests[0]).count() as u64;
    ctx.report.ops(
        n,
        differing,
        "repetitions whose tables differ from the first",
    );

    ctx.report
        .set("work_per_s", sweep_iterations as f64 / reps.part_s(FIG14));
    ctx.report.note(format!(
        "one repetition: 13 experiments + check at {}+{} point-to-point rounds and {}+{} sweep \
         iterations; fig14 simulates {sweep_iterations} sweep iterations; digest {:016x}",
        q.warmup, q.iters, q.sweep_warmup, q.sweep_iters, digests[0]
    ));

    if ctx.args.trace {
        for (i, (_, metric)) in PARTS.iter().enumerate() {
            ctx.report.set(metric, reps.traced_part_s(i));
        }
        probes::scheduler(ctx);
        probes::model_table1(ctx);
        probes::workloads_cells(ctx);
    }
}
