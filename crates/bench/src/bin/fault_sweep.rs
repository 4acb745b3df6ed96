//! Run the fault sweep: aggregation strategies under injected wire loss
//! with the RC reliability layer on. Writes `results/fault_sweep.json`.
//!
//! ```text
//! fault_sweep [--quick] [--jobs N] [--out DIR] [--seed S] [--trace]
//! ```
//!
//! `--jobs N` fans independent cells across N worker threads (default: the
//! machine's available parallelism); output is byte-identical at any count.
//! `--trace` additionally runs one fully-observed, sampled lossy cell, writes
//! `<out>/telemetry_fault_chaos.json` (counter ledger + invariant verdict)
//! and `<out>/trace_fault_chaos.json` (chrome-trace + causal flow events +
//! windowed frames, what `trace report|diff|timeline` read), and exits
//! non-zero if any counter conservation law is violated or any causal flow
//! chain is incomplete.

use partix_bench::cli::{usage_error, SweepArgs};
use partix_core::{AggregatorKind, LossyConfig, PartixConfig};
use partix_sim::split_seed;
use partix_workloads::fault_sweep::{strategy_name, FaultSweep};
use partix_workloads::{Pt2PtConfig, ThreadTiming};

fn main() {
    let SweepArgs {
        quick,
        jobs,
        out,
        rest,
    } = SweepArgs::from_env();
    let mut seed: Option<u64> = None;
    let mut trace = false;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace = true,
            "--seed" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => seed = Some(s),
                None => usage_error("error: --seed requires an integer argument"),
            },
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    let mut sweep = FaultSweep::new(PartixConfig::default());
    sweep.jobs = jobs;
    if let Some(s) = seed {
        sweep.seed = s;
    }
    if quick {
        sweep.partitions = 8;
        sweep.part_bytes = 1 << 10;
        sweep.loss_rates = vec![0.0, 0.05];
        sweep.warmup = 1;
        sweep.iters = 5;
    }

    let cells = sweep.run();
    println!(
        "{:<14} {:>7} {:>12} {:>8} {:>8} {:>6} {:>6}",
        "aggregator", "drop_p", "mean_us", "drops", "retx", "dups", "recov"
    );
    for c in &cells {
        println!(
            "{:<14} {:>7} {:>12.2} {:>8} {:>8} {:>6} {:>6}{}",
            strategy_name(c.aggregator),
            c.drop_p,
            c.mean_ns / 1_000.0,
            c.drops,
            c.retransmits,
            c.duplicates,
            c.recoveries,
            if c.failed { "  FAILED" } else { "" },
        );
    }
    let path = out.join("fault_sweep.json");
    sweep.write_json(&cells, &path).expect("write results");
    println!("wrote {}", path.display());

    if trace {
        // One fully-observed lossy cell: the chaos wire exercises every
        // counter family (retransmits, duplicates, RNR waits), so a clean
        // invariant report here is the strongest single-run check.
        let mut partix = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
        partix.fabric.copy_data = true;
        partix.loss = Some(LossyConfig::chaos(0.05, split_seed(sweep.seed, "trace", 0)));
        let cfg = Pt2PtConfig {
            partix,
            partitions: sweep.partitions,
            part_bytes: sweep.part_bytes,
            warmup: 1,
            iters: 5,
            timing: ThreadTiming::overhead(),
            seed: sweep.seed,
        };
        if !partix_bench::trace_run::run_trace(&cfg, &out, "fault_chaos") {
            std::process::exit(1);
        }
    }

    if cells.iter().any(|c| c.failed) {
        std::process::exit(1);
    }
}
