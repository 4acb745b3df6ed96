//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--jobs N] [--out DIR] [--trace] [experiment ...]
//! experiments: table1 fig3 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 | all
//! ```
//!
//! `--trace` additionally runs one fully-observed, sampled workload and writes
//! `<out>/telemetry_figures.json` (counter ledger + invariant verdict) and
//! `<out>/trace_figures.json` (chrome-trace + causal flow events + windowed
//! frames, open at <https://ui.perfetto.dev> or analyze with the `trace`
//! binary: `report`, `diff`, `timeline`); the
//! process exits non-zero if any conservation law is violated or any
//! causal flow chain is incomplete. It also exits non-zero when a `check`
//! verdict is not `PASS`.
//!
//! Each experiment writes `<out>/<name>*.csv` and prints the aligned table
//! plus headline observables to stdout. The defaults use the paper's
//! iteration counts; `--quick` trims them for smoke runs. `--jobs N` fans
//! independent experiment cells across N worker threads (default: the
//! machine's available parallelism); every cell is a separately seeded
//! simulation, so the output is byte-identical at any job count.

use std::path::PathBuf;
use std::time::Instant;

use partix_bench::cli::SweepArgs;
use partix_bench::experiments::{self, Quality};
use partix_bench::report::Table;

struct Args {
    quick: bool,
    jobs: usize,
    out: PathBuf,
    trace: bool,
    which: Vec<String>,
}

fn parse_args() -> Args {
    let SweepArgs {
        quick,
        jobs,
        out,
        rest,
    } = SweepArgs::from_env();
    let mut trace = false;
    let mut which = Vec::new();
    for a in rest {
        match a.as_str() {
            "--trace" => trace = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [--quick] [--jobs N] [--out DIR] [--trace] [table1|fig3|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|all ...]"
                );
                std::process::exit(0);
            }
            _ => which.push(a),
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = [
            "table1", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "fig14", "timeline", "check",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    Args {
        quick,
        jobs,
        out,
        trace,
        which,
    }
}

/// The fully-observed workload behind `--trace`.
fn trace_cfg(quick: bool) -> partix_workloads::Pt2PtConfig {
    use partix_core::{AggregatorKind, PartixConfig};
    use partix_workloads::{Pt2PtConfig, ThreadTiming};

    let mut partix = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    partix.fabric.copy_data = true;
    Pt2PtConfig {
        partix,
        partitions: 16,
        part_bytes: 64 << 10,
        warmup: 1,
        iters: if quick { 3 } else { 10 },
        timing: ThreadTiming::perceived_bw(1, 0.04),
        seed: 7,
    }
}

fn emit(args: &Args, slug: &str, table: &Table) {
    let text = table.save(&args.out, slug).expect("write results");
    println!("{text}");
}

fn main() {
    let args = parse_args();
    let q = if args.quick {
        Quality::quick()
    } else {
        Quality::full()
    }
    .with_jobs(args.jobs);
    println!(
        "# partix figures — mode: {}, jobs: {}, output: {}",
        if args.quick {
            "quick"
        } else {
            "full (paper iteration counts)"
        },
        q.jobs,
        args.out.display()
    );

    let mut failed = false;
    for which in &args.which {
        let t0 = Instant::now();
        match which.as_str() {
            "table1" => emit(&args, "table1", &experiments::table1_table()),
            "fig3" => emit(&args, "fig3", &experiments::fig3_table()),
            "fig6" => emit(&args, "fig6", &experiments::fig6_table(q)),
            "fig7" => emit(&args, "fig7", &experiments::fig7_table(q)),
            "fig8" => {
                for (i, t) in experiments::fig8_tables(q).iter().enumerate() {
                    let parts = [4, 32, 128][i];
                    emit(&args, &format!("fig8_p{parts}"), t);
                }
            }
            "fig9" => {
                for (i, t) in experiments::fig9_tables(q).iter().enumerate() {
                    let parts = [16, 32][i];
                    emit(&args, &format!("fig9_p{parts}"), t);
                }
            }
            "fig10" => emit(
                &args,
                "fig10",
                &experiments::arrival_profile_table(8 << 20, "Fig 10", q),
            ),
            "fig11" => emit(
                &args,
                "fig11",
                &experiments::arrival_profile_table(128 << 20, "Fig 11", q),
            ),
            "fig12" => emit(&args, "fig12", &experiments::fig12_table(q)),
            "check" => {
                let table = partix_bench::check::check_table(q);
                emit(&args, "check", &table);
                failed |= table.rows.iter().any(|r| r[4] != "PASS");
            }
            "timeline" => {
                std::fs::create_dir_all(&args.out).expect("results dir");
                for kind in [
                    partix_core::AggregatorKind::Persistent,
                    partix_core::AggregatorKind::TimerPLogGp,
                ] {
                    let text = experiments::timeline_text(8 << 20, kind, q);
                    let slug = format!("timeline_8mib_{kind:?}").to_lowercase();
                    std::fs::write(args.out.join(format!("{slug}.txt")), &text)
                        .expect("write timeline");
                    println!("## Round timeline, 8 MiB, 32 partitions, {kind:?}\n{text}");
                }
            }
            "fig13" => emit(&args, "fig13", &experiments::fig13_table(q)),
            "fig14" => {
                for (i, t) in experiments::fig14_tables(q).iter().enumerate() {
                    let tag = ["a", "b", "c"][i];
                    emit(&args, &format!("fig14{tag}"), t);
                }
            }
            other => {
                eprintln!("unknown experiment: {other} (see --help)");
                continue;
            }
        }
        eprintln!("[{which} done in {:.1?}]", t0.elapsed());
    }

    if args.trace
        && !partix_bench::trace_run::run_trace(&trace_cfg(args.quick), &args.out, "figures")
    {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
