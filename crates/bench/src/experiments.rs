//! One function per paper experiment. Each returns [`Table`]s whose rows
//! are exactly the series the paper plots; the `figures` binary saves them
//! as CSV + text and prints headline observables next to the paper's
//! reported values (see EXPERIMENTS.md).

use std::sync::Arc;

use partix_core::telemetry::FlowLog;
use partix_core::{AggregatorKind, PartixConfig, SimDuration};
use partix_model::{table1, ArrivalPattern, PLogGpModel};
use partix_profiler::{ArrivalProfile, Timeline};
use partix_sim::parallel::par_map;
use partix_workloads::overhead::{forced_config, pow2_sizes};
use partix_workloads::sweep::{run_sweep, SweepConfig};
use partix_workloads::tuning_search::TuningSearch;
use partix_workloads::{run_pt2pt, run_pt2pt_instrumented, Pt2PtConfig};

use crate::report::{fmt_bytes, Table};

/// Effort knob for the experiment harnesses.
#[derive(Clone, Copy, Debug)]
pub struct Quality {
    /// Warm-up rounds for point-to-point benchmarks.
    pub warmup: usize,
    /// Measured rounds for point-to-point benchmarks.
    pub iters: usize,
    /// Warm-up iterations for the sweep.
    pub sweep_warmup: usize,
    /// Measured iterations for the sweep.
    pub sweep_iters: usize,
    /// Rounds per candidate in the tuning search.
    pub search_iters: usize,
    /// Worker threads for independent experiment cells (1 = serial). Cells
    /// are separately seeded simulations, so every table is byte-identical
    /// at any job count — this only changes wall-clock time.
    pub jobs: usize,
}

impl Quality {
    /// The paper's iteration counts (10+100 point-to-point, 3+10 sweep).
    pub fn full() -> Self {
        Quality {
            warmup: 10,
            iters: 100,
            sweep_warmup: 3,
            sweep_iters: 10,
            search_iters: 10,
            jobs: 1,
        }
    }

    /// Reduced counts for CI and the benchmark.
    pub fn quick() -> Self {
        Quality {
            warmup: 2,
            iters: 8,
            sweep_warmup: 1,
            sweep_iters: 3,
            search_iters: 4,
            jobs: 1,
        }
    }

    /// Set the worker-thread count for independent cells.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

/// Table I: model-optimal transport partition counts.
pub fn table1_table() -> Table {
    let mut t = Table::new(
        "Table I: optimal transport partitions (PLogGP, Niagara calibration, 4 ms delay)",
        &["message_bytes", "message", "transport_partitions"],
    );
    for row in table1(&PLogGpModel::niagara()) {
        t.push(vec![
            row.message_bytes.to_string(),
            fmt_bytes(row.message_bytes),
            row.transport_partitions.to_string(),
        ]);
    }
    t
}

/// Fig. 3: modelled completion time vs message size for partition counts
/// 1..32, many-before-one with a 4 ms delay.
pub fn fig3_table() -> Table {
    let model = PLogGpModel::niagara();
    let counts = [1u32, 2, 4, 8, 16, 32];
    let mut cols: Vec<String> = vec!["message_bytes".into(), "message".into()];
    cols.extend(counts.iter().map(|c| format!("t{c}_ms")));
    let mut t = Table::new(
        "Fig 3: PLogGP modelled completion time (ms), 4 ms laggard delay",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for size in pow2_sizes(1 << 10, 512 << 20) {
        let mut row = vec![size.to_string(), fmt_bytes(size)];
        for c in counts {
            let ns = model.completion(size, c, &ArrivalPattern::ManyBeforeOne { delay_ns: 4e6 });
            row.push(format!("{:.4}", ns / 1e6));
        }
        t.push(row);
    }
    t
}

/// The timer aggregator at a δ of `delta_us`.
pub(crate) fn timer(delta_us: u64) -> PartixConfig {
    PartixConfig {
        delta: SimDuration::from_micros(delta_us),
        ..PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp)
    }
}

/// Overhead speed-up over `base` of each arm at every size, at `q`'s rounds:
/// `out[arm][size]` is `base`'s mean round time over the arm's.
pub(crate) fn overhead_ratios(
    q: Quality,
    partitions: u32,
    sizes: &[usize],
    base: &PartixConfig,
    arms: &[PartixConfig],
) -> Vec<Vec<f64>> {
    let cells = std::iter::once(base)
        .chain(arms)
        .flat_map(|cfg| sizes.iter().map(move |&size| (cfg.clone(), size)))
        .collect();
    ratios(q, partitions, sizes.len(), cells)
}

/// Mean overhead round times of `(config, total bytes)` cells — `n` of the
/// baseline, then `n` per arm — divided into speed-ups, `out[arm][size]`.
fn ratios(
    q: Quality,
    partitions: u32,
    n: usize,
    cells: Vec<(PartixConfig, usize)>,
) -> Vec<Vec<f64>> {
    let ns = par_map(q.jobs, cells, |(partix, size)| {
        let cell = Pt2PtConfig {
            warmup: q.warmup,
            iters: q.iters,
            ..Pt2PtConfig::overhead(partix, partitions, size)
        };
        run_pt2pt(&cell).mean_total_ns()
    });
    let (base, arms) = ns.split_at(n);
    arms.chunks(n)
        .map(|arm| base.iter().zip(arm).map(|(b, a)| b / a).collect())
        .collect()
}

/// Figs. 6/7: overhead speed-up over persistent of each forced
/// `(transport partitions, QPs)` arm, one column each.
fn forced_table(
    q: Quality,
    title: &str,
    partitions: u32,
    sizes: Vec<usize>,
    arms: &[(u32, u32)],
    column: fn(&(u32, u32)) -> String,
) -> Table {
    let mut cols: Vec<String> = vec!["message_bytes".into(), "message".into()];
    cols.extend(arms.iter().map(column));
    let mut table = Table::new(title, &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let base = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let forced = |&(t, qps): &(u32, u32), size| {
        forced_config(&PartixConfig::default(), partitions, size, t, qps)
    };
    let cells = (sizes.iter().map(|&size| (base.clone(), size)))
        .chain(
            arms.iter()
                .flat_map(|arm| sizes.iter().map(move |&s| (forced(arm, s), s))),
        )
        .collect();
    let series = ratios(q, partitions, sizes.len(), cells);
    for (i, &size) in sizes.iter().enumerate() {
        let mut row = vec![size.to_string(), fmt_bytes(size)];
        row.extend(series.iter().map(|s| format!("{:.3}", s[i])));
        table.push(row);
    }
    table
}

/// Fig. 6: overhead-benchmark speedup over the persistent baseline for 32
/// user partitions, 2 QPs, varying transport partition counts.
pub fn fig6_table(q: Quality) -> Table {
    forced_table(
        q,
        "Fig 6: overhead speedup vs persistent, 32 user partitions, 2 QPs, by transport partitions",
        32,
        pow2_sizes(1 << 10, 16 << 20),
        &[2, 4, 8, 16, 32].map(|t| (t, 2)),
        |(t, _)| format!("speedup_t{t}"),
    )
}

/// Fig. 7: overhead-benchmark speedup for 16 user = transport partitions,
/// varying QP counts.
pub fn fig7_table(q: Quality) -> Table {
    forced_table(
        q,
        "Fig 7: overhead speedup vs persistent, 16 user/transport partitions, by QP count",
        16,
        pow2_sizes(1 << 10, 64 << 20),
        &[1, 2, 4, 8, 16].map(|qps| (16, qps)),
        |(_, qps)| format!("speedup_q{qps}"),
    )
}

/// Fig. 8: tuning-table vs PLogGP aggregator speedup over persistent, for
/// 4/32/128 user partitions. Returns one table per partition count.
pub fn fig8_tables(q: Quality) -> Vec<Table> {
    let sizes = pow2_sizes(1 << 10, 64 << 20);
    [4u32, 32, 128]
        .into_iter()
        .map(|parts| {
            // Brute-force table for this partition count (the paper's 23-hour
            // search, in simulation).
            let search = TuningSearch {
                warmup: 1,
                iters: q.search_iters,
                jobs: q.jobs,
                ..TuningSearch::new(PartixConfig::default(), vec![parts], sizes.clone())
            };
            let tuned = PartixConfig {
                tuning_table: Some(Arc::new(search.run())),
                ..PartixConfig::with_aggregator(AggregatorKind::TuningTable)
            };
            let arms = [tuned, PartixConfig::with_aggregator(AggregatorKind::PLogGp)];
            let base = PartixConfig::with_aggregator(AggregatorKind::Persistent);
            let sp = overhead_ratios(q, parts, &sizes, &base, &arms);

            let mut table = Table::new(
                format!("Fig 8: aggregator speedup vs persistent, {parts} user partitions"),
                &["message_bytes", "message", "tuning_table", "ploggp"],
            );
            for (i, &size) in sizes.iter().enumerate() {
                table.push(vec![
                    size.to_string(),
                    fmt_bytes(size),
                    format!("{:.3}", sp[0][i]),
                    format!("{:.3}", sp[1][i]),
                ]);
            }
            table
        })
        .collect()
}

/// Fig. 9: perceived bandwidth (GB/s) for persistent / PLogGP / timer
/// (delta = 3000 us), 16 and 32 partitions, 100 ms compute, 4 % noise.
pub fn fig9_tables(q: Quality) -> Vec<Table> {
    let sizes = pow2_sizes(64 << 10, 256 << 20);
    let hw = PartixConfig::default().fabric.link_bandwidth() / 1e9;
    let arms = [
        PartixConfig::with_aggregator(AggregatorKind::Persistent),
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
        timer(3_000),
    ];
    [16u32, 32]
        .into_iter()
        .map(|parts| {
            let cells: Vec<Pt2PtConfig> = arms
                .iter()
                .flat_map(|cfg| sizes.iter().map(move |&size| (cfg, size)))
                .map(|(cfg, size)| Pt2PtConfig {
                    warmup: q.sweep_warmup,
                    iters: q.sweep_iters.max(4),
                    ..Pt2PtConfig::perceived(cfg.clone(), parts, size)
                })
                .collect();
            let gbs = par_map(q.jobs, cells, |c| {
                run_pt2pt(&c).perceived_bandwidth(c.total_bytes()) / 1e9
            });

            let mut table = Table::new(
                format!(
                    "Fig 9: perceived bandwidth (GB/s), {parts} partitions, 100 ms compute, 4% noise, delta=3000us (hw single-threaded pt2pt line = {hw:.2} GB/s)"
                ),
                &[
                    "message_bytes",
                    "message",
                    "persistent",
                    "ploggp",
                    "timer_ploggp",
                    "hw_line",
                ],
            );
            for (i, &size) in sizes.iter().enumerate() {
                let mut row = vec![size.to_string(), fmt_bytes(size)];
                row.extend(gbs[i..].iter().step_by(sizes.len()).map(|g| format!("{g:.3}")));
                row.push(format!("{hw:.3}"));
                table.push(row);
            }
            table
        })
        .collect()
}

/// One profiled perceived-bandwidth round of `total_bytes` over 32
/// partitions, after `q.sweep_warmup` warm-up rounds.
fn profiled_round(partix: PartixConfig, total_bytes: usize, seed: u64, q: Quality) -> Pt2PtConfig {
    Pt2PtConfig {
        warmup: q.sweep_warmup,
        iters: 1,
        seed,
        ..Pt2PtConfig::perceived(partix, 32, total_bytes)
    }
}

/// Figs. 10/11: profiled arrival pattern of one perceived-bandwidth round
/// (compute offset + estimated wire time per partition).
pub fn arrival_profile_table(total_bytes: usize, fig: &str, q: Quality) -> Table {
    let persistent = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let cfg = profiled_round(persistent, total_bytes, 0xF16, q);
    let r = run_pt2pt(&cfg);
    let round = r.rounds.last().expect("measured round");
    let bw = cfg.partix.fabric.single_qp_bandwidth();
    let profile = ArrivalProfile::from_offsets(&round.pready, cfg.part_bytes, bw);

    let mut table = Table::new(
        format!(
            "{fig}: arrival pattern, {} total, 32 partitions, 100 ms compute, 4% noise",
            fmt_bytes(total_bytes)
        ),
        &["order", "partition", "compute_ms", "est_comm_ms"],
    );
    for (i, p) in profile.points.iter().enumerate() {
        table.push(vec![
            i.to_string(),
            p.partition.to_string(),
            format!("{:.4}", p.compute_ns / 1e6),
            format!("{:.4}", p.comm_ns / 1e6),
        ]);
    }
    table
}

/// ASCII timeline of one profiled round (the live form of Figs. 10/11),
/// rendered via `partix_profiler::Timeline` from the round's `pready`
/// offsets and its flow log.
pub fn timeline_text(total_bytes: usize, aggregator: AggregatorKind, q: Quality) -> String {
    let partix = PartixConfig::with_aggregator(aggregator);
    let cfg = profiled_round(partix, total_bytes, 0x71ae, q);
    let log = FlowLog::new();
    let r = run_pt2pt_instrumented(&cfg, Some(log.clone()), None).0;
    let round = r.rounds.last().expect("measured round");
    Timeline::from_flows(
        round.start,
        &round.pready,
        round.send_complete,
        &log.sorted(),
    )
    .focus_communication()
    .render(100)
}

/// Fig. 12: estimated minimum delta (us) per message size and partition
/// count. Cells are empty where the PLogGP plan does not aggregate
/// (transport == user partitions), matching the paper's missing points.
pub fn fig12_table(q: Quality) -> Table {
    let partition_counts = [4u32, 8, 16, 32, 64, 128];
    let sizes = pow2_sizes(256 << 10, 128 << 20);
    let mut cols: Vec<String> = vec!["message_bytes".into(), "message".into()];
    cols.extend(
        partition_counts
            .iter()
            .map(|p| format!("p{p}_min_delta_us")),
    );
    let mut table = Table::new(
        "Fig 12: estimated minimum delta (us) for the timer aggregator",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    // The full (size x partition count) grid: every cell is an independent
    // profiled run, so the whole grid fans out at once.
    let cells: Vec<(usize, u32)> = sizes
        .iter()
        .flat_map(|&size| partition_counts.iter().map(move |&parts| (size, parts)))
        .collect();
    let values = par_map(q.jobs, cells, |(size, parts)| {
        let partix = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
        let plan = partix_core::plan_for(&partix, parts, size / parts as usize, u64::MAX);
        if plan.group_size <= 1 {
            // The model requests no aggregation: no delta to estimate.
            return String::new();
        }
        let cfg = Pt2PtConfig {
            warmup: 1,
            iters: q.sweep_iters.max(3),
            seed: 0xDE17A,
            ..Pt2PtConfig::perceived(partix, parts, size)
        };
        run_pt2pt(&cfg)
            .mean_min_delta_ns()
            .map_or(String::new(), |ns| format!("{:.2}", ns / 1_000.0))
    });
    for (i, &size) in sizes.iter().enumerate() {
        let mut row = vec![size.to_string(), fmt_bytes(size)];
        row.extend_from_slice(
            &values[i * partition_counts.len()..(i + 1) * partition_counts.len()],
        );
        table.push(row);
    }
    table
}

/// Fig. 13: perceived bandwidth around the estimated minimum delta
/// (10/35/100 us) for 32 partitions.
pub fn fig13_table(q: Quality) -> Table {
    let sizes = pow2_sizes(64 << 10, 256 << 20);
    let deltas = [10u64, 35, 100];
    let mut cols: Vec<String> = vec!["message_bytes".into(), "message".into()];
    cols.extend(deltas.iter().map(|d| format!("delta_{d}us_gbs")));
    let mut table = Table::new(
        "Fig 13: perceived bandwidth (GB/s) around the minimum delta, 32 partitions",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let cells: Vec<Pt2PtConfig> = deltas
        .iter()
        .flat_map(|&d| sizes.iter().map(move |&size| (d, size)))
        .map(|(d, size)| Pt2PtConfig {
            warmup: q.sweep_warmup,
            iters: q.sweep_iters.max(4),
            ..Pt2PtConfig::perceived(timer(d), 32, size)
        })
        .collect();
    let gbs = par_map(q.jobs, cells, |c| {
        run_pt2pt(&c).perceived_bandwidth(c.total_bytes()) / 1e9
    });
    for (i, &size) in sizes.iter().enumerate() {
        let mut row = vec![size.to_string(), fmt_bytes(size)];
        row.extend(
            gbs[i..]
                .iter()
                .step_by(sizes.len())
                .map(|g| format!("{g:.3}")),
        );
        table.push(row);
    }
    table
}

/// Fig. 14: Sweep3D communication-time speedup at 1024 cores (8x8 ranks x
/// 16 threads) for the three (compute, noise) settings.
pub fn fig14_tables(q: Quality) -> Vec<Table> {
    // (compute_ms equivalent, noise) => laggard delays of 10/40/400 us as in
    // the paper's subfigure captions.
    let scenarios = [
        ("a", SimDuration::from_millis(1), 0.01),
        ("b", SimDuration::from_millis(1), 0.04),
        ("c", SimDuration::from_millis(10), 0.04),
    ];
    let msg_sizes = pow2_sizes(16 << 10, 4 << 20);
    scenarios
        .into_iter()
        .map(|(tag, compute, noise)| {
            let mut table = Table::new(
                format!(
                    "Fig 14{tag}: sweep comm-time speedup vs persistent, 1024 cores, compute {} noise {:.0}% (laggard {}us)",
                    compute,
                    noise * 100.0,
                    (compute.as_nanos() as f64 * noise / 1_000.0)
                ),
                &["message_bytes", "message", "ploggp", "timer_ploggp"],
            );
            // Three aggregator runs per message size, all independent
            // 1024-core simulations: fan the whole (size x kind) grid out.
            let kinds = [
                AggregatorKind::Persistent,
                AggregatorKind::PLogGp,
                AggregatorKind::TimerPLogGp,
            ];
            let cells: Vec<(usize, AggregatorKind)> = msg_sizes
                .iter()
                .flat_map(|&msg| kinds.iter().map(move |&k| (msg, k)))
                .collect();
            let times = par_map(q.jobs, cells, |(msg, kind)| {
                let mut cfg =
                    SweepConfig::paper_1024(PartixConfig::with_aggregator(kind), msg / 16);
                cfg.compute = compute;
                cfg.noise_frac = noise;
                cfg.warmup = q.sweep_warmup;
                cfg.iters = q.sweep_iters;
                run_sweep(&cfg).mean_comm_ns
            });
            for (i, &msg) in msg_sizes.iter().enumerate() {
                let (persistent, plg, timer) = (times[i * 3], times[i * 3 + 1], times[i * 3 + 2]);
                table.push(vec![
                    msg.to_string(),
                    fmt_bytes(msg),
                    format!("{:.3}", persistent / plg),
                    format!("{:.3}", persistent / timer),
                ]);
            }
            table
        })
        .collect()
}
