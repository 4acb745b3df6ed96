//! One function per paper experiment. Each returns [`Table`]s whose rows
//! are exactly the series the paper plots; the `figures` binary saves them
//! as CSV + text and prints headline observables next to the paper's
//! reported values (see EXPERIMENTS.md).

use std::sync::Arc;

use partix_core::telemetry::FlowLog;
use partix_core::{min_delta_ns, AggregatorKind, PartixConfig, SimDuration};
use partix_model::{table1, ArrivalPattern, PLogGpModel};
use partix_profiler::{ArrivalProfile, Timeline};
use partix_sim::parallel::par_map;
use partix_workloads::overhead::{forced_config, pow2_sizes, speedup, OverheadSweep};
use partix_workloads::perceived::PerceivedSweep;
use partix_workloads::sweep::{run_sweep, SweepConfig};
use partix_workloads::tuning_search::TuningSearch;
use partix_workloads::{run_pt2pt, run_pt2pt_instrumented, Pt2PtConfig, ThreadTiming};

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

/// Fig. 6: overhead-benchmark speedup over the persistent baseline for 32
/// user partitions, 2 QPs, varying transport partition counts.
pub fn fig6_table(q: Quality) -> Table {
    let partitions = 32u32;
    let qps = 2u32;
    let transports = [2u32, 4, 8, 16, 32];
    let sizes = pow2_sizes(1 << 10, 16 << 20);

    let mut base_sweep = OverheadSweep::new(
        PartixConfig::with_aggregator(AggregatorKind::Persistent),
        partitions,
        sizes.clone(),
    );
    base_sweep.warmup = q.warmup;
    base_sweep.iters = q.iters;
    base_sweep.jobs = q.jobs;
    let baseline = base_sweep.run();

    let mut cols: Vec<String> = vec!["message_bytes".into(), "message".into()];
    cols.extend(transports.iter().map(|t| format!("speedup_t{t}")));
    let mut table = Table::new(
        "Fig 6: overhead speedup vs persistent, 32 user partitions, 2 QPs, by transport partitions",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );

    // One run per (transport, size) cell, each with its own forced
    // (transport, QPs) key — all independent, fanned out together.
    let kept: Vec<usize> = sizes
        .iter()
        .copied()
        .filter(|s| *s >= partitions as usize)
        .collect();
    let cells: Vec<(u32, usize)> = transports
        .iter()
        .flat_map(|&t| kept.iter().map(move |&size| (t, size)))
        .collect();
    let pts = par_map(q.jobs, cells, |(t, size)| {
        let mut s2 = OverheadSweep::new(
            forced_config(&PartixConfig::default(), partitions, size, t, qps),
            partitions,
            vec![size],
        );
        s2.warmup = q.warmup;
        s2.iters = q.iters;
        s2.run().remove(0)
    });
    let series: Vec<_> = pts
        .chunks(kept.len())
        .map(|pts| speedup(&baseline, pts))
        .collect();
    for (i, b) in baseline.iter().enumerate() {
        let mut row = vec![b.total_bytes.to_string(), fmt_bytes(b.total_bytes)];
        for s in &series {
            row.push(format!("{:.3}", s[i].1));
        }
        table.push(row);
    }
    table
}

/// Fig. 7: overhead-benchmark speedup for 16 user = transport partitions,
/// varying QP counts.
pub fn fig7_table(q: Quality) -> Table {
    let partitions = 16u32;
    let qp_counts = [1u32, 2, 4, 8, 16];
    let sizes = pow2_sizes(1 << 10, 64 << 20);

    let mut base_sweep = OverheadSweep::new(
        PartixConfig::with_aggregator(AggregatorKind::Persistent),
        partitions,
        sizes.clone(),
    );
    base_sweep.warmup = q.warmup;
    base_sweep.iters = q.iters;
    base_sweep.jobs = q.jobs;
    let baseline = base_sweep.run();

    let mut cols: Vec<String> = vec!["message_bytes".into(), "message".into()];
    cols.extend(qp_counts.iter().map(|c| format!("speedup_q{c}")));
    let mut table = Table::new(
        "Fig 7: overhead speedup vs persistent, 16 user/transport partitions, by QP count",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );

    let kept: Vec<usize> = sizes
        .iter()
        .copied()
        .filter(|s| *s >= partitions as usize)
        .collect();
    let cells: Vec<(u32, usize)> = qp_counts
        .iter()
        .flat_map(|&qp| kept.iter().map(move |&size| (qp, size)))
        .collect();
    let pts = par_map(q.jobs, cells, |(qp, size)| {
        let mut s2 = OverheadSweep::new(
            forced_config(&PartixConfig::default(), partitions, size, partitions, qp),
            partitions,
            vec![size],
        );
        s2.warmup = q.warmup;
        s2.iters = q.iters;
        s2.run().remove(0)
    });
    let series: Vec<_> = pts
        .chunks(kept.len())
        .map(|pts| speedup(&baseline, pts))
        .collect();
    for (i, b) in baseline.iter().enumerate() {
        let mut row = vec![b.total_bytes.to_string(), fmt_bytes(b.total_bytes)];
        for s in &series {
            row.push(format!("{:.3}", s[i].1));
        }
        table.push(row);
    }
    table
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
            let mut search = TuningSearch::new(PartixConfig::default(), vec![parts], sizes.clone());
            search.iters = q.search_iters;
            search.warmup = 1;
            search.jobs = q.jobs;
            let tuned = Arc::new(search.run());

            let mk_sweep = |cfg: PartixConfig| {
                let mut s = OverheadSweep::new(cfg, parts, sizes.clone());
                s.warmup = q.warmup;
                s.iters = q.iters;
                s.jobs = q.jobs;
                s
            };
            let baseline =
                mk_sweep(PartixConfig::with_aggregator(AggregatorKind::Persistent)).run();
            let mut tt_cfg = PartixConfig::with_aggregator(AggregatorKind::TuningTable);
            tt_cfg.tuning_table = Some(tuned);
            let tt = mk_sweep(tt_cfg).run();
            let plg = mk_sweep(PartixConfig::with_aggregator(AggregatorKind::PLogGp)).run();
            let tt_speedup = speedup(&baseline, &tt);
            let plg_speedup = speedup(&baseline, &plg);

            let mut table = Table::new(
                format!("Fig 8: aggregator speedup vs persistent, {parts} user partitions"),
                &["message_bytes", "message", "tuning_table", "ploggp"],
            );
            for i in 0..tt_speedup.len() {
                table.push(vec![
                    tt_speedup[i].0.to_string(),
                    fmt_bytes(tt_speedup[i].0),
                    format!("{:.3}", tt_speedup[i].1),
                    format!("{:.3}", plg_speedup[i].1),
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
    [16u32, 32]
        .into_iter()
        .map(|parts| {
            let run = |kind: AggregatorKind, delta_us: Option<u64>| {
                let mut cfg = PartixConfig::with_aggregator(kind);
                if let Some(d) = delta_us {
                    cfg.delta = SimDuration::from_micros(d);
                }
                let mut s = PerceivedSweep::new(cfg, parts, sizes.clone());
                s.warmup = q.sweep_warmup;
                s.iters = q.sweep_iters.max(4);
                s.jobs = q.jobs;
                s.run()
            };
            let persistent = run(AggregatorKind::Persistent, None);
            let ploggp = run(AggregatorKind::PLogGp, None);
            let timer = run(AggregatorKind::TimerPLogGp, Some(3_000));

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
            for i in 0..persistent.len() {
                table.push(vec![
                    persistent[i].total_bytes.to_string(),
                    fmt_bytes(persistent[i].total_bytes),
                    format!("{:.3}", persistent[i].bandwidth / 1e9),
                    format!("{:.3}", ploggp[i].bandwidth / 1e9),
                    format!("{:.3}", timer[i].bandwidth / 1e9),
                    format!("{hw:.3}"),
                ]);
            }
            table
        })
        .collect()
}

/// Figs. 10/11: profiled arrival pattern of one perceived-bandwidth round
/// (compute offset + estimated wire time per partition).
pub fn arrival_profile_table(total_bytes: usize, fig: &str, q: Quality) -> Table {
    let partitions = 32u32;
    let mut partix = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    partix.fabric.copy_data = false;
    let cfg = Pt2PtConfig {
        partix: partix.clone(),
        partitions,
        part_bytes: total_bytes / partitions as usize,
        warmup: q.sweep_warmup,
        iters: 1,
        timing: ThreadTiming::perceived_bw(100, 0.04),
        seed: 0xF16,
    };
    let r = run_pt2pt(&cfg);
    let round = r.rounds.last().expect("measured round");
    let bw = partix.fabric.single_qp_bandwidth();
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
    let partitions = 32u32;
    let mut partix = PartixConfig::with_aggregator(aggregator);
    partix.fabric.copy_data = false;
    let cfg = Pt2PtConfig {
        partix,
        partitions,
        part_bytes: total_bytes / partitions as usize,
        warmup: q.sweep_warmup,
        iters: 1,
        timing: ThreadTiming::perceived_bw(100, 0.04),
        seed: 0x71ae,
    };
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
        if size < parts as usize {
            return String::new();
        }
        let partix = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
        let plan = partix_core::plan_for(&partix, parts, size / parts as usize);
        if plan.group_size <= 1 {
            // The model requests no aggregation: no delta to estimate.
            return String::new();
        }
        let mut cfg_p = partix.clone();
        cfg_p.fabric.copy_data = false;
        let cfg = Pt2PtConfig {
            partix: cfg_p,
            partitions: parts,
            part_bytes: size / parts as usize,
            warmup: 1,
            iters: q.sweep_iters.max(3),
            timing: ThreadTiming::perceived_bw(100, 0.04),
            seed: 0xDE17A,
        };
        let deltas: Vec<f64> = run_pt2pt(&cfg)
            .rounds
            .iter()
            .filter_map(|r| min_delta_ns(r.pready.iter().map(|d| d.as_nanos())))
            .map(|ns| ns as f64)
            .collect();
        if deltas.is_empty() {
            String::new()
        } else {
            let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
            format!("{:.2}", mean / 1_000.0)
        }
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
    let series: Vec<Vec<f64>> = deltas
        .iter()
        .map(|&d| {
            let mut cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
            cfg.delta = SimDuration::from_micros(d);
            let mut s = PerceivedSweep::new(cfg, 32, sizes.clone());
            s.warmup = q.sweep_warmup;
            s.iters = q.sweep_iters.max(4);
            s.jobs = q.jobs;
            s.run().into_iter().map(|p| p.bandwidth / 1e9).collect()
        })
        .collect();
    for (i, &size) in sizes.iter().enumerate() {
        let mut row = vec![size.to_string(), fmt_bytes(size)];
        for s in &series {
            row.push(format!("{:.3}", s[i]));
        }
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
