//! Ablation studies for the design and calibration choices DESIGN.md calls
//! out. Each switches one mechanism off (or sweeps one constant) and
//! reports the observable it was introduced to produce, so the causal story
//! behind every reproduced figure is checkable.

use partix_core::{AggregatorKind, PartixConfig, SimDuration};
use partix_sim::parallel::par_map;
use partix_workloads::halo::{run_halo, HaloConfig};
use partix_workloads::overhead::forced_config;
use partix_workloads::{run_pt2pt, Pt2PtConfig};

use crate::experiments::{overhead_ratios, timer, Quality};
use crate::report::{fmt_bytes, Table};

/// Speed-up of PLogGP over a baseline with the mechanism under study and
/// over one without it, at each size.
fn with_and_without(
    q: Quality,
    title: &str,
    columns: [&str; 2],
    partitions: u32,
    sizes: &[usize],
    bases: [PartixConfig; 2],
) -> Table {
    let ours = [PartixConfig::with_aggregator(AggregatorKind::PLogGp)];
    let sp = bases.map(|base| overhead_ratios(q, partitions, sizes, &base, &ours).remove(0));
    let mut t = Table::new(title, &["message_bytes", "message", columns[0], columns[1]]);
    for (i, &size) in sizes.iter().enumerate() {
        t.push(vec![
            size.to_string(),
            fmt_bytes(size),
            format!("{:.3}", sp[0][i]),
            format!("{:.3}", sp[1][i]),
        ]);
    }
    t
}

/// A1 — the UCX worker-lock convoy (paper §V-B2): with the
/// oversubscription convoy disabled, the 128-partition blowup collapses.
pub fn ablation_convoy(q: Quality) -> Table {
    let with = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let mut without = with.clone();
    // Convoy factor == 1 at any thread count. The aggregated side never
    // convoys, so it is shared.
    without.ucx.cores_per_node = u32::MAX;
    with_and_without(
        q,
        "Ablation A1: oversubscription lock convoy (128 partitions, speedup of PLogGP over persistent)",
        ["with_convoy", "without_convoy"],
        128,
        &[64 << 10, 512 << 10, 4 << 20],
        [with, without],
    )
}

/// A2 — the NIC small-message fast lane (UCX inlining/BlueFlame, which the
/// paper's module forgoes): removing it slows the baseline at small sizes.
pub fn ablation_small_lane(q: Quality) -> Table {
    let base = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let mut no_lane = base.clone();
    no_lane.fabric.inline_wqe_overhead_ns = no_lane.fabric.wqe_overhead_ns;
    with_and_without(
        q,
        "Ablation A2: baseline small-message fast lane (4 partitions, speedup of PLogGP over persistent)",
        ["with_fast_lane", "without_fast_lane"],
        4,
        &[1 << 10, 4 << 10, 64 << 10],
        [base, no_lane],
    )
}

/// A3 — the per-QP engine fraction behind Fig. 7's multi-QP benefit: a
/// single QP's time for a large transfer scales as 1/fraction.
pub fn ablation_qp_fraction(q: Quality) -> Table {
    let mut t = Table::new(
        "Ablation A3: single-QP engine fraction (16 partitions on 1 QP, 64 MiB, mean round us)",
        &["qp_bw_fraction", "mean_us", "vs_full_link"],
    );
    let fracs = vec![1.0f64, 0.8, 0.6, 0.3];
    let means = par_map(q.jobs, fracs.clone(), |frac| {
        let mut partix = forced_config(&PartixConfig::default(), 16, 64 << 20, 16, 1);
        partix.fabric.qp_bw_fraction = frac;
        let cfg = Pt2PtConfig {
            warmup: q.warmup.min(2),
            iters: q.iters.min(10),
            seed: 3,
            ..Pt2PtConfig::overhead(partix, 16, 64 << 20)
        };
        run_pt2pt(&cfg).mean_total_ns()
    });
    let one = means[0];
    for (frac, mean) in fracs.iter().zip(&means) {
        t.push(vec![
            format!("{frac:.1}"),
            format!("{:.1}", mean / 1e3),
            format!("{:.3}", mean / one),
        ]);
    }
    t
}

/// A4 — the baseline receive-path cost, the dominant calibration constant
/// behind the Fig. 8 peak.
pub fn ablation_recv_path(q: Quality) -> Table {
    let mut t = Table::new(
        "Ablation A4: baseline receive-path cost vs Fig.8 peak (32 partitions, 128 KiB)",
        &["recv_path_ns", "speedup"],
    );
    let ours = [PartixConfig::with_aggregator(AggregatorKind::PLogGp)];
    let recv_costs = vec![500u64, 1_500, 2_500, 4_000];
    // Each arm is one size, so the useful parallelism is across the
    // recv-cost arms themselves.
    let speedups = par_map(q.jobs, recv_costs.clone(), |recv_ns| {
        let mut base = PartixConfig::with_aggregator(AggregatorKind::Persistent);
        base.ucx.recv_path_ns = recv_ns;
        overhead_ratios(q, 32, &[128 << 10], &base, &ours)[0][0]
    });
    for (recv_ns, sp) in recv_costs.iter().zip(&speedups) {
        t.push(vec![recv_ns.to_string(), format!("{sp:.3}")]);
    }
    t
}

/// WRs per round and tail latency (µs) of a 32-partition, 8 MiB
/// perceived-bandwidth cell.
fn wrs_and_tail(partix: PartixConfig, warmup: usize, seed: u64, q: Quality) -> [String; 2] {
    let cfg = Pt2PtConfig {
        warmup,
        iters: q.iters.min(10),
        seed,
        ..Pt2PtConfig::perceived(partix, 32, 8 << 20)
    };
    let r = run_pt2pt(&cfg);
    let rounds = (cfg.warmup + cfg.iters) as f64;
    [
        format!("{:.2}", r.total_wrs as f64 / rounds),
        format!("{:.2}", r.mean_tail_ns() / 1e3),
    ]
}

/// A5 — delta vs flush granularity: smaller deltas split the early flush
/// into more work requests without hurting the tail (Fig. 13's robustness,
/// seen from the wire side).
pub fn ablation_delta_wrs(q: Quality) -> Table {
    let mut t = Table::new(
        "Ablation A5: timer delta vs WRs per round and tail latency (32 partitions, 8 MiB)",
        &["delta_us", "wrs_per_round", "tail_us"],
    );
    let deltas = vec![1u64, 10, 100, 1_000, 100_000];
    let rows = par_map(q.jobs, deltas, |delta_us| {
        let [wrs, tail] = wrs_and_tail(timer(delta_us), 1, 5, q);
        vec![delta_us.to_string(), wrs, tail]
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// A8 (extension) — online delta auto-tuning (the paper's named future
/// work): WRs per round for a badly mis-tuned fixed delta vs the adaptive
/// tuner, on the perceived-bandwidth workload.
pub fn extension_adaptive_delta(q: Quality) -> Table {
    let mut t = Table::new(
        "Extension: adaptive delta vs mis-tuned fixed delta (32 partitions, 8 MiB, WRs per round)",
        &["config", "wrs_per_round", "tail_us"],
    );
    let arms = vec![
        ("fixed delta=1us (mis-tuned)", false, 1u64),
        ("fixed delta=35us (paper estimate)", false, 35),
        ("adaptive (starts at 1us)", true, 1),
    ];
    let rows = par_map(q.jobs, arms, |(name, adaptive_delta, delta_us)| {
        let partix = PartixConfig {
            adaptive_delta,
            ..timer(delta_us)
        };
        let [wrs, tail] = wrs_and_tail(partix, 2, 8, q);
        vec![name.to_string(), wrs, tail]
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// A6 (extension) — the halo-exchange pattern: concurrent all-neighbour
/// exchange instead of a wavefront.
pub fn extension_halo(q: Quality) -> Table {
    let mut t = Table::new(
        "Extension: 2-D periodic halo exchange (4x4 ranks x 8 threads), comm time (us) and speedup",
        &[
            "message_bytes",
            "message",
            "persistent_us",
            "ploggp_us",
            "timer_us",
            "ploggp_speedup",
            "timer_speedup",
        ],
    );
    let msgs = [32usize << 10, 256 << 10, 2 << 20];
    let kinds = [
        AggregatorKind::Persistent,
        AggregatorKind::PLogGp,
        AggregatorKind::TimerPLogGp,
    ];
    let cells: Vec<(usize, AggregatorKind)> = msgs
        .iter()
        .flat_map(|&msg| kinds.iter().map(move |&k| (msg, k)))
        .collect();
    let times = par_map(q.jobs, cells, |(msg, kind)| {
        let mut cfg = HaloConfig::small(PartixConfig::with_aggregator(kind), msg / 8);
        cfg.warmup = q.sweep_warmup;
        cfg.iters = q.sweep_iters;
        run_halo(&cfg).mean_comm_ns
    });
    for (i, &msg) in msgs.iter().enumerate() {
        let (p, g, m) = (times[i * 3], times[i * 3 + 1], times[i * 3 + 2]);
        t.push(vec![
            msg.to_string(),
            fmt_bytes(msg),
            format!("{:.1}", p / 1e3),
            format!("{:.1}", g / 1e3),
            format!("{:.1}", m / 1e3),
            format!("{:.3}", p / g),
            format!("{:.3}", p / m),
        ]);
    }
    t
}

/// A7 — perceived bandwidth with and without the early-bird mechanism: the
/// plain PLogGP aggregator *is* the no-early-bird arm for the laggard's
/// group; this sweeps partition counts to show the gap widening.
pub fn ablation_early_bird(q: Quality) -> Table {
    let mut t = Table::new(
        "Ablation A7: early-bird benefit by partition count (8 MiB, perceived GB/s)",
        &["partitions", "ploggp", "timer_ploggp", "ratio"],
    );
    let part_counts = [4u32, 8, 16, 32];
    let kinds = [AggregatorKind::PLogGp, AggregatorKind::TimerPLogGp];
    let cells: Vec<(u32, AggregatorKind)> = part_counts
        .iter()
        .flat_map(|&parts| kinds.iter().map(move |&k| (parts, k)))
        .collect();
    let bws = par_map(q.jobs, cells, |(parts, kind)| {
        let partix = PartixConfig {
            delta: SimDuration::from_micros(100),
            ..PartixConfig::with_aggregator(kind)
        };
        let cfg = Pt2PtConfig {
            warmup: 1,
            iters: q.sweep_iters.max(4),
            ..Pt2PtConfig::perceived(partix, parts, 8 << 20)
        };
        run_pt2pt(&cfg).perceived_bandwidth(cfg.total_bytes()) / 1e9
    });
    for (i, parts) in part_counts.iter().enumerate() {
        let (plg, tmr) = (bws[i * 2], bws[i * 2 + 1]);
        t.push(vec![
            parts.to_string(),
            format!("{plg:.2}"),
            format!("{tmr:.2}"),
            format!("{:.2}", tmr / plg),
        ]);
    }
    t
}
