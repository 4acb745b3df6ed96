//! Ablation studies for the design and calibration choices DESIGN.md calls
//! out. Each switches one mechanism off (or sweeps one constant) and
//! reports the observable it was introduced to produce, so the causal story
//! behind every reproduced figure is checkable.

use partix_core::{AggregatorKind, PartixConfig, SimDuration};
use partix_sim::parallel::par_map;
use partix_workloads::halo::{run_halo, HaloConfig};
use partix_workloads::overhead::{speedup, OverheadSweep};
use partix_workloads::perceived::PerceivedSweep;
use partix_workloads::{run_pt2pt, Pt2PtConfig, ThreadTiming};

use crate::experiments::Quality;
use crate::report::{fmt_bytes, Table};

fn overhead_speedup(
    base: &PartixConfig,
    ours: &PartixConfig,
    partitions: u32,
    sizes: &[usize],
    q: Quality,
) -> Vec<(usize, f64)> {
    let mk = |cfg: &PartixConfig| {
        let mut s = OverheadSweep::new(cfg.clone(), partitions, sizes.to_vec());
        s.warmup = q.warmup;
        s.iters = q.iters;
        s.jobs = q.jobs;
        s.run()
    };
    speedup(&mk(base), &mk(ours))
}

/// A1 — the UCX worker-lock convoy (paper §V-B2): with the
/// oversubscription convoy disabled, the 128-partition blowup collapses.
pub fn ablation_convoy(q: Quality) -> Table {
    let sizes = [64usize << 10, 512 << 10, 4 << 20];
    let mut with = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let mut without = with.clone();
    without.ucx.cores_per_node = u32::MAX; // convoy factor == 1 at any thread count
    let ours = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    // The aggregated side never convoys, so it is shared.
    with.aggregator = AggregatorKind::Persistent;

    let sp_with = overhead_speedup(&with, &ours, 128, &sizes, q);
    let sp_without = overhead_speedup(&without, &ours, 128, &sizes, q);

    let mut t = Table::new(
        "Ablation A1: oversubscription lock convoy (128 partitions, speedup of PLogGP over persistent)",
        &["message_bytes", "message", "with_convoy", "without_convoy"],
    );
    for i in 0..sizes.len() {
        t.push(vec![
            sizes[i].to_string(),
            fmt_bytes(sizes[i]),
            format!("{:.3}", sp_with[i].1),
            format!("{:.3}", sp_without[i].1),
        ]);
    }
    t
}

/// A2 — the NIC small-message fast lane (UCX inlining/BlueFlame, which the
/// paper's module forgoes): removing it slows the baseline at small sizes.
pub fn ablation_small_lane(q: Quality) -> Table {
    let sizes = [1usize << 10, 4 << 10, 64 << 10];
    let base = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let mut no_lane = base.clone();
    no_lane.fabric.inline_wqe_overhead_ns = no_lane.fabric.wqe_overhead_ns;
    let ours = PartixConfig::with_aggregator(AggregatorKind::PLogGp);

    let sp_with = overhead_speedup(&base, &ours, 4, &sizes, q);
    let sp_without = overhead_speedup(&no_lane, &ours, 4, &sizes, q);
    let mut t = Table::new(
        "Ablation A2: baseline small-message fast lane (4 partitions, speedup of PLogGP over persistent)",
        &["message_bytes", "message", "with_fast_lane", "without_fast_lane"],
    );
    for i in 0..sizes.len() {
        t.push(vec![
            sizes[i].to_string(),
            fmt_bytes(sizes[i]),
            format!("{:.3}", sp_with[i].1),
            format!("{:.3}", sp_without[i].1),
        ]);
    }
    t
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
        let mut partix = partix_workloads::overhead::forced_config(
            &PartixConfig::default(),
            16,
            64 << 20,
            16,
            1,
        );
        partix.fabric.qp_bw_fraction = frac;
        partix.fabric.copy_data = false;
        let cfg = Pt2PtConfig {
            partix,
            partitions: 16,
            part_bytes: (64 << 20) / 16,
            warmup: q.warmup.min(2),
            iters: q.iters.min(10),
            timing: ThreadTiming::overhead(),
            seed: 3,
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
    let ours = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    let recv_costs = vec![500u64, 1_500, 2_500, 4_000];
    // The two sweeps inside overhead_speedup are single-size here, so the
    // useful parallelism is across the recv-cost arms themselves.
    let speedups = par_map(q.jobs, recv_costs.clone(), |recv_ns| {
        let mut base = PartixConfig::with_aggregator(AggregatorKind::Persistent);
        base.ucx.recv_path_ns = recv_ns;
        overhead_speedup(&base, &ours, 32, &[128 << 10], q)[0].1
    });
    for (recv_ns, sp) in recv_costs.iter().zip(&speedups) {
        t.push(vec![recv_ns.to_string(), format!("{sp:.3}")]);
    }
    t
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
        let mut partix = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
        partix.delta = SimDuration::from_micros(delta_us);
        partix.fabric.copy_data = false;
        let cfg = Pt2PtConfig {
            partix,
            partitions: 32,
            part_bytes: (8 << 20) / 32,
            warmup: 1,
            iters: q.iters.min(10),
            timing: ThreadTiming::perceived_bw(100, 0.04),
            seed: 5,
        };
        let r = run_pt2pt(&cfg);
        let rounds = (1 + q.iters.min(10)) as f64;
        vec![
            delta_us.to_string(),
            format!("{:.2}", r.total_wrs as f64 / rounds),
            format!("{:.2}", r.mean_tail_ns() / 1e3),
        ]
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
    let run = |adaptive: bool, delta_us: u64| {
        let mut partix = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
        partix.delta = SimDuration::from_micros(delta_us);
        partix.adaptive_delta = adaptive;
        partix.fabric.copy_data = false;
        let cfg = Pt2PtConfig {
            partix,
            partitions: 32,
            part_bytes: (8 << 20) / 32,
            warmup: 2,
            iters: q.iters.min(10),
            timing: ThreadTiming::perceived_bw(100, 0.04),
            seed: 8,
        };
        let r = run_pt2pt(&cfg);
        let rounds = (2 + q.iters.min(10)) as f64;
        (r.total_wrs as f64 / rounds, r.mean_tail_ns() / 1e3)
    };
    let arms = vec![
        ("fixed delta=1us (mis-tuned)", false, 1u64),
        ("fixed delta=35us (paper estimate)", false, 35),
        ("adaptive (starts at 1us)", true, 1),
    ];
    let rows = par_map(q.jobs, arms, |(name, adaptive, delta)| {
        let (wrs, tail) = run(adaptive, delta);
        vec![name.to_string(), format!("{wrs:.2}"), format!("{tail:.2}")]
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
        let mut cfg = PartixConfig::with_aggregator(kind);
        cfg.delta = SimDuration::from_micros(100);
        let mut s = PerceivedSweep::new(cfg, parts, vec![8 << 20]);
        s.warmup = 1;
        s.iters = q.sweep_iters.max(4);
        s.run().remove(0).bandwidth / 1e9
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
