//! Property-based tests of the workload layer: arrival models, the
//! experiment driver's invariants, and the UCX cost model.

use partix_core::{AggregatorKind, PartixConfig, UcxModel};
use partix_workloads::noise::{NoiseModel, ThreadTiming};
use partix_workloads::{run_pt2pt, Pt2PtConfig};
use proptest::prelude::*;

proptest! {
    /// Arrival draws are bounded: every thread lands in
    /// [compute, compute + spread + laggard_delay] and exactly one thread
    /// carries the laggard delay under the single-thread-delay model.
    #[test]
    fn arrivals_bounded_and_single_laggard(
        threads in 1u32..200,
        compute_us in 1u64..200_000,
        frac in 0.0f64..0.2,
        seed in any::<u64>(),
        round in 0u64..50,
    ) {
        let t = ThreadTiming {
            compute: partix_core::SimDuration::from_micros(compute_us),
            noise: NoiseModel::SingleThreadDelay { frac },
            jitter_per_thread_ns: 1_000,
            compute_jitter_frac: 0.0,
            cores_per_node: 40,
        };
        let arr = t.arrivals(threads, seed, round);
        prop_assert_eq!(arr.len(), threads as usize);
        let base = compute_us * 1_000;
        let spread = t.spread(threads).as_nanos();
        let laggard = (base as f64 * frac).round() as u64;
        let mut delayed = 0;
        for a in &arr {
            prop_assert!(a.as_nanos() >= base);
            prop_assert!(a.as_nanos() < base + spread + laggard + 1);
            if a.as_nanos() >= base + laggard && laggard > spread {
                delayed += 1;
            }
        }
        if laggard > spread {
            prop_assert_eq!(delayed, 1, "exactly one laggard when the delay dominates jitter");
        }
    }

    /// The driver's per-round timestamps are causally ordered for every
    /// aggregator and the WR count stays within [groups, partitions] per
    /// round.
    #[test]
    fn driver_round_invariants(
        kind in prop::sample::select(vec![
            AggregatorKind::Persistent,
            AggregatorKind::PLogGp,
            AggregatorKind::TimerPLogGp,
        ]),
        partitions in prop::sample::select(vec![2u32, 4, 8, 16]),
        part_bytes in prop::sample::select(vec![512usize, 16 << 10, 1 << 20]),
        seed in any::<u64>(),
    ) {
        let mut partix = PartixConfig::with_aggregator(kind);
        partix.fabric.copy_data = false;
        let cfg = Pt2PtConfig {
            partix,
            partitions,
            part_bytes,
            warmup: 1,
            iters: 3,
            timing: ThreadTiming::overhead(),
            seed,
        };
        let r = run_pt2pt(&cfg);
        prop_assert_eq!(r.rounds.len(), 3);
        for s in &r.rounds {
            prop_assert!(s.last_pready >= s.start);
            prop_assert!(s.recv_complete > s.last_pready);
            // send completion (ack-bound) and recv completion (receive
            // software path) are independently delayed; only causality
            // against the last commit holds in general.
            prop_assert!(s.send_complete > s.last_pready);
        }
        let plan = partix_core::plan_for(&cfg.partix, partitions, part_bytes, u64::MAX);
        let rounds = 4; // warmup + iters
        prop_assert!(r.total_wrs >= plan.groups as u64 * rounds);
        prop_assert!(r.total_wrs <= partitions as u64 * rounds);
    }

    /// UCX locked CPU cost is monotone non-decreasing in size within each
    /// protocol band, and the convoy factor is monotone in thread count.
    #[test]
    fn ucx_cost_monotone_within_bands(a in 1usize..(1 << 24), b in 1usize..(1 << 24)) {
        let m = UcxModel::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if m.protocol(lo) == m.protocol(hi) {
            prop_assert!(
                m.cost(lo, 1000.0).locked_cpu_ns <= m.cost(hi, 1000.0).locked_cpu_ns
            );
        }
        prop_assert!(m.convoy_factor(64) <= m.convoy_factor(128));
        prop_assert_eq!(m.cost(lo, 1000.0).protocol, m.protocol(lo));
    }

    /// Perceived-bandwidth tail latency: with a laggard far beyond the
    /// spread, the persistent design's tail never exceeds one partition's
    /// wire time by more than the fixed software overheads (the early-bird
    /// guarantee).
    #[test]
    fn persistent_tail_bounded_by_one_partition(
        part_kib in prop::sample::select(vec![64usize, 256, 1024]),
        seed in any::<u64>(),
    ) {
        let mut partix = PartixConfig::with_aggregator(AggregatorKind::Persistent);
        partix.fabric.copy_data = false;
        let part_bytes = part_kib << 10;
        let cfg = Pt2PtConfig {
            partix: partix.clone(),
            partitions: 16,
            part_bytes,
            warmup: 1,
            iters: 3,
            timing: ThreadTiming::perceived_bw(100, 0.04),
            seed,
        };
        let r = run_pt2pt(&cfg);
        let wire_ns = part_bytes as f64 * partix.fabric.qp_g();
        // One partition's wire + generous fixed overhead budget (software
        // paths, latency, completion costs).
        prop_assert!(
            r.mean_tail_ns() < wire_ns + 50_000.0,
            "tail {} vs single-partition wire {}",
            r.mean_tail_ns(),
            wire_ns
        );
    }
}
