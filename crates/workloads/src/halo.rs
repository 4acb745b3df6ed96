//! 2-D halo-exchange pattern (extension).
//!
//! The micro-benchmark suite the paper builds on (Temuçin et al., ICPP'22)
//! also evaluates a halo exchange: every rank of an R×C periodic grid
//! exchanges edges with its four neighbours each iteration, all exchanges
//! concurrent (unlike the sweep's wavefront). This stresses a different
//! regime: 8 simultaneous channels per rank and incast at every NIC. It runs
//! on the sweep's grid driver; only its channels, its ungated compute and
//! its thread timing differ.

use crate::noise::{NoiseModel, ThreadTiming};
use crate::sweep::{run_grid, Pattern, SweepConfig, SweepResult};

/// Configuration of a halo-exchange experiment: the same grid fields as a
/// sweep; [`SweepConfig::small`] is its 4×4 setup.
pub type HaloConfig = SweepConfig;

/// Run a halo-exchange experiment on the virtual clock. The communication
/// time is the iteration time minus one compute phase.
pub fn run_halo(cfg: &HaloConfig) -> SweepResult {
    let (rows, cols) = (cfg.rows, cfg.cols);
    let rank_of = |r: u32, c: u32| (r % rows) * cols + (c % cols);
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            // North, south, west, east: tags 0..4.
            let steps = [(rows - 1, 0), (1, 0), (0, cols - 1), (0, 1)];
            for (tag, (dr, dc)) in (0u32..).zip(steps) {
                edges.push((rank_of(r, c), rank_of(r + dr, c + dc), tag));
            }
        }
    }
    let timing = ThreadTiming {
        compute: cfg.compute,
        noise: NoiseModel::SingleThreadDelay {
            frac: cfg.noise_frac,
        },
        jitter_per_thread_ns: 1_000,
        compute_jitter_frac: 0.0,
        cores_per_node: 40,
    };
    run_grid(
        cfg,
        Pattern {
            edges,
            gated: false,
            timing,
            compute_path_ns: cfg.compute.as_nanos() as f64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_core::{AggregatorKind, PartixConfig};

    fn quick(kind: AggregatorKind, part_bytes: usize) -> SweepResult {
        let mut cfg = HaloConfig::small(PartixConfig::with_aggregator(kind), part_bytes);
        cfg.warmup = 1;
        cfg.iters = 3;
        run_halo(&cfg)
    }

    /// Virtual time is part of the contract, as for the sweep: the 4×4 halo
    /// at 32 KiB messages must report exactly this mean iteration time under
    /// each aggregator.
    #[test]
    fn halo_small_virtual_time_is_pinned() {
        let pinned = [
            (AggregatorKind::Persistent, 0x4130_c53a_0000_0000u64), // 1 099 066 ns
            (AggregatorKind::PLogGp, 0x4130_342a_0000_0000),        // 1 061 930 ns
            (AggregatorKind::TimerPLogGp, 0x4130_131a_8000_0000),   // 1 053 466.5 ns
        ];
        for (kind, bits) in pinned {
            let cfg = HaloConfig {
                warmup: 1,
                iters: 2,
                ..HaloConfig::small(PartixConfig::with_aggregator(kind), (32 << 10) / 8)
            };
            let r = run_halo(&cfg);
            assert_eq!(r.mean_total_ns.to_bits(), bits, "{kind:?}");
        }
    }

    #[test]
    fn completes_and_exceeds_compute() {
        let r = quick(AggregatorKind::PLogGp, 4096);
        assert!(r.mean_total_ns > 1_000_000.0, "at least the 1 ms compute");
        assert!(r.mean_comm_ns > 0.0);
    }

    #[test]
    fn deterministic() {
        let a = quick(AggregatorKind::TimerPLogGp, 8192);
        let b = quick(AggregatorKind::TimerPLogGp, 8192);
        assert_eq!(a.mean_total_ns, b.mean_total_ns);
    }

    #[test]
    fn aggregation_beats_baseline_at_medium_sizes() {
        let persistent = quick(AggregatorKind::Persistent, 8 << 10);
        let ploggp = quick(AggregatorKind::PLogGp, 8 << 10);
        assert!(
            ploggp.mean_comm_ns < persistent.mean_comm_ns,
            "halo: ploggp {} should beat persistent {}",
            ploggp.mean_comm_ns,
            persistent.mean_comm_ns
        );
    }

    #[test]
    fn all_channels_used_every_iteration() {
        // 4x4 periodic grid: 16 ranks x 4 edges = 64 channels each way.
        let cfg = HaloConfig {
            warmup: 0,
            iters: 2,
            ..HaloConfig::small(PartixConfig::default(), 1024)
        };
        let r = run_halo(&cfg);
        assert!(r.mean_total_ns > 0.0);
    }
}
