//! The overhead benchmark (paper §V-B, Figs. 6–8).
//!
//! Measures the wire efficiency of partitioned transfers with balanced
//! threads (no injected noise; natural arrival jitter only): total time
//! from round start to completion on both sides, swept over aggregate
//! message sizes. Results are reported as speedup over the persistent
//! (Open MPI + UCX analogue) baseline.

use std::sync::Arc;

use partix_core::{AggregatorKind, PartixConfig, TuningTable};

use crate::noise::ThreadTiming;
use crate::runner::{run_pt2pt, Pt2PtConfig};
use crate::stats;

/// One measured point of an overhead sweep.
#[derive(Clone, Copy, Debug)]
pub struct OverheadPoint {
    /// Aggregate message size (all partitions together).
    pub total_bytes: usize,
    /// Mean round time (ns).
    pub mean_ns: f64,
    /// Sample standard deviation (ns).
    pub std_ns: f64,
    /// Mean WRs posted per round.
    pub wrs_per_round: f64,
}

/// Configuration of an overhead sweep.
#[derive(Clone)]
pub struct OverheadSweep {
    /// Base runtime configuration (aggregator etc.).
    pub partix: PartixConfig,
    /// User partition count (= thread count).
    pub partitions: u32,
    /// Aggregate sizes to measure.
    pub sizes: Vec<usize>,
    /// Warm-up rounds.
    pub warmup: usize,
    /// Measured rounds.
    pub iters: usize,
    /// Root seed.
    pub seed: u64,
    /// Worker threads to fan the per-size cells across (1 = serial). Each
    /// size is an independent simulation, so results are identical at any
    /// job count.
    pub jobs: usize,
}

impl OverheadSweep {
    /// Paper-like defaults: 10 warm-up + 100 measured iterations.
    pub fn new(partix: PartixConfig, partitions: u32, sizes: Vec<usize>) -> Self {
        OverheadSweep {
            partix,
            partitions,
            sizes,
            warmup: 10,
            iters: 100,
            seed: 0xC0FFEE,
            jobs: 1,
        }
    }

    /// Run the sweep. Sizes smaller than the partition count are skipped
    /// (a partition must hold at least one byte).
    pub fn run(&self) -> Vec<OverheadPoint> {
        let sizes: Vec<usize> = self
            .sizes
            .iter()
            .copied()
            .filter(|s| *s >= self.partitions as usize)
            .collect();
        partix_sim::parallel::par_map(self.jobs, sizes, |total| {
            run_overhead_point(&self.partix, self.partitions, total, self)
        })
    }
}

fn run_overhead_point(
    partix: &PartixConfig,
    partitions: u32,
    total_bytes: usize,
    sweep: &OverheadSweep,
) -> OverheadPoint {
    let mut partix = partix.clone();
    partix.fabric.copy_data = false; // timing study
    let cfg = Pt2PtConfig {
        partix,
        partitions,
        part_bytes: total_bytes / partitions as usize,
        warmup: sweep.warmup,
        iters: sweep.iters,
        timing: ThreadTiming::overhead(),
        seed: sweep.seed,
    };
    let r = run_pt2pt(&cfg);
    let times: Vec<f64> = r
        .rounds
        .iter()
        .map(|s| s.total().as_nanos() as f64)
        .collect();
    OverheadPoint {
        total_bytes: cfg.total_bytes(),
        mean_ns: stats::mean(&times),
        std_ns: stats::stddev(&times),
        wrs_per_round: r.total_wrs as f64 / (sweep.warmup + sweep.iters) as f64,
    }
}

/// Force a specific `(transport partitions, QPs)` configuration by routing
/// the plan through a one-entry tuning table (how Figs. 6/7 sweep the
/// mapping space directly).
pub fn forced_config(
    base: &PartixConfig,
    partitions: u32,
    total_bytes: usize,
    transport: u32,
    qps: u32,
) -> PartixConfig {
    let mut table = TuningTable::new();
    table.insert(partitions, total_bytes as u64, transport, qps);
    let mut cfg = base.clone();
    cfg.aggregator = AggregatorKind::TuningTable;
    cfg.max_qps_per_channel = qps.max(1);
    cfg.tuning_table = Some(Arc::new(table));
    cfg
}

/// Pointwise speedup of `ours` over `baseline` (matched by size; sizes
/// present in only one series are dropped).
pub fn speedup(baseline: &[OverheadPoint], ours: &[OverheadPoint]) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for b in baseline {
        if let Some(o) = ours.iter().find(|o| o.total_bytes == b.total_bytes) {
            out.push((b.total_bytes, b.mean_ns / o.mean_ns));
        }
    }
    out
}

/// Power-of-two sizes from `lo` to `hi` inclusive.
pub fn pow2_sizes(lo: usize, hi: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = lo.next_power_of_two();
    while s <= hi {
        v.push(s);
        s <<= 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep(kind: AggregatorKind, partitions: u32, sizes: Vec<usize>) -> Vec<OverheadPoint> {
        let mut s = OverheadSweep::new(PartixConfig::with_aggregator(kind), partitions, sizes);
        s.warmup = 2;
        s.iters = 6;
        s.run()
    }

    #[test]
    fn pow2_sizes_span() {
        assert_eq!(pow2_sizes(1024, 8192), vec![1024, 2048, 4096, 8192]);
        assert_eq!(pow2_sizes(1000, 4096), vec![1024, 2048, 4096]);
    }

    #[test]
    fn sweep_produces_monotone_nonless_times_for_large_sizes() {
        let pts = quick_sweep(
            AggregatorKind::PLogGp,
            16,
            vec![64 << 10, 1 << 20, 16 << 20],
        );
        assert_eq!(pts.len(), 3);
        assert!(pts[1].mean_ns > pts[0].mean_ns);
        assert!(pts[2].mean_ns > pts[1].mean_ns);
    }

    #[test]
    fn forced_config_controls_wr_count() {
        let base = PartixConfig::default();
        let total = 1 << 20;
        let forced = forced_config(&base, 16, total, 4, 2);
        let mut sweep = OverheadSweep::new(forced, 16, vec![total]);
        sweep.warmup = 1;
        sweep.iters = 2;
        let pts = sweep.run();
        assert_eq!(pts[0].wrs_per_round, 4.0);
    }

    #[test]
    fn aggregation_beats_persistent_at_medium_sizes_many_partitions() {
        // The paper's headline: 32 partitions, medium aggregate sizes ->
        // aggregating wins over per-partition UCX messages.
        let base = quick_sweep(AggregatorKind::Persistent, 32, vec![128 << 10]);
        let ours = quick_sweep(AggregatorKind::PLogGp, 32, vec![128 << 10]);
        let sp = speedup(&base, &ours);
        assert_eq!(sp.len(), 1);
        assert!(
            sp[0].1 > 1.0,
            "expected speedup > 1 at 128 KiB / 32 partitions, got {}",
            sp[0].1
        );
    }

    #[test]
    fn tiny_sizes_skipped() {
        let pts = quick_sweep(AggregatorKind::PLogGp, 32, vec![16, 64 << 10]);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].total_bytes, 64 << 10);
    }
}
