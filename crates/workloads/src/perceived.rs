//! The perceived-bandwidth benchmark (paper §V-C, Figs. 9 and 13).
//!
//! Threads compute (100 ms with 4 % single-thread-delay noise in the
//! paper's setup), then commit their partition. The benchmark measures the
//! latency from the *last* `pready` to full arrival and divides the total
//! buffer size by it: with early-bird transmission most bytes are already
//! on the wire when the laggard commits, so the perceived bandwidth can far
//! exceed the hardware's point-to-point bandwidth.

use partix_core::PartixConfig;

use crate::noise::ThreadTiming;
use crate::runner::{run_pt2pt, Pt2PtConfig};

/// One measured point of a perceived-bandwidth sweep.
#[derive(Clone, Copy, Debug)]
pub struct PerceivedPoint {
    /// Aggregate message size.
    pub total_bytes: usize,
    /// Perceived bandwidth (bytes/sec).
    pub bandwidth: f64,
    /// Mean tail latency (last pready → all arrived), ns.
    pub tail_ns: f64,
}

/// Configuration of a perceived-bandwidth sweep.
#[derive(Clone)]
pub struct PerceivedSweep {
    /// Runtime configuration.
    pub partix: PartixConfig,
    /// User partitions (= threads).
    pub partitions: u32,
    /// Aggregate sizes.
    pub sizes: Vec<usize>,
    /// Compute per thread, ms (paper: 100).
    pub compute_ms: u64,
    /// Single-thread-delay noise fraction (paper: 0.04).
    pub noise_frac: f64,
    /// Warm-up rounds.
    pub warmup: usize,
    /// Measured rounds.
    pub iters: usize,
    /// Root seed.
    pub seed: u64,
    /// Worker threads for the per-size cells (1 = serial; results are
    /// identical at any job count).
    pub jobs: usize,
}

impl PerceivedSweep {
    /// Paper-like parameters (100 ms compute, 4 % noise, 10+100 rounds are
    /// reduced to 3+10 here — on the virtual clock additional rounds only
    /// average noise draws).
    pub fn new(partix: PartixConfig, partitions: u32, sizes: Vec<usize>) -> Self {
        PerceivedSweep {
            partix,
            partitions,
            sizes,
            compute_ms: 100,
            noise_frac: 0.04,
            warmup: 3,
            iters: 10,
            seed: 0xBEEF,
            jobs: 1,
        }
    }

    /// Run the sweep.
    pub fn run(&self) -> Vec<PerceivedPoint> {
        let sizes: Vec<usize> = self
            .sizes
            .iter()
            .copied()
            .filter(|s| *s >= self.partitions as usize)
            .collect();
        partix_sim::parallel::par_map(self.jobs, sizes, |total| {
            let mut partix = self.partix.clone();
            partix.fabric.copy_data = false;
            let cfg = Pt2PtConfig {
                partix,
                partitions: self.partitions,
                part_bytes: total / self.partitions as usize,
                warmup: self.warmup,
                iters: self.iters,
                timing: ThreadTiming::perceived_bw(self.compute_ms, self.noise_frac),
                seed: self.seed,
            };
            let r = run_pt2pt(&cfg);
            PerceivedPoint {
                total_bytes: cfg.total_bytes(),
                bandwidth: r.perceived_bandwidth(cfg.total_bytes()),
                tail_ns: r.mean_tail_ns(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_core::{AggregatorKind, SimDuration};

    fn quick(
        kind: AggregatorKind,
        delta_us: Option<u64>,
        sizes: Vec<usize>,
    ) -> Vec<PerceivedPoint> {
        let mut partix = PartixConfig::with_aggregator(kind);
        if let Some(d) = delta_us {
            partix.delta = SimDuration::from_micros(d);
        }
        let mut s = PerceivedSweep::new(partix, 32, sizes);
        s.warmup = 1;
        s.iters = 4;
        s.run()
    }

    #[test]
    fn persistent_perceived_bandwidth_beats_hardware_at_medium_sizes() {
        // Fig. 9: with no aggregation the last partition is tiny, so the
        // perceived bandwidth is far above the single-QP hardware line.
        let pts = quick(AggregatorKind::Persistent, None, vec![8 << 20]);
        let hw = PartixConfig::default().fabric.single_qp_bandwidth();
        assert!(pts[0].bandwidth > 2.0 * hw);
    }

    #[test]
    fn ordering_persistent_ge_timer_ge_ploggp() {
        // Fig. 9's ranking at medium sizes: persistent >= timer > plain
        // PLogGP (aggregation inflates the last transport partition).
        let size = vec![8 << 20];
        let persistent = quick(AggregatorKind::Persistent, None, size.clone());
        let timer = quick(AggregatorKind::TimerPLogGp, Some(100), size.clone());
        let ploggp = quick(AggregatorKind::PLogGp, None, size);
        assert!(
            timer[0].bandwidth > ploggp[0].bandwidth,
            "timer {} should beat ploggp {}",
            timer[0].bandwidth,
            ploggp[0].bandwidth
        );
        assert!(
            persistent[0].bandwidth >= 0.8 * timer[0].bandwidth,
            "persistent {} should be at least comparable to timer {}",
            persistent[0].bandwidth,
            timer[0].bandwidth
        );
    }

    #[test]
    fn large_messages_converge_to_wire_bandwidth() {
        // Fig. 9/11: at 128 MiB the transfer is network-limited, so the
        // perceived bandwidth falls back toward the hardware line.
        let medium = quick(AggregatorKind::Persistent, None, vec![8 << 20]);
        let large = quick(AggregatorKind::Persistent, None, vec![128 << 20]);
        assert!(large[0].bandwidth < medium[0].bandwidth / 2.0);
    }
}
