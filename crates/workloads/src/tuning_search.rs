//! Brute-force tuning-table construction (paper §IV-B).
//!
//! The paper searched the (transport partitions × QPs) space per (user
//! partitions, message size) key for ~23 hours on two Niagara nodes. The
//! same exhaustive search runs here against the simulated fabric: for every
//! key, every power-of-two transport count (up to 32) dividing the partition
//! count and every power-of-two QP count (up to 16) up to the transport
//! count is measured with the overhead benchmark; the argmin is recorded.

use partix_core::{PartixConfig, TuningTable};

use crate::overhead::forced_config;
use crate::runner::{run_pt2pt, Pt2PtConfig};

/// Cap on transport partitions tried.
const MAX_TRANSPORT: u32 = 32;
/// Cap on QPs tried.
const MAX_QPS: u32 = 16;
/// Root seed of every candidate run.
const SEED: u64 = 0x7AB1E;

/// Parameters of the brute-force search.
#[derive(Clone)]
pub struct TuningSearch {
    /// Base configuration (fabric parameters etc.).
    pub base: PartixConfig,
    /// User partition counts to cover.
    pub partition_counts: Vec<u32>,
    /// Aggregate message sizes to cover.
    pub sizes: Vec<usize>,
    /// Warm-up rounds per candidate.
    pub warmup: usize,
    /// Measured rounds per candidate.
    pub iters: usize,
    /// Worker threads to fan the per-key searches across (1 = serial).
    /// Every candidate run is an independent seeded simulation, so the
    /// resulting table is identical at any job count.
    pub jobs: usize,
}

impl TuningSearch {
    /// A search over the given grid with quick per-candidate runs.
    pub fn new(base: PartixConfig, partition_counts: Vec<u32>, sizes: Vec<usize>) -> Self {
        TuningSearch {
            base,
            partition_counts,
            sizes,
            warmup: 2,
            iters: 10,
            jobs: 1,
        }
    }

    /// Run the exhaustive search and build the table.
    pub fn run(&self) -> TuningTable {
        let keys: Vec<(u32, usize)> = self
            .partition_counts
            .iter()
            .flat_map(|&parts| self.sizes.iter().map(move |&size| (parts, size)))
            .collect();
        let results = partix_sim::parallel::par_map(self.jobs, keys, |(parts, size)| {
            (parts, size, self.best_for(parts, size))
        });
        let mut table = TuningTable::new();
        for (parts, size, best) in results {
            if let Some((t, q, _ns)) = best {
                table.insert(parts, size as u64, t, q);
            }
        }
        table
    }

    /// Measure every candidate for one key and return the argmin
    /// `(transport, qps, mean_ns)`.
    pub fn best_for(&self, partitions: u32, total_bytes: usize) -> Option<(u32, u32, f64)> {
        let mut best: Option<(u32, u32, f64)> = None;
        let mut t = 1u32;
        while t <= MAX_TRANSPORT.min(partitions) {
            if partitions % t == 0 {
                let mut q = 1u32;
                while q <= MAX_QPS.min(t) {
                    let ns = self.measure(partitions, total_bytes, t, q);
                    if best.is_none_or(|(_, _, b)| ns < b) {
                        best = Some((t, q, ns));
                    }
                    q <<= 1;
                }
            }
            t <<= 1;
        }
        best
    }

    fn measure(&self, partitions: u32, total_bytes: usize, transport: u32, qps: u32) -> f64 {
        let partix = forced_config(&self.base, partitions, total_bytes, transport, qps);
        run_pt2pt(&Pt2PtConfig {
            warmup: self.warmup,
            iters: self.iters,
            seed: SEED,
            ..Pt2PtConfig::overhead(partix, partitions, total_bytes)
        })
        .mean_total_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_covers_grid_and_is_loadable() {
        let mut s = TuningSearch::new(PartixConfig::default(), vec![8], vec![8 << 10, 1 << 20]);
        s.iters = 3;
        s.warmup = 1;
        let table = s.run();
        assert_eq!(table.len(), 2);
        for &size in &[8u64 << 10, 1 << 20] {
            let (t, q) = table.get(8, size).expect("entry present");
            assert!(t.is_power_of_two() && t <= 8);
            assert!(q.is_power_of_two() && q <= t);
        }
        // Round-trips through the text format.
        let text = table.to_text();
        assert_eq!(TuningTable::from_text(&text).unwrap(), table);
    }

    #[test]
    fn small_messages_near_tied_large_prefer_splitting() {
        // The paper's measurement: for small messages the transport
        // partition count barely matters within the direct-verbs module
        // (0.16-1.77% between T=2 and T=32, Fig. 6), while large messages
        // clearly prefer splitting across QPs (Fig. 6/7 and Table I).
        let mut s = TuningSearch::new(PartixConfig::default(), vec![16], vec![]);
        s.iters = 5;
        s.warmup = 1;
        let (t_small, _, best_small) = s.best_for(16, 16 << 10).unwrap();
        let one_small = s.measure(16, 16 << 10, 1, 1);
        assert!(
            (one_small - best_small) / best_small < 0.15,
            "16 KiB: best (T={t_small}, {best_small} ns) and T=1 ({one_small} ns) should be near-tied"
        );
        // 64 MiB: splitting across many QPs must clearly beat one big WR on
        // one QP.
        let split_large = s.measure(16, 64 << 20, 16, 16);
        let one_large = s.measure(16, 64 << 20, 1, 1);
        assert!(
            split_large < one_large,
            "64 MiB: T=16/Q=16 ({split_large} ns) should beat T=1/Q=1 ({one_large} ns)"
        );
    }
}
