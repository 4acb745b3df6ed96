//! The fault sweep: aggregation strategies under wire loss.
//!
//! Runs the point-to-point experiment across a grid of wire drop rates and
//! all four aggregation strategies with the reliability layer on (chaos
//! loss model: drops plus duplicates plus delays), and reports round times
//! alongside the reliability layer's work — drops absorbed, retransmissions
//! performed, duplicates suppressed, QP recoveries spent. The headline
//! observable: at every loss rate in the sweep, every strategy still
//! completes every round with zero application-visible failures.

use std::path::Path;

use partix_core::telemetry::{write_json, Json};
use partix_core::{AggregatorKind, LossyConfig, PartixConfig};
use partix_sim::split_seed;

use crate::noise::ThreadTiming;
use crate::runner::{run_pt2pt, Pt2PtConfig};
use crate::stats;

/// The four aggregation strategies, in sweep order.
pub const STRATEGIES: [AggregatorKind; 4] = [
    AggregatorKind::Persistent,
    AggregatorKind::TuningTable,
    AggregatorKind::PLogGp,
    AggregatorKind::TimerPLogGp,
];

/// Spelling used in reports.
pub fn strategy_name(kind: AggregatorKind) -> &'static str {
    match kind {
        AggregatorKind::Persistent => "persistent",
        AggregatorKind::TuningTable => "tuning_table",
        AggregatorKind::PLogGp => "ploggp",
        AggregatorKind::TimerPLogGp => "timer_ploggp",
    }
}

/// One measured cell of the fault sweep.
#[derive(Clone, Copy, Debug)]
pub struct FaultCell {
    /// Aggregation strategy.
    pub aggregator: AggregatorKind,
    /// Wire drop probability of the cell.
    pub drop_p: f64,
    /// Mean round time (ns).
    pub mean_ns: f64,
    /// Sample standard deviation (ns).
    pub std_ns: f64,
    /// Transfers the wire dropped.
    pub drops: u64,
    /// Retransmissions the reliability layer performed.
    pub retransmits: u64,
    /// Ghost duplicates injected (suppressed at the destination).
    pub duplicates: u64,
    /// QP recovery cycles on the sender.
    pub recoveries: u64,
    /// Whether the send request surfaced a fatal error (should stay
    /// `false` at every swept loss rate).
    pub failed: bool,
}

/// Configuration of a fault sweep.
#[derive(Clone)]
pub struct FaultSweep {
    /// Base runtime configuration (reliability settings, fabric timing).
    pub partix: PartixConfig,
    /// User partition count.
    pub partitions: u32,
    /// Bytes per partition.
    pub part_bytes: usize,
    /// Wire drop probabilities to sweep (0 = clean-wire control).
    pub loss_rates: Vec<f64>,
    /// Warm-up rounds per cell.
    pub warmup: usize,
    /// Measured rounds per cell.
    pub iters: usize,
    /// Root seed (each cell derives an independent stream).
    pub seed: u64,
    /// Worker threads (1 = serial; results identical at any job count).
    pub jobs: usize,
}

impl FaultSweep {
    /// Defaults: the paper-adjacent grid — drop rates 0 to 10%, 16
    /// partitions of 4 KiB, 20 measured rounds per cell.
    pub fn new(partix: PartixConfig) -> Self {
        FaultSweep {
            partix,
            partitions: 16,
            part_bytes: 4 << 10,
            loss_rates: vec![0.0, 0.01, 0.02, 0.05, 0.10],
            warmup: 2,
            iters: 20,
            seed: 0xFA_0175,
            jobs: 1,
        }
    }

    /// Run the full strategy x loss-rate grid.
    pub fn run(&self) -> Vec<FaultCell> {
        let cells: Vec<(AggregatorKind, f64, u64)> = STRATEGIES
            .iter()
            .flat_map(|&kind| self.loss_rates.iter().map(move |&p| (kind, p)))
            .enumerate()
            .map(|(i, (kind, p))| (kind, p, i as u64))
            .collect();
        partix_sim::parallel::par_map(self.jobs, cells, |(kind, drop_p, idx)| {
            self.run_cell(kind, drop_p, idx)
        })
    }

    fn run_cell(&self, kind: AggregatorKind, drop_p: f64, idx: u64) -> FaultCell {
        let mut partix = self.partix.clone();
        partix.aggregator = kind;
        // Bytes really move: the sweep double-checks integrity, not just
        // timing, so virtual buffers are not an option here.
        partix.fabric.copy_data = true;
        partix.loss = (drop_p > 0.0)
            .then(|| LossyConfig::chaos(drop_p, split_seed(self.seed, "fault_sweep", idx)));
        let cfg = Pt2PtConfig {
            partix,
            partitions: self.partitions,
            part_bytes: self.part_bytes,
            warmup: self.warmup,
            iters: self.iters,
            timing: ThreadTiming::overhead(),
            seed: self.seed,
        };
        let r = run_pt2pt(&cfg);
        let times: Vec<f64> = r
            .rounds
            .iter()
            .map(|s| s.total().as_nanos() as f64)
            .collect();
        FaultCell {
            aggregator: kind,
            drop_p,
            mean_ns: stats::mean(&times),
            std_ns: stats::stddev(&times),
            drops: r.drops,
            retransmits: r.retransmits,
            duplicates: r.duplicates,
            recoveries: r.recoveries,
            failed: r.error.is_some(),
        }
    }

    /// Serialise sweep results as JSON to `path` (creating parent
    /// directories), in a stable cell order.
    pub fn write_json(&self, cells: &[FaultCell], path: &Path) -> std::io::Result<()> {
        let cell = |c: &FaultCell| {
            Json::obj([
                ("aggregator", strategy_name(c.aggregator).into()),
                ("drop_p", c.drop_p.into()),
                ("mean_ns", c.mean_ns.into()),
                ("std_ns", c.std_ns.into()),
                ("drops", c.drops.into()),
                ("retransmits", c.retransmits.into()),
                ("duplicates", c.duplicates.into()),
                ("recoveries", c.recoveries.into()),
                ("failed", c.failed.into()),
            ])
        };
        let doc = Json::obj([
            ("partitions", self.partitions.into()),
            ("part_bytes", self.part_bytes.into()),
            ("warmup", self.warmup.into()),
            ("iters", self.iters.into()),
            ("seed", self.seed.into()),
            ("cells", Json::arr(cells.iter().map(cell))),
        ]);
        write_json(path, &doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_core::telemetry::parse_json;

    fn quick() -> FaultSweep {
        let mut s = FaultSweep::new(PartixConfig::default());
        s.partitions = 8;
        s.part_bytes = 512;
        s.loss_rates = vec![0.0, 0.05];
        s.warmup = 1;
        s.iters = 3;
        s
    }

    #[test]
    fn sweep_covers_grid_without_failures() {
        let s = quick();
        let cells = s.run();
        assert_eq!(cells.len(), STRATEGIES.len() * 2);
        for c in &cells {
            assert!(!c.failed, "{:?} at {} failed", c.aggregator, c.drop_p);
            assert!(c.mean_ns > 0.0);
            if c.drop_p == 0.0 {
                assert_eq!(c.drops, 0, "clean wire must not drop");
                assert_eq!(c.retransmits, 0);
            } else {
                assert_eq!(c.retransmits, c.drops, "every drop must be retransmitted");
            }
        }
        // At 5% loss, at least one strategy actually saw faults.
        assert!(cells.iter().any(|c| c.drop_p > 0.0 && c.drops > 0));
    }

    #[test]
    fn sweep_is_deterministic() {
        let s = quick();
        let a = s.run();
        let b = s.run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean_ns, y.mean_ns);
            assert_eq!(x.drops, y.drops);
            assert_eq!(x.retransmits, y.retransmits);
            assert_eq!(x.recoveries, y.recoveries);
        }
    }

    #[test]
    fn json_round_trips_to_disk() {
        let s = quick();
        let cells = vec![FaultCell {
            aggregator: AggregatorKind::PLogGp,
            drop_p: 0.05,
            mean_ns: 1234.5,
            std_ns: 6.7,
            drops: 3,
            retransmits: 3,
            duplicates: 1,
            recoveries: 0,
            failed: false,
        }];
        let dir = std::env::temp_dir().join("partix_fault_sweep_test");
        let path = dir.join("fault_sweep.json");
        s.write_json(&cells, &path).unwrap();
        let doc = parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("partitions"), Some(&Json::Num(8.0)));
        let cell = &doc.get("cells").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            cell.get("aggregator").and_then(Json::as_str),
            Some("ploggp")
        );
        assert_eq!(cell.get("mean_ns"), Some(&Json::Num(1234.5)));
        assert_eq!(cell.get("drops"), Some(&Json::Num(3.0)));
        assert_eq!(cell.get("failed"), Some(&Json::Bool(false)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
