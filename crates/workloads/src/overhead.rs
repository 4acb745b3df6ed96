//! Cell helpers of the overhead benchmark (paper §V-B, Figs. 6–8), whose
//! cell is [`Pt2PtConfig::overhead`](crate::Pt2PtConfig::overhead): a
//! forced `(transport partitions, QPs)` mapping and the power-of-two size
//! axis.

use std::sync::Arc;

use partix_core::{AggregatorKind, PartixConfig, TuningTable};

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
    use crate::{run_pt2pt, Pt2PtConfig};

    #[test]
    fn pow2_sizes_span() {
        assert_eq!(pow2_sizes(1024, 8192), vec![1024, 2048, 4096, 8192]);
        assert_eq!(pow2_sizes(1000, 4096), vec![1024, 2048, 4096]);
    }

    #[test]
    fn forced_config_controls_wr_count() {
        let total = 1 << 20;
        let cfg = Pt2PtConfig {
            warmup: 1,
            iters: 2,
            ..Pt2PtConfig::overhead(
                forced_config(&PartixConfig::default(), 16, total, 4, 2),
                16,
                total,
            )
        };
        // 4 transport partitions: 4 WRs in each of the 3 rounds.
        assert_eq!(run_pt2pt(&cfg).total_wrs, 4 * 3);
    }
}
