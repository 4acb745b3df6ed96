//! Prometheus-style text exposition of the stage histograms.
//!
//! The output follows the classic text format: for each histogram a
//! `# TYPE` line, cumulative `_bucket{le="..."}` series (non-empty buckets
//! plus the mandatory `+Inf`), `_sum`, and `_count`. Bucket boundaries are
//! the log-bucket upper bounds, so `le` values are exact integers.

use std::fmt::Write as _;

use crate::hist::HistSnapshot;

/// Metric-name prefix for every exposed histogram.
const PREFIX: &str = "partix_stage_";

/// Render named stage-histogram snapshots in Prometheus text format.
pub fn exposition(stages: &[(&str, HistSnapshot)]) -> String {
    let mut s = String::with_capacity(1024);
    for (name, snap) in stages {
        let metric = format!("{PREFIX}{name}");
        let _ = writeln!(s, "# TYPE {metric} histogram");
        let mut cum = 0u64;
        for b in &snap.buckets {
            cum += b.count;
            let _ = writeln!(s, "{metric}_bucket{{le=\"{}\"}} {cum}", b.hi);
        }
        let _ = writeln!(s, "{metric}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(s, "{metric}_sum {}", snap.sum);
        let _ = writeln!(s, "{metric}_count {}", snap.count);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;

    #[test]
    fn exposition_is_cumulative_and_complete() {
        let h = LogHistogram::new();
        for v in [1u64, 1, 9, 100] {
            h.record(v);
        }
        let text = exposition(&[("wire_ns", h.snapshot())]);
        assert!(text.contains("# TYPE partix_stage_wire_ns histogram"));
        assert!(text.contains("partix_stage_wire_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("partix_stage_wire_ns_count 4"));
        assert!(text.contains("partix_stage_wire_ns_sum 111"));
        // First bucket (value 1, bounds [1,2)) carries two samples.
        assert!(text.contains("partix_stage_wire_ns_bucket{le=\"2\"} 2"));
    }
}
