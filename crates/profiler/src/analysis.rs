//! The arrival profile of one round (paper Figs. 10/11). The Fig. 12
//! minimum-delta estimate over the same offsets is
//! [`partix_core::min_delta_ns`].

use partix_sim::SimDuration;

/// One partition's profile entry: when it became ready relative to round
/// start, and how long its bytes take on the wire at the theoretical
/// bandwidth (the paper's `comm_n = partition_size / bandwidth`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalPoint {
    /// Partition index.
    pub partition: u32,
    /// `pready` time minus round start, in ns.
    pub compute_ns: f64,
    /// Estimated wire time for the partition, in ns.
    pub comm_ns: f64,
}

/// The arrival profile of one round (the data behind Figs. 10/11).
#[derive(Clone, Debug, Default)]
pub struct ArrivalProfile {
    /// Entries in arrival order.
    pub points: Vec<ArrivalPoint>,
}

impl ArrivalProfile {
    /// Build from one round's `pready` offsets from round start, indexed by
    /// partition. `part_bytes` and `bandwidth_bytes_per_sec` parameterise
    /// the wire-time estimate. Simultaneous arrivals keep partition order.
    pub fn from_offsets(
        pready: &[SimDuration],
        part_bytes: usize,
        bandwidth_bytes_per_sec: f64,
    ) -> Self {
        let comm_ns = part_bytes as f64 / bandwidth_bytes_per_sec * 1e9;
        let mut points: Vec<ArrivalPoint> = pready
            .iter()
            .enumerate()
            .map(|(p, t)| ArrivalPoint {
                partition: p as u32,
                compute_ns: t.as_nanos() as f64,
                comm_ns,
            })
            .collect();
        points.sort_by(|a, b| a.compute_ns.total_cmp(&b.compute_ns));
        ArrivalProfile { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_core::min_delta_ns;

    #[test]
    fn profile_sorted_by_arrival() {
        let offsets = [50, 150, 300, 150].map(SimDuration::from_nanos);
        let prof = ArrivalProfile::from_offsets(&offsets, 1_000_000, 1e9);
        let parts: Vec<u32> = prof.points.iter().map(|p| p.partition).collect();
        assert_eq!(parts, vec![0, 1, 3, 2]);
        assert_eq!(prof.points[0].compute_ns, 50.0);
        // 1 MB at 1 GB/s = 1 ms.
        assert!((prof.points[0].comm_ns - 1e6).abs() < 1e-9);
    }

    #[test]
    fn min_delta_excludes_laggard() {
        // Arrivals at +10, +20, +35, +4000 (laggard): spread of the rest is
        // 25, whatever order they come in.
        assert_eq!(min_delta_ns([35, 4000, 10, 20]), Some(25));
        assert_eq!(min_delta_ns([4000, 20, 35, 10]), Some(25));
    }

    #[test]
    fn min_delta_needs_three_arrivals() {
        assert_eq!(min_delta_ns([10, 400]), None);
        assert_eq!(min_delta_ns([10]), None);
        assert_eq!(min_delta_ns([10, 12, 90]), Some(2));
    }

    #[test]
    fn min_delta_handles_simultaneous_arrivals() {
        assert_eq!(min_delta_ns([10, 10, 10, 10]), Some(0));
        // Two laggards tie: one is dropped, the other sets the spread.
        assert_eq!(min_delta_ns([10, 90, 90]), Some(80));
    }
}
