//! Property tests over the log-bucketed latency histogram
//! (`partix_telemetry::HistSnapshot::of`), the shape of every per-stage
//! residency distribution computed from the flow log:
//!
//! - count, sum and max are conserved exactly for arbitrary inputs;
//! - buckets are monotone, disjoint, and each holds only values inside its
//!   `[lo, hi)` bounds;
//! - the stage windows of a sampled run partition it: for random events and
//!   random frame boundaries, the windows' counts, sums and buckets add up to
//!   the whole-run histogram, and the largest window max is the run's max;
//! - quantiles are monotone in `q`, bracketed by min and max, and
//!   `quantile(1.0)` is the exact maximum.
//!
//! The vendored proptest is deterministic (seeded from the test name, no
//! shrinking), so a green run is reproducible.

use std::collections::BTreeMap;

use partix_verbs::telemetry::{stage_histograms, FlowEvent, FlowStage, HistSnapshot};
use proptest::prelude::*;

/// Arbitrary latency samples: spread across the full bucket range
/// (sub-octave linear values through multi-second nanosecond counts)
/// while keeping sums comfortably inside u64. The class selector steers
/// each raw draw into one of four magnitude bands.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u8..4, 0u64..(1 << 48)), 1..64).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(class, raw)| match class {
                0 => raw % 16,                    // linear sub-bucket region
                1 => 16 + raw % (4096 - 16),      // low octaves
                2 => 1_000 + raw % 10_000_000,    // typical stage residencies
                _ => (1 << 40) + raw % (1 << 47), // pathological stalls
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Count/sum conservation and exact max tracking.
    #[test]
    fn count_sum_max_conserved(vals in samples()) {
        let snap = HistSnapshot::of(vals.iter().copied());
        prop_assert_eq!(snap.count, vals.len() as u64);
        prop_assert_eq!(snap.sum, vals.iter().sum::<u64>());
        prop_assert_eq!(snap.max, vals.iter().copied().max().unwrap());
        // The buckets are a partition of the samples: their counts add up.
        prop_assert_eq!(
            snap.buckets.iter().map(|b| b.count).sum::<u64>(),
            snap.count
        );
    }

    /// Bucket bounds are monotone and disjoint, and every value falls
    /// inside the bounds of exactly the bucket population it joined.
    #[test]
    fn buckets_are_monotone_and_bounding(vals in samples()) {
        let snap = HistSnapshot::of(vals.iter().copied());
        for w in snap.buckets.windows(2) {
            prop_assert!(w[0].hi <= w[1].lo, "buckets overlap or reorder");
        }
        for b in &snap.buckets {
            prop_assert!(b.lo < b.hi);
            prop_assert!(b.count > 0, "snapshot carries an empty bucket");
            // The bucket's population is exactly the samples in its bounds.
            let expect = vals.iter().filter(|&&v| b.lo <= v && v < b.hi).count();
            prop_assert_eq!(b.count, expect as u64);
        }
    }

    /// Windows partition the run: frame `k` takes the events stamped in
    /// `(t_{k-1}, t_k]` (the first frame everything up to `t_0`), and its
    /// stage histograms add up, stage by stage, to the whole run's.
    #[test]
    fn windows_partition_the_run(
        vals in samples(),
        draws in prop::collection::vec((0usize..10, 0u64..10_000), 64..65),
        bounds in prop::collection::vec(0u64..10_000, 0..8),
    ) {
        let events: Vec<FlowEvent> = vals
            .iter()
            .zip(draws.iter().cycle())
            .enumerate()
            .map(|(i, (&aux, &(stage, ts_ns)))| FlowEvent {
                flow: i as u64 + 1,
                stage: FlowStage::ALL[stage],
                ts_ns,
                qp: 1,
                chan: 0,
                aux,
            })
            .collect();
        let mut bounds = bounds;
        bounds.push(10_000);
        bounds.sort_unstable();
        let mut windows = Vec::new();
        let mut after = None;
        for &t in &bounds {
            let inside = |e: &&FlowEvent| after.is_none_or(|a| a < e.ts_ns) && e.ts_ns <= t;
            let window: Vec<FlowEvent> = events.iter().filter(inside).copied().collect();
            windows.push(stage_histograms(&window));
            after = Some(t);
        }
        for (i, (name, whole)) in stage_histograms(&events).into_iter().enumerate() {
            let parts: Vec<&HistSnapshot> = windows.iter().map(|w| &w[i].1).collect();
            let count: u64 = parts.iter().map(|h| h.count).sum();
            prop_assert_eq!(count, whole.count, "{}", name);
            let sum = parts.iter().fold(0u64, |s, h| s.wrapping_add(h.sum));
            prop_assert_eq!(sum, whole.sum, "{}", name);
            let max = parts.iter().map(|h| h.max).max().unwrap_or(0);
            prop_assert_eq!(max, whole.max, "{}", name);
            let mut buckets = BTreeMap::new();
            for b in parts.iter().flat_map(|h| &h.buckets) {
                *buckets.entry((b.lo, b.hi)).or_insert(0) += b.count;
            }
            let want: BTreeMap<_, _> =
                whole.buckets.iter().map(|b| ((b.lo, b.hi), b.count)).collect();
            prop_assert_eq!(buckets, want, "{}", name);
        }
    }

    /// Quantiles are monotone in `q`, live inside `[min, max]`, and the
    /// extremes are tight: `quantile(1.0)` is the exact maximum.
    #[test]
    fn quantiles_are_monotone_and_bracketed(vals in samples()) {
        let snap = HistSnapshot::of(vals.iter().copied());
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let got: Vec<u64> = qs.iter().map(|&q| snap.quantile(q)).collect();
        for w in got.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", got);
        }
        let max = vals.iter().copied().max().unwrap();
        prop_assert!(got[0] <= max);
        prop_assert_eq!(*got.last().unwrap(), max);
        // Every quantile is at least the smallest sample's bucket floor.
        let min = vals.iter().copied().min().unwrap();
        prop_assert!(got[0] >= snap.buckets[0].lo && snap.buckets[0].lo <= min);
    }
}
