//! Log-bucketed latency histograms (HDR-style), computed from values.
//!
//! [`HistSnapshot::of`] maps each `u64` value (nanoseconds, in practice) to
//! one of a fixed set of buckets: values below `2^SUB_BITS` get exact unit
//! buckets, and every power-of-two octave above that is split into
//! `2^SUB_BITS` linear sub-buckets, bounding the relative bucket width at
//! `2^-SUB_BITS` (12.5% with the default of 3 sub-bits). Nothing records
//! into a histogram: the stage histograms are functions of the flow log
//! ([`stage_histograms`](crate::stage_histograms)), built when a table is
//! rendered.

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 3;

/// Buckets per octave (and the size of the exact linear region).
const SUBS: usize = 1 << SUB_BITS;

/// Total bucket count: the linear region plus `(63 - SUB_BITS + 1)` octaves
/// of `SUBS` buckets each, covering the full `u64` range.
const NUM_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Map a value to its bucket index. Total order preserving: `a <= b`
/// implies `index_for(a) <= index_for(b)`.
#[inline]
fn index_for(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // v in [2^exp, 2^(exp+1)), exp >= SUB_BITS
        let sub = ((v >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        SUBS + (exp - SUB_BITS) as usize * SUBS + sub
    }
}

/// Half-open value range `[lo, hi)` covered by bucket `index`.
fn bounds_for(index: usize) -> (u64, u64) {
    if index < SUBS {
        (index as u64, index as u64 + 1)
    } else {
        let exp = SUB_BITS + ((index - SUBS) / SUBS) as u32;
        let sub = ((index - SUBS) % SUBS) as u64;
        let width = 1u64 << (exp - SUB_BITS);
        let lo = (1u64 << exp) + sub * width;
        (lo, lo.saturating_add(width))
    }
}

/// One non-empty bucket of a [`HistSnapshot`]: `count` values fell in the
/// half-open range `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistBucket {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Exclusive upper bound of the bucket.
    pub hi: u64,
    /// Number of values in the bucket.
    pub count: u64,
}

/// An owned, immutable log-bucketed histogram of a set of values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total number of values.
    pub count: u64,
    /// Sum of all values (wrapping on overflow, like the counters).
    pub sum: u64,
    /// Exact maximum value. Zero when empty.
    pub max: u64,
    /// Non-empty buckets, ascending by `lo`.
    pub buckets: Vec<HistBucket>,
}

impl HistSnapshot {
    /// The histogram of `values`.
    pub fn of(values: impl IntoIterator<Item = u64>) -> HistSnapshot {
        let mut counts = vec![0u64; NUM_BUCKETS];
        let (mut sum, mut max) = (0u64, 0u64);
        for v in values {
            counts[index_for(v)] += 1;
            sum = sum.wrapping_add(v);
            max = max.max(v);
        }
        let buckets: Vec<HistBucket> = (counts.iter().enumerate())
            .filter(|&(_, &count)| count > 0)
            .map(|(i, &count)| {
                let (lo, hi) = bounds_for(i);
                HistBucket { lo, hi, count }
            })
            .collect();
        HistSnapshot {
            count: buckets.iter().map(|b| b.count).sum(),
            sum,
            max,
            buckets,
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the first bucket whose cumulative count reaches `ceil(q * count)`,
    /// clamped to the exact maximum. Zero when the snapshot is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for b in &self.buckets {
            cum += b.count;
            if cum >= rank {
                return (b.hi - 1).min(self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of the values. Zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotone_and_in_bounds() {
        let mut prev = 0usize;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 4096, 1 << 20, u64::MAX] {
            let i = index_for(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(i >= prev, "index not monotone at {v}");
            let (lo, hi) = bounds_for(i);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} not in [{lo},{hi})"
            );
            prev = i;
        }
    }

    #[test]
    fn quantiles_are_ordered() {
        let s = HistSnapshot::of(1..=1000u64);
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.50);
        let p95 = s.quantile(0.95);
        let p99 = s.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= s.max);
        // 12.5% relative error bound from the 3-sub-bit bucket scheme.
        assert!((450..=575).contains(&p50), "p50 = {p50}");
    }
}
