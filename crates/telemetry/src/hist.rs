//! Zero-alloc log-bucketed latency histograms (HDR-style).
//!
//! A [`LogHistogram`] maps a `u64` value (nanoseconds, in practice) to one
//! of a fixed set of buckets: values below `2^SUB_BITS` get exact unit
//! buckets, and every power-of-two octave above that is split into
//! `2^SUB_BITS` linear sub-buckets, bounding the relative bucket width at
//! `2^-SUB_BITS` (12.5% with the default of 3 sub-bits). Recording is a
//! single relaxed `fetch_add` into a pre-allocated atomic array — no locks,
//! no allocation — so histograms can stay attached to the fabric hot path.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// A fixed-size, lock-free, log-bucketed histogram.
///
/// Values are expected to be durations in nanoseconds but any `u64` works.
/// All operations use relaxed atomics: like the counters, a histogram is a
/// ledger reconciled at quiescence, never a synchronisation primitive.
pub struct LogHistogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl LogHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        // `Box<[AtomicU64; N]>` via a zeroed vec avoids a large stack
        // temporary; AtomicU64 is layout-identical to u64.
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let boxed: Box<[AtomicU64; NUM_BUCKETS]> =
            v.into_boxed_slice().try_into().expect("exact length");
        LogHistogram {
            buckets: boxed,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free and allocation-free: two relaxed RMWs
    /// (bucket + sum) and a plain load on the common no-new-max path —
    /// the total count is derived from the buckets at snapshot time
    /// rather than maintained as a third hot-path atomic.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[index_for(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded values (folded from the buckets; call at
    /// quiescence, like every other ledger read).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded values (wrapping on overflow, like the counters).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact, not bucketed). Zero when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Fold every recorded value of `other` into `self` (bucket-wise).
    pub fn merge(&self, other: &LogHistogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Freeze the current contents into an owned snapshot (non-empty
    /// buckets only).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let (lo, hi) = bounds_for(i);
                buckets.push(HistBucket { lo, hi, count: n });
            }
        }
        HistSnapshot {
            // From the loads above, so a snapshot taken while values are
            // still being recorded stays self-consistent.
            count: buckets.iter().map(|b| b.count).sum(),
            sum: self.sum(),
            max: self.max(),
            buckets,
        }
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
    /// Number of recorded values in the bucket.
    pub count: u64,
}

/// An owned, immutable snapshot of a [`LogHistogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Non-empty buckets, ascending by `lo`.
    pub buckets: Vec<HistBucket>,
}

impl HistSnapshot {
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

    /// Arithmetic mean of the recorded values. Zero when empty.
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
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.50);
        let p95 = s.quantile(0.95);
        let p99 = s.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= s.max);
        // 12.5% relative error bound from the 3-sub-bit bucket scheme.
        assert!((450..=575).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn merge_equals_union() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let u = LogHistogram::new();
        for v in [3u64, 17, 900, 1 << 30] {
            a.record(v);
            u.record(v);
        }
        for v in [5u64, 17, 1_000_000] {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        let (sa, su) = (a.snapshot(), u.snapshot());
        assert_eq!(sa.count, su.count);
        assert_eq!(sa.sum, su.sum);
        assert_eq!(sa.max, su.max);
        assert_eq!(sa.buckets, su.buckets);
    }
}
