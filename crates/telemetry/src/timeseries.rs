//! Windowed time-series plane: periodic **delta frames** over the counter
//! ledger, captured into a fixed-capacity ring.
//!
//! A [`Sampler`] owns a [`SampleSource`] closure that freezes the whole
//! observable state of the stack (a [`Snapshot`] and optional transport
//! gauges) and, every `interval_ns` of *driver* time, emits a [`Frame`]: the
//! saturating difference between the current observation and the previous
//! one. The end-of-run snapshot is exactly the sum of all frames — this
//! module only adds the time axis. A frame's stage windows are not sampled:
//! they are the stage histograms of the flow events stamped inside the
//! window, computed by whoever reads the frames beside the flow log.
//!
//! Who drives the clock depends on the executor:
//!
//! - **Simulated runs** tick the sampler with *virtual* time: the sequential
//!   scheduler after each same-instant batch, and the sharded PDES engine at
//!   its epoch barriers (where no events are in flight and the ledger is in
//!   a state every executor passes through). Frames from a sharded run are
//!   therefore deterministic and byte-identical across `--jobs` counts,
//!   like every other observable.
//! - **Real-time runs** (the ShmFabric) tick it with wall time from the
//!   fabric's own progress thread, Ibdxnet-style: no extra instrumentation
//!   thread, the transport samples itself between servicing rings.
//!
//! The hot path is lock-free: [`Sampler::tick`] is a single relaxed atomic
//! load and compare until a window boundary is crossed; only the actual
//! capture (a few times per run) takes the ring lock.
//!
//! Determinism projection: when [`SamplerConfig::deterministic`] is set the
//! frame zeroes the fields their ledger's definition marks `per_executor`
//! (`arena.pool_hits`, `pool_misses`, `live_high_water`), the ones
//! [`Snapshot::ledger_digest`] leaves out, so sharded frames compare equal
//! to sequential ones.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::snapshot::{
    ArenaSnapshot, CqSnapshot, QpSnapshot, RuntimeSnapshot, Snapshot, WireSnapshot,
};

/// One observation of everything the sampler watches: the frozen counter
/// ledger and optional transport gauges (e.g. ShmFabric ring occupancy) as
/// `(name, value)` pairs.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Complete counter ledger at observation time.
    pub snapshot: Snapshot,
    /// Transport-specific monotone gauges, e.g. progress-loop iterations.
    pub gauges: Vec<(&'static str, u64)>,
}

/// Closure that freezes a [`Sample`]; installed once per [`Sampler`].
pub type SampleSource = Arc<dyn Fn() -> Sample + Send + Sync>;

/// Sampler policy: window length, ring depth, and whether frames are
/// projected onto the deterministic (executor-invariant) counter subset.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Window length in driver time (virtual ns on simulated runs, wall ns
    /// on real-time runs). Must be non-zero.
    pub interval_ns: u64,
    /// Maximum frames retained; the oldest frame is evicted beyond this.
    pub capacity: usize,
    /// Zero the interleaving-dependent arena fields in every frame (set on
    /// simulated runs so frames are byte-identical across executors).
    pub deterministic: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            interval_ns: 1_000_000,
            capacity: 128,
            deterministic: false,
        }
    }
}

/// One transport gauge inside a frame: the cumulative value at the window
/// end and its increase over the window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameGauge {
    /// Gauge name (e.g. `"progress_iterations"`).
    pub name: &'static str,
    /// Cumulative value at the end of the window.
    pub total: u64,
    /// Saturating increase over the window.
    pub delta: u64,
}

/// One window of the time series: the saturating per-counter increase since
/// the previous frame.
///
/// Monotone counters in `deltas` hold window increments; the live gauges
/// (`QpSnapshot::outstanding`, `recv_queue_depth`, `state`, and
/// `ArenaSnapshot::live_high_water`) hold the value *at the window end*,
/// since they may decrease.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Frame number since the sampler was created (not reset by eviction).
    pub seq: u64,
    /// Driver time at the end of the window.
    pub t_ns: u64,
    /// Window length: `t_ns` minus the previous frame's `t_ns`.
    pub span_ns: u64,
    /// Counter-ledger deltas (gauges carried as current values).
    pub deltas: Snapshot,
    /// Transport gauge values and their window deltas.
    pub gauges: Vec<FrameGauge>,
}

/// `cur - prev` over the whole ledger: every counter subtracted
/// (saturating), every gauge (`state`, `outstanding`, `recv_queue_depth`,
/// `arena.live_high_water`) carried as `cur` reads it. QPs are matched by
/// `(node, qp_num)` and CQs by `cq_id`; a row with no predecessor (a QP
/// created inside the window) contributes its full values. Rows keep `cur`'s
/// order, so frame sequences from identical runs render identically.
pub fn snapshot_delta(prev: &Snapshot, cur: &Snapshot) -> Snapshot {
    let qp = |q: &QpSnapshot| {
        let before = prev
            .qps
            .iter()
            .find(|p| p.node == q.node && p.qp_num == q.qp_num);
        before.map_or_else(|| q.clone(), |p| QpSnapshot::delta(p, q))
    };
    let cq = |c: &CqSnapshot| {
        let Some(p) = prev.cqs.iter().find(|p| p.cq_id == c.cq_id) else {
            return c.clone();
        };
        let mut d = CqSnapshot::delta(p, c);
        for (d, p) in d.pushed_by_status.iter_mut().zip(p.pushed_by_status) {
            *d = d.saturating_sub(p);
        }
        d
    };
    Snapshot {
        qps: cur.qps.iter().map(qp).collect(),
        cqs: cur.cqs.iter().map(cq).collect(),
        wire: WireSnapshot::delta(&prev.wire, &cur.wire),
        runtime: RuntimeSnapshot::delta(&prev.runtime, &cur.runtime),
        arena: ArenaSnapshot::delta(&prev.arena, &cur.arena),
    }
}

/// Add a delta frame's counters back onto a cumulative snapshot — the
/// inverse of [`snapshot_delta`]. Gauges are overwritten with the frame's
/// values. Rows not yet present in `acc` are appended, preserving
/// first-seen order. Summing every frame of an un-evicted ring onto
/// `Snapshot::default()` reproduces the final cumulative snapshot.
pub fn snapshot_accum(acc: &mut Snapshot, delta: &Snapshot) {
    for q in &delta.qps {
        match acc
            .qps
            .iter_mut()
            .find(|a| a.node == q.node && a.qp_num == q.qp_num)
        {
            Some(a) => {
                a.state = q.state;
                a.accum(q);
            }
            None => acc.qps.push(q.clone()),
        }
    }
    for c in &delta.cqs {
        match acc.cqs.iter_mut().find(|a| a.cq_id == c.cq_id) {
            Some(a) => {
                for (s, d) in a.pushed_by_status.iter_mut().zip(c.pushed_by_status) {
                    *s += d;
                }
                a.accum(c);
            }
            None => acc.cqs.push(c.clone()),
        }
    }
    acc.wire.accum(&delta.wire);
    acc.runtime.accum(&delta.runtime);
    acc.arena.accum(&delta.arena);
}

struct Ring {
    prev: Option<Sample>,
    prev_t: u64,
    frames: VecDeque<Frame>,
    seq: u64,
}

/// The windowed sampler: tick it with driver time and it captures a
/// [`Frame`] whenever a window boundary is crossed. See the module docs for
/// who drives it and the determinism contract.
pub struct Sampler {
    cfg: SamplerConfig,
    source: SampleSource,
    next_due: AtomicU64,
    captured: AtomicU64,
    evicted: AtomicU64,
    inner: Mutex<Ring>,
}

impl Sampler {
    /// Build a sampler over `source`. Panics if the interval or capacity is
    /// zero.
    pub fn new(cfg: SamplerConfig, source: SampleSource) -> Arc<Sampler> {
        assert!(cfg.interval_ns > 0, "sampler interval must be non-zero");
        assert!(cfg.capacity > 0, "sampler capacity must be non-zero");
        Arc::new(Sampler {
            cfg,
            source,
            next_due: AtomicU64::new(cfg.interval_ns),
            captured: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            inner: Mutex::new(Ring {
                prev: None,
                prev_t: 0,
                frames: VecDeque::new(),
                seq: 0,
            }),
        })
    }

    /// Advance the sampler clock to `t_ns`; captures a frame iff a window
    /// boundary has been crossed. Hot path below the boundary is one
    /// relaxed load — safe to call per event batch or progress-loop
    /// iteration.
    pub fn tick(&self, t_ns: u64) {
        if t_ns < self.next_due.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = self.inner.lock();
        // Re-checked under the lock so racing tickers emit one frame.
        if t_ns < self.next_due.load(Ordering::Relaxed) {
            return;
        }
        self.advance_due(t_ns);
        self.emit(&mut ring, t_ns);
    }

    /// Capture a frame right now regardless of window position (e.g. one
    /// final frame at quiescence). Advances the window clock when `t_ns`
    /// has passed it.
    pub fn capture(&self, t_ns: u64) {
        let mut ring = self.inner.lock();
        if t_ns >= self.next_due.load(Ordering::Relaxed) {
            self.advance_due(t_ns);
        }
        self.emit(&mut ring, t_ns);
    }

    fn advance_due(&self, t_ns: u64) {
        let iv = self.cfg.interval_ns;
        let next = (t_ns / iv).saturating_add(1).saturating_mul(iv);
        self.next_due.store(next, Ordering::Relaxed);
    }

    fn emit(&self, ring: &mut Ring, t_ns: u64) {
        let cur = (self.source)();
        let (mut deltas, gauges) = match &ring.prev {
            Some(p) => (
                snapshot_delta(&p.snapshot, &cur.snapshot),
                cur.gauges
                    .iter()
                    .map(|(name, v)| {
                        let before = p
                            .gauges
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, b)| *b)
                            .unwrap_or(0);
                        FrameGauge {
                            name,
                            total: *v,
                            delta: v.saturating_sub(before),
                        }
                    })
                    .collect(),
            ),
            None => (
                snapshot_delta(&Snapshot::default(), &cur.snapshot),
                cur.gauges
                    .iter()
                    .map(|(name, v)| FrameGauge {
                        name,
                        total: *v,
                        delta: *v,
                    })
                    .collect(),
            ),
        };
        if self.cfg.deterministic {
            deltas.zero_per_executor_fields();
        }
        let frame = Frame {
            seq: ring.seq,
            t_ns,
            span_ns: t_ns.saturating_sub(ring.prev_t),
            deltas,
            gauges,
        };
        ring.seq += 1;
        if ring.frames.len() == self.cfg.capacity {
            ring.frames.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.frames.push_back(frame);
        ring.prev = Some(cur);
        ring.prev_t = t_ns;
        self.captured.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy of the retained frames, oldest first.
    pub fn frames(&self) -> Vec<Frame> {
        self.inner.lock().frames.iter().cloned().collect()
    }

    /// Total frames captured (including any since evicted).
    pub fn frames_captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Frames evicted from the ring to make room.
    pub fn frames_evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(delivered: u64, gets: u64) -> Snapshot {
        Snapshot {
            wire: WireSnapshot {
                delivered,
                bytes_delivered: delivered * 100,
                ..WireSnapshot::default()
            },
            arena: ArenaSnapshot {
                pool_gets: gets,
                pool_hits: gets / 2,
                pool_misses: gets - gets / 2,
                pool_returns: gets,
                live_high_water: 7,
            },
            ..Snapshot::default()
        }
    }

    fn counting_source() -> (Arc<AtomicU64>, SampleSource) {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = n.clone();
        let source: SampleSource = Arc::new(move || {
            let k = n2.fetch_add(1, Ordering::Relaxed) + 1;
            Sample {
                snapshot: snap(k * 10, k),
                gauges: vec![("iters", k * 3)],
            }
        });
        (n, source)
    }

    #[test]
    fn tick_fires_once_per_window() {
        let (calls, source) = counting_source();
        let s = Sampler::new(
            SamplerConfig {
                interval_ns: 100,
                capacity: 8,
                deterministic: false,
            },
            source,
        );
        for t in [1u64, 50, 99] {
            s.tick(t);
        }
        assert_eq!(s.frames_captured(), 0, "below the first boundary");
        s.tick(100);
        s.tick(101); // same window: must not fire again
        assert_eq!(s.frames_captured(), 1);
        s.tick(250); // skipped a whole window: one frame, due moves to 300
        assert_eq!(s.frames_captured(), 2);
        s.tick(299);
        assert_eq!(s.frames_captured(), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        let frames = s.frames();
        assert_eq!(frames[0].t_ns, 100);
        assert_eq!(frames[1].t_ns, 250);
        assert_eq!(frames[1].span_ns, 150);
        // First frame holds full values, second the delta.
        assert_eq!(frames[0].deltas.wire.delivered, 10);
        assert_eq!(frames[1].deltas.wire.delivered, 10);
        assert_eq!(
            frames[1].gauges[0],
            FrameGauge {
                name: "iters",
                total: 6,
                delta: 3
            }
        );
    }

    #[test]
    fn ring_evicts_oldest() {
        let (_, source) = counting_source();
        let s = Sampler::new(
            SamplerConfig {
                interval_ns: 10,
                capacity: 3,
                deterministic: false,
            },
            source,
        );
        for k in 1..=5u64 {
            s.tick(k * 10);
        }
        assert_eq!(s.frames_captured(), 5);
        assert_eq!(s.frames_evicted(), 2);
        let frames = s.frames();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].seq, 2);
        assert_eq!(frames[2].seq, 4);
    }

    #[test]
    fn frames_sum_to_final_snapshot() {
        let (_, source) = counting_source();
        let s = Sampler::new(
            SamplerConfig {
                interval_ns: 10,
                capacity: 64,
                deterministic: false,
            },
            source,
        );
        for k in 1..=6u64 {
            s.tick(k * 10);
        }
        let mut acc = Snapshot::default();
        for f in s.frames() {
            snapshot_accum(&mut acc, &f.deltas);
        }
        assert_eq!(acc, snap(60, 6));
    }

    #[test]
    fn deterministic_mode_scrubs_arena_noise() {
        let (_, source) = counting_source();
        let s = Sampler::new(
            SamplerConfig {
                interval_ns: 10,
                capacity: 8,
                deterministic: true,
            },
            source,
        );
        s.tick(10);
        let frames = s.frames();
        let f = frames.last().unwrap();
        assert_eq!(f.deltas.arena.pool_hits, 0);
        assert_eq!(f.deltas.arena.pool_misses, 0);
        assert_eq!(f.deltas.arena.live_high_water, 0);
        assert_eq!(f.deltas.arena.pool_gets, 1, "commutative totals survive");
    }

    #[test]
    fn capture_forces_a_frame_mid_window() {
        let (_, source) = counting_source();
        let s = Sampler::new(SamplerConfig::default(), source);
        s.capture(42);
        assert_eq!(s.frames_captured(), 1);
        assert_eq!(s.frames().last().unwrap().t_ns, 42);
    }
}
