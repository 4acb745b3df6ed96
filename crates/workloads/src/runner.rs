//! The point-to-point experiment driver.
//!
//! Runs the paper's micro-benchmark skeleton on the virtual clock: one
//! sender / one receiver pair, `partitions` threads each owning one user
//! partition, per-round thread arrival times drawn from a [`ThreadTiming`]
//! model, rounds chained by completion callbacks (warm-up rounds excluded
//! from results, as in §V-A). Each [`RoundSample`] keeps the `pready`
//! offsets the driver drew, which is all the paper's profiler figures read
//! from the send side; post and arrival times are in the flow log, when one
//! is attached ([`run_pt2pt_instrumented`]).
//!
//! A [`Pt2PtConfig`] is one experiment cell. The paper's two
//! micro-benchmarks are its two constructors: [`Pt2PtConfig::overhead`]
//! (§V-B, Figs. 6–8: balanced threads, round time) and
//! [`Pt2PtConfig::perceived`] (§V-C, Figs. 9–13: 100 ms compute with a 4 %
//! laggard, tail latency after the last `pready`). A sweep is a `par_map`
//! over cells at its call site.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use partix_core::{
    min_delta_ns, PartixConfig, PrecvRequest, PsendRequest, SimDuration, SimTime, World,
};

use crate::noise::ThreadTiming;
use crate::stats;

/// Configuration of one point-to-point experiment.
#[derive(Clone)]
pub struct Pt2PtConfig {
    /// Runtime configuration (aggregator, fabric, delta, ...).
    pub partix: PartixConfig,
    /// User partitions (= threads, one partition each, as in the paper's
    /// benchmarks).
    pub partitions: u32,
    /// Bytes per user partition.
    pub part_bytes: usize,
    /// Warm-up rounds excluded from results.
    pub warmup: usize,
    /// Measured rounds.
    pub iters: usize,
    /// Thread timing model.
    pub timing: ThreadTiming,
    /// Root seed.
    pub seed: u64,
}

impl Pt2PtConfig {
    /// The overhead benchmark's cell: `total_bytes` split over `partitions`
    /// balanced threads ([`ThreadTiming::overhead`]), 10 warm-up + 100
    /// measured rounds, seed `0xC0FFEE`, timing-only (no bytes copied).
    /// Override rounds or seed by struct update.
    pub fn overhead(mut partix: PartixConfig, partitions: u32, total_bytes: usize) -> Self {
        assert!(
            total_bytes >= partitions as usize,
            "a partition holds at least one byte"
        );
        partix.fabric.copy_data = false;
        Pt2PtConfig {
            partix,
            partitions,
            part_bytes: total_bytes / partitions as usize,
            warmup: 10,
            iters: 100,
            timing: ThreadTiming::overhead(),
            seed: 0xC0FFEE,
        }
    }

    /// The perceived-bandwidth benchmark's cell: 100 ms compute with 4 %
    /// single-thread-delay noise ([`ThreadTiming::perceived_bw`]), 3 + 10
    /// rounds (on the virtual clock more rounds only average noise draws),
    /// seed `0xBEEF`, timing-only.
    pub fn perceived(partix: PartixConfig, partitions: u32, total_bytes: usize) -> Self {
        Pt2PtConfig {
            warmup: 3,
            iters: 10,
            timing: ThreadTiming::perceived_bw(100, 0.04),
            seed: 0xBEEF,
            ..Self::overhead(partix, partitions, total_bytes)
        }
    }

    /// Total aggregate message size.
    pub fn total_bytes(&self) -> usize {
        self.partitions as usize * self.part_bytes
    }
}

/// Timestamps of one measured round.
#[derive(Clone, Debug)]
pub struct RoundSample {
    /// `start` time of the round.
    pub start: SimTime,
    /// Each partition's `pready` time minus `start`, by partition index.
    pub pready: Vec<SimDuration>,
    /// When the last `pready` fired.
    pub last_pready: SimTime,
    /// When the receiver had every partition.
    pub recv_complete: SimTime,
    /// When the sender had every acknowledgement.
    pub send_complete: SimTime,
}

impl RoundSample {
    /// Wall time of the round (both sides done).
    pub fn total(&self) -> SimDuration {
        self.recv_complete
            .max(self.send_complete)
            .saturating_since(self.start)
    }

    /// Latency visible after the last partition was committed — the
    /// perceived-bandwidth benchmark's numerator is the buffer size over
    /// this (paper §V-C).
    pub fn tail_latency(&self) -> SimDuration {
        self.recv_complete.saturating_since(self.last_pready)
    }
}

/// Result of a point-to-point experiment.
pub struct Pt2PtResult {
    /// Measured rounds (warm-ups excluded).
    pub rounds: Vec<RoundSample>,
    /// WRs posted across all rounds including warm-up.
    pub total_wrs: u64,
    /// Wire drops injected by the lossy fabric (0 on a clean wire).
    pub drops: u64,
    /// Wire retransmissions the reliability layer performed.
    pub retransmits: u64,
    /// Ghost duplicates injected (suppressed at the destination by PSN).
    pub duplicates: u64,
    /// QP recovery cycles on the sender.
    pub recoveries: u64,
    /// Fatal transfer error, if the experiment's send request failed.
    pub error: Option<&'static str>,
}

impl Pt2PtResult {
    /// Mean round time in ns.
    pub fn mean_total_ns(&self) -> f64 {
        stats::mean(
            &self
                .rounds
                .iter()
                .map(|r| r.total().as_nanos() as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean tail latency (recv complete − last pready) in ns.
    pub fn mean_tail_ns(&self) -> f64 {
        stats::mean(
            &self
                .rounds
                .iter()
                .map(|r| r.tail_latency().as_nanos() as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Perceived bandwidth in bytes/sec for a buffer of `total_bytes`.
    pub fn perceived_bandwidth(&self, total_bytes: usize) -> f64 {
        total_bytes as f64 / (self.mean_tail_ns() / 1e9)
    }

    /// Fig. 12's estimate: the mean over rounds of each round's minimum δ
    /// ([`min_delta_ns`] of its `pready` offsets), in ns; `None` when no
    /// round yields one.
    pub fn mean_min_delta_ns(&self) -> Option<f64> {
        let deltas: Vec<f64> = self
            .rounds
            .iter()
            .filter_map(|r| min_delta_ns(r.pready.iter().map(|d| d.as_nanos())))
            .map(|ns| ns as f64)
            .collect();
        (!deltas.is_empty()).then(|| stats::mean(&deltas))
    }
}

struct Driver {
    send: PsendRequest,
    recv: PrecvRequest,
    world: World,
    cfg: Pt2PtConfig,
    rounds_total: usize,
    round_idx: AtomicUsize,
    pending_sides: AtomicU32,
    current: Mutex<Option<PartialRound>>,
    samples: Mutex<Vec<RoundSample>>,
}

struct PartialRound {
    start: SimTime,
    pready: Vec<SimDuration>,
    last_pready: SimTime,
    recv_complete: Option<SimTime>,
    send_complete: Option<SimTime>,
}

impl Driver {
    fn start_round(self: &Arc<Self>) {
        let idx = self.round_idx.load(Ordering::Acquire);
        self.recv.start().expect("recv start");
        self.send.start().expect("send start");
        let sched = self.world.scheduler().expect("sim world").clone();
        let t0 = self.world.now();
        let arrivals = self
            .cfg
            .timing
            .arrivals(self.cfg.partitions, self.cfg.seed, idx as u64);
        for (i, &a) in arrivals.iter().enumerate() {
            let me = self.clone();
            // Thread arrivals happen at the sending rank (0).
            sched.at_node(0, t0 + a, move || {
                me.send.pready(i as u32).expect("pready");
            });
        }
        let last = arrivals.iter().copied().max().unwrap_or(SimDuration::ZERO);
        *self.current.lock() = Some(PartialRound {
            start: t0,
            pready: arrivals,
            last_pready: t0 + last,
            recv_complete: None,
            send_complete: None,
        });
        self.pending_sides.store(2, Ordering::Release);

        let me = self.clone();
        self.send.on_complete(move || {
            me.side_done(|p, t| p.send_complete = Some(t));
        });
        let me = self.clone();
        self.recv.on_complete(move || {
            me.side_done(|p, t| p.recv_complete = Some(t));
        });
    }

    fn side_done(self: &Arc<Self>, record: impl FnOnce(&mut PartialRound, SimTime)) {
        let now = self.world.now();
        {
            let mut cur = self.current.lock();
            let p = cur.as_mut().expect("round in flight");
            record(p, now);
        }
        if self.pending_sides.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // Both sides done: harvest and move on.
        let p = self.current.lock().take().expect("round in flight");
        let idx = self.round_idx.fetch_add(1, Ordering::AcqRel);
        if idx >= self.cfg.warmup {
            self.samples.lock().push(RoundSample {
                start: p.start,
                pready: p.pready,
                last_pready: p.last_pready,
                recv_complete: p.recv_complete.expect("recv completed"),
                send_complete: p.send_complete.expect("send completed"),
            });
        }
        if idx + 1 < self.rounds_total {
            // A small inter-iteration gap, as a benchmark loop would have.
            // The loop body lives at the sending rank (0).
            let me = self.clone();
            let sched = self.world.scheduler().expect("sim world");
            let at = sched.now() + SimDuration::from_micros(1);
            sched.at_node(0, at, move || {
                me.start_round();
            });
        }
    }
}

/// Run a point-to-point experiment on a fresh simulated world, returning
/// the world alongside the result so callers can inspect post-run state
/// (telemetry ledger, fabric statistics). `flow_log`, when provided, turns
/// on causal flow tracing (per-message stage events) before any event
/// fires; when `sampling` is
/// `Some((interval, capacity))` the world captures a delta frame every
/// `interval` of virtual time, harvestable after the run via
/// [`World::sampler`].
pub fn run_pt2pt_instrumented(
    cfg: &Pt2PtConfig,
    flow_log: Option<Arc<partix_core::telemetry::FlowLog>>,
    sampling: Option<(partix_core::SimDuration, usize)>,
) -> (Pt2PtResult, World) {
    let (world, sched) = World::sim(2, cfg.partix.clone());
    if let Some(log) = flow_log {
        world.enable_flow_tracing(log);
    }
    if let Some((interval, capacity)) = sampling {
        world.enable_sampling(interval, capacity);
    }
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let total = cfg.total_bytes();
    // Timing-only fabrics pair naturally with storage-free buffers.
    let (sbuf, rbuf) = if cfg.partix.fabric.copy_data {
        (
            p0.alloc_buffer(total).expect("send buffer"),
            p1.alloc_buffer(total).expect("recv buffer"),
        )
    } else {
        (
            p0.alloc_buffer_virtual(total).expect("send buffer"),
            p1.alloc_buffer_virtual(total).expect("recv buffer"),
        )
    };
    let send = p0
        .psend_init(&sbuf, cfg.partitions, cfg.part_bytes, 1, 0)
        .expect("psend_init");
    let recv = p1
        .precv_init(&rbuf, cfg.partitions, cfg.part_bytes, 0, 0)
        .expect("precv_init");

    let driver = Arc::new(Driver {
        send: send.clone(),
        recv: recv.clone(),
        world: world.clone(),
        cfg: cfg.clone(),
        rounds_total: cfg.warmup + cfg.iters,
        round_idx: AtomicUsize::new(0),
        pending_sides: AtomicU32::new(0),
        current: Mutex::new(None),
        samples: Mutex::new(Vec::with_capacity(cfg.iters)),
    });
    let d2 = driver.clone();
    send.on_ready(move || {
        d2.start_round();
    });
    sched.run();

    let rounds = std::mem::take(&mut *driver.samples.lock());
    assert_eq!(
        rounds.len(),
        cfg.iters,
        "experiment did not complete all rounds"
    );
    let wire = world.telemetry_snapshot().wire;
    let result = Pt2PtResult {
        rounds,
        total_wrs: send.total_wrs_posted(),
        drops: wire.dropped,
        retransmits: wire.retransmits,
        duplicates: wire.duplicates_injected,
        recoveries: send.recoveries(),
        error: send.error(),
    };
    (result, world)
}

/// [`run_pt2pt_instrumented`] without instrumentation, keeping only the
/// result.
pub fn run_pt2pt(cfg: &Pt2PtConfig) -> Pt2PtResult {
    run_pt2pt_instrumented(cfg, None, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_core::AggregatorKind;

    fn base_cfg(kind: AggregatorKind, partitions: u32, part_bytes: usize) -> Pt2PtConfig {
        Pt2PtConfig {
            warmup: 2,
            iters: 5,
            seed: 42,
            ..Pt2PtConfig::overhead(
                PartixConfig::with_aggregator(kind),
                partitions,
                partitions as usize * part_bytes,
            )
        }
    }

    /// Mean round time of an overhead cell at 2 + 6 rounds.
    fn overhead_ns(kind: AggregatorKind, partitions: u32, total_bytes: usize) -> f64 {
        let cfg = Pt2PtConfig {
            warmup: 2,
            iters: 6,
            ..Pt2PtConfig::overhead(PartixConfig::with_aggregator(kind), partitions, total_bytes)
        };
        run_pt2pt(&cfg).mean_total_ns()
    }

    /// Perceived bandwidth of a 32-partition cell at 1 + 4 rounds.
    fn bandwidth(kind: AggregatorKind, delta_us: Option<u64>, total_bytes: usize) -> f64 {
        let mut partix = PartixConfig::with_aggregator(kind);
        if let Some(d) = delta_us {
            partix.delta = SimDuration::from_micros(d);
        }
        let cfg = Pt2PtConfig {
            warmup: 1,
            iters: 4,
            ..Pt2PtConfig::perceived(partix, 32, total_bytes)
        };
        run_pt2pt(&cfg).perceived_bandwidth(total_bytes)
    }

    #[test]
    fn sweep_produces_monotone_nonless_times_for_large_sizes() {
        let ns = [64 << 10, 1 << 20, 16 << 20].map(|s| overhead_ns(AggregatorKind::PLogGp, 16, s));
        assert!(ns[1] > ns[0]);
        assert!(ns[2] > ns[1]);
    }

    #[test]
    fn aggregation_beats_persistent_at_medium_sizes_many_partitions() {
        // The paper's headline: 32 partitions, medium aggregate sizes ->
        // aggregating wins over per-partition UCX messages.
        let sp = overhead_ns(AggregatorKind::Persistent, 32, 128 << 10)
            / overhead_ns(AggregatorKind::PLogGp, 32, 128 << 10);
        assert!(
            sp > 1.0,
            "expected speedup > 1 at 128 KiB / 32 partitions, got {sp}"
        );
    }

    #[test]
    fn persistent_perceived_bandwidth_beats_hardware_at_medium_sizes() {
        // Fig. 9: with no aggregation the last partition is tiny, so the
        // perceived bandwidth is far above the single-QP hardware line.
        let bw = bandwidth(AggregatorKind::Persistent, None, 8 << 20);
        let hw = PartixConfig::default().fabric.single_qp_bandwidth();
        assert!(bw > 2.0 * hw);
    }

    #[test]
    fn ordering_persistent_ge_timer_ge_ploggp() {
        // Fig. 9's ranking at medium sizes: persistent >= timer > plain
        // PLogGP (aggregation inflates the last transport partition).
        let persistent = bandwidth(AggregatorKind::Persistent, None, 8 << 20);
        let timer = bandwidth(AggregatorKind::TimerPLogGp, Some(100), 8 << 20);
        let ploggp = bandwidth(AggregatorKind::PLogGp, None, 8 << 20);
        assert!(timer > ploggp, "timer {timer} should beat ploggp {ploggp}");
        assert!(
            persistent >= 0.8 * timer,
            "persistent {persistent} should be at least comparable to timer {timer}"
        );
    }

    #[test]
    fn large_messages_converge_to_wire_bandwidth() {
        // Fig. 9/11: at 128 MiB the transfer is network-limited, so the
        // perceived bandwidth falls back toward the hardware line.
        let medium = bandwidth(AggregatorKind::Persistent, None, 8 << 20);
        let large = bandwidth(AggregatorKind::Persistent, None, 128 << 20);
        assert!(large < medium / 2.0);
    }

    #[test]
    #[should_panic(expected = "a partition holds at least one byte")]
    fn a_cell_smaller_than_its_partition_count_is_refused() {
        Pt2PtConfig::overhead(PartixConfig::default(), 32, 16);
    }

    #[test]
    fn rounds_complete_and_are_ordered() {
        let r = run_pt2pt(&base_cfg(AggregatorKind::PLogGp, 8, 4096));
        assert_eq!(r.rounds.len(), 5);
        for s in &r.rounds {
            assert_eq!(s.pready.len(), 8, "one offset per partition");
            assert_eq!(s.start + *s.pready.iter().max().unwrap(), s.last_pready);
            assert!(s.recv_complete > s.last_pready);
            assert!(s.send_complete > s.last_pready);
            assert!(s.total() > SimDuration::ZERO);
        }
        // 8 x 4 KiB = 32 KiB aggregates to one WR per round; 7 rounds total.
        assert_eq!(r.total_wrs, 7);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = base_cfg(AggregatorKind::TimerPLogGp, 16, 2048);
        let a = run_pt2pt(&cfg);
        let b = run_pt2pt(&cfg);
        let times_a: Vec<u64> = a.rounds.iter().map(|r| r.total().as_nanos()).collect();
        let times_b: Vec<u64> = b.rounds.iter().map(|r| r.total().as_nanos()).collect();
        assert_eq!(times_a, times_b);
        assert_eq!(a.total_wrs, b.total_wrs);
    }

    #[test]
    fn persistent_posts_partition_count_wrs_per_round() {
        let r = run_pt2pt(&base_cfg(AggregatorKind::Persistent, 16, 1024));
        assert_eq!(r.total_wrs, 16 * 7);
    }

    #[test]
    fn perceived_bandwidth_exceeds_wire_bandwidth_with_early_bird() {
        // 100 ms compute, 4% noise: nearly all partitions transfer during the
        // laggard's 4 ms delay, so the *perceived* bandwidth beats hardware.
        let mut cfg = base_cfg(AggregatorKind::Persistent, 32, 256 << 10); // 8 MiB total
        cfg.timing = ThreadTiming::perceived_bw(100, 0.04);
        cfg.warmup = 1;
        cfg.iters = 3;
        let r = run_pt2pt(&cfg);
        let bw = r.perceived_bandwidth(cfg.total_bytes());
        let hw = cfg.partix.fabric.single_qp_bandwidth();
        assert!(
            bw > hw,
            "perceived bandwidth {bw:.2e} should exceed single-QP hardware {hw:.2e}"
        );
    }

    #[test]
    fn timer_improves_tail_over_plain_ploggp_at_medium_sizes() {
        // The headline Fig. 9 behaviour: with a laggard, the timer-based
        // aggregator's tail latency (after last pready) is much smaller than
        // plain PLogGP's, which holds the whole group for the laggard.
        let mut ploggp = base_cfg(AggregatorKind::PLogGp, 32, 256 << 10);
        ploggp.timing = ThreadTiming::perceived_bw(100, 0.04);
        ploggp.warmup = 1;
        ploggp.iters = 3;
        let mut timer = ploggp.clone();
        timer.partix.aggregator = AggregatorKind::TimerPLogGp;
        timer.partix.delta = SimDuration::from_micros(100);

        let r_p = run_pt2pt(&ploggp);
        let r_t = run_pt2pt(&timer);
        assert!(
            r_t.mean_tail_ns() < r_p.mean_tail_ns(),
            "timer tail {} should beat ploggp tail {}",
            r_t.mean_tail_ns(),
            r_p.mean_tail_ns()
        );
    }
}
