//! Chaos suite: the full stack over a lossy wire.
//!
//! A seeded [`LossyConfig::chaos`] wire drops, duplicates, and delays
//! transfers underneath every aggregation strategy. With the default
//! [`ReliabilityConfig`] the application must never notice: every round
//! terminates, every byte arrives exactly once, and the only trace of the
//! chaos is in the reliability counters. With retries disabled, the first
//! loss must still surface as a failure — the legacy semantics are opt-out,
//! not silently changed.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use partix_core::{
    AggregatorKind, LossyConfig, MemoryRegion, PartixConfig, PartixError, PrecvRequest,
    PsendRequest, ReliabilityConfig, Scheduler, SimDuration, World,
};
use partix_system_tests::pattern;
use partix_workloads::halo::{run_halo, HaloConfig};
use partix_workloads::sweep::{run_sweep, SweepConfig};

const KINDS: [AggregatorKind; 4] = [
    AggregatorKind::Persistent,
    AggregatorKind::TuningTable,
    AggregatorKind::PLogGp,
    AggregatorKind::TimerPLogGp,
];

const PARTITIONS: u32 = 8;
const PART_BYTES: usize = 256;

/// What a chaotic run left behind.
struct ChaosOutcome {
    completed_rounds: u64,
    /// Virtual-time ns at which each round had both sides complete.
    completion_times: Vec<u64>,
    recoveries: u64,
    error: Option<&'static str>,
    drops: u64,
    retransmits: u64,
    duplicates: u64,
}

struct ChaosDriver {
    world: World,
    sched: Scheduler,
    send: PsendRequest,
    recv: PrecvRequest,
    sbuf: MemoryRegion,
    rbuf: MemoryRegion,
    rounds: u64,
    round: AtomicU64,
    sides: AtomicU32,
    completions: Mutex<Vec<u64>>,
}

impl ChaosDriver {
    fn start_round(self: &Arc<Self>) {
        let round = self.round.load(Ordering::Acquire) + 1; // 1-based pattern
        self.recv.start().expect("recv start");
        self.send.start().expect("send start");
        self.sides.store(2, Ordering::Release);
        let me = self.clone();
        self.send.on_complete(move || me.side_done());
        let me = self.clone();
        self.recv.on_complete(move || me.side_done());
        for i in 0..PARTITIONS {
            let me = self.clone();
            // Stagger preadys a little so retransmissions interleave with
            // fresh posts rather than arriving against an idle wire.
            self.sched
                .after(SimDuration::from_micros((i as u64 % 5) * 3), move || {
                    me.sbuf
                        .fill(i as usize * PART_BYTES, PART_BYTES, pattern(round, i))
                        .expect("fill");
                    me.send.pready(i).expect("pready");
                });
        }
    }

    fn side_done(self: &Arc<Self>) {
        if self.sides.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let round = self.round.fetch_add(1, Ordering::AcqRel) + 1;
        self.completions.lock().push(self.world.now().as_nanos());
        // Exactly-once at the memory region: despite drops, duplicates and
        // delays underneath, every partition holds this round's bytes.
        for i in 0..PARTITIONS {
            let got = self
                .rbuf
                .read_vec(i as usize * PART_BYTES, PART_BYTES)
                .expect("read");
            assert!(
                got.iter().all(|b| *b == pattern(round, i)),
                "round {round} partition {i} corrupted under chaos"
            );
        }
        if round < self.rounds {
            let me = self.clone();
            self.sched
                .after(SimDuration::from_micros(1), move || me.start_round());
        }
    }
}

fn run_chaos(kind: AggregatorKind, seed: u64, drop_p: f64, rounds: u64) -> ChaosOutcome {
    let mut cfg = PartixConfig::with_aggregator(kind);
    cfg.loss = Some(LossyConfig::chaos(drop_p, seed));
    let (world, sched) = World::sim(2, cfg);
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let total = PARTITIONS as usize * PART_BYTES;
    let sbuf = p0.alloc_buffer(total).expect("send buffer");
    let rbuf = p1.alloc_buffer(total).expect("recv buffer");
    let send = p0
        .psend_init(&sbuf, PARTITIONS, PART_BYTES, 1, 0)
        .expect("psend_init");
    let recv = p1
        .precv_init(&rbuf, PARTITIONS, PART_BYTES, 0, 0)
        .expect("precv_init");
    let driver = Arc::new(ChaosDriver {
        world: world.clone(),
        sched: sched.clone(),
        send: send.clone(),
        recv: recv.clone(),
        sbuf,
        rbuf,
        rounds,
        round: AtomicU64::new(0),
        sides: AtomicU32::new(0),
        completions: Mutex::new(Vec::new()),
    });
    let d2 = driver.clone();
    send.on_ready(move || d2.start_round());
    sched.run();
    // Counter conservation after every chaotic scenario: a drop,
    // retransmit or ghost counted at the loss model but not at the QP or
    // the delivering fabric (or the other way round) breaks law 4 or 7.
    let snap = world.telemetry_snapshot();
    partix_core::invariants::check(&snap).assert_clean();
    let completion_times = std::mem::take(&mut *driver.completions.lock());
    ChaosOutcome {
        completed_rounds: driver.round.load(Ordering::Acquire),
        completion_times,
        recoveries: send.recoveries(),
        error: send.error(),
        drops: snap.wire.dropped,
        retransmits: snap.wire.retransmits,
        duplicates: snap.wire.duplicates_injected,
    }
}

/// The headline guarantee: at 5% drop (plus duplicates and delays), every
/// strategy completes every round byte-identically for every seed, with
/// zero application-visible failures.
#[test]
fn every_strategy_survives_five_percent_loss() {
    let mut total_drops = 0;
    for kind in KINDS {
        for seed in [1u64, 2, 3, 4] {
            let out = run_chaos(kind, seed, 0.05, 3);
            assert_eq!(
                out.completed_rounds, 3,
                "{kind:?} seed {seed} did not finish"
            );
            assert_eq!(out.error, None, "{kind:?} seed {seed} surfaced an error");
            assert_eq!(
                out.retransmits, out.drops,
                "{kind:?} seed {seed}: every drop must be retransmitted"
            );
            total_drops += out.drops;
        }
    }
    assert!(total_drops > 0, "the chaos wire never actually misbehaved");
}

/// Heavier weather: 20% drop rate still terminates correctly (retry budget
/// 7 makes exhaustion astronomically unlikely), exercising multi-attempt
/// backoff chains rather than single retransmissions.
#[test]
fn heavy_loss_still_terminates() {
    for seed in [7u64, 8] {
        let out = run_chaos(AggregatorKind::Persistent, seed, 0.20, 2);
        assert_eq!(out.completed_rounds, 2);
        assert_eq!(out.error, None);
        assert!(out.drops > 0, "20% loss must drop something");
    }
}

/// Determinism under chaos: same seed and configuration reproduce the exact
/// completion timeline, fault pattern, and recovery count; a different seed
/// produces a different fault pattern.
#[test]
fn chaos_timeline_is_reproducible() {
    let a = run_chaos(AggregatorKind::TuningTable, 42, 0.10, 3);
    let b = run_chaos(AggregatorKind::TuningTable, 42, 0.10, 3);
    assert_eq!(a.completion_times, b.completion_times);
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.retransmits, b.retransmits);
    assert_eq!(a.duplicates, b.duplicates);
    assert_eq!(a.recoveries, b.recoveries);

    let c = run_chaos(AggregatorKind::TuningTable, 43, 0.10, 3);
    assert_ne!(
        (a.completion_times, a.drops, a.duplicates),
        (c.completion_times, c.drops, c.duplicates),
        "different seeds should see different chaos"
    );
}

/// With the reliability layer disabled, the legacy semantics hold: the
/// first loss surfaces as `TransferFailed` instead of being absorbed.
#[test]
fn zero_retries_preserve_first_loss_failure() {
    let mut cfg = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    cfg.reliability = ReliabilityConfig::disabled();
    cfg.loss = Some(LossyConfig::drops(1.0, 99));
    let (world, sched) = World::sim(2, cfg);
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let total = PARTITIONS as usize * PART_BYTES;
    let sbuf = p0.alloc_buffer(total).unwrap();
    let rbuf = p1.alloc_buffer(total).unwrap();
    let send = p0.psend_init(&sbuf, PARTITIONS, PART_BYTES, 1, 0).unwrap();
    let recv = p1.precv_init(&rbuf, PARTITIONS, PART_BYTES, 0, 0).unwrap();
    let send2 = send.clone();
    let recv2 = recv.clone();
    send.on_ready(move || {
        recv2.start().unwrap();
        send2.start().unwrap();
        for i in 0..PARTITIONS {
            send2.pready(i).unwrap();
        }
    });
    sched.run();
    assert!(matches!(
        send.wait(),
        Err(PartixError::TransferFailed { .. })
    ));
    assert!(send.error().is_some());
    assert_eq!(
        recv.arrived_count(),
        0,
        "a fully lossy wire delivers nothing"
    );
    let wire = world.telemetry_snapshot().wire;
    assert!(wire.exhausted > 0, "loss must be attributed to exhaustion");
    assert_eq!(wire.retransmits, 0, "retry_cnt = 0 means no retransmits");
    // Even a failed round leaves a reconciled ledger: every drop is
    // attributed (law 7) and the error completions balance the posts.
    world.check_invariants().assert_clean();
}

/// The halo application pattern (16 ranks, 64 concurrent channels) runs to
/// completion over the chaotic wire — `run_halo` panics internally if any
/// iteration fails to terminate.
#[test]
fn halo_pattern_survives_chaos() {
    for seed in [5u64, 6] {
        let mut partix = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
        partix.loss = Some(LossyConfig::chaos(0.05, seed));
        let mut cfg = HaloConfig::small(partix, 2048);
        cfg.warmup = 1;
        cfg.iters = 2;
        let r = run_halo(&cfg);
        assert!(r.mean_total_ns > 0.0);
    }
}

/// The Sweep3D wavefront pattern — where a lost corner message would stall
/// every downstream diagonal — also completes under chaos.
#[test]
fn sweep_pattern_survives_chaos() {
    let mut partix = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    partix.loss = Some(LossyConfig::chaos(0.05, 17));
    let cfg = SweepConfig {
        rows: 4,
        cols: 4,
        threads: 4,
        part_bytes: 1024,
        compute: SimDuration::from_micros(100),
        noise_frac: 0.01,
        warmup: 1,
        iters: 2,
        seed: 0x53EE9,
        partix,
    };
    let r = run_sweep(&cfg);
    assert!(r.mean_total_ns > 0.0);
}
