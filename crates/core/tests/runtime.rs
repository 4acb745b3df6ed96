//! Integration tests for the partitioned runtime: lifecycle, aggregation
//! behaviour (WR counts per policy), timer semantics, multi-threaded pready,
//! simulated-mode rounds, and error paths.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use partix_core::{
    AggregatorKind, PartixConfig, PartixError, PrecvRequest, PsendRequest, SimDuration, World,
};
use partix_verbs::MemoryRegion;

struct Link {
    world: World,
    send: PsendRequest,
    recv: PrecvRequest,
    sbuf: MemoryRegion,
    rbuf: MemoryRegion,
}

/// How long a wall-clock round may take before its test fails.
const ROUND_LIMIT: Duration = Duration::from_secs(30);

/// Wait on both ends of `l` for the round; a round past [`ROUND_LIMIT`]
/// fails with the `Timeout` that describes the request still waiting.
fn wait_round(l: &Link) {
    l.send.wait_deadline(ROUND_LIMIT).unwrap();
    l.recv.wait_deadline(ROUND_LIMIT).unwrap();
}

fn instant_link(cfg: PartixConfig, partitions: u32, part_bytes: usize) -> Link {
    link(World::instant(2, cfg), partitions, part_bytes)
}

fn link(world: World, partitions: u32, part_bytes: usize) -> Link {
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let bytes = partitions as usize * part_bytes;
    let sbuf = p0.alloc_buffer(bytes).unwrap();
    let rbuf = p1.alloc_buffer(bytes).unwrap();
    let send = p0.psend_init(&sbuf, partitions, part_bytes, 1, 7).unwrap();
    let recv = p1.precv_init(&rbuf, partitions, part_bytes, 0, 7).unwrap();
    Link {
        world,
        send,
        recv,
        sbuf,
        rbuf,
    }
}

/// Fill each partition with a distinct byte derived from (round, index).
fn fill_pattern(buf: &MemoryRegion, partitions: u32, part_bytes: usize, round: u8) {
    for p in 0..partitions {
        buf.fill(
            p as usize * part_bytes,
            part_bytes,
            round.wrapping_mul(31) ^ p as u8,
        )
        .unwrap();
    }
}

fn check_pattern(buf: &MemoryRegion, partitions: u32, part_bytes: usize, round: u8) {
    for p in 0..partitions {
        let got = buf.read_vec(p as usize * part_bytes, part_bytes).unwrap();
        let want = vec![round.wrapping_mul(31) ^ p as u8; part_bytes];
        assert_eq!(got, want, "partition {p} corrupted in round {round}");
    }
}

#[test]
fn basic_round_trip_all_aggregators() {
    for kind in [
        AggregatorKind::Persistent,
        AggregatorKind::TuningTable,
        AggregatorKind::PLogGp,
        AggregatorKind::TimerPLogGp,
    ] {
        let l = instant_link(PartixConfig::with_aggregator(kind), 8, 256);
        assert!(l.send.is_ready() && l.recv.is_ready());
        l.recv.start().unwrap();
        l.send.start().unwrap();
        fill_pattern(&l.sbuf, 8, 256, 1);
        l.send.pready_range(0, 8).unwrap();
        wait_round(&l);
        check_pattern(&l.rbuf, 8, 256, 1);
        assert_eq!(l.send.completed_rounds(), 1, "{kind:?}");
        assert_eq!(l.recv.completed_rounds(), 1, "{kind:?}");
        assert!(l.send.error().is_none());
    }
}

#[test]
fn persistent_rounds_reuse_buffers() {
    let l = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
        4,
        512,
    );
    for round in 1..=5u8 {
        l.recv.start().unwrap();
        l.send.start().unwrap();
        fill_pattern(&l.sbuf, 4, 512, round);
        // Vary the pready order per round.
        let order: Vec<u32> = match round % 3 {
            0 => vec![0, 1, 2, 3],
            1 => vec![3, 2, 1, 0],
            _ => vec![1, 3, 0, 2],
        };
        for i in order {
            l.send.pready(i).unwrap();
        }
        wait_round(&l);
        check_pattern(&l.rbuf, 4, 512, round);
    }
    assert_eq!(l.send.completed_rounds(), 5);
    assert_eq!(l.recv.completed_rounds(), 5);
}

#[test]
fn persistent_posts_one_wr_per_partition() {
    let l = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::Persistent),
        16,
        1024,
    );
    l.recv.start().unwrap();
    l.send.start().unwrap();
    l.send.pready_range(0, 16).unwrap();
    l.send.wait().unwrap();
    assert_eq!(l.send.total_wrs_posted(), 16);
    let plan = l.send.plan().unwrap();
    assert_eq!(plan.groups, 16);
    assert_eq!(plan.group_size, 1);
}

#[test]
fn ploggp_aggregates_small_messages_into_one_wr() {
    // 32 x 512 B = 16 KiB total: Table I says one transport partition.
    let l = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
        32,
        512,
    );
    l.recv.start().unwrap();
    l.send.start().unwrap();
    for i in (0..32).rev() {
        l.send.pready(i).unwrap();
    }
    wait_round(&l);
    assert_eq!(l.send.total_wrs_posted(), 1, "one aggregated WR expected");
}

#[test]
fn ploggp_splits_large_messages() {
    // 8 x 4 MiB = 32 MiB: the model wants 16 but only 8 partitions exist, so
    // it clamps to the user's request (paper §IV-C).
    let l = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
        8,
        4 << 20,
    );
    l.recv.start().unwrap();
    l.send.start().unwrap();
    l.send.pready_range(0, 8).unwrap();
    l.send.wait().unwrap();
    assert_eq!(l.send.total_wrs_posted(), 8);
}

#[test]
fn parrived_reports_individual_partitions() {
    let l = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::Persistent),
        4,
        128,
    );
    l.recv.start().unwrap();
    l.send.start().unwrap();
    assert!(!l.recv.parrived(0).unwrap());
    l.send.pready(2).unwrap();
    assert!(l.recv.parrived(2).unwrap());
    assert!(!l.recv.parrived(0).unwrap());
    assert!(!l.recv.test());
    l.send.pready(0).unwrap();
    l.send.pready(1).unwrap();
    l.send.pready(3).unwrap();
    assert!(l.recv.test());
    assert_eq!(l.recv.arrived_count(), 4);
}

#[test]
fn timer_aggregator_sends_whole_group_when_all_arrive_before_delta() {
    // Large delta: the last pready aggregates everything into one WR.
    let mut cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    cfg.delta = SimDuration::from_secs(10); // effectively never fires first
    let l = instant_link(cfg, 8, 512);
    l.recv.start().unwrap();
    l.send.start().unwrap();
    l.send.pready_range(0, 8).unwrap();
    wait_round(&l);
    assert_eq!(
        l.send.total_wrs_posted(),
        1,
        "delta_a case: last arrival sends the whole group"
    );
}

#[test]
fn timer_aggregator_flushes_contiguous_runs_on_expiry() {
    // Tiny delta with a real-thread timer: ready partitions {0,1,3} flush as
    // runs {0,1} and {3}; the laggard {2} sends itself (the paper's Fig. 5
    // delta_b walk-through).
    let mut cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    cfg.delta = SimDuration::from_millis(30);
    let l = instant_link(cfg, 4, 256);
    l.recv.start().unwrap();
    l.send.start().unwrap();
    fill_pattern(&l.sbuf, 4, 256, 9);
    l.send.pready(0).unwrap();
    l.send.pready(1).unwrap();
    l.send.pready(3).unwrap();
    // Wait for the delta timer to flush: a WR count, not a round, so no
    // `wait_deadline` (the round ends only with the laggard below).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while l.send.total_wrs_posted() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "flush did not happen within 5s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(l.send.total_wrs_posted(), 2, "runs {{0,1}} and {{3}}");
    assert!(!l.recv.test(), "partition 2 still missing");
    // Laggard arrives after the flush and sends itself.
    l.send.pready(2).unwrap();
    wait_round(&l);
    assert_eq!(l.send.total_wrs_posted(), 3);
    check_pattern(&l.rbuf, 4, 256, 9);
}

#[test]
fn dropping_a_world_with_delta_armed_does_not_wait_for_it() {
    // The armed δ is a deadline on the world's one timer thread, which is
    // woken and joined when the last handle drops (it used to be a detached
    // thread asleep for the full 10 s).
    let mut cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    cfg.delta = SimDuration::from_secs(10);
    let l = instant_link(cfg, 8, 512);
    l.recv.start().unwrap();
    l.send.start().unwrap();
    l.send.pready(0).unwrap();
    let t0 = std::time::Instant::now();
    drop(l);
    assert!(t0.elapsed() < std::time::Duration::from_millis(100));
}

#[test]
fn multithreaded_pready_stress() {
    // 32 threads each own one partition across many rounds; data integrity
    // and counts must hold. Exercises the lock-free pready path and the
    // try-lock progress engine from many threads.
    let l = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
        32,
        4096,
    );
    let rounds = 20u8;
    for round in 1..=rounds {
        l.recv.start().unwrap();
        l.send.start().unwrap();
        std::thread::scope(|s| {
            for t in 0..32u32 {
                let send = &l.send;
                let sbuf = &l.sbuf;
                s.spawn(move || {
                    sbuf.fill(t as usize * 4096, 4096, round.wrapping_mul(31) ^ t as u8)
                        .unwrap();
                    send.pready(t).unwrap();
                });
            }
        });
        wait_round(&l);
        check_pattern(&l.rbuf, 32, 4096, round);
    }
    assert_eq!(l.send.completed_rounds(), rounds as u64);
}

#[test]
fn multithreaded_parrived_consumers() {
    // Receiver-side threads poll parrived for their partition and read the
    // data as soon as it lands (receive-side compute, paper §V-E).
    let l = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::Persistent),
        16,
        1024,
    );
    l.recv.start().unwrap();
    l.send.start().unwrap();
    fill_pattern(&l.sbuf, 16, 1024, 3);
    let failed = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..16u32 {
            let recv = &l.recv;
            let rbuf = &l.rbuf;
            let failed = &failed;
            s.spawn(move || {
                // One partition per thread, not the round: `parrived` polls.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while !recv.parrived(t).unwrap() {
                    if std::time::Instant::now() > deadline {
                        failed.store(true, Ordering::Relaxed);
                        return;
                    }
                    std::thread::yield_now();
                }
                let got = rbuf.read_vec(t as usize * 1024, 1024).unwrap();
                if got != vec![3u8.wrapping_mul(31) ^ t as u8; 1024] {
                    failed.store(true, Ordering::Relaxed);
                }
            });
        }
        // Sender trickles partitions in.
        for i in 0..16u32 {
            l.send.pready(i).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    });
    assert!(!failed.load(Ordering::Relaxed));
    wait_round(&l);
}

/// A callback that counts its runs in `n`.
fn bump(n: &Arc<AtomicUsize>) -> impl FnOnce() + Send + 'static {
    let n = n.clone();
    move || {
        n.fetch_add(1, Ordering::SeqCst);
    }
}

/// The request lifecycle of both handles on both clocks: readiness, a
/// round's start, its misuse, its end and its callbacks.
#[test]
fn error_paths() {
    for sim in [false, true] {
        let cfg = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
        let (world, sched) = if sim {
            let (world, sched) = World::sim(2, cfg);
            (world, Some(sched))
        } else {
            (World::instant(2, cfg), None)
        };
        let clock = if sim { "sim" } else { "instant" };
        let l = link(world, 4, 64);

        // Before any round: nothing to make ready, nothing to wait for.
        assert_eq!(l.send.pready(0), Err(PartixError::NotActive), "{clock}");
        assert!(l.send.test() && l.recv.test(), "{clock}");
        if let Some(sched) = &sched {
            assert_eq!(l.send.start(), Err(PartixError::ChannelNotReady));
            assert_eq!(l.recv.start(), Err(PartixError::ChannelNotReady));
            sched.run(); // channel bring-up
        }

        // Registered after readiness, `on_ready` runs at once.
        let ready = Arc::new(AtomicUsize::new(0));
        l.send.on_ready(bump(&ready));
        l.recv.on_ready(bump(&ready));
        assert_eq!(ready.load(Ordering::SeqCst), 2, "{clock}");

        let (sent, received) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        for round in 1..=2 {
            l.recv.start().unwrap();
            l.send.start().unwrap();
            l.send.on_complete(bump(&sent));
            l.recv.on_complete(bump(&received));
            assert_eq!(l.send.start(), Err(PartixError::AlreadyActive));
            assert_eq!(l.recv.start(), Err(PartixError::AlreadyActive));
            assert!(matches!(
                l.send.pready(4),
                Err(PartixError::PartitionOutOfRange { index: 4, .. })
            ));
            assert!(matches!(
                l.recv.parrived(99),
                Err(PartixError::PartitionOutOfRange { .. })
            ));
            l.send.pready(1).unwrap();
            assert_eq!(
                l.send.pready(1),
                Err(PartixError::DoublePready { index: 1 })
            );
            l.send.pready_range(2, 4).unwrap();
            l.send.pready(0).unwrap();
            match &sched {
                Some(sched) => {
                    sched.run();
                }
                None => wait_round(&l),
            }

            // Each end's `on_complete` ran once, and both count the round.
            let ends = [&sent, &received].map(|n| n.load(Ordering::SeqCst));
            assert_eq!(ends, [round; 2], "{clock}");
            let rounds = [l.send.completed_rounds(), l.recv.completed_rounds()];
            assert_eq!(rounds, [round as u64; 2], "{clock}");
            assert!(l.send.test() && l.recv.test(), "{clock}");
            assert_eq!(l.send.pready(0), Err(PartixError::NotActive), "{clock}");
        }
    }
}

/// The ledger's `preadys` under each policy, on both clocks: a fixed plan
/// counts a group once, as the `pready` that fills it posts it; the timer
/// policy counts every call. Mid-round, with half the partitions ready, a
/// fixed plan has counted only its filled groups; after three rounds every
/// policy has counted every partition of each. Law 12 (`partitions_posted
/// <= preadys`) holds in both states.
#[test]
fn preadys_count_filled_groups_on_fixed_plans_and_every_call_on_the_timer() {
    const PARTS: u32 = 64;
    let kinds = [
        AggregatorKind::Persistent,
        AggregatorKind::PLogGp,
        AggregatorKind::TuningTable,
        AggregatorKind::TimerPLogGp,
    ];
    for kind in kinds {
        for sim in [false, true] {
            let mut cfg = PartixConfig::with_aggregator(kind);
            // No δ flush mid-round: the round's last arrival posts the group.
            cfg.delta = SimDuration::from_secs(3600);
            let (world, sched) = if sim {
                let (world, sched) = World::sim(2, cfg);
                (world, Some(sched))
            } else {
                (World::instant(2, cfg), None)
            };
            let case = format!("{kind:?} on {}", if sim { "sim" } else { "instant" });
            let l = link(world, PARTS, 64);
            if let Some(sched) = &sched {
                sched.run(); // channel bring-up
            }
            let plan = l.send.plan().unwrap();
            assert_eq!(
                plan.timer_delta.is_some(),
                kind == AggregatorKind::TimerPLogGp
            );
            let half = PARTS / 2;
            let mid = match plan.timer_delta {
                Some(_) => half,
                None => (half / plan.group_size) * plan.group_size,
            };
            let preadys = || l.world.telemetry_snapshot().runtime.preadys;
            let law_12 = || {
                let report = l.world.check_invariants();
                assert!(
                    report.violations.iter().all(|v| v.law != 12),
                    "{case}: {report}"
                );
            };
            for round in 0..3 {
                l.recv.start().unwrap();
                l.send.start().unwrap();
                l.send.pready_range(0, half).unwrap();
                assert_eq!(
                    preadys(),
                    u64::from(round * PARTS + mid),
                    "{case} mid-round"
                );
                law_12();
                l.send.pready_range(half, PARTS).unwrap();
                match &sched {
                    Some(sched) => {
                        sched.run();
                    }
                    None => wait_round(&l),
                }
            }
            assert_eq!(l.send.completed_rounds(), 3, "{case}");
            assert_eq!(preadys(), u64::from(3 * PARTS), "{case}");
            law_12();
            l.world.check_invariants().assert_clean();
        }
    }
}

#[test]
fn init_validation() {
    let world = World::instant(2, PartixConfig::default());
    let p0 = world.proc(0);
    let buf = p0.alloc_buffer(1024).unwrap();
    assert!(matches!(
        p0.psend_init(&buf, 0, 64, 1, 0),
        Err(PartixError::BadPartitionCount { .. })
    ));
    assert!(matches!(
        p0.psend_init(&buf, 4, 0, 1, 0),
        Err(PartixError::ZeroPartitionSize)
    ));
    assert!(matches!(
        p0.psend_init(&buf, 32, 64, 1, 0),
        Err(PartixError::BufferTooSmall { .. })
    ));
    // A size past `usize` is too large for any buffer, not an overflow.
    assert!(matches!(
        p0.psend_init(&buf, 2, 1 << 63, 1, 0),
        Err(PartixError::BufferTooSmall { .. })
    ));
    // Buffer from the wrong node.
    let p1 = world.proc(1);
    let other = p1.alloc_buffer(1024).unwrap();
    assert!(matches!(
        p0.psend_init(&other, 4, 64, 1, 0),
        Err(PartixError::WrongNode)
    ));
}

#[test]
fn matching_is_fifo_per_tag() {
    // Two sends with the same tag match two receives in posted order; a
    // different tag matches independently.
    let world = World::instant(2, PartixConfig::default());
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let s1buf = p0.alloc_buffer(256).unwrap();
    let s2buf = p0.alloc_buffer(256).unwrap();
    let r1buf = p1.alloc_buffer(256).unwrap();
    let r2buf = p1.alloc_buffer(256).unwrap();

    let s1 = p0.psend_init(&s1buf, 1, 256, 1, 5).unwrap();
    let s2 = p0.psend_init(&s2buf, 1, 256, 1, 5).unwrap();
    let r1 = p1.precv_init(&r1buf, 1, 256, 0, 5).unwrap();
    let r2 = p1.precv_init(&r2buf, 1, 256, 0, 5).unwrap();

    for r in [&r1, &r2] {
        r.start().unwrap();
    }
    s1buf.fill(0, 256, 0x11).unwrap();
    s2buf.fill(0, 256, 0x22).unwrap();
    for s in [&s1, &s2] {
        s.start().unwrap();
        s.pready(0).unwrap();
        s.wait().unwrap();
    }
    r1.wait().unwrap();
    r2.wait().unwrap();
    // FIFO: first send landed in first receive's buffer.
    assert_eq!(r1buf.read_vec(0, 1).unwrap(), vec![0x11]);
    assert_eq!(r2buf.read_vec(0, 1).unwrap(), vec![0x22]);
}

#[test]
fn sim_mode_round_with_callbacks() {
    let (world, sched) = World::sim(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
    // A sequential world leaves the affinity census off; this test reads it.
    assert!(sched.node_event_counts().is_empty());
    sched.enable_node_affinity(2);
    let Link {
        world,
        send,
        recv,
        sbuf,
        rbuf,
    } = link(world, 8, 1024);

    // Nothing is ready until the setup-delay event runs.
    assert!(!send.is_ready());
    assert_eq!(send.start(), Err(PartixError::ChannelNotReady));

    let done = Arc::new(AtomicBool::new(false));
    let done2 = done.clone();
    let sbuf2 = sbuf.clone();
    let send2 = send.clone();
    let recv2 = recv.clone();
    let sched2 = sched.clone();
    send.on_ready(move || {
        recv2.start().unwrap();
        send2.start().unwrap();
        sbuf2.fill(0, 8 * 1024, 0x5A).unwrap();
        recv2.on_complete(move || done2.store(true, Ordering::Release));
        // Threads finish compute at staggered virtual times.
        for i in 0..8u32 {
            let send3 = send2.clone();
            sched2.after(SimDuration::from_micros(10 + i as u64), move || {
                send3.pready(i).unwrap();
            });
        }
    });
    sched.run();
    assert!(done.load(Ordering::Acquire));
    assert_eq!(rbuf.read_vec(0, 8 * 1024).unwrap(), vec![0x5A; 8 * 1024]);
    assert!(world.now().as_nanos() > 0);
    // wait() must refuse to block on the virtual clock for an active round.
    recv.start().unwrap();
    assert_eq!(recv.wait(), Err(PartixError::WouldBlockInSim));

    // Fabric routing carries node affinity: both the sender (completions,
    // bring-up) and the receiver (deliveries) must have fielded events. The
    // final slot is the unattributed overflow bucket and stays empty for a
    // two-rank world.
    let census = sched.node_event_counts();
    assert_eq!(
        census.len(),
        3,
        "counters for ranks 0..=2 (last = overflow)"
    );
    assert!(
        census[0] > 0,
        "sender-side events must carry rank 0 affinity"
    );
    assert!(
        census[1] > 0,
        "receiver-side events must carry rank 1 affinity"
    );
    assert_eq!(census[2], 0, "no events may target out-of-range nodes");
}

#[test]
fn sim_mode_timer_aggregator_flush() {
    // Virtual-clock version of the Fig. 5 walk-through, fully deterministic:
    // preadys at t = 0/1/2 us for partitions {0,1,3}; delta = 50 us; the
    // laggard (2) arrives at t = 200 us.
    let mut cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    cfg.delta = SimDuration::from_micros(50);
    let (world, sched) = World::sim(2, cfg);
    let Link { send, recv, .. } = link(world, 4, 256);

    let send2 = send.clone();
    let recv2 = recv.clone();
    let sched2 = sched.clone();
    send.on_ready(move || {
        recv2.start().unwrap();
        send2.start().unwrap();
        for (t_us, part) in [(0u64, 0u32), (1, 1), (2, 3), (200, 2)] {
            let s = send2.clone();
            sched2.after(SimDuration::from_micros(t_us), move || {
                s.pready(part).unwrap();
            });
        }
    });
    sched.run();
    assert_eq!(send.completed_rounds(), 1);
    assert_eq!(recv.completed_rounds(), 1);
    assert_eq!(
        send.total_wrs_posted(),
        3,
        "flush posts runs {{0,1}} and {{3}}; laggard posts {{2}}"
    );
}

#[test]
fn sim_determinism() {
    // Two identical simulated runs complete at the identical virtual instant.
    fn run() -> u64 {
        let (world, sched) = World::sim(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
        let Link { send, recv, .. } = link(world, 32, 2048);
        let send2 = send.clone();
        let recv2 = recv.clone();
        let sched2 = sched.clone();
        send.on_ready(move || {
            recv2.start().unwrap();
            send2.start().unwrap();
            for i in 0..32u32 {
                let s = send2.clone();
                sched2.after(SimDuration::from_micros((i * 3) as u64), move || {
                    s.pready(i).unwrap();
                });
            }
        });
        sched.run();
        assert_eq!(recv.completed_rounds(), 1);
        sched.now().as_nanos()
    }
    assert_eq!(run(), run());
}

#[test]
fn persistent_beats_nothing_but_matches_wr_count_at_high_partitions() {
    // 128 partitions: persistent posts 128 WRs (2 QPs worth of caps handled
    // via the software pending queue); the PLogGP aggregator posts far
    // fewer. This is the paper's core wire-efficiency claim.
    let persistent = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::Persistent),
        128,
        4096,
    );
    let ploggp = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
        128,
        4096,
    );
    for l in [&persistent, &ploggp] {
        l.recv.start().unwrap();
        l.send.start().unwrap();
        l.send.pready_range(0, 128).unwrap();
        wait_round(l);
    }
    assert_eq!(persistent.send.total_wrs_posted(), 128);
    assert!(
        ploggp.send.total_wrs_posted() <= 2,
        "512 KiB total should aggregate heavily, got {} WRs",
        ploggp.send.total_wrs_posted()
    );
}

/// The flow log sees a round's whole lifecycle: one flow per WR, posted by
/// the send request and applied by the receive request, whose `Arrived`
/// events name every partition exactly once.
#[test]
fn flow_log_sees_lifecycle() {
    use partix_core::telemetry::{FlowLog, FlowStage};

    let l = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::Persistent),
        4,
        128,
    );
    let log = FlowLog::new();
    l.world.enable_flow_tracing(log.clone());
    l.recv.start().unwrap();
    l.send.start().unwrap();
    l.send.pready_range(0, 4).unwrap();
    wait_round(&l);

    let events = log.sorted();
    let of = |stage| events.iter().filter(move |e| e.stage == stage);
    let flows: std::collections::BTreeSet<u64> = events.iter().map(|e| e.flow).collect();
    assert_eq!(flows.len(), 4);
    assert_eq!(of(FlowStage::Posted).count(), 4);
    assert!(of(FlowStage::Posted).all(|e| e.chan as u64 == l.send.id()));
    assert!(of(FlowStage::Arrived).all(|e| e.chan as u64 == l.recv.id()));
    let mut covered = [0u32; 4];
    for e in of(FlowStage::Arrived) {
        let (lo, count) = (e.aux >> 32, e.aux & 0xffff_ffff);
        for p in lo..lo + count {
            covered[p as usize] += 1;
        }
    }
    assert_eq!(covered, [1; 4], "arrivals must tile 0..4 exactly once");
}

#[test]
fn pready_list_commits_in_order() {
    let l = instant_link(
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
        8,
        128,
    );
    l.recv.start().unwrap();
    l.send.start().unwrap();
    fill_pattern(&l.sbuf, 8, 128, 2);
    // MPI_Pready_list with a scrambled, complete index set.
    l.send.pready_list(&[6, 0, 3, 7, 1, 5, 2, 4]).unwrap();
    wait_round(&l);
    check_pattern(&l.rbuf, 8, 128, 2);

    // A list with a duplicate fails at the duplicate but keeps earlier
    // commits (local-completion semantics).
    l.recv.start().unwrap();
    l.send.start().unwrap();
    let err = l.send.pready_list(&[0, 1, 1, 2]).unwrap_err();
    assert_eq!(err, PartixError::DoublePready { index: 1 });
    l.send.pready_list(&[2, 3, 4, 5, 6, 7]).unwrap();
    wait_round(&l);
}

#[test]
fn start_blocking_waits_for_channel_setup() {
    // In instant mode matching is synchronous, so start_blocking reduces to
    // start; the interesting property is that it is *rejected* on the
    // virtual clock where blocking cannot advance time.
    let l = instant_link(PartixConfig::default(), 2, 64);
    l.recv.start_blocking().unwrap();
    l.send.start_blocking().unwrap();
    l.send.pready_range(0, 2).unwrap();
    wait_round(&l);

    let (world, _sched) = World::sim(2, PartixConfig::default());
    let Link { send, recv, .. } = link(world, 1, 64);
    assert_eq!(send.start_blocking(), Err(PartixError::WouldBlockInSim));
    assert_eq!(recv.start_blocking(), Err(PartixError::WouldBlockInSim));
}

/// Six adaptive-δ rounds on the virtual clock, with flow tracing on or off:
/// WRs posted and the δ in force after each round. Threads spread over
/// ~60 us with a 4 ms laggard; δ starts badly mis-tuned at 1 us.
fn adaptive_delta_rounds(traced: bool) -> (Vec<u64>, Vec<u64>) {
    let mut cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    cfg.delta = SimDuration::from_micros(1);
    cfg.adaptive_delta = true;
    cfg.fabric.copy_data = false;
    let (world, sched) = World::sim(2, cfg);
    if traced {
        world.enable_flow_tracing(partix_core::telemetry::FlowLog::new());
    }
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let partitions = 16u32;
    let part_bytes = 2048usize;
    let sbuf = p0
        .alloc_buffer_virtual(partitions as usize * part_bytes)
        .unwrap();
    let rbuf = p1
        .alloc_buffer_virtual(partitions as usize * part_bytes)
        .unwrap();
    let send = p0.psend_init(&sbuf, partitions, part_bytes, 1, 0).unwrap();
    let recv = p1.precv_init(&rbuf, partitions, part_bytes, 0, 0).unwrap();

    let wrs_per_round = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    let deltas = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));

    struct Round {
        send: partix_core::PsendRequest,
        recv: partix_core::PrecvRequest,
        sched: partix_core::Scheduler,
        wrs: Arc<parking_lot::Mutex<Vec<u64>>>,
        deltas: Arc<parking_lot::Mutex<Vec<u64>>>,
        remaining: std::sync::atomic::AtomicUsize,
        partitions: u32,
    }
    impl Round {
        fn go(self: &Arc<Self>) {
            let before = self.send.total_wrs_posted();
            self.recv.start().unwrap();
            self.send.start().unwrap();
            let me = self.clone();
            self.recv.on_complete(move || {
                me.wrs.lock().push(me.send.total_wrs_posted() - before);
                me.deltas
                    .lock()
                    .push(me.send.current_delta().unwrap().as_nanos());
                if me.remaining.fetch_sub(1, Ordering::AcqRel) > 1 {
                    let me2 = me.clone();
                    me.sched
                        .after(SimDuration::from_micros(1), move || me2.go());
                }
            });
            // Non-laggard arrivals spread evenly over 60 us; the laggard
            // (partition 0) at +4 ms.
            for i in 0..self.partitions {
                let s = self.send.clone();
                let at = if i == 0 {
                    SimDuration::from_millis(4)
                } else {
                    SimDuration::from_nanos(i as u64 * 4_000)
                };
                self.sched.after(at, move || s.pready(i).unwrap());
            }
        }
    }
    let driver = Arc::new(Round {
        send: send.clone(),
        recv,
        sched: sched.clone(),
        wrs: wrs_per_round.clone(),
        deltas: deltas.clone(),
        remaining: std::sync::atomic::AtomicUsize::new(6),
        partitions,
    });
    let d2 = driver.clone();
    send.on_ready(move || d2.go());
    sched.run();

    let wrs = wrs_per_round.lock().clone();
    let deltas = deltas.lock().clone();
    (wrs, deltas)
}

#[test]
fn adaptive_delta_converges_to_arrival_spread() {
    // The paper's named future work (§IV-D): online tuning of delta from
    // the observed arrival pattern. Delta starts badly mis-tuned, so round
    // 1 flushes many small runs. After adaptation, delta tracks ~1.2x the
    // non-laggard spread and each round needs only a handful of WRs.
    let (wrs, deltas) = adaptive_delta_rounds(false);
    assert_eq!(wrs.len(), 6);
    // Round 1 (delta = 1 us): the flush catches few arrivals; many WRs.
    assert!(wrs[0] >= 4, "mis-tuned delta should fragment: {wrs:?}");
    // Adapted rounds: one early-bird flush + the laggard.
    assert_eq!(wrs[5], 2, "adapted delta should need 2 WRs: {wrs:?}");
    // Delta converged to ~1.2x the 56 us non-laggard spread (within 25%).
    let last = *deltas.last().unwrap() as f64;
    let expect = 1.2 * 56_000.0;
    assert!(
        (last - expect).abs() / expect < 0.25,
        "delta {last} should be near {expect}: {deltas:?}"
    );
}

/// Adaptive δ and flow tracing read the same `pready` stamps: turning
/// tracing on changes neither the δ of any round nor its WR count.
#[test]
fn adaptive_delta_is_the_same_with_flow_tracing_on() {
    let plain = adaptive_delta_rounds(false);
    assert_eq!(adaptive_delta_rounds(true), plain);
    assert!(plain.1.windows(2).any(|w| w[0] != w[1]), "δ never adapted");
}

/// Who drives progress (ROADMAP 1(c)): 128 single-partition WRs under
/// `Persistent` against the 16-WR send-queue cap. A WR the cap refuses is
/// parked in software, and only the send side's own calls post it again.
#[test]
fn spilled_wrs_are_driven_by_the_send_side_only() {
    let (parts, pb) = (128u32, 64usize);
    let cfg = || PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let spills = |l: &Link| l.world.telemetry_snapshot().runtime.pending_spills;
    let finish = |l: &Link| {
        wait_round(l);
        assert_eq!(l.recv.arrived_count(), parts);
        check_pattern(&l.rbuf, parts, pb, 5);
        l.world.check_invariants().assert_clean();
    };

    // The instant fabric completes a WR inside `post_send`, so its slot is
    // free again before the next `pready`: nothing spills, and the receiver
    // sees every partition with no help from the sender.
    let l = instant_link(cfg(), parts, pb);
    fill_pattern(&l.sbuf, parts, pb, 5);
    l.recv.start().unwrap();
    l.send.start().unwrap();
    l.send.pready_range(0, parts).unwrap();
    assert_eq!(spills(&l), 0);
    assert!(l.recv.test());
    finish(&l);

    // A wire with a round trip in it. The receiver has posted no receive WR
    // yet, so nothing is acknowledged while the sender posts: every WR past
    // the cap spills.
    let l = link(
        World::with_fabric(2, cfg(), partix_verbs::ShmFabric::loopback()),
        parts,
        pb,
    );
    fill_pattern(&l.sbuf, parts, pb, 5);
    l.send.start_blocking().unwrap();
    l.send.pready_range(0, parts).unwrap();
    let spilled = spills(&l) as u32;
    assert!(spilled > 0 && spilled < parts);
    // Polling the receiver alone delivers what is on the wire and then
    // stalls, however long it polls: bounded, not a hang. This loop drives
    // the receiver only, on purpose, so it cannot be a `wait_deadline`.
    l.recv.start_blocking().unwrap();
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while l.recv.arrived_count() < parts - spilled {
        assert!(
            std::time::Instant::now() < give_up,
            "posted WRs did not arrive"
        );
        assert!(!l.recv.test());
    }
    for _ in 0..2_000 {
        assert!(!l.recv.test());
        std::thread::yield_now();
    }
    assert_eq!(l.recv.arrived_count(), parts - spilled);
    // The send side's wait drains the parked WRs.
    finish(&l);
}

/// On `ShmFabric` the wire stage ends with the ACK: each posted WR records
/// one `WireSubmit`, stamped at submit and carrying submit → ack, and the
/// `wire_ns` table computed from the flow log counts exactly those.
#[test]
fn shm_wire_stage_is_one_event_per_wr_with_its_duration() {
    use partix_core::telemetry::{stage_histograms, FlowLog, FlowStage};
    let (parts, pb) = (32u32, 64usize);
    let cfg = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let world = World::with_fabric(2, cfg, partix_verbs::ShmFabric::loopback());
    let log = FlowLog::new();
    world.enable_flow_tracing(log.clone());
    let l = link(world, parts, pb);
    fill_pattern(&l.sbuf, parts, pb, 3);
    l.recv.start_blocking().unwrap();
    l.send.start_blocking().unwrap();
    l.send.pready_range(0, parts).unwrap();
    wait_round(&l);
    check_pattern(&l.rbuf, parts, pb, 3);

    let events = log.sorted();
    let wrs = l.send.total_wrs_posted();
    let posted = events.iter().filter(|e| e.stage == FlowStage::Posted);
    assert_eq!(posted.clone().count() as u64, wrs);
    for p in posted {
        let wire: Vec<_> = events
            .iter()
            .filter(|e| e.flow == p.flow && e.stage == FlowStage::WireSubmit)
            .collect();
        assert_eq!(wire.len(), 1, "flow {}", p.flow);
        assert!(wire[0].aux > 0, "flow {}: no time on the wire", p.flow);
    }
    let stages = stage_histograms(&events);
    let wire = stages.iter().find(|(n, _)| *n == "wire_ns").unwrap();
    assert_eq!(wire.1.count, wrs);
}

/// A request whose plan would exceed the fabric's largest WR (the longest
/// SGE, `u32::MAX`): 8 x 1 GiB of virtual partitions on `World::sim`, which
/// a tuning table sends as one group of 8 GiB. The plan halves its groups
/// until a WR fits, and a round posts one WR per group.
#[test]
fn sim_plan_halves_groups_past_the_largest_wr() {
    let (parts, pb) = (8u32, 1usize << 30);
    let mut table = partix_core::TuningTable::new();
    table.insert(parts, u64::from(parts) * pb as u64, 1, 1);
    let cfg = PartixConfig {
        tuning_table: Some(Arc::new(table)),
        ..PartixConfig::with_aggregator(AggregatorKind::TuningTable)
    };
    let unbounded = partix_core::plan_for(&cfg, parts, pb, u64::MAX);
    assert!(
        u64::from(unbounded.group_size) * pb as u64 > u64::from(u32::MAX),
        "the unbounded plan fits already: {unbounded:?}"
    );
    let (world, sched) = World::sim(2, cfg);
    let (p0, p1) = (world.proc(0), world.proc(1));
    let sbuf = p0.alloc_buffer_virtual(parts as usize * pb).unwrap();
    let rbuf = p1.alloc_buffer_virtual(parts as usize * pb).unwrap();
    let send = p0.psend_init(&sbuf, parts, pb, 1, 7).unwrap();
    let recv = p1.precv_init(&rbuf, parts, pb, 0, 7).unwrap();
    let (send2, recv2) = (send.clone(), recv.clone());
    send.on_ready(move || {
        recv2.start().unwrap();
        send2.start().unwrap();
        send2.pready_range(0, parts).unwrap();
    });
    sched.run();
    assert_eq!(recv.completed_rounds(), 1);
    let plan = send.plan().unwrap();
    assert!(plan.group_size < unbounded.group_size, "{plan:?}");
    assert!(u64::from(plan.group_size) * pb as u64 <= u64::from(u32::MAX));
    assert_eq!(send.total_wrs_posted(), u64::from(plan.groups));
    world.check_invariants().assert_clean();
}

/// A single partition longer than the fabric's largest WR, the longest
/// SGE, cannot be sent by any plan: `psend_init` refuses it and names both
/// sizes.
#[test]
fn psend_init_refuses_a_partition_longer_than_the_largest_wr() {
    let cfg = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    let (sim, _sched) = World::sim(2, cfg);
    let p0 = sim.proc(0);
    let buf = p0.alloc_buffer_virtual(5 << 30).unwrap();
    let (big, max_wr_bytes) = (buf.len(), u64::from(u32::MAX));
    let Err(err) = p0.psend_init(&buf, 1, big, 1, 0) else {
        panic!("a partition of {big} bytes was accepted");
    };
    let want = PartixError::PartitionTooLarge {
        part_bytes: big,
        max_wr_bytes,
    };
    assert_eq!(err, want);
    let text = err.to_string();
    assert!(text.contains(&big.to_string()) && text.contains(&max_wr_bytes.to_string()));
}
