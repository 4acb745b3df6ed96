//! Edge-case runtime tests: the software pending queue under the hardware
//! WR cap, sender-ahead-of-receiver early-arrival buffering, many-rank
//! all-pairs traffic, progress-engine behaviour under contention, `pready`
//! racing the δ-timer and itself, and mismatched inits.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use partix_core::{
    AggregatorKind, MemoryRegion, PartixConfig, PartixError, PrecvRequest, PsendRequest,
    SimDuration, World,
};

/// Send buffer, receive buffer, send request, receive request.
type Ends = (MemoryRegion, MemoryRegion, PsendRequest, PrecvRequest);

/// A request pair of `parts` × `pb` bytes from rank 0 to rank 1 of `world`.
fn pair(world: &World, parts: u32, pb: usize) -> Ends {
    let (p0, p1) = (world.proc(0), world.proc(1));
    let bytes = parts as usize * pb;
    let sbuf = p0.alloc_buffer(bytes).unwrap();
    let rbuf = p1.alloc_buffer(bytes).unwrap();
    let send = p0.psend_init(&sbuf, parts, pb, 1, 0).unwrap();
    let recv = p1.precv_init(&rbuf, parts, pb, 0, 0).unwrap();
    (sbuf, rbuf, send, recv)
}

/// Persistent policy with 128 partitions on few QPs: far more WRs than the
/// 16-outstanding hardware cap. The software pending queue must drain them
/// all as completions free slots, in order, without loss.
#[test]
fn pending_queue_drains_past_the_wr_cap() {
    let mut cfg = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    cfg.persistent_qps = 1; // 128 WRs through one QP with a 16-WR cap
    let (world, sched) = World::sim(2, cfg);
    let (parts, pb) = (128u32, 1024usize);
    let (sbuf, rbuf, send, recv) = pair(&world, parts, pb);

    let (send2, recv2, sbuf2) = (send.clone(), recv.clone(), sbuf.clone());
    send.on_ready(move || {
        recv2.start().unwrap();
        send2.start().unwrap();
        // All partitions at once: 128 posts slam into the 16-slot cap.
        for i in 0..parts {
            sbuf2.fill(i as usize * pb, pb, i as u8).unwrap();
            send2.pready(i).unwrap();
        }
    });
    sched.run();
    assert_eq!(send.completed_rounds(), 1);
    assert_eq!(recv.completed_rounds(), 1);
    assert_eq!(send.total_wrs_posted(), 128);
    for i in 0..parts {
        assert_eq!(
            rbuf.read_vec(i as usize * pb, 1).unwrap(),
            vec![i as u8],
            "partition {i}"
        );
    }
}

/// Sender restarts and transmits round N+1 before the receiver's start for
/// that round: arrivals are buffered and applied when the receiver starts.
/// This needs an aggregating plan — the receiver pre-posts one receive WR
/// per *user* partition (the timer worst case) while an aggregated round
/// consumes only one, so leftovers cover the early round. (Under the
/// persistent plan the same situation is a receiver-not-ready fault, which
/// `fault_injection.rs`-style tests cover.)
#[test]
fn early_arrivals_buffer_across_rounds() {
    let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
    let (sbuf, rbuf, send, recv) = pair(&world, 4, 64);

    // Round 1: normal.
    recv.start().unwrap();
    send.start().unwrap();
    for i in 0..4 {
        sbuf.fill(i as usize * 64, 64, 10 + i as u8).unwrap();
        send.pready(i).unwrap();
    }
    send.wait().unwrap();
    recv.wait().unwrap();

    // Round 2: the sender runs ahead — receiver has NOT started. (Receive
    // WRs from round 1's over-provisioning are still posted, so the wire
    // accepts the data; the runtime must hold the arrivals.)
    send.start().unwrap();
    for i in 0..4 {
        sbuf.fill(i as usize * 64, 64, 20 + i as u8).unwrap();
        send.pready(i).unwrap();
    }
    send.wait().unwrap();
    assert_eq!(
        recv.completed_rounds(),
        1,
        "receiver has not started round 2"
    );

    // Receiver starts round 2 late: buffered arrivals apply immediately.
    recv.start().unwrap();
    recv.wait().unwrap();
    assert_eq!(recv.completed_rounds(), 2);
    for i in 0..4u32 {
        assert_eq!(
            rbuf.read_vec(i as usize * 64, 1).unwrap(),
            vec![20 + i as u8]
        );
    }
}

/// Every rank sends to every other rank simultaneously (4 ranks, all-pairs)
/// on the virtual clock; all 12 channels complete with intact data markers.
#[test]
fn all_pairs_traffic_across_four_ranks() {
    let (world, sched) = World::sim(4, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
    let parts = 8u32;
    let pb = 2048usize;
    let mut channels = Vec::new();
    for src in 0..4u32 {
        for dst in 0..4u32 {
            if src == dst {
                continue;
            }
            let ps = world.proc(src);
            let pd = world.proc(dst);
            let sbuf = ps.alloc_buffer(parts as usize * pb).unwrap();
            let rbuf = pd.alloc_buffer(parts as usize * pb).unwrap();
            let tag = src * 10 + dst;
            let send = ps.psend_init(&sbuf, parts, pb, dst, tag).unwrap();
            let recv = pd.precv_init(&rbuf, parts, pb, src, tag).unwrap();
            channels.push((src, dst, send, recv, sbuf, rbuf));
        }
    }
    // Drain the setup events so every channel's readiness flag is set,
    // then fire all twelve channels at once.
    sched.run();
    for (src, _dst, send, recv, sbuf, _) in &channels {
        assert!(send.is_ready());
        recv.start().unwrap();
        send.start().unwrap();
        for i in 0..parts {
            sbuf.fill(i as usize * pb, pb, (src * 31 + i) as u8)
                .unwrap();
            send.pready(i).unwrap();
        }
    }
    sched.run();
    for (src, dst, send, recv, _, rbuf) in &channels {
        assert_eq!(send.completed_rounds(), 1, "{src}->{dst} send");
        assert_eq!(recv.completed_rounds(), 1, "{src}->{dst} recv");
        for i in 0..parts {
            assert_eq!(
                rbuf.read_vec(i as usize * pb, 1).unwrap(),
                vec![(src * 31 + i) as u8],
                "{src}->{dst} partition {i}"
            );
        }
    }
}

/// parrived hammered from many threads while the progress try-lock is
/// contended: no deadlock, no missed arrivals.
#[test]
fn parrived_contention_is_livelock_free() {
    let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::Persistent));
    let parts = 8u32;
    let (_sbuf, _rbuf, send, recv) = pair(&world, parts, 64);
    recv.start().unwrap();
    send.start().unwrap();

    let failed = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..parts {
            let recv = &recv;
            let failed = &failed;
            s.spawn(move || {
                // One partition per thread, not the round: `parrived` polls.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while !recv.parrived(t).unwrap() {
                    if std::time::Instant::now() > deadline {
                        failed.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            });
        }
        // Sender trickles while 8 threads hammer the try-lock.
        for i in 0..parts {
            std::thread::sleep(std::time::Duration::from_micros(200));
            send.pready(i).unwrap();
        }
    });
    assert!(
        !failed.load(Ordering::Relaxed),
        "a parrived poller timed out"
    );
    send.wait().unwrap();
    recv.wait().unwrap();
}

/// Stale timers from completed rounds must not disturb later rounds: run
/// many quick rounds with a delta longer than a round.
#[test]
fn stale_timers_are_harmless_across_rounds() {
    let mut cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    cfg.delta = SimDuration::from_millis(500); // far longer than a round
    let (world, sched) = World::sim(2, cfg);
    let (parts, pb) = (8u32, 512usize);
    let (_sbuf, _rbuf, send, recv) = pair(&world, parts, pb);

    struct Rounds {
        send: partix_core::PsendRequest,
        recv: partix_core::PrecvRequest,
        sched: partix_core::Scheduler,
        remaining: std::sync::atomic::AtomicUsize,
        parts: u32,
    }
    impl Rounds {
        fn go(self: &Arc<Self>) {
            self.recv.start().unwrap();
            self.send.start().unwrap();
            let me = self.clone();
            self.recv.on_complete(move || {
                if me.remaining.fetch_sub(1, Ordering::AcqRel) > 1 {
                    let me2 = me.clone();
                    me.sched
                        .after(SimDuration::from_micros(1), move || me2.go());
                }
            });
            for i in 0..self.parts {
                let s = self.send.clone();
                self.sched
                    .after(SimDuration::from_micros(1 + i as u64), move || {
                        s.pready(i).unwrap();
                    });
            }
        }
    }
    let driver = Arc::new(Rounds {
        send: send.clone(),
        recv: recv.clone(),
        sched: sched.clone(),
        remaining: std::sync::atomic::AtomicUsize::new(10),
        parts,
    });
    let d2 = driver.clone();
    send.on_ready(move || d2.go());
    sched.run();
    // 10 rounds completed; each round's 500 ms timer fired long after its
    // round ended and must have been a no-op.
    assert_eq!(send.completed_rounds(), 10);
    assert_eq!(recv.completed_rounds(), 10);
    // Every round aggregated into exactly one WR (all arrivals within
    // delta): 10 WRs total, not 10 + spurious flush posts.
    assert_eq!(send.total_wrs_posted(), 10);
}

/// How long one round of a wall-clock test may take before it fails.
const ROUND_DEADLINE: Duration = Duration::from_secs(10);

/// Wait on both ends for the round; a round that misses [`ROUND_DEADLINE`]
/// fails with the `Timeout` that describes the waiting request, not a hang.
fn finish_round(send: &PsendRequest, recv: &PrecvRequest, what: &str) {
    let fail = |e| panic!("{what}: {e}");
    send.wait_deadline(ROUND_DEADLINE).unwrap_or_else(fail);
    recv.wait_deadline(ROUND_DEADLINE).unwrap_or_else(fail);
}

/// Byte `b` of round `round`'s payload.
fn payload(round: u32, b: usize) -> u8 {
    (round as usize * 131 + b * 7) as u8
}

fn fill_round(sbuf: &MemoryRegion, round: u32, bytes: usize) {
    let data: Vec<u8> = (0..bytes).map(|b| payload(round, b)).collect();
    sbuf.write(0, &data).unwrap();
}

fn check_round(rbuf: &MemoryRegion, round: u32, bytes: usize, what: &str) {
    let got = rbuf.read_vec(0, bytes).unwrap();
    let bad = (0..bytes).find(|&b| got[b] != payload(round, b));
    assert_eq!(bad, None, "{what}: round {round} delivered a wrong byte");
}

/// `wait_deadline` at the edges of its limit, one row per case on a fresh
/// 8 × 64 B pair: what the bounded wait returns, and that it cancels nothing.
#[test]
fn wait_deadline_at_the_edges_of_its_limit() {
    const LIMIT: Duration = Duration::from_millis(50);
    type Outcome = Result<(), PartixError>;
    let cfg = || PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    // A round waited with `wait_deadline` lands the bytes `wait` lands.
    let completes = || -> Outcome {
        let (sbuf, rbuf, send, recv) = pair(&World::instant(2, cfg()), 8, 64);
        let mut landed = Vec::new();
        for bounded in [false, true] {
            rbuf.fill(0, 512, 0)?;
            fill_round(&sbuf, 3, 512);
            recv.start()?;
            send.start()?;
            send.pready_range(0, 8)?;
            if bounded {
                send.wait_deadline(LIMIT)?;
                recv.wait_deadline(LIMIT)?;
            } else {
                send.wait()?;
                recv.wait()?;
            }
            landed.push(rbuf.read_vec(0, 512)?);
        }
        assert_eq!(landed[0], landed[1]);
        check_round(&rbuf, 3, 512, "bounded");
        Ok(())
    };
    // An inactive request has nothing to wait for, however short the limit.
    let inactive = || -> Outcome {
        let (_, _, send, recv) = pair(&World::instant(2, cfg()), 8, 64);
        send.wait_deadline(Duration::ZERO)?;
        recv.wait_deadline(Duration::ZERO)
    };
    // Blocking cannot advance virtual time: the bounded wait refuses as
    // `wait` does, and the scheduler then completes the round.
    let virtual_clock = || -> Outcome {
        let (world, sched) = World::sim(2, cfg());
        let (_, _, send, recv) = pair(&world, 8, 64);
        sched.run();
        recv.start()?;
        send.start()?;
        send.pready_range(0, 8)?;
        assert_eq!(send.wait_deadline(LIMIT), Err(PartixError::WouldBlockInSim));
        let waited = recv.wait_deadline(LIMIT);
        sched.run();
        assert_eq!(recv.completed_rounds(), 1);
        waited
    };
    // A timed-out wait cancels nothing: once the sender is driven, a plain
    // `wait` finishes the round with its bytes.
    let timeout_then_wait = || -> Outcome {
        let (sbuf, rbuf, send, recv) = pair(&World::instant(2, cfg()), 8, 64);
        fill_round(&sbuf, 5, 512);
        recv.start()?;
        send.start()?;
        send.pready_range(0, 7)?;
        let waited = recv.wait_deadline(LIMIT);
        assert!(recv.is_active());
        send.pready(7)?;
        send.wait()?;
        recv.wait()?;
        check_round(&rbuf, 5, 512, "after a timeout");
        waited
    };
    type Row<'a> = (&'a str, &'a dyn Fn() -> Outcome, fn(&Outcome) -> bool);
    let rows: [Row; 4] = [
        ("a round that completes", &completes, |r| r.is_ok()),
        ("a zero limit, inactive", &inactive, |r| r.is_ok()),
        ("the virtual clock", &virtual_clock, |r| {
            *r == Err(PartixError::WouldBlockInSim)
        }),
        ("a timeout, then wait", &timeout_then_wait, |r| {
            matches!(r, Err(PartixError::Timeout { limit: LIMIT, .. }))
        }),
    ];
    for (case, run, expected) in rows {
        let got = run();
        assert!(expected(&got), "{case}: {got:?}");
    }
}

/// Eight threads share a `TimerPLogGp` group of 64 partitions on the wall
/// clock, one of them late, with δ short enough that the deadline flush
/// races the last `pready`s: for 50 rounds, each round completes exactly
/// once on both ends, every partition arrives once, the bytes are right,
/// and under adaptive δ no round reads a missing `pready` stamp (which
/// would stretch δ to the time since the world began).
fn timer_races_preadys(adaptive: bool) {
    const THREADS: u32 = 8;
    const PARTS: u32 = 64;
    const PB: usize = 64;
    let mut cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    cfg.delta = SimDuration::from_micros(20);
    cfg.adaptive_delta = adaptive;
    let margin = cfg.adaptive_delta_margin.max(1.0);
    let (sbuf, rbuf, send, recv) = pair(&World::instant(2, cfg), PARTS, PB);
    let bytes = PARTS as usize * PB;
    let plan = send.plan().unwrap();
    assert!(
        plan.timer_delta.is_some(),
        "the plan aggregates with a timer"
    );
    let completions = Arc::new(AtomicU64::new(0));
    for round in 0..50u32 {
        let what = format!("adaptive {adaptive}, round {round}");
        fill_round(&sbuf, round, bytes);
        let began = Instant::now();
        recv.start().unwrap();
        send.start().unwrap();
        let (c, d) = (completions.clone(), completions.clone());
        send.on_complete(move || {
            c.fetch_add(1, Ordering::AcqRel);
        });
        recv.on_complete(move || {
            d.fetch_add(1, Ordering::AcqRel);
        });
        let go = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (send, go) = (&send, &go);
                s.spawn(move || {
                    go.wait();
                    if t == THREADS - 1 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    let per = PARTS / THREADS;
                    for i in t * per..(t + 1) * per {
                        send.pready(i).unwrap();
                    }
                });
            }
        });
        finish_round(&send, &recv, &what);
        let rounds = u64::from(round) + 1;
        assert_eq!(completions.load(Ordering::Acquire), 2 * rounds, "{what}");
        assert_eq!(send.completed_rounds(), rounds, "{what}");
        assert_eq!(recv.completed_rounds(), rounds, "{what}");
        assert_eq!(recv.arrived_count(), PARTS, "{what}");
        check_round(&rbuf, round, bytes, &what);
        if adaptive {
            // Every stamp of the round lies inside it, so the spread does.
            let delta = send.current_delta().unwrap().as_nanos();
            let bound = (began.elapsed().as_nanos() as f64 * margin) as u64;
            assert!(delta < 1_000_000_000, "{what}: δ {delta} ns");
            assert!(
                delta <= bound.max(1_000),
                "{what}: δ {delta} ns > {bound} ns"
            );
        }
    }
    // The late thread sleeps past δ, so the flush went first in some round.
    assert!(
        send.total_wrs_posted() > 50,
        "adaptive {adaptive}: no flush raced"
    );
}

#[test]
fn timer_flush_races_concurrent_preadys() {
    timer_races_preadys(false);
}

#[test]
fn timer_flush_races_concurrent_preadys_under_adaptive_delta() {
    timer_races_preadys(true);
}

/// Eight threads each call `pready(i)` for every `i`, half in each
/// direction: exactly one call per partition succeeds and every other one
/// reports `DoublePready`, and the round completes once with the right
/// bytes. 64 partitions fill one word of a group's bitset; 130 span three,
/// the last partial.
fn racing_double_pready(kind: AggregatorKind, parts: u32) {
    const THREADS: u32 = 8;
    const PB: usize = 64;
    let what = format!("{kind:?}, {parts} partitions");
    let world = World::instant(2, PartixConfig::with_aggregator(kind));
    let (sbuf, rbuf, send, recv) = pair(&world, parts, PB);
    let bytes = parts as usize * PB;
    if kind != AggregatorKind::Persistent {
        assert_eq!(send.plan().unwrap().group_size, parts, "{what}: one group");
    }
    fill_round(&sbuf, 1, bytes);
    recv.start().unwrap();
    send.start().unwrap();
    let oks: Vec<AtomicU32> = (0..parts).map(|_| AtomicU32::new(0)).collect();
    let doubles = AtomicU32::new(0);
    let go = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (send, oks, doubles, go) = (&send, &oks, &doubles, &go);
            s.spawn(move || {
                go.wait();
                for k in 0..parts {
                    let i = if t % 2 == 0 { k } else { parts - 1 - k };
                    match send.pready(i) {
                        Ok(()) => {
                            oks[i as usize].fetch_add(1, Ordering::AcqRel);
                        }
                        Err(PartixError::DoublePready { index }) if index == i => {
                            doubles.fetch_add(1, Ordering::AcqRel);
                        }
                        Err(e) => panic!("pready({i}): {e}"),
                    }
                }
            });
        }
    });
    for (i, ok) in oks.iter().enumerate() {
        assert_eq!(
            ok.load(Ordering::Acquire),
            1,
            "{what}: pready({i}) succeeded"
        );
    }
    assert_eq!(
        doubles.load(Ordering::Acquire),
        (THREADS - 1) * parts,
        "{what}"
    );
    finish_round(&send, &recv, &what);
    assert_eq!(send.completed_rounds(), 1, "{what}");
    assert_eq!(recv.completed_rounds(), 1, "{what}");
    assert_eq!(recv.arrived_count(), parts, "{what}");
    check_round(&rbuf, 1, bytes, &what);
}

#[test]
fn racing_double_pready_is_rejected_exactly_once() {
    for kind in [
        AggregatorKind::PLogGp,
        AggregatorKind::Persistent,
        AggregatorKind::TimerPLogGp,
    ] {
        for parts in [64, 130] {
            racing_double_pready(kind, parts);
        }
    }
}

/// A `psend_init` and `precv_init` that disagree on their shape: the
/// second init fails with both shapes named, and the first still matches a
/// partner that agrees with it and completes a round.
fn mismatched_init(send_first: bool) {
    const PARTS: u32 = 8;
    const PB: usize = 64;
    let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
    let (p0, p1) = (world.proc(0), world.proc(1));
    let bytes = PARTS as usize * PB;
    let sbuf = p0.alloc_buffer(bytes).unwrap();
    let rbuf = p1.alloc_buffer(bytes).unwrap();
    let (send, recv) = if send_first {
        let send = p0.psend_init(&sbuf, PARTS, PB, 1, 0).unwrap();
        let bad = p1.precv_init(&rbuf, PARTS / 2, PB, 0, 0).err();
        let want = PartixError::ShapeMismatch {
            send: (PARTS, PB),
            recv: (PARTS / 2, PB),
        };
        assert_eq!(bad, Some(want));
        (send, p1.precv_init(&rbuf, PARTS, PB, 0, 0).unwrap())
    } else {
        let recv = p1.precv_init(&rbuf, PARTS, PB, 0, 0).unwrap();
        let bad = p0.psend_init(&sbuf, PARTS, PB / 2, 1, 0).err();
        let want = PartixError::ShapeMismatch {
            send: (PARTS, PB / 2),
            recv: (PARTS, PB),
        };
        assert_eq!(bad, Some(want));
        (p0.psend_init(&sbuf, PARTS, PB, 1, 0).unwrap(), recv)
    };
    fill_round(&sbuf, 7, bytes);
    recv.start().unwrap();
    send.start().unwrap();
    send.pready_range(0, PARTS).unwrap();
    finish_round(&send, &recv, "after a mismatched init");
    check_round(&rbuf, 7, bytes, "after a mismatched init");
}

#[test]
fn mismatched_precv_init_is_an_error_and_the_send_still_matches() {
    mismatched_init(true);
}

#[test]
fn mismatched_psend_init_is_an_error_and_the_recv_still_matches() {
    mismatched_init(false);
}

/// The sender runs a round ahead of the receiver on `ShmFabric` while a
/// third thread drives the receiving rank's progress, and the receiver
/// starts each round a varying moment after the sender posted it, so the
/// round's arrivals are dispatched before, during and after its start. Each
/// arrival must land in the round it belongs to, neither wiped by the
/// start's reset nor buffered after the start took the buffer: every round
/// completes on both ends within the deadline, with its own bytes.
#[test]
fn receiver_start_races_early_arrivals_on_shm() {
    const ROUNDS: u32 = 2_000;
    const PARTS: u32 = 64;
    const PB: usize = 1024;
    let world = World::with_fabric(
        2,
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
        partix_verbs::ShmFabric::loopback(),
    );
    let p1 = world.proc(1);
    let bytes = PARTS as usize * PB;
    let (sbuf, rbuf, send, recv) = pair(&world, PARTS, PB);
    // Rounds the sender has posted, and rounds the receiver has checked:
    // the sender starts round `r` once round `r - 1` is checked, so the
    // bytes of `r - 1` stay put, and the receiver starts `r` once it is
    // posted.
    let (posted, checked) = (AtomicU32::new(0), AtomicU32::new(0));
    let done = AtomicBool::new(false);
    // A gate waits on the other thread, whose own bounded waits name the
    // state of a stuck round.
    let wait_for = |n: &AtomicU32, r: u32, what: &str| {
        let deadline = Instant::now() + ROUND_DEADLINE;
        while n.load(Ordering::Acquire) < r {
            assert!(
                Instant::now() < deadline,
                "{what} {r}: the other side stopped"
            );
            std::thread::yield_now();
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                p1.progress();
                std::thread::yield_now();
            }
        });
        s.spawn(|| {
            for r in 0..ROUNDS {
                wait_for(&checked, r, "sender gate");
                fill_round(&sbuf, r, bytes);
                send.start_blocking().unwrap();
                send.pready_range(0, PARTS).unwrap();
                posted.store(r + 1, Ordering::Release);
                let waited = send.wait_deadline(ROUND_DEADLINE);
                waited.unwrap_or_else(|e| panic!("send round {r}: {e}"));
            }
        });
        let _stop = StopOnDrop(&done);
        for r in 0..ROUNDS {
            wait_for(&posted, r + 1, "receiver gate");
            let lag = Instant::now() + Duration::from_micros(u64::from(r % 32));
            while Instant::now() < lag {
                std::hint::spin_loop();
            }
            recv.start_blocking().unwrap();
            let waited = recv.wait_deadline(ROUND_DEADLINE);
            waited.unwrap_or_else(|e| panic!("recv round {r}: {e}"));
            check_round(&rbuf, r, bytes, "sender ahead");
            checked.store(r + 1, Ordering::Release);
        }
    });
    assert_eq!(send.completed_rounds(), u64::from(ROUNDS));
    assert_eq!(recv.completed_rounds(), u64::from(ROUNDS));
    world.check_invariants().assert_clean();
}

/// Stops the progress thread however the receiving loop ends, so a failed
/// assertion fails the test instead of leaving the scope waiting.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}
