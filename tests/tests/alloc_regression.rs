//! Data-plane allocation regression tests.
//!
//! After a warm-up has populated every pool (WR shells, CQ rings, poll
//! scratch, slot tables, the event slab), a steady-state round must
//! allocate exactly what the design says and nothing more: nothing at all
//! on the instant fabric — post, wire delivery, completion dispatch and
//! progress polling all run out of recycled storage — one box per work
//! request on the simulated fabric (the transfer's `Flight`, which carries
//! the job through its delivery, RNR and ack events), and nothing per
//! placed write or per notified doorbell on the shared-memory fabric.

use std::sync::Arc;
use std::time::{Duration, Instant};

use partix_core::{AggregatorKind, PartixConfig, World};
use partix_system_tests::alloc_count::count_allocs;
use partix_system_tests::pair;
use partix_verbs::{
    connect_pair, Network, Opcode, QpCaps, RecvWr, SendWr, Sge, ShmConfig, ShmFabric, WcStatus,
};

const PARTITIONS: u32 = 16;
const PART_BYTES: usize = 4096; // 16 x 4 KiB = one 64 KiB message per round

#[test]
fn steady_state_64k_send_is_allocation_free() {
    let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
    let (sbuf, rbuf, send, recv) = pair(&world, PARTITIONS, PART_BYTES);

    let round = |tick: u8| {
        recv.start().unwrap();
        send.start().unwrap();
        for i in 0..PARTITIONS {
            sbuf.fill(
                i as usize * PART_BYTES,
                PART_BYTES,
                tick.wrapping_add(i as u8),
            )
            .unwrap();
            send.pready(i).unwrap();
        }
        // One unbounded wait and one bounded: neither may allocate.
        send.wait().unwrap();
        recv.wait_deadline(Duration::from_secs(10)).unwrap();
    };

    // Warm-up: freelists, scratch buffers, and map capacity fill here.
    for tick in 0..4u8 {
        round(tick);
    }

    let (allocs, ()) = count_allocs(|| {
        for tick in 4..12u8 {
            round(tick);
        }
    });

    // Verify the rounds actually moved data before judging the count.
    let last = 11u8;
    for i in 0..PARTITIONS {
        let got = rbuf.read_vec(i as usize * PART_BYTES, PART_BYTES).unwrap();
        assert!(
            got.iter().all(|&b| b == last.wrapping_add(i as u8)),
            "partition {i} holds stale bytes"
        );
    }
    assert_eq!(
        allocs, 0,
        "steady-state partitioned send must not touch the heap ({allocs} allocations leaked into the hot path)"
    );
}

/// The simulated path: a persistent round posts one WR per partition, and
/// each WR costs the host exactly one allocation. A closure that outgrows
/// the scheduler's inline event storage, a scratch buffer that grows per
/// round or a hash map on the WR path all show up here as a second one.
#[test]
fn steady_state_persistent_sim_round_allocates_once_per_wr() {
    const ROUNDS: u64 = 8;
    let cfg = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let (world, sched) = World::sim(2, cfg);
    let (_, _, send, recv) = pair(&world, PARTITIONS, PART_BYTES);
    sched.run(); // channel bring-up

    let round = || {
        recv.start().unwrap();
        send.start().unwrap();
        send.pready_range(0, PARTITIONS).unwrap();
        sched.run();
    };
    for _ in 0..4 {
        round();
    }
    let wrs_before = send.total_wrs_posted();
    let (allocs, ()) = count_allocs(|| (0..ROUNDS).for_each(|_| round()));

    assert_eq!(send.completed_rounds(), 4 + ROUNDS);
    assert_eq!(recv.completed_rounds(), 4 + ROUNDS);
    let wrs = send.total_wrs_posted() - wrs_before;
    assert_eq!(wrs, ROUNDS * PARTITIONS as u64, "one WR per partition");
    assert_eq!(
        allocs, wrs,
        "a simulated WR allocates its flight and nothing else ({allocs} allocations for {wrs} WRs)"
    );
}

/// The simulated timer path: each round the even partitions are made ready
/// at once and the odd ones after the δ flush, so the flush posts eight
/// one-partition runs through one batch and each odd partition is a
/// post-flush run of its own. Besides a flight per WR, a round allocates
/// the run list of each posting scan: one per odd `pready`, and two for the
/// flush, whose eight runs outgrow the list's first capacity of four. A
/// batch that stages its WRs in fresh storage, or a timer closure that
/// outgrows the scheduler's inline storage, shows up here.
#[test]
fn steady_state_timer_flush_sim_round_allocates_a_flight_per_wr_and_a_list_per_scan() {
    const ROUNDS: u64 = 8;
    let cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    let (world, sched) = World::sim(2, cfg);
    let (_, _, send, recv) = pair(&world, PARTITIONS, PART_BYTES);
    sched.run(); // channel bring-up
    let plan = send.plan().unwrap();
    assert_eq!((plan.groups, plan.qp_count), (1, 1), "one group on one QP");

    let round = || {
        recv.start().unwrap();
        send.start().unwrap();
        for i in (0..PARTITIONS).step_by(2) {
            send.pready(i).unwrap();
        }
        sched.run(); // the δ flush
        for i in (1..PARTITIONS).step_by(2) {
            send.pready(i).unwrap();
        }
        sched.run();
    };
    for _ in 0..4 {
        round();
    }
    let wrs_before = send.total_wrs_posted();
    let (allocs, ()) = count_allocs(|| (0..ROUNDS).for_each(|_| round()));

    assert_eq!(send.completed_rounds(), 4 + ROUNDS);
    assert_eq!(recv.completed_rounds(), 4 + ROUNDS);
    let wrs = send.total_wrs_posted() - wrs_before;
    assert_eq!(wrs, ROUNDS * PARTITIONS as u64, "one WR per partition");
    let lists = ROUNDS * (2 + PARTITIONS as u64 / 2);
    assert_eq!(
        allocs,
        wrs + lists,
        "{allocs} allocations for {wrs} WRs and {lists} run lists"
    );
}

/// The real-time path: a post of a `ShmFabric` places its bytes, rings its
/// doorbell and completes, and one progress scan notifies every doorbell
/// waiting on a ring. The test holds the fabric's progress itself
/// (`pause_progress`), so the scans — and the counting — happen on this
/// thread. A doorbell staged through a buffer of its own, a per-completion
/// job, a held-WR queue that grows per post, or a scratch list per scan shows
/// up here. Over a loopback fabric and over a host-mode one, whose file
/// segments and region files this one fabric maps both ends of: there the
/// first post that names the destination region maps it (during warm-up),
/// and every later one finds it mapped.
#[test]
fn steady_state_shm_progress_scan_is_allocation_free() {
    scans_allocate_nothing(ShmFabric::loopback(), false);
    let dir = std::env::temp_dir().join(format!("partix_alloc_shm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    scans_allocate_nothing(ShmFabric::host(&dir, ShmConfig::default()), true);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The steady-state scan check over `fabric`, whose channel a `host`-mode
/// fabric opens explicitly.
fn scans_allocate_nothing(fabric: Arc<ShmFabric>, host: bool) {
    const WINDOW: u64 = 8;
    const LEN: usize = 64;
    const WARM_UP: u64 = 4;
    const ROUNDS: u64 = 16;
    let net = Network::new(2, fabric.clone());
    fabric.attach_network(net.state());
    let (a, b) = (net.open(0).unwrap(), net.open(1).unwrap());
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let (cqa, cqb) = (a.create_cq(), b.create_cq());
    let caps = QpCaps::default();
    let qa = a.create_qp(pda, cqa.clone(), a.create_cq(), caps).unwrap();
    let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), caps).unwrap();
    connect_pair(&qa, &qb).unwrap();
    if host {
        let (from, to) = ((0, qa.qp_num()), (1, qb.qp_num()));
        let wait = Duration::from_secs(10);
        std::thread::scope(|s| {
            s.spawn(|| fabric.open_tx(from, to, wait).unwrap());
            fabric.open_rx(from, to, wait).unwrap();
        });
    }
    let src = a.reg_mr(pda, WINDOW as usize * LEN).unwrap();
    let dst = b.reg_mr(pdb, WINDOW as usize * LEN).unwrap();

    let mut driver = fabric.pause_progress();
    let mut steady_allocs = 0u64;
    for round in 0..WARM_UP + ROUNDS {
        // The WRs are built outside the count: their gather lists are the
        // caller's allocations.
        let wrs: Vec<SendWr> = (0..WINDOW)
            .map(|i| SendWr {
                wr_id: i,
                opcode: Opcode::RdmaWriteWithImm,
                sg_list: vec![Sge {
                    addr: src.addr_at(i as usize * LEN),
                    length: LEN as u32,
                    lkey: src.lkey(),
                }],
                remote_addr: dst.addr_at(i as usize * LEN),
                rkey: dst.rkey(),
                imm: Some(i as u32),
                inline_data: false,
                flow: 0,
            })
            .collect();
        for i in 0..WINDOW {
            let off = i as usize * LEN;
            src.fill(off, LEN, (round * WINDOW + i) as u8).unwrap();
        }
        let (post_allocs, ()) = count_allocs(|| {
            for (i, wr) in (0..WINDOW).zip(wrs) {
                qb.post_recv(RecvWr::bare(i)).unwrap();
                qa.post_send(wr).unwrap();
            }
        });
        // Placed and completed by the posts; nothing else scans, so the
        // doorbells sit on the ring until this does.
        assert_eq!(cqa.total_pushed(), (round + 1) * WINDOW);
        assert_eq!(fabric.data_records(), round * WINDOW);
        let done = (round + 1) * WINDOW;
        let deadline = Instant::now() + Duration::from_secs(10);
        let (scan_allocs, ()) = count_allocs(|| {
            while cqb.total_pushed() < done {
                driver.scan();
                assert!(Instant::now() < deadline, "scans made no progress");
            }
        });
        if round >= WARM_UP {
            steady_allocs += post_allocs + scan_allocs;
        }
        for i in 0..WINDOW {
            let recv = cqb.poll_one().expect("notified by the scan");
            assert_eq!((recv.wr_id, recv.imm), (i, Some(i as u32)));
            let send = cqa.poll_one().expect("completed by the post");
            assert_eq!((send.wr_id, send.status), (i, WcStatus::Success));
        }
        let want: Vec<u8> = (0..WINDOW)
            .flat_map(|i| [(round * WINDOW + i) as u8; LEN])
            .collect();
        assert_eq!(dst.read_vec(0, want.len()).unwrap(), want);
    }
    assert_eq!(fabric.data_records(), (WARM_UP + ROUNDS) * WINDOW);
    assert_eq!(
        steady_allocs,
        0,
        "{steady_allocs} allocations in the posts and scans that placed and notified {} writes",
        ROUNDS * WINDOW
    );
    drop(driver);
    fabric.shutdown();
}
