//! Data-plane allocation regression tests.
//!
//! After a warm-up has populated every pool (WR shells, CQ rings, poll
//! scratch, slot tables, the event slab), a steady-state round must
//! allocate exactly what the design says and nothing more: nothing at all
//! on the instant fabric — post, wire delivery, completion dispatch and
//! progress polling all run out of recycled storage — and one box per work
//! request on the simulated fabric (the transfer's `Flight`, which carries
//! the job through its delivery, RNR and ack events).

use partix_core::{AggregatorKind, PartixConfig, World};
use partix_system_tests::alloc_count::count_allocs;

const PARTITIONS: u32 = 16;
const PART_BYTES: usize = 4096; // 16 x 4 KiB = one 64 KiB message per round

#[test]
fn steady_state_64k_send_is_allocation_free() {
    let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let total = PARTITIONS as usize * PART_BYTES;
    let sbuf = p0.alloc_buffer(total).unwrap();
    let rbuf = p1.alloc_buffer(total).unwrap();
    let send = p0.psend_init(&sbuf, PARTITIONS, PART_BYTES, 1, 0).unwrap();
    let recv = p1.precv_init(&rbuf, PARTITIONS, PART_BYTES, 0, 0).unwrap();

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
        send.wait().unwrap();
        recv.wait().unwrap();
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
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let total = PARTITIONS as usize * PART_BYTES;
    let sbuf = p0.alloc_buffer(total).unwrap();
    let rbuf = p1.alloc_buffer(total).unwrap();
    let send = p0.psend_init(&sbuf, PARTITIONS, PART_BYTES, 1, 0).unwrap();
    let recv = p1.precv_init(&rbuf, PARTITIONS, PART_BYTES, 0, 0).unwrap();
    sched.run(); // channel bring-up

    let round = || {
        recv.start().unwrap();
        send.start().unwrap();
        for i in 0..PARTITIONS {
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
    assert_eq!(
        allocs, wrs,
        "a simulated WR allocates its flight and nothing else ({allocs} allocations for {wrs} WRs)"
    );
}
