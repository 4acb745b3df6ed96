//! A world that nothing refers to any more is freed.
//!
//! An aggregating plan posts more receive WRs than a round consumes (the
//! receive queue is topped up to the worst case, `max_incoming_wrs`), and a
//! request that stays reachable from its process's WR tables after the last
//! handle is gone pins the process, its context, the network and every QP,
//! CQ and MR of it. Each test runs one such round, drops every handle and
//! watches the telemetry registry — which the network and every process
//! hold strongly — go away.

use std::sync::{Arc, Weak};

use partix_core::{AggregatorKind, PartixConfig, Registry, World};
use partix_system_tests::pair;

const PARTITIONS: u32 = 16;
const PART_BYTES: usize = 4096;

/// The round really left receive WRs posted and unconsumed: without them
/// the test would pass on a runtime that still leaks.
fn watch(world: &World) -> Weak<Registry> {
    let snap = world.telemetry_snapshot();
    let posted: u64 = snap.qps.iter().map(|q| q.recv_posted).sum();
    let consumed: u64 = snap.qps.iter().map(|q| q.recv_consumed).sum();
    assert!(
        consumed >= 1 && posted > consumed,
        "{posted} posted, {consumed} consumed"
    );
    assert!(world.check_invariants().is_clean());
    Arc::downgrade(world.telemetry())
}

#[test]
fn dropped_sim_world_is_freed() {
    let cfg = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    let (world, sched) = World::sim(2, cfg);
    let (_, _, send, recv) = pair(&world, PARTITIONS, PART_BYTES);
    sched.run(); // channel bring-up
    recv.start().unwrap();
    send.start().unwrap();
    send.pready_range(0, PARTITIONS).unwrap();
    sched.run();
    assert_eq!((send.completed_rounds(), recv.completed_rounds()), (1, 1));

    let registry = watch(&world);
    drop((world, sched, send, recv));
    assert!(
        registry.upgrade().is_none(),
        "the dropped world is still alive"
    );
}

#[test]
fn dropped_instant_world_is_freed() {
    let cfg = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    let world = World::instant(2, cfg);
    let (_, _, send, recv) = pair(&world, PARTITIONS, PART_BYTES);
    recv.start().unwrap();
    send.start().unwrap();
    send.pready_range(0, PARTITIONS).unwrap();
    send.wait().unwrap();
    recv.wait().unwrap();

    let registry = watch(&world);
    drop((world, send, recv));
    assert!(
        registry.upgrade().is_none(),
        "the dropped world is still alive"
    );
}

/// The other order: a request handle outlives `World` and keeps working,
/// because it keeps the world alive; the world goes with the last handle.
#[test]
fn a_request_keeps_its_world() {
    let cfg = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    let world = World::instant(2, cfg);
    let (_, _, send, recv) = pair(&world, PARTITIONS, PART_BYTES);
    let registry = Arc::downgrade(world.telemetry());
    drop(world);
    for _ in 0..2 {
        recv.start().unwrap();
        send.start().unwrap();
        send.pready_range(0, PARTITIONS).unwrap();
        send.wait().unwrap();
        recv.wait().unwrap();
    }
    assert!(registry.upgrade().is_some());
    drop((send, recv));
    assert!(
        registry.upgrade().is_none(),
        "the dropped world is still alive"
    );
}
