//! Failure injection through the full stack: a scripted [`LossyFabric`]
//! drops chosen wire attempts, and on QPs with no transport retries each
//! drop is an injected fault. It must surface as an error completion, a
//! poisoned request and a QP error state — never as silent data loss.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use partix_core::{AggregatorKind, PartixConfig, PartixError, ReliabilityConfig, World};
use partix_system_tests::pair;
use partix_verbs::{
    Fabric, FaultPlan, FlowLog, FlowStage, InstantFabric, LossyConfig, LossyFabric, NetworkState,
    TransferJob,
};

fn faulty_world(plan: FaultPlan) -> World {
    let faulty = LossyFabric::scripted(InstantFabric::new(), plan);
    // Reliability off: these tests assert the legacy first-error-poisons
    // semantics (retransmission, then QP recovery, would otherwise absorb
    // the injected fault).
    let mut config = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    config.reliability = ReliabilityConfig::disabled();
    World::with_fabric(2, config, faulty)
}

#[test]
fn injected_fault_poisons_the_send_request() {
    // Fail the third WR of the round.
    let world = faulty_world(FaultPlan::Indices(vec![2]));
    let (sbuf, rbuf, send, recv) = pair(&world, 8, 128);
    recv.start().unwrap();
    send.start().unwrap();
    send.pready_range(0, 8).unwrap();
    // The sender's wait reports the failure rather than hanging or lying.
    // Depending on progress timing the first observed error is either the
    // faulted WR's completion or the QP-already-dead rejection of a later
    // post; both are honest.
    assert!(matches!(
        send.wait(),
        Err(PartixError::TransferFailed { .. })
    ));
    assert!(send.error().is_some());
    // The receiver is missing the faulted partition and the later
    // partitions of the now-dead QP (round-robin: 2, 4, 6 shared QP 0). Its
    // sender is gone, so a bounded wait ends in `Timeout`, naming what
    // arrived, and cancels nothing.
    let began = Instant::now();
    let waited = recv.wait_deadline(Duration::from_millis(50));
    assert!(began.elapsed() < Duration::from_secs(1), "{waited:?}");
    let Err(PartixError::Timeout { state, .. }) = &waited else {
        panic!("expected a timeout, got {waited:?}");
    };
    assert!(state.contains("5/8 partitions arrived"), "{state}");
    assert!(recv.is_active());
    assert_eq!(recv.arrived_count(), 5);
    for lost in [2u32, 4, 6] {
        assert!(
            !recv.parrived(lost).unwrap(),
            "partition {lost} should be lost"
        );
    }
    for ok in [0u32, 1, 3, 5, 7] {
        assert!(
            recv.parrived(ok).unwrap(),
            "partition {ok} should have arrived"
        );
    }
    // The poisoned round still leaves a reconciled ledger: the injected
    // fault is attributed on the wire and the error completion balances
    // the posts.
    let snap = world.telemetry_snapshot();
    assert_eq!((snap.wire.dropped, snap.wire.exhausted), (1, 1));
    partix_core::invariants::check(&snap).assert_clean();
    // A round left waiting pins nothing once every handle is gone.
    let registry = Arc::downgrade(world.telemetry());
    drop((world, sbuf, rbuf, send, recv));
    assert!(
        registry.upgrade().is_none(),
        "the dropped world is still alive"
    );
}

#[test]
fn clean_rounds_before_the_fault_are_unaffected() {
    // Fault only the 17th transfer: two full 8-partition rounds pass, the
    // third poisons.
    let world = faulty_world(FaultPlan::Indices(vec![16]));
    let (sbuf, rbuf, send, recv) = pair(&world, 8, 64);
    for round in 0..2 {
        recv.start().unwrap();
        send.start().unwrap();
        for i in 0..8 {
            sbuf.fill(i as usize * 64, 64, round * 10 + i as u8)
                .unwrap();
            send.pready(i as u32).unwrap();
        }
        send.wait().unwrap();
        recv.wait().unwrap();
        for i in 0..8 {
            assert_eq!(
                rbuf.read_vec(i as usize * 64, 1).unwrap(),
                vec![round * 10 + i as u8]
            );
        }
    }
    recv.start().unwrap();
    send.start().unwrap();
    send.pready_range(0, 8).unwrap();
    assert!(send.wait().is_err());
    world.check_invariants().assert_clean();
}

#[test]
fn aggregated_fault_loses_the_whole_group() {
    // With full aggregation (one WR for all partitions), a single fault
    // costs every partition — the blast-radius trade-off of aggregation.
    // Reliability is on and every attempt is lost: retransmissions and QP
    // recoveries both run out before the failure reaches `wait`.
    let faulty = LossyFabric::scripted(InstantFabric::new(), FaultPlan::EveryNth(1));
    let world = World::with_fabric(
        2,
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
        faulty,
    );
    let (_, _, send, recv) = pair(&world, 32, 512);
    assert_eq!(send.plan().unwrap().groups, 1, "16 KiB fully aggregates");
    recv.start().unwrap();
    send.start().unwrap();
    send.pready_range(0, 32).unwrap();
    assert!(send.wait().is_err());
    assert_eq!(recv.arrived_count(), 0, "nothing arrived");
    world.check_invariants().assert_clean();
}

#[test]
fn posting_onto_a_dead_qp_retires_the_wr_and_terminates() {
    // All traffic shares one QP; the very first WR is eaten, driving the QP
    // to the error state. Every later pready then posts onto a dead QP and
    // must hit `post`'s poisoned path: the WR is retired immediately (no
    // completion will ever come), the error is recorded, and the round
    // terminates instead of hanging with wr_posted > wr_completed.
    let faulty = LossyFabric::scripted(InstantFabric::new(), FaultPlan::Indices(vec![0]));
    let mut config = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    config.reliability = ReliabilityConfig::disabled();
    config.persistent_qps = 1;
    let world = World::with_fabric(2, config, faulty.clone());
    let (_, _, send, recv) = pair(&world, 8, 64);
    recv.start().unwrap();
    send.start().unwrap();
    send.pready_range(0, 8).unwrap();
    assert!(matches!(
        send.wait(),
        Err(PartixError::TransferFailed { .. })
    ));
    assert!(send.error().is_some());
    // Only the faulted WR reached the wire; the rest were rejected by the
    // dead QP and retired in software.
    assert_eq!(faulty.attempts(), 1);
    assert_eq!(recv.arrived_count(), 0);
    // Software-retired WRs (rejected by the dead QP) never touched the
    // wire and must not appear anywhere in the wire ledger.
    let snap = world.telemetry_snapshot();
    assert_eq!((snap.wire.dropped, snap.wire.inner_submissions), (1, 0));
    partix_core::invariants::check(&snap).assert_clean();
}

#[test]
fn qp_recovery_absorbs_an_injected_fault() {
    // Same single-QP setup, but with QP recovery on (and transport retries
    // still off, so the drop is an error and not a retransmission): the
    // error completion triggers QP recovery (Error → Reset → Init → RTR →
    // RTS) and the failed WR is re-posted. The plan only eats wire attempt
    // 0, so the re-post passes and the round completes with full data
    // integrity.
    let faulty = LossyFabric::scripted(InstantFabric::new(), FaultPlan::Indices(vec![0]));
    let mut config = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    config.reliability.retry_cnt = 0;
    config.persistent_qps = 1;
    let world = World::with_fabric(2, config, faulty);
    let (sbuf, rbuf, send, recv) = pair(&world, 8, 64);
    recv.start().unwrap();
    send.start().unwrap();
    for i in 0..8u32 {
        sbuf.fill(i as usize * 64, 64, 0xC0 + i as u8).unwrap();
        send.pready(i).unwrap();
    }
    send.wait().unwrap();
    recv.wait().unwrap();
    assert_eq!(send.error(), None);
    assert_eq!(send.recoveries(), 1, "exactly one recovery cycle");
    assert_eq!(recv.arrived_count(), 8);
    for i in 0..8u32 {
        assert_eq!(
            rbuf.read_vec(i as usize * 64, 64).unwrap(),
            vec![0xC0 + i as u8; 64],
            "partition {i} bytes"
        );
    }
    // Recovery accounting: one injected fault, one error completion, one
    // QP recovery — and a ledger that still balances to zero leaks.
    let snap = world.telemetry_snapshot();
    assert_eq!((snap.wire.dropped, snap.wire.exhausted), (1, 1));
    assert_eq!(snap.qps.iter().map(|q| q.recoveries).sum::<u64>(), 1);
    partix_core::invariants::check(&snap).assert_clean();
}

/// What a wire is handed of one WR: its id, immediate, bytes and flow.
type Submitted = (u64, Option<u32>, u32, u64);

/// A wire that records every job it is handed, then passes it on.
struct Recording {
    inner: Arc<dyn Fabric>,
    jobs: Mutex<Vec<Submitted>>,
}

impl Fabric for Recording {
    fn submit(&self, net: Arc<NetworkState>, job: TransferJob) {
        let seen = (job.wr_id, job.imm, job.total_len, job.flow);
        self.jobs.lock().unwrap().push(seen);
        self.inner.submit(net, job);
    }
}

#[test]
fn a_recovered_wr_is_reposted_with_its_run_and_flow() {
    // As above, traced: the first WR's one wire attempt is dropped, QP
    // recovery re-posts it, and the re-post is the WR that failed — the
    // same id (request and run), immediate, byte count and flow. The round
    // completes once, every partition arriving once.
    for kind in [AggregatorKind::Persistent, AggregatorKind::PLogGp] {
        let scripted = LossyFabric::scripted(InstantFabric::new(), FaultPlan::Indices(vec![0]));
        let wire = Arc::new(Recording {
            inner: scripted,
            jobs: Mutex::default(),
        });
        let mut config = PartixConfig::with_aggregator(kind);
        config.reliability.retry_cnt = 0;
        config.persistent_qps = 1;
        let world = World::with_fabric(2, config, wire.clone());
        let log = FlowLog::new();
        world.enable_flow_tracing(log.clone());
        let (sbuf, rbuf, send, recv) = pair(&world, 8, 64);
        let data: Vec<u8> = (0..8 * 64).map(|b| (b % 239) as u8).collect();
        sbuf.write(0, &data).unwrap();
        recv.start().unwrap();
        send.start().unwrap();
        send.pready_range(0, 8).unwrap();
        send.wait().unwrap();
        recv.wait().unwrap();
        assert_eq!((send.error(), send.recoveries()), (None, 1), "{kind:?}");
        assert_eq!(rbuf.read_vec(0, 8 * 64).unwrap(), data, "{kind:?}");

        let jobs = wire.jobs.lock().unwrap().clone();
        let failed = jobs[0];
        assert_ne!(failed.3, 0, "{kind:?}: the WR is traced");
        let reposts: Vec<_> = jobs[1..].iter().filter(|j| j.3 == failed.3).collect();
        assert_eq!(reposts, [&failed], "{kind:?}: one re-post, the failed WR");

        assert_eq!(send.completed_rounds(), 1, "{kind:?}");
        assert_eq!(recv.completed_rounds(), 1, "{kind:?}");
        let mut covered = [0u32; 8];
        for e in log
            .sorted()
            .iter()
            .filter(|e| e.stage == FlowStage::Arrived)
        {
            let (lo, count) = (e.aux >> 32, e.aux & 0xffff_ffff);
            (lo..lo + count).for_each(|p| covered[p as usize] += 1);
        }
        assert_eq!(covered, [1; 8], "{kind:?}: each partition arrived once");
        partix_core::invariants::check(&world.telemetry_snapshot()).assert_clean();
    }
}

#[test]
fn an_instant_world_honours_the_loss_model() {
    // `PartixConfig::loss` on a wall-clock world: the same seeded chaos as
    // under the simulator, retransmitted at once. The application sees
    // three clean rounds; the wire's counters show what it absorbed.
    let mut config = PartixConfig::with_aggregator(AggregatorKind::Persistent);
    config.loss = Some(LossyConfig::chaos(0.2, 41));
    let world = World::instant(2, config);
    let (sbuf, rbuf, send, recv) = pair(&world, 8, 64);
    for round in 0..3u8 {
        let bytes: Vec<u8> = (0..8 * 64).map(|k| (k as u8) ^ (round * 37)).collect();
        sbuf.write(0, &bytes).unwrap();
        recv.start().unwrap();
        send.start().unwrap();
        send.pready_range(0, 8).unwrap();
        send.wait().unwrap();
        recv.wait().unwrap();
        assert_eq!(rbuf.read_vec(0, 8 * 64).unwrap(), bytes, "round {round}");
    }
    let snap = world.telemetry_snapshot();
    assert!(
        snap.wire.dropped > 0,
        "the loss model never fired (seed 41)"
    );
    assert_eq!(snap.total_completed_error(), 0);
    partix_core::invariants::check(&snap).assert_clean();
}
