//! Regression pins for the 16-outstanding-WR-per-QP cap (the ConnectX-5
//! class limit the paper designs around): the cap rejects the 17th post
//! without mis-counting it, retransmission recycles slots rather than
//! leaking or double-counting them, ghost duplicates never double-release,
//! and error/recovery cycles return the slot count to zero.

use partix_sim::Scheduler;
use partix_verbs::{
    connect_pair, invariants, FabricParams, FaultPlan, InstantFabric, LossyConfig, LossyFabric,
    Network, Opcode, QpCaps, QpState, RecvWr, SendWr, Sge, SimFabric, VerbsError, WcStatus,
};

const LEN: usize = 64;

struct Pair {
    net: Network,
    qa: std::sync::Arc<partix_verbs::QueuePair>,
    qb: std::sync::Arc<partix_verbs::QueuePair>,
    cqa: std::sync::Arc<partix_verbs::CompletionQueue>,
    src: partix_verbs::MemoryRegion,
    dst: partix_verbs::MemoryRegion,
}

/// Two connected nodes over `fabric`, with one `LEN`-byte region per side.
fn pair(fabric: std::sync::Arc<dyn partix_verbs::Fabric>) -> Pair {
    pair_with(fabric, QpCaps::default())
}

fn pair_with(fabric: std::sync::Arc<dyn partix_verbs::Fabric>, caps: QpCaps) -> Pair {
    let net = Network::new(2, fabric);
    let a = net.open(0).unwrap();
    let b = net.open(1).unwrap();
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let (cqa, cqb) = (a.create_cq(), b.create_cq());
    let qa = a.create_qp(pda, cqa.clone(), a.create_cq(), caps).unwrap();
    let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), caps).unwrap();
    connect_pair(&qa, &qb).unwrap();
    let src = a.reg_mr(pda, LEN).unwrap();
    let dst = b.reg_mr(pdb, LEN).unwrap();
    src.fill(0, LEN, 0x77).unwrap();
    Pair {
        net,
        qa,
        qb,
        cqa,
        src,
        dst,
    }
}

impl Pair {
    fn post(&self, wr_id: u64) -> partix_verbs::Result<()> {
        self.qa.post_send(SendWr {
            wr_id,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: self.src.addr(),
                length: LEN as u32,
                lkey: self.src.lkey(),
            }],
            remote_addr: self.dst.addr(),
            rkey: self.dst.rkey(),
            imm: Some(wr_id as u32),
            inline_data: false,
            flow: 0,
        })
    }
}

/// The 17th concurrent post is rejected with the cap in the error, claims
/// no slot, and is not counted as accepted work in the ledger.
#[test]
fn seventeenth_post_is_rejected_without_miscounting() {
    // A SimFabric without running the scheduler: completions stay pending,
    // so posted WRs pile up against the cap.
    let sched = Scheduler::new();
    let p = pair(SimFabric::new(sched.clone(), FabricParams::default()));
    for i in 0..16 {
        p.qb.post_recv(RecvWr::bare(i)).unwrap();
    }
    for i in 0..16u64 {
        p.post(i)
            .unwrap_or_else(|e| panic!("post {i} within cap: {e}"));
    }
    assert_eq!(p.qa.outstanding(), 16, "cap exactly filled");
    assert_eq!(
        p.post(16),
        Err(VerbsError::SendQueueFull {
            max_outstanding: 16
        })
    );
    assert_eq!(
        p.qa.outstanding(),
        16,
        "rejected post must not claim a slot"
    );
    {
        let snap = p.net.state().telemetry_snapshot();
        let qp = snap.qps.iter().find(|q| q.qp_num == p.qa.qp_num()).unwrap();
        assert_eq!(qp.send_posted, 16, "rejected post counted as accepted");
        assert_eq!(qp.outstanding, 16, "snapshot sees the live slot count");
    }

    // Draining the wire frees every slot; the queue is fully reusable.
    sched.run();
    assert_eq!(p.qa.outstanding(), 0);
    for _ in 0..16 {
        assert_eq!(p.cqa.poll_one().unwrap().status, WcStatus::Success);
    }
    p.qb.post_recv(RecvWr::bare(16)).unwrap();
    p.post(17).unwrap();
    sched.run();
    assert_eq!(p.cqa.poll_one().unwrap().status, WcStatus::Success);
    invariants::check(&p.net.state().telemetry_snapshot()).assert_clean();
}

/// Retransmission must not double-count slots: a WR that is dropped and
/// retried N times holds exactly one slot the whole time, and releases
/// exactly once on its final completion.
#[test]
fn retransmission_holds_one_slot_per_wr() {
    let sched = Scheduler::new();
    let inner = SimFabric::new(sched.clone(), FabricParams::default());
    let lossy = LossyFabric::simulated(inner, sched.clone(), LossyConfig::drops(0.4, 11));
    let p = pair(lossy.clone());
    for i in 0..16 {
        p.qb.post_recv(RecvWr::bare(i)).unwrap();
    }
    // Fill the cap exactly; every slot must survive its own retry chain.
    for i in 0..16u64 {
        p.post(i).unwrap();
    }
    assert_eq!(p.qa.outstanding(), 16);
    sched.run();
    assert!(lossy.dropped() > 0, "the loss model never fired (seed 11)");
    assert_eq!(lossy.exhausted(), 0);
    for i in 0..16 {
        let wc = p.cqa.poll_one().unwrap_or_else(|| panic!("wr {i} lost"));
        assert_eq!(wc.status, WcStatus::Success);
    }
    assert_eq!(
        p.qa.outstanding(),
        0,
        "retransmits leaked {} slots",
        p.qa.outstanding()
    );
    let snap = p.net.state().telemetry_snapshot();
    let qp = snap.qps.iter().find(|q| q.qp_num == p.qa.qp_num()).unwrap();
    assert_eq!(qp.send_posted, 16);
    assert_eq!(qp.completed_success, 16);
    assert_eq!(qp.slot_underflows, 0, "a slot was released twice");
    assert_eq!(snap.wire.retransmits, lossy.retransmits());
    invariants::check(&snap).assert_clean();
}

/// Ghost duplicates share the original's slot accounting: with every
/// transfer duplicated, the sender still sees exactly one completion and
/// one slot release per logical WR.
#[test]
fn ghost_duplicates_never_double_release() {
    let cfg = LossyConfig {
        dup_p: 1.0,
        ..LossyConfig::default()
    };
    let lossy = LossyFabric::new(InstantFabric::new(), cfg);
    let p = pair(lossy.clone());
    for i in 0..8 {
        p.qb.post_recv(RecvWr::bare(i)).unwrap();
    }
    for i in 0..8u64 {
        p.post(i).unwrap();
        assert_eq!(p.cqa.poll_one().unwrap().status, WcStatus::Success);
    }
    assert_eq!(lossy.duplicated(), 8);
    assert_eq!(p.qa.outstanding(), 0);
    let snap = p.net.state().telemetry_snapshot();
    let qp = snap.qps.iter().find(|q| q.qp_num == p.qa.qp_num()).unwrap();
    assert_eq!(qp.completed_success, 8, "ghosts must not complete");
    assert_eq!(qp.slot_underflows, 0, "ghost completion released a slot");
    assert_eq!(snap.wire.duplicates_suppressed, 8);
    invariants::check(&snap).assert_clean();
}

/// An error completion releases its slot exactly once, and a full
/// Error → RESET → INIT → RTR → RTS recovery starts from a clean zero —
/// no leaked slot shrinks the usable queue afterwards.
#[test]
fn recovery_restores_a_full_send_queue() {
    // No transport retries, so the scripted drop of attempt 0 is an error.
    let faulty = LossyFabric::scripted(InstantFabric::new(), FaultPlan::Indices(vec![0]));
    let caps = QpCaps {
        retry_cnt: 0,
        ..QpCaps::default()
    };
    let p = pair_with(faulty.clone(), caps);
    for i in 0..17 {
        p.qb.post_recv(RecvWr::bare(i)).unwrap();
    }
    // First WR is eaten: error completion, QP dead, slot released.
    p.post(0).unwrap();
    let wc = p.cqa.poll_one().unwrap();
    assert_eq!(wc.status, WcStatus::RetryExceeded);
    assert_eq!(p.qa.state(), QpState::Error);
    assert_eq!(p.qa.outstanding(), 0, "error completion leaked its slot");

    // Recover through the only legal path and prove all 16 slots exist by
    // filling the cap again.
    p.qa.modify(QpState::Reset).unwrap();
    p.qa.modify(QpState::Init).unwrap();
    p.qa.modify_to_rtr(partix_verbs::PeerId {
        node: p.qb.node(),
        qp_num: p.qb.qp_num(),
    })
    .unwrap();
    p.qa.modify_to_rts().unwrap();
    for i in 1..17u64 {
        p.post(i)
            .unwrap_or_else(|e| panic!("slot leaked across recovery: {e}"));
        assert_eq!(p.cqa.poll_one().unwrap().status, WcStatus::Success);
    }
    assert_eq!(p.qa.outstanding(), 0);
    let snap = p.net.state().telemetry_snapshot();
    let qp = snap.qps.iter().find(|q| q.qp_num == p.qa.qp_num()).unwrap();
    assert_eq!(qp.send_posted, 17);
    assert_eq!(qp.completed_success, 16);
    assert_eq!(qp.completed_error, 1);
    assert_eq!(qp.slot_underflows, 0);
    invariants::check(&snap).assert_clean();
    assert_eq!((faulty.dropped(), faulty.exhausted()), (1, 1));
}
