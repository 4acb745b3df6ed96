//! End-to-end tests of the verbs stack on both fabrics: connection setup,
//! RDMA-write-with-immediate data movement, completion semantics, hardware
//! limits, and protection errors.

use std::sync::Arc;

use partix_sim::{Scheduler, SimTime};
use partix_verbs::{
    connect_pair, imm, CompletionQueue, Context, FabricParams, InstantFabric, Network, Opcode,
    QpCaps, QpState, QueuePair, RecvWr, SendWr, Sge, SimFabric, VerbsError, WcOpcode, WcStatus,
};

struct Pair {
    _net: Network,
    a: Context,
    b: Context,
    qa: Arc<QueuePair>,
    qb: Arc<QueuePair>,
    cq_a_send: Arc<CompletionQueue>,
    cq_b_recv: Arc<CompletionQueue>,
}

fn setup(net: Network) -> Pair {
    let a = net.open(0).unwrap();
    let b = net.open(1).unwrap();
    let pda = a.alloc_pd();
    let pdb = b.alloc_pd();
    let cq_a_send = a.create_cq();
    let cq_a_recv = a.create_cq();
    let cq_b_send = b.create_cq();
    let cq_b_recv = b.create_cq();
    let qa = a
        .create_qp(pda, cq_a_send.clone(), cq_a_recv, QpCaps::default())
        .unwrap();
    let qb = b
        .create_qp(pdb, cq_b_send, cq_b_recv.clone(), QpCaps::default())
        .unwrap();
    connect_pair(&qa, &qb).unwrap();
    Pair {
        _net: net,
        a,
        b,
        qa,
        qb,
        cq_a_send,
        cq_b_recv,
    }
}

fn instant_pair() -> Pair {
    setup(Network::new(2, InstantFabric::new()))
}

fn sim_pair() -> (Pair, Scheduler) {
    let sched = Scheduler::new();
    let fabric = SimFabric::new(sched.clone(), FabricParams::default());
    (setup(Network::new(2, fabric)), sched)
}

fn write_with_imm(
    pair: &Pair,
    src_data: &[u8],
    imm_val: u32,
) -> (partix_verbs::MemoryRegion, partix_verbs::MemoryRegion) {
    let pda = pair.a.alloc_pd();
    let pdb = pair.b.alloc_pd();
    // QPs were created under earlier PDs; register under the QP's PD instead.
    let _ = (pda, pdb);
    let src = pair
        .a
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qa.pd_id(),
                node: 0,
            },
            src_data.len(),
        )
        .unwrap();
    let dst = pair
        .b
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qb.pd_id(),
                node: 1,
            },
            src_data.len(),
        )
        .unwrap();
    src.write(0, src_data).unwrap();
    pair.qb.post_recv(RecvWr::bare(77)).unwrap();
    pair.qa
        .post_send(SendWr {
            wr_id: 42,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: src_data.len() as u32,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: Some(imm_val),
            inline_data: false,
            flow: 0,
        })
        .unwrap();
    (src, dst)
}

#[test]
fn instant_write_with_imm_moves_data_and_completes_both_sides() {
    let pair = instant_pair();
    let payload: Vec<u8> = (0..=255u8).collect();
    let (_src, dst) = write_with_imm(&pair, &payload, imm::encode(3, 9));

    // Data landed.
    assert_eq!(dst.read_vec(0, 256).unwrap(), payload);

    // Receive completion with immediate.
    let wc = pair.cq_b_recv.poll_one().expect("recv completion");
    assert_eq!(wc.wr_id, 77);
    assert_eq!(wc.status, WcStatus::Success);
    assert_eq!(wc.opcode, WcOpcode::RecvRdmaWithImm);
    assert_eq!(wc.byte_len, 256);
    assert_eq!(imm::decode(wc.imm.unwrap()), (3, 9));

    // Send completion.
    let wc = pair.cq_a_send.poll_one().expect("send completion");
    assert_eq!(wc.wr_id, 42);
    assert_eq!(wc.status, WcStatus::Success);
    assert_eq!(pair.qa.outstanding(), 0);
}

#[test]
fn sim_write_with_imm_takes_modelled_time() {
    let (pair, sched) = sim_pair();
    let payload = vec![0xABu8; 1 << 20]; // 1 MiB
    let (_src, dst) = write_with_imm(&pair, &payload, imm::encode(0, 1));

    // Nothing happens until the simulation runs.
    assert!(pair.cq_b_recv.poll_one().is_none());
    assert_eq!(dst.read_vec(0, 16).unwrap(), vec![0u8; 16]);

    sched.run();

    assert_eq!(dst.read_vec(0, 1 << 20).unwrap(), payload);
    assert!(pair.cq_b_recv.poll_one().is_some());
    assert!(pair.cq_a_send.poll_one().is_some());

    // 1 MiB at ~6.9 GB/s single-QP (= 11.5 GB/s * 0.6) is ~152 us; the clock
    // must have advanced at least the pure link time and less than 10x it.
    let t = sched.now();
    let link_time_ns = (1u64 << 20) as f64 * FabricParams::default().link_g();
    assert!(t > SimTime(link_time_ns as u64), "too fast: {t}");
    assert!(t < SimTime((10.0 * link_time_ns) as u64), "too slow: {t}");
}

#[test]
fn sim_multiple_qps_increase_bandwidth() {
    // Send 8 x 1 MiB over 1 QP vs over 8 QPs: the 8-QP run must finish
    // faster (per-QP engine limits a single QP below link rate).
    fn run(qp_count: usize) -> u64 {
        let sched = Scheduler::new();
        let fabric = SimFabric::new(sched.clone(), FabricParams::default());
        let net = Network::new(2, fabric);
        let a = net.open(0).unwrap();
        let b = net.open(1).unwrap();
        let pda = a.alloc_pd();
        let pdb = b.alloc_pd();
        let cqa = a.create_cq();
        let cqb = b.create_cq();
        let mut qps = Vec::new();
        for _ in 0..qp_count {
            let qa = a
                .create_qp(pda, cqa.clone(), a.create_cq(), QpCaps::default())
                .unwrap();
            let qb = b
                .create_qp(pdb, b.create_cq(), cqb.clone(), QpCaps::default())
                .unwrap();
            connect_pair(&qa, &qb).unwrap();
            qps.push((qa, qb));
        }
        let chunk = 1 << 20;
        let src = a.reg_mr(pda, 8 * chunk).unwrap();
        let dst = b.reg_mr(pdb, 8 * chunk).unwrap();
        for i in 0..8 {
            let (qa, qb) = &qps[i % qp_count];
            qb.post_recv(RecvWr::bare(i as u64)).unwrap();
            qa.post_send(SendWr {
                wr_id: i as u64,
                opcode: Opcode::RdmaWriteWithImm,
                sg_list: vec![Sge {
                    addr: src.addr_at(i * chunk),
                    length: chunk as u32,
                    lkey: src.lkey(),
                }],
                remote_addr: dst.addr_at(i * chunk),
                rkey: dst.rkey(),
                imm: Some(0),
                inline_data: false,
                flow: 0,
            })
            .unwrap();
        }
        sched.run();
        assert_eq!(cqb.total_pushed(), 8);
        sched.now().as_nanos()
    }
    let one = run(1);
    let eight = run(8);
    assert!(
        eight * 5 < one * 4,
        "8 QPs ({eight} ns) should beat 1 QP ({one} ns) by >20%"
    );
}

#[test]
fn send_queue_cap_enforced() {
    let (pair, _sched) = sim_pair();
    let src = pair
        .a
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qa.pd_id(),
                node: 0,
            },
            4096,
        )
        .unwrap();
    let dst = pair
        .b
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qb.pd_id(),
                node: 1,
            },
            4096,
        )
        .unwrap();
    let wr = |i: u64| SendWr {
        wr_id: i,
        opcode: Opcode::RdmaWrite,
        sg_list: vec![Sge {
            addr: src.addr(),
            length: 64,
            lkey: src.lkey(),
        }],
        remote_addr: dst.addr(),
        rkey: dst.rkey(),
        imm: None,
        inline_data: false,
        flow: 0,
    };
    // The paper's hardware takes 16 concurrent RDMA WRs per QP.
    for i in 0..16 {
        pair.qa.post_send(wr(i)).unwrap();
    }
    assert_eq!(
        pair.qa.post_send(wr(16)),
        Err(VerbsError::SendQueueFull {
            max_outstanding: 16
        })
    );
    assert_eq!(pair.qa.outstanding(), 16);
}

#[test]
fn send_slots_recycle_after_completion() {
    let pair = instant_pair();
    let src = pair
        .a
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qa.pd_id(),
                node: 0,
            },
            64,
        )
        .unwrap();
    let dst = pair
        .b
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qb.pd_id(),
                node: 1,
            },
            64,
        )
        .unwrap();
    // Instant fabric completes synchronously, so far more than 16 sequential
    // posts must succeed.
    for i in 0..100u64 {
        pair.qa
            .post_send(SendWr {
                wr_id: i,
                opcode: Opcode::RdmaWrite,
                sg_list: vec![Sge {
                    addr: src.addr(),
                    length: 64,
                    lkey: src.lkey(),
                }],
                remote_addr: dst.addr(),
                rkey: dst.rkey(),
                imm: None,
                inline_data: false,
                flow: 0,
            })
            .unwrap();
    }
    assert_eq!(pair.qa.outstanding(), 0);
    assert_eq!(pair.qa.total_posted_sends(), 100);
}

#[test]
fn rdma_write_without_recv_wr_is_rnr() {
    let pair = instant_pair();
    let src = pair
        .a
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qa.pd_id(),
                node: 0,
            },
            64,
        )
        .unwrap();
    let dst = pair
        .b
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qb.pd_id(),
                node: 1,
            },
            64,
        )
        .unwrap();
    // No post_recv on the B side.
    pair.qa
        .post_send(SendWr {
            wr_id: 1,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: 64,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: Some(0),
            inline_data: false,
            flow: 0,
        })
        .unwrap();
    let wc = pair.cq_a_send.poll_one().unwrap();
    assert_eq!(wc.status, WcStatus::RnrRetryExceeded);
    // The QP entered the error state, as real hardware would.
    assert_eq!(pair.qa.state(), QpState::Error);
    // RNR failure had no data side effects.
    assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0u8; 64]);
}

#[test]
fn wrong_rkey_is_remote_access_error() {
    let pair = instant_pair();
    let src = pair
        .a
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qa.pd_id(),
                node: 0,
            },
            64,
        )
        .unwrap();
    let dst = pair
        .b
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qb.pd_id(),
                node: 1,
            },
            64,
        )
        .unwrap();
    pair.qb.post_recv(RecvWr::bare(0)).unwrap();
    pair.qa
        .post_send(SendWr {
            wr_id: 1,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: 64,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey() ^ 0xdead,
            imm: Some(0),
            inline_data: false,
            flow: 0,
        })
        .unwrap();
    let wc = pair.cq_a_send.poll_one().unwrap();
    assert_eq!(wc.status, WcStatus::RemoteAccessError);
    assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0u8; 64]);
    // Receive WR must not have been consumed by the failed write.
    assert_eq!(pair.qb.recv_queue_depth(), 1);
}

#[test]
fn post_send_requires_rts() {
    let net = Network::new(2, InstantFabric::new());
    let a = net.open(0).unwrap();
    let pd = a.alloc_pd();
    let cq = a.create_cq();
    let qp = a.create_qp(pd, cq.clone(), cq, QpCaps::default()).unwrap();
    let mr = a.reg_mr(pd, 64).unwrap();
    let wr = SendWr {
        wr_id: 0,
        opcode: Opcode::RdmaWrite,
        sg_list: vec![Sge {
            addr: mr.addr(),
            length: 8,
            lkey: mr.lkey(),
        }],
        remote_addr: 0,
        rkey: 0,
        imm: None,
        inline_data: false,
        flow: 0,
    };
    assert!(matches!(
        qp.post_send(wr),
        Err(VerbsError::InvalidQpState { .. })
    ));
}

#[test]
fn gather_list_concatenates_segments() {
    let pair = instant_pair();
    let src = pair
        .a
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qa.pd_id(),
                node: 0,
            },
            256,
        )
        .unwrap();
    let dst = pair
        .b
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qb.pd_id(),
                node: 1,
            },
            64,
        )
        .unwrap();
    src.write(0, &[1u8; 16]).unwrap();
    src.write(100, &[2u8; 16]).unwrap();
    src.write(200, &[3u8; 16]).unwrap();
    pair.qb.post_recv(RecvWr::bare(0)).unwrap();
    pair.qa
        .post_send(SendWr {
            wr_id: 0,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![
                Sge {
                    addr: src.addr_at(0),
                    length: 16,
                    lkey: src.lkey(),
                },
                Sge {
                    addr: src.addr_at(100),
                    length: 16,
                    lkey: src.lkey(),
                },
                Sge {
                    addr: src.addr_at(200),
                    length: 16,
                    lkey: src.lkey(),
                },
            ],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: Some(0),
            inline_data: false,
            flow: 0,
        })
        .unwrap();
    let mut expected = vec![1u8; 16];
    expected.extend_from_slice(&[2u8; 16]);
    expected.extend_from_slice(&[3u8; 16]);
    assert_eq!(dst.read_vec(0, 48).unwrap(), expected);
    assert_eq!(pair.cq_b_recv.poll_one().unwrap().byte_len, 48);
}

#[test]
fn sim_fabric_counts_traffic() {
    let sched = Scheduler::new();
    let net = Network::new(2, SimFabric::new(sched.clone(), FabricParams::default()));
    let pair = setup(net.clone());
    let payload = vec![7u8; 4096];
    write_with_imm(&pair, &payload, 0);
    sched.run();
    let wire = net.state().telemetry_snapshot().wire;
    assert_eq!((wire.inner_submissions, wire.bytes_delivered), (1, 4096));
    assert!(sched.events_executed() >= 2);
}

#[test]
fn pd_mismatch_rejected() {
    let pair = instant_pair();
    // Register under a *different* PD than the QP's.
    let other_pd = pair.a.alloc_pd();
    let src = pair.a.reg_mr(other_pd, 64).unwrap();
    let dst = pair
        .b
        .reg_mr(
            partix_verbs::ProtectionDomain {
                id: pair.qb.pd_id(),
                node: 1,
            },
            64,
        )
        .unwrap();
    let err = pair
        .qa
        .post_send(SendWr {
            wr_id: 0,
            opcode: Opcode::RdmaWrite,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: 8,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: None,
            inline_data: false,
            flow: 0,
        })
        .unwrap_err();
    assert_eq!(err, VerbsError::ProtectionDomainMismatch);
}

fn two_nodes(net: &Network) -> (partix_verbs::Context, partix_verbs::Context) {
    (net.open(0).unwrap(), net.open(1).unwrap())
}

#[test]
fn inline_send_snapshots_payload_at_post_time() {
    let net = Network::new(2, InstantFabric::new());
    let (a, b) = two_nodes(&net);
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let (cqa, cqb) = (a.create_cq(), b.create_cq());
    let qa = a
        .create_qp(pda, cqa.clone(), a.create_cq(), QpCaps::default())
        .unwrap();
    let qb = b
        .create_qp(pdb, b.create_cq(), cqb.clone(), QpCaps::default())
        .unwrap();
    connect_pair(&qa, &qb).unwrap();
    let src = a.reg_mr(pda, 64).unwrap();
    let dst = b.reg_mr(pdb, 64).unwrap();
    src.fill(0, 64, 0x11).unwrap();

    // Use the sim fabric semantics? Instant delivers at post, so to observe
    // the snapshot we use the SimFabric: post, then scribble over the
    // source, then run the clock.
    let sched = Scheduler::new();
    let sim = SimFabric::new(sched.clone(), FabricParams::default());
    let net2 = Network::new(2, sim);
    let (a2, b2) = two_nodes(&net2);
    let (pda2, pdb2) = (a2.alloc_pd(), b2.alloc_pd());
    let (cqa2, cqb2) = (a2.create_cq(), b2.create_cq());
    let qa2 = a2
        .create_qp(pda2, cqa2.clone(), a2.create_cq(), QpCaps::default())
        .unwrap();
    let qb2 = b2
        .create_qp(pdb2, b2.create_cq(), cqb2.clone(), QpCaps::default())
        .unwrap();
    connect_pair(&qa2, &qb2).unwrap();
    let src2 = a2.reg_mr(pda2, 64).unwrap();
    let dst2 = b2.reg_mr(pdb2, 64).unwrap();
    src2.fill(0, 64, 0x22).unwrap();
    qb2.post_recv(RecvWr::bare(0)).unwrap();
    qa2.post_send(SendWr {
        wr_id: 1,
        opcode: Opcode::RdmaWriteWithImm,
        sg_list: vec![Sge {
            addr: src2.addr(),
            length: 64,
            lkey: src2.lkey(),
        }],
        remote_addr: dst2.addr(),
        rkey: dst2.rkey(),
        imm: Some(0),
        inline_data: true,
        flow: 0,
    })
    .unwrap();
    // Scribble before the simulated wire delivers: the receiver must still
    // see the snapshot.
    src2.fill(0, 64, 0xEE).unwrap();
    sched.run();
    assert_eq!(dst2.read_vec(0, 64).unwrap(), vec![0x22; 64]);

    // Contrast: a non-inline post gathers at delivery and sees the scribble.
    qb2.post_recv(RecvWr::bare(1)).unwrap();
    qa2.post_send(SendWr {
        wr_id: 2,
        opcode: Opcode::RdmaWriteWithImm,
        sg_list: vec![Sge {
            addr: src2.addr(),
            length: 64,
            lkey: src2.lkey(),
        }],
        remote_addr: dst2.addr(),
        rkey: dst2.rkey(),
        imm: Some(0),
        inline_data: false,
        flow: 0,
    })
    .unwrap();
    src2.fill(0, 64, 0x99).unwrap();
    sched.run();
    assert_eq!(dst2.read_vec(0, 64).unwrap(), vec![0x99; 64]);

    // And the cap is enforced.
    let big = a.reg_mr(pda, 1024).unwrap();
    let err = qa
        .post_send(SendWr {
            wr_id: 3,
            opcode: Opcode::RdmaWrite,
            sg_list: vec![Sge {
                addr: big.addr(),
                length: 1024,
                lkey: big.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: None,
            inline_data: true,
            flow: 0,
        })
        .unwrap_err();
    assert_eq!(
        err,
        VerbsError::InlineTooLarge {
            got: 1024,
            max: 220
        }
    );
    let _ = (cqb, src);
}
