//! Property tests over the Verbs wire surface, checked against the
//! telemetry ledger:
//!
//! - MTU segmentation conserves bytes and segments exactly for arbitrary
//!   transfer sizes and MTUs;
//! - PSN duplicate suppression delivers exactly once under arbitrary
//!   seeded drop/duplicate/delay interleavings.
//!
//! Both properties close with `invariants::check_strict` on the telemetry
//! snapshot, so any accounting drift the direct assertions miss still
//! fails the case. The vendored proptest is deterministic (seeded from the
//! test name, no shrinking), so a green run is reproducible.

use partix_sim::Scheduler;
use partix_verbs::{
    connect_pair, invariants, telemetry::segments_for, FabricParams, LossyConfig, LossyFabric,
    Network, Opcode, QpCaps, RecvWr, SendWr, Sge, SimFabric, WcStatus,
};
use proptest::prelude::*;

/// One RDMA-write-with-immediate of `src` into `dst`.
fn write_imm(
    qp: &std::sync::Arc<partix_verbs::QueuePair>,
    src: &partix_verbs::MemoryRegion,
    dst: &partix_verbs::MemoryRegion,
    wr_id: u64,
    len: u32,
) -> partix_verbs::Result<()> {
    qp.post_send(SendWr {
        wr_id,
        opcode: Opcode::RdmaWriteWithImm,
        sg_list: vec![Sge {
            addr: src.addr(),
            length: len,
            lkey: src.lkey(),
        }],
        remote_addr: dst.addr(),
        rkey: dst.rkey(),
        imm: Some(wr_id as u32),
        inline_data: false,
        flow: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Segmentation conservation: for arbitrary transfer sizes and MTUs,
    /// the wire ledger counts exactly `ceil(size / mtu)` segments per
    /// transfer (minimum one — a bare immediate still costs a header) and
    /// every payload byte lands in the destination region exactly once.
    #[test]
    fn mtu_segmentation_conserves_bytes_and_segments(
        mtu in 256usize..=4096,
        sizes in prop::collection::vec(1u32..=16384, 1..8),
    ) {
        let sched = Scheduler::new();
        let params = FabricParams {
            mtu,
            ..FabricParams::default()
        };
        let net = Network::new(2, SimFabric::new(sched.clone(), params));
        let a = net.open(0).unwrap();
        let b = net.open(1).unwrap();
        let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
        let (cqa, cqb) = (a.create_cq(), b.create_cq());
        let qa = a.create_qp(pda, cqa.clone(), a.create_cq(), QpCaps::default()).unwrap();
        let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), QpCaps::default()).unwrap();
        connect_pair(&qa, &qb).unwrap();

        let mut pairs = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let src = a.reg_mr(pda, len as usize).unwrap();
            let dst = b.reg_mr(pdb, len as usize).unwrap();
            src.fill(0, len as usize, (i as u8).wrapping_add(1)).unwrap();
            qb.post_recv(RecvWr::bare(i as u64)).unwrap();
            pairs.push((src, dst));
        }
        for (i, &len) in sizes.iter().enumerate() {
            write_imm(&qa, &pairs[i].0, &pairs[i].1, i as u64, len).unwrap();
        }
        sched.run();

        // Every send completed successfully, every receive fired.
        for i in 0..sizes.len() {
            let wc = cqa.poll_one().unwrap_or_else(|| panic!("send {i} never completed"));
            prop_assert_eq!(wc.status, WcStatus::Success);
            prop_assert!(cqb.poll_one().is_some(), "recv {} never fired", i);
        }
        prop_assert!(cqa.poll_one().is_none(), "phantom send completion");
        prop_assert!(cqb.poll_one().is_none(), "phantom recv completion");

        // Byte round-trip at the destination regions.
        for (i, &len) in sizes.iter().enumerate() {
            let got = pairs[i].1.read_vec(0, len as usize).unwrap();
            prop_assert!(
                got.iter().all(|&x| x == (i as u8).wrapping_add(1)),
                "transfer {} corrupted", i
            );
        }

        let snap = net.state().telemetry_snapshot();
        let want_segments: u64 = sizes.iter().map(|&s| segments_for(s as u64, mtu)).sum();
        let want_bytes: u64 = sizes.iter().map(|&s| s as u64).sum();
        prop_assert_eq!(snap.wire.mtu_segments, want_segments);
        prop_assert_eq!(snap.wire.bytes_delivered, want_bytes);
        prop_assert_eq!(snap.wire.delivered, sizes.len() as u64);
        invariants::check_strict(&snap).assert_clean();
    }

    /// PSN exactly-once: under an arbitrary seeded mix of drops (with
    /// retransmission), injected ghost duplicates, and delays, each logical
    /// send completes successfully exactly once at the sender, consumes
    /// exactly one receive WR, and writes its payload exactly once — and
    /// the wire ledger reconciles the whole mess.
    #[test]
    fn psn_suppression_delivers_exactly_once(
        drop_p in 0.0f64..=0.3,
        dup_p in 0.0f64..=1.0,
        delay_p in 0.0f64..=1.0,
        seed in any::<u64>(),
        k in 1usize..=12,
    ) {
        const LEN: usize = 64;
        let sched = Scheduler::new();
        let cfg = LossyConfig { drop_p, dup_p, delay_p, max_delay_ns: 5_000, seed };
        let inner = SimFabric::new(sched.clone(), FabricParams::default());
        let net = Network::new(2, LossyFabric::simulated(inner, sched.clone(), cfg));
        let a = net.open(0).unwrap();
        let b = net.open(1).unwrap();
        let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
        let (cqa, cqb) = (a.create_cq(), b.create_cq());
        let qa = a.create_qp(pda, cqa.clone(), a.create_cq(), QpCaps::default()).unwrap();
        let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), QpCaps::default()).unwrap();
        connect_pair(&qa, &qb).unwrap();

        let mut pairs = Vec::new();
        for i in 0..k {
            let src = a.reg_mr(pda, LEN).unwrap();
            let dst = b.reg_mr(pdb, LEN).unwrap();
            src.fill(0, LEN, (i as u8).wrapping_add(0xA0)).unwrap();
            qb.post_recv(RecvWr::bare(i as u64)).unwrap();
            pairs.push((src, dst));
        }
        for (i, (src, dst)) in pairs.iter().enumerate() {
            write_imm(&qa, src, dst, i as u64, LEN as u32).unwrap();
        }
        sched.run();

        // Exactly one successful completion per logical send; ghosts and
        // retransmissions never produce extras.
        for i in 0..k {
            let wc = cqa.poll_one().unwrap_or_else(|| panic!("send {i} never completed"));
            prop_assert_eq!(wc.status, WcStatus::Success);
        }
        prop_assert!(cqa.poll_one().is_none(), "duplicate sender completion");
        // Exactly one receive CQE and one consumed recv WR per send.
        prop_assert_eq!(cqb.total_pushed(), k as u64);
        prop_assert_eq!(qb.recv_queue_depth(), 0);
        prop_assert_eq!(qa.outstanding(), 0, "slot leak under retransmission");
        for (i, (_, dst)) in pairs.iter().enumerate() {
            let got = dst.read_vec(0, LEN).unwrap();
            prop_assert!(
                got.iter().all(|&x| x == (i as u8).wrapping_add(0xA0)),
                "transfer {} corrupted", i
            );
        }

        // The retry budget absorbed the loss, and the ledger reconciles.
        let snap = net.state().telemetry_snapshot();
        prop_assert_eq!(snap.total_completed_error(), 0, "retry budget should absorb 30% loss");
        while cqb.poll_one().is_some() {}
        invariants::check_strict(&net.state().telemetry_snapshot()).assert_clean();
    }
}
