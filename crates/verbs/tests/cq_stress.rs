//! Multi-threaded completion-queue stress: concurrent pushers and pollers
//! must neither lose nor duplicate completions, and notify hooks must fire
//! for every push. The receive CQ's hook is a second consumer running on
//! the producers' threads: it takes the completions handed to it whenever
//! it wins its try-lock, and races the progress thread for the rest.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use partix_verbs::{
    connect_pair, Handoff, InstantFabric, Network, Opcode, QpCaps, RecvWr, SendWr, Sge,
    WorkCompletion,
};

/// A receive completion's identity: `wr_id`s repeat across QPs.
fn recv_key(wc: &WorkCompletion) -> u64 {
    (wc.qp_num as u64) << 32 | wc.wr_id
}

#[test]
fn concurrent_senders_one_progress_thread() {
    // 8 sender threads × 200 writes each through one QP pair (send slots
    // recycle synchronously on the instant fabric); a progress thread
    // drains both CQs. Every wr_id must be seen exactly once on each side.
    let net = Network::new(2, InstantFabric::new());
    let a = net.open(0).unwrap();
    let b = net.open(1).unwrap();
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let (cqa, cqb) = (a.create_cq(), b.create_cq());

    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    const TOTAL: usize = THREADS * PER_THREAD;

    // One QP pair per sender thread (post_send is per-QP serialised by the
    // outstanding cap; separate QPs keep the stress realistic).
    let mut pairs = Vec::new();
    for _ in 0..THREADS {
        let qa = a
            .create_qp(pda, cqa.clone(), a.create_cq(), QpCaps::default())
            .unwrap();
        let caps = QpCaps {
            max_recv_wr: (PER_THREAD + 8) as u32,
            ..QpCaps::default()
        };
        let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), caps).unwrap();
        connect_pair(&qa, &qb).unwrap();
        for i in 0..PER_THREAD {
            qb.post_recv(RecvWr::bare((i) as u64)).unwrap();
        }
        pairs.push((qa, qb));
    }
    let src = a.reg_mr(pda, 64).unwrap();
    let dst = b.reg_mr(pdb, 64 * TOTAL).unwrap();

    let seen_send: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let seen_recv: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let done = Arc::new(AtomicU64::new(0));

    let pushed_notify = Arc::new(AtomicUsize::new(0));
    let handed_off = Arc::new(AtomicUsize::new(0));
    let (n2, h2, seen) = (pushed_notify.clone(), handed_off.clone(), seen_recv.clone());
    assert!(cqb
        .set_notify(Arc::new(move |offer: Option<Handoff<'_>>| {
            n2.fetch_add(1, Ordering::Relaxed);
            // `seen_recv` is the consumer's try-lock; losing it drops the
            // hand-off, which queues the entry for the progress thread.
            let Some(offer) = offer else { return };
            let Some(mut set) = seen.try_lock() else {
                return;
            };
            let wc = offer.take();
            h2.fetch_add(1, Ordering::Relaxed);
            assert!(set.insert(recv_key(&wc)), "duplicate recv wc {}", wc.wr_id);
        }))
        .is_ok());

    std::thread::scope(|s| {
        // Progress thread.
        {
            let (seen_send, seen_recv, done) = (seen_send.clone(), seen_recv.clone(), done.clone());
            let (cqa, cqb) = (cqa.clone(), cqb.clone());
            s.spawn(move || {
                let mut buf = Vec::new();
                loop {
                    buf.clear();
                    cqa.poll_cq_into(&mut buf, 64);
                    {
                        let mut set = seen_send.lock();
                        for wc in &buf {
                            assert!(set.insert(wc.wr_id), "duplicate send wc {}", wc.wr_id);
                        }
                    }
                    buf.clear();
                    cqb.poll_cq_into(&mut buf, 64);
                    {
                        let mut set = seen_recv.lock();
                        for wc in &buf {
                            let key = recv_key(wc);
                            assert!(set.insert(key), "duplicate recv wc {key}");
                        }
                    }
                    if done.load(Ordering::Acquire) == THREADS as u64
                        && seen_send.lock().len() == TOTAL
                        && seen_recv.lock().len() == TOTAL
                    {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
        // Sender threads.
        for (t, (qa, _)) in pairs.iter().enumerate() {
            let done = done.clone();
            let src = src.clone();
            let dst = dst.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let wr_id = (t * PER_THREAD + i) as u64;
                    qa.post_send(SendWr {
                        wr_id,
                        opcode: Opcode::RdmaWriteWithImm,
                        sg_list: vec![Sge {
                            addr: src.addr(),
                            length: 64,
                            lkey: src.lkey(),
                        }],
                        remote_addr: dst.addr_at(wr_id as usize * 64),
                        rkey: dst.rkey(),
                        imm: Some(wr_id as u32),
                        inline_data: false,
                        flow: 0,
                    })
                    .unwrap();
                }
                done.fetch_add(1, Ordering::AcqRel);
            });
        }
    });

    assert_eq!(seen_send.lock().len(), TOTAL);
    assert_eq!(seen_recv.lock().len(), TOTAL);
    assert_eq!(pushed_notify.load(Ordering::Relaxed), TOTAL);
    assert!(
        handed_off.load(Ordering::Relaxed) > 0,
        "the hook must consume some completions for the race to bite"
    );
    assert_eq!(cqa.total_pushed(), TOTAL as u64);
    assert_eq!(cqb.total_pushed(), TOTAL as u64);
    assert_eq!(
        cqb.total_polled(),
        TOTAL as u64,
        "hand-offs count as polled"
    );
    assert_eq!((cqa.depth(), cqb.depth()), (0, 0));
}
