//! Backend-agnostic conformance harness.
//!
//! Every [`Fabric`] backend must present the *same observable verbs
//! semantics*: identical payload bytes at the destination, identical CQE
//! opcode/WR-id/status sequences, and a clean telemetry ledger — whatever
//! its execution substrate (virtual clock, synchronous call, decorated
//! chaos, or real threads over shared-memory rings, in-process or mapped
//! from files).
//!
//! The harness encodes that contract as a table of scenario programs
//! ([`scenarios`]). Each scenario runs against every [`BackendKind`] and
//! returns a **digest**: a list of stable text lines capturing only facts
//! that must be backend-invariant (payload hashes, sorted CQE tuples,
//! deterministic ledger counters, QP states). [`assert_uniform`] runs one
//! scenario across the whole matrix and fails with a line diff if any
//! backend disagrees with the first; every scenario also checks the
//! telemetry invariant laws on its own backend before returning.
//!
//! Timing facts (latencies, retransmission instants, RNR wait counts under
//! racy schedules) are deliberately *not* digest material: scenarios are
//! written to drive traffic sequentially or with drive/retry loops so the
//! externally visible record is schedule-independent. Chaos scenarios
//! inject faults through a seeded [`LossyFabric`] decorator wrapped
//! uniformly around every backend, so the fault draw sequence is identical
//! across the matrix.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use partix_sim::Scheduler;

use crate::cq::CompletionQueue;
use crate::fabric::{Fabric, PostOptions, TransferJob};
use crate::fabric_instant::InstantFabric;
use crate::fabric_lossy::{LossyConfig, LossyFabric};
use crate::fabric_sim::{FabricParams, SimFabric};
use crate::memory::MemoryRegion;
use crate::network::{connect_pair, Context, Network, NetworkState, ProtectionDomain};
use crate::qp::{QpCaps, QueuePair};
use crate::shm::{FileMapping, ShmConfig, ShmFabric};
use crate::types::{imm, NodeId, Opcode, QpState, RecvWr, SendWr, Sge, WcStatus, WorkCompletion};
use crate::VerbsError;
use partix_telemetry::{invariants, FlowLog, FlowStage};

/// The execution substrates under conformance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// LogGP-priced virtual-clock DES fabric.
    Sim,
    /// The same DES fabric on the **sharded PDES executor** (one shard per
    /// node, two worker threads): conformance for the parallel engine the
    /// figure/chaos pipelines run on at `--jobs N`.
    SimSharded,
    /// Synchronous zero-latency fabric.
    Instant,
    /// Seeded chaos decorator over the instant fabric (pass-through
    /// configuration when the scenario itself is clean).
    Lossy,
    /// Real-time shared-memory fabric (loopback rings, progressed by the
    /// polls, and only by them).
    Shm,
    /// The same fabric deployed as two processes would deploy it: one
    /// [`ShmFabric::host`] per node over mapped file segments in a shared
    /// directory, channels opened with the `open_tx`/`open_rx` handshake.
    ShmFile,
}

/// Every backend in the matrix, in canonical order.
pub const ALL_BACKENDS: [BackendKind; 6] = [
    BackendKind::Sim,
    BackendKind::SimSharded,
    BackendKind::Instant,
    BackendKind::Lossy,
    BackendKind::Shm,
    BackendKind::ShmFile,
];

impl BackendKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::SimSharded => "sim-sharded",
            BackendKind::Instant => "instant",
            BackendKind::Lossy => "lossy",
            BackendKind::Shm => "shm",
            BackendKind::ShmFile => "shm-file",
        }
    }
}

/// One connected endpoint of a test bed: context, PD, QP and its CQs.
pub struct Endpoint {
    /// Device context for this node.
    pub ctx: Context,
    /// Protection domain the QP and all MRs live in.
    pub pd: ProtectionDomain,
    /// The connected queue pair.
    pub qp: Arc<QueuePair>,
    /// Send-side completion queue.
    pub send_cq: Arc<CompletionQueue>,
    /// Receive-side completion queue.
    pub recv_cq: Arc<CompletionQueue>,
}

impl Endpoint {
    /// Register a fresh `len`-byte region in this endpoint's PD.
    pub fn mr(&self, len: usize) -> MemoryRegion {
        self.ctx.reg_mr(self.pd, len).expect("register region")
    }
}

/// A two-node network over one backend, with enough handles to drive the
/// substrate to quiescence.
pub struct Bed {
    /// Which substrate this bed runs on.
    pub kind: BackendKind,
    /// The network under test.
    pub net: Network,
    sched: Option<Scheduler>,
    /// The real-time fabrics to quiesce and shut down: one in loopback,
    /// one per node over file segments.
    shm: Vec<Arc<ShmFabric>>,
    /// The file-backed arm's segment directory, removed on drop.
    shm_dir: Option<PathBuf>,
}

/// Routes each job to the [`ShmFabric`] of the node that posted it — what
/// having one process per node does in a real deployment.
pub(crate) struct PerNode(pub(crate) [Arc<ShmFabric>; 2]);

impl Fabric for PerNode {
    fn submit(&self, net: Arc<NetworkState>, job: TransferJob) {
        self.0[job.src_node as usize].submit(net, job);
    }

    fn region_storage(
        &self,
        node: NodeId,
        lkey: u32,
        len: usize,
    ) -> std::io::Result<Option<Arc<FileMapping>>> {
        self.0[node as usize].region_storage(node, lkey, len)
    }

    /// A CQ does not say whose node it is, so a poll drives both fabrics,
    /// as each process would drive its own.
    fn progress(&self) -> bool {
        self.0.iter().fold(false, |any, f| f.progress() | any)
    }
}

impl Bed {
    /// A clean bed on `kind`.
    pub fn new(kind: BackendKind) -> Self {
        Self::build(kind, None)
    }

    /// A bed whose fabric is wrapped in a seeded [`LossyFabric`] chaos
    /// decorator — the *same* decorator for every backend, so the fault
    /// draw sequence is matrix-uniform.
    pub fn chaotic(kind: BackendKind, chaos: LossyConfig) -> Self {
        Self::build(kind, Some(chaos))
    }

    fn build(kind: BackendKind, chaos: Option<LossyConfig>) -> Self {
        let mut sched = None;
        let mut shm = Vec::new();
        let mut shm_dir = None;
        let shm_cfg = ShmConfig {
            // Small enough that long scenarios lap the physical ring several
            // times (a doorbell is 96 bytes); large enough for a window of
            // the biggest scenario records, inline ones, which wait on the
            // ring while their receiver is not ready.
            ring_capacity: 1 << 14,
            ..ShmConfig::default()
        };
        let base: Arc<dyn Fabric> = match kind {
            BackendKind::Sim => {
                let s = Scheduler::new();
                sched = Some(s.clone());
                SimFabric::new(s, FabricParams::default())
            }
            BackendKind::SimSharded => {
                // Two nodes → two shards; lookahead is the fabric's LogGP
                // wire latency, exactly as the full-stack worlds set it.
                let params = FabricParams::default();
                let lookahead = partix_sim::SimDuration::from_nanos_f64(params.loggp.l);
                let s = Scheduler::sharded(2, lookahead, 2);
                sched = Some(s.clone());
                SimFabric::new(s, params)
            }
            BackendKind::Instant => InstantFabric::new(),
            BackendKind::Lossy => {
                // The lossy backend *is* the decorator; in clean scenarios
                // its default config never fires and it must behave as a
                // transparent pass-through.
                LossyFabric::new(InstantFabric::new(), LossyConfig::default())
            }
            BackendKind::Shm => {
                let f = ShmFabric::loopback_with(shm_cfg);
                shm.push(f.clone());
                f
            }
            BackendKind::ShmFile => {
                // Scenarios run in parallel test threads: a directory each.
                static BEDS: AtomicU64 = AtomicU64::new(0);
                let dir = std::env::temp_dir().join(format!(
                    "partix_conformance_{}_{}",
                    std::process::id(),
                    BEDS.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).expect("create shm segment dir");
                let hosts = [0, 1].map(|_| ShmFabric::host(&dir, shm_cfg));
                shm.extend(hosts.iter().cloned());
                shm_dir = Some(dir);
                Arc::new(PerNode(hosts))
            }
        };
        let fabric: Arc<dyn Fabric> = match chaos {
            Some(cfg) => LossyFabric::new(base, cfg),
            None => base,
        };
        let net = Network::new(2, fabric);
        for f in &shm {
            // A host fabric must know its delivery target before a record
            // can arrive (loopback would learn it on its first submit). Both
            // nodes' state lives in this process, so both host fabrics
            // deliver into, and stamp the ledger of, the one network.
            f.attach_network(net.state());
        }
        Bed {
            kind,
            net,
            sched,
            shm,
            shm_dir,
        }
    }

    /// A connected QP pair (node 0 ↔ node 1) with default caps.
    pub fn pair(&self) -> (Endpoint, Endpoint) {
        self.pair_with(QpCaps::default())
    }

    /// A connected QP pair with explicit caps.
    pub fn pair_with(&self, caps: QpCaps) -> (Endpoint, Endpoint) {
        let a = self.net.open(0).expect("node 0");
        let b = self.net.open(1).expect("node 1");
        let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
        let (send_a, recv_a) = (a.create_cq(), a.create_cq());
        let (send_b, recv_b) = (b.create_cq(), b.create_cq());
        let qa = a
            .create_qp(pda, send_a.clone(), recv_a.clone(), caps)
            .expect("qp a");
        let qb = b
            .create_qp(pdb, send_b.clone(), recv_b.clone(), caps)
            .expect("qp b");
        connect_pair(&qa, &qb).expect("connect");
        if let (BackendKind::ShmFile, [f0, f1]) = (self.kind, self.shm.as_slice()) {
            // Host mode opens each directed channel explicitly; `open_tx`
            // blocks until the peer's `open_rx` attaches, so the two nodes
            // run their halves side by side.
            let (a, b) = ((0, qa.qp_num()), (1, qb.qp_num()));
            let wait = Duration::from_secs(30);
            std::thread::scope(|s| {
                s.spawn(|| {
                    f0.open_tx(a, b, wait).expect("open a→b on node 0");
                    f0.open_rx(b, a, wait).expect("open b→a on node 0");
                });
                f1.open_rx(a, b, wait).expect("open a→b on node 1");
                f1.open_tx(b, a, wait).expect("open b→a on node 1");
            });
        }
        (
            Endpoint {
                ctx: a,
                pd: pda,
                qp: qa,
                send_cq: send_a,
                recv_cq: recv_a,
            },
            Endpoint {
                ctx: b,
                pd: pdb,
                qp: qb,
                send_cq: send_b,
                recv_cq: recv_b,
            },
        )
    }

    /// One progress step: run the virtual clock to idle (sim), or scan
    /// every shm fabric once, as an empty poll would. No-op on synchronous
    /// backends.
    pub fn drive(&self) {
        if let Some(s) = &self.sched {
            s.run();
        }
        for f in &self.shm {
            f.progress();
        }
    }

    /// Drive the substrate until nothing is in flight.
    pub fn settle(&self) {
        if let Some(s) = &self.sched {
            s.run();
        }
        // A fabric is idle only once its own sends are released, which takes
        // its peer's scans (host mode: the other fabric's), so every fabric
        // is scanned until all are idle at once; nothing posts while a
        // scenario settles.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.shm.iter().all(|f| f.is_idle()) {
            assert!(Instant::now() < deadline, "shm fabric failed to quiesce");
            self.drive();
        }
    }

    /// Post `wr` on a queue known to have a free slot (scenarios that can
    /// fill the 16-WR cap use [`Bed::post_driven`] instead).
    pub fn post(&self, qp: &Arc<QueuePair>, wr: SendWr) -> crate::error::Result<()> {
        qp.post_send(wr)
    }

    /// Post a WR built by `make`, retrying through send-queue-full until
    /// accepted: the scenario-facing cap-spill primitive.
    pub fn post_driven(&self, qp: &Arc<QueuePair>, make: &dyn Fn() -> SendWr) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match qp.post_send(make()) {
                Ok(()) => return,
                Err(VerbsError::SendQueueFull { .. }) => {
                    assert!(
                        Instant::now() < deadline,
                        "send queue never drained on {}",
                        self.kind.name()
                    );
                    self.drive();
                }
                Err(e) => panic!("post failed on {}: {e}", self.kind.name()),
            }
        }
    }

    /// Block (driving the substrate) until `cq` yields a completion.
    pub fn await_wc(&self, cq: &CompletionQueue, what: &str) -> WorkCompletion {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(wc) = cq.poll_one() {
                return wc;
            }
            assert!(
                Instant::now() < deadline,
                "timed out awaiting {what} on {}",
                self.kind.name()
            );
            self.drive();
        }
    }

    /// Settle, then verify the telemetry invariant laws on this backend.
    /// `strict` additionally demands full drain (no outstanding WRs or
    /// unpolled CQEs) — use after scenarios that poll everything.
    pub fn check_invariants(&self, strict: bool) {
        self.settle();
        let snap = self.net.state().telemetry_snapshot();
        let report = if strict {
            invariants::check_strict(&snap)
        } else {
            invariants::check(&snap)
        };
        assert!(
            report.is_clean(),
            "telemetry invariants violated on {}: {report:?}",
            self.kind.name()
        );
    }
}

impl Drop for Bed {
    fn drop(&mut self) {
        for f in &self.shm {
            f.shutdown();
        }
        if let Some(dir) = &self.shm_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Digest building blocks
// ---------------------------------------------------------------------------

/// FNV-1a over a byte slice: the digest's payload fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Render one completion as a stable digest line (no timestamps, no QP
/// numbers — only backend-invariant facts).
pub fn wc_line(tag: &str, wc: &WorkCompletion) -> String {
    format!(
        "{tag} wr={} op={:?} st={:?} len={} imm={}",
        wc.wr_id,
        wc.opcode,
        wc.status,
        wc.byte_len,
        wc.imm.map_or_else(|| "-".into(), |v| v.to_string()),
    )
}

/// Drain `cq` to empty (after a settle), rendering each completion with
/// `tag`; sorts by WR id when `sorted` (for scenarios whose completion
/// order is legitimately schedule-dependent).
pub fn drain_lines(cq: &CompletionQueue, tag: &str, sorted: bool) -> Vec<String> {
    let mut wcs = Vec::new();
    while let Some(wc) = cq.poll_one() {
        wcs.push(wc);
    }
    if sorted {
        wcs.sort_by_key(|wc| wc.wr_id);
    }
    wcs.iter().map(|wc| wc_line(tag, wc)).collect()
}

/// Build a write-with-immediate WR covering `len` bytes of `src` → `dst`.
pub fn write_imm_wr(
    src: &MemoryRegion,
    dst: &MemoryRegion,
    wr_id: u64,
    len: u32,
    imm: u32,
) -> SendWr {
    SendWr {
        wr_id,
        opcode: Opcode::RdmaWriteWithImm,
        sg_list: vec![Sge {
            addr: src.addr(),
            length: len,
            lkey: src.lkey(),
        }],
        remote_addr: dst.addr(),
        rkey: dst.rkey(),
        imm: Some(imm),
        inline_data: false,
        flow: 0,
    }
}

/// A deterministic payload for message `i`.
pub fn pattern(i: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (i.wrapping_mul(31).wrapping_add(j as u64 * 7) & 0xff) as u8)
        .collect()
}

// ---------------------------------------------------------------------------
// Scenario programs
// ---------------------------------------------------------------------------

/// A conformance scenario: a program producing a backend-invariant digest.
pub struct Scenario {
    /// Stable scenario name (digest namespace + test label).
    pub name: &'static str,
    /// Run the scenario on one backend, returning its digest.
    pub run: fn(BackendKind) -> Vec<String>,
}

/// Run `scenario` on every backend and assert the digests are identical;
/// returns the agreed digest.
pub fn assert_uniform(scenario: &Scenario) -> Vec<String> {
    let mut reference: Option<(BackendKind, Vec<String>)> = None;
    for kind in ALL_BACKENDS {
        let digest = (scenario.run)(kind);
        assert!(
            !digest.is_empty(),
            "{}: scenario produced an empty digest on {}",
            scenario.name,
            kind.name()
        );
        match &reference {
            None => reference = Some((kind, digest)),
            Some((ref_kind, ref_digest)) => {
                assert_digests_match(scenario.name, *ref_kind, ref_digest, kind, &digest);
            }
        }
    }
    reference.expect("at least one backend ran").1
}

/// Assert two backends produced the same digest for `scenario`, panicking
/// with the scenario name, **both diverging [`BackendKind`]s**, and a
/// per-line diff (not the two raw digest dumps) on mismatch.
pub fn assert_digests_match(
    scenario: &str,
    ref_kind: BackendKind,
    ref_digest: &[String],
    kind: BackendKind,
    digest: &[String],
) {
    if ref_digest == digest {
        return;
    }
    panic!(
        "scenario {scenario}: digest mismatch — backend {} diverged from {} \
         ({} vs {} lines):\n{}",
        kind.name(),
        ref_kind.name(),
        digest.len(),
        ref_digest.len(),
        diff_lines(ref_kind, ref_digest, kind, digest),
    );
}

fn diff_lines(a_kind: BackendKind, a: &[String], b_kind: BackendKind, b: &[String]) -> String {
    let mut out = String::new();
    let n = a.len().max(b.len());
    for i in 0..n {
        let left = a.get(i).map(String::as_str).unwrap_or("<absent>");
        let right = b.get(i).map(String::as_str).unwrap_or("<absent>");
        if left != right {
            out.push_str(&format!(
                "  line {i}:\n    - [{}] {left}\n    + [{}] {right}\n",
                a_kind.name(),
                b_kind.name()
            ));
        }
    }
    out
}

/// The full scenario table. Roughly: lifecycle, each opcode and addressing
/// mode, segmentation and capacity accounting, reliability under injected
/// chaos, error surfaces, and cross-cutting ledgers (arena, flows).
pub fn scenarios() -> Vec<Scenario> {
    let scenario = |&(name, run): &Row| Scenario { name, run };
    TABLE.iter().map(scenario).collect()
}

/// A scenario's name and program.
type Row = (&'static str, fn(BackendKind) -> Vec<String>);

/// One line per scenario; `tests/tests/fabric_conformance.rs` has the other.
const TABLE: &[Row] = &[
    ("connect_teardown_reconnect", s_connect_teardown_reconnect),
    ("write_imm_roundtrip", s_write_imm_roundtrip),
    ("bare_write_has_no_recv_cqe", s_bare_write_has_no_recv_cqe),
    ("gather_three_sge_write", s_gather_three_sge_write),
    ("mtu_segmentation_ledger", s_mtu_segmentation_ledger),
    ("wr_cap_spill_sequential", s_wr_cap_spill_sequential),
    ("batch_partial_grant", s_batch_partial_grant),
    (
        "psn_exactly_once_under_duplicates",
        s_psn_exactly_once_under_duplicates,
    ),
    ("drop_retransmit_recovery", s_drop_retransmit_recovery),
    ("chaos_storm_delivers_exactly_once", s_chaos_storm),
    (
        "retry_budget_exhausts_under_total_loss",
        s_retry_budget_exhausts,
    ),
    (
        "rnr_exhausts_without_receiver",
        s_rnr_exhausts_without_receiver,
    ),
    (
        "qp_error_then_recovery_cycle",
        s_qp_error_then_recovery_cycle,
    ),
    (
        "remote_access_error_writes_nothing",
        s_remote_access_error_writes_nothing,
    ),
    (
        "inline_send_arena_conservation",
        s_inline_send_arena_conservation,
    ),
    ("imm_encoding_sweep", s_imm_encoding_sweep),
    ("bidirectional_interleave", s_bidirectional_interleave),
    ("multi_qp_fanout", s_multi_qp_fanout),
    ("sequential_stream_wraps_transport", s_sequential_stream),
    ("flow_stage_trace", s_flow_stage_trace),
    ("post_refusals_touch_nothing", s_post_refusals_touch_nothing),
];

/// Round-trip one message end to end and return `(digest-lines)` for the
/// common single-transfer shape: send CQE, recv CQE, payload hash.
fn one_transfer(bed: &Bed, a: &Endpoint, b: &Endpoint, wr_id: u64, len: usize) -> Vec<String> {
    let src = a.mr(len);
    let dst = b.mr(len);
    let payload = pattern(wr_id, len);
    src.write(0, &payload).expect("fill source");
    b.qp.post_recv(RecvWr::bare(wr_id + 1000)).expect("recv");
    bed.post(
        &a.qp,
        write_imm_wr(&src, &dst, wr_id, len as u32, imm::encode(0, 1)),
    )
    .expect("post");
    let swc = bed.await_wc(&a.send_cq, "send CQE");
    let rwc = bed.await_wc(&b.recv_cq, "recv CQE");
    vec![
        wc_line("send", &swc),
        wc_line("recv", &rwc),
        format!(
            "payload len={} hash={:#x}",
            len,
            fnv1a(&dst.read_vec(0, len).expect("read back"))
        ),
    ]
}

/// What every failed-send scenario reports: the error CQE, the sender QP's
/// state, and the hash of a destination region nothing may have written.
fn failed_send_lines(swc: &WorkCompletion, a: &Endpoint, dst: &MemoryRegion) -> Vec<String> {
    let landed = dst.read_vec(0, dst.len()).expect("read");
    vec![
        wc_line("send", swc),
        format!("qp_state={:?}", a.qp.state()),
        format!("dst untouched hash={:#x}", fnv1a(&landed)),
    ]
}

fn s_connect_teardown_reconnect(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let mut out = Vec::new();
    let (a1, b1) = bed.pair();
    out.push(format!(
        "pair1 states a={:?} b={:?}",
        a1.qp.state(),
        b1.qp.state()
    ));
    out.extend(one_transfer(&bed, &a1, &b1, 1, 512));
    // A second, independently connected pair on the same nodes coexists
    // with (and outlives traffic on) the first.
    let (a2, b2) = bed.pair();
    out.extend(one_transfer(&bed, &a2, &b2, 2, 512));
    out.extend(one_transfer(&bed, &a1, &b1, 3, 512));
    bed.check_invariants(true);
    out
}

fn s_write_imm_roundtrip(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    let out = one_transfer(&bed, &a, &b, 7, 4096);
    bed.check_invariants(true);
    out
}

fn s_bare_write_has_no_recv_cqe(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    let src = a.mr(256);
    let dst = b.mr(256);
    let mut out = Vec::new();
    // A bare RDMA write is silent on the receive side. First with no
    // receive WR posted and none needed; then with one posted and an
    // immediate on the WR, which the post drops: the receive WR stays.
    for (i, imm) in [None, Some(0xFEED)].into_iter().enumerate() {
        let (i, wr_id) = (i as u64, 8 + i as u64);
        src.write(0, &pattern(3 + i, 256)).expect("fill");
        if imm.is_some() {
            b.qp.post_recv(RecvWr::bare(7)).expect("recv");
        }
        bed.post(
            &a.qp,
            SendWr {
                wr_id,
                opcode: Opcode::RdmaWrite,
                sg_list: vec![Sge {
                    addr: src.addr(),
                    length: 256,
                    lkey: src.lkey(),
                }],
                remote_addr: dst.addr(),
                rkey: dst.rkey(),
                imm,
                inline_data: false,
                flow: 0,
            },
        )
        .expect("post");
        let swc = bed.await_wc(&a.send_cq, "send CQE");
        bed.settle();
        let posted = usize::from(imm.is_some());
        assert_eq!(
            (b.recv_cq.depth(), b.qp.recv_queue_depth()),
            (0, posted),
            "bare write {wr_id} touched the receive side on {}",
            kind.name()
        );
        out.extend([
            wc_line("send", &swc),
            format!(
                "payload hash={:#x}",
                fnv1a(&dst.read_vec(0, 256).expect("read"))
            ),
        ]);
    }
    bed.check_invariants(true);
    out
}

fn s_gather_three_sge_write(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    let (s1, s2, s3) = (a.mr(128), a.mr(64), a.mr(300));
    let dst = b.mr(492);
    let (p1, p2, p3) = (pattern(21, 128), pattern(22, 64), pattern(23, 300));
    s1.write(0, &p1).expect("s1");
    s2.write(0, &p2).expect("s2");
    s3.write(0, &p3).expect("s3");
    b.qp.post_recv(RecvWr::bare(60)).expect("recv");
    bed.post(
        &a.qp,
        SendWr {
            wr_id: 61,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![
                Sge {
                    addr: s1.addr(),
                    length: 128,
                    lkey: s1.lkey(),
                },
                Sge {
                    addr: s2.addr(),
                    length: 64,
                    lkey: s2.lkey(),
                },
                Sge {
                    addr: s3.addr(),
                    length: 300,
                    lkey: s3.lkey(),
                },
            ],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: Some(imm::encode(2, 3)),
            inline_data: false,
            flow: 0,
        },
    )
    .expect("post");
    let swc = bed.await_wc(&a.send_cq, "send CQE");
    let rwc = bed.await_wc(&b.recv_cq, "recv CQE");
    let mut expect = p1;
    expect.extend(p2);
    expect.extend(p3);
    let landed = dst.read_vec(0, 492).expect("read");
    let out = vec![
        wc_line("send", &swc),
        wc_line("recv", &rwc),
        format!(
            "gather hash={:#x} intact={}",
            fnv1a(&landed),
            landed == expect
        ),
    ];
    bed.check_invariants(true);
    out
}

fn s_mtu_segmentation_ledger(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    // Sizes straddling the 4096-byte accounting MTU on every backend.
    let sizes: [usize; 5] = [1, 4095, 4096, 4097, 12289];
    let mut out = Vec::new();
    let mut expect_segments = 0u64;
    for (i, &len) in sizes.iter().enumerate() {
        out.extend(one_transfer(&bed, &a, &b, 100 + i as u64, len));
        expect_segments += partix_telemetry::segments_for(len as u64, 4096);
    }
    bed.settle();
    let snap = bed.net.state().telemetry_snapshot();
    out.push(format!(
        "mtu_segments={} expected={}",
        snap.wire.mtu_segments, expect_segments
    ));
    bed.check_invariants(true);
    out
}

fn s_wr_cap_spill_sequential(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    const N: u64 = 24; // 1.5× the 16-WR cap
    let src = a.mr(64);
    let dst = b.mr(64);
    for i in 0..N {
        b.qp.post_recv(RecvWr::bare(2000 + i)).expect("recv");
    }
    // Burst-post through the cap: the drive/retry loop absorbs the spill
    // wherever the backend makes the queue actually fill.
    for i in 0..N {
        src.write(0, &pattern(i, 64)).expect("fill");
        bed.post_driven(&a.qp, &|| {
            write_imm_wr(&src, &dst, 3000 + i, 64, imm::encode(i as u16, 1))
        });
    }
    bed.settle();
    let mut out = drain_lines(&a.send_cq, "send", true);
    out.extend(drain_lines(&b.recv_cq, "recv", true));
    let snap = bed.net.state().telemetry_snapshot();
    let qp = snap
        .qps
        .iter()
        .find(|q| q.qp_num == a.qp.qp_num())
        .expect("sender qp in snapshot");
    out.push(format!(
        "sender posted={} completed={} outstanding={}",
        qp.send_posted, qp.completed_success, qp.outstanding
    ));
    bed.check_invariants(true);
    out
}

fn s_batch_partial_grant(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    const N: usize = 24;
    let src = a.mr(32);
    let dst = b.mr(32);
    src.write(0, &pattern(77, 32)).expect("fill");
    for i in 0..N {
        b.qp.post_recv(RecvWr::bare(4000 + i as u64)).expect("recv");
    }
    let batch: Vec<SendWr> = (0..N)
        .map(|i| write_imm_wr(&src, &dst, 5000 + i as u64, 32, imm::encode(i as u16, 1)))
        .collect();
    // Validate-then-claim: the grant is decided against the cap before any
    // submission side effects, identically on every backend.
    let granted =
        a.qp.post_send_batch(&batch, PostOptions::default())
            .expect("batch");
    let mut out = vec![format!("granted={granted} of {N}")];
    bed.settle();
    // Re-offer the spill one by one.
    for i in granted..N {
        bed.post_driven(&a.qp, &|| {
            write_imm_wr(&src, &dst, 5000 + i as u64, 32, imm::encode(i as u16, 1))
        });
    }
    bed.settle();
    out.extend(drain_lines(&a.send_cq, "send", true));
    out.push(format!("recv_cqes={}", {
        let mut n = 0;
        while b.recv_cq.poll_one().is_some() {
            n += 1;
        }
        n
    }));
    bed.check_invariants(true);
    out
}

fn s_psn_exactly_once_under_duplicates(kind: BackendKind) -> Vec<String> {
    // Every transfer is preceded by a ghost duplicate sharing its PSN.
    let bed = Bed::chaotic(
        kind,
        LossyConfig {
            dup_p: 1.0,
            ..LossyConfig::default()
        },
    );
    let (a, b) = bed.pair();
    let mut out = Vec::new();
    for i in 0..8u64 {
        out.extend(one_transfer(&bed, &a, &b, 300 + i, 128));
    }
    bed.settle();
    let snap = bed.net.state().telemetry_snapshot();
    out.push(format!(
        "dup injected={} suppressed={}",
        snap.wire.duplicates_injected, snap.wire.duplicates_suppressed
    ));
    bed.check_invariants(true);
    out
}

fn s_drop_retransmit_recovery(kind: BackendKind) -> Vec<String> {
    let bed = Bed::chaotic(kind, LossyConfig::drops(0.4, 1117));
    let (a, b) = bed.pair();
    let mut out = Vec::new();
    for i in 0..16u64 {
        out.extend(one_transfer(&bed, &a, &b, 400 + i, 256));
    }
    bed.settle();
    let snap = bed.net.state().telemetry_snapshot();
    out.push(format!(
        "dropped={} retransmits={} exhausted={}",
        snap.wire.dropped, snap.wire.retransmits, snap.wire.exhausted
    ));
    bed.check_invariants(true);
    out
}

fn s_chaos_storm(kind: BackendKind) -> Vec<String> {
    // Drops and duplicates together, sequential traffic: every message
    // still lands exactly once with its bytes intact.
    let bed = Bed::chaotic(kind, LossyConfig::chaos(0.25, 2231));
    let (a, b) = bed.pair();
    let mut out = Vec::new();
    for i in 0..24u64 {
        out.extend(one_transfer(&bed, &a, &b, 500 + i, 96));
    }
    bed.settle();
    let snap = bed.net.state().telemetry_snapshot();
    out.push(format!(
        "storm dropped={} retransmits={} dup_injected={} dup_suppressed={} exhausted={}",
        snap.wire.dropped,
        snap.wire.retransmits,
        snap.wire.duplicates_injected,
        snap.wire.duplicates_suppressed,
        snap.wire.exhausted
    ));
    bed.check_invariants(true);
    out
}

fn s_retry_budget_exhausts(kind: BackendKind) -> Vec<String> {
    // Every wire attempt is lost, retransmissions included: the original
    // and `retry_cnt` re-sends, then the failure surfaces.
    let caps = QpCaps {
        retry_cnt: 3,
        ..QpCaps::default()
    };
    let bed = Bed::chaotic(kind, LossyConfig::drops(1.0, 3331));
    let (a, b) = bed.pair_with(caps);
    let src = a.mr(64);
    let dst = b.mr(64);
    src.write(0, &pattern(7, 64)).expect("fill");
    b.qp.post_recv(RecvWr::bare(890)).expect("recv");
    bed.post(&a.qp, write_imm_wr(&src, &dst, 891, 64, 1))
        .expect("post");
    let swc = bed.await_wc(&a.send_cq, "error CQE");
    bed.settle();
    let snap = bed.net.state().telemetry_snapshot();
    let mut out = failed_send_lines(&swc, &a, &dst);
    out.push(format!(
        "recv_cq depth={} recv_queue={}",
        b.recv_cq.depth(),
        b.qp.recv_queue_depth()
    ));
    out.push(format!(
        "dropped={} retransmits={} exhausted={}",
        snap.wire.dropped, snap.wire.retransmits, snap.wire.exhausted
    ));
    bed.check_invariants(true);
    out
}

fn s_rnr_exhausts_without_receiver(kind: BackendKind) -> Vec<String> {
    let caps = QpCaps {
        rnr_retry: 3,
        // Keep the real-time backend's wall-clock waits short.
        min_rnr_timer_ns: 200_000,
        ..QpCaps::default()
    };
    let bed = Bed::new(kind);
    let (a, b) = bed.pair_with(caps);
    let src = a.mr(64);
    let dst = b.mr(64);
    src.write(0, &pattern(5, 64)).expect("fill");
    // No receive WR, ever: the RNR budget must exhaust deterministically.
    bed.post(&a.qp, write_imm_wr(&src, &dst, 900, 64, 1))
        .expect("post");
    let swc = bed.await_wc(&a.send_cq, "send CQE");
    bed.settle();
    let snap = bed.net.state().telemetry_snapshot();
    let mut out = failed_send_lines(&swc, &a, &dst);
    out.push(format!(
        "rnr_requeues={} receiver_not_ready={}",
        snap.wire.rnr_requeues, snap.wire.receiver_not_ready
    ));
    bed.check_invariants(false);
    let _ = b;
    out
}

fn s_qp_error_then_recovery_cycle(kind: BackendKind) -> Vec<String> {
    let caps = QpCaps {
        rnr_retry: 1,
        min_rnr_timer_ns: 100_000,
        ..QpCaps::default()
    };
    let bed = Bed::new(kind);
    let (a, b) = bed.pair_with(caps);
    let src = a.mr(64);
    let dst = b.mr(64);
    src.write(0, &pattern(13, 64)).expect("fill");
    // Drive the QP into Error via deterministic RNR exhaustion...
    bed.post(&a.qp, write_imm_wr(&src, &dst, 910, 64, 1))
        .expect("post");
    let err_wc = bed.await_wc(&a.send_cq, "error CQE");
    bed.settle();
    let mut out = vec![
        wc_line("error", &err_wc),
        format!("post_while_error={:?}", {
            a.qp.post_send(write_imm_wr(&src, &dst, 911, 64, 1))
                .expect_err("posting on an Error QP must fail")
        }),
        format!("state_after_error={:?}", a.qp.state()),
    ];
    // ...then walk the only legal recovery path and prove the QP works.
    a.qp.modify(QpState::Reset).expect("reset");
    a.qp.modify(QpState::Init).expect("init");
    a.qp.modify_to_rtr(crate::qp::PeerId {
        node: b.qp.node(),
        qp_num: b.qp.qp_num(),
    })
    .expect("rtr");
    a.qp.modify_to_rts().expect("rts");
    out.push(format!("state_after_recovery={:?}", a.qp.state()));
    b.qp.post_recv(RecvWr::bare(912)).expect("recv");
    bed.post(&a.qp, write_imm_wr(&src, &dst, 913, 64, 2))
        .expect("post");
    let swc = bed.await_wc(&a.send_cq, "post-recovery send CQE");
    let rwc = bed.await_wc(&b.recv_cq, "post-recovery recv CQE");
    out.push(wc_line("send", &swc));
    out.push(wc_line("recv", &rwc));
    out.push(format!(
        "payload hash={:#x}",
        fnv1a(&dst.read_vec(0, 64).expect("read"))
    ));
    bed.check_invariants(true);
    out
}

fn s_remote_access_error_writes_nothing(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    let src = a.mr(64);
    let dst = b.mr(64);
    src.write(0, &pattern(17, 64)).expect("fill");
    b.qp.post_recv(RecvWr::bare(920)).expect("recv");
    let mut wr = write_imm_wr(&src, &dst, 921, 64, 1);
    wr.rkey = wr.rkey.wrapping_add(0x5C5C); // forged key
    bed.post(&a.qp, wr).expect("post");
    let swc = bed.await_wc(&a.send_cq, "error CQE");
    bed.settle();
    let mut out = failed_send_lines(&swc, &a, &dst);
    out.push(format!("recv_cq depth={}", b.recv_cq.depth()));
    bed.check_invariants(false);
    out
}

fn s_inline_send_arena_conservation(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    let src = a.mr(128);
    let dst = b.mr(128);
    let mut out = Vec::new();
    for i in 0..6u64 {
        let payload = pattern(700 + i, 128);
        src.write(0, &payload).expect("fill");
        b.qp.post_recv(RecvWr::bare(940 + i)).expect("recv");
        let mut wr = write_imm_wr(&src, &dst, 950 + i, 128, imm::encode(i as u16, 1));
        // Inline: the payload snapshots into a pooled arena buffer at post
        // time; the source region is scribbled over immediately after, so
        // only the snapshot semantics can deliver the right bytes.
        wr.inline_data = true;
        bed.post(&a.qp, wr).expect("post");
        src.fill(0, 128, 0xDD).expect("scribble");
        let swc = bed.await_wc(&a.send_cq, "send CQE");
        let rwc = bed.await_wc(&b.recv_cq, "recv CQE");
        out.push(wc_line("send", &swc));
        out.push(wc_line("recv", &rwc));
        out.push(format!(
            "snapshot intact={}",
            dst.read_vec(0, 128).expect("read") == payload
        ));
    }
    bed.settle();
    out.push(format!("arena live={}", bed.net.state().arena().live()));
    bed.check_invariants(true);
    out
}

fn s_imm_encoding_sweep(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    let src = a.mr(16);
    let dst = b.mr(16);
    src.write(0, &pattern(1, 16)).expect("fill");
    let mut out = Vec::new();
    for (i, (start, count)) in [(0u16, 1u16), (5, 3), (1023, 64), (65535, 1)]
        .into_iter()
        .enumerate()
    {
        b.qp.post_recv(RecvWr::bare(960 + i as u64)).expect("recv");
        bed.post(
            &a.qp,
            write_imm_wr(&src, &dst, 970 + i as u64, 16, imm::encode(start, count)),
        )
        .expect("post");
        let _ = bed.await_wc(&a.send_cq, "send CQE");
        let rwc = bed.await_wc(&b.recv_cq, "recv CQE");
        let (ds, dc) = imm::decode(rwc.imm.expect("immediate present"));
        out.push(format!("imm {start},{count} -> {ds},{dc}"));
    }
    bed.check_invariants(true);
    out
}

fn s_bidirectional_interleave(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    let mut out = Vec::new();
    // Alternate direction message by message: exercises one directed
    // channel per direction on channel-oriented backends.
    for i in 0..6u64 {
        if i % 2 == 0 {
            out.extend(one_transfer(&bed, &a, &b, 600 + i, 200));
        } else {
            out.extend(one_transfer(&bed, &b, &a, 600 + i, 200));
        }
    }
    bed.check_invariants(true);
    out
}

fn s_multi_qp_fanout(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let mut out = Vec::new();
    let pairs: Vec<(Endpoint, Endpoint)> = (0..3).map(|_| bed.pair()).collect();
    for round in 0..2u64 {
        for (qi, (a, b)) in pairs.iter().enumerate() {
            out.extend(one_transfer(&bed, a, b, 800 + round * 10 + qi as u64, 300));
        }
    }
    bed.settle();
    let snap = bed.net.state().telemetry_snapshot();
    for (a, _) in &pairs {
        let qp = snap
            .qps
            .iter()
            .find(|q| q.qp_num == a.qp.qp_num())
            .expect("qp in snapshot");
        out.push(format!(
            "fanout qp posted={} completed={}",
            qp.send_posted, qp.completed_success
        ));
    }
    bed.check_invariants(true);
    out
}

fn s_sequential_stream(kind: BackendKind) -> Vec<String> {
    // Enough sequential traffic that bounded transports lap their physical
    // storage (the shm data ring wraps at least twice, asserted below); the
    // digest is the running hash of everything that landed, in order.
    let bed = Bed::new(kind);
    let (a, b) = bed.pair();
    let src = a.mr(64);
    let dst = b.mr(64);
    let mut running = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..700u64 {
        let payload = pattern(i, 64);
        src.write(0, &payload).expect("fill");
        b.qp.post_recv(RecvWr::bare(i)).expect("recv");
        bed.post(
            &a.qp,
            write_imm_wr(&src, &dst, i, 64, imm::encode((i % 1024) as u16, 1)),
        )
        .expect("post");
        let swc = bed.await_wc(&a.send_cq, "send CQE");
        assert_eq!(
            swc.status,
            WcStatus::Success,
            "sequential_stream wr {i} on {}",
            bed.kind.name()
        );
        let _ = bed.await_wc(&b.recv_cq, "recv CQE");
        for &byte in &dst.read_vec(0, 64).expect("read") {
            running ^= byte as u64;
            running = running.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let out = vec![format!("stream of 700 hash={running:#x}")];
    bed.check_invariants(true);
    if let Some(laps) = bed.shm.iter().map(|f| f.data_ring_laps()).max() {
        assert!(laps >= 2, "the data ring wrapped {laps} times");
    }
    out
}

fn s_flow_stage_trace(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let log = FlowLog::new();
    bed.net
        .state()
        .telemetry()
        .flows
        .attach(log.clone(), Arc::new(|| 0));
    let (a, b) = bed.pair();
    let src = a.mr(64);
    let dst = b.mr(64);
    src.write(0, &pattern(2, 64)).expect("fill");
    let flow = bed.net.state().telemetry().flows.next_flow_id();
    b.qp.post_recv(RecvWr::bare(980)).expect("recv");
    let mut wr = write_imm_wr(&src, &dst, 981, 64, 1);
    wr.flow = flow;
    bed.post(&a.qp, wr).expect("post");
    let _ = bed.await_wc(&a.send_cq, "send CQE");
    let _ = bed.await_wc(&b.recv_cq, "recv CQE");
    bed.settle();
    // Only stage *presence* is digest material: timestamps and optional
    // intermediate stages vary by substrate, but a traced transfer must
    // record its wire submission and its delivery on every backend.
    let events = log.sorted();
    let has = |s: FlowStage| events.iter().any(|e| e.flow == flow && e.stage == s);
    let out = vec![format!(
        "flow traced wire_submit={} delivered={}",
        has(FlowStage::WireSubmit),
        has(FlowStage::Delivered)
    )];
    bed.check_invariants(true);
    out
}

fn s_post_refusals_touch_nothing(kind: BackendKind) -> Vec<String> {
    let bed = Bed::new(kind);
    let log = FlowLog::new();
    let flows = &bed.net.state().telemetry().flows;
    flows.attach(log.clone(), Arc::new(|| 0));
    let (a, b) = bed.pair();
    let caps = QpCaps::default();
    let src = a.mr(256);
    let dst = b.mr(256);
    src.write(0, &pattern(23, 256)).expect("fill");
    // A region of another PD, and one too long for any WR to carry whole
    // (virtual: no storage, on every backend).
    let foreign = a.ctx.reg_mr(a.ctx.alloc_pd(), 64).expect("foreign region");
    const SEG: u32 = 3 << 30;
    let huge = a.ctx.reg_mr_virtual(a.pd, 2 * SEG as usize).expect("huge");
    // A QP that was never connected: still in Reset.
    let cq = a.ctx.create_cq();
    let unconnected = (a.ctx.create_qp(a.pd, cq.clone(), cq, caps)).expect("qp");
    let window = u64::from(caps.max_send_wr);
    b.qp.top_up_recv(window as usize, 6000).expect("recv");
    let good = |wr_id: u64| {
        let mut wr = write_imm_wr(&src, &dst, wr_id, 64, imm::encode(wr_id as u16, 1));
        wr.flow = flows.next_flow_id();
        wr
    };
    let with = |edit: &dyn Fn(&mut SendWr)| {
        let mut wr = good(6100);
        edit(&mut wr);
        wr
    };
    let sge = |mr: &MemoryRegion, length: u32| Sge {
        addr: mr.addr(),
        length,
        lkey: mr.lkey(),
    };
    // One WR per refusal a post of a well-formed QP can make. (`PeerNotSet`
    // cannot be reached: a QP is ready to send only once connected.)
    let refused = [
        ("BadOpcode", with(&|wr| wr.imm = None)),
        ("EmptySgList", with(&|wr| wr.sg_list.clear())),
        (
            "TooManySges",
            with(&|wr| wr.sg_list = vec![sge(&src, 4); 17]),
        ),
        ("InvalidLKey", with(&|wr| wr.sg_list[0].lkey ^= 0x4000)),
        (
            "ProtectionDomainMismatch",
            with(&|wr| wr.sg_list = vec![sge(&foreign, 64)]),
        ),
        ("OutOfBounds", with(&|wr| wr.sg_list = vec![sge(&src, 257)])),
        (
            "WrTooLarge",
            with(&|wr| wr.sg_list = vec![sge(&huge, SEG); 2]),
        ),
        (
            "InlineTooLarge",
            with(&|wr| {
                wr.inline_data = true;
                wr.sg_list = vec![sge(&src, caps.max_inline_data + 1)];
            }),
        ),
    ];
    let before = bed.net.state().telemetry_snapshot();
    let mut out = Vec::new();
    let unconnected = ("InvalidQpState", unconnected, good(6300));
    for (name, qp, wr) in (refused.iter().map(|(name, wr)| (*name, &a.qp, wr))).chain([(
        unconnected.0,
        &unconnected.1,
        &unconnected.2,
    )]) {
        let alone = qp.post_send(wr.clone()).expect_err("refused alone");
        let batch = [good(6200), wr.clone(), good(6201)];
        let within = (qp.post_send_batch(&batch, PostOptions::default()))
            .expect_err("refused within a batch");
        let line = format!("refused {alone:?}");
        assert!(line.starts_with(&format!("refused {name}")), "{line}");
        assert_eq!(alone, within, "the batch names the WR it refuses");
        out.push(line);
    }
    bed.settle();
    let untouched = bed.net.state().telemetry_snapshot() == before;
    let left = [log.sorted().len(), a.send_cq.depth(), b.recv_cq.depth()];
    assert!(untouched && left == [0; 3] && a.qp.outstanding() == 0);
    out.push(format!("untouched ledger={untouched} flows, CQEs={left:?}"));
    // No slot is held: a full window posts in one batch, and lands.
    let full: Vec<SendWr> = (0..window).map(good).collect();
    let granted = a.qp.post_send_batch(&full, PostOptions::default());
    assert_eq!(granted, Ok(window as usize), "a full window posts");
    out.push(format!("window granted={granted:?} of {window}"));
    bed.settle();
    out.extend(drain_lines(&a.send_cq, "send", false));
    out.extend(drain_lines(&b.recv_cq, "recv", false));
    out.push(format!(
        "payload hash={:#x}",
        fnv1a(&dst.read_vec(0, 64).expect("read"))
    ));
    bed.check_invariants(true);
    out
}
