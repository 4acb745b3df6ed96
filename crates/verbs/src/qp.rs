//! Queue pairs.
//!
//! A [`QueuePair`] bundles a send queue and a receive queue, follows the
//! RESET → INIT → RTR → RTS state machine, and enforces the outstanding-WR
//! cap of the paper's hardware (ConnectX-5: 16 concurrent RDMA WRs per QP —
//! §IV-A: *"we opted to use multiple QPs"* rather than throttle).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use partix_telemetry::QpCounters;

use crate::buf::{InlineVec, PooledBuf};
use crate::cq::CompletionQueue;
use crate::error::{Result, VerbsError};
use crate::fabric::{Fabric, PostOptions, ResolvedSegment, TransferJob, MAX_WR_BYTES};
use crate::memory::MrRegistry;
use crate::network::{NetworkState, NodeCtx};
use crate::types::{NodeId, Opcode, QpState, RecvWr, SendWr};

/// Capabilities requested at QP creation.
#[derive(Clone, Copy, Debug)]
pub struct QpCaps {
    /// Maximum concurrently outstanding send WRs (hardware cap; default 16).
    pub max_send_wr: u32,
    /// Maximum posted receive WRs.
    pub max_recv_wr: u32,
    /// Maximum scatter/gather elements per WR.
    pub max_sge: usize,
    /// Maximum inline payload (bytes); ConnectX-class defaults to ~220.
    pub max_inline_data: u32,
    /// Local ack timeout exponent, IB-style: the retransmission timer is
    /// `4.096 us x 2^timeout`. Real deployments typically run 14 (~67 ms);
    /// the simulated fabric defaults to 5 (~131 us) so retransmissions are
    /// visible at micro-benchmark time scales.
    pub timeout: u8,
    /// Transport retries before `RetryExceeded` surfaces (`retry_cnt`).
    pub retry_cnt: u8,
    /// Receiver-not-ready retries before `RnrRetryExceeded` surfaces
    /// (`rnr_retry`). The IB value 7 means "retry indefinitely": the
    /// real-time `ShmFabric` honours that, re-arming the timer until its
    /// stall deadline (`ShmConfig::full_ring_deadline`), while the
    /// virtual-time and instant fabrics make seven attempts — an unbounded
    /// wait would never drain their event loop.
    pub rnr_retry: u8,
    /// RNR NAK back-off interval in nanoseconds (the `min_rnr_timer`
    /// analogue, expressed directly in time rather than the IB 5-bit code).
    pub min_rnr_timer_ns: u64,
}

impl Default for QpCaps {
    fn default() -> Self {
        QpCaps {
            max_send_wr: 16,
            max_recv_wr: 4096,
            max_sge: 16,
            max_inline_data: 220,
            timeout: 5,
            retry_cnt: 7,
            rnr_retry: 7,
            min_rnr_timer_ns: 10_000,
        }
    }
}

/// Retry/timeout attributes in force on a connected QP — the subset of
/// `ibv_modify_qp` attributes set at RTR/RTS (`timeout`, `retry_cnt`,
/// `rnr_retry`, `min_rnr_timer`), as [`QpCaps`] set them at creation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryProfile {
    /// Ack-timeout exponent (base interval `4.096 us x 2^timeout`).
    pub timeout: u8,
    /// Transport retries before the WR fails with `RetryExceeded`.
    pub retry_cnt: u8,
    /// RNR retries before the WR fails with `RnrRetryExceeded`.
    pub rnr_retry: u8,
    /// RNR back-off interval (ns).
    pub min_rnr_timer_ns: u64,
}

impl RetryProfile {
    fn from_caps(caps: &QpCaps) -> Self {
        RetryProfile {
            timeout: caps.timeout,
            retry_cnt: caps.retry_cnt,
            rnr_retry: caps.rnr_retry,
            min_rnr_timer_ns: caps.min_rnr_timer_ns,
        }
    }

    /// Base ack-timeout interval: `4.096 us x 2^timeout`, as in the IB spec
    /// (C9-140). `timeout = 0` means "no timer" in the spec; we clamp it to
    /// the base tick so a zero exponent still produces a finite timer.
    pub fn ack_timeout_ns(&self) -> u64 {
        4_096u64 << self.timeout.min(31)
    }

    /// Retransmission back-off for attempt `n` (0-based): the ack timeout
    /// doubled per attempt, capped so the shift cannot overflow.
    pub fn backoff_ns(&self, attempt: u8) -> u64 {
        self.ack_timeout_ns()
            .saturating_mul(1u64 << attempt.min(16))
    }
}

/// Receive-side record of applied PSNs from one peer QP, kept as a
/// watermark plus a small out-of-order set instead of an ever-growing hash
/// set: every PSN below `watermark` has been applied, and `recent` holds
/// the applied PSNs at or above it. In-order traffic keeps `recent` empty;
/// retransmission races bound it by the sender's outstanding-WR window, and
/// its `Vec` retains capacity, so steady-state marking never allocates.
#[derive(Debug)]
struct PsnWindow {
    watermark: u64,
    recent: Vec<u64>,
}

impl PsnWindow {
    /// Nothing applied yet, with room for the PSN every `mark` holds for a
    /// moment: the first mark allocates no more than a later one.
    fn new() -> Self {
        PsnWindow {
            watermark: 0,
            recent: Vec::with_capacity(4),
        }
    }

    fn seen(&self, psn: u64) -> bool {
        psn < self.watermark || self.recent.contains(&psn)
    }

    fn mark(&mut self, psn: u64) {
        if self.seen(psn) {
            return;
        }
        self.recent.push(psn);
        // Advance the watermark over any now-contiguous prefix.
        while let Some(i) = self.recent.iter().position(|&p| p == self.watermark) {
            self.recent.swap_remove(i);
            self.watermark += 1;
        }
    }
}

/// Identity of the connected remote QP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerId {
    /// Remote node.
    pub node: NodeId,
    /// Remote QP number.
    pub qp_num: u32,
}

/// `peer` before `modify_to_rtr`: no node id reaches `u32::MAX`.
const NO_PEER: u64 = u64::MAX;

/// State-machine states by the discriminant `state` stores.
const STATES: [QpState; 5] = [
    QpState::Reset,
    QpState::Init,
    QpState::ReadyToReceive,
    QpState::ReadyToSend,
    QpState::Error,
];

/// What a delivery consults and consumes on the receiving QP: the posted
/// receive WRs and the record of PSNs already applied. One lock, so a
/// delivery's duplicate check, receive-WR claim and PSN mark are one
/// critical section.
#[derive(Default)]
pub(crate) struct RxSide {
    /// The `wr_id`s of the posted receive WRs, oldest first: a receive WR
    /// is consumed for its completion only, so its id is all it carries.
    pub(crate) queue: VecDeque<u64>,
    /// One [`PsnWindow`] per peer QP (linear scan: a QP talks to very few
    /// peers). At-least-once wire behaviour (retransmits, duplicated
    /// packets) collapses to exactly-once at the memory region here.
    applied: Vec<(u32, PsnWindow)>,
}

impl RxSide {
    /// Has the payload of `(src_qp, psn)` already been applied here?
    pub(crate) fn psn_seen(&self, src_qp: u32, psn: u64) -> bool {
        self.applied
            .iter()
            .find(|(qp, _)| *qp == src_qp)
            .is_some_and(|(_, w)| w.seen(psn))
    }

    /// Record `(src_qp, psn)` as applied. Called only once a delivery can
    /// no longer fail, so an RNR-deferred attempt is not mistaken for a
    /// duplicate.
    pub(crate) fn mark_psn(&mut self, src_qp: u32, psn: u64) {
        self.window(src_qp).mark(psn);
    }

    /// The window of peer QP `src_qp`, made on first use. `modify_to_rtr`
    /// makes the connected peer's, so a QP's first delivery allocates
    /// nothing, and what a world allocates when does not depend on which of
    /// its QPs receives first.
    fn window(&mut self, src_qp: u32) -> &mut PsnWindow {
        let i = match self.applied.iter().position(|(qp, _)| *qp == src_qp) {
            Some(i) => i,
            None => {
                self.applied.push((src_qp, PsnWindow::new()));
                self.applied.len() - 1
            }
        };
        &mut self.applied[i].1
    }
}

/// A queue pair.
///
/// Everything a post or a delivery reads — state, peer, retry attributes —
/// is an atomic, and the node's memory registry is held directly, so the
/// per-WR path takes a lock only where it mutates something (the receive
/// side, the completion queue).
pub struct QueuePair {
    qp_num: u32,
    node: Arc<NodeCtx>,
    pd_id: u32,
    caps: QpCaps,
    /// Index into [`STATES`].
    state: AtomicU8,
    /// `node << 32 | qp_num` of the connected peer, or [`NO_PEER`].
    peer: AtomicU64,
    send_cq: Arc<CompletionQueue>,
    recv_cq: Arc<CompletionQueue>,
    rx: Mutex<RxSide>,
    outstanding: AtomicU32,
    /// Send-side packet sequence counter: every posted WR gets a fresh PSN.
    next_psn: AtomicU64,
    net: Weak<NetworkState>,
    fabric: Arc<dyn Fabric>,
    /// Telemetry ledger for this QP; walked by the network when it builds
    /// a snapshot.
    counters: Arc<QpCounters>,
    /// Reusable staging for multi-WR posts (capacity retained, so a
    /// steady-state batch of any size prepares without heap allocation).
    prepare_scratch: Mutex<Vec<PreparedSend>>,
}

/// What `prepare_send` resolves one WR into: segments, payload total, and
/// the optional inline snapshot.
type PreparedSend = (InlineVec<ResolvedSegment>, u64, Option<PooledBuf>);

impl QueuePair {
    #[allow(clippy::too_many_arguments)] // mirrors ibv_create_qp's attribute set
    pub(crate) fn new(
        qp_num: u32,
        node: Arc<NodeCtx>,
        pd_id: u32,
        caps: QpCaps,
        send_cq: Arc<CompletionQueue>,
        recv_cq: Arc<CompletionQueue>,
        net: Weak<NetworkState>,
        fabric: Arc<dyn Fabric>,
    ) -> Arc<Self> {
        Arc::new(QueuePair {
            qp_num,
            node,
            pd_id,
            caps,
            state: AtomicU8::new(QpState::Reset as u8),
            peer: AtomicU64::new(NO_PEER),
            send_cq,
            recv_cq,
            rx: Mutex::new(RxSide::default()),
            outstanding: AtomicU32::new(0),
            next_psn: AtomicU64::new(0),
            net,
            fabric,
            counters: Arc::new(QpCounters::default()),
            prepare_scratch: Mutex::new(Vec::new()),
        })
    }

    /// This QP's telemetry ledger.
    pub fn counters(&self) -> &Arc<QpCounters> {
        &self.counters
    }

    /// QP number (unique within the network).
    pub fn qp_num(&self) -> u32 {
        self.qp_num
    }

    /// Owning node.
    pub fn node(&self) -> NodeId {
        self.node.id
    }

    /// The owning node's registered memory.
    pub(crate) fn mrs(&self) -> &MrRegistry {
        &self.node.mrs
    }

    /// Protection domain.
    pub fn pd_id(&self) -> u32 {
        self.pd_id
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        STATES[self.state.load(Ordering::Acquire) as usize]
    }

    /// The send completion queue.
    pub fn send_cq(&self) -> &Arc<CompletionQueue> {
        &self.send_cq
    }

    /// The receive completion queue.
    pub fn recv_cq(&self) -> &Arc<CompletionQueue> {
        &self.recv_cq
    }

    /// Connected peer, if any.
    pub fn peer(&self) -> Option<PeerId> {
        let bits = self.peer.load(Ordering::Acquire);
        (bits != NO_PEER).then_some(PeerId {
            node: (bits >> 32) as u32,
            qp_num: bits as u32,
        })
    }

    /// Capabilities.
    pub fn caps(&self) -> QpCaps {
        self.caps
    }

    /// Total send WRs ever posted (diagnostics; used by aggregation tests).
    pub fn total_posted_sends(&self) -> u64 {
        self.counters.send_posted.get()
    }

    /// Currently outstanding (un-completed) send WRs.
    pub fn outstanding(&self) -> u32 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// `ibv_modify_qp` analogue: request a state transition.
    pub fn modify(&self, to: QpState) -> Result<()> {
        self.state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |from| {
                STATES[from as usize]
                    .can_transition_to(to)
                    .then_some(to as u8)
            })
            .map(drop)
            .map_err(|from| VerbsError::InvalidTransition {
                from: STATES[from as usize],
                to,
            })
    }

    /// Transition RTR while recording the peer (the `ah_attr`/`dest_qp_num`
    /// part of `ibv_modify_qp`).
    pub fn modify_to_rtr(&self, peer: PeerId) -> Result<()> {
        self.modify(QpState::ReadyToReceive)?;
        let bits = ((peer.node as u64) << 32) | peer.qp_num as u64;
        self.peer.store(bits, Ordering::Release);
        self.rx.lock().window(peer.qp_num);
        Ok(())
    }

    /// Transition to RTS.
    pub fn modify_to_rts(&self) -> Result<()> {
        self.modify(QpState::ReadyToSend)
    }

    /// The retry/timeout attributes in force.
    pub fn retry_profile(&self) -> RetryProfile {
        RetryProfile::from_caps(&self.caps)
    }

    /// Allocate the next packet sequence number (fabric-internal, at post
    /// time).
    pub(crate) fn assign_psn(&self) -> u64 {
        self.next_psn.fetch_add(1, Ordering::Relaxed)
    }

    /// Lock the receive side (fabric-internal, for one delivery).
    pub(crate) fn rx(&self) -> parking_lot::MutexGuard<'_, RxSide> {
        self.rx.lock()
    }

    /// Force the QP into the error state (fatal completion).
    pub(crate) fn set_error(&self) {
        self.state.store(QpState::Error as u8, Ordering::Release);
    }

    /// Receive posting needs a QP past RESET and not in ERROR.
    fn check_recv_state(&self) -> Result<()> {
        let st = self.state();
        if matches!(st, QpState::Reset | QpState::Error) {
            return Err(VerbsError::InvalidQpState {
                actual: st,
                required: QpState::Init,
            });
        }
        Ok(())
    }

    /// Post a receive work request (`ibv_post_recv`).
    pub fn post_recv(&self, wr: RecvWr) -> Result<()> {
        self.check_recv_state()?;
        let mut rx = self.rx.lock();
        if rx.queue.len() as u32 >= self.caps.max_recv_wr {
            return Err(VerbsError::RecvQueueFull);
        }
        rx.queue.push_back(wr.wr_id);
        self.counters.recv_posted.inc();
        Ok(())
    }

    /// Top the receive queue up to `depth` posted WRs with bare receive WRs
    /// ([`RecvWr::bare`]) carrying `wr_id`, under one lock: the effect of
    /// `post_recv` called until the queue holds `depth`. Returns how many
    /// were posted. A `depth` beyond `max_recv_wr` fills the queue and then
    /// fails with `RecvQueueFull`, as the last of those calls would.
    pub fn top_up_recv(&self, depth: usize, wr_id: u64) -> Result<usize> {
        self.check_recv_state()?;
        let cap = self.caps.max_recv_wr as usize;
        let mut rx = self.rx.lock();
        let posted = depth.min(cap).saturating_sub(rx.queue.len());
        rx.queue.extend(std::iter::repeat_n(wr_id, posted));
        self.counters.recv_posted.add(posted as u64);
        if depth > cap {
            return Err(VerbsError::RecvQueueFull);
        }
        Ok(posted)
    }

    /// Depth of the posted receive queue.
    pub fn recv_queue_depth(&self) -> usize {
        self.rx.lock().queue.len()
    }

    /// Post a send work request (`ibv_post_send`) with default timing
    /// options: [`Self::post_send_batch`] of one WR, with a full send queue
    /// as [`VerbsError::SendQueueFull`].
    pub fn post_send(self: &Arc<Self>, wr: SendWr) -> Result<()> {
        match self.post_send_batch(std::slice::from_ref(&wr), PostOptions::default())? {
            0 => Err(VerbsError::SendQueueFull {
                max_outstanding: self.caps.max_send_wr,
            }),
            _ => Ok(()),
        }
    }

    /// Validate one WR of a batch and resolve its gather list.
    fn prepare_send(&self, net: &NetworkState, wr: &SendWr) -> Result<PreparedSend> {
        if wr.opcode == Opcode::RdmaWriteWithImm && wr.imm.is_none() {
            return Err(VerbsError::BadOpcode);
        }
        if wr.sg_list.is_empty() {
            return Err(VerbsError::EmptySgList);
        }
        if wr.sg_list.len() > self.caps.max_sge {
            return Err(VerbsError::TooManySges {
                got: wr.sg_list.len(),
                max: self.caps.max_sge,
            });
        }

        // Resolve the gather list against local registrations; also enforce
        // the protection domain.
        let mut segments = InlineVec::new();
        let mut total: u64 = 0;
        for sge in &wr.sg_list {
            let mr = self.mrs().by_lkey(sge.lkey)?;
            if mr.pd_id() != self.pd_id {
                return Err(VerbsError::ProtectionDomainMismatch);
            }
            let off = mr.offset_of(sge.lkey, sge.addr, sge.length as u64)?;
            total += sge.length as u64;
            segments.push(ResolvedSegment {
                lkey: sge.lkey,
                offset: off,
                len: sge.length as usize,
            });
        }
        if total > MAX_WR_BYTES {
            return Err(VerbsError::WrTooLarge {
                got: total,
                max: MAX_WR_BYTES,
            });
        }

        // Inline sends snapshot the payload at post time (the WQE carries
        // it), so later writes to the source buffer cannot race the wire.
        // The snapshot lives in a pooled arena buffer: after warm-up no
        // allocation happens here.
        let snapshot = if wr.inline_data {
            if total > self.caps.max_inline_data as u64 {
                return Err(VerbsError::InlineTooLarge {
                    got: total as u32,
                    max: self.caps.max_inline_data,
                });
            }
            let mut bytes = net.arena().get(total as usize);
            for seg in segments.iter() {
                let mr = self.mrs().by_lkey(seg.lkey)?;
                mr.read_into(seg.offset, seg.len, &mut bytes)?;
            }
            Some(bytes.freeze())
        } else {
            None
        };
        Ok((segments, total, snapshot))
    }

    /// Claim up to `want` outstanding-WR slots in one atomic update;
    /// hardware rejects past the cap, so only the slots actually free are
    /// taken. Returns how many were granted.
    fn claim_slots(&self, want: u32) -> u32 {
        let mut granted = 0;
        let _ = self
            .outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                granted = want.min(self.caps.max_send_wr.saturating_sub(cur));
                (granted > 0).then(|| cur + granted)
            });
        granted
    }

    /// Hand one validated WR, its slot claimed, to the fabric.
    fn launch(
        &self,
        net: Arc<NetworkState>,
        peer: PeerId,
        wr: &SendWr,
        (segments, total, snapshot): PreparedSend,
        mut opts: PostOptions,
    ) {
        self.counters.send_posted.inc();
        self.counters.bytes_posted.add(total);
        if wr.inline_data {
            // Inline rides the doorbell write: the small-message fast lane.
            opts.small_lane = true;
        }
        let job = TransferJob {
            src_node: self.node.id,
            dst_node: peer.node,
            src_qp: self.qp_num,
            dst_qp: peer.qp_num,
            wr_id: wr.wr_id,
            segments,
            remote_addr: wr.remote_addr,
            rkey: wr.rkey,
            // Below the QP an immediate *is* the opcode: a write carrying
            // one consumes a receive WR, and a bare write's is dropped here.
            imm: wr.imm.filter(|_| wr.opcode == Opcode::RdmaWriteWithImm),
            total_len: total as u32,
            inline_payload: snapshot,
            psn: self.assign_psn(),
            ghost: false,
            flow: wr.flow,
            opts,
        };
        self.fabric.submit(net, job);
    }

    /// Post a batch of send work requests through one doorbell
    /// (`ibv_post_send` with a chained WR list).
    ///
    /// All WRs are validated *before* any slot is claimed: an invalid WR
    /// anywhere in the batch returns its error with nothing posted. The
    /// outstanding-WR cap is then consumed in a single atomic update for the
    /// whole batch; when fewer than `wrs.len()` slots are free, the leading
    /// `n` WRs are posted and `Ok(n)` is returned — `Ok(0)` means the send
    /// queue was full (callers spill the rest exactly as they would after
    /// `SendQueueFull`).
    pub fn post_send_batch(self: &Arc<Self>, wrs: &[SendWr], opts: PostOptions) -> Result<usize> {
        if wrs.is_empty() {
            return Ok(0);
        }
        let st = self.state();
        if st != QpState::ReadyToSend {
            return Err(VerbsError::InvalidQpState {
                actual: st,
                required: QpState::ReadyToSend,
            });
        }
        let peer = self.peer().ok_or(VerbsError::PeerNotSet)?;
        let net = self.net.upgrade().expect("network outlives queue pairs");

        if let [wr] = wrs {
            // One WR stages on the stack. An unclaimed slot drops the
            // prepared entry, handing any inline snapshot back to the arena.
            let prepared = self.prepare_send(&net, wr)?;
            let granted = self.claim_slots(1);
            if granted == 1 {
                self.launch(net, peer, wr, prepared, opts);
            }
            return Ok(granted as usize);
        }

        // Take (don't hold) the pooled staging vector: a concurrent post on
        // the same QP simply pays a fresh allocation for its batch.
        let mut prepared = std::mem::take(&mut *self.prepare_scratch.lock());
        let mut result = Ok(0);
        for wr in wrs {
            match self.prepare_send(&net, wr) {
                Ok(p) => prepared.push(p),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if result.is_ok() {
            let granted = self.claim_slots(wrs.len().min(u32::MAX as usize) as u32) as usize;
            for (wr, p) in wrs.iter().zip(prepared.drain(..granted)) {
                self.launch(net.clone(), peer, wr, p, opts);
            }
            result = Ok(granted);
        }
        prepared.clear();
        *self.prepare_scratch.lock() = prepared;
        result
    }

    /// Release an outstanding-WR slot (fabric-internal, at send completion).
    ///
    /// A release against an already-zero count would mean a completion
    /// fired for a WR that never claimed a slot (or fired twice). Rather
    /// than wrapping the counter — which would silently widen the cap and
    /// poison every later ledger — the release saturates at zero and the
    /// underflow is recorded, turning the bug into a telemetry invariant
    /// violation.
    pub(crate) fn release_send_slot(&self) {
        let claimed = self
            .outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                cur.checked_sub(1)
            });
        if claimed.is_err() {
            self.counters.slot_underflows.inc();
            debug_assert!(false, "send-slot accounting underflow");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{connect_pair, Network};
    use crate::InstantFabric;

    fn connected_pair(net: &Network, max_recv_wr: u32) -> (Arc<QueuePair>, Arc<QueuePair>) {
        let (a, b) = (net.open(0).unwrap(), net.open(1).unwrap());
        let caps = QpCaps {
            max_recv_wr,
            ..QpCaps::default()
        };
        let qa = a
            .create_qp(a.alloc_pd(), a.create_cq(), a.create_cq(), caps)
            .unwrap();
        let qb = b
            .create_qp(b.alloc_pd(), b.create_cq(), b.create_cq(), caps)
            .unwrap();
        connect_pair(&qa, &qb).unwrap();
        (qa, qb)
    }

    /// A top-up posts what `post_recv` called up to the same depth posts:
    /// the same WRs, the same `recv_posted`, round after round, and an
    /// over-deep top-up fills the queue and then fails as the per-WR loop
    /// does.
    #[test]
    fn top_up_matches_per_wr_posting() {
        let net = Network::new(2, InstantFabric::new());
        let (_, per_wr) = connected_pair(&net, 8);
        let (_, topped) = connected_pair(&net, 8);
        for (round, (depth, consumed)) in [(4usize, 3usize), (6, 6), (6, 0), (2, 1)]
            .into_iter()
            .enumerate()
        {
            let wr_id = round as u64;
            for _ in per_wr.recv_queue_depth()..depth {
                per_wr.post_recv(RecvWr::bare(wr_id)).unwrap();
            }
            let posted = topped.top_up_recv(depth, wr_id).unwrap();
            assert_eq!(topped.recv_queue_depth(), per_wr.recv_queue_depth());
            assert_eq!(
                topped.counters().recv_posted.get(),
                per_wr.counters().recv_posted.get(),
                "round {round}"
            );
            let ids = |qp: &QueuePair| qp.rx().queue.iter().copied().collect::<Vec<_>>();
            assert_eq!(ids(&topped), ids(&per_wr));
            assert!(posted <= depth);
            for qp in [&per_wr, &topped] {
                let mut rx = qp.rx();
                let n = consumed.min(rx.queue.len());
                rx.queue.drain(..n);
            }
        }
        let before = topped.counters().recv_posted.get();
        let have = topped.recv_queue_depth();
        assert_eq!(topped.top_up_recv(9, 7), Err(VerbsError::RecvQueueFull));
        assert_eq!(topped.recv_queue_depth(), 8, "the queue is filled first");
        assert_eq!(
            topped.counters().recv_posted.get(),
            before + (8 - have) as u64
        );
        assert_eq!(topped.top_up_recv(8, 7), Ok(0));
    }

    /// A WR whose segments add up past [`MAX_WR_BYTES`] is refused at post,
    /// alone or anywhere in a batch, before any slot is claimed: no CQE, no
    /// ledger count, and the QP still takes a full window afterwards. Two
    /// 3 GiB segments over virtual regions make the 6 GiB WR.
    #[test]
    fn a_wr_longer_than_the_wire_carries_is_refused_at_post() {
        use crate::types::{Sge, WcStatus};
        let net = Network::new(2, InstantFabric::new());
        let (a, b) = (net.open(0).unwrap(), net.open(1).unwrap());
        let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
        let (send_cq, recv_cq) = (a.create_cq(), b.create_cq());
        let caps = QpCaps::default();
        let qa = a.create_qp(pda, send_cq.clone(), a.create_cq(), caps);
        let qb = b.create_qp(pdb, b.create_cq(), recv_cq.clone(), caps);
        let (qa, qb) = (qa.unwrap(), qb.unwrap());
        connect_pair(&qa, &qb).unwrap();
        const SEG: u32 = 3 << 30;
        let src = a.reg_mr_virtual(pda, 2 * SEG as usize).unwrap();
        let dst = b.reg_mr_virtual(pdb, 2 * SEG as usize).unwrap();
        let wr = |wr_id: u64, lens: &[u32]| SendWr {
            wr_id,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: (lens.iter().scan(0u64, |off, &length| {
                let sge = Sge {
                    addr: src.addr() + *off,
                    length,
                    lkey: src.lkey(),
                };
                *off += u64::from(length);
                Some(sge)
            }))
            .collect(),
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: Some(wr_id as u32),
            inline_data: false,
            flow: 0,
        };
        let too_long = wr(99, &[SEG, SEG]);
        let refused = Err(VerbsError::WrTooLarge {
            got: 2 * u64::from(SEG),
            max: MAX_WR_BYTES,
        });
        let window = caps.max_send_wr as u64;
        qb.top_up_recv(2 * window as usize, 7).unwrap();
        let before = net.state().telemetry_snapshot();

        assert_eq!(qa.post_send(too_long.clone()).map(|()| 1), refused);
        let mut batch: Vec<SendWr> = (0..3).map(|i| wr(i, &[64])).collect();
        batch.insert(1, too_long);
        assert_eq!(qa.post_send_batch(&batch, PostOptions::default()), refused);
        assert!(send_cq.poll_one().is_none() && recv_cq.poll_one().is_none());
        assert_eq!(
            net.state().telemetry_snapshot(),
            before,
            "a refusal counts nothing"
        );
        assert_eq!(qa.outstanding(), 0);

        // The longest WR the wire carries, and then a full window, post.
        let longest = wr(100, &[SEG, u32::MAX - SEG]);
        assert_eq!(
            qa.post_send_batch(&[longest], PostOptions::default()),
            Ok(1)
        );
        let full: Vec<SendWr> = (0..window).map(|i| wr(i, &[64])).collect();
        assert_eq!(
            qa.post_send_batch(&full, PostOptions::default()),
            Ok(window as usize)
        );
        let sent = std::iter::from_fn(|| send_cq.poll_one()).collect::<Vec<_>>();
        assert!(sent.iter().all(|wc| wc.status == WcStatus::Success));
        assert_eq!(sent.len() as u64, window + 1);
        let landed = std::iter::from_fn(|| recv_cq.poll_one()).collect::<Vec<_>>();
        assert_eq!(landed[0].byte_len, u32::MAX);
        assert_eq!(landed.len() as u64, window + 1);
    }

    /// Connecting makes the peer's PSN window, with room; deliveries mark
    /// into it without making a second one or growing it, and a reconnect
    /// finds it.
    #[test]
    fn connect_makes_the_peer_window_once() {
        let net = Network::new(2, InstantFabric::new());
        let (a, b) = (net.open(0).unwrap(), net.open(1).unwrap());
        let qa = a
            .create_qp(
                a.alloc_pd(),
                a.create_cq(),
                a.create_cq(),
                QpCaps::default(),
            )
            .unwrap();
        let qb = b
            .create_qp(
                b.alloc_pd(),
                b.create_cq(),
                b.create_cq(),
                QpCaps::default(),
            )
            .unwrap();
        connect_pair(&qa, &qb).unwrap();

        let peer = qa.qp_num();
        let mut rx = qb.rx.lock();
        assert_eq!(rx.applied.len(), 1);
        assert_eq!(rx.applied[0].0, peer);
        let room = rx.applied[0].1.recent.capacity();
        assert!(room >= 1);
        for psn in [0, 2, 1, 3] {
            rx.mark_psn(peer, psn);
        }
        rx.window(peer);
        assert_eq!(rx.applied.len(), 1);
        assert_eq!(rx.applied[0].1.watermark, 4);
        assert_eq!(rx.applied[0].1.recent.capacity(), room);
        assert!(rx.psn_seen(peer, 3) && !rx.psn_seen(peer, 4));
        assert!(!rx.psn_seen(peer + 1, 0));
    }
}
