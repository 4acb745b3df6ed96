//! The fabric abstraction and the shared data-movement engine.
//!
//! A [`Fabric`] decides *when* a posted transfer's side effects occur, and
//! where: [`InstantFabric`](crate::InstantFabric) inside `post_send`,
//! [`SimFabric`](crate::SimFabric) on the virtual clock, and
//! [`ShmFabric`](crate::ShmFabric) on real threads, its sender placing the
//! bytes and its receiver's poll notifying. All run the one delivery engine's
//! two halves ([`execute_delivery`]), so data-integrity behaviour is
//! identical.

use std::sync::Arc;

use partix_sim::{SimDuration, SimTime};

use crate::buf::{InlineVec, PooledBuf};
use crate::memory::{MemoryRegion, MrRegistry};
use crate::network::{NetworkState, NodeCtx};
use crate::qp::QueuePair;
use crate::shm::FileMapping;
use crate::types::{NodeId, WcOpcode, WcStatus, WorkCompletion};

/// A gather segment checked against local registrations at post time: the
/// source region by its lkey, which names it for the life of the network
/// (regions are never deregistered), and the range within it.
#[derive(Clone, Copy, Debug)]
pub struct ResolvedSegment {
    /// Local key of the source region.
    pub lkey: u32,
    /// Offset within the region.
    pub offset: usize,
    /// Byte length.
    pub len: usize,
}

/// Software-path timing options a caller can attach to a post. These model
/// costs *above* the verbs layer (protocol copies, lock waits, matching) —
/// the instant fabric ignores them.
#[derive(Clone, Copy, Debug, Default)]
pub struct PostOptions {
    /// Earliest virtual time the NIC may start processing the WQE (the end
    /// of the software path that produced it). `None` means "now".
    pub earliest: Option<SimTime>,
    /// Extra one-way wire latency (e.g. a rendezvous RTS/CTS handshake).
    pub extra_wire_latency: SimDuration,
    /// Small-message fast lane: the payload rides the doorbell write
    /// (inlining / BlueFlame), skipping the WQE DMA fetch. UCX uses this for
    /// small eager messages; the paper's module deliberately does not
    /// (§IV-A), which is why its aggregators lose below ~2 KiB.
    pub small_lane: bool,
}

/// Everything the fabric needs to carry out one posted send WR. Cloneable
/// so reliability decorators can retransmit or duplicate a transfer.
#[derive(Clone)]
pub struct TransferJob {
    /// Originating node.
    pub src_node: NodeId,
    /// Destination node.
    pub dst_node: NodeId,
    /// Originating QP number.
    pub src_qp: u32,
    /// Destination QP number.
    pub dst_qp: u32,
    /// Caller's WR id.
    pub wr_id: u64,
    /// Resolved gather list. Inline up to four segments: partitioned
    /// aggregation posts one or two SGEs per WR, so the common case carries
    /// no heap allocation inside the job.
    pub segments: InlineVec<ResolvedSegment>,
    /// Remote NIC-visible destination address.
    pub remote_addr: u64,
    /// Remote key.
    pub rkey: u32,
    /// Immediate data, present exactly for a write-with-immediate: the
    /// transfer consumes a receive WR if and only if it carries one.
    pub imm: Option<u32>,
    /// Total bytes.
    pub total_len: u32,
    /// Payload snapshot taken at post time for inline sends (`None` for
    /// ordinary gather-at-delivery transfers). Pooled and refcounted:
    /// cloning the job for a retransmission or ghost duplicate shares the
    /// same slot buffer, and the storage returns to the arena only when the
    /// last clone drops.
    pub inline_payload: Option<PooledBuf>,
    /// Packet sequence number assigned by the source QP at post time.
    /// Retransmissions and injected duplicates of the same WR share one
    /// PSN, which is what lets the destination suppress re-deliveries.
    pub psn: u64,
    /// A spurious wire-level duplicate injected by a lossy decorator: it may
    /// deliver payload (subject to the PSN check) but must never produce a
    /// send-side completion or touch the sender's outstanding-WR slot.
    pub ghost: bool,
    /// Causal-trace flow identifier copied from the posting WR (0 =
    /// untraced). Clones — retransmissions, ghost duplicates — keep it, so
    /// every wire attempt of a message traces back to one flow.
    pub flow: u64,
    /// Software-path timing options.
    pub opts: PostOptions,
}

/// What a delivery reads of a transfer besides its payload: small and
/// `Copy`, so a wire that carries transfers as records (the shared-memory
/// fabric) can deliver straight from a parsed record header without building
/// a [`TransferJob`].
#[derive(Clone, Copy, Debug)]
pub struct DeliveryHeader {
    /// Originating QP number.
    pub src_qp: u32,
    /// Destination node.
    pub dst_node: NodeId,
    /// Destination QP number.
    pub dst_qp: u32,
    /// Remote NIC-visible destination address.
    pub remote_addr: u64,
    /// Remote key.
    pub rkey: u32,
    /// Immediate data (see [`TransferJob::imm`]).
    pub imm: Option<u32>,
    /// Total bytes.
    pub total_len: u32,
    /// Packet sequence number (see [`TransferJob::psn`]).
    pub psn: u64,
    /// Spurious wire-level duplicate (see [`TransferJob::ghost`]).
    pub ghost: bool,
    /// Causal-trace flow identifier (0 = untraced).
    pub flow: u64,
}

/// Where a delivery's bytes come from.
#[derive(Clone, Copy)]
pub enum Payload<'a> {
    /// Gather segments checked at post time, read at delivery out of the
    /// sending node's regions.
    Segments(&'a NodeCtx, &'a InlineVec<ResolvedSegment>),
    /// The bytes themselves: an inline send's snapshot.
    Bytes(&'a [u8]),
}

impl TransferJob {
    /// The delivery-side view of this job.
    pub fn delivery_header(&self) -> DeliveryHeader {
        DeliveryHeader {
            src_qp: self.src_qp,
            dst_node: self.dst_node,
            dst_qp: self.dst_qp,
            remote_addr: self.remote_addr,
            rkey: self.rkey,
            imm: self.imm,
            total_len: self.total_len,
            psn: self.psn,
            ghost: self.ghost,
            flow: self.flow,
        }
    }

    /// This job's payload source on `net`: the post-time snapshot of an
    /// inline send (the source region may have been rewritten since), else
    /// the gather list over the sending node's regions.
    pub fn payload<'a>(&'a self, net: &'a NetworkState) -> Payload<'a> {
        match &self.inline_payload {
            Some(snapshot) => Payload::Bytes(snapshot),
            None => Payload::Segments(
                net.node(self.src_node).expect("the posting node exists"),
                &self.segments,
            ),
        }
    }
}

/// The largest payload one WR may carry, in bytes (the
/// `ibv_device_attr.max_msg_sz` analogue), on every fabric: the longest
/// [`Sge`](crate::Sge), whose `length` is a `u32`. A WR whose segments add
/// up to more is refused at post with
/// [`VerbsError::WrTooLarge`](crate::VerbsError::WrTooLarge).
pub const MAX_WR_BYTES: u64 = u32::MAX as u64;

/// Moves bytes for posted work requests and delivers completions.
pub trait Fabric: Send + Sync {
    /// Accept a validated transfer job. Implementations must eventually:
    /// move the bytes, push the receive-side completion (for
    /// write-with-immediate), push the send-side completion, and release the
    /// sender's outstanding-WR slot. The network handle is the poster's, handed
    /// over so that a fabric which keeps it until delivery need not clone it.
    fn submit(&self, net: Arc<NetworkState>, job: TransferJob);

    /// Storage for the region of `len` bytes that `node` registers under
    /// `lkey` at NIC-visible address `addr`. `None`, the default, puts it on
    /// the heap. A fabric whose peers write a region in place, from another
    /// process, maps it from a file they can open (a host-mode
    /// [`ShmFabric`](crate::ShmFabric)).
    fn region_storage(
        &self,
        node: NodeId,
        lkey: u32,
        addr: u64,
        len: usize,
    ) -> std::io::Result<Option<Arc<FileMapping>>> {
        let _ = (node, lkey, addr, len);
        Ok(None)
    }

    /// QP `qp_num` of `node` has had `posted` receive WRs posted in all (a
    /// monotone count), called under the QP's receive lock by every post. The
    /// default ignores it; a fabric whose senders spend receive credits (a
    /// [`ShmFabric`](crate::ShmFabric)) publishes it, and a decorator passes
    /// it on.
    fn recv_posted(&self, node: NodeId, qp_num: u32, posted: u64) {
        let _ = (node, qp_num, posted);
    }

    /// Make what progress this fabric can on the calling thread, for a
    /// poller that found its completion queue empty. Returns whether the
    /// fabric progresses on its pollers' threads at all: `false`, the
    /// default, says its completions arrive without a poller's help, and
    /// [`Context::create_cq`](crate::Context::create_cq), which asks once,
    /// then leaves the fabric off the queue. A fabric that returns `true`
    /// must tolerate calls from any thread, concurrent ones and ones from
    /// inside its own completion pushes included.
    fn progress(&self) -> bool {
        false
    }
}

/// Outcome of executing a delivery.
pub enum DeliveryOutcome {
    /// Data landed; for write-with-immediate the receive completion was
    /// pushed to the destination's recv CQ.
    Delivered {
        /// Bytes written.
        bytes: u32,
    },
    /// The remote rkey/address check failed; nothing was written.
    RemoteAccessError,
    /// No receive WR was posted on the destination QP (write-with-imm).
    ReceiverNotReady,
    /// The destination had already applied this `(src_qp, psn)`: a
    /// retransmission or injected duplicate arrived after the original
    /// landed. Nothing was consumed or written; the sender still sees
    /// success (the data *is* there).
    Duplicate,
}

/// Execute the destination-side effects of a transfer described by its
/// header: *place* (check the rkey and bounds, then copy the bytes) and
/// *notify* (check the PSN, take a receive WR for an immediate, push the
/// receive completion), the halves real RDMA splits between the responder's
/// NIC and its CPU. Returns what happened, for the send-side completion.
///
/// The order is the contract: (1) the destination QP and place's check, else
/// `RemoteAccessError`; (2) notify's checks, under the QP's receive lock — a
/// PSN already applied is `Duplicate`, an immediate with no receive WR
/// `ReceiverNotReady`, and only then are the receive WR taken and the PSN
/// marked; (3) place's copy; (4) notify's completion. A failed check writes
/// nothing, so a duplicate writes nothing; (1) and (2) commute, since a
/// duplicate carries its original's rkey and regions are never
/// deregistered. A fabric that runs the halves apart (a shared-memory sender
/// places, its receiver notifies) copies before notify's checks, and keeps
/// both rules itself: a ghost places nothing, and a write-with-imm is placed
/// only with a receive credit.
///
/// The payload is read only by a delivery that lands. Timing studies over
/// many-gigabyte sweeps disable the copies (`copy_data = false`): every
/// check, receive WR and completion still happens.
pub fn execute_delivery(
    net: &Arc<NetworkState>,
    job: &DeliveryHeader,
    payload: Payload<'_>,
    copy_data: bool,
) -> DeliveryOutcome {
    let deliver = || {
        let Ok(dst_qp) = net.qp(job.dst_node, job.dst_qp) else {
            return DeliveryOutcome::RemoteAccessError;
        };
        let Some((dst_mr, offset)) = placement(dst_qp.mrs(), job) else {
            return DeliveryOutcome::RemoteAccessError;
        };
        let recv = match admit(dst_qp, job) {
            Ok(recv) => recv,
            Err(outcome) => return outcome,
        };
        if copy_data {
            place(dst_mr, offset, payload);
        }
        push_recv_cqe(net, dst_qp, job, recv)
    };
    let outcome = deliver();
    record_attempt(net, job, &outcome);
    outcome
}

/// The notify half alone, for a transfer whose bytes its sender has placed
/// already: steps (2) and (4) of [`execute_delivery`]'s contract, recorded
/// in the wire ledger as one delivery attempt.
pub(crate) fn notify(net: &Arc<NetworkState>, job: &DeliveryHeader) -> DeliveryOutcome {
    let outcome = match net.qp(job.dst_node, job.dst_qp) {
        Ok(dst_qp) => match admit(dst_qp, job) {
            Ok(recv) => push_recv_cqe(net, dst_qp, job, recv),
            Err(outcome) => outcome,
        },
        Err(_) => DeliveryOutcome::RemoteAccessError,
    };
    record_attempt(net, job, &outcome);
    outcome
}

/// Place's check: the region of `mrs` that `job`'s rkey names, and the
/// offset of its remote address, if the whole range lies inside it.
pub(crate) fn placement<'a>(
    mrs: &'a MrRegistry,
    job: &DeliveryHeader,
) -> Option<(&'a MemoryRegion, usize)> {
    (mrs.resolve_remote(job.rkey, job.remote_addr, job.total_len as u64)).ok()
}

/// Place's copy: each piece of the payload, in order, into the contiguous
/// range at `offset` of `dst`, which [`placement`] checked.
pub(crate) fn place(dst: &MemoryRegion, offset: usize, payload: Payload<'_>) {
    let mut cursor = offset;
    match payload {
        Payload::Bytes(bytes) => {
            dst.write(cursor, bytes)
                .expect("range validated at resolve time");
        }
        Payload::Segments(src, segments) => {
            for seg in segments.iter() {
                let mr = src.mrs.by_lkey(seg.lkey).expect("lkey checked at post");
                dst.copy_from(cursor, mr, seg.offset, seg.len)
                    .expect("ranges validated at post and resolve time");
                cursor += seg.len;
            }
        }
    }
}

/// Notify's checks, one critical section on the destination QP's receive
/// side: PSN suppression first, so a retransmission or duplicate of an
/// applied transfer consumes nothing (at-least-once on the wire, exactly
/// once at the region); then the receive WR of an immediate. The PSN is
/// marked only once nothing can fail, so a receiver-not-ready attempt is
/// never mistaken for a duplicate. `Ok` holds the receive WR taken.
fn admit(dst_qp: &QueuePair, job: &DeliveryHeader) -> Result<Option<u64>, DeliveryOutcome> {
    let mut rx = dst_qp.rx();
    if rx.psn_seen(job.src_qp, job.psn) {
        return Err(DeliveryOutcome::Duplicate);
    }
    if job.imm.is_some() && rx.queue.is_empty() {
        return Err(DeliveryOutcome::ReceiverNotReady);
    }
    let recv = job.imm.and_then(|_| rx.queue.pop_front());
    if recv.is_some() {
        dst_qp.counters().recv_consumed.inc();
    }
    rx.mark_psn(job.src_qp, job.psn);
    Ok(recv)
}

/// Notify's completion: the receive CQE of the receive WR `recv` took.
fn push_recv_cqe(
    net: &Arc<NetworkState>,
    dst_qp: &QueuePair,
    job: &DeliveryHeader,
    recv: Option<u64>,
) -> DeliveryOutcome {
    if let Some(wr_id) = recv {
        dst_qp.recv_cq().push(WorkCompletion {
            wr_id,
            status: WcStatus::Success,
            opcode: WcOpcode::RecvRdmaWithImm,
            byte_len: job.total_len,
            imm: job.imm,
            qp_num: dst_qp.qp_num(),
            flow: job.flow,
            pushed_ns: net.telemetry().flows.now(),
        });
    }
    DeliveryOutcome::Delivered {
        bytes: job.total_len,
    }
}

/// Count one delivery attempt of `job` and its outcome in the wire ledger.
/// Attempt and outcome are counted together, so the outcome buckets always
/// partition the attempts exactly (the "outcome partition" law).
pub(crate) fn record_attempt(net: &NetworkState, job: &DeliveryHeader, outcome: &DeliveryOutcome) {
    let wire = &net.telemetry().wire;
    wire.delivery_attempts.inc();
    match outcome {
        DeliveryOutcome::Delivered { bytes } => {
            wire.delivered.inc();
            wire.bytes_delivered.add(*bytes as u64);
            if job.ghost {
                wire.delivered_ghost.inc();
            }
            let stage = partix_telemetry::FlowStage::Delivered;
            (net.telemetry().flows).event(job.flow, stage, job.src_qp, 0, *bytes as u64);
            // Mirrored against the CQ-side `recv_pushed` count.
            if job.imm.is_some() {
                wire.recv_cqes.inc();
            }
        }
        DeliveryOutcome::Duplicate => wire.duplicates_suppressed.inc(),
        DeliveryOutcome::RemoteAccessError => wire.remote_errors.inc(),
        DeliveryOutcome::ReceiverNotReady => wire.receiver_not_ready.inc(),
    }
}

/// Push the send-side completion for `job` with `status`, releasing the
/// outstanding-WR slot; drives the source QP to the error state on failure
/// (as real hardware does).
pub fn complete_send(net: &Arc<NetworkState>, job: &TransferJob, status: WcStatus) {
    // Injected duplicates never completed at the sender in the first place:
    // no CQE, no slot release, no error state.
    let (false, Ok(src_qp)) = (job.ghost, net.qp(job.src_node, job.src_qp)) else {
        return;
    };
    src_qp.release_send_slot();
    if status == WcStatus::Success {
        src_qp.counters().completed_success.inc();
        src_qp.counters().bytes_completed.add(job.total_len as u64);
    } else {
        src_qp.counters().completed_error.inc();
        src_qp.set_error();
    }
    src_qp.send_cq().push(WorkCompletion {
        wr_id: job.wr_id,
        status,
        opcode: WcOpcode::RdmaWrite,
        byte_len: job.total_len,
        imm: None,
        qp_num: src_qp.qp_num(),
        flow: job.flow,
        pushed_ns: net.telemetry().flows.now(),
    });
}

/// The retry/timeout attributes of the QP that posted `job`, for fabrics
/// and reliability decorators deciding how often to retry and how long to
/// back off. `None` if the source QP no longer resolves.
pub fn sender_retry_profile(
    net: &Arc<NetworkState>,
    job: &TransferJob,
) -> Option<crate::qp::RetryProfile> {
    Some(net.qp(job.src_node, job.src_qp).ok()?.retry_profile())
}

/// Map a delivery outcome to the send-side completion status.
pub fn outcome_status(outcome: &DeliveryOutcome) -> WcStatus {
    match outcome {
        DeliveryOutcome::Delivered { .. } => WcStatus::Success,
        // The payload of this PSN already landed via an earlier attempt, so
        // from the WR's point of view the transfer succeeded.
        DeliveryOutcome::Duplicate => WcStatus::Success,
        DeliveryOutcome::RemoteAccessError => WcStatus::RemoteAccessError,
        DeliveryOutcome::ReceiverNotReady => WcStatus::RnrRetryExceeded,
    }
}
