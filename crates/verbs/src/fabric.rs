//! The fabric abstraction and the shared data-movement engine.
//!
//! A [`Fabric`] decides *when* a posted transfer's side effects occur. Two
//! implementations exist:
//!
//! - [`InstantFabric`](crate::InstantFabric) — everything happens inside
//!   `post_send` (functional mode for examples/tests on real threads);
//! - [`SimFabric`](crate::SimFabric) — effects are scheduled on the virtual
//!   clock according to a LogGP-parameterised cost model.
//!
//! Both share [`execute_delivery`], which really moves the bytes and
//! produces the completions, so data-integrity behaviour is identical.

use std::sync::Arc;

use partix_sim::{SimDuration, SimTime};

use crate::buf::{InlineVec, PooledBuf};
use crate::network::{NetworkState, NodeCtx};
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
    /// Gather segments checked at post time, read at delivery out of their
    /// source regions: the sending node's own, or (a receiver in another
    /// process, which checks the list again before it delivers) its
    /// read-only views of them.
    Segments(&'a NodeCtx, &'a InlineVec<ResolvedSegment>),
    /// The bytes themselves, in up to two pieces (either may be empty): an
    /// inline snapshot, or an inline record still in the ring it arrived
    /// on, split where the ring wraps.
    Bytes([&'a [u8]; 2]),
}

/// What the send-side completion of a posted WR reads: the sender's whole
/// record of it between post and completion.
#[derive(Clone, Copy, Debug)]
pub struct PostedSend {
    /// Originating node.
    pub src_node: NodeId,
    /// Originating QP number.
    pub src_qp: u32,
    /// Caller's WR id.
    pub wr_id: u64,
    /// Total bytes.
    pub total_len: u32,
    /// Causal-trace flow identifier (0 = untraced).
    pub flow: u64,
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
            Some(snapshot) => Payload::Bytes([snapshot, &[]]),
            None => Payload::Segments(
                net.node(self.src_node).expect("the posting node exists"),
                &self.segments,
            ),
        }
    }

    /// The completion-side view of this job.
    pub fn posted(&self) -> PostedSend {
        PostedSend {
            src_node: self.src_node,
            src_qp: self.src_qp,
            wr_id: self.wr_id,
            total_len: self.total_len,
            flow: self.flow,
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
    /// `lkey`. `None`, the default, puts it on the heap. A fabric whose peers
    /// read a region in place, in another process, maps it from a file they
    /// can open (a host-mode [`ShmFabric`](crate::ShmFabric)).
    fn region_storage(
        &self,
        node: NodeId,
        lkey: u32,
        len: usize,
    ) -> std::io::Result<Option<Arc<FileMapping>>> {
        let _ = (node, lkey, len);
        Ok(None)
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
/// header: validate the remote address, copy the bytes, and (for
/// write-with-immediate) consume a receive WR and push the receive
/// completion. Returns what happened so the fabric can construct the
/// matching send-side completion.
///
/// The payload source is the caller's choice, and is read only by a
/// delivery that lands: a suppressed duplicate, a protection failure or a
/// receiver-not-ready outcome never touches it. Timing studies over
/// many-gigabyte sweeps disable the byte copies (`copy_data = false`): all
/// validation, receive-WR accounting and completions still happen, so
/// control-flow behaviour is identical.
pub fn execute_delivery(
    net: &Arc<NetworkState>,
    job: &DeliveryHeader,
    payload: Payload<'_>,
    copy_data: bool,
) -> DeliveryOutcome {
    // Telemetry: the attempt is counted before any validation so that the
    // outcome buckets below always partition the attempts exactly — the
    // "outcome partition" invariant. Every return path of `deliver` maps to
    // precisely one bucket.
    let wire = &net.telemetry().wire;
    wire.delivery_attempts.inc();
    let outcome = deliver(net, job, payload, copy_data);
    match &outcome {
        DeliveryOutcome::Delivered { bytes } => {
            wire.delivered.inc();
            wire.bytes_delivered.add(*bytes as u64);
            if job.ghost {
                wire.delivered_ghost.inc();
            }
            net.telemetry().flows.event(
                job.flow,
                partix_telemetry::FlowStage::Delivered,
                job.src_qp,
                0,
                *bytes as u64,
            );
            // A write-with-immediate pushes a receive CQE on delivery;
            // mirrored against the CQ-side `recv_pushed` count.
            if job.imm.is_some() {
                wire.recv_cqes.inc();
            }
        }
        DeliveryOutcome::Duplicate => wire.duplicates_suppressed.inc(),
        DeliveryOutcome::RemoteAccessError => wire.remote_errors.inc(),
        DeliveryOutcome::ReceiverNotReady => wire.receiver_not_ready.inc(),
    }
    outcome
}

fn deliver(
    net: &Arc<NetworkState>,
    job: &DeliveryHeader,
    payload: Payload<'_>,
    copy_data: bool,
) -> DeliveryOutcome {
    let Ok(dst_qp) = net.qp(job.dst_node, job.dst_qp) else {
        return DeliveryOutcome::RemoteAccessError;
    };
    // Admission, one critical section on the destination QP's receive side.
    // PSN suppression comes first: a retransmission or duplicate of an
    // already-applied transfer is dropped *before* it can consume a receive
    // WR or write memory, turning at-least-once wire behaviour into
    // exactly-once at the memory region. The PSN is marked only once nothing
    // can fail any more, so an RNR-deferred attempt is never mistaken for a
    // duplicate.
    let mut rx = dst_qp.rx();
    if rx.psn_seen(job.src_qp, job.psn) {
        return DeliveryOutcome::Duplicate;
    }
    // Validate the remote address *before* consuming a receive WR, so a
    // protection failure leaves the receive queue untouched.
    let Ok((dst_mr, base_off)) =
        dst_qp
            .mrs()
            .resolve_remote(job.rkey, job.remote_addr, job.total_len as u64)
    else {
        return DeliveryOutcome::RemoteAccessError;
    };
    let recv_wr_id = if job.imm.is_some() {
        let Some(wr_id) = rx.queue.pop_front() else {
            return DeliveryOutcome::ReceiverNotReady;
        };
        dst_qp.counters().recv_consumed.inc();
        Some(wr_id)
    } else {
        None
    };
    rx.mark_psn(job.src_qp, job.psn);
    drop(rx);

    // Gather: copy each piece of the payload into the contiguous remote
    // range.
    if copy_data {
        let mut cursor = base_off;
        match payload {
            Payload::Bytes(pieces) => {
                for piece in pieces {
                    dst_mr
                        .write(cursor, piece)
                        .expect("range validated at resolve time");
                    cursor += piece.len();
                }
            }
            Payload::Segments(src, segments) => {
                for seg in segments.iter() {
                    let mr = src.mrs.by_lkey(seg.lkey).expect("lkey checked at post");
                    dst_mr
                        .copy_from(cursor, mr, seg.offset, seg.len)
                        .expect("ranges validated at post (or receipt) and resolve time");
                    cursor += seg.len;
                }
            }
        }
    }

    if let Some(wr_id) = recv_wr_id {
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

/// Push the send-side completion for `job` with `status`, releasing the
/// outstanding-WR slot; drives the source QP to the error state on failure
/// (as real hardware does).
pub fn complete_send(net: &Arc<NetworkState>, job: &TransferJob, status: WcStatus) {
    if job.ghost {
        // Injected duplicates never completed at the sender in the first
        // place: no CQE, no slot release, no error state.
        return;
    }
    complete_posted(net, &job.posted(), status);
}

/// [`complete_send`] for a WR known by what its sender kept of it.
pub fn complete_posted(net: &Arc<NetworkState>, wr: &PostedSend, status: WcStatus) {
    let Ok(src_qp) = net.qp(wr.src_node, wr.src_qp) else {
        return;
    };
    src_qp.release_send_slot();
    if status == WcStatus::Success {
        src_qp.counters().completed_success.inc();
        src_qp.counters().bytes_completed.add(wr.total_len as u64);
    } else {
        src_qp.counters().completed_error.inc();
        src_qp.set_error();
    }
    src_qp.send_cq().push(WorkCompletion {
        wr_id: wr.wr_id,
        status,
        opcode: WcOpcode::RdmaWrite,
        byte_len: wr.total_len,
        imm: None,
        qp_num: src_qp.qp_num(),
        flow: wr.flow,
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
