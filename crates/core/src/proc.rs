//! Per-process runtime state and the progress engine.
//!
//! The progress engine is single-threaded by construction (paper §IV-A):
//! callers attempt to acquire a try-lock; the winner polls all CQs until
//! quiescent and drains software-pending WRs, everyone else returns
//! immediately.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use partix_sim::{SerialResource, Slab, TimeSource};
use partix_verbs::telemetry::Registry;
use partix_verbs::{
    CompletionQueue, Context, PostOptions, ProtectionDomain, SendWr, VerbsError, WcStatus,
    WorkCompletion,
};

use crate::config::PartixConfig;
use crate::request::{PendingPost, RecvShared, SendShared};

/// CQ entries drained per poll call inside the progress loop. One batch per
/// lock acquisition; the loop re-polls until both CQs are quiescent.
const POLL_BATCH: usize = 64;

/// A send WR between `track_send` and its completion: the request it
/// belongs to and the image QP recovery re-posts it from.
struct SendSlot {
    owner: Arc<SendShared>,
    post: PendingPost,
}

/// Every in-flight send WR of a process, at the slot its `wr_id` names (the
/// process mints the id, so it mints the index), plus the freelist of
/// retired `SendWr` shells. The `sg_list` vectors keep their capacity across
/// reuse, so steady-state posting builds WRs and their in-flight images
/// without heap allocation. One lock: minting an id, retaining the image and
/// drawing both shells is one critical section, retiring the WR another.
pub(crate) struct SendTable {
    slots: Slab<SendSlot>,
    shells: Vec<SendWr>,
}

/// Copy `src` into a recycled shell by field assignment instead of `Clone`.
fn copy_wr(dst: &mut SendWr, src: &SendWr) {
    dst.wr_id = src.wr_id;
    dst.opcode = src.opcode;
    dst.sg_list.clear();
    dst.sg_list.extend_from_slice(&src.sg_list);
    dst.remote_addr = src.remote_addr;
    dst.rkey = src.rkey;
    dst.imm = src.imm;
    dst.inline_data = src.inline_data;
    dst.flow = src.flow;
}

/// Buffers only the progress-lock winner touches, so they live inside the
/// lock and steady-state progress neither allocates nor takes a second one.
#[derive(Default)]
pub(crate) struct ProgressScratch {
    wcs: Vec<WorkCompletion>,
    /// Strong handles for the software-pending drain (upgrading the
    /// drainable weak refs is a refcount bump into retained capacity).
    strong: Vec<Arc<SendShared>>,
}

/// Internal per-rank state.
pub(crate) struct ProcInner {
    pub rank: u32,
    pub ctx: Context,
    pub pd: ProtectionDomain,
    pub send_cq: Arc<CompletionQueue>,
    pub recv_cq: Arc<CompletionQueue>,
    pub config: PartixConfig,
    /// The world's clock and timer: its scheduler, or the wall clock.
    pub time: TimeSource,
    /// World-wide telemetry registry (runtime counters live here).
    pub tel: Arc<Registry>,
    pub progress: Mutex<ProgressScratch>,
    pub sends: Mutex<SendTable>,
    /// Receive requests by the `wr_id` every receive WR they post carries
    /// (one id per request: a receive completion only has to find its
    /// request). Written at `precv_init`, emptied when the world drops.
    pub recvs: RwLock<Vec<Arc<RecvShared>>>,
    /// Send requests whose channels may hold software-pending WRs.
    pub drainable: Mutex<Vec<Weak<SendShared>>>,
    /// WRs sitting in the software-pending queues of this process's
    /// channels; progress walks `drainable` only while it is non-zero.
    pub spilled: AtomicUsize,
    /// The UCX worker lock of the persistent baseline, as a virtual-time
    /// serial resource (multi-threaded posts queue here — paper §V-B2).
    pub ucx_lock: Arc<SerialResource>,
    /// The receive-side software path (single-threaded progress engine), as
    /// a virtual-time serial resource: each incoming completion costs
    /// per-message CPU before its arrival flags become visible.
    pub recv_path: Arc<SerialResource>,
}

impl ProcInner {
    pub(crate) fn new(
        rank: u32,
        ctx: Context,
        config: PartixConfig,
        time: TimeSource,
        tel: Arc<Registry>,
    ) -> Arc<Self> {
        let pd = ctx.alloc_pd();
        let send_cq = ctx.create_cq();
        let recv_cq = ctx.create_cq();
        Arc::new(ProcInner {
            rank,
            ctx,
            pd,
            send_cq,
            recv_cq,
            config,
            time,
            tel,
            progress: Mutex::default(),
            sends: Mutex::new(SendTable {
                slots: Slab::with_capacity(0),
                shells: Vec::new(),
            }),
            recvs: RwLock::default(),
            drainable: Mutex::default(),
            spilled: AtomicUsize::new(0),
            ucx_lock: Arc::new(SerialResource::new()),
            recv_path: Arc::new(SerialResource::new()),
        })
    }

    /// Drop every request the WR tables hold (see `Drop for WorldInner`).
    pub(crate) fn forget_requests(&self) {
        self.recvs.write().clear();
        self.sends.lock().slots.clear();
    }

    /// Whether this process runs on the virtual clock.
    pub(crate) fn sim_mode(&self) -> bool {
        self.time.scheduler().is_some()
    }

    /// Mint a WR id for one send of `owner` and retain its in-flight image:
    /// `fill` writes the WR into a recycled shell, which stays in the table
    /// as the image; the returned copy is the one to post.
    pub(crate) fn track_send(
        &self,
        owner: &Arc<SendShared>,
        qp_idx: u32,
        opts: PostOptions,
        fill: impl FnOnce(&mut SendWr),
    ) -> SendWr {
        let mut t = self.sends.lock();
        let mut image = t.shells.pop().unwrap_or_default();
        let mut wr = t.shells.pop().unwrap_or_default();
        fill(&mut image);
        image.wr_id = t.slots.next_key() as u64;
        copy_wr(&mut wr, &image);
        t.slots.insert(SendSlot {
            owner: owner.clone(),
            post: PendingPost {
                qp_idx,
                wr: image,
                opts,
                queued_ns: 0,
            },
        });
        wr
    }

    /// Forget the WR `wr_id` names and return the request it belonged to —
    /// with its image when `keep_image` (a failed completion may re-post
    /// it); otherwise the image's shell goes straight back on the freelist.
    /// `None` for an id that is not in flight.
    pub(crate) fn retire_send(
        &self,
        wr_id: u64,
        keep_image: bool,
    ) -> Option<(Arc<SendShared>, Option<PendingPost>)> {
        let mut t = self.sends.lock();
        let SendSlot { owner, mut post } = t.slots.remove(u32::try_from(wr_id).ok()?)?;
        if keep_image {
            return Some((owner, Some(post)));
        }
        post.wr.sg_list.clear();
        t.shells.push(post.wr);
        Some((owner, None))
    }

    /// Return a WR shell that is no longer needed to the freelist, keeping
    /// its `sg_list` capacity.
    pub(crate) fn recycle_wr(&self, mut wr: SendWr) {
        wr.sg_list.clear();
        self.sends.lock().shells.push(wr);
    }

    /// Drive the progress engine if no one else currently is (the paper's
    /// single-threaded try-lock design).
    pub(crate) fn try_progress(self: &Arc<Self>) {
        // Dispatch handlers may re-enter here; the recursive call loses the
        // try-lock and returns.
        let Some(mut scratch) = self.progress.try_lock() else {
            return;
        };
        let ProgressScratch { wcs, strong } = &mut *scratch;
        loop {
            self.send_cq.poll_cq_into(wcs, POLL_BATCH);
            let mut polled = wcs.len();
            for wc in wcs.drain(..) {
                self.dispatch_send_wc(wc);
            }

            self.recv_cq.poll_cq_into(wcs, POLL_BATCH);
            polled += wcs.len();
            for wc in wcs.drain(..) {
                self.dispatch_recv_wc(wc);
            }

            let drained =
                self.spilled.load(Ordering::Acquire) != 0 && self.drain_pending(strong) > 0;
            if polled == 0 && !drained {
                break;
            }
        }
    }

    /// Record the CQ-poll lag span for a traced completion: the time the
    /// entry sat in the completion queue between the fabric's push and this
    /// poll (`wc.pushed_ns` is stamped by the fabric from the same clock).
    fn note_cqe(&self, wc: &WorkCompletion, stage: partix_verbs::FlowStage) {
        if wc.flow == 0 {
            return;
        }
        let flows = &self.tel.flows;
        let now = flows.now();
        let lag = now.saturating_sub(wc.pushed_ns);
        flows.event_at(wc.flow, stage, now, wc.qp_num, 0, lag);
        flows.stage_ns(|s| &s.cq_lag, lag);
    }

    fn dispatch_send_wc(self: &Arc<Self>, wc: WorkCompletion) {
        self.note_cqe(&wc, partix_verbs::FlowStage::SendCqe);
        match self.retire_send(wc.wr_id, wc.status != WcStatus::Success) {
            Some((owner, failed)) => owner.on_wr_complete(wc, failed),
            None => debug_assert!(false, "send completion for unknown WR {}", wc.wr_id),
        }
    }

    fn dispatch_recv_wc(self: &Arc<Self>, wc: WorkCompletion) {
        self.note_cqe(&wc, partix_verbs::FlowStage::RecvCqe);
        let request = self.recvs.read().get(wc.wr_id as usize).cloned();
        match request {
            Some(r) => r.on_incoming(wc),
            None => debug_assert!(false, "recv completion for unknown WR {}", wc.wr_id),
        }
    }

    /// Re-post software-pending WRs that were deferred by the hardware
    /// outstanding-WR cap. Returns how many posts succeeded.
    fn drain_pending(&self, strong: &mut Vec<Arc<SendShared>>) -> usize {
        let mut posted = 0;
        self.drainable.lock().retain(|w| match w.upgrade() {
            Some(s) => {
                strong.push(s);
                true
            }
            None => false,
        });
        for s in strong.drain(..) {
            let Some(ch) = s.channel.get() else { continue };
            loop {
                let Some(p) = ch.pending.lock().pop_front() else {
                    break;
                };
                // Borrowing batch post of one WR: `Ok(0)` is queue-full, and
                // a successful re-post recycles the shell instead of cloning
                // it onto the wire.
                let qp = &ch.qps[p.qp_idx as usize];
                match qp.post_send_batch(std::slice::from_ref(&p.wr), p.opts) {
                    Ok(1..) => {
                        self.spilled.fetch_sub(1, Ordering::AcqRel);
                        self.tel.runtime.pending_reposts.inc();
                        posted += 1;
                        if p.wr.flow != 0 && p.queued_ns != 0 {
                            let flows = &self.tel.flows;
                            let now = flows.now();
                            let wait = now.saturating_sub(p.queued_ns);
                            flows.event_at(
                                p.wr.flow,
                                partix_verbs::FlowStage::CapDequeued,
                                now,
                                qp.qp_num(),
                                0,
                                wait,
                            );
                            flows.stage_ns(|s| &s.cap_wait, wait);
                        }
                        self.recycle_wr(p.wr);
                    }
                    // Queue full — or the QP errored (or is mid-recovery).
                    // Hold the WR: a later drain posts it once a slot frees
                    // or recovery brings the QP back to RTS, or poisoning
                    // retires it.
                    Ok(_) | Err(VerbsError::InvalidQpState { .. }) => {
                        ch.pending.lock().push_front(p);
                        break;
                    }
                    Err(e) => panic!("unexpected verbs failure draining pending WRs: {e}"),
                }
            }
        }
        posted
    }
}
