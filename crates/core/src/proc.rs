//! Per-process runtime state and the progress engine.
//!
//! The progress engine is single-threaded by construction (paper §IV-A):
//! callers attempt to acquire a try-lock; the winner polls all CQs until
//! quiescent and drains software-pending WRs, everyone else returns
//! immediately.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use partix_sim::{SerialResource, TimeSource};
use partix_verbs::telemetry::Registry;
use partix_verbs::{
    CompletionQueue, Context, Handoff, ProtectionDomain, SendWr, VerbsError, WorkCompletion,
};

use crate::config::PartixConfig;
use crate::request::{send_wr_run, RecvShared, SendShared};

/// CQ entries drained per poll call inside the progress loop. One batch per
/// lock acquisition; the loop re-polls until both CQs are quiescent.
const POLL_BATCH: usize = 64;

/// Buffers only the progress-lock winner touches, so they live inside the
/// lock and steady-state progress neither allocates nor takes a second one.
#[derive(Default)]
pub(crate) struct ProgressScratch {
    wcs: Vec<WorkCompletion>,
    /// Strong handles for the software-pending drain (upgrading the
    /// drainable weak refs is a refcount bump into retained capacity).
    strong: Vec<Arc<SendShared>>,
    /// The WR the drain rebuilds a pending post in.
    wr: SendWr,
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
    /// Send requests by their `slot`, the top of every WR id they post
    /// ([`send_wr_id`](crate::request::send_wr_id)): a send completion
    /// finds its request as a receive completion does. Written at
    /// `psend_init`, emptied when the world drops.
    pub sends: RwLock<Vec<Arc<SendShared>>>,
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
            sends: RwLock::default(),
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
        self.sends.write().clear();
    }

    /// Whether this process runs on the virtual clock.
    pub(crate) fn sim_mode(&self) -> bool {
        self.time.scheduler().is_some()
    }

    /// Drive the progress engine if no one else currently is (the paper's
    /// single-threaded try-lock design). A CQ's notify hook passes the
    /// completion it may hand over as `offer`: the winner of the try-lock
    /// takes it and puts it at the head of its CQ's first batch, where a
    /// poll would have found it; a loser drops it, which queues it for the
    /// winner's next poll.
    pub(crate) fn try_progress(self: &Arc<Self>, offer: Option<Handoff<'_>>) {
        // Dispatch handlers may re-enter here; the recursive call loses the
        // try-lock and returns.
        let Some(mut scratch) = self.progress.try_lock() else {
            return;
        };
        let ProgressScratch { wcs, strong, wr } = &mut *scratch;
        let (mut first_send, mut first_recv) = match offer {
            Some(h) if std::ptr::eq(h.cq(), &*self.recv_cq) => (None, Some(h.take())),
            Some(h) => (Some(h.take()), None),
            None => (None, None),
        };
        loop {
            wcs.extend(first_send.take());
            self.send_cq.poll_cq_into(wcs, POLL_BATCH - wcs.len());
            let mut polled = wcs.len();
            for wc in wcs.drain(..) {
                self.dispatch_send_wc(wc);
            }

            wcs.extend(first_recv.take());
            self.recv_cq.poll_cq_into(wcs, POLL_BATCH - wcs.len());
            polled += wcs.len();
            for wc in wcs.drain(..) {
                self.dispatch_recv_wc(wc);
            }

            let drained =
                self.spilled.load(Ordering::Acquire) != 0 && self.drain_pending(strong, wr) > 0;
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
    }

    fn dispatch_send_wc(self: &Arc<Self>, wc: WorkCompletion) {
        self.note_cqe(&wc, partix_verbs::FlowStage::SendCqe);
        let request = self.sends.read().get(send_wr_run(wc.wr_id).0).cloned();
        match request {
            Some(s) => s.on_wr_complete(wc),
            None => debug_assert!(false, "send completion for unknown WR {:#x}", wc.wr_id),
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
    ///
    /// The drain re-posts one WR at a time, rebuilt in `wr` from its id, in
    /// its own loop, not through `SendShared::post`: a WR refused again goes
    /// back to the *front* of its queue, keeping the channel's order, and is
    /// not counted as a new spill, where `post` would queue it at the back
    /// and count it again.
    fn drain_pending(&self, strong: &mut Vec<Arc<SendShared>>, wr: &mut SendWr) -> usize {
        let mut posted = 0;
        self.drainable.lock().retain(|w| match w.upgrade() {
            Some(s) => {
                strong.push(s);
                true
            }
            None => false,
        });
        for s in strong.drain(..) {
            let ch = s.core.channel.get().expect("only established sends drain");
            loop {
                let Some(p) = ch.pending.lock().pop_front() else {
                    break;
                };
                // Borrowing batch post of one WR: `Ok(0)` is queue-full.
                s.fill_wr(ch.remote, &send_wr_run(p.wr_id).1, p.flow, wr);
                let qp = &ch.qps[p.qp_idx as usize];
                match qp.post_send_batch(std::slice::from_ref(wr), p.opts) {
                    Ok(1..) => {
                        self.spilled.fetch_sub(1, Ordering::AcqRel);
                        self.tel.runtime.pending_reposts.inc();
                        posted += 1;
                        if p.flow != 0 && p.queued_ns != 0 {
                            let flows = &self.tel.flows;
                            let now = flows.now();
                            let wait = now.saturating_sub(p.queued_ns);
                            flows.event_at(
                                p.flow,
                                partix_verbs::FlowStage::CapDequeued,
                                now,
                                qp.qp_num(),
                                0,
                                wait,
                            );
                        }
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
