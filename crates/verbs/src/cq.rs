//! Completion queues.
//!
//! Completions are pushed by the fabric and drained by the runtime with
//! [`CompletionQueue::poll_cq_into`] (the `ibv_poll_cq` analogue). An optional
//! notify hook mirrors `ibv_req_notify_cq` + completion channels: the fabric
//! invokes it on every push, which lets the discrete-event runtime progress
//! promptly instead of modelling a busy-poll loop.
//!
//! The hook is installed once, before traffic, and never replaced: a push
//! reads it without a lock and calls it by reference, so a completion costs
//! no lock round trip and no reference-count traffic for the hook.
//!
//! **Hand-off.** A push onto a hooked CQ whose queue is empty does not queue
//! the entry: it hands it to the hook as a [`Handoff`]. A hook that can
//! consume it at once (an idle progress engine) takes it, which counts it as
//! polled; a hook that cannot drops it, and the drop queues it exactly as a
//! plain push would. A push behind queued entries queues, then calls the
//! hook with nothing to hand over, so the queue stays FIFO. Either way
//! `pushed == polled + depth` holds at quiescence.
//!
//! **Driven polls.** A CQ created on a fabric that progresses on its
//! pollers' threads ([`Fabric::progress`]) holds that fabric: a poll that
//! finds the queue empty calls `progress` and looks once more, so whoever
//! polls also moves the wire, with no thread hop between a record and its
//! completion.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use partix_telemetry::CqCounters;

use crate::fabric::Fabric;
use crate::types::{WcOpcode, WcStatus, WorkCompletion};

/// Index of `status` in the telemetry per-status buckets (aligned with
/// `partix_telemetry::STATUS_NAMES`).
fn status_slot(status: WcStatus) -> usize {
    match status {
        WcStatus::Success => 0,
        WcStatus::RemoteAccessError => 1,
        WcStatus::RetryExceeded => 2,
        WcStatus::RnrRetryExceeded => 3,
        WcStatus::LocalLengthError => 4,
    }
}

/// Initial ring capacity: sized to the runtime's poll batch so steady-state
/// traffic never reallocates the entry deque.
const CQ_INITIAL_CAPACITY: usize = 64;

/// A completion-notify hook (see [`CompletionQueue::set_notify`]): called
/// once per push, with the completion itself when the queue was empty and
/// with `None` when the push queued it behind earlier entries.
pub type NotifyHook = Arc<dyn Fn(Option<Handoff<'_>>) + Send + Sync>;

/// A completion offered to the notify hook instead of being queued (see
/// the module docs). [`take`](Self::take) accepts it; dropping it untaken
/// queues it.
pub struct Handoff<'a> {
    cq: &'a CompletionQueue,
    wc: Option<WorkCompletion>,
}

impl<'a> Handoff<'a> {
    /// The CQ the completion was pushed to.
    pub fn cq(&self) -> &'a CompletionQueue {
        self.cq
    }

    /// Accept the completion: it counts as polled from now on, and the
    /// caller owes it a dispatch.
    pub fn take(mut self) -> WorkCompletion {
        let wc = self
            .wc
            .take()
            .expect("a hand-off holds its entry until taken");
        self.cq.counters.polled.inc();
        wc
    }
}

impl Drop for Handoff<'_> {
    fn drop(&mut self) {
        if let Some(wc) = self.wc.take() {
            self.cq.entries.lock().push_back(wc);
        }
    }
}

/// A completion queue.
pub struct CompletionQueue {
    id: u32,
    entries: Mutex<VecDeque<WorkCompletion>>,
    /// Written once by `set_notify`, read on every completion push.
    notify: OnceLock<NotifyHook>,
    /// Whether a push calls `notify`: set by `set_notify`, cleared by
    /// `clear_notify`. A push on an unhooked CQ (every wall-clock world)
    /// reads only this flag.
    hooked: AtomicBool,
    counters: Arc<CqCounters>,
    /// The fabric an empty poll drives (see the module docs), if it asked
    /// to be.
    fabric: Option<Arc<dyn Fabric>>,
}

impl CompletionQueue {
    pub(crate) fn new(id: u32, fabric: Option<Arc<dyn Fabric>>) -> Arc<Self> {
        Arc::new(CompletionQueue {
            id,
            entries: Mutex::new(VecDeque::with_capacity(CQ_INITIAL_CAPACITY)),
            notify: OnceLock::new(),
            hooked: AtomicBool::new(false),
            counters: Arc::new(CqCounters::default()),
            fabric,
        })
    }

    /// Drive the attached fabric for a poll that found nothing; whether the
    /// queue is worth another look.
    fn drive(&self) -> bool {
        self.fabric.as_ref().is_some_and(|fabric| fabric.progress()) && self.depth() != 0
    }

    /// Queue identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// This CQ's telemetry ledger (registered with the network's registry
    /// at `create_cq` time).
    pub fn counters(&self) -> &Arc<CqCounters> {
        &self.counters
    }

    /// Install the completion-notify hook, once per CQ. The hook runs on the
    /// thread that generated the completion — it must be cheap and
    /// re-entrancy-safe (the partitioned runtime uses a try-lock progress
    /// engine for exactly this reason), and it must dispatch every
    /// [`Handoff`] it takes. A second install is refused: the hook comes
    /// back as the error.
    pub fn set_notify(&self, hook: NotifyHook) -> Result<(), NotifyHook> {
        self.notify.set(hook)?;
        self.hooked.store(true, Ordering::Release);
        Ok(())
    }

    /// Stop calling the notify hook. It stays installed, so a later
    /// `set_notify` is still refused.
    pub fn clear_notify(&self) {
        self.hooked.store(false, Ordering::Release);
    }

    /// Push a completion and fire the notify hook, handing the entry over
    /// when the queue is empty (see the module docs). Fabric-internal.
    pub(crate) fn push(&self, wc: WorkCompletion) {
        let hook = if self.hooked.load(Ordering::Acquire) {
            self.notify.get()
        } else {
            None
        };
        // Read before this entry counts: is anything queued ahead of it?
        let hand_off = hook.is_some() && self.depth() == 0;
        // Counted *before* the entry is enqueued so the lock-free `depth`
        // can only over-report, never under-report (an over-report costs
        // one wasted lock, an under-report would skip a present entry).
        self.counters.pushed_by_status[status_slot(wc.status)].inc();
        if wc.opcode == WcOpcode::RecvRdmaWithImm {
            self.counters.recv_pushed.inc();
            self.counters.recv_bytes.add(wc.byte_len as u64);
        }
        // The hook is called with no lock held: it may re-enter the CQ (the
        // progress engine polls from inside it).
        match hook {
            Some(hook) if hand_off => hook(Some(Handoff {
                cq: self,
                wc: Some(wc),
            })),
            hook => {
                self.entries.lock().push_back(wc);
                if let Some(hook) = hook {
                    hook(None);
                }
            }
        }
    }

    /// Drain up to `max` completions into `scratch` (appended), returning
    /// how many: the `ibv_poll_cq` analogue. Up to `max` entries are
    /// appended to `scratch` under one queue lock, and the lock is taken at
    /// all only when the lock-free depth estimate says entries are waiting
    /// (after driving an attached fabric, if it says none are).
    /// Callers keep `scratch` across calls so steady-state polling performs
    /// no allocation.
    pub fn poll_cq_into(&self, scratch: &mut Vec<WorkCompletion>, max: usize) -> usize {
        if max == 0 || (self.depth() == 0 && !self.drive()) {
            return 0;
        }
        let mut q = self.entries.lock();
        let n = max.min(q.len());
        scratch.extend(q.drain(..n));
        self.counters.polled.add(n as u64);
        n
    }

    /// Convenience: poll a single completion. Like
    /// [`poll_cq_into`](Self::poll_cq_into), it locks the queue only when
    /// the depth estimate says an entry is waiting, driving an attached
    /// fabric first if it says none is.
    pub fn poll_one(&self) -> Option<WorkCompletion> {
        if self.depth() == 0 && !self.drive() {
            return None;
        }
        let mut q = self.entries.lock();
        let wc = q.pop_front();
        if wc.is_some() {
            self.counters.polled.inc();
        }
        wc
    }

    /// Number of completions currently queued, computed lock-free from the
    /// ledger's pushed and polled counts. A relaxed snapshot: exact whenever
    /// the queue is quiescent, at worst momentarily stale under concurrent
    /// traffic.
    pub fn depth(&self) -> usize {
        let polled = self.counters.polled.get();
        self.counters.pushed_total().saturating_sub(polled) as usize
    }

    /// Total completions ever pushed (diagnostics).
    pub fn total_pushed(&self) -> u64 {
        self.counters.pushed_total()
    }

    /// Total completions ever polled (diagnostics).
    pub fn total_polled(&self) -> u64 {
        self.counters.polled.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{WcOpcode, WcStatus};
    use std::sync::atomic::AtomicUsize;

    fn wc(id: u64) -> WorkCompletion {
        WorkCompletion {
            wr_id: id,
            status: WcStatus::Success,
            opcode: WcOpcode::RdmaWrite,
            byte_len: 0,
            imm: None,
            qp_num: 0,
            flow: 0,
            pushed_ns: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let cq = CompletionQueue::new(0, None);
        for i in 0..5 {
            cq.push(wc(i));
        }
        let mut out = Vec::new();
        assert_eq!(cq.poll_cq_into(&mut out, 3), 3);
        assert_eq!(out.iter().map(|w| w.wr_id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(cq.poll_cq_into(&mut out, 10), 2);
        assert_eq!(out.len(), 5);
        assert_eq!(cq.depth(), 0);
    }

    #[test]
    fn notify_fires_per_push() {
        let cq = CompletionQueue::new(1, None);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        // The hook drops what it is handed, which queues it.
        assert!(cq
            .set_notify(Arc::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }))
            .is_ok());
        cq.push(wc(0));
        cq.push(wc(1));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        cq.clear_notify();
        cq.push(wc(2));
        assert_eq!(hits.load(Ordering::Relaxed), 2, "a cleared hook fired");
        assert_eq!(cq.depth(), 3);
    }

    #[test]
    fn a_second_notify_install_is_refused() {
        let cq = CompletionQueue::new(4, None);
        let (first, second) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (f, s) = (first.clone(), second.clone());
        assert!(cq
            .set_notify(Arc::new(move |_| {
                f.fetch_add(1, Ordering::Relaxed);
            }))
            .is_ok());
        let refused = cq.set_notify(Arc::new(move |_| {
            s.fetch_add(1, Ordering::Relaxed);
        }));
        // The refused hook comes back to the caller, and the first stays.
        let refused = refused.expect_err("a second install must be refused");
        cq.push(wc(0));
        assert_eq!(first.load(Ordering::Relaxed), 1);
        assert_eq!(second.load(Ordering::Relaxed), 0);
        refused(None);
        assert_eq!(second.load(Ordering::Relaxed), 1);
        // Clearing does not reopen the slot.
        cq.clear_notify();
        assert!(cq.set_notify(Arc::new(|_| {})).is_err());
    }

    /// A stand-in for the runtime's progress engine: a try-locked consumer
    /// that takes what it is handed, then drains the queue, recording every
    /// `wr_id` it dispatches. Dispatching `wr_id` `k` in `reenter` pushes
    /// `k + 100` onto the same CQ from inside the dispatch.
    fn engine_hook(
        cq: &Arc<CompletionQueue>,
        seen: &Arc<Mutex<Vec<u64>>>,
        reenter: &'static [u64],
    ) -> NotifyHook {
        let (weak, seen) = (Arc::downgrade(cq), seen.clone());
        Arc::new(move |offer: Option<Handoff<'_>>| {
            let Some(mut log) = seen.try_lock() else {
                return;
            };
            let cq = weak.upgrade().expect("the CQ outlives its pushes");
            let mut batch: Vec<WorkCompletion> = offer.map(Handoff::take).into_iter().collect();
            loop {
                cq.poll_cq_into(&mut batch, 64);
                if batch.is_empty() {
                    break;
                }
                for entry in batch.drain(..) {
                    log.push(entry.wr_id);
                    if reenter.contains(&entry.wr_id) {
                        cq.push(wc(entry.wr_id + 100));
                    }
                }
            }
        })
    }

    #[test]
    fn an_idle_hook_takes_the_entry_and_it_counts_as_polled() {
        let cq = CompletionQueue::new(5, None);
        let seen = Arc::new(Mutex::new(Vec::new()));
        assert!(cq.set_notify(engine_hook(&cq, &seen, &[])).is_ok());
        for i in 0..3 {
            cq.push(wc(i));
        }
        assert_eq!(*seen.lock(), [0, 1, 2]);
        assert!(cq.entries.lock().is_empty(), "nothing was queued");
        assert_eq!(
            (cq.depth(), cq.total_pushed(), cq.total_polled()),
            (0, 3, 3)
        );
    }

    #[test]
    fn a_push_behind_a_queued_entry_queues_behind_it() {
        let cq = CompletionQueue::new(6, None);
        let offers = Arc::new(Mutex::new(Vec::new()));
        let o = offers.clone();
        // Refuses every hand-off, so the first entry queues.
        assert!(cq
            .set_notify(Arc::new(move |offer: Option<Handoff<'_>>| {
                o.lock().push(offer.is_some());
            }))
            .is_ok());
        cq.push(wc(0));
        cq.push(wc(1));
        assert_eq!(
            *offers.lock(),
            [true, false],
            "only the push onto an empty queue is handed over"
        );
        let mut out = Vec::new();
        assert_eq!(cq.poll_cq_into(&mut out, 8), 2);
        assert_eq!(out.iter().map(|w| w.wr_id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(
            (cq.depth(), cq.total_pushed(), cq.total_polled()),
            (0, 2, 2)
        );
    }

    #[test]
    fn a_reentrant_push_is_drained_by_the_same_run() {
        let cq = CompletionQueue::new(7, None);
        let seen = Arc::new(Mutex::new(Vec::new()));
        // Entry 0's dispatch pushes 100, whose dispatch pushes 200.
        assert!(cq.set_notify(engine_hook(&cq, &seen, &[0, 100])).is_ok());
        cq.push(wc(0));
        assert_eq!(*seen.lock(), [0, 100, 200], "one run, in push order");
        cq.push(wc(1));
        assert_eq!(*seen.lock(), [0, 100, 200, 1]);
        assert_eq!(
            (cq.depth(), cq.total_pushed(), cq.total_polled()),
            (0, 4, 4)
        );
    }

    #[test]
    fn a_cleared_hook_queues() {
        let cq = CompletionQueue::new(8, None);
        let seen = Arc::new(Mutex::new(Vec::new()));
        assert!(cq.set_notify(engine_hook(&cq, &seen, &[])).is_ok());
        cq.push(wc(0));
        cq.clear_notify();
        cq.push(wc(1));
        cq.push(wc(2));
        assert_eq!(*seen.lock(), [0], "a cleared hook is not called");
        assert_eq!(cq.depth(), 2);
        let mut out = Vec::new();
        assert_eq!(cq.poll_cq_into(&mut out, 8), 2);
        assert_eq!(out.iter().map(|w| w.wr_id).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(
            (cq.depth(), cq.total_pushed(), cq.total_polled()),
            (0, 3, 3)
        );
    }

    #[test]
    fn counters_track() {
        let cq = CompletionQueue::new(2, None);
        cq.push(wc(0));
        cq.push(wc(1));
        assert_eq!(cq.poll_one().unwrap().wr_id, 0);
        assert_eq!(cq.total_pushed(), 2);
        assert_eq!(cq.total_polled(), 1);
    }

    #[test]
    fn poll_empty_returns_zero() {
        let cq = CompletionQueue::new(3, None);
        let mut out = Vec::new();
        assert_eq!(cq.poll_cq_into(&mut out, 8), 0);
        assert!(cq.poll_one().is_none());
    }
}
