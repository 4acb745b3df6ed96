//! Completion queues.
//!
//! Completions are pushed by the fabric and drained by the runtime with
//! [`CompletionQueue::poll`] (the `ibv_poll_cq` analogue). An optional
//! notify hook mirrors `ibv_req_notify_cq` + completion channels: the fabric
//! invokes it after pushing entries, which lets the discrete-event runtime
//! progress promptly instead of modelling a busy-poll loop.
//!
//! The hook is installed once, before traffic, and never replaced: a push
//! reads it without a lock and calls it by reference, so a completion costs
//! no lock round trip and no reference-count traffic for the hook.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use partix_telemetry::CqCounters;

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

/// A completion-notify hook (see [`CompletionQueue::set_notify`]).
pub type NotifyHook = Arc<dyn Fn() + Send + Sync>;

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
}

impl CompletionQueue {
    pub(crate) fn new(id: u32) -> Arc<Self> {
        Arc::new(CompletionQueue {
            id,
            entries: Mutex::new(VecDeque::with_capacity(CQ_INITIAL_CAPACITY)),
            notify: OnceLock::new(),
            hooked: AtomicBool::new(false),
            counters: Arc::new(CqCounters::default()),
        })
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
    /// engine for exactly this reason). A second install is refused: the
    /// hook comes back as the error.
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

    /// Push a completion and fire the notify hook. Fabric-internal.
    pub(crate) fn push(&self, wc: WorkCompletion) {
        // Counted *before* the entry is enqueued so the lock-free `depth`
        // can only over-report, never under-report (an over-report costs
        // one wasted lock, an under-report would skip a present entry).
        self.counters.pushed_by_status[status_slot(wc.status)].inc();
        if matches!(wc.opcode, WcOpcode::Recv | WcOpcode::RecvRdmaWithImm) {
            self.counters.recv_pushed.inc();
            self.counters.recv_bytes.add(wc.byte_len as u64);
        }
        self.entries.lock().push_back(wc);
        // Called with no lock held: the hook may re-enter the CQ (the
        // progress engine polls from inside it).
        if self.hooked.load(Ordering::Acquire) {
            if let Some(hook) = self.notify.get() {
                hook();
            }
        }
    }

    /// Drain up to `max` completions into `out` (appended). Returns how many
    /// were drained. The `ibv_poll_cq` analogue.
    pub fn poll(&self, max: usize, out: &mut Vec<WorkCompletion>) -> usize {
        self.poll_cq_into(out, max)
    }

    /// Batched drain into a reusable scratch vector: up to `max` entries are
    /// appended to `scratch` under one queue lock, and the lock is taken at
    /// all only when the lock-free depth estimate says entries are waiting.
    /// Callers keep `scratch` across calls so steady-state polling performs
    /// no allocation.
    pub fn poll_cq_into(&self, scratch: &mut Vec<WorkCompletion>, max: usize) -> usize {
        if max == 0 || self.depth() == 0 {
            return 0;
        }
        let mut q = self.entries.lock();
        let n = max.min(q.len());
        scratch.extend(q.drain(..n));
        self.counters.polled.add(n as u64);
        n
    }

    /// Convenience: poll a single completion.
    pub fn poll_one(&self) -> Option<WorkCompletion> {
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
        let cq = CompletionQueue::new(0);
        for i in 0..5 {
            cq.push(wc(i));
        }
        let mut out = Vec::new();
        assert_eq!(cq.poll(3, &mut out), 3);
        assert_eq!(out.iter().map(|w| w.wr_id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(cq.poll(10, &mut out), 2);
        assert_eq!(out.len(), 5);
        assert_eq!(cq.depth(), 0);
    }

    #[test]
    fn notify_fires_per_push() {
        let cq = CompletionQueue::new(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        assert!(cq
            .set_notify(Arc::new(move || {
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
        let cq = CompletionQueue::new(4);
        let (first, second) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (f, s) = (first.clone(), second.clone());
        assert!(cq
            .set_notify(Arc::new(move || {
                f.fetch_add(1, Ordering::Relaxed);
            }))
            .is_ok());
        let refused = cq.set_notify(Arc::new(move || {
            s.fetch_add(1, Ordering::Relaxed);
        }));
        // The refused hook comes back to the caller, and the first stays.
        let refused = refused.expect_err("a second install must be refused");
        cq.push(wc(0));
        assert_eq!(first.load(Ordering::Relaxed), 1);
        assert_eq!(second.load(Ordering::Relaxed), 0);
        refused();
        assert_eq!(second.load(Ordering::Relaxed), 1);
        // Clearing does not reopen the slot.
        cq.clear_notify();
        assert!(cq.set_notify(Arc::new(|| {})).is_err());
    }

    #[test]
    fn counters_track() {
        let cq = CompletionQueue::new(2);
        cq.push(wc(0));
        cq.push(wc(1));
        assert_eq!(cq.poll_one().unwrap().wr_id, 0);
        assert_eq!(cq.total_pushed(), 2);
        assert_eq!(cq.total_polled(), 1);
    }

    #[test]
    fn poll_empty_returns_zero() {
        let cq = CompletionQueue::new(3);
        let mut out = Vec::new();
        assert_eq!(cq.poll(8, &mut out), 0);
        assert!(cq.poll_one().is_none());
    }
}
