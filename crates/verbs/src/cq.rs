//! Completion queues.
//!
//! Completions are pushed by the fabric and drained by the runtime with
//! [`CompletionQueue::poll`] (the `ibv_poll_cq` analogue). An optional
//! notify hook mirrors `ibv_req_notify_cq` + completion channels: the fabric
//! invokes it after pushing entries, which lets the discrete-event runtime
//! progress promptly instead of modelling a busy-poll loop.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

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

/// A completion queue.
pub struct CompletionQueue {
    id: u32,
    entries: Mutex<VecDeque<WorkCompletion>>,
    /// Read-mostly: written once at startup (`set_notify`), read on every
    /// completion push. An `RwLock` keeps concurrent pushers from
    /// serialising on hook lookup the way the old `Mutex` did.
    notify: RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
    /// Whether `notify` holds a hook: a push on an unhooked CQ (every
    /// wall-clock world) skips the lock and the clone.
    hooked: AtomicBool,
    pushed: AtomicU64,
    polled: AtomicU64,
    counters: Arc<CqCounters>,
}

impl CompletionQueue {
    pub(crate) fn new(id: u32) -> Arc<Self> {
        Arc::new(CompletionQueue {
            id,
            entries: Mutex::new(VecDeque::with_capacity(CQ_INITIAL_CAPACITY)),
            notify: RwLock::new(None),
            hooked: AtomicBool::new(false),
            pushed: AtomicU64::new(0),
            polled: AtomicU64::new(0),
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

    /// Install (or replace) the completion-notify hook. The hook runs on the
    /// thread that generated the completion — it must be cheap and
    /// re-entrancy-safe (the partitioned runtime uses a try-lock progress
    /// engine for exactly this reason).
    pub fn set_notify(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        self.install(Some(hook));
    }

    /// Remove the notify hook.
    pub fn clear_notify(&self) {
        self.install(None);
    }

    fn install(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) {
        let mut slot = self.notify.write();
        self.hooked.store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    /// Push a completion and fire the notify hook. Fabric-internal.
    pub(crate) fn push(&self, wc: WorkCompletion) {
        self.counters.pushed_by_status[status_slot(wc.status)].inc();
        if matches!(wc.opcode, WcOpcode::Recv | WcOpcode::RecvRdmaWithImm) {
            self.counters.recv_pushed.inc();
            self.counters.recv_bytes.add(wc.byte_len as u64);
        }
        // Incremented *before* the entry is enqueued so the lock-free depth
        // estimate in `poll_cq_into` can only over-report, never under-report
        // (an over-report costs one wasted lock, an under-report would skip a
        // present entry).
        self.pushed.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().push_back(wc);
        // Clone under the read guard, call outside it: the hook may
        // re-enter the CQ (the progress engine polls from inside it) or
        // swap itself out, and must not hold the lock while it does.
        if !self.hooked.load(Ordering::Acquire) {
            return;
        }
        let hook = self.notify.read().clone();
        if let Some(h) = hook {
            h();
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
        self.polled.fetch_add(n as u64, Ordering::Relaxed);
        self.counters.polled.add(n as u64);
        n
    }

    /// Convenience: poll a single completion.
    pub fn poll_one(&self) -> Option<WorkCompletion> {
        let mut q = self.entries.lock();
        let wc = q.pop_front();
        if wc.is_some() {
            self.polled.fetch_add(1, Ordering::Relaxed);
            self.counters.polled.inc();
        }
        wc
    }

    /// Number of completions currently queued, computed lock-free from the
    /// push/poll counters. A relaxed snapshot: exact whenever the queue is
    /// quiescent, at worst momentarily stale under concurrent traffic.
    pub fn depth(&self) -> usize {
        let pushed = self.pushed.load(Ordering::Relaxed);
        let polled = self.polled.load(Ordering::Relaxed);
        pushed.saturating_sub(polled) as usize
    }

    /// Total completions ever pushed (diagnostics).
    pub fn total_pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Total completions ever polled (diagnostics).
    pub fn total_polled(&self) -> u64 {
        self.polled.load(Ordering::Relaxed)
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
        cq.set_notify(Arc::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        cq.push(wc(0));
        cq.push(wc(1));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        cq.clear_notify();
        cq.push(wc(2));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(cq.depth(), 3);
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
