//! Partitioned send/receive request state and the aggregation policies.
//!
//! This is the paper's §IV-A data path:
//!
//! - `pready` executes an atomic add-and-fetch on per-transport-partition
//!   arrival counters; the arrival that completes a transport partition
//!   posts the `IBV_WR_RDMA_WRITE_WITH_IMM` work request;
//! - the immediate value encodes `(starting user partition, contiguous run
//!   length)` as two packed u16s;
//! - receive completions decode the immediate and set per-partition arrival
//!   flags (`Release` on the writer, `Acquire` in `parrived`);
//! - the timer-based aggregator (§IV-D) arms a δ-timer at the first arrival
//!   of a group, flushes the arrived subset as maximal contiguous runs on
//!   expiry, and lets post-flush arrivals send their own runs.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use partix_sim::SimDuration;
use partix_verbs::{
    imm, MemoryRegion, Opcode, PostOptions, QpState, QueuePair, SendWr, Sge, VerbsError, WcStatus,
    WorkCompletion,
};

use crate::config::AggregatorKind;
use crate::error::{PartixError, Result};
use crate::plan::TransportPlan;
use crate::proc::ProcInner;

/// Group phase for the timer aggregator.
const PHASE_COLLECTING: u8 = 0;
const PHASE_SENT_ALL: u8 = 1;
const PHASE_FLUSHED: u8 = 2;

/// Per-transport-partition state.
pub(crate) struct GroupState {
    /// User partitions covered.
    pub range: Range<u32>,
    /// Arrivals so far this round.
    pub arrived: AtomicU32,
    /// Timer-aggregator phase.
    pub phase: AtomicU8,
    /// Serialises flush-path scanning.
    pub lock: Mutex<()>,
}

/// A WR that hit the hardware outstanding cap and waits for a free slot.
/// Also the retained image of every in-flight WR (in the process's
/// [`SendTable`](crate::proc::SendTable)), so QP recovery can re-post a
/// failed transfer byte-identically.
pub(crate) struct PendingPost {
    pub qp_idx: u32,
    pub wr: SendWr,
    pub opts: PostOptions,
    /// Flow-trace timestamp of the spill into the software-pending queue
    /// (0 when tracing is off or the WR is untraced); the progress drain
    /// turns it into a `cap_wait` sample on re-post.
    pub queued_ns: u64,
}

/// Wire resources of a matched send request.
pub(crate) struct SendChannel {
    pub plan: TransportPlan,
    pub qps: Vec<Arc<QueuePair>>,
    pub remote_addr: u64,
    pub remote_rkey: u32,
    pub groups: Vec<GroupState>,
    pub pending: Mutex<VecDeque<PendingPost>>,
    /// Live delta for the timer aggregator (ns); seeded from the plan and
    /// rewritten each round when adaptive tuning is on.
    pub delta_ns: AtomicU64,
    /// Reusable assembly buffer for multi-run flush batches (capacity
    /// retained between flushes).
    pub batch_scratch: Mutex<Vec<SendWr>>,
}

impl SendChannel {
    /// Current timer delta, if this channel aggregates with a timer.
    pub(crate) fn current_delta(&self) -> Option<SimDuration> {
        self.plan.timer_delta?;
        Some(SimDuration::from_nanos(
            self.delta_ns.load(Ordering::Acquire),
        ))
    }
}

/// Shared state of a partitioned send request.
pub(crate) struct SendShared {
    pub id: u64,
    pub proc: Arc<ProcInner>,
    pub partitions: u32,
    pub part_bytes: usize,
    pub mr: MemoryRegion,
    pub dest: u32,
    pub tag: u32,
    pub channel: OnceLock<Arc<SendChannel>>,
    pub ready: AtomicBool,
    pub ready_cbs: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    pub active: AtomicBool,
    pub round: AtomicU64,
    pub arrived: Box<[AtomicU8]>,
    pub sent: Box<[AtomicU8]>,
    pub pready_count: AtomicU32,
    pub sent_count: AtomicU32,
    pub wr_posted: AtomicU32,
    pub wr_completed: AtomicU32,
    pub wr_posted_total: AtomicU64,
    pub completed_rounds: AtomicU64,
    /// QP recovery cycles spent this round (bounded by
    /// `reliability.max_recoveries`).
    pub recoveries_round: AtomicU64,
    /// QP recovery cycles across the request's lifetime (diagnostics).
    pub recoveries_total: AtomicU64,
    pub complete_cbs: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    pub error: OnceLock<&'static str>,
    /// Per-partition `pready` times on the world clock, stamped only when
    /// something reads them (see [`Self::stamps_preadies`]): adaptive δ
    /// takes the round's estimate from them, and flow tracing the
    /// `agg_hold_ns` of each WR.
    pub pready_ns: Box<[AtomicU64]>,
}

impl SendShared {
    pub(crate) fn channel(&self) -> Result<&Arc<SendChannel>> {
        if !self.ready.load(Ordering::Acquire) {
            return Err(PartixError::ChannelNotReady);
        }
        self.channel.get().ok_or(PartixError::ChannelNotReady)
    }

    /// Mark the channel ready (flag only; see [`Self::fire_ready`]).
    pub(crate) fn set_ready(&self) {
        self.ready.store(true, Ordering::Release);
    }

    /// Fire deferred readiness callbacks. Both ends of a channel are
    /// flagged ready before either end's callbacks run, so a callback can
    /// start both requests.
    pub(crate) fn fire_ready(&self) {
        debug_assert!(self.ready.load(Ordering::Acquire));
        let cbs = std::mem::take(&mut *self.ready_cbs.lock());
        for cb in cbs {
            cb();
        }
    }

    /// Begin a round.
    pub(crate) fn start(self: &Arc<Self>) -> Result<()> {
        let ch = self.channel()?;
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(PartixError::AlreadyActive);
        }
        for f in self.arrived.iter() {
            f.store(0, Ordering::Relaxed);
        }
        for f in self.sent.iter() {
            f.store(0, Ordering::Relaxed);
        }
        for g in &ch.groups {
            g.arrived.store(0, Ordering::Relaxed);
            g.phase.store(PHASE_COLLECTING, Ordering::Relaxed);
        }
        self.pready_count.store(0, Ordering::Relaxed);
        self.sent_count.store(0, Ordering::Relaxed);
        self.wr_posted.store(0, Ordering::Relaxed);
        self.wr_completed.store(0, Ordering::Release);
        self.recoveries_round.store(0, Ordering::Relaxed);
        if self.stamps_preadies() {
            for t in self.pready_ns.iter() {
                t.store(0, Ordering::Relaxed);
            }
        }
        self.round.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Whether `pready` stamps [`Self::pready_ns`]: under adaptive δ or
    /// while flow tracing is on.
    fn stamps_preadies(&self) -> bool {
        self.proc.config.adaptive_delta || self.proc.tel.flows.enabled()
    }

    /// Mark user partition `i` ready for transfer.
    pub(crate) fn pready(self: &Arc<Self>, i: u32) -> Result<()> {
        if !self.active.load(Ordering::Acquire) {
            return Err(PartixError::NotActive);
        }
        if i >= self.partitions {
            return Err(PartixError::PartitionOutOfRange {
                index: i,
                partitions: self.partitions,
            });
        }
        if self.arrived[i as usize].swap(1, Ordering::AcqRel) == 1 {
            return Err(PartixError::DoublePready { index: i });
        }
        // Stamped before `pready_count` counts it: the round completes, and
        // adaptive δ reads every stamp, only once the count is full.
        if self.stamps_preadies() {
            self.pready_ns[i as usize].store(self.proc.time.now().as_nanos(), Ordering::Relaxed);
        }
        self.proc.tel.runtime.preadys.inc();
        self.pready_count.fetch_add(1, Ordering::AcqRel);
        let ch = self.channel()?;
        let g = ch.plan.group_of(i);
        match ch.current_delta() {
            None => self.counting_pready(ch, g),
            Some(delta) => self.timer_pready(ch, g, i, delta),
        }
        // This pready may have posted nothing (a concurrent flush already
        // covered the partition) while every WR ack has already been
        // retired; re-evaluate completion so the round cannot be left
        // complete-but-undetected.
        self.maybe_complete();
        Ok(())
    }

    /// Non-timer policies: the arrival completing the group posts it whole.
    fn counting_pready(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32) {
        let grp = &ch.groups[g as usize];
        let n = grp.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if n == ch.plan.group_size {
            self.post_range(ch, g, ch.plan.range_of(g));
        }
    }

    /// Timer policy (paper §IV-D).
    fn timer_pready(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, i: u32, delta: SimDuration) {
        let grp = &ch.groups[g as usize];
        let len = ch.plan.group_size;
        let n = grp.arrived.fetch_add(1, Ordering::AcqRel) + 1;

        if n == len {
            // Last arrival: if the delta timer has not flushed yet, the last
            // thread aggregates and sends the whole group (the delta_a case
            // of the paper's Fig. 5).
            if grp
                .phase
                .compare_exchange(
                    PHASE_COLLECTING,
                    PHASE_SENT_ALL,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                self.post_range(ch, g, ch.plan.range_of(g));
                return;
            }
            // Already flushed: fall through and send our own run.
        } else if n == 1 {
            // First arrival arms the timer (it "sleeps" for at most delta).
            let weak = Arc::downgrade(self);
            let ch2 = ch.clone();
            let round = self.round.load(Ordering::Acquire);
            self.proc.time.after(self.proc.rank, delta, move || {
                if let Some(s) = weak.upgrade() {
                    s.flush_group(&ch2, g, round);
                }
            });
        }

        if grp.phase.load(Ordering::Acquire) == PHASE_FLUSHED {
            // Post-flush arrival: send the maximal contiguous run of
            // arrived-but-unsent partitions containing `i` (the delta_b case:
            // the laggard sends its own partition).
            self.post_runs(ch, g, Some(i));
        }
    }

    /// Delta-timer expiry: flush the arrived subset of group `g` as maximal
    /// contiguous runs.
    fn flush_group(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, armed_round: u64) {
        if !self.active.load(Ordering::Acquire) || self.round.load(Ordering::Acquire) != armed_round
        {
            return; // stale timer from a finished round
        }
        let grp = &ch.groups[g as usize];
        if grp
            .phase
            .compare_exchange(
                PHASE_COLLECTING,
                PHASE_FLUSHED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            return; // the whole group was already sent
        }
        self.proc.tel.runtime.timer_fires.inc();
        self.post_runs(ch, g, None);
    }

    /// Under the group lock, post maximal contiguous runs of arrived &&
    /// unsent partitions. With `containing = Some(i)`, only the run holding
    /// `i` is posted (post-flush arrivals); with `None`, all runs are (the
    /// flush itself).
    fn post_runs(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, containing: Option<u32>) {
        let grp = &ch.groups[g as usize];
        let _guard = grp.lock.lock();
        let range = grp.range.clone();
        let eligible = |p: u32| -> bool {
            self.arrived[p as usize].load(Ordering::Acquire) == 1
                && self.sent[p as usize].load(Ordering::Acquire) == 0
        };
        let mut runs: Vec<Range<u32>> = Vec::new();
        let mut cursor = range.start;
        while cursor < range.end {
            if !eligible(cursor) {
                cursor += 1;
                continue;
            }
            let lo = cursor;
            while cursor < range.end && eligible(cursor) {
                cursor += 1;
            }
            runs.push(lo..cursor);
        }
        runs.retain(|run| containing.is_none_or(|i| run.start <= i && i < run.end));
        // A flush that produced several runs claims send-queue slots once
        // for the whole batch. Only on non-persistent plans: their post
        // options are payload-independent, so one computation covers every
        // WR in the batch.
        if runs.len() > 1 && ch.plan.kind != AggregatorKind::Persistent {
            self.post_range_batch(ch, g, &runs);
        } else {
            for run in runs {
                self.post_range(ch, g, run);
            }
        }
    }

    /// Per-run posting bookkeeping (sent flags, counters, events) and WR
    /// assembly: the WR is registered with the process (which mints its id
    /// and retains its in-flight image) and the copy to post comes back in a
    /// pooled shell. Shared by the single and batched paths.
    fn build_range_wr(
        self: &Arc<Self>,
        ch: &SendChannel,
        range: &Range<u32>,
        qp_idx: u32,
        opts: PostOptions,
    ) -> SendWr {
        let lo = range.start;
        let len = range.end - range.start;
        debug_assert!(len >= 1);
        for p in range.clone() {
            let was = self.sent[p as usize].swap(1, Ordering::AcqRel);
            debug_assert_eq!(was, 0, "partition {p} posted twice");
        }
        self.sent_count.fetch_add(len, Ordering::AcqRel);
        self.wr_posted.fetch_add(1, Ordering::AcqRel);
        self.wr_posted_total.fetch_add(1, Ordering::Relaxed);
        self.proc.tel.runtime.aggregated_wrs.inc();
        self.proc.tel.runtime.partitions_posted.add(len as u64);

        // Causal tracing: mint a flow identifier (0 when tracing is off) and
        // record the Posted span. Aggregation hold is measured from the
        // earliest pready of the run — the time the first-ready partition
        // spent waiting for the aggregation decision.
        let flows = &self.proc.tel.flows;
        let flow = flows.next_flow_id();
        if flow != 0 {
            let now = flows.now();
            let first_ready = range
                .clone()
                .map(|p| self.pready_ns[p as usize].load(Ordering::Relaxed))
                .filter(|&t| t != 0)
                .min()
                .unwrap_or(now);
            let hold = now.saturating_sub(first_ready);
            flows.event_at(
                flow,
                partix_verbs::FlowStage::Posted,
                now,
                ch.qps[qp_idx as usize].qp_num(),
                self.id as u32,
                hold,
            );
        }

        let bytes = len as usize * self.part_bytes;
        let byte_lo = lo as usize * self.part_bytes;
        self.proc.track_send(self, qp_idx, opts, |wr| {
            wr.opcode = Opcode::RdmaWriteWithImm;
            wr.sg_list.clear();
            wr.sg_list.push(Sge {
                addr: self.mr.addr_at(byte_lo),
                length: bytes as u32,
                lkey: self.mr.lkey(),
            });
            wr.remote_addr = ch.remote_addr + byte_lo as u64;
            wr.rkey = ch.remote_rkey;
            wr.imm = Some(imm::encode(lo as u16, len as u16));
            // The paper's module does not use inlining (§IV-A).
            wr.inline_data = false;
            wr.flow = flow;
        })
    }

    /// Post every run of a multi-run flush through one `post_send_batch`
    /// call: WR-cap slots are claimed once, and a partial grant spills the
    /// unaccepted tail to the software-pending queue exactly as a
    /// `SendQueueFull` would per-WR.
    fn post_range_batch(self: &Arc<Self>, ch: &SendChannel, g: u32, runs: &[Range<u32>]) {
        // Non-persistent post options ignore payload size (see
        // `post_options`), so the batch shares one computation.
        let opts = self.post_options(0);
        let qp_idx = ch.plan.qp_of(g);
        // Every image is retained before the first post: an instant fabric
        // can dispatch an error completion synchronously, and recovery needs
        // the in-flight image of whichever WR failed.
        let mut wrs = std::mem::take(&mut *ch.batch_scratch.lock());
        wrs.extend(
            runs.iter()
                .map(|run| self.build_range_wr(ch, run, qp_idx, opts)),
        );
        let granted = match ch.qps[qp_idx as usize].post_send_batch(&wrs, opts) {
            Ok(n) => n,
            Err(VerbsError::InvalidQpState { .. }) if self.can_recover() => {
                // QP mid-recovery: park the whole batch for the progress
                // drain (same contract as the per-WR path in `submit`).
                for wr in wrs.drain(..) {
                    self.park(ch, qp_idx, wr, opts, 0);
                }
                *ch.batch_scratch.lock() = wrs;
                return;
            }
            Err(VerbsError::InvalidQpState {
                actual: QpState::Error,
                ..
            }) => {
                // Recovery disabled: no completions will come. Retire the
                // whole batch and poison.
                self.wr_completed
                    .fetch_add(wrs.len() as u32, Ordering::AcqRel);
                for wr in wrs.drain(..) {
                    self.proc.retire_send(wr.wr_id, false);
                    self.proc.recycle_wr(wr);
                }
                *ch.batch_scratch.lock() = wrs;
                self.poison(ch, "queue pair in error state");
                return;
            }
            Err(e) => panic!("unexpected verbs failure on partitioned batch post: {e}"),
        };
        // The leading `granted` WRs are on the wire; the tail hit the
        // outstanding cap and waits for free slots.
        for wr in wrs.drain(granted..) {
            self.spill(ch, qp_idx, wr, opts);
        }
        for wr in wrs.drain(..) {
            self.proc.recycle_wr(wr);
        }
        *ch.batch_scratch.lock() = wrs;
    }

    /// Post one RDMA-write-with-immediate covering user partitions `range`.
    fn post_range(self: &Arc<Self>, ch: &SendChannel, g: u32, range: Range<u32>) {
        let bytes = (range.end - range.start) as usize * self.part_bytes;
        let qp_idx = ch.plan.qp_of(g);
        let opts = self.post_options(bytes);
        let wr = self.build_range_wr(ch, &range, qp_idx, opts);
        self.submit(ch, qp_idx, wr, opts);
    }

    /// Whether an errored QP may still be cycled back to RTS for this
    /// request.
    fn can_recover(&self) -> bool {
        self.proc.config.reliability.max_recoveries > 0 && self.error.get().is_none()
    }

    /// Queue `wr` on the channel's software-pending queue for the progress
    /// drain.
    fn park(&self, ch: &SendChannel, qp_idx: u32, wr: SendWr, opts: PostOptions, queued_ns: u64) {
        ch.pending.lock().push_back(PendingPost {
            qp_idx,
            wr,
            opts,
            queued_ns,
        });
        self.proc.spilled.fetch_add(1, Ordering::AcqRel);
    }

    /// The hardware outstanding cap refused `wr`: count the spill, stamp the
    /// flow, and park it until a slot frees.
    fn spill(&self, ch: &SendChannel, qp_idx: u32, wr: SendWr, opts: PostOptions) {
        self.proc.tel.runtime.pending_spills.inc();
        let flows = &self.proc.tel.flows;
        let queued_ns = flows.now();
        flows.event_at(
            wr.flow,
            partix_verbs::FlowStage::CapQueued,
            queued_ns,
            ch.qps[qp_idx as usize].qp_num(),
            self.id as u32,
            0,
        );
        self.park(ch, qp_idx, wr, opts, queued_ns);
    }

    /// Hand a tracked WR (its in-flight image is already retained, so a
    /// failed completion can re-post it after QP recovery) to the QP,
    /// spilling to the channel's software pending queue when the hardware
    /// outstanding cap is hit (drained from progress).
    pub(crate) fn submit(
        self: &Arc<Self>,
        ch: &SendChannel,
        qp_idx: u32,
        wr: SendWr,
        opts: PostOptions,
    ) {
        // Single-WR batch post: borrows the WR, so a successful post recycles
        // the shell instead of surrendering it. `Ok(0)` is the queue-full
        // case.
        match ch.qps[qp_idx as usize].post_send_batch(std::slice::from_ref(&wr), opts) {
            Ok(1..) => self.proc.recycle_wr(wr),
            Ok(_) => self.spill(ch, qp_idx, wr, opts),
            // The QP is in the error state (or mid-recovery cycle) under an
            // earlier failed WR. With recovery enabled, park the post: the
            // failing WR's completion handler will cycle the QP back to RTS,
            // and the progress engine's drain will re-post this one — or, if
            // recovery exhausts, poisoning will retire it.
            Err(VerbsError::InvalidQpState { .. }) if self.can_recover() => {
                self.park(ch, qp_idx, wr, opts, 0)
            }
            Err(VerbsError::InvalidQpState {
                actual: QpState::Error,
                ..
            }) => {
                // Recovery disabled: no completion will ever come for this
                // post. Poison the request and account the WR as retired so
                // the round terminates.
                self.proc.retire_send(wr.wr_id, false);
                self.proc.recycle_wr(wr);
                self.wr_completed.fetch_add(1, Ordering::AcqRel);
                self.poison(ch, "queue pair in error state");
            }
            Err(e) => panic!("unexpected verbs failure on partitioned post: {e}"),
        }
    }

    /// Software-path cost model for this policy (only in simulated mode).
    fn post_options(&self, bytes: usize) -> PostOptions {
        if !self.proc.sim_mode() {
            return PostOptions::default();
        }
        let now = self.proc.time.now();
        let cfg = &self.proc.config;
        let plan_kind = self
            .channel
            .get()
            .map(|c| c.plan.kind)
            .unwrap_or(cfg.aggregator);
        match plan_kind {
            AggregatorKind::Persistent => {
                // The Open MPI + UCX path: per-message protocol CPU work
                // serialised by the UCX worker lock; oversubscribed posting
                // threads (one per partition in the paper's benchmarks)
                // convoy on the lock.
                let cost = cfg.ucx.cost(bytes, cfg.fabric.loggp.l);
                let convoy = cfg.ucx.convoy_factor(self.partitions);
                let hold = SimDuration::from_nanos_f64(cost.locked_cpu_ns as f64 * convoy);
                let (_start, end) = self.proc.ucx_lock.reserve(now, hold);
                PostOptions {
                    earliest: Some(end),
                    extra_wire_latency: SimDuration::from_nanos(cost.extra_latency_ns),
                    small_lane: cost.small_lane,
                }
            }
            _ => PostOptions {
                // Our direct-verbs module: a short lock-free post path, but
                // no inline/BlueFlame fast lane (paper §IV-A).
                earliest: Some(now + SimDuration::from_nanos(cfg.wr_post_cost_ns)),
                extra_wire_latency: SimDuration::ZERO,
                small_lane: false,
            },
        }
    }

    /// A send-side work completion arrived. `failed` is the WR's in-flight
    /// image, handed over only with an error completion (a successful one
    /// has no further use for it).
    pub(crate) fn on_wr_complete(
        self: &Arc<Self>,
        wc: WorkCompletion,
        failed: Option<PendingPost>,
    ) {
        if let Some(post) = failed {
            // The wire layer already exhausted its own retries to produce
            // this completion; the runtime's last line of defence is QP
            // recovery (cycle the QP back to RTS and re-post the WR).
            let Err(post) = self.try_recover(post) else {
                return;
            };
            self.proc.recycle_wr(post.wr);
            let msg = match wc.status {
                WcStatus::RemoteAccessError => "remote access error",
                WcStatus::RetryExceeded => "transport retries exhausted",
                WcStatus::RnrRetryExceeded => "receiver not ready",
                WcStatus::LocalLengthError => "payload exceeded receive space",
                WcStatus::Success => unreachable!("images accompany error completions only"),
            };
            match self.channel.get() {
                Some(ch) => self.poison(ch, msg),
                None => drop(self.error.set(msg)),
            }
        }
        self.wr_completed.fetch_add(1, Ordering::AcqRel);
        self.maybe_complete();
    }

    /// Attempt QP recovery for a failed WR: consume one unit of the round's
    /// recovery budget, cycle the errored QP Error → Reset → Init → RTR →
    /// RTS, and re-post the WR under a fresh id. Hands the image back when
    /// the budget is exhausted, recovery is disabled, or the QP cannot be
    /// cycled — the caller then poisons the request.
    ///
    /// The failed WR is *not* counted as retired here: its re-post inherits
    /// the original's `wr_posted` slot, so `wr_posted`/`wr_completed` stay
    /// balanced and the round completes only once the retried transfer
    /// really finishes.
    fn try_recover(self: &Arc<Self>, post: PendingPost) -> std::result::Result<(), PendingPost> {
        let rel = &self.proc.config.reliability;
        let Some(ch) = self.channel.get().filter(|_| self.can_recover()) else {
            return Err(post);
        };
        if self.recoveries_round.fetch_add(1, Ordering::AcqRel) >= rel.max_recoveries {
            // Budget exhausted. Leave the counter saturated; the failure
            // surfaces through the normal poison path.
            return Err(post);
        }
        self.recoveries_total.fetch_add(1, Ordering::Relaxed);
        self.proc.tel.runtime.recoveries.inc();
        let qp = &ch.qps[post.qp_idx as usize];
        if qp.state() == QpState::Error && !recover_qp(qp) {
            return Err(post);
        }
        // Re-post byte-identically under a fresh WR id (the old id's
        // completion was just consumed). In-flight WRs the error flushed to
        // software pending are re-posted by the progress engine's drain once
        // the QP is back at RTS.
        let wr = self.proc.track_send(self, post.qp_idx, post.opts, |wr| {
            *wr = post.wr;
        });
        self.submit(ch, post.qp_idx, wr, post.opts);
        Ok(())
    }

    /// Record a fatal error and retire every software-pending WR of the
    /// channel: no completion will ever come for them, and the round must
    /// still terminate (`wr_completed` catches up to `wr_posted`).
    pub(crate) fn poison(self: &Arc<Self>, ch: &SendChannel, msg: &'static str) {
        let _ = self.error.set(msg);
        let stranded: Vec<PendingPost> = ch.pending.lock().drain(..).collect();
        let retired = stranded.len();
        for p in stranded {
            self.proc.retire_send(p.wr.wr_id, false);
            self.proc.recycle_wr(p.wr);
        }
        if retired > 0 {
            self.proc.spilled.fetch_sub(retired, Ordering::AcqRel);
            self.wr_completed
                .fetch_add(retired as u32, Ordering::AcqRel);
        }
    }

    /// Complete the round once every partition was marked ready, every byte
    /// was posted, and every WR was acknowledged.
    pub(crate) fn maybe_complete(self: &Arc<Self>) {
        if !self.active.load(Ordering::Acquire) {
            return;
        }
        if self.pready_count.load(Ordering::Acquire) != self.partitions
            || self.sent_count.load(Ordering::Acquire) != self.partitions
        {
            return;
        }
        let posted = self.wr_posted.load(Ordering::Acquire);
        if self.wr_completed.load(Ordering::Acquire) != posted {
            return;
        }
        if self
            .active
            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if self.proc.config.adaptive_delta {
                self.adapt_delta();
            }
            self.completed_rounds.fetch_add(1, Ordering::AcqRel);
            run_round_callbacks(&self.complete_cbs);
        }
    }

    /// Online delta tuning (the paper's future work): set the next round's
    /// delta to `margin *` [`min_delta_ns`] of this round's `pready` times.
    fn adapt_delta(&self) {
        let Some(ch) = self.channel.get() else { return };
        if ch.plan.timer_delta.is_none() {
            return;
        }
        let stamps = self.pready_ns.iter().map(|t| t.load(Ordering::Relaxed));
        let Some(spread) = min_delta_ns(stamps) else {
            return;
        };
        let margin = self.proc.config.adaptive_delta_margin.max(1.0);
        let new_delta = ((spread as f64 * margin) as u64).max(1_000);
        ch.delta_ns.store(new_delta, Ordering::Release);
    }
}

/// Run the `on_complete` callbacks of the round that just completed, outside
/// the lock (a callback may register the next round's), then hand the
/// emptied vector back so that those registrations reuse its capacity.
fn run_round_callbacks(slot: &Mutex<Vec<Box<dyn FnOnce() + Send>>>) {
    let mut cbs = std::mem::take(&mut *slot.lock());
    for cb in cbs.drain(..) {
        cb();
    }
    let mut slot = slot.lock();
    if slot.is_empty() {
        *slot = cbs;
    }
}

/// The paper's minimum-delta estimate for the timer aggregator (Fig. 12),
/// over one round's `pready` times (or offsets) in ns: drop the laggard —
/// the latest — and return the spread of the rest. `None` below three
/// arrivals: with two, dropping the laggard leaves no spread to measure.
pub fn min_delta_ns(times: impl IntoIterator<Item = u64>) -> Option<u64> {
    let (mut n, mut first, mut laggard, mut runner_up) = (0, u64::MAX, 0, 0);
    for t in times {
        n += 1;
        first = first.min(t);
        if t >= laggard {
            runner_up = laggard;
            laggard = t;
        } else {
            runner_up = runner_up.max(t);
        }
    }
    (n >= 3).then(|| runner_up - first)
}

/// Cycle an errored QP back to RTS: Error → Reset → Init → RTR → RTS, the
/// full `ibv_modify_qp` recovery sequence. Transfers already on the wire
/// are unaffected (their completions still arrive and release their send
/// slots); WRs stranded by the error state sit in the channel's
/// software-pending queue until the progress drain re-posts them. Returns
/// `false` if any transition is rejected.
fn recover_qp(qp: &Arc<QueuePair>) -> bool {
    let Some(peer) = qp.peer() else {
        return false;
    };
    let ok = qp.modify(QpState::Reset).is_ok()
        && qp.modify(QpState::Init).is_ok()
        && qp.modify_to_rtr(peer).is_ok()
        && qp.modify_to_rts().is_ok();
    if ok {
        qp.counters().recoveries.inc();
    }
    ok
}

/// Wire resources of a matched receive request.
pub(crate) struct RecvChannel {
    pub plan: TransportPlan,
    pub qps: Vec<Arc<QueuePair>>,
}

/// Shared state of a partitioned receive request.
pub(crate) struct RecvShared {
    pub id: u64,
    /// The id every receive WR of this request carries: its index in the
    /// process's `recvs` table.
    pub wr_id: u64,
    pub proc: Arc<ProcInner>,
    pub partitions: u32,
    pub part_bytes: usize,
    pub mr: MemoryRegion,
    pub src: u32,
    pub tag: u32,
    pub channel: OnceLock<Arc<RecvChannel>>,
    pub ready: AtomicBool,
    pub ready_cbs: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    pub active: AtomicBool,
    pub arrived: Box<[AtomicU8]>,
    pub arrived_count: AtomicU32,
    pub completed_rounds: AtomicU64,
    pub complete_cbs: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    /// Arrivals observed between rounds (sender ran ahead); applied at the
    /// next `start`. Each entry carries `(lo, count, flow, receiving QP
    /// number)` so the causal chain survives the buffering.
    pub early: Mutex<Vec<(u16, u16, u64, u32)>>,
}

impl RecvShared {
    pub(crate) fn channel(&self) -> Result<&Arc<RecvChannel>> {
        if !self.ready.load(Ordering::Acquire) {
            return Err(PartixError::ChannelNotReady);
        }
        self.channel.get().ok_or(PartixError::ChannelNotReady)
    }

    /// Mark the channel ready (flag only).
    pub(crate) fn set_ready(&self) {
        self.ready.store(true, Ordering::Release);
    }

    /// Fire deferred readiness callbacks (after both ends are flagged).
    pub(crate) fn fire_ready(&self) {
        debug_assert!(self.ready.load(Ordering::Acquire));
        let cbs = std::mem::take(&mut *self.ready_cbs.lock());
        for cb in cbs {
            cb();
        }
    }

    /// Begin a round: reset flags, replenish receive WRs (paper: "In
    /// MPI_Start we also post our receive WRs"), and apply any early
    /// arrivals.
    pub(crate) fn start(self: &Arc<Self>) -> Result<()> {
        let ch = self.channel()?;
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(PartixError::AlreadyActive);
        }
        for f in self.arrived.iter() {
            f.store(0, Ordering::Relaxed);
        }
        self.arrived_count.store(0, Ordering::Release);

        // Top the per-QP receive queues up to the worst-case incoming WR
        // count (the timer aggregator can split a group into single-partition
        // writes).
        for (q, qp) in ch.qps.iter().enumerate() {
            let needed = ch.plan.max_incoming_wrs(q as u32) as usize;
            qp.top_up_recv(needed, self.wr_id)?;
        }

        let early = std::mem::take(&mut *self.early.lock());
        for (lo, cnt, flow, qp) in early {
            self.apply_arrival(lo, cnt, flow, qp);
        }
        Ok(())
    }

    /// An incoming write-with-immediate completion. In simulated mode the
    /// receive software path (completion dispatch + flag bookkeeping) is
    /// charged on a per-process serial resource — the single-threaded
    /// progress engine — before the arrival becomes visible; the persistent
    /// baseline pays the much larger Open MPI + UCX receive cost per
    /// message, which is the receive-side half of the paper's aggregation
    /// argument.
    pub(crate) fn on_incoming(self: &Arc<Self>, wc: WorkCompletion) {
        debug_assert_eq!(wc.status, WcStatus::Success, "recv completion error");
        let (lo, cnt) = imm::decode(wc.imm.expect("write-with-imm carries an immediate"));
        let (flow, qp) = (wc.flow, wc.qp_num);
        if !self.proc.sim_mode() {
            self.record_arrival(lo, cnt, flow, qp);
            return;
        }
        let cfg = &self.proc.config;
        let cost = match self.channel.get().map(|c| c.plan.kind) {
            Some(AggregatorKind::Persistent) => cfg.ucx.recv_cost_ns(wc.byte_len as usize),
            _ => cfg.wr_recv_cost_ns,
        };
        let now = self.proc.time.now();
        let (_s, end) = self
            .proc
            .recv_path
            .reserve(now, SimDuration::from_nanos(cost));
        let delay = end.saturating_since(now);
        if delay == SimDuration::ZERO {
            self.record_arrival(lo, cnt, flow, qp);
        } else {
            let me = self.clone();
            self.proc.time.after(self.proc.rank, delay, move || {
                me.record_arrival(lo, cnt, flow, qp)
            });
        }
    }

    /// Apply an arrival after the software path, buffering it if the round
    /// has not started yet.
    fn record_arrival(self: &Arc<Self>, lo: u16, cnt: u16, flow: u64, qp: u32) {
        if !self.active.load(Ordering::Acquire) {
            self.early.lock().push((lo, cnt, flow, qp));
            return;
        }
        self.apply_arrival(lo, cnt, flow, qp);
    }

    fn apply_arrival(self: &Arc<Self>, lo: u16, cnt: u16, flow: u64, qp: u32) {
        debug_assert!(cnt >= 1);
        // Terminal span of the causal chain: the arrival flags are visible
        // to `parrived` from here on.
        self.proc.tel.flows.event(
            flow,
            partix_verbs::FlowStage::Arrived,
            qp,
            self.id as u32,
            ((lo as u64) << 32) | cnt as u64,
        );
        for p in lo as u32..lo as u32 + cnt as u32 {
            let was = self.arrived[p as usize].swap(1, Ordering::AcqRel);
            debug_assert_eq!(was, 0, "partition {p} delivered twice");
        }
        let total = self.arrived_count.fetch_add(cnt as u32, Ordering::AcqRel) + cnt as u32;
        if total == self.partitions
            && self
                .active
                .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            self.completed_rounds.fetch_add(1, Ordering::AcqRel);
            run_round_callbacks(&self.complete_cbs);
        }
    }

    /// Has partition `i` arrived this round? (`MPI_Parrived`.)
    pub(crate) fn parrived(&self, i: u32) -> Result<bool> {
        if i >= self.partitions {
            return Err(PartixError::PartitionOutOfRange {
                index: i,
                partitions: self.partitions,
            });
        }
        if self.arrived[i as usize].load(Ordering::Acquire) == 1 {
            return Ok(true);
        }
        // Not yet: drive the progress engine (try-lock; §IV-A) and re-check.
        self.proc.try_progress();
        Ok(self.arrived[i as usize].load(Ordering::Acquire) == 1)
    }
}
