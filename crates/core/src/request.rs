//! Partitioned send/receive request state and the aggregation policies.
//!
//! This is the paper's §IV-A data path:
//!
//! - `pready` sets the partition's bit in the request's arrival bitset; the
//!   `pready` that fills its transport partition posts the
//!   `IBV_WR_RDMA_WRITE_WITH_IMM` work request;
//! - the immediate value encodes `(starting user partition, contiguous run
//!   length)` as two packed u16s;
//! - receive completions decode the immediate and set the run's bits in the
//!   receiver's arrival bitset (`Release` on the writer, `Acquire` in
//!   `parrived`);
//! - the timer-based aggregator (§IV-D) arms a δ-timer at the first arrival
//!   of a group, flushes the arrived subset as maximal contiguous runs on
//!   expiry, and lets post-flush arrivals send their own runs.
//!
//! One `pready` makes one read-modify-write (RMW) on shared memory, as the
//! paper's `MPI_Pready` makes one atomic add-and-fetch: the `fetch_or` on its
//! arrival word, which both rejects a double `pready` and finds the group's
//! last arrival. A fixed plan adds a filled group to the ledger's `preadys`
//! once, as it posts it; the timer policy counts each call. Everything else
//! is per WR or rarer: one `full_words` increment per word a wide group
//! fills, the timer policy's `armed` swap and phase CAS per group, one
//! `fetch_or` per posted word (groups narrower than a word share it), and the
//! WR counters. A send WR's id names its request and its run
//! ([`send_wr_id`]), so a fixed group's WR is built once, with its channel,
//! and posted by reference; the process keeps no copy of a WR in flight.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use partix_sim::SimDuration;
use partix_verbs::{
    imm, FlowStage, MemoryRegion, Opcode, PostOptions, QpState, QueuePair, SendWr, Sge, VerbsError,
    WcStatus, WorkCompletion,
};

use crate::config::AggregatorKind;
use crate::error::{PartixError, Result};
use crate::plan::TransportPlan;
use crate::proc::ProcInner;

/// Group phase for the timer aggregator.
const PHASE_COLLECTING: u8 = 0;
const PHASE_SENT_ALL: u8 = 1;
const PHASE_FLUSHED: u8 = 2;

/// Partitions per word of an arrival or posted bitset.
const WORD_BITS: u32 = u64::BITS;

/// A zeroed bitset of `bits` bits.
pub(crate) fn bitset(bits: u32) -> Box<[AtomicU64]> {
    (0..bits.div_ceil(WORD_BITS))
        .map(|_| AtomicU64::new(0))
        .collect()
}

/// Word and mask of bit `i` of a bitset.
fn word_bit(i: u32) -> (usize, u64) {
    ((i / WORD_BITS) as usize, 1 << (i % WORD_BITS))
}

/// The mask of the bits `bits` in word `w`, which they must touch.
fn word_mask(bits: &Range<u32>, w: u32) -> u64 {
    let base = w * WORD_BITS;
    let lo = bits.start.max(base) - base;
    let len = bits.end.min(base + WORD_BITS) - base - lo;
    (u64::MAX >> (WORD_BITS - len)) << lo
}

/// The words that the bits `bits` fall in, each with the mask of those bits.
fn word_masks(bits: Range<u32>) -> impl Iterator<Item = (usize, u64)> {
    (bits.start / WORD_BITS..bits.end.div_ceil(WORD_BITS))
        .map(move |w| (w as usize, word_mask(&bits, w)))
}

/// Per-transport-partition state.
#[derive(Default)]
pub(crate) struct GroupState {
    /// User partitions covered.
    range: Range<u32>,
    /// Words of the request's arrival bits that this group filled this
    /// round, counted only when the group spans more than one word.
    full_words: AtomicU32,
    /// Whether this round's δ-timer is armed (timer policy only).
    armed: AtomicBool,
    /// Timer-aggregator phase, from `PHASE_COLLECTING` (0).
    phase: AtomicU8,
    /// Serialises flush-path scanning.
    lock: Mutex<()>,
}

impl GroupState {
    fn new(range: Range<u32>) -> Self {
        GroupState {
            range,
            ..Default::default()
        }
    }

    /// Forget the last round.
    fn reset(&self) {
        self.full_words.store(0, Ordering::Relaxed);
        self.armed.store(false, Ordering::Relaxed);
        self.phase.store(PHASE_COLLECTING, Ordering::Relaxed);
    }

    /// Claim this round's δ-timer: `true` for exactly one caller per round.
    fn arm(&self) -> bool {
        !self.armed.load(Ordering::Acquire) && !self.armed.swap(true, Ordering::AcqRel)
    }

    /// Move the collecting group to `phase`: `true` for the one caller of a
    /// round that does, the last arrival (`PHASE_SENT_ALL`) or the δ flush.
    fn leave_collecting(&self, phase: u8) -> bool {
        let (from, order) = (PHASE_COLLECTING, Ordering::SeqCst);
        self.phase
            .compare_exchange(from, phase, order, order)
            .is_ok()
    }
}

/// One group and the send request's bitsets, one bit per partition. A
/// group narrower than a word shares it with its neighbours.
struct Group<'a> {
    state: &'a GroupState,
    /// `pready` bits of this round.
    arrived: &'a [AtomicU64],
    /// Posted bits of this round.
    sent: &'a [AtomicU64],
}

impl Group<'_> {
    /// Whether partition `p` was made ready this round. A plain load: only
    /// [`Self::arrive`] decides.
    fn has_arrived(&self, p: u32) -> bool {
        let (w, bit) = word_bit(p);
        self.arrived[w].load(Ordering::Relaxed) & bit != 0
    }

    /// Set partition `p`'s arrival bit: `None` when it was already set this
    /// round (a double `pready`), else whether this arrival filled the
    /// group. `SeqCst`, as is the phase CAS and the flush's scan: either
    /// the flush sees this bit or this arrival sees the flush's phase.
    fn arrive(&self, p: u32) -> Option<bool> {
        let (w, bit) = word_bit(p);
        let was = self.arrived[w].fetch_or(bit, Ordering::SeqCst);
        if was & bit != 0 {
            return None;
        }
        let range = &self.state.range;
        let mine = word_mask(range, w as u32);
        let words = range.end.div_ceil(WORD_BITS) - range.start / WORD_BITS;
        Some(
            (was | bit) & mine == mine
                && (words == 1
                    || self.state.full_words.fetch_add(1, Ordering::AcqRel) + 1 == words),
        )
    }

    /// Record the partitions `run` as posted: one `fetch_or` per word, as
    /// the poster of a neighbouring group may share it.
    fn mark_sent(&self, run: Range<u32>) {
        for (w, mask) in word_masks(run.clone()) {
            let was = self.sent[w].fetch_or(mask, Ordering::Release);
            debug_assert_eq!(was & mask, 0, "partitions {run:?} posted twice");
        }
    }

    /// The maximal contiguous runs of arrived and unsent partitions, in
    /// order; with `containing = Some(i)`, only the run holding `i`.
    fn unsent_runs(&self, containing: Option<u32>) -> Vec<Range<u32>> {
        let range = &self.state.range;
        let mut runs = Vec::new();
        let mut open = None;
        for (w, mine) in word_masks(range.clone()) {
            let bits = self.arrived[w].load(Ordering::SeqCst)
                & !self.sent[w].load(Ordering::Acquire)
                & mine;
            let word = w as u32 * WORD_BITS;
            let mut pos = 0;
            while pos < WORD_BITS {
                let rest = bits >> pos;
                match open {
                    None if rest == 0 => break,
                    None => {
                        pos += rest.trailing_zeros();
                        open = Some(word + pos);
                    }
                    Some(lo) => {
                        pos += rest.trailing_ones();
                        if pos < WORD_BITS {
                            runs.push(lo..word + pos);
                            open = None;
                        }
                    }
                }
            }
        }
        if let Some(lo) = open {
            runs.push(lo..range.end);
        }
        runs.retain(|run| containing.is_none_or(|i| run.contains(&i)));
        runs
    }
}

/// The id of a send WR: the request's index in its process's `sends`
/// table, then the first partition and the length of the run it carries.
/// The id alone rebuilds the WR (with its flow), so a completion finds its
/// request by it and QP recovery and the pending drain re-post from it.
pub(crate) fn send_wr_id(slot: u32, run: &Range<u32>) -> u64 {
    let len = run.end - run.start;
    debug_assert!(len >= 1 && run.end <= u32::from(u16::MAX));
    (u64::from(slot) << 32) | (u64::from(run.start) << 16) | u64::from(len)
}

/// The `sends` slot and the run a [`send_wr_id`] names.
pub(crate) fn send_wr_run(wr_id: u64) -> (usize, Range<u32>) {
    let (lo, len) = ((wr_id >> 16) as u32 & 0xFFFF, wr_id as u32 & 0xFFFF);
    ((wr_id >> 32) as usize, lo..lo + len)
}

/// A WR that hit the hardware outstanding cap, or an errored QP, and waits
/// to be re-posted: by its id, rebuilt at the drain.
pub(crate) struct PendingPost {
    pub qp_idx: u32,
    pub wr_id: u64,
    pub flow: u64,
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
    /// The receive buffer's address and rkey.
    pub remote: (u64, u32),
    pub groups: Vec<GroupState>,
    /// Each group's WR, built with the channel: every round posts it as is.
    pub wrs: Vec<SendWr>,
    pub pending: Mutex<VecDeque<PendingPost>>,
    /// Live delta for the timer aggregator (ns); seeded from the plan and
    /// rewritten each round when adaptive tuning is on.
    pub delta_ns: AtomicU64,
    /// Reused WRs for what is built per post: flush runs, traced posts and
    /// recovery re-posts (their `sg_list` capacity is kept).
    pub batch_scratch: Mutex<Vec<SendWr>>,
}

impl SendChannel {
    /// The channel of `s` over `qps` to the receive buffer `remote`.
    pub(crate) fn new(
        s: &SendShared,
        plan: TransportPlan,
        qps: Vec<Arc<QueuePair>>,
        remote: (u64, u32),
    ) -> Self {
        let wrs = (0..plan.groups).map(|g| {
            let mut wr = SendWr::default();
            s.fill_wr(remote, &plan.range_of(g), 0, &mut wr);
            wr
        });
        SendChannel {
            groups: (0..plan.groups)
                .map(|g| GroupState::new(plan.range_of(g)))
                .collect(),
            wrs: wrs.collect(),
            delta_ns: AtomicU64::new(plan.timer_delta.map_or(0, |d| d.as_nanos())),
            plan,
            qps,
            remote,
            pending: Mutex::default(),
            batch_scratch: Mutex::default(),
        }
    }

    /// Current timer delta, if this channel aggregates with a timer.
    pub(crate) fn current_delta(&self) -> Option<SimDuration> {
        self.plan.timer_delta?;
        Some(SimDuration::from_nanos(
            self.delta_ns.load(Ordering::Acquire),
        ))
    }
}

/// Callbacks a request runs once: at readiness, or at the end of a round.
type Callbacks = Mutex<Vec<Box<dyn FnOnce() + Send>>>;

/// What both ends of a channel share (DESIGN.md §4, "Request lifecycle"):
/// the request's identity, its channel `C`, and its readiness and rounds.
/// [`SendShared`] and [`RecvShared`] embed it by value, so reaching `active`
/// costs no pointer beyond the request's own.
pub(crate) struct RequestCore<C> {
    pub id: u64,
    pub proc: Arc<ProcInner>,
    pub partitions: u32,
    pub part_bytes: usize,
    pub mr: MemoryRegion,
    /// The other end's rank: a send's destination, a receive's source.
    pub peer: u32,
    pub tag: u32,
    pub channel: OnceLock<Arc<C>>,
    pub life: Lifecycle,
}

/// Readiness and rounds, each with its callbacks: changed only by the
/// methods of [`RequestCore`].
#[derive(Default)]
pub(crate) struct Lifecycle {
    ready: AtomicBool,
    ready_cbs: Callbacks,
    /// Mid-round: set by `start`, cleared by [`RequestCore::end_round`].
    active: AtomicBool,
    completed_rounds: AtomicU64,
    complete_cbs: Callbacks,
}

impl<C> RequestCore<C> {
    /// The channel, once bring-up has made it ready.
    pub(crate) fn channel(&self) -> Result<&Arc<C>> {
        if !self.is_ready() {
            return Err(PartixError::ChannelNotReady);
        }
        self.channel.get().ok_or(PartixError::ChannelNotReady)
    }

    /// The channel of a round about to start: ready, and not mid-round.
    fn startable(&self) -> Result<&Arc<C>> {
        let ch = self.channel()?;
        if self.is_active() {
            return Err(PartixError::AlreadyActive);
        }
        Ok(ch)
    }

    /// Open the round: `AlreadyActive` if a racing `start` opened it first.
    fn activate(&self) -> Result<()> {
        if self.life.active.swap(true, Ordering::AcqRel) {
            return Err(PartixError::AlreadyActive);
        }
        Ok(())
    }

    /// Refuse a partition index past the request's count.
    fn check_index(&self, index: u32) -> Result<()> {
        if index >= self.partitions {
            return Err(PartixError::PartitionOutOfRange {
                index,
                partitions: self.partitions,
            });
        }
        Ok(())
    }

    pub(crate) fn is_ready(&self) -> bool {
        self.life.ready.load(Ordering::Acquire)
    }

    pub(crate) fn is_active(&self) -> bool {
        self.life.active.load(Ordering::Acquire)
    }

    pub(crate) fn completed_rounds(&self) -> u64 {
        self.life.completed_rounds.load(Ordering::Acquire)
    }

    /// Mark the channel ready (flag only; see [`Self::fire_ready`]).
    pub(crate) fn set_ready(&self) {
        self.life.ready.store(true, Ordering::Release);
    }

    /// Fire deferred readiness callbacks. Both ends of a channel are
    /// flagged ready before either end's callbacks run, so a callback can
    /// start both requests.
    pub(crate) fn fire_ready(&self) {
        debug_assert!(self.is_ready());
        let cbs = std::mem::take(&mut *self.life.ready_cbs.lock());
        for cb in cbs {
            cb();
        }
    }

    /// Run `cb` at readiness, or at once if the channel is ready: the flag
    /// is read under the lock `fire_ready` takes the callbacks under.
    pub(crate) fn on_ready(&self, cb: impl FnOnce() + Send + 'static) {
        let mut cbs = self.life.ready_cbs.lock();
        if self.is_ready() {
            drop(cbs);
            cb();
        } else {
            cbs.push(Box::new(cb));
        }
    }

    /// Run `cb` when the current round ends.
    pub(crate) fn on_complete(&self, cb: impl FnOnce() + Send + 'static) {
        self.life.complete_cbs.lock().push(Box::new(cb));
    }

    /// `MPI_Test`: an inactive request tests true; otherwise drive progress,
    /// `recheck` the round, and report whether it ended.
    pub(crate) fn test(&self, recheck: impl FnOnce()) -> bool {
        if !self.is_active() {
            return true;
        }
        self.proc.try_progress(None);
        recheck();
        !self.is_active()
    }

    /// End the round if it is still in flight: the one caller whose CAS
    /// closes it runs `settle` (the send side's adaptive δ), counts it, and
    /// runs its callbacks outside the lock (one may register the next
    /// round's), handing the emptied vector back for those to reuse.
    fn end_round(&self, settle: impl FnOnce()) {
        let (life, acq_rel, acq) = (&self.life, Ordering::AcqRel, Ordering::Acquire);
        let closed = life.active.compare_exchange(true, false, acq_rel, acq);
        if closed.is_err() {
            return; // another caller ended it
        }
        settle();
        life.completed_rounds.fetch_add(1, acq_rel);
        let mut cbs = std::mem::take(&mut *life.complete_cbs.lock());
        for cb in cbs.drain(..) {
            cb();
        }
        let mut slot = life.complete_cbs.lock();
        if slot.is_empty() {
            *slot = cbs;
        }
    }
}

/// Shared state of a partitioned send request.
pub(crate) struct SendShared {
    pub core: RequestCore<SendChannel>,
    /// The request's index in its process's `sends` table: the top of
    /// every WR id it posts ([`send_wr_id`]).
    pub slot: u32,
    pub round: AtomicU64,
    /// This round's `pready` bits, one per partition, then as many posted
    /// bits: one allocation, halved by [`Self::group`].
    pub bits: Box<[AtomicU64]>,
    /// Partitions posted this round. A partition is posted only after its
    /// `pready`, so a full count also says every `pready` arrived.
    pub sent_count: AtomicU32,
    pub wr_posted: AtomicU32,
    pub wr_completed: AtomicU32,
    pub wr_posted_total: AtomicU64,
    /// QP recovery cycles spent this round (bounded by
    /// `reliability.max_recoveries`).
    pub recoveries_round: AtomicU64,
    /// QP recovery cycles across the request's lifetime (diagnostics).
    pub recoveries_total: AtomicU64,
    pub error: OnceLock<&'static str>,
    /// Per-partition `pready` times on the world clock, stamped only when
    /// something reads them (see [`Self::stamps_preadies`]): adaptive δ
    /// takes the round's estimate from them, and flow tracing the
    /// `agg_hold_ns` of each WR.
    pub pready_ns: Box<[AtomicU64]>,
}

impl SendShared {
    pub(crate) fn new(core: RequestCore<SendChannel>, slot: u32) -> Self {
        let partitions = core.partitions;
        SendShared {
            core,
            slot,
            round: AtomicU64::new(0),
            bits: bitset(2 * partitions.next_multiple_of(WORD_BITS)),
            sent_count: AtomicU32::new(0),
            wr_posted: AtomicU32::new(0),
            wr_completed: AtomicU32::new(0),
            wr_posted_total: AtomicU64::new(0),
            recoveries_round: AtomicU64::new(0),
            recoveries_total: AtomicU64::new(0),
            error: OnceLock::new(),
            pready_ns: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Begin a round.
    pub(crate) fn start(self: &Arc<Self>) -> Result<()> {
        let ch = self.core.startable()?;
        // Counted before `active` is set: a δ-timer of the last round that
        // sees the request active sees the new round too, and stands down.
        self.round.fetch_add(1, Ordering::AcqRel);
        self.core.activate()?;
        for w in self.bits.iter() {
            w.store(0, Ordering::Relaxed);
        }
        for g in &ch.groups {
            g.reset();
        }
        self.sent_count.store(0, Ordering::Relaxed);
        self.wr_posted.store(0, Ordering::Relaxed);
        self.wr_completed.store(0, Ordering::Release);
        self.recoveries_round.store(0, Ordering::Relaxed);
        if self.stamps_preadies() {
            for t in self.pready_ns.iter() {
                t.store(0, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Group `g` of the channel with this request's bitsets.
    fn group<'a>(&'a self, ch: &'a SendChannel, g: u32) -> Group<'a> {
        let (arrived, sent) = self.bits.split_at(self.bits.len() / 2);
        Group {
            state: &ch.groups[g as usize],
            arrived,
            sent,
        }
    }

    /// Whether `pready` stamps [`Self::pready_ns`]: under adaptive δ or
    /// while flow tracing is on.
    fn stamps_preadies(&self) -> bool {
        self.core.proc.config.adaptive_delta || self.core.proc.tel.flows.enabled()
    }

    /// Mark user partition `i` ready for transfer.
    pub(crate) fn pready(self: &Arc<Self>, i: u32) -> Result<()> {
        if !self.core.is_active() {
            return Err(PartixError::NotActive);
        }
        self.core.check_index(i)?;
        let ch = self.core.channel()?;
        if ch.plan.timer_delta.is_some() {
            // A due δ fires before this arrival is published: a laggard past
            // the deadline finds the flush posted, then sends its own run
            // (the δ_b case of Fig. 5).
            self.core.proc.time.fire_due();
        }
        let g = ch.plan.group_of(i);
        let grp = self.group(ch, g);
        // Stamped before the bit is published: whoever sees the bit may post
        // the partition and complete the round, and adaptive δ then reads
        // every stamp. The load keeps a double `pready` from overwriting
        // the stamp; `arrive` stays the authority.
        if self.stamps_preadies() {
            if grp.has_arrived(i) {
                return Err(PartixError::DoublePready { index: i });
            }
            self.pready_ns[i as usize]
                .store(self.core.proc.time.now().as_nanos(), Ordering::Relaxed);
        }
        let Some(last) = grp.arrive(i) else {
            return Err(PartixError::DoublePready { index: i });
        };
        let preadys = &self.core.proc.tel.runtime.preadys;
        match ch.current_delta() {
            // Without a timer, the arrival that fills the group counts the
            // group's `pready`s, then posts it.
            None if last => {
                preadys.add(u64::from(ch.plan.group_size));
                self.post_group(ch, g);
            }
            // A group not yet full posted nothing, and ends no round.
            None => return Ok(()),
            Some(delta) => {
                preadys.inc();
                self.timer_pready(ch, g, i, last, delta);
            }
        }
        // This pready may have posted nothing (a concurrent flush already
        // covered the partition) while every WR ack has already been
        // retired; re-evaluate completion so the round cannot be left
        // complete-but-undetected.
        self.maybe_complete();
        Ok(())
    }

    /// Timer policy (paper §IV-D), after partition `i` of group `g`
    /// arrived; `last` says it filled the group.
    fn timer_pready(
        self: &Arc<Self>,
        ch: &Arc<SendChannel>,
        g: u32,
        i: u32,
        last: bool,
        delta: SimDuration,
    ) {
        let grp = self.group(ch, g);
        if last {
            // Last arrival: if the delta timer has not flushed yet, the last
            // thread aggregates and sends the whole group (the delta_a case
            // of the paper's Fig. 5).
            if grp.state.leave_collecting(PHASE_SENT_ALL) {
                self.post_group(ch, g);
                return;
            }
            // Already flushed: fall through and send our own run.
        } else if grp.state.arm() {
            // First arrival arms the timer (it "sleeps" for at most delta).
            let weak = Arc::downgrade(self);
            let ch2 = ch.clone();
            let (proc, round) = (&self.core.proc, self.round.load(Ordering::Acquire));
            proc.time.after(proc.rank, delta, move || {
                if let Some(s) = weak.upgrade() {
                    s.flush_group(&ch2, g, round);
                }
            });
        }

        if grp.state.phase.load(Ordering::SeqCst) == PHASE_FLUSHED {
            // Post-flush arrival: send the maximal contiguous run of
            // arrived-but-unsent partitions containing `i` (the delta_b case:
            // the laggard sends its own partition).
            self.post_runs(ch, g, Some(i));
        }
    }

    /// Delta-timer expiry: flush the arrived subset of group `g` as maximal
    /// contiguous runs.
    fn flush_group(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, armed_round: u64) {
        if !self.core.is_active() || self.round.load(Ordering::Acquire) != armed_round {
            return; // stale timer from a finished round
        }
        if !ch.groups[g as usize].leave_collecting(PHASE_FLUSHED) {
            return; // the whole group was already sent
        }
        self.core.proc.tel.runtime.timer_fires.inc();
        self.post_runs(ch, g, None);
    }

    /// Under the group lock, post maximal contiguous runs of arrived &&
    /// unsent partitions through one `post`: with `containing = Some(i)`,
    /// only the run holding `i` (post-flush arrivals); with `None`, all of
    /// them (the flush). Only timer plans get here, whose post options
    /// ignore payload size, so the runs share one computation; a
    /// `Persistent` group, whose options do not, is one partition.
    fn post_runs(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, containing: Option<u32>) {
        let grp = self.group(ch, g);
        let _guard = grp.state.lock.lock();
        let runs = grp.unsent_runs(containing);
        let qp_idx = ch.plan.qp_of(g);
        let opts = self.post_options(0, true);
        let noted = runs.into_iter().map(|run| {
            let flow = self.note_posted(ch, &run, qp_idx);
            (run, flow)
        });
        self.post_built(ch, qp_idx, noted, opts);
    }

    /// Post group `g` whole. Its WR was built with the channel and is posted
    /// as is; a traced post carries a flow of its own, so it is built anew.
    fn post_group(self: &Arc<Self>, ch: &SendChannel, g: u32) {
        let run = ch.plan.range_of(g);
        let qp_idx = ch.plan.qp_of(g);
        let opts = self.post_options(ch.plan.group_size as usize * self.core.part_bytes, true);
        match self.note_posted(ch, &run, qp_idx) {
            0 => self.post(ch, qp_idx, std::slice::from_ref(&ch.wrs[g as usize]), opts),
            flow => self.post_built(ch, qp_idx, std::iter::once((run, flow)), opts),
        }
    }

    /// Per-run posting bookkeeping: posted bits, counters, and the flow's
    /// `Posted` event. Returns the run's flow id, 0 when tracing is off.
    fn note_posted(&self, ch: &SendChannel, range: &Range<u32>, qp_idx: u32) -> u64 {
        let len = range.end - range.start;
        debug_assert!(len >= 1);
        self.group(ch, ch.plan.group_of(range.start))
            .mark_sent(range.clone());
        // `wr_posted` counts the WR before `sent_count` can read full:
        // `maybe_complete` reads them in the other order.
        self.wr_posted.fetch_add(1, Ordering::AcqRel);
        self.sent_count.fetch_add(len, Ordering::AcqRel);
        self.wr_posted_total.fetch_add(1, Ordering::Relaxed);
        self.core.proc.tel.runtime.aggregated_wrs.inc();
        self.core.proc.tel.runtime.partitions_posted.add(len as u64);

        // Causal tracing: mint a flow identifier (0 when tracing is off) and
        // record the Posted span. Aggregation hold is measured from the
        // earliest pready of the run — the time the first-ready partition
        // spent waiting for the aggregation decision.
        let flows = &self.core.proc.tel.flows;
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
                FlowStage::Posted,
                now,
                ch.qps[qp_idx as usize].qp_num(),
                self.core.id as u32,
                hold,
            );
        }
        flow
    }

    /// Write into `wr` the RDMA-write-with-immediate that carries partitions
    /// `run` to the receive buffer `(addr, rkey)`, traced as `flow`.
    pub(crate) fn fill_wr(&self, remote: (u64, u32), run: &Range<u32>, flow: u64, wr: &mut SendWr) {
        let (lo, len) = (run.start, run.end - run.start);
        let byte_lo = lo as usize * self.core.part_bytes;
        wr.wr_id = send_wr_id(self.slot, run);
        wr.opcode = Opcode::RdmaWriteWithImm;
        wr.sg_list.clear();
        wr.sg_list.push(Sge {
            addr: self.core.mr.addr_at(byte_lo),
            length: (len as usize * self.core.part_bytes) as u32,
            lkey: self.core.mr.lkey(),
        });
        wr.remote_addr = remote.0 + byte_lo as u64;
        wr.rkey = remote.1;
        wr.imm = Some(imm::encode(lo as u16, len as u16));
        // The paper's module does not use inlining (§IV-A).
        wr.inline_data = false;
        wr.flow = flow;
    }

    /// Build a WR for each `(run, flow)` in the channel's reused scratch and
    /// post them to QP `qp_idx` as one batch.
    fn post_built(
        self: &Arc<Self>,
        ch: &SendChannel,
        qp_idx: u32,
        runs: impl Iterator<Item = (Range<u32>, u64)>,
        opts: PostOptions,
    ) {
        let mut wrs = std::mem::take(&mut *ch.batch_scratch.lock());
        let mut n = 0;
        for (run, flow) in runs {
            if n == wrs.len() {
                wrs.push(SendWr::default());
            }
            self.fill_wr(ch.remote, &run, flow, &mut wrs[n]);
            n += 1;
        }
        self.post(ch, qp_idx, &wrs[..n], opts);
        *ch.batch_scratch.lock() = wrs;
    }

    /// Whether an errored QP may still be cycled back to RTS.
    fn can_recover(&self) -> bool {
        self.core.proc.config.reliability.max_recoveries > 0 && self.error.get().is_none()
    }

    /// Post WRs to QP `qp_idx` through one `post_send_batch` call, and
    /// dispose of each by outcome. Granted, it is in flight; refused by the
    /// outstanding cap, it is spilled: counted, stamped `CapQueued` and
    /// parked, by id, in the channel's software-pending queue; on a QP
    /// errored or mid recovery, it is parked until the drain finds the QP
    /// back at RTS; on a dead QP with recovery off, no completion will come,
    /// so it is retired as completed and the request poisoned.
    fn post(self: &Arc<Self>, ch: &SendChannel, qp_idx: u32, wrs: &[SendWr], opts: PostOptions) {
        let qp = &ch.qps[qp_idx as usize];
        // How many WRs the QP took, and whether the rest were refused by the
        // cap (else they met an errored QP that recovery may bring back).
        let (granted, capped) = match qp.post_send_batch(wrs, opts) {
            Ok(n) => (n, true),
            Err(VerbsError::InvalidQpState { .. }) if self.can_recover() => (0, false),
            Err(VerbsError::InvalidQpState {
                actual: QpState::Error,
                ..
            }) => {
                // Poisoned before the count lets the round complete, so no
                // waiter sees it end without its error.
                self.poison(ch, "queue pair in error state");
                self.retire(wrs.len());
                return;
            }
            Err(e) => panic!("unexpected verbs failure on partitioned post: {e}"),
        };
        let flows = &self.core.proc.tel.flows;
        for wr in &wrs[granted..] {
            let mut queued_ns = 0;
            if capped {
                self.core.proc.tel.runtime.pending_spills.inc();
                queued_ns = flows.now();
                let (stage, qp_num) = (FlowStage::CapQueued, qp.qp_num());
                flows.event_at(wr.flow, stage, queued_ns, qp_num, self.core.id as u32, 0);
            }
            ch.pending.lock().push_back(PendingPost {
                qp_idx,
                wr_id: wr.wr_id,
                flow: wr.flow,
                opts,
                queued_ns,
            });
            self.core.proc.spilled.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// CPU cost of posting one WR through the direct-verbs path.
    const WR_POST_COST: SimDuration = SimDuration::from_nanos(200);

    /// Software-path cost model for this policy (only in simulated mode). A
    /// re-post does not `reserve` the software path again: the original
    /// post's `earliest` is already past, and the fabric starts a WR at
    /// `max(now, earliest)`, so `None` gives it the same start.
    fn post_options(&self, bytes: usize, reserve: bool) -> PostOptions {
        let proc = &self.core.proc;
        if !proc.sim_mode() {
            return PostOptions::default();
        }
        let (now, cfg) = (proc.time.now(), &proc.config);
        let plan = self.core.channel.get().map(|c| c.plan.kind);
        match plan.unwrap_or(cfg.aggregator) {
            AggregatorKind::Persistent => {
                // The Open MPI + UCX path: per-message protocol CPU work
                // serialised by the UCX worker lock; oversubscribed posting
                // threads (one per partition in the paper's benchmarks)
                // convoy on the lock.
                let cost = cfg.ucx.cost(bytes, cfg.fabric.loggp.l);
                let convoy = cfg.ucx.convoy_factor(self.core.partitions);
                let hold = SimDuration::from_nanos_f64(cost.locked_cpu_ns as f64 * convoy);
                PostOptions {
                    earliest: reserve.then(|| proc.ucx_lock.reserve(now, hold).1),
                    extra_wire_latency: SimDuration::from_nanos(cost.extra_latency_ns),
                    small_lane: cost.small_lane,
                }
            }
            _ => PostOptions {
                // Our direct-verbs module: a short lock-free post path, but
                // no inline/BlueFlame fast lane (paper §IV-A).
                earliest: reserve.then(|| now + Self::WR_POST_COST),
                extra_wire_latency: SimDuration::ZERO,
                small_lane: false,
            },
        }
    }

    /// A send-side work completion arrived, for a WR of this request that
    /// was in flight.
    pub(crate) fn on_wr_complete(self: &Arc<Self>, wc: WorkCompletion) {
        if wc.status != WcStatus::Success {
            // The wire layer already exhausted its own retries to produce
            // this completion; the runtime's last line of defence is QP
            // recovery (cycle the QP back to RTS and re-post the WR).
            if self.try_recover(&wc) {
                return;
            }
            let msg = match wc.status {
                WcStatus::RemoteAccessError => "remote access error",
                WcStatus::RetryExceeded => "transport retries exhausted",
                WcStatus::RnrRetryExceeded => "receiver not ready",
                WcStatus::LocalLengthError => "work request longer than the wire carries",
                WcStatus::Success => unreachable!("only error completions get here"),
            };
            match self.core.channel.get() {
                Some(ch) => self.poison(ch, msg),
                None => drop(self.error.set(msg)),
            }
        }
        let done = self.wr_completed.fetch_add(1, Ordering::AcqRel);
        let posted = || self.wr_posted.load(Ordering::Acquire);
        debug_assert!(done < posted(), "WR {:#x} not in flight", wc.wr_id);
        self.maybe_complete();
    }

    /// Attempt QP recovery for the failed WR `wc` names: consume one unit of
    /// the round's recovery budget, cycle the errored QP Error → Reset →
    /// Init → RTR → RTS, and re-post the WR, rebuilt from its id and flow.
    /// `false` when the budget is exhausted, recovery is disabled, or the QP
    /// cannot be cycled — the caller then poisons the request.
    ///
    /// The failed WR is *not* counted as retired here: its re-post inherits
    /// the original's `wr_posted` slot, so `wr_posted`/`wr_completed` stay
    /// balanced and the round completes only once the retried transfer
    /// really finishes.
    fn try_recover(self: &Arc<Self>, wc: &WorkCompletion) -> bool {
        let proc = &self.core.proc;
        let Some(ch) = self.core.channel.get().filter(|_| self.can_recover()) else {
            return false;
        };
        let budget = proc.config.reliability.max_recoveries;
        if self.recoveries_round.fetch_add(1, Ordering::AcqRel) >= budget {
            // Budget exhausted. Leave the counter saturated; the failure
            // surfaces through the normal poison path.
            return false;
        }
        self.recoveries_total.fetch_add(1, Ordering::Relaxed);
        proc.tel.runtime.recoveries.inc();
        let (_, run) = send_wr_run(wc.wr_id);
        let qp_idx = ch.plan.qp_of(ch.plan.group_of(run.start));
        let qp = &ch.qps[qp_idx as usize];
        if qp.state() == QpState::Error && !recover_qp(qp) {
            return false;
        }
        // Re-posted byte-identically under the same id (its completion was
        // just consumed). In-flight WRs the error flushed to software
        // pending are re-posted by the progress engine's drain once the QP
        // is back at RTS.
        let opts = self.post_options((run.end - run.start) as usize * self.core.part_bytes, false);
        self.post_built(ch, qp_idx, std::iter::once((run, wc.flow)), opts);
        true
    }

    /// Record a fatal error and retire every software-pending WR of the
    /// channel.
    pub(crate) fn poison(self: &Arc<Self>, ch: &SendChannel, msg: &'static str) {
        let _ = self.error.set(msg);
        let stranded = ch.pending.lock().drain(..).count();
        if stranded > 0 {
            self.core.proc.spilled.fetch_sub(stranded, Ordering::AcqRel);
            self.retire(stranded);
        }
    }

    /// Retire `n` WRs no completion will ever come for, so that the round
    /// still terminates: `wr_completed` catches up to `wr_posted`.
    fn retire(&self, n: usize) {
        self.wr_completed.fetch_add(n as u32, Ordering::AcqRel);
    }

    /// Complete the round once every partition was posted (and so marked
    /// ready) and every WR was acknowledged.
    pub(crate) fn maybe_complete(self: &Arc<Self>) {
        let core = &self.core;
        if !core.is_active() || self.sent_count.load(Ordering::Acquire) != core.partitions {
            return;
        }
        let posted = self.wr_posted.load(Ordering::Acquire);
        if self.wr_completed.load(Ordering::Acquire) != posted {
            return;
        }
        core.end_round(|| {
            if core.proc.config.adaptive_delta {
                self.adapt_delta();
            }
        });
    }

    /// Online delta tuning (the paper's future work): set the next round's
    /// delta to `margin *` [`min_delta_ns`] of this round's `pready` times.
    fn adapt_delta(&self) {
        let ch = self.core.channel.get();
        let Some(ch) = ch.filter(|c| c.plan.timer_delta.is_some()) else {
            return;
        };
        let stamps = self.pready_ns.iter().map(|t| t.load(Ordering::Relaxed));
        let Some(spread) = min_delta_ns(stamps) else {
            return;
        };
        let margin = self.core.proc.config.adaptive_delta_margin.max(1.0);
        let new_delta = ((spread as f64 * margin) as u64).max(1_000);
        ch.delta_ns.store(new_delta, Ordering::Release);
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
    pub core: RequestCore<RecvChannel>,
    /// The id every receive WR of this request carries: its index in the
    /// process's `recvs` table.
    pub wr_id: u64,
    /// Arrival bits of this round, one per partition.
    pub arrived: Box<[AtomicU64]>,
    /// Set bits of `arrived`.
    pub arrived_count: AtomicU32,
    /// Arrivals observed between rounds (sender ran ahead); applied at the
    /// next `start`. Each entry carries `(lo, count, flow, receiving QP
    /// number)` so the causal chain survives the buffering.
    pub early: Mutex<Vec<(u16, u16, u64, u32)>>,
}

impl RecvShared {
    pub(crate) fn new(core: RequestCore<RecvChannel>, wr_id: u64) -> Self {
        RecvShared {
            wr_id,
            arrived: bitset(core.partitions),
            arrived_count: AtomicU32::new(0),
            early: Mutex::default(),
            core,
        }
    }

    /// Begin a round: reset flags, replenish receive WRs (paper: "In
    /// MPI_Start we also post our receive WRs"), and apply any early
    /// arrivals. The reset comes while the request is inactive, so every
    /// arrival until `active` is set (under the `early` lock) is buffered.
    pub(crate) fn start(self: &Arc<Self>) -> Result<()> {
        let ch = self.core.startable()?;
        for w in self.arrived.iter() {
            w.store(0, Ordering::Relaxed);
        }
        self.arrived_count.store(0, Ordering::Release);

        // Top the per-QP receive queues up to the worst-case incoming WR
        // count (the timer aggregator can split a group into single-partition
        // writes).
        for (q, qp) in ch.qps.iter().enumerate() {
            let needed = ch.plan.max_incoming_wrs(q as u32) as usize;
            qp.top_up_recv(needed, self.wr_id)?;
        }

        let early = {
            let mut early = self.early.lock();
            self.core.activate()?;
            std::mem::take(&mut *early)
        };
        for (lo, cnt, flow, qp) in early {
            self.apply_arrival(lo, cnt, flow, qp);
        }
        Ok(())
    }

    /// CPU cost of retiring one receive completion on the direct-verbs path
    /// (decode the immediate, set the arrival bits), serialised by the
    /// progress engine, in ns.
    const WR_RECV_COST_NS: u64 = 300;

    /// An incoming write-with-immediate completion. In simulated mode the
    /// receive software path (completion dispatch + flag bookkeeping) is
    /// charged on a per-process serial resource — the single-threaded
    /// progress engine — before the arrival becomes visible; the persistent
    /// baseline pays the much larger Open MPI + UCX receive cost per
    /// message, which is the receive-side half of the paper's aggregation
    /// argument.
    ///
    /// A malformed immediate — an empty run, or one past the last partition
    /// — is dropped: applied, it would index past the arrival bitset or set
    /// bits no partition owns.
    pub(crate) fn on_incoming(self: &Arc<Self>, wc: WorkCompletion) {
        debug_assert_eq!(wc.status, WcStatus::Success, "recv completion error");
        let (lo, cnt) = imm::decode(wc.imm.expect("write-with-imm carries an immediate"));
        if cnt == 0 || u32::from(lo) + u32::from(cnt) > self.core.partitions {
            return;
        }
        let (flow, qp) = (wc.flow, wc.qp_num);
        let proc = &self.core.proc;
        if !proc.sim_mode() {
            self.record_arrival(lo, cnt, flow, qp);
            return;
        }
        let cost = match self.core.channel.get().map(|c| c.plan.kind) {
            Some(AggregatorKind::Persistent) => proc.config.ucx.recv_cost_ns(wc.byte_len as usize),
            _ => Self::WR_RECV_COST_NS,
        };
        let now = proc.time.now();
        let (_s, end) = proc.recv_path.reserve(now, SimDuration::from_nanos(cost));
        let delay = end.saturating_since(now);
        if delay == SimDuration::ZERO {
            self.record_arrival(lo, cnt, flow, qp);
        } else {
            let me = self.clone();
            proc.time.after(proc.rank, delay, move || {
                me.record_arrival(lo, cnt, flow, qp)
            });
        }
    }

    /// Apply an arrival after the software path, buffering it if the round
    /// has not started: an inactive reading is re-checked under the `early`
    /// lock, under which `start` sets `active` and takes the buffer.
    fn record_arrival(self: &Arc<Self>, lo: u16, cnt: u16, flow: u64, qp: u32) {
        if !self.core.is_active() {
            let mut early = self.early.lock();
            if !self.core.is_active() {
                early.push((lo, cnt, flow, qp));
                return;
            }
        }
        self.apply_arrival(lo, cnt, flow, qp);
    }

    fn apply_arrival(self: &Arc<Self>, lo: u16, cnt: u16, flow: u64, qp: u32) {
        // Terminal span of the causal chain: the arrival flags are visible
        // to `parrived` from here on.
        self.core.proc.tel.flows.event(
            flow,
            FlowStage::Arrived,
            qp,
            self.core.id as u32,
            ((lo as u64) << 32) | cnt as u64,
        );
        // Only bits this arrival set are counted: a duplicate can neither
        // complete the round early nor push the count past `partitions`.
        let run = lo as u32..lo as u32 + cnt as u32;
        let mut fresh = 0;
        for (w, mask) in word_masks(run.clone()) {
            let was = self.arrived[w].fetch_or(mask, Ordering::AcqRel);
            debug_assert_eq!(was & mask, 0, "partitions {run:?} delivered twice");
            fresh += (mask & !was).count_ones();
        }
        if fresh == 0 {
            return;
        }
        let total = self.arrived_count.fetch_add(fresh, Ordering::AcqRel) + fresh;
        if total == self.core.partitions {
            self.core.end_round(|| {});
        }
    }

    /// Has partition `i` arrived this round? (`MPI_Parrived`.)
    pub(crate) fn parrived(&self, i: u32) -> Result<bool> {
        self.core.check_index(i)?;
        let (w, bit) = word_bit(i);
        if self.arrived[w].load(Ordering::Acquire) & bit != 0 {
            return Ok(true);
        }
        // Not yet: drive the progress engine (try-lock; §IV-A) and re-check.
        self.core.proc.try_progress(None);
        Ok(self.arrived[w].load(Ordering::Acquire) & bit != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The protocol the bitsets replace: a flag byte per partition for
    /// `pready` and for posting, and an arrival counter per group.
    struct ByteFlags {
        arrived: Vec<bool>,
        sent: Vec<bool>,
        count: u32,
    }

    impl ByteFlags {
        fn new(len: u32) -> Self {
            ByteFlags {
                arrived: vec![false; len as usize],
                sent: vec![false; len as usize],
                count: 0,
            }
        }

        /// `None` for a double `pready`, else whether it completed the group
        /// and whether it armed the timer.
        fn pready(&mut self, p: u32) -> Option<(bool, bool)> {
            if std::mem::replace(&mut self.arrived[p as usize], true) {
                return None;
            }
            self.count += 1;
            let last = self.count == self.arrived.len() as u32;
            Some((last, self.count == 1 && !last))
        }

        /// The flush's scan: maximal runs of arrived and unsent partitions,
        /// offset by `base`.
        fn runs(&self, base: u32, containing: Option<u32>) -> Vec<Range<u32>> {
            let len = self.arrived.len() as u32;
            let eligible = |p: u32| self.arrived[p as usize] && !self.sent[p as usize];
            let mut runs = Vec::new();
            let mut cursor = 0;
            while cursor < len {
                if !eligible(cursor) {
                    cursor += 1;
                    continue;
                }
                let lo = cursor;
                while cursor < len && eligible(cursor) {
                    cursor += 1;
                }
                runs.push(base + lo..base + cursor);
            }
            runs.retain(|run| containing.is_none_or(|i| run.contains(&i)));
            runs
        }

        fn mark(&mut self, run: Range<u32>, base: u32) {
            for p in run {
                self.sent[(p - base) as usize] = true;
            }
        }
    }

    proptest! {
        /// Three groups side by side, so that narrow ones share words, made
        /// ready in interleaved random orders with double `pready`s and
        /// flushes at random points: each group's view of the bitsets and
        /// its byte-flag model agree on which `pready` completes the group,
        /// which one arms the timer and which runs each flush posts, and
        /// again after a reset.
        #[test]
        fn bitsets_agree_with_byte_flags(
            len in prop::sample::select(vec![1u32, 2, 3, 25, 63, 64, 65, 127, 128, 200]),
            keys in prop::collection::vec(any::<u64>(), 600..601),
            steps in prop::collection::vec(any::<u8>(), 600..601),
        ) {
            let states: Vec<GroupState> =
                (0..3).map(|g| GroupState::new(g * len..(g + 1) * len)).collect();
            let bits = bitset(2 * (3 * len).next_multiple_of(WORD_BITS));
            let (arrived, sent) = bits.split_at(bits.len() / 2);
            let groups: Vec<Group> =
                states.iter().map(|state| Group { state, arrived, sent }).collect();
            for round in 0..2 {
                let mut order: Vec<u32> = (0..3 * len).collect();
                order.sort_by_key(|&i| keys[i as usize].rotate_left(round * 32));
                let mut models: Vec<ByteFlags> = (0..3).map(|_| ByteFlags::new(len)).collect();
                for (k, &i) in order.iter().enumerate() {
                    let step = steps[k];
                    let g = (i / len) as usize;
                    let (grp, model, base) = (&groups[g], &mut models[g], g as u32 * len);
                    let got = grp.arrive(i).map(|last| (last, !last && grp.state.arm()));
                    prop_assert_eq!(got, model.pready(i - base), "pready {} of {}", i, len);
                    if step & 7 == 0 {
                        // A double pready of one of the partitions so far.
                        let j = order[(step >> 3) as usize % (k + 1)];
                        let (h, base_h) = ((j / len) as usize, (j / len) * len);
                        prop_assert!(groups[h].has_arrived(j));
                        prop_assert_eq!(groups[h].arrive(j), None);
                        prop_assert_eq!(models[h].pready(j - base_h), None);
                    }
                    if step & 0x30 == 0 {
                        // A flush, or a post-flush arrival's scan for its run.
                        let (grp, model) = (&groups[g], &mut models[g]);
                        let containing = (step & 0x40 != 0).then_some(i);
                        let runs = grp.unsent_runs(containing);
                        prop_assert_eq!(&runs, &model.runs(base, containing));
                        for run in runs {
                            grp.mark_sent(run.clone());
                            model.mark(run, base);
                        }
                    }
                }
                for (g, grp) in groups.iter().enumerate() {
                    prop_assert_eq!(grp.unsent_runs(None), models[g].runs(g as u32 * len, None));
                    grp.state.reset();
                }
                for w in bits.iter() {
                    w.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    #[test]
    fn word_masks_cover_a_range_exactly() {
        let words: Vec<_> = word_masks(60..130).collect();
        assert_eq!(words, [(0, 0xF << 60), (1, u64::MAX), (2, 0b11)]);
        assert_eq!(word_masks(64..128).collect::<Vec<_>>(), [(1, u64::MAX)]);
        assert_eq!(word_masks(5..6).collect::<Vec<_>>(), [(0, 1 << 5)]);
    }

    /// A send WR's id names its request's slot and its run exactly, at the
    /// edges of both, and its low half is the run's immediate.
    #[test]
    fn a_send_wr_id_round_trips_at_its_edges() {
        let cases = [
            (u32::MAX, 0..65_535),
            (u32::MAX - 1, 65_534..65_535),
            (0, 0..1),
            (1 << 20, 3..9),
        ];
        for (slot, run) in cases {
            let id = send_wr_id(slot, &run);
            assert_eq!(send_wr_run(id), (slot as usize, run.clone()));
            let imm = imm::encode(run.start as u16, (run.end - run.start) as u16);
            assert_eq!(id as u32, imm, "{slot} {run:?}");
        }
    }

    /// A receive completion whose immediate names an empty run, or a run
    /// past the last partition, is dropped — mid-round or buffered before
    /// `start` — without a panic and without an arrival; a good round after
    /// them completes with every byte.
    #[test]
    fn a_malformed_immediate_is_dropped() {
        const PARTS: u32 = 8;
        let cfg = crate::PartixConfig::with_aggregator(AggregatorKind::PLogGp);
        let world = crate::World::instant(2, cfg);
        let (p0, p1) = (world.proc(0), world.proc(1));
        let bytes = PARTS as usize * 64;
        let sbuf = p0.alloc_buffer(bytes).unwrap();
        let rbuf = p1.alloc_buffer(bytes).unwrap();
        let send = p0.psend_init(&sbuf, PARTS, 64, 1, 0).unwrap();
        let recv = p1.precv_init(&rbuf, PARTS, 64, 0, 0).unwrap();
        let deliver = |lo: u16, cnt: u16| {
            recv.shared.on_incoming(WorkCompletion {
                wr_id: recv.shared.wr_id,
                status: WcStatus::Success,
                opcode: partix_verbs::WcOpcode::RecvRdmaWithImm,
                byte_len: u32::from(cnt) * 64,
                imm: Some(imm::encode(lo, cnt)),
                qp_num: 0,
                flow: 0,
                pushed_ns: 0,
            })
        };
        let bad = [(0, 0), (7, 0), (4, 5), (7, 2), (u16::MAX, 1), (1, u16::MAX)];
        deliver(3, 0); // before `start`: would be buffered
        recv.start().unwrap();
        send.start().unwrap();
        for (lo, cnt) in bad {
            deliver(lo, cnt);
            assert_eq!(recv.arrived_count(), 0, "({lo}, {cnt})");
        }
        let data: Vec<u8> = (0..bytes).map(|b| (b * 13 + 1) as u8).collect();
        sbuf.write(0, &data).unwrap();
        send.pready_range(0, PARTS).unwrap();
        send.wait().unwrap();
        recv.wait().unwrap();
        assert_eq!(recv.arrived_count(), PARTS);
        assert_eq!(recv.completed_rounds(), 1);
        assert_eq!(rbuf.read_vec(0, bytes).unwrap(), data);
    }

    /// What a δ flush of many runs meets at its QP.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum FlushOnto {
        /// A live QP whose outstanding-WR cap refuses the batch's tail.
        FullQueue,
        /// A QP in the error state, with recovery on.
        ErroredQp,
        /// A QP in the error state, with recovery off.
        DeadQp,
    }

    /// A `TimerPLogGp` group of 64 partitions on one QP: the even partitions
    /// are made ready, so the δ flush posts 32 one-partition runs in one
    /// batch, twice the WR cap; then the odd ones, each a post-flush run of
    /// its own. The batch's WRs are spilled past the cap and drained, parked
    /// and drained once the QP is back at RTS, or retired with the request
    /// poisoned; every case ends the round and leaves a clean ledger.
    fn flush_batch_onto(onto: FlushOnto) {
        use partix_verbs::FlowLog;
        const PARTS: u32 = 64;
        const PB: usize = 64;
        let mut cfg = crate::PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
        if onto == FlushOnto::DeadQp {
            cfg.reliability = crate::ReliabilityConfig::disabled();
        }
        let (world, sched) = crate::World::sim(2, cfg);
        let log = FlowLog::new();
        world.enable_flow_tracing(log.clone());
        let (p0, p1) = (world.proc(0), world.proc(1));
        let bytes = PARTS as usize * PB;
        let sbuf = p0.alloc_buffer(bytes).unwrap();
        let rbuf = p1.alloc_buffer(bytes).unwrap();
        let send = p0.psend_init(&sbuf, PARTS, PB, 1, 0).unwrap();
        let recv = p1.precv_init(&rbuf, PARTS, PB, 0, 0).unwrap();
        sched.run(); // channel bring-up
        let plan = send.plan().unwrap();
        assert_eq!((plan.groups, plan.qp_count), (1, 1), "{onto:?}");
        let data: Vec<u8> = (0..bytes).map(|b| (b * 7 + 3) as u8).collect();
        sbuf.write(0, &data).unwrap();
        recv.start().unwrap();
        send.start().unwrap();
        let qp = send.shared.core.channel.get().unwrap().qps[0].clone();
        if onto != FlushOnto::FullQueue {
            qp.modify(QpState::Error).unwrap();
        }
        for i in (0..PARTS).step_by(2) {
            send.pready(i).unwrap();
        }
        sched.run(); // the δ flush
        let parked = || send.shared.core.proc.spilled.load(Ordering::Acquire);
        let rt = world.telemetry_snapshot().runtime;
        assert_eq!((rt.timer_fires, rt.aggregated_wrs), (1, 32), "{onto:?}");
        match onto {
            FlushOnto::FullQueue => {
                assert_eq!((rt.pending_spills, rt.pending_reposts), (16, 16));
                assert_eq!(parked(), 0);
            }
            FlushOnto::ErroredQp => {
                assert_eq!((rt.pending_spills, rt.pending_reposts), (0, 0));
                assert_eq!(parked(), 32, "the batch parked");
                assert!(recover_qp(&qp));
                p0.progress();
                sched.run();
                assert_eq!(parked(), 0, "the drain posted the batch");
                let rt = world.telemetry_snapshot().runtime;
                assert_eq!(rt.pending_reposts, 32);
            }
            FlushOnto::DeadQp => {
                assert_eq!(parked(), 0);
                assert_eq!(send.error(), Some("queue pair in error state"));
            }
        }
        let cap_queued = log
            .sorted()
            .iter()
            .filter(|e| e.stage == FlowStage::CapQueued)
            .count();
        let spills = if onto == FlushOnto::FullQueue { 16 } else { 0 };
        assert_eq!(cap_queued, spills, "{onto:?}");
        for i in (1..PARTS).step_by(2) {
            send.pready(i).unwrap();
        }
        sched.run();
        assert_eq!(send.completed_rounds(), 1, "{onto:?}");
        assert_eq!(send.total_wrs_posted(), 64, "{onto:?}");
        if onto == FlushOnto::DeadQp {
            assert_eq!(recv.arrived_count(), 0);
        } else {
            assert_eq!(send.error(), None, "{onto:?}");
            assert_eq!(recv.completed_rounds(), 1, "{onto:?}");
            assert_eq!(rbuf.read_vec(0, bytes).unwrap(), data, "{onto:?}");
        }
        world.check_invariants().assert_clean();
    }

    #[test]
    fn a_flush_batch_spills_its_tail_past_the_wr_cap() {
        flush_batch_onto(FlushOnto::FullQueue);
    }

    #[test]
    fn a_flush_batch_onto_an_errored_qp_parks_until_recovery() {
        flush_batch_onto(FlushOnto::ErroredQp);
    }

    #[test]
    fn a_flush_batch_onto_a_dead_qp_is_retired_and_the_round_ends() {
        flush_batch_onto(FlushOnto::DeadQp);
    }
}
