//! The event engine: a conservatively synchronised discrete-event
//! simulation over **shards**.
//!
//! Simulated nodes are partitioned across shards; each shard owns a private
//! event queue — a slab of event payloads plus an index min-heap of small
//! `Copy` entries `(time, seq, node, slot)`, both reused across pops so the
//! steady state allocates nothing per event. Every
//! [`Scheduler`](crate::Scheduler) is a handle on one `Pdes`: the sequential
//! scheduler is the **one-shard case** (no mailbox traffic, a 1 ns lookahead,
//! so one epoch is one timestamp), the sharded scheduler has one shard per
//! simulated node. With several shards, epochs advance under a **barrier-epoch
//! protocol** whose safety window comes from the physical lookahead of the
//! modelled network — a cross-shard event (a wire delivery) can never be due
//! sooner than the LogGP link latency after the instant that produced it.
//!
//! # Protocol
//!
//! Each epoch performs two barrier-separated phases:
//!
//! 1. **merge + publish**: every shard drains its inbound mailbox (messages
//!    sent during the previous epoch), sorted into the deterministic merge
//!    order, and publishes the timestamp of its earliest pending event;
//! 2. **advance**: every shard computes the global lower bound `lbts` from
//!    the published minima and executes all of its events strictly before
//!    `lbts + lookahead`, routing cross-shard sends into the destination
//!    mailboxes.
//!
//! The window is safe because any message produced in phase 2 is stamped at
//! or after `lbts` and delivered at least `lookahead` later, i.e. at or
//! after the horizon — never inside the window being executed.
//!
//! # Determinism
//!
//! Results are **byte-identical at any worker count**, and identical to the
//! sequential reference executor ([`Pdes::run_reference`]), because the
//! execution order is a pure function of the event population, never of
//! thread timing:
//!
//! - every event has a unique [`ShardKey`] `(time, shard, seq)` and each
//!   shard executes its own events in ascending key order;
//! - `seq` is split into two lanes: locally scheduled events take even
//!   sequence numbers in scheduling order, merged cross-shard deliveries
//!   take odd ones in the **merge order** `(send_time, src_shard,
//!   src_msg_seq)` — exactly the order in which the sequential reference
//!   executor (which runs events one at a time in global `(time, shard,
//!   seq)` order and merges immediately) performs the same insertions;
//! - shards share no mutable state: cross-shard interaction happens only
//!   through the mailboxes, which are drained at barriers and sorted before
//!   insertion, erasing the nondeterministic arrival interleaving.
//!
//! The epoch structure itself is thread-count-independent (it depends only
//! on event timestamps and the lookahead), so shard count — not job
//! count — is the only topology input to the result. Hold `shards` fixed
//! and `--jobs N` may only change wall-clock time.
//!
//! # Memory discipline
//!
//! The cross-shard channel path performs **zero steady-state allocations**:
//! mailboxes are preallocated to [`PdesConfig::channel_capacity`] (nothing
//! on a one-shard engine, which has no peer to hear from and never reads its
//! mailbox) and swapped (not
//! reallocated) at merge time, local queues recycle their [`Slab`] slots,
//! and the merge sort is an in-place `sort_unstable`. `tests/pdes_alloc.rs`
//! pins this with a counting allocator.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use parking_lot::Mutex;

use crate::parallel::par_map;
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// Simulated node identifier. Shards own disjoint node sets; every event is
/// addressed to a node and executes on the shard owning it.
pub type PdesNode = u32;

/// The sharded engine's **public total order**: events execute in ascending
/// `(time, shard, seq)` order. `shard` is the executing (owning) shard;
/// `seq` is unique within a shard, with locally scheduled events on the
/// even lane and merged cross-shard deliveries on the odd lane (see the
/// module docs for why the two lanes are deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardKey {
    /// Virtual execution instant.
    pub time: SimTime,
    /// Executing shard.
    pub shard: u32,
    /// Per-shard sequence number (even = local lane, odd = merge lane).
    pub seq: u64,
}

/// Static node→shard assignment: node `n` lives on shard `n % shards`.
/// Striping spreads spatially contiguous hot regions (a wavefront diagonal,
/// a fan-in level) across shards for balance.
#[derive(Clone, Copy, Debug)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` shards.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "at least one shard required");
        ShardMap { shards }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Owning shard of `node`.
    #[inline]
    pub fn shard_of(&self, node: PdesNode) -> u32 {
        // The one-shard engine skips the division every event would pay.
        if self.shards == 1 {
            0
        } else {
            node % self.shards
        }
    }

    /// Dense index of `node` within its owning shard's local storage.
    #[inline]
    pub fn local_index(&self, node: PdesNode) -> usize {
        (node / self.shards) as usize
    }
}

/// Engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct PdesConfig {
    /// Number of shards. Fixed per simulation: it participates in the
    /// deterministic total order, so changing it (unlike changing `--jobs`)
    /// is a different experiment.
    pub shards: u32,
    /// Conservative lookahead: the minimum latency of any cross-shard
    /// event. Physically, the LogGP wire latency `L` — no delivery can
    /// outrun the link. Must be positive, or no epoch could make progress.
    pub lookahead: SimDuration,
    /// Preallocated capacity (messages) of each shard's inbound mailbox.
    /// A soft bound: exceeding it is counted, not fatal, and shows up in
    /// [`PdesReport::channel_overflows`] as a sizing diagnostic.
    pub channel_capacity: usize,
    /// Preallocated per-shard event-queue capacity (heap entries and slab
    /// slots).
    pub event_capacity: usize,
}

impl Default for PdesConfig {
    fn default() -> Self {
        PdesConfig {
            shards: 16,
            lookahead: SimDuration::from_nanos(1),
            channel_capacity: 1024,
            event_capacity: 1024,
        }
    }
}

/// Per-shard model logic. One value of the implementing type exists per
/// shard, owns the state of every node mapped to that shard, and is driven
/// exclusively from that shard's event loop — `&mut self` access without
/// locks, on one thread at a time.
pub trait ShardLogic: Send {
    /// Event payload. Kept small and heap-free by well-behaved models: it
    /// is stored inline in the slab and in mailbox entries.
    type Event: Send;

    /// Execute one event addressed to `node` (owned by this shard) at
    /// virtual time `ctx.now()`. Follow-up events are scheduled through
    /// `ctx`.
    fn handle(&mut self, ctx: &mut ShardCtx<'_, Self::Event>, node: PdesNode, ev: Self::Event);
}

/// Heap record of one pending event on a shard: ordering fields plus the
/// slab slot and destination node. `Copy`, 24 bytes.
#[derive(Clone, Copy)]
struct LocalEntry {
    time: u64,
    seq: u64,
    node: PdesNode,
    slot: u32,
}

impl LocalEntry {
    #[inline]
    fn new(time: SimTime, seq: u64, node: PdesNode, slot: u32) -> Self {
        LocalEntry {
            time: time.as_nanos(),
            seq,
            node,
            slot,
        }
    }

    /// The `(time, seq)` order as one integer, compared without a branch
    /// between its halves.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }

    #[inline]
    fn time(&self) -> SimTime {
        SimTime(self.time)
    }

    #[inline]
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// A shard's pending events as a 4-ary min-heap on the entry key. A pop
/// walks the hole at the root down to a leaf along the earliest child,
/// picking it from each group of four with two independent comparisons and
/// a third, then fills the hole from the last entry upwards. Against
/// `std::collections::BinaryHeap` that is half the levels and a key compared
/// without a branch between its halves: 30–40 % less time per pop + push at
/// 16 to 8192 pending events, measured alone. Keys are unique, so any
/// correct heap pops the same order.
struct EventHeap {
    v: Vec<LocalEntry>,
}

impl EventHeap {
    fn with_capacity(n: usize) -> Self {
        EventHeap {
            v: Vec::with_capacity(n),
        }
    }

    #[inline]
    fn peek(&self) -> Option<&LocalEntry> {
        self.v.first()
    }

    #[inline]
    fn push(&mut self, e: LocalEntry) {
        let mut i = self.v.len();
        self.v.push(e);
        let v = &mut self.v[..];
        while i > 0 {
            let parent = (i - 1) / 4;
            if e.key() >= v[parent].key() {
                break;
            }
            v[i] = v[parent];
            i = parent;
        }
        v[i] = e;
    }

    #[inline]
    fn pop(&mut self) -> Option<LocalEntry> {
        let last = self.v.pop()?;
        let v = &mut self.v[..];
        let Some(&top) = v.first() else {
            return Some(last);
        };
        let mut hole = 0;
        loop {
            let first = 4 * hole + 1;
            let best = if let Some(c) = v.get(first..first + 4) {
                let (i1, k1) = if c[1].key() < c[0].key() {
                    (1, c[1].key())
                } else {
                    (0, c[0].key())
                };
                let (i2, k2) = if c[3].key() < c[2].key() {
                    (3, c[3].key())
                } else {
                    (2, c[2].key())
                };
                first + if k2 < k1 { i2 } else { i1 }
            } else if first < v.len() {
                (first + 1..v.len()).fold(first, |b, c| if v[c].key() < v[b].key() { c } else { b })
            } else {
                break;
            };
            v[hole] = v[best];
            hole = best;
        }
        while hole > 0 {
            let parent = (hole - 1) / 4;
            if last.key() >= v[parent].key() {
                break;
            }
            v[hole] = v[parent];
            hole = parent;
        }
        v[hole] = last;
        Some(top)
    }
}

/// Park `ev` in the shard's slab and index it in its heap: the one way an
/// event enters a queue, on either sequence lane.
#[inline]
fn enqueue<E>(
    heap: &mut EventHeap,
    slab: &mut Slab<E>,
    time: SimTime,
    seq: u64,
    node: PdesNode,
    ev: E,
) {
    let slot = slab.insert(ev);
    heap.push(LocalEntry::new(time, seq, node, slot));
}

/// One cross-shard message in flight. Carries the sender-side identity that
/// defines the deterministic merge order at the destination.
struct WireMsg<E> {
    send_time: SimTime,
    src_shard: u32,
    src_msg_seq: u64,
    deliver_at: SimTime,
    dst_node: PdesNode,
    ev: E,
}

/// Bounded inbound channel of one shard. Senders append under a mutex
/// during the advance phase; the owner swaps the buffer out at the next
/// merge phase, so the backing storage is reused for the whole run.
///
/// `len` mirrors the queue's length and is written only under the lock,
/// so a merge reads an empty mailbox without locking it. That is sound
/// because a merge never overlaps a push to the same mailbox: on the
/// threaded executor a barrier separates the advance phase (pushes) from
/// the merge phase, and the inline and reference loops are one thread.
struct Mailbox<E> {
    q: Mutex<Vec<WireMsg<E>>>,
    len: AtomicUsize,
    capacity: usize,
    high_water: AtomicUsize,
    overflows: AtomicU64,
}

impl<E> Mailbox<E> {
    fn with_capacity(capacity: usize) -> Self {
        Mailbox {
            q: Mutex::new(Vec::with_capacity(capacity)),
            len: AtomicUsize::new(0),
            capacity,
            high_water: AtomicUsize::new(0),
            overflows: AtomicU64::new(0),
        }
    }

    fn push(&self, msg: WireMsg<E>) {
        let mut q = self.q.lock();
        q.push(msg);
        let len = q.len();
        self.len.store(len, Ordering::Relaxed);
        drop(q);
        if len > self.high_water.load(Ordering::Relaxed) {
            self.high_water.fetch_max(len, Ordering::Relaxed);
        }
        if len > self.capacity {
            self.overflows.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Scheduling context handed to [`ShardLogic::handle`] for the duration of
/// one event.
pub struct ShardCtx<'a, E> {
    now: SimTime,
    shard: u32,
    map: ShardMap,
    lookahead: SimDuration,
    heap: &'a mut EventHeap,
    slab: &'a mut Slab<E>,
    local_ctr: &'a mut u64,
    out_msg_ctr: &'a mut u64,
    sent_cross: &'a mut u64,
    mailboxes: &'a [Mailbox<E>],
}

impl<E> ShardCtx<'_, E> {
    /// Virtual time of the executing event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The executing shard.
    #[inline]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The node→shard map in force.
    #[inline]
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Schedule `ev` for `node` at `now + delay`. Same-shard targets accept
    /// any delay (including zero); cross-shard targets must respect the
    /// lookahead — see [`send_at`](Self::send_at).
    #[inline]
    pub fn send(&mut self, node: PdesNode, delay: SimDuration, ev: E) {
        self.send_at(node, self.now + delay, ev);
    }

    /// Schedule `ev` for `node` at absolute time `at` (clamped to now).
    ///
    /// # Panics
    ///
    /// If `node` lives on another shard and `at < now + lookahead`: such an
    /// event could land inside a window another shard is already executing,
    /// which would break conservative synchronisation — the model's minimum
    /// cross-node latency must be declared as the engine's lookahead.
    pub fn send_at(&mut self, node: PdesNode, at: SimTime, ev: E) {
        let at = at.max(self.now);
        let dst = self.map.shard_of(node);
        if dst == self.shard {
            *self.local_ctr += 1;
            enqueue(self.heap, self.slab, at, *self.local_ctr << 1, node, ev);
        } else {
            assert!(
                at >= self.now + self.lookahead,
                "cross-shard event to node {node} at {at:?} violates lookahead {:?} (now {:?}): \
                 the model's minimum cross-node latency must be >= PdesConfig::lookahead",
                self.lookahead,
                self.now,
            );
            *self.out_msg_ctr += 1;
            *self.sent_cross += 1;
            self.mailboxes[dst as usize].push(WireMsg {
                send_time: self.now,
                src_shard: self.shard,
                src_msg_seq: *self.out_msg_ctr,
                deliver_at: at,
                dst_node: node,
                ev,
            });
        }
    }
}

/// Aggregate outcome of a run. The first three fields are part of the
/// deterministic result (identical across job counts and executors); the
/// rest are execution diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PdesReport {
    /// Events executed.
    pub events: u64,
    /// Cross-shard messages carried.
    pub cross_messages: u64,
    /// Timestamp of the last executed event.
    pub makespan: SimTime,
    /// Barrier epochs performed (0 for the reference executor).
    pub epochs: u64,
    /// Peak occupancy of any inter-shard mailbox.
    pub channel_high_water: usize,
    /// Messages pushed while a mailbox was beyond its soft capacity bound.
    pub channel_overflows: u64,
}

impl PdesReport {
    /// The fields every executor and job count must reproduce exactly.
    pub fn deterministic_parts(&self) -> (u64, u64, u64) {
        (self.events, self.cross_messages, self.makespan.as_nanos())
    }
}

/// One epoch boundary as seen by the [`EpochHook`]: the state every
/// executor passes through between safe windows. All three fields are
/// deterministic — they depend only on the event population and the
/// lookahead, never on job count (the reference executor reports the same
/// sequence by emulating the window structure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochObservation {
    /// Epoch number within this run, starting at 1.
    pub epoch: u64,
    /// The global lower bound on pending event time at the boundary.
    pub lbts: SimTime,
    /// The window that was just executed ended strictly before this.
    pub horizon: SimTime,
}

/// Callback fired after each epoch's advance phase completes, while no
/// events are in flight (on the parallel executor the barrier leader fires
/// it; the other workers are blocked or merging mailboxes — which executes
/// no model code — until it returns). Used to drive telemetry samplers at
/// deterministic instants.
pub type EpochHook = Arc<dyn Fn(&EpochObservation) + Send + Sync>;

/// Per-shard execution diagnostics, for load-imbalance analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PdesShardStat {
    /// Shard id.
    pub shard: u32,
    /// Events this shard executed.
    pub events: u64,
    /// Cross-shard messages this shard sent.
    pub sent_cross: u64,
    /// Peak occupancy of this shard's inbound mailbox.
    pub mailbox_high_water: usize,
    /// Pushes into this shard's mailbox beyond its soft capacity bound.
    pub mailbox_overflows: u64,
    /// Peak live slots of this shard's event slab.
    pub slab_high_water: usize,
}

/// Load-imbalance ratio over per-shard event counts: max over mean, `1.0`
/// for perfect balance, `0.0` when no events ran.
pub fn imbalance_ratio(stats: &[PdesShardStat]) -> f64 {
    let total: u64 = stats.iter().map(|s| s.events).sum();
    if total == 0 || stats.is_empty() {
        return 0.0;
    }
    let max = stats.iter().map(|s| s.events).max().unwrap_or(0) as f64;
    max / (total as f64 / stats.len() as f64)
}

struct ShardCell<L: ShardLogic> {
    id: u32,
    logic: L,
    heap: EventHeap,
    slab: Slab<L::Event>,
    /// Local-lane counter (even seqs).
    local_ctr: u64,
    /// Merge-lane counter (odd seqs), bumped as inbound messages merge.
    in_msg_ctr: u64,
    /// Stamp counter for outgoing cross-shard messages.
    out_msg_ctr: u64,
    /// Reused drain/sort buffer for mailbox merging.
    scratch: Vec<WireMsg<L::Event>>,
    executed: u64,
    sent_cross: u64,
    last_time: SimTime,
}

impl<L: ShardLogic> ShardCell<L> {
    fn new(id: u32, logic: L, cfg: &PdesConfig) -> Self {
        ShardCell {
            id,
            logic,
            heap: EventHeap::with_capacity(cfg.event_capacity),
            slab: Slab::with_capacity(cfg.event_capacity),
            local_ctr: 0,
            in_msg_ctr: 0,
            out_msg_ctr: 0,
            scratch: Vec::with_capacity(cfg.channel_capacity),
            executed: 0,
            sent_cross: 0,
            last_time: SimTime::ZERO,
        }
    }

    fn push_local(&mut self, at: SimTime, node: PdesNode, ev: L::Event) {
        self.local_ctr += 1;
        let seq = self.local_ctr << 1;
        enqueue(&mut self.heap, &mut self.slab, at, seq, node, ev);
    }

    /// Drain this shard's mailbox into the local queue in the deterministic
    /// merge order `(send_time, src_shard, src_msg_seq)`. An empty mailbox
    /// is seen without its lock (see [`Mailbox`]).
    fn merge_inbox(&mut self, mailbox: &Mailbox<L::Event>) {
        if mailbox.len.load(Ordering::Relaxed) == 0 {
            return;
        }
        {
            let mut q = mailbox.q.lock();
            std::mem::swap(&mut *q, &mut self.scratch);
            mailbox.len.store(0, Ordering::Relaxed);
        }
        self.scratch
            .sort_unstable_by_key(|m| (m.send_time, m.src_shard, m.src_msg_seq));
        for m in self.scratch.drain(..) {
            self.in_msg_ctr += 1;
            let seq = (self.in_msg_ctr << 1) | 1;
            enqueue(
                &mut self.heap,
                &mut self.slab,
                m.deliver_at,
                seq,
                m.dst_node,
                m.ev,
            );
        }
    }

    /// Earliest pending event time, `u64::MAX` when idle.
    fn next_time_ns(&self) -> u64 {
        self.heap
            .peek()
            .map(|e| e.time().as_nanos())
            .unwrap_or(u64::MAX)
    }

    /// Execute every pending event strictly before `horizon`, including
    /// same-window events scheduled along the way.
    fn run_until(
        &mut self,
        horizon: SimTime,
        map: ShardMap,
        lookahead: SimDuration,
        mailboxes: &[Mailbox<L::Event>],
    ) {
        while self.heap.peek().is_some_and(|top| top.time() < horizon) {
            self.step_one(map, lookahead, mailboxes);
        }
    }

    /// Execute exactly the next pending event: the one dispatch body every
    /// executor shares.
    #[inline]
    fn step_one(&mut self, map: ShardMap, lookahead: SimDuration, mailboxes: &[Mailbox<L::Event>]) {
        let ShardCell {
            id,
            logic,
            heap,
            slab,
            local_ctr,
            out_msg_ctr,
            executed,
            sent_cross,
            last_time,
            ..
        } = self;
        let top = heap.pop().expect("step_one on an idle shard");
        let ev = slab.take(top.slot);
        *executed += 1;
        *last_time = top.time();
        let mut ctx = ShardCtx {
            now: top.time(),
            shard: *id,
            map,
            lookahead,
            heap,
            slab,
            local_ctr,
            out_msg_ctr,
            sent_cross,
            mailboxes,
        };
        logic.handle(&mut ctx, top.node, ev);
    }
}

/// The conservative-sync engine: build, [`seed`] initial events, drain with
/// [`run`](Pdes::run) or [`run_reference`](Pdes::run_reference) (an idle
/// engine may be seeded and run again; reports are cumulative), and harvest
/// final model state with [`into_logics`](Pdes::into_logics).
///
/// [`seed`]: Pdes::seed
pub struct Pdes<L: ShardLogic> {
    cfg: PdesConfig,
    map: ShardMap,
    cells: Vec<ShardCell<L>>,
    mailboxes: Vec<Mailbox<L::Event>>,
    epoch_hook: Option<EpochHook>,
    /// Cumulative wall time workers spent blocked on epoch barriers,
    /// summed across workers (diagnostic; not part of the report).
    barrier_wait_ns: AtomicU64,
}

impl<L: ShardLogic> Pdes<L> {
    /// Create an engine over `logics` (one per shard;
    /// `logics.len() == cfg.shards`).
    pub fn new(mut cfg: PdesConfig, logics: Vec<L>) -> Self {
        assert!(cfg.shards > 0, "at least one shard required");
        assert_eq!(
            logics.len(),
            cfg.shards as usize,
            "one ShardLogic per shard"
        );
        assert!(
            cfg.lookahead > SimDuration::ZERO,
            "zero lookahead admits no safe window"
        );
        let map = ShardMap::new(cfg.shards);
        if cfg.shards == 1 {
            // A lone shard has no peer: nothing to preallocate a channel for.
            cfg.channel_capacity = 0;
        }
        let cells = logics
            .into_iter()
            .enumerate()
            .map(|(i, logic)| ShardCell::new(i as u32, logic, &cfg))
            .collect();
        let mailboxes = (0..cfg.shards)
            .map(|_| Mailbox::with_capacity(cfg.channel_capacity))
            .collect();
        Pdes {
            cfg,
            map,
            cells,
            mailboxes,
            epoch_hook: None,
            barrier_wait_ns: AtomicU64::new(0),
        }
    }

    /// Install the epoch-boundary callback (see [`EpochHook`]). Install
    /// before running; at most one hook is supported.
    pub fn set_epoch_hook(&mut self, hook: EpochHook) {
        self.epoch_hook = Some(hook);
    }

    /// Cumulative wall time workers spent blocked on epoch barriers, summed
    /// across workers. Zero before a parallel run (the inline and reference
    /// executors have no barriers).
    pub fn barrier_wait_ns(&self) -> u64 {
        self.barrier_wait_ns.load(Ordering::Relaxed)
    }

    /// Per-shard execution diagnostics, in shard order.
    pub fn shard_stats(&self) -> Vec<PdesShardStat> {
        self.cells
            .iter()
            .map(|c| PdesShardStat {
                shard: c.id,
                events: c.executed,
                sent_cross: c.sent_cross,
                mailbox_high_water: self.mailboxes[c.id as usize]
                    .high_water
                    .load(Ordering::Relaxed),
                mailbox_overflows: self.mailboxes[c.id as usize]
                    .overflows
                    .load(Ordering::Relaxed),
                slab_high_water: c.slab.high_water(),
            })
            .collect()
    }

    /// Events ever scheduled on this engine: seeds plus every send made
    /// from inside an event. Each takes exactly one sequence number, on the
    /// local lane of its owning shard or the outbound stamp of its sender.
    pub fn scheduled(&self) -> u64 {
        self.cells.iter().map(|c| c.local_ctr + c.out_msg_ctr).sum()
    }

    /// Inject an initial event for `node` at `at`. Call in a deterministic
    /// order (e.g. ascending node id): seeds take local-lane sequence
    /// numbers in call order.
    pub fn seed(&mut self, node: PdesNode, at: SimTime, ev: L::Event) {
        let shard = self.map.shard_of(node) as usize;
        self.cells[shard].push_local(at, node, ev);
    }

    /// The per-shard logic values, in shard order (between runs).
    pub fn logics_mut(&mut self) -> impl Iterator<Item = &mut L> {
        self.cells.iter_mut().map(|c| &mut c.logic)
    }

    /// Tear down and return the per-shard logic values (final model state),
    /// in shard order.
    pub fn into_logics(self) -> Vec<L> {
        self.cells.into_iter().map(|c| c.logic).collect()
    }

    fn report(&self, epochs: u64) -> PdesReport {
        PdesReport {
            events: self.cells.iter().map(|c| c.executed).sum(),
            cross_messages: self.cells.iter().map(|c| c.sent_cross).sum(),
            makespan: SimTime(
                self.cells
                    .iter()
                    .map(|c| c.last_time.as_nanos())
                    .max()
                    .unwrap_or(0),
            ),
            epochs,
            channel_high_water: self
                .mailboxes
                .iter()
                .map(|m| m.high_water.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
            channel_overflows: self
                .mailboxes
                .iter()
                .map(|m| m.overflows.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// Run to completion with up to `jobs` worker threads (clamped to the
    /// shard count; `<= 1` runs the epoch loop inline with no threads or
    /// barriers). Results are byte-identical at every `jobs` value.
    pub fn run(&mut self, jobs: usize) -> PdesReport {
        let shards = self.cells.len();
        let jobs = jobs.max(1).min(shards);
        if jobs == 1 {
            return self.run_epochs_inline();
        }

        let lookahead = self.cfg.lookahead;
        let map = self.map;
        // Deal shards round-robin into exactly `jobs` groups: par_map
        // spawns one worker per group, so every group is owned by a live
        // thread and the barrier's participant count is exact.
        let mut groups: Vec<Vec<ShardCell<L>>> = (0..jobs).map(|_| Vec::new()).collect();
        for (i, cell) in self.cells.drain(..).enumerate() {
            groups[i % jobs].push(cell);
        }
        let mins: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let barrier = Barrier::new(jobs);
        let mailboxes = &self.mailboxes;
        let epoch_hook = &self.epoch_hook;
        let barrier_acc = &self.barrier_wait_ns;

        let finished = par_map(jobs, groups, |mut group: Vec<ShardCell<L>>| {
            let mut epochs = 0u64;
            let mut waited_ns = 0u64;
            loop {
                // Phase 1: merge last epoch's messages, publish minima.
                for cell in &mut group {
                    cell.merge_inbox(&mailboxes[cell.id as usize]);
                    mins[cell.id as usize].store(cell.next_time_ns(), Ordering::Release);
                }
                let t0 = Instant::now();
                barrier.wait();
                waited_ns += t0.elapsed().as_nanos() as u64;
                // Every worker computes the same bound from the same
                // published values, so all exit (or continue) together.
                let mut lbts = u64::MAX;
                for m in &mins {
                    lbts = lbts.min(m.load(Ordering::Acquire));
                }
                if lbts == u64::MAX {
                    break;
                }
                epochs += 1;
                let horizon = SimTime(lbts.saturating_add(lookahead.as_nanos()));
                // Phase 2: advance inside the safe window.
                for cell in &mut group {
                    cell.run_until(horizon, map, lookahead, mailboxes);
                }
                let t0 = Instant::now();
                let leader = barrier.wait().is_leader();
                waited_ns += t0.elapsed().as_nanos() as u64;
                // Exactly one worker observes the boundary. Safe: until the
                // leader reaches the next phase-1 barrier, the other workers
                // only merge mailboxes (no model events execute), so the
                // hook sees the quiesced post-window state.
                if leader {
                    if let Some(hook) = epoch_hook {
                        hook(&EpochObservation {
                            epoch: epochs,
                            lbts: SimTime(lbts),
                            horizon,
                        });
                    }
                }
            }
            barrier_acc.fetch_add(waited_ns, Ordering::Relaxed);
            (group, epochs)
        });

        let mut epochs = 0;
        for (group, e) in finished {
            epochs = e;
            self.cells.extend(group);
        }
        self.cells.sort_by_key(|c| c.id);
        self.report(epochs)
    }

    /// The `jobs == 1` epoch loop: same protocol, no threads, no barriers,
    /// no allocation in steady state, and no lock on an empty mailbox. A
    /// lone shard has no peer to hear from, so its mailbox is never read.
    fn run_epochs_inline(&mut self) -> PdesReport {
        let lookahead = self.cfg.lookahead;
        let map = self.map;
        let merge = self.cells.len() > 1;
        let mut epochs = 0u64;
        loop {
            let mut lbts = u64::MAX;
            for cell in &mut self.cells {
                if merge {
                    cell.merge_inbox(&self.mailboxes[cell.id as usize]);
                }
                lbts = lbts.min(cell.next_time_ns());
            }
            if lbts == u64::MAX {
                break;
            }
            epochs += 1;
            let horizon = SimTime(lbts.saturating_add(lookahead.as_nanos()));
            for cell in &mut self.cells {
                cell.run_until(horizon, map, lookahead, &self.mailboxes);
            }
            if let Some(hook) = &self.epoch_hook {
                hook(&EpochObservation {
                    epoch: epochs,
                    lbts: SimTime(lbts),
                    horizon,
                });
            }
        }
        self.report(epochs)
    }

    /// Sequential **reference executor**: one event at a time in global
    /// `(time, shard, seq)` order, merging cross-shard messages the moment
    /// they are sent. The plain global-heap semantics the parallel protocol
    /// must reproduce byte for byte. Asymptotically slower (an `O(shards)`
    /// scan per event); exists as the cross-check oracle and the `--jobs 0`
    /// fallback.
    ///
    /// Although execution is strictly one event at a time (never windowed),
    /// the loop *tracks* the epoch structure the parallel executors would
    /// impose — `lbts` is recomputed whenever the next event falls at or
    /// beyond the previous horizon — so the [`EpochHook`] fires at exactly
    /// the same `(epoch, lbts, horizon)` boundaries with exactly the same
    /// intermediate model state as every other executor. The report still
    /// carries `epochs == 0`, preserving the executor's signature.
    pub fn run_reference(&mut self) -> PdesReport {
        let lookahead = self.cfg.lookahead;
        let map = self.map;
        let mut epochs = 0u64;
        'windows: loop {
            // Boundary: all mailboxes are empty (merged after every event),
            // so the published minimum is just the earliest pending event.
            let lbts = self
                .cells
                .iter()
                .map(|c| c.next_time_ns())
                .min()
                .unwrap_or(u64::MAX);
            if lbts == u64::MAX {
                break 'windows;
            }
            epochs += 1;
            let horizon = SimTime(lbts.saturating_add(lookahead.as_nanos()));
            loop {
                // Earliest pending event across all shards, by global key.
                let mut best: Option<(SimTime, u32, u64)> = None;
                for cell in &self.cells {
                    if let Some(top) = cell.heap.peek() {
                        let key = (top.time(), cell.id, top.seq());
                        if best.is_none() || key < best.unwrap() {
                            best = Some(key);
                        }
                    }
                }
                // Window exhausted (or engine idle): fire the boundary hook
                // and open the next window.
                let Some((time, shard, _)) = best else { break };
                if time >= horizon {
                    break;
                }
                self.cells[shard as usize].step_one(map, lookahead, &self.mailboxes);
                // Merge immediately: inbound counters advance in exactly
                // the global sender order, the order the merge-phase sort
                // reproduces batch-wise in epoch mode.
                for cell in &mut self.cells {
                    cell.merge_inbox(&self.mailboxes[cell.id as usize]);
                }
            }
            if let Some(hook) = &self.epoch_hook {
                hook(&EpochObservation {
                    epoch: epochs,
                    lbts: SimTime(lbts),
                    horizon,
                });
            }
        }
        self.report(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token ring: node n folds the token value into its accumulator and
    /// forwards it to (n+1) % nodes with a node-dependent latency. Order
    /// sensitivity comes from the fold being non-commutative.
    struct Ring {
        nodes: u32,
        map: ShardMap,
        acc: Vec<u64>, // local accumulators, indexed by local node index
    }

    #[derive(Clone, Copy)]
    struct Hop {
        value: u64,
        remaining: u32,
    }

    impl ShardLogic for Ring {
        type Event = Hop;
        fn handle(&mut self, ctx: &mut ShardCtx<'_, Hop>, node: PdesNode, ev: Hop) {
            let idx = self.map.local_index(node);
            self.acc[idx] = self.acc[idx]
                .wrapping_mul(0x100000001B3)
                .wrapping_add(ev.value ^ ctx.now().as_nanos());
            if ev.remaining > 0 {
                let next = (node + 1) % self.nodes;
                let delay = SimDuration::from_nanos(50 + (node as u64 % 7) * 3);
                ctx.send(
                    next,
                    delay,
                    Hop {
                        value: ev.value.wrapping_add(1),
                        remaining: ev.remaining - 1,
                    },
                );
            }
        }
    }

    fn ring_engine(nodes: u32, shards: u32, hops: u32) -> Pdes<Ring> {
        let cfg = PdesConfig {
            shards,
            lookahead: SimDuration::from_nanos(50),
            channel_capacity: 64,
            event_capacity: 64,
        };
        let map = ShardMap::new(shards);
        let per_shard = |s: u32| {
            let owned = (0..nodes).filter(|n| map.shard_of(*n) == s).count();
            Ring {
                nodes,
                map,
                acc: vec![0; owned],
            }
        };
        let mut pdes = Pdes::new(cfg, (0..shards).map(per_shard).collect());
        pdes.seed(
            0,
            SimTime(0),
            Hop {
                value: 7,
                remaining: hops,
            },
        );
        pdes
    }

    fn ring_digest(pdes: Pdes<Ring>) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for logic in pdes.into_logics() {
            for a in logic.acc {
                h = (h ^ a).wrapping_mul(0x100000001B3);
            }
        }
        h
    }

    /// Interleaved pushes and pops, with duplicate times, come out in
    /// `(time, seq)` order, as a sorted model says.
    #[test]
    fn event_heap_pops_in_key_order() {
        let mut heap = EventHeap::with_capacity(0);
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for seq in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let time = (x >> 33) % 97;
            heap.push(LocalEntry::new(SimTime(time), seq, 0, seq as u32));
            model.push((time, seq));
            if x % 3 == 0 {
                model.sort_unstable();
                let want = model.remove(0);
                let got = heap.pop().expect("model says non-empty");
                assert_eq!((got.time().as_nanos(), got.seq()), want);
            }
        }
        model.sort_unstable();
        for want in model {
            let got = heap.pop().expect("model says non-empty");
            assert_eq!(
                (got.time().as_nanos(), got.seq(), got.slot),
                (want.0, want.1, want.1 as u32)
            );
        }
        assert!(heap.pop().is_none() && heap.peek().is_none());
    }

    #[test]
    fn all_executors_agree_on_the_ring() {
        let runs: Vec<(PdesReport, u64)> = [0usize, 1, 2, 3, 8]
            .iter()
            .map(|&jobs| {
                let mut pdes = ring_engine(23, 5, 400);
                let report = if jobs == 0 {
                    pdes.run_reference()
                } else {
                    pdes.run(jobs)
                };
                (report, ring_digest(pdes))
            })
            .collect();
        let (ref0, d0) = runs[0];
        assert_eq!(ref0.events, 401, "seed + 400 hops");
        for (r, d) in &runs[1..] {
            assert_eq!(r.deterministic_parts(), ref0.deterministic_parts());
            assert_eq!(*d, d0, "digest must not depend on executor or jobs");
        }
    }

    #[test]
    fn single_shard_degenerates_cleanly() {
        let mut pdes = ring_engine(4, 1, 10);
        let r = pdes.run(4); // clamped to 1 shard
        assert_eq!(r.events, 11);
        assert_eq!(r.cross_messages, 0, "one shard has no wire");
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn cross_shard_send_inside_lookahead_panics() {
        struct Bad;
        impl ShardLogic for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut ShardCtx<'_, ()>, _node: PdesNode, _ev: ()) {
                // Node 1 lives on shard 1; zero delay < lookahead.
                ctx.send(1, SimDuration::ZERO, ());
            }
        }
        let cfg = PdesConfig {
            shards: 2,
            lookahead: SimDuration::from_nanos(100),
            ..PdesConfig::default()
        };
        let mut pdes = Pdes::new(cfg, vec![Bad, Bad]);
        pdes.seed(0, SimTime(0), ());
        pdes.run(1);
    }

    #[test]
    fn local_sends_may_undercut_lookahead() {
        struct Chain {
            fired: u64,
        }
        impl ShardLogic for Chain {
            type Event = u32;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, u32>, node: PdesNode, rem: u32) {
                self.fired += 1;
                if rem > 0 {
                    // Same node => same shard: zero-delay is legal.
                    ctx.send(node, SimDuration::ZERO, rem - 1);
                }
            }
        }
        let cfg = PdesConfig {
            shards: 2,
            lookahead: SimDuration::from_micros(5),
            ..PdesConfig::default()
        };
        let mut pdes = Pdes::new(cfg, vec![Chain { fired: 0 }, Chain { fired: 0 }]);
        pdes.seed(0, SimTime(0), 9);
        let r = pdes.run(2);
        assert_eq!(r.events, 10);
        assert_eq!(r.makespan, SimTime(0), "zero-delay chain stays at t=0");
    }

    #[test]
    fn same_time_cross_and_local_events_order_deterministically() {
        // Node 1 (shard 1) receives a cross-shard delivery at exactly the
        // same instant as a locally seeded event. The two executors and
        // every job count must agree on the (specified) order: the fold
        // below is order-sensitive.
        struct Probe {
            log: u64,
        }
        #[derive(Clone, Copy)]
        enum Ev {
            Emit,        // node 0: send to node 1, arriving at t=100
            Tagged(u64), // fold the tag
        }
        impl ShardLogic for Probe {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, Ev>, _node: PdesNode, ev: Ev) {
                match ev {
                    Ev::Emit => ctx.send(1, SimDuration::from_nanos(100), Ev::Tagged(3)),
                    Ev::Tagged(t) => self.log = self.log.wrapping_mul(31).wrapping_add(t),
                }
            }
        }
        let run = |mode: usize| {
            let cfg = PdesConfig {
                shards: 2,
                lookahead: SimDuration::from_nanos(100),
                ..PdesConfig::default()
            };
            let mut pdes = Pdes::new(cfg, vec![Probe { log: 0 }, Probe { log: 0 }]);
            pdes.seed(0, SimTime(0), Ev::Emit);
            pdes.seed(1, SimTime(100), Ev::Tagged(5)); // collides with delivery
            if mode == 0 {
                pdes.run_reference();
            } else {
                pdes.run(mode);
            }
            pdes.into_logics()[1].log
        };
        let expect = run(0);
        assert_ne!(expect, 0);
        for jobs in [1, 2, 4] {
            assert_eq!(run(jobs), expect, "jobs={jobs} reordered a tie");
        }
    }

    #[test]
    fn channel_overflow_is_counted_not_fatal() {
        struct Blast {
            nodes: u32,
        }
        #[derive(Clone, Copy)]
        enum Ev {
            Go,
            Sink,
        }
        impl ShardLogic for Blast {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, Ev>, _node: PdesNode, ev: Ev) {
                if let Ev::Go = ev {
                    for n in 0..self.nodes {
                        if ctx.map().shard_of(n) != ctx.shard() {
                            ctx.send(n, SimDuration::from_nanos(10), Ev::Sink);
                        }
                    }
                }
            }
        }
        let cfg = PdesConfig {
            shards: 2,
            lookahead: SimDuration::from_nanos(10),
            channel_capacity: 3, // deliberately undersized
            event_capacity: 64,
        };
        let mut pdes = Pdes::new(cfg, vec![Blast { nodes: 16 }, Blast { nodes: 16 }]);
        pdes.seed(0, SimTime(0), Ev::Go);
        let r = pdes.run(2);
        assert_eq!(r.cross_messages, 8);
        assert!(r.channel_high_water > 3);
        assert!(r.channel_overflows > 0);
    }

    #[test]
    fn empty_engine_reports_zeroes() {
        struct Nop;
        impl ShardLogic for Nop {
            type Event = ();
            fn handle(&mut self, _: &mut ShardCtx<'_, ()>, _: PdesNode, _: ()) {}
        }
        let mut pdes = Pdes::new(PdesConfig::default(), (0..16).map(|_| Nop).collect());
        let r = pdes.run(4);
        assert_eq!(r, PdesReport::default());
    }
}
