//! The discrete-event scheduler.
//!
//! A [`Scheduler`] is a cheap-to-clone handle on exactly one event engine, a
//! [`Pdes`] whose events are type-erased closures. Executing an event may
//! schedule further events through a clone of the same handle: while an
//! event runs, its shard's [`ShardCtx`] is published in a thread-local, and
//! [`at`](Scheduler::at) / [`at_node`](Scheduler::at_node) /
//! [`now`](Scheduler::now) calls made from inside the closure re-enter the
//! executing shard through it, without a lock.
//!
//! The sequential scheduler ([`Scheduler::new`]) is the **one-shard case**
//! of that engine: every node maps to shard 0, nothing crosses a mailbox,
//! and the lookahead is 1 ns, so one epoch is one timestamp. The sharded
//! scheduler ([`Scheduler::sharded`]) has one shard per simulated node and
//! the model's wire latency as its lookahead. Which of the two built a
//! scheduler selects the *timing model* of the layers above
//! ([`is_sharded`](Scheduler::is_sharded)); every method here has one body.
//!
//! # Order
//!
//! Events execute in ascending `(time, shard, seq)` order (see
//! [`crate::pdes::ShardKey`]); on one shard that reads `(time, seq)`: two
//! events scheduled for the same instant execute in the order they were
//! scheduled, so a fixed seed yields a bit-identical simulation. An event
//! scheduled in the past is clamped to "now" and therefore sorts after
//! everything already pending at that instant.
//!
//! # Storage
//!
//! Closures of up to [`INLINE_EVENT_BYTES`] bytes (the common case for
//! simulation callbacks) are stored *inline* in the shard's event slab — no
//! `Box` per event; larger ones fall back to a heap box transparently.
//! Freed slots are reused, so the slab reaches a high-water mark and stays
//! there, and the steady state allocates nothing per event.
//!
//! # Threads
//!
//! Events execute on the thread that calls [`run`](Scheduler::run) (or on
//! the engine's workers when a sharded scheduler was given `jobs > 1`), and
//! `run` holds the engine for its whole extent. Calling `at` or `now` on a
//! running scheduler from a thread that is not executing one of its events
//! is unsupported: `at` blocks until the run ends and `now` reads the
//! clock as it stood before the run.

use std::cell::Cell;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::pdes::{EpochObservation, Pdes, PdesConfig, PdesNode, ShardCtx, ShardLogic};
use crate::time::{SimDuration, SimTime};

/// Closures up to this many bytes are stored inline in the event slab
/// (no per-event allocation). Chosen to fit the runtime's completion and
/// timer callbacks, which capture a handful of `Arc`s and integers.
pub const INLINE_EVENT_BYTES: usize = 48;

const INLINE_WORDS: usize = INLINE_EVENT_BYTES / size_of::<usize>();
type EventBuf = [usize; INLINE_WORDS];

/// Type-erased one-shot closure with inline small-object storage.
struct RawEvent {
    data: MaybeUninit<EventBuf>,
    call: unsafe fn(*mut EventBuf),
    drop_fn: unsafe fn(*mut EventBuf),
}

// Safety: only `Send` closures are stored (enforced by `RawEvent::new`'s
// bound); the erased buffer carries no shared references of its own.
unsafe impl Send for RawEvent {}

impl RawEvent {
    fn new<F: FnOnce() + Send + 'static>(f: F) -> Self {
        unsafe fn call_inline<F: FnOnce()>(p: *mut EventBuf) {
            (std::ptr::read(p.cast::<F>()))()
        }
        unsafe fn drop_inline<F>(p: *mut EventBuf) {
            std::ptr::drop_in_place(p.cast::<F>())
        }
        unsafe fn call_boxed<F: FnOnce()>(p: *mut EventBuf) {
            (std::ptr::read(p.cast::<Box<F>>()))()
        }
        unsafe fn drop_boxed<F>(p: *mut EventBuf) {
            drop(std::ptr::read(p.cast::<Box<F>>()))
        }

        let mut data = MaybeUninit::<EventBuf>::uninit();
        if size_of::<F>() <= size_of::<EventBuf>() && align_of::<F>() <= align_of::<EventBuf>() {
            unsafe { data.as_mut_ptr().cast::<F>().write(f) };
            RawEvent {
                data,
                call: call_inline::<F>,
                drop_fn: drop_inline::<F>,
            }
        } else {
            unsafe { data.as_mut_ptr().cast::<Box<F>>().write(Box::new(f)) };
            RawEvent {
                data,
                call: call_boxed::<F>,
                drop_fn: drop_boxed::<F>,
            }
        }
    }

    /// Execute the closure, consuming the event.
    fn run(self) {
        let mut me = ManuallyDrop::new(self);
        // Safety: ManuallyDrop guarantees drop_fn will not also run; `call`
        // takes ownership of the closure bytes.
        unsafe { (me.call)(me.data.as_mut_ptr()) }
    }
}

impl Drop for RawEvent {
    fn drop(&mut self) {
        // Only reached when an event is discarded unexecuted (queue
        // teardown); `run` suppresses this via ManuallyDrop.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr()) }
    }
}

/// Count one node-affine event for `node` in a census (see
/// [`Scheduler::at_node`]): one slot per node, the last collecting ids
/// beyond the range. An empty census is counting switched off.
#[inline]
fn count_node(census: &mut [u64], node: PdesNode) {
    if let Some(last) = census.len().checked_sub(1) {
        census[(node as usize).min(last)] += 1;
    }
}

/// The shard context currently executing an event on this thread, and
/// that shard's census. `rt` tells coexisting schedulers apart.
#[derive(Clone, Copy)]
struct ActiveShard {
    rt: u64,
    ctx: *mut ShardCtx<'static, RawEvent>,
    census: *mut [u64],
    node: PdesNode,
}

thread_local! {
    static ACTIVE_SHARD: Cell<Option<ActiveShard>> = const { Cell::new(None) };
}

/// Publishes a `ShardCtx` for the dynamic extent of one event, restoring
/// the previous value on drop (a scheduler's own events never nest, but an
/// event may drive a *different* scheduler whose events re-check `rt`).
struct ActiveShardGuard {
    prev: Option<ActiveShard>,
}

impl ActiveShardGuard {
    fn enter(
        rt: u64,
        ctx: &mut ShardCtx<'_, RawEvent>,
        census: &mut [u64],
        node: PdesNode,
    ) -> Self {
        let active = ActiveShard {
            rt,
            ctx: (ctx as *mut ShardCtx<'_, RawEvent>).cast(),
            census,
            node,
        };
        ActiveShardGuard {
            prev: ACTIVE_SHARD.with(|c| c.replace(Some(active))),
        }
    }
}

impl Drop for ActiveShardGuard {
    fn drop(&mut self) {
        ACTIVE_SHARD.with(|c| c.set(self.prev));
    }
}

/// Per-shard logic of the scheduler: runs the stored closure with the shard
/// context published in thread-local storage so the closure's `Scheduler`
/// calls route back into this shard.
struct ClosureShard {
    rt: u64,
    /// The `at_node` calls this shard's events made, by target node
    /// (see [`count_node`]). Plain memory: only the thread executing the
    /// shard writes it, and seeds count into shard 0's under the engine
    /// lock.
    census: Box<[u64]>,
}

impl ShardLogic for ClosureShard {
    type Event = RawEvent;

    fn handle(&mut self, ctx: &mut ShardCtx<'_, RawEvent>, node: PdesNode, ev: RawEvent) {
        let _guard = ActiveShardGuard::enter(self.rt, ctx, &mut self.census, node);
        ev.run();
    }
}

/// Source of `Inner::rt` tokens.
static NEXT_RT: AtomicU64 = AtomicU64::new(1);

/// Sample hook installed by [`Scheduler::set_sample_hook`]: called with the
/// current simulation time in nanoseconds at each epoch boundary of the run
/// loop. The callee decides whether a sample is due, so the hook must be
/// cheap when idle.
pub type SampleHook = Arc<dyn Fn(u64) + Send + Sync>;

struct Inner {
    /// Unique token matching `ActiveShard::rt`.
    rt: u64,
    /// The clock as seen from outside a run: the last executed event's time.
    now: AtomicU64,
    scheduled: AtomicU64,
    executed: AtomicU64,
    /// The model's minimum cross-node latency, for schedulers built by
    /// [`Scheduler::sharded`] / [`Scheduler::sharded_reference`].
    sharded_lookahead: Option<SimDuration>,
    /// Worker threads for `run` (ignored by the reference executor).
    jobs: usize,
    /// Use the sequential reference executor (global `(time, shard, seq)`
    /// scan) instead of the barrier-epoch engine.
    reference: bool,
    engine: Mutex<Pdes<ClosureShard>>,
}

/// Handle to the discrete-event simulation. Cheap to clone; all clones share
/// the same virtual clock and event queue.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty simulation with storage preallocated for `events`
    /// concurrent pending events.
    pub fn with_capacity(events: usize) -> Self {
        let cfg = PdesConfig {
            shards: 1,
            // One epoch is one timestamp.
            lookahead: SimDuration::from_nanos(1),
            event_capacity: events,
            ..PdesConfig::default()
        };
        Self::build(cfg, None, 1, false)
    }

    /// Create a **sharded** scheduler for `nodes` simulated nodes: one
    /// shard per node and `jobs` worker threads per [`run`](Self::run)
    /// call. `lookahead` is the model's minimum cross-node latency (the
    /// LogGP wire `L`): cross-node events closer than that panic at the
    /// scheduling site.
    ///
    /// The shard count is tied to `nodes`, not `jobs`, so the deterministic
    /// `(time, shard, seq)` total order — and therefore every digest — is
    /// identical at any job count.
    pub fn sharded(nodes: u32, lookahead: SimDuration, jobs: usize) -> Self {
        Self::sharded_with(nodes, lookahead, jobs, false)
    }

    /// Like [`sharded`](Self::sharded) but executing on the sequential
    /// reference executor (the global `(time, shard, seq)` merge) — the
    /// oracle the epoch engine is byte-compared against.
    pub fn sharded_reference(nodes: u32, lookahead: SimDuration) -> Self {
        Self::sharded_with(nodes, lookahead, 1, true)
    }

    fn sharded_with(nodes: u32, lookahead: SimDuration, jobs: usize, reference: bool) -> Self {
        assert!(
            lookahead.as_nanos() > 0,
            "sharded scheduler requires a positive lookahead"
        );
        let cfg = PdesConfig {
            shards: nodes.max(1),
            lookahead,
            ..PdesConfig::default()
        };
        Self::build(cfg, Some(lookahead), jobs, reference)
    }

    fn build(
        cfg: PdesConfig,
        sharded_lookahead: Option<SimDuration>,
        jobs: usize,
        reference: bool,
    ) -> Self {
        let rt = NEXT_RT.fetch_add(1, Ordering::Relaxed);
        let logics = (0..cfg.shards)
            .map(|_| ClosureShard {
                rt,
                census: Box::default(),
            })
            .collect();
        Scheduler {
            inner: Arc::new(Inner {
                rt,
                now: AtomicU64::new(0),
                scheduled: AtomicU64::new(0),
                executed: AtomicU64::new(0),
                sharded_lookahead,
                jobs,
                reference,
                engine: Mutex::new(Pdes::new(cfg, logics)),
            }),
        }
    }

    /// True when this scheduler was built by [`sharded`](Self::sharded) or
    /// [`sharded_reference`](Self::sharded_reference), whatever the node
    /// count. The layers above read it to pick their timing model (two-phase
    /// delivery, acks no sooner than the lookahead, per-node RNG streams).
    #[inline]
    pub fn is_sharded(&self) -> bool {
        self.inner.sharded_lookahead.is_some()
    }

    /// Engine lookahead of a sharded scheduler (`None` when sequential).
    /// Two events separated by at least this much virtual time are
    /// happens-before ordered across shards even under parallel execution,
    /// so state written by the earlier one is visible to the later.
    pub fn sharded_lookahead(&self) -> Option<SimDuration> {
        self.inner.sharded_lookahead
    }

    /// Install the time-series sample hook. It fires once per epoch, after
    /// every event of the epoch has executed, with the epoch's lower bound
    /// on pending event time — a quiescent, jobs-invariant instant, so frame
    /// sequences are byte-identical at any worker count. On a sequential
    /// scheduler an epoch is one timestamp: the hook fires exactly once per
    /// distinct event time, in strictly increasing order, after the last
    /// event at that instant (including those scheduled during it). One
    /// hook per scheduler, installed before running; a later call replaces
    /// it.
    pub fn set_sample_hook(&self, hook: SampleHook) {
        self.inner
            .engine
            .lock()
            .set_epoch_hook(Arc::new(move |obs: &EpochObservation| {
                hook(obs.lbts.as_nanos());
            }));
    }

    /// The shard context published by `ClosureShard::handle` when the
    /// calling thread is inside one of *this* scheduler's events.
    ///
    /// Dereferencing its `ctx` or `census` is sound for the extent of that
    /// event: the `&mut` lent to `handle` is suspended while the closure
    /// runs and no other path reaches them, so a reborrow is unique as long
    /// as it is dropped before anything that could read `ACTIVE_SHARD`
    /// again. The `'static` in its type is erased storage only.
    fn active(&self) -> Option<ActiveShard> {
        ACTIVE_SHARD
            .with(Cell::get)
            .filter(|a| a.rt == self.inner.rt)
    }

    /// From inside an event, route through the executing shard (`node:
    /// None` keeps the event on the current node); from outside, seed the
    /// idle engine directly (no lookahead constraint, seed order is call
    /// order; unaffined events land on node 0). An affine event (`node:
    /// Some`) is counted in the census of the shard that schedules it.
    ///
    /// The engine counts what events schedule during a run, and `run`
    /// publishes that count when it returns; only seeds count here, under
    /// the engine lock `run` publishes under.
    fn schedule(&self, node: Option<PdesNode>, t: SimTime, ev: RawEvent) {
        match self.active() {
            Some(active) => {
                if let Some(node) = node {
                    // SAFETY: see `active`; dropped at once.
                    count_node(unsafe { &mut *active.census }, node);
                }
                // SAFETY: see `active`; `send_at` runs no event code.
                let ctx = unsafe { &mut *active.ctx };
                ctx.send_at(node.unwrap_or(active.node), t, ev);
            }
            None => {
                let at = t.max(SimTime(self.inner.now.load(Ordering::Acquire)));
                let mut engine = self.inner.engine.lock();
                if let (Some(node), Some(first)) = (node, engine.logics_mut().next()) {
                    count_node(&mut first.census, node);
                }
                engine.seed(node.unwrap_or(0), at, ev);
                self.inner.scheduled.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Current virtual time: the executing event's timestamp from inside an
    /// event, the last executed event's otherwise.
    #[inline]
    pub fn now(&self) -> SimTime {
        match self.active() {
            // SAFETY: see `active`; a shared read, dropped at once.
            Some(active) => unsafe { (*active.ctx).now() },
            None => SimTime(self.inner.now.load(Ordering::Acquire)),
        }
    }

    /// Number of events executed by completed [`run`](Self::run) calls.
    pub fn events_executed(&self) -> u64 {
        self.inner.executed.load(Ordering::Relaxed)
    }

    /// Number of events currently pending. Lock-free: derived from the
    /// scheduled/executed counters. Exact whenever the scheduler is
    /// quiescent; during a run it reads as it stood when the run began.
    #[inline]
    pub fn events_pending(&self) -> usize {
        let scheduled = self.inner.scheduled.load(Ordering::Acquire);
        let executed = self.inner.executed.load(Ordering::Acquire);
        scheduled.saturating_sub(executed) as usize
    }

    /// Schedule `f` to run at absolute time `t`. Scheduling in the past is a
    /// logic error; the event is clamped to "now" so the simulation still
    /// makes progress, which keeps real-time-adjacent code robust.
    ///
    /// An unaffined event stays on the node of the event that scheduled it
    /// (schedules from outside a run land on node 0).
    pub fn at(&self, t: SimTime, f: impl FnOnce() + Send + 'static) {
        self.schedule(None, t, RawEvent::new(f));
    }

    /// Schedule `f` at `t` with **node affinity**: the event logically
    /// belongs to simulated node `node` (a wire delivery arriving there, a
    /// completion surfacing on its CQ) and executes on `node`'s shard. On a
    /// sequential scheduler every node shares the one shard, so the
    /// execution order is that of [`at`](Self::at); on a sharded scheduler
    /// a cross-node schedule closer than the lookahead panics. Once
    /// [`enable_node_affinity`](Self::enable_node_affinity) has turned it
    /// on, affinity also feeds the per-node event census
    /// ([`node_event_counts`](Self::node_event_counts)).
    pub fn at_node(&self, node: u32, t: SimTime, f: impl FnOnce() + Send + 'static) {
        self.schedule(Some(node), t, RawEvent::new(f));
    }

    /// Turn on per-node affinity counting for node ids `0..nodes` (one
    /// overflow slot collects ids beyond the range). Idempotent; the first
    /// call wins. Call it from outside a run. Counting is off by default:
    /// once on, every `at_node` pays one plain increment of the scheduling
    /// shard's own census (a census per shard, each `nodes + 1` slots).
    /// `World` turns it on for sharded schedulers only, where affinity
    /// picks the executing shard and a test audits it.
    pub fn enable_node_affinity(&self, nodes: u32) {
        for shard in self.inner.engine.lock().logics_mut() {
            if shard.census.is_empty() {
                shard.census = vec![0; nodes.max(1) as usize + 1].into();
            }
        }
    }

    /// Per-node counts of node-affine events scheduled so far, summed over
    /// the shards' censuses (empty when affinity tracking was never
    /// enabled). Index `nodes` — the final slot — counts out-of-range ids.
    /// Call it from outside a run.
    pub fn node_event_counts(&self) -> Vec<u64> {
        let mut total = Vec::new();
        for shard in self.inner.engine.lock().logics_mut() {
            total.resize(shard.census.len(), 0);
            for (sum, n) in total.iter_mut().zip(&*shard.census) {
                *sum += n;
            }
        }
        total
    }

    /// Schedule `f` to run `d` after the current virtual time.
    pub fn after(&self, d: SimDuration, f: impl FnOnce() + Send + 'static) {
        self.at(self.now() + d, f);
    }

    /// Run until the event queue is empty, then park the clock at the last
    /// executed event. Returns the number of events executed by this call.
    ///
    /// # Panics
    ///
    /// When called from inside one of this scheduler's own events.
    pub fn run(&self) -> u64 {
        assert!(
            self.active().is_none(),
            "Scheduler::run is not reentrant: called from one of this scheduler's own events"
        );
        let mut pdes = self.inner.engine.lock();
        let report = if self.inner.reference {
            pdes.run_reference()
        } else {
            pdes.run(self.inner.jobs)
        };
        // The engine's report is cumulative over its runs.
        let ran = report.events - self.inner.executed.load(Ordering::Relaxed);
        if ran > 0 {
            self.inner
                .now
                .fetch_max(report.makespan.as_nanos(), Ordering::AcqRel);
        }
        self.inner
            .scheduled
            .store(pdes.scheduled(), Ordering::Release);
        self.inner.executed.fetch_add(ran, Ordering::Release);
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_in_time_order() {
        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (t, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let log = log.clone();
            sim.at(SimTime(t), move || log.lock().push(tag));
        }
        sim.run();
        assert_eq!(*log.lock(), vec!['a', 'b', 'c']);
        assert_eq!(sim.now(), SimTime(30));
    }

    #[test]
    fn ties_execute_in_scheduling_order() {
        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..100 {
            let log = log.clone();
            sim.at(SimTime(42), move || log.lock().push(i));
        }
        sim.run();
        assert_eq!(*log.lock(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let sim = Scheduler::new();
        let count = Arc::new(AtomicUsize::new(0));
        fn chain(sim: Scheduler, count: Arc<AtomicUsize>, remaining: usize) {
            if remaining == 0 {
                return;
            }
            let s2 = sim.clone();
            sim.after(SimDuration(5), move || {
                count.fetch_add(1, Ordering::Relaxed);
                chain(s2.clone(), count.clone(), remaining - 1);
            });
        }
        chain(sim.clone(), count.clone(), 10);
        sim.run();
        assert_eq!(count.load(Ordering::Relaxed), 10);
        assert_eq!(sim.now(), SimTime(50));
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let sim = Scheduler::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = fired.clone();
        let s2 = sim.clone();
        sim.at(SimTime(100), move || {
            let f3 = f2.clone();
            // "Past" event: should fire at t=100, not break the heap.
            s2.at(SimTime(1), move || {
                f3.fetch_add(1, Ordering::Relaxed);
            });
        });
        sim.run();
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(sim.now(), SimTime(100));
    }

    #[test]
    fn counters() {
        let sim = Scheduler::new();
        sim.at(SimTime(1), || {});
        sim.at(SimTime(2), || {});
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.events_pending(), 0);
    }

    /// Events scheduled from inside events are counted by the engine and
    /// published when the run returns: pending is exact at every quiescent
    /// point, whichever path scheduled what.
    #[test]
    fn pending_is_exact_at_quiescence() {
        for sim in [Scheduler::new(), Scheduler::sharded(3, SimDuration(5), 2)] {
            let s2 = sim.clone();
            sim.at(SimTime(1), move || {
                // Two follow-ups: one runs, one lands beyond a cross-node hop.
                let s3 = s2.clone();
                s2.after(SimDuration(1), move || {
                    s3.at_node(2, s3.now() + SimDuration(10), || {});
                });
                s2.at_node(1, SimTime(50), || {});
            });
            assert_eq!(sim.events_pending(), 1);
            assert_eq!(sim.run(), 4);
            assert_eq!((sim.events_executed(), sim.events_pending()), (4, 0));
            sim.at(SimTime(60), || {});
            sim.at(SimTime(70), || {});
            assert_eq!(sim.events_pending(), 2);
            assert_eq!(sim.run(), 2);
            assert_eq!((sim.events_executed(), sim.events_pending()), (6, 0));
        }
    }

    #[test]
    fn slab_slots_are_reused_in_steady_state() {
        let sim = Scheduler::new();
        // Chain 1000 events, at most 2 pending at a time.
        fn chain(sim: Scheduler, remaining: u32) {
            if remaining == 0 {
                return;
            }
            let s2 = sim.clone();
            sim.after(SimDuration(1), move || chain(s2.clone(), remaining - 1));
        }
        chain(sim.clone(), 1_000);
        sim.run();
        assert_eq!(sim.events_executed(), 1_000);
        let high_water = sim.inner.engine.lock().shard_stats()[0].slab_high_water;
        assert!(
            high_water <= 2,
            "slab grew to {high_water} slots for a 1-deep chain"
        );
    }

    #[test]
    fn large_closures_fall_back_to_boxing() {
        let sim = Scheduler::new();
        let big = [7u8; 512]; // larger than INLINE_EVENT_BYTES
        let sum = Arc::new(AtomicUsize::new(0));
        let s2 = sum.clone();
        sim.at(SimTime(1), move || {
            s2.store(big.iter().map(|&b| b as usize).sum(), Ordering::Relaxed);
        });
        sim.run();
        assert_eq!(sum.load(Ordering::Relaxed), 7 * 512);
    }

    #[test]
    fn unexecuted_events_are_dropped_cleanly() {
        // An Arc captured by a never-run event must still be released when
        // the scheduler is dropped (drop_fn path).
        let sentinel = Arc::new(());
        let sim = Scheduler::new();
        let s2 = sentinel.clone();
        sim.at(SimTime(1), move || {
            let _keep = s2;
        });
        drop(sim);
        assert_eq!(Arc::strong_count(&sentinel), 1);
    }

    #[test]
    fn batches_larger_than_max_batch_stay_ordered() {
        // 405 events at one instant, a third of them scheduled from inside
        // events at that instant: those sort after everything seeded.
        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..270 {
            let (log, s2) = (log.clone(), sim.clone());
            sim.at(SimTime(7), move || {
                log.lock().push(i);
                if i % 2 == 0 {
                    let log = log.clone();
                    s2.at(SimTime(7), move || log.lock().push(1_000 + i));
                }
            });
        }
        assert_eq!(sim.run(), 405);
        let expect: Vec<i32> = (0..270)
            .chain((0..270).step_by(2).map(|i| 1_000 + i))
            .collect();
        assert_eq!(*log.lock(), expect);
        assert_eq!(sim.now(), SimTime(7));
    }

    #[test]
    fn node_affinity_census() {
        let sim = Scheduler::new();
        sim.enable_node_affinity(2);
        sim.at_node(0, SimTime(1), || {});
        sim.at_node(1, SimTime(2), || {});
        sim.at_node(1, SimTime(3), || {});
        sim.at_node(99, SimTime(4), || {}); // out of range -> overflow slot
        sim.run();
        assert_eq!(sim.node_event_counts(), vec![1, 2, 1]);
        // Disabled tracking reports nothing.
        let quiet = Scheduler::new();
        quiet.at_node(0, SimTime(1), || {});
        quiet.run();
        assert!(quiet.node_event_counts().is_empty());
    }

    /// A causal cross-node hop chain run on every executor flavour must
    /// visit nodes in the same order at the same virtual times.
    fn hop_chain(sched: &Scheduler, lookahead: SimDuration, hops: u32) -> Vec<(u32, u64)> {
        let log = Arc::new(Mutex::new(Vec::new()));
        fn hop(
            sched: Scheduler,
            log: Arc<Mutex<Vec<(u32, u64)>>>,
            lookahead: SimDuration,
            node: u32,
            remaining: u32,
        ) {
            let t = sched.now() + lookahead;
            let s2 = sched.clone();
            sched.at_node(node, t, move || {
                log.lock().push((node, s2.now().as_nanos()));
                if remaining > 0 {
                    hop(
                        s2.clone(),
                        log.clone(),
                        lookahead,
                        (node + 1) % 4,
                        remaining - 1,
                    );
                }
            });
        }
        hop(sched.clone(), log.clone(), lookahead, 0, hops);
        sched.run();
        let out = log.lock().clone();
        out
    }

    #[test]
    fn sharded_matches_reference_and_jobs() {
        let la = SimDuration(10);
        let want = hop_chain(&Scheduler::sharded_reference(4, la), la, 40);
        assert_eq!(want.len(), 41);
        for jobs in [1, 2, 4] {
            let got = hop_chain(&Scheduler::sharded(4, la, jobs), la, 40);
            assert_eq!(got, want, "jobs={jobs} diverged from reference");
        }
        // The sequential scheduler agrees too: same virtual timing model.
        assert_eq!(hop_chain(&Scheduler::new(), la, 40), want);
    }

    #[test]
    fn sharded_unaffined_events_stay_on_scheduling_node() {
        let sim = Scheduler::sharded(3, SimDuration(5), 2);
        sim.enable_node_affinity(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, s2) = (log.clone(), sim.clone());
        // Main-thread `at` seeds node 0; the inner `after` must stay local
        // to node 1 without tripping the cross-shard lookahead assert.
        sim.at_node(1, SimTime(100), move || {
            let l2 = l1.clone();
            let s3 = s2.clone();
            s2.after(SimDuration(1), move || {
                l2.lock().push(s3.now());
            });
        });
        sim.run();
        assert_eq!(*log.lock(), vec![SimTime(101)]);
        assert_eq!(sim.now(), SimTime(101));
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn sharded_run_is_repeatable_across_seeding_rounds() {
        let sim = Scheduler::sharded(2, SimDuration(5), 2);
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        sim.at_node(0, SimTime(1), move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(sim.run(), 1);
        let c3 = count.clone();
        sim.at_node(1, SimTime(50), move || {
            c3.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(sim.run(), 1);
        assert_eq!(count.load(Ordering::Relaxed), 2);
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn sharded_cross_node_event_inside_lookahead_panics() {
        let sim = Scheduler::sharded(2, SimDuration(100), 1);
        let s2 = sim.clone();
        sim.at_node(0, SimTime(10), move || {
            // Node 1 lives on another shard; 1 ns ahead < lookahead.
            s2.at_node(1, s2.now() + SimDuration(1), || {});
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "not reentrant")]
    fn nested_run_from_event_panics() {
        let sim = Scheduler::new();
        let s2 = sim.clone();
        sim.at(SimTime(1), move || {
            s2.run();
        });
        sim.run();
    }

    #[test]
    fn sequential_sample_hook_sees_batch_times() {
        let sim = Scheduler::new();
        let ticks = Arc::new(Mutex::new(Vec::new()));
        let t2 = ticks.clone();
        sim.set_sample_hook(Arc::new(move |t| t2.lock().push(t)));
        for t in [10u64, 10, 30] {
            sim.at(SimTime(t), || {});
        }
        let s2 = sim.clone();
        sim.at(SimTime(20), move || {
            // One more at this instant, one at a new instant in between.
            s2.at(SimTime(20), || {});
            s2.at(SimTime(25), || {});
        });
        assert_eq!(sim.run(), 6);
        // Exactly once per distinct timestamp, strictly increasing.
        assert_eq!(*ticks.lock(), vec![10, 20, 25, 30]);
    }

    #[test]
    fn sharded_sample_hook_ticks_are_jobs_invariant() {
        let la = SimDuration(10);
        let ticks_for = |jobs: usize| {
            let sim = Scheduler::sharded(4, la, jobs);
            let ticks = Arc::new(Mutex::new(Vec::new()));
            let t2 = ticks.clone();
            sim.set_sample_hook(Arc::new(move |t| t2.lock().push(t)));
            hop_chain(&sim, la, 40);
            let out = ticks.lock().clone();
            out
        };
        let want = ticks_for(1);
        assert!(!want.is_empty(), "epoch hook never fired");
        for jobs in [2, 4] {
            assert_eq!(ticks_for(jobs), want, "jobs={jobs} tick sequence diverged");
        }
    }

    #[test]
    fn sharded_shard_stats_cover_every_shard() {
        let la = SimDuration(10);
        let sim = Scheduler::sharded(4, la, 2);
        hop_chain(&sim, la, 40);
        let stats = sim.inner.engine.lock().shard_stats();
        assert_eq!(stats.len(), 4);
        let total: u64 = stats.iter().map(|s| s.events).sum();
        assert_eq!(total, 41);
        let ratio = crate::pdes::imbalance_ratio(&stats);
        assert!(ratio >= 1.0, "imbalance ratio {ratio} below 1.0");
    }
}
