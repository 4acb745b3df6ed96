//! [`TimeSource`]: the one clock-and-timer a world runs on.
//!
//! A world is either simulated or real, and that one fact decides both what
//! "now" is and how a delayed callback (the timer aggregator's δ flush, the
//! modelled receive-path cost) gets run:
//!
//! - [`TimeSource::Sim`] is the [`Scheduler`]: virtual time, callbacks are
//!   events on their node's shard.
//! - [`TimeSource::Wall`] is one `WallClock` per world: nanoseconds since
//!   the world was built, and a `(deadline, seq)` min-queue with no thread
//!   of its own. Whoever is already inside the runtime fires what is due
//!   ([`TimeSource::fire_due`]), as MPI's progress rule has it: a deadline
//!   fires at the first entry, by any thread, at or after it. While nothing
//!   is armed that costs one relaxed load and no clock read. Pending
//!   callbacks are dropped unrun with the clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};

/// [`WallClock`]'s armed word while no deadline is armed.
const NOTHING_ARMED: u64 = u64::MAX;

/// Where a world's time comes from (see the module docs).
#[derive(Clone)]
pub enum TimeSource {
    /// Virtual time: the scheduler driving a simulated world.
    Sim(Scheduler),
    /// Wall-clock time, with the world's deadline queue.
    Wall(Arc<WallClock>),
}

impl TimeSource {
    /// A wall-clock time source whose zero is "now".
    pub fn wall() -> Self {
        TimeSource::Wall(Arc::new(WallClock {
            origin: Instant::now(),
            timer: Mutex::default(),
            armed: AtomicU64::new(NOTHING_ARMED),
        }))
    }

    /// Current time.
    #[inline]
    pub fn now(&self) -> SimTime {
        match self {
            TimeSource::Sim(sched) => sched.now(),
            TimeSource::Wall(clock) => clock.now(),
        }
    }

    /// Run `f` once, `delay` from now, on behalf of simulated node `node`:
    /// an event on that node's shard under the simulator (stored inline in
    /// the event slab when small), a deadline in the world's queue on the
    /// wall clock (which has no nodes), run by the first
    /// [`fire_due`](Self::fire_due) at or after it.
    pub fn after(&self, node: u32, delay: SimDuration, f: impl FnOnce() + Send + 'static) {
        match self {
            TimeSource::Sim(sched) => sched.at_node(node, sched.now() + delay, f),
            TimeSource::Wall(clock) => clock.arm(clock.now() + delay, Box::new(f)),
        }
    }

    /// Run, on the calling thread, the wall-clock deadlines that are due.
    /// Every runtime entry calls it, outside the locks it holds. Under the
    /// simulator it does nothing: its deadlines are events.
    #[inline]
    pub fn fire_due(&self) {
        if let TimeSource::Wall(clock) = self {
            clock.fire_if_due(|| clock.now());
        }
    }

    /// The driving scheduler (`None` on the wall clock).
    pub fn scheduler(&self) -> Option<&Scheduler> {
        match self {
            TimeSource::Sim(sched) => Some(sched),
            TimeSource::Wall(_) => None,
        }
    }

    /// The clock as a plain nanosecond closure, for injection into layers
    /// that must stay independent of this crate (e.g. the telemetry flow
    /// recorder). Reads the same clock as [`TimeSource::now`], so stamps
    /// agree with virtual time under the simulator. On the wall clock it
    /// captures the origin only, never the timer queue.
    pub fn ns_hook(&self) -> Arc<dyn Fn() -> u64 + Send + Sync> {
        match self {
            TimeSource::Sim(sched) => {
                let sched = sched.clone();
                Arc::new(move || sched.now().as_nanos())
            }
            TimeSource::Wall(clock) => {
                let origin = clock.origin;
                Arc::new(move || origin.elapsed().as_nanos() as u64)
            }
        }
    }
}

/// The deadline queue: callbacks by `(deadline, arming order)`.
#[derive(Default)]
struct TimerState {
    queue: BTreeMap<(SimTime, u64), Box<dyn FnOnce() + Send>>,
    next_seq: u64,
}

/// Wall-clock time relative to construction, plus the world's deadline
/// queue. Built by [`TimeSource::wall`].
pub struct WallClock {
    origin: Instant,
    timer: Mutex<TimerState>,
    /// The nearest deadline in `timer` (ns), or [`NOTHING_ARMED`]. Stored
    /// under the queue lock, read without it: it publishes no other data.
    armed: AtomicU64,
}

impl WallClock {
    fn now(&self) -> SimTime {
        SimTime(self.origin.elapsed().as_nanos() as u64)
    }

    /// Queue `f` for `at`.
    fn arm(&self, at: SimTime, f: Box<dyn FnOnce() + Send>) {
        let mut t = self.timer.lock();
        let key = (at, t.next_seq);
        t.next_seq += 1;
        t.queue.insert(key, f);
        self.publish(&t);
    }

    /// Store the nearest deadline of `t` (locked) in the armed word.
    fn publish(&self, t: &TimerState) -> Option<SimTime> {
        let next = t.queue.keys().next().map(|&(at, _)| at);
        self.armed
            .store(next.map_or(NOTHING_ARMED, |at| at.0), Ordering::Relaxed);
        next
    }

    /// [`fire_due`](Self::fire_due) if the armed word says a deadline may be
    /// due; `now` (injectable for tests) is called only while one is armed.
    #[inline]
    pub fn fire_if_due(&self, now: impl FnOnce() -> SimTime) {
        let next = self.armed.load(Ordering::Relaxed);
        if next == NOTHING_ARMED {
            return;
        }
        let now = now();
        if now.0 >= next {
            self.fire_due(now);
        }
    }

    /// Run, in `(deadline, seq)` order, every callback due at `now`, each
    /// outside the queue lock (a callback may arm another). Returns the
    /// nearest deadline still pending.
    #[cold]
    pub fn fire_due(&self, now: SimTime) -> Option<SimTime> {
        loop {
            let mut t = self.timer.lock();
            let f = match t.queue.first_entry() {
                Some(due) if due.key().0 <= now => Some(due.remove()),
                _ => None,
            };
            let next = self.publish(&t);
            drop(t);
            match f {
                Some(f) => f(),
                None => return next,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn wall_clock(ts: &TimeSource) -> &Arc<WallClock> {
        match ts {
            TimeSource::Wall(c) => c,
            TimeSource::Sim(_) => unreachable!("wall-clock test"),
        }
    }

    #[test]
    fn sim_clock_tracks_scheduler() {
        let sched = Scheduler::new();
        let ts = TimeSource::Sim(sched.clone());
        assert_eq!(ts.now(), SimTime(0));
        sched.at(SimTime(500), || {});
        sched.run();
        assert_eq!(ts.now(), SimTime(500));
        assert_eq!((ts.ns_hook())(), 500);
        assert!(ts.scheduler().is_some());
    }

    #[test]
    fn sim_timer_schedules_on_queue() {
        let sched = Scheduler::new();
        let ts = TimeSource::Sim(sched.clone());
        let fired = Arc::new(AtomicBool::new(false));
        let f2 = fired.clone();
        ts.after(0, SimDuration::from_micros(7), move || {
            f2.store(true, Ordering::Relaxed)
        });
        assert!(!fired.load(Ordering::Relaxed));
        ts.fire_due();
        assert!(!fired.load(Ordering::Relaxed), "a sim deadline is an event");
        sched.run();
        assert!(fired.load(Ordering::Relaxed));
        assert_eq!(sched.now(), SimTime(7_000));
    }

    #[test]
    fn real_clock_is_monotonic() {
        let ts = TimeSource::wall();
        let a = ts.now();
        let b = ts.now();
        assert!(b >= a);
        assert!(ts.scheduler().is_none());
    }

    /// A deadline fires at the first `fire_due` at or after it, on the
    /// calling thread, and never before.
    #[test]
    fn wall_deadline_fires() {
        let ts = TimeSource::wall();
        let fired = Arc::new(AtomicBool::new(false));
        let f2 = fired.clone();
        ts.after(0, SimDuration::from_millis(2), move || {
            f2.store(true, Ordering::Release)
        });
        ts.fire_due();
        assert!(!fired.load(Ordering::Acquire), "not due yet");
        std::thread::sleep(Duration::from_millis(3));
        assert!(!fired.load(Ordering::Acquire), "no thread fires it");
        ts.fire_due();
        assert!(fired.load(Ordering::Acquire));
    }

    /// With nothing armed the armed word reads the sentinel and no clock is
    /// read, so `fire_due` is not reached; an armed deadline sets the word,
    /// and firing it clears the word again.
    #[test]
    fn nothing_armed_reads_no_clock() {
        let ts = TimeSource::wall();
        let clock = wall_clock(&ts);
        let no_clock = || -> SimTime { panic!("the clock was read with nothing armed") };
        assert_eq!(clock.armed.load(Ordering::Relaxed), NOTHING_ARMED);
        clock.fire_if_due(no_clock);
        let at = SimTime(3_600_000_000_000);
        clock.arm(at, Box::new(|| {}));
        assert_eq!(clock.armed.load(Ordering::Relaxed), at.0);
        clock.fire_if_due(|| at);
        assert_eq!(clock.armed.load(Ordering::Relaxed), NOTHING_ARMED);
        clock.fire_if_due(no_clock);
    }

    #[test]
    fn fire_due_runs_in_deadline_then_seq_order() {
        let ts = TimeSource::wall();
        let clock = wall_clock(&ts);
        let log = Arc::new(Mutex::new(Vec::new()));
        let base = SimTime(3_600_000_000_000);
        for (tag, offset) in [(0u32, 30u64), (1, 10), (2, 30), (3, 20), (4, 10)] {
            let log = log.clone();
            clock.arm(
                SimTime(base.0 + offset),
                Box::new(move || log.lock().push(tag)),
            );
        }
        assert_eq!(clock.armed.load(Ordering::Relaxed), base.0 + 10);
        assert_eq!(
            clock.fire_due(SimTime(base.0 + 9)),
            Some(SimTime(base.0 + 10))
        );
        assert!(
            log.lock().is_empty(),
            "nothing is due before the first deadline"
        );
        assert_eq!(
            clock.fire_due(SimTime(base.0 + 20)),
            Some(SimTime(base.0 + 30))
        );
        assert_eq!(*log.lock(), [1, 4, 3], "deadline order, then arming order");
        assert_eq!(clock.armed.load(Ordering::Relaxed), base.0 + 30);
        assert_eq!(clock.fire_due(SimTime(u64::MAX)), None);
        assert_eq!(*log.lock(), [1, 4, 3, 0, 2]);
        assert_eq!(clock.fire_due(SimTime(u64::MAX)), None, "fired once only");
    }

    #[test]
    fn dropping_the_clock_drops_pending_callbacks_unrun() {
        let ts = TimeSource::wall();
        let held = Arc::new(());
        let h2 = held.clone();
        ts.after(0, SimDuration::from_secs(10), move || drop(h2));
        drop(ts);
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "pending callback dropped unrun"
        );
    }

    #[test]
    fn drop_with_a_pending_deadline_returns_promptly() {
        let ts = TimeSource::wall();
        ts.after(0, SimDuration::from_secs(10), || {});
        ts.fire_due();
        let t0 = Instant::now();
        drop(ts);
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    /// A callback runs outside the queue lock: it may arm a deadline on its
    /// own clock and drop the handle it captured, leaving the caller's as
    /// the last, which then frees the clock.
    #[test]
    fn callback_may_drop_the_last_handle() {
        let ts = TimeSource::wall();
        let done = Arc::new(AtomicBool::new(false));
        let d2 = done.clone();
        let slot = Arc::new(Mutex::new(Some(ts.clone())));
        let s2 = slot.clone();
        ts.after(0, SimDuration::ZERO, move || {
            let own = s2.lock().take().expect("the callback's handle");
            own.after(0, SimDuration::from_secs(3600), || {});
            drop(own);
            d2.store(true, Ordering::Release);
        });
        let clock = wall_clock(&ts);
        let now = ts.now() + SimDuration::from_secs(1);
        let next = clock.fire_due(now);
        assert!(done.load(Ordering::Acquire));
        assert!(slot.lock().is_none());
        assert_eq!(
            Arc::strong_count(clock),
            1,
            "the caller's is the last handle"
        );
        assert!(
            next.is_some_and(|at| at > now),
            "the callback armed a later deadline"
        );
        drop(ts);
    }
}
