//! [`TimeSource`]: the one clock-and-timer a world runs on.
//!
//! A world is either simulated or real, and that one fact decides both what
//! "now" is and how a delayed callback (the timer aggregator's δ flush, the
//! modelled receive-path cost) gets run:
//!
//! - [`TimeSource::Sim`] is the [`Scheduler`]: virtual time, callbacks are
//!   events on their node's shard.
//! - [`TimeSource::Wall`] is one `WallClock` per world: nanoseconds since
//!   the world was built, and a `(deadline, seq)` min-queue served by **one**
//!   thread. The thread starts when the first deadline is armed (a world that
//!   never arms one never starts it), parks until the nearest deadline, is
//!   unparked by an earlier one, holds only a `Weak` to its clock, and is
//!   joined when the last handle to the clock drops — pending callbacks are
//!   dropped unrun.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};

/// Where a world's time comes from (see the module docs).
#[derive(Clone)]
pub enum TimeSource {
    /// Virtual time: the scheduler driving a simulated world.
    Sim(Scheduler),
    /// Wall-clock time, with the world's one deadline thread.
    Wall(Arc<WallClock>),
}

impl TimeSource {
    /// A wall-clock time source whose zero is "now".
    pub fn wall() -> Self {
        TimeSource::Wall(Arc::new(WallClock {
            origin: Instant::now(),
            timer: Mutex::default(),
            threads_started: AtomicUsize::new(0),
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
    /// the event slab when small), a deadline on the world's timer thread on
    /// the wall clock (which has no nodes).
    pub fn after(&self, node: u32, delay: SimDuration, f: impl FnOnce() + Send + 'static) {
        match self {
            TimeSource::Sim(sched) => sched.at_node(node, sched.now() + delay, f),
            TimeSource::Wall(clock) => WallClock::arm(clock, clock.now() + delay, Box::new(f)),
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

/// The deadline queue — callbacks by `(deadline, arming order)` — and the
/// thread that serves it.
#[derive(Default)]
struct TimerState {
    queue: BTreeMap<(SimTime, u64), Box<dyn FnOnce() + Send>>,
    next_seq: u64,
    thread: Option<JoinHandle<()>>,
}

/// Wall-clock time relative to construction, plus the world's deadline
/// queue and the one thread that serves it. Built by [`TimeSource::wall`].
pub struct WallClock {
    origin: Instant,
    timer: Mutex<TimerState>,
    /// Timer threads ever started for this clock (0 or 1).
    pub(crate) threads_started: AtomicUsize,
}

impl WallClock {
    fn now(&self) -> SimTime {
        SimTime(self.origin.elapsed().as_nanos() as u64)
    }

    /// Queue `f` for `at`; start the thread on first use and wake it when
    /// `at` is earlier than what it is sleeping towards.
    fn arm(this: &Arc<Self>, at: SimTime, f: Box<dyn FnOnce() + Send>) {
        let mut t = this.timer.lock();
        let key = (at, t.next_seq);
        t.next_seq += 1;
        t.queue.insert(key, f);
        let nearest = t.queue.keys().next() == Some(&key);
        match &t.thread {
            Some(handle) if nearest => handle.thread().unpark(),
            Some(_) => {}
            None => {
                this.threads_started.fetch_add(1, Ordering::Relaxed);
                let weak = Arc::downgrade(this);
                t.thread = Some(thread::spawn(move || Self::serve(weak)));
            }
        }
    }

    /// Run, in `(deadline, seq)` order, every callback due at `now`, each
    /// outside the queue lock. Returns the nearest deadline still pending.
    /// Takes `now` as an argument so tests expire deadlines without sleeping.
    pub fn fire_due(&self, now: SimTime) -> Option<SimTime> {
        loop {
            let due = {
                let mut t = self.timer.lock();
                match t.queue.keys().next() {
                    Some(&(at, _)) if at <= now => t.queue.pop_first(),
                    next => return next.map(|&(at, _)| at),
                }
            };
            if let Some((_, f)) = due {
                f();
            }
        }
    }

    /// The timer thread: holds the clock only while firing, so the last
    /// world handle dropping is what ends it.
    fn serve(clock: Weak<WallClock>) {
        while let Some(c) = clock.upgrade() {
            let sleep = c
                .fire_due(c.now())
                .map(|at| Duration::from_nanos(at.saturating_since(c.now()).as_nanos()));
            drop(c);
            match sleep {
                Some(d) => thread::park_timeout(d),
                None => thread::park(),
            }
        }
    }
}

impl Drop for WallClock {
    fn drop(&mut self) {
        let Some(handle) = self.timer.get_mut().thread.take() else {
            return;
        };
        // A callback can hold the last reference to a world, in which case
        // this runs on the timer thread itself: it finds the clock gone on
        // its next turn and exits unjoined.
        if handle.thread().id() != thread::current().id() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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
        assert_eq!(wall_clock(&ts).threads_started.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn wall_deadline_fires() {
        let ts = TimeSource::wall();
        let fired = Arc::new(AtomicBool::new(false));
        let f2 = fired.clone();
        ts.after(0, SimDuration::from_micros(100), move || {
            f2.store(true, Ordering::Release)
        });
        // Wait generously.
        for _ in 0..1_000 {
            if fired.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timer did not fire within 1s");
    }

    #[test]
    fn thousand_deadlines_start_one_thread() {
        let ts = TimeSource::wall();
        let fired = Arc::new(AtomicUsize::new(0));
        for i in 0..1_000u64 {
            let f = fired.clone();
            // Later deadlines first, so most arms are "earlier than the
            // nearest" and take the unpark path.
            ts.after(0, SimDuration::from_micros(2_000 - i), move || {
                f.fetch_add(1, Ordering::AcqRel);
            });
        }
        let give_up = Instant::now() + Duration::from_secs(10);
        while fired.load(Ordering::Acquire) < 1_000 {
            assert!(Instant::now() < give_up, "deadlines did not all fire");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(wall_clock(&ts).threads_started.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fire_due_runs_in_deadline_then_seq_order() {
        let ts = TimeSource::wall();
        let clock = wall_clock(&ts);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Far-future deadlines the timer thread will not reach; `now` is
        // injected instead.
        let base = SimTime(3_600_000_000_000);
        for (tag, offset) in [(0u32, 30u64), (1, 10), (2, 30), (3, 20), (4, 10)] {
            let log = log.clone();
            WallClock::arm(
                clock,
                SimTime(base.0 + offset),
                Box::new(move || log.lock().push(tag)),
            );
        }
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
        assert_eq!(clock.fire_due(SimTime(u64::MAX)), None);
        assert_eq!(*log.lock(), [1, 4, 3, 0, 2]);
        assert_eq!(clock.fire_due(SimTime(u64::MAX)), None, "fired once only");
        assert_eq!(clock.threads_started.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dropping_the_clock_joins_its_thread_and_drops_pending_callbacks() {
        let ts = TimeSource::wall();
        let held = Arc::new(());
        let h2 = held.clone();
        ts.after(0, SimDuration::from_secs(10), move || drop(h2));
        let clock = wall_clock(&ts).clone();
        drop(ts);
        let t0 = Instant::now();
        // The last handle (once the thread is not mid-turn with its own):
        // with it gone the thread's `upgrade` fails.
        let mut shared = clock;
        let mut clock = loop {
            match Arc::try_unwrap(shared) {
                Ok(clock) => break clock,
                Err(still) => shared = still,
            }
            std::thread::yield_now();
        };
        let handle = clock.timer.get_mut().thread.take().expect("thread started");
        handle.thread().unpark();
        handle.join().expect("timer thread exits cleanly");
        drop(clock);
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "10 s sleeper outlived its world"
        );
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
        let t0 = Instant::now();
        drop(ts);
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn callback_may_drop_the_last_handle() {
        // The world is dropped from inside a deadline: `Drop` runs on the
        // timer thread and must not join itself.
        let ts = TimeSource::wall();
        let done = Arc::new(AtomicBool::new(false));
        let d2 = done.clone();
        let slot = Arc::new(Mutex::new(Some(ts.clone())));
        let s2 = slot.clone();
        ts.after(0, SimDuration::from_micros(50), move || {
            s2.lock().take();
            d2.store(true, Ordering::Release);
        });
        drop(ts);
        let give_up = Instant::now() + Duration::from_secs(5);
        while !done.load(Ordering::Acquire) {
            assert!(Instant::now() < give_up);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(slot.lock().is_none());
    }
}
