//! Property-based tests of the simulation substrate's core guarantees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use partix_sim::{Scheduler, SerialResource, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events execute in non-decreasing time order regardless of the order
    /// they were scheduled in, and the clock never runs backwards.
    #[test]
    fn scheduler_executes_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for &t in &times {
            let log = log.clone();
            let s2 = sim.clone();
            sim.at(SimTime(t), move || log.lock().push(s2.now().as_nanos()));
        }
        let executed = sim.run();
        prop_assert_eq!(executed as usize, times.len());
        let seen = log.lock().clone();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(seen, sorted);
    }

    /// Chained events (each scheduling the next) preserve causality: a
    /// child never executes before its parent.
    #[test]
    fn scheduler_children_after_parents(delays in prop::collection::vec(0u64..1_000, 1..50)) {
        let sim = Scheduler::new();
        let violations = Arc::new(AtomicU64::new(0));
        fn chain(
            sim: Scheduler,
            delays: Arc<Vec<u64>>,
            idx: usize,
            violations: Arc<AtomicU64>,
        ) {
            if idx >= delays.len() {
                return;
            }
            let scheduled_at = sim.now();
            let s2 = sim.clone();
            sim.after(SimDuration(delays[idx]), move || {
                if s2.now() < scheduled_at {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                chain(s2.clone(), delays, idx + 1, violations);
            });
        }
        chain(sim.clone(), Arc::new(delays.clone()), 0, violations.clone());
        sim.run();
        prop_assert_eq!(violations.load(Ordering::Relaxed), 0);
        prop_assert_eq!(sim.now().as_nanos(), delays.iter().sum::<u64>());
    }

    /// The slab-backed queue pops in exact `(time, seq)` order under
    /// arbitrary interleavings of scheduling and draining — each drain
    /// recycles slab slots and moves the clock, so this also checks that
    /// slot reuse never reorders or loses an event and that later events
    /// are clamped to the new "now". Each scheduled closure logs its own
    /// sequence number; a reference heap of `(clamped_time, seq)` pairs
    /// predicts the exact ordering.
    #[test]
    fn slab_heap_pops_in_time_seq_order(
        ops in prop::collection::vec(prop::option::of(0u64..1_000), 1..300)
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut expected = Vec::new();
        let mut next_seq = 0u64;
        // A trailing `None` drains whatever the last op left pending.
        for op in ops.into_iter().chain([None]) {
            match op {
                Some(t) => {
                    // Mirror the scheduler's clamp-to-now rule for events
                    // scheduled in the past.
                    let clamped = t.max(sim.now().as_nanos());
                    model.push(Reverse((clamped, next_seq)));
                    let log = log.clone();
                    let seq = next_seq;
                    sim.at(SimTime(t), move || log.lock().push(seq));
                    next_seq += 1;
                }
                None => {
                    let mut model_now = sim.now().as_nanos();
                    let pending = model.len();
                    while let Some(Reverse((t, seq))) = model.pop() {
                        model_now = t;
                        expected.push(seq);
                    }
                    prop_assert_eq!(sim.run() as usize, pending);
                    prop_assert_eq!(sim.now().as_nanos(), model_now);
                }
            }
        }
        prop_assert_eq!(log.lock().clone(), expected);
        prop_assert_eq!(sim.events_pending(), 0);
    }

    /// "Sequential is the one-shard case", as a test: a random program of
    /// `at` / `at_node` / `after` calls — some from outside the run, some
    /// from inside events, some at the current instant or in the past —
    /// yields the same execution log on `Scheduler::new()`, on a one-shard
    /// sharded scheduler's reference executor, and in a model that orders
    /// events by `(clamped time, scheduling order)`.
    ///
    /// Op `i` is `(parent, call, node, t)`: issued by op `parent % i` when
    /// that executes (from outside the run when `parent` is `None` or `i`
    /// is 0), through `at(t)`, `at_node(node, now + t)` or `after(t)`.
    #[test]
    fn one_shard_engine_matches_the_time_order_model(
        ops in prop::collection::vec(
            (prop::option::of(0usize..64), 0u8..3, 0u32..5, 0u64..40),
            1..80,
        )
    ) {
        type Op = (Option<usize>, u8, u32, u64);
        type Log = Arc<Mutex<Vec<(usize, u64)>>>;

        /// The ops `issuer` issues (`None`: outside the run), in index order.
        fn issued_by(ops: &[Op], issuer: Option<usize>) -> impl Iterator<Item = usize> + '_ {
            (0..ops.len()).filter(move |&i| ops[i].0.filter(|_| i > 0).map(|p| p % i) == issuer)
        }

        fn issue(sim: &Scheduler, ops: &Arc<Vec<Op>>, log: &Log, i: usize) {
            let (_, call, node, t) = ops[i];
            let (s2, ops2, log2) = (sim.clone(), ops.clone(), log.clone());
            let body = move || {
                log2.lock().push((i, s2.now().as_nanos()));
                for child in issued_by(&ops2, Some(i)) {
                    issue(&s2, &ops2, &log2, child);
                }
            };
            match call {
                0 => sim.at(SimTime(t), body),
                1 => sim.at_node(node, sim.now() + SimDuration(t), body),
                _ => sim.after(SimDuration(t), body),
            }
        }

        let ops = Arc::new(ops);
        let run_on = |sim: Scheduler| {
            let log = Log::default();
            for i in issued_by(&ops, None) {
                issue(&sim, &ops, &log, i);
            }
            assert_eq!(sim.run() as usize, ops.len());
            let out = log.lock().clone();
            out
        };

        // Model: a queue keyed by (clamped time, scheduling order).
        let mut queue = std::collections::BTreeMap::new();
        let mut expected = Vec::new();
        let (mut issuer, mut now, mut order) = (None, 0u64, 0u64);
        loop {
            for i in issued_by(&ops, issuer) {
                let (_, call, _, t) = ops[i];
                queue.insert((if call == 0 { t.max(now) } else { now + t }, order), i);
                order += 1;
            }
            let Some(((at, _), i)) = queue.pop_first() else { break };
            expected.push((i, at));
            (issuer, now) = (Some(i), at);
        }

        prop_assert_eq!(&run_on(Scheduler::new()), &expected);
        prop_assert_eq!(
            &run_on(Scheduler::sharded_reference(1, SimDuration::from_nanos(1))),
            &expected
        );
    }

    /// Serial resources never overlap reservations and never shrink
    /// durations: granted intervals are disjoint, FIFO, and each has the
    /// requested length.
    #[test]
    fn serial_resource_grants_disjoint_fifo_intervals(
        requests in prop::collection::vec((0u64..10_000, 1u64..500), 1..100)
    ) {
        let r = SerialResource::new();
        let mut prev_end = 0u64;
        let mut arrival = 0u64;
        for &(gap, dur) in &requests {
            arrival += gap;
            let (start, end) = r.reserve(SimTime(arrival), SimDuration(dur));
            prop_assert!(start.as_nanos() >= arrival, "started before arrival");
            prop_assert!(start.as_nanos() >= prev_end, "overlapped previous grant");
            prop_assert_eq!(end.as_nanos() - start.as_nanos(), dur);
            prev_end = end.as_nanos();
        }
        prop_assert_eq!(r.free_at().as_nanos(), prev_end);
    }
}
