//! Exhaustive-interleaving model check of the SPSC ring's cursor protocol
//! and the close-drain shutdown handshake.
//!
//! No model-checking framework is vendored, so this is a hand-rolled
//! explicit-state checker: the producer and consumer are decomposed into
//! the same atomic load/store steps the real `SpscRing` performs on its
//! control words, and a memoized DFS enumerates *every* interleaving of
//! those steps under sequential consistency, asserting in each reachable
//! final state that
//!
//! - no published record is lost: when both sides finish, the consumer has
//!   drained exactly the `n` records the producer pushed before closing;
//! - the producer never overcommits: a push accepted against a stale
//!   `Head` still fits, because `Head` only advances (the stale check is
//!   conservative);
//! - the handshake terminates: every reachable state has a successor until
//!   both sides are done (no stuck states).
//!
//! The checker is validated against itself: the *pre-fix* consumer (which
//! returned `Closed` without re-reading `Tail` after observing the close
//! flag) is model-checked too, and the checker must find its lost-record
//! interleaving — the exact race the ring property tests caught on real
//! threads.
//!
//! Bounds: capacities 1–3 records × streams of 1–4 records by default.
//! Setting `RING_PROTOCOL_DEEP=1` widens the bounds (capacity ≤ 4, stream
//! ≤ 6) and raises the concrete-ring stress iterations; the state spaces
//! stay small (tens of thousands of states) because the protocol has so
//! little shared state — that is rather the point of the design.

use std::collections::HashSet;
use std::sync::Arc;

use partix_verbs::shm::{FileSegment, HeapSegment, Popped, SpscRing};

/// Producer program counter: push records 0..n (two steps each: load
/// `Head`, then publish by storing `Tail`), then store `Closed`, then done.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Prod {
    /// About to load `Head` for the space check of record `i`.
    LoadHead { i: u8 },
    /// Loaded `Head` as `h`; about to space-check and publish record `i`.
    Publish { i: u8, h: u8 },
    /// All records published; about to store the close flag.
    Close,
    /// Finished.
    Done,
}

/// Consumer program counter, mirroring `SpscRing::try_pop` step for step.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Cons {
    /// About to load `Tail`.
    LoadTail,
    /// Loaded `Tail` as `t`; about to compare against own `Head`.
    Compare { t: u8 },
    /// Saw `t == head`; about to load the close flag.
    LoadClosed,
    /// Saw the close flag set; about to re-read `Tail` (the post-fix
    /// drain step). The buggy variant skips this state entirely.
    Recheck,
    /// Finished (observed `Closed` with nothing left).
    Done,
}

/// One interleaved state of the whole system. `tail`/`head`/`closed` are
/// the shared control words; everything else is thread-local.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct World {
    tail: u8,
    head: u8,
    closed: bool,
    prod: Prod,
    cons: Cons,
    consumed: u8,
}

/// Model parameters: `n` records through a ring holding `cap` records,
/// with or without the close-drain `Recheck` step.
#[derive(Clone, Copy)]
struct Model {
    n: u8,
    cap: u8,
    recheck_on_close: bool,
}

impl Model {
    fn initial(&self) -> World {
        World {
            tail: 0,
            head: 0,
            closed: false,
            prod: Prod::LoadHead { i: 0 },
            cons: Cons::LoadTail,
            consumed: 0,
        }
    }

    /// Producer successor states (at most one: the producer is
    /// deterministic given the shared state it reads).
    fn step_prod(&self, w: World, out: &mut Vec<World>) {
        let mut v = w;
        match w.prod {
            Prod::LoadHead { i } => {
                v.prod = Prod::Publish { i, h: w.head };
                out.push(v);
            }
            Prod::Publish { i, h } => {
                if w.tail - h < self.cap {
                    // Space check passed against a possibly stale head.
                    // The real ring writes the record bytes here; under
                    // sequential consistency the byte copy collapses into
                    // the release store of `Tail`. The overcommit safety
                    // assertion: even with the stale `h`, the record fits
                    // against the *true* head, because head only grows.
                    assert!(
                        w.tail + 1 - w.head <= self.cap,
                        "overcommit: push accepted against stale head {h} \
                         but true occupancy is {}..{} in cap {}",
                        w.head,
                        w.tail + 1,
                        self.cap
                    );
                    v.tail = w.tail + 1;
                    v.prod = if i + 1 < self.n {
                        Prod::LoadHead { i: i + 1 }
                    } else {
                        Prod::Close
                    };
                } else {
                    // Full: spin back to re-read head.
                    v.prod = Prod::LoadHead { i };
                }
                out.push(v);
            }
            Prod::Close => {
                v.closed = true;
                v.prod = Prod::Done;
                out.push(v);
            }
            Prod::Done => {}
        }
    }

    /// Consumer successor states.
    fn step_cons(&self, w: World, out: &mut Vec<World>) {
        let mut v = w;
        match w.cons {
            Cons::LoadTail => {
                v.cons = Cons::Compare { t: w.tail };
                out.push(v);
            }
            Cons::Compare { t } => {
                if t == w.head {
                    v.cons = Cons::LoadClosed;
                } else {
                    // A record is published: consume it and loop.
                    v.head = w.head + 1;
                    v.consumed = w.consumed + 1;
                    v.cons = Cons::LoadTail;
                }
                out.push(v);
            }
            Cons::LoadClosed => {
                if w.closed {
                    v.cons = if self.recheck_on_close {
                        Cons::Recheck
                    } else {
                        Cons::Done
                    };
                } else {
                    v.cons = Cons::LoadTail; // empty, not closed: spin
                }
                out.push(v);
            }
            Cons::Recheck => {
                // The post-fix drain step: re-read Tail after seeing the
                // close flag; records published before the close win.
                if w.tail == w.head {
                    v.cons = Cons::Done;
                } else {
                    v.cons = Cons::LoadTail;
                }
                out.push(v);
            }
            Cons::Done => {}
        }
    }

    /// Explore every interleaving; returns the set of `consumed` counts
    /// observed in final (both-done) states.
    fn check(&self) -> HashSet<u8> {
        let mut seen: HashSet<World> = HashSet::new();
        let mut stack = vec![self.initial()];
        let mut finals = HashSet::new();
        let mut succ = Vec::with_capacity(2);
        while let Some(w) = stack.pop() {
            if !seen.insert(w) {
                continue;
            }
            succ.clear();
            self.step_prod(w, &mut succ);
            self.step_cons(w, &mut succ);
            if succ.is_empty() {
                // Terminal: both sides must be done (no stuck states), and
                // the handshake must not have lost records.
                assert_eq!(w.prod, Prod::Done, "producer stuck in {w:?}");
                assert_eq!(w.cons, Cons::Done, "consumer stuck in {w:?}");
                finals.insert(w.consumed);
            } else {
                stack.extend(succ.iter().copied());
            }
        }
        finals
    }
}

fn deep() -> bool {
    std::env::var("RING_PROTOCOL_DEEP").is_ok_and(|v| v == "1")
}

fn bounds() -> (u8, u8) {
    if deep() {
        (6, 4)
    } else {
        (4, 3)
    }
}

/// Every interleaving of the post-fix protocol delivers the whole stream:
/// the only reachable final consumed-count is `n`, for every bounded
/// (records, capacity) pair.
#[test]
fn close_drain_handshake_loses_nothing_in_any_interleaving() {
    let (max_n, max_cap) = bounds();
    for n in 1..=max_n {
        for cap in 1..=max_cap {
            let finals = Model {
                n,
                cap,
                recheck_on_close: true,
            }
            .check();
            assert_eq!(
                finals,
                HashSet::from([n]),
                "n={n} cap={cap}: some interleaving finished with a \
                 consumed-count other than {n}"
            );
        }
    }
}

/// Checker self-test: the pre-fix consumer (no `Tail` re-read after
/// observing `Closed`) must be caught losing records — there is an
/// interleaving where the producer publishes its suffix and closes
/// between the consumer's `Tail` load and its close-flag load.
#[test]
fn checker_finds_the_prefix_close_race() {
    let finals = Model {
        n: 1,
        cap: 1,
        recheck_on_close: false,
    }
    .check();
    assert!(
        finals.contains(&0),
        "the lost-record interleaving of the buggy protocol was not found \
         (checker too weak): finals={finals:?}"
    );
    assert!(
        finals.contains(&1),
        "the clean interleaving must also be reachable: finals={finals:?}"
    );
}

/// The overcommit-safety assertion inside the model doubles as a proof
/// obligation over all interleavings; this test just makes its coverage
/// explicit for the widest bounded ring.
#[test]
fn stale_head_space_check_never_overcommits() {
    let (max_n, max_cap) = bounds();
    // The assert! inside `step_prod` fires on any violating interleaving.
    let _ = Model {
        n: max_n,
        cap: max_cap,
        recheck_on_close: true,
    }
    .check();
}

/// Concrete counterpart on the real ring: hammer the close-drain
/// handshake with real threads and varying producer/consumer timing, over
/// a heap segment and over two mappings of one segment file (the model
/// above is about control-word steps, which both backings execute as the
/// same `AtomicU64` operations; this is where the mapped words themselves
/// are exercised). Default 200 rounds each; `RING_PROTOCOL_DEEP=1` runs 5000.
#[test]
fn concrete_close_drain_stress() {
    let rounds = if deep() { 5000 } else { 200 };
    let path =
        std::env::temp_dir().join(format!("partix_ring_protocol_{}.ring", std::process::id()));
    for round in 0..rounds {
        let heap = Arc::new(HeapSegment::new(96)); // a few records deep
        close_drain_round(SpscRing::new(heap.clone()), SpscRing::new(heap), round);
        let created = FileSegment::create(&path, 96).expect("create segment file");
        let opened = FileSegment::open(&path)
            .expect("open segment file")
            .expect("a created segment is complete");
        close_drain_round(
            SpscRing::new(Arc::new(created)),
            SpscRing::new(Arc::new(opened)),
            round,
        );
    }
    std::fs::remove_file(&path).expect("remove segment file");
}

/// One producer thread pushes `1 + round % 7` records and closes; this
/// thread drains until `Closed` and must have seen them all, in order.
fn close_drain_round(tx: SpscRing, rx: SpscRing, round: u32) {
    let n = 1 + round % 7;
    let producer = std::thread::spawn(move || {
        for i in 0..n {
            let bytes = i.to_le_bytes();
            while !tx.try_push((i % 251) as u8, &bytes) {
                std::hint::spin_loop();
            }
            if i % 3 == round % 3 {
                std::thread::yield_now(); // vary publish/close timing
            }
        }
        tx.close();
    });
    let mut buf = Vec::new();
    let mut got = 0u32;
    loop {
        match rx.try_pop(&mut buf) {
            Popped::Record(kind) => {
                assert_eq!(kind, (got % 251) as u8, "round {round}");
                assert_eq!(buf, got.to_le_bytes(), "round {round}");
                got += 1;
            }
            Popped::Empty => std::hint::spin_loop(),
            Popped::Closed => break,
        }
    }
    assert_eq!(got, n, "round {round}: close-drain lost records");
    producer.join().expect("producer");
}
