//! Exhaustive-interleaving model check of the SPSC ring's cursor protocol,
//! its remembered cursors, and the close-drain shutdown handshake.
//!
//! No model-checking framework is vendored, so this is a hand-rolled
//! explicit-state checker: the producer and consumer are decomposed into
//! the same atomic load/store steps the real `SpscRing` performs on its
//! control words — one shared access per step, with each side's remembered
//! copy of the other's cursor (`seen_head`, `seen_tail`) as thread-local
//! state — and a memoized DFS enumerates *every* interleaving of those steps
//! under sequential consistency, asserting that
//!
//! - no published record is lost: when both sides finish, the consumer has
//!   drained exactly the `n` records the producer pushed before closing;
//! - the producer never overcommits: a push accepted against a stale
//!   `Head` still fits, because `Head` only advances (the stale check is
//!   conservative);
//! - a remembered cursor only ever errs on the safe side: in every reachable
//!   state `seen_head <= Head` and `seen_tail <= Tail`, so the producer can
//!   only under-report free space and the consumer only under-report
//!   published bytes, and a record consumed on the strength of `seen_tail`
//!   is really there;
//! - the handshake terminates: every reachable state has a successor until
//!   both sides are done (no stuck states).
//!
//! The checker is validated against itself, twice: the *pre-fix* consumer
//! (which returned `Closed` without re-reading `Tail` after observing the
//! close flag) is model-checked too, and the checker must find its
//! lost-record interleaving — the exact race the ring property tests caught
//! on real threads; and so is a consumer whose close-drain "re-read" looks at
//! its remembered `Tail` instead of the word, which loses the same records.
//!
//! A second model checks the reclaim rule of a ring whose records carry
//! their outcome back (`ShmFabric`'s data ring): a poster pushes, the
//! consumer writes each record's status into its slot and then releases it
//! (`Head`), and the sender's completer reads `Head`, then the status of
//! every record below it, and only then moves the poster's bound
//! (`reclaimed`). Every status must be read as the consumer wrote it, and
//! no state may be stuck. The checker must catch the mutant that bounds the
//! push by `Head` instead: it reuses a released slot before its status is
//! read.
//!
//! Bounds: capacities 1–3 records × streams of 1–4 records by default.
//! Setting `RING_PROTOCOL_DEEP=1` widens the bounds (capacity ≤ 4, stream
//! ≤ 6) and raises the concrete-ring stress iterations; the state spaces
//! stay small (tens of thousands of states) because the protocol has so
//! little shared state — that is rather the point of the design.

use std::collections::HashSet;
use std::sync::Arc;

use partix_verbs::shm::{FileSegment, HeapSegment, Popped, SpscRing};

/// Producer program counter, mirroring `SpscRing::try_push_with`: push
/// records 0..n, then store `Closed`, then done.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Prod {
    /// About to push record `i`: publish it (store `Tail`) if the remembered
    /// `Head` shows room, else load `Head` into the remembered copy and try
    /// again.
    Push { i: u8 },
    /// All records published; about to store the close flag.
    Close,
    /// Finished.
    Done,
}

/// Consumer program counter, mirroring `SpscRing::try_pop_with` step for
/// step.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Cons {
    /// About to pop: consume a record (store `Head`) if the remembered
    /// `Tail` shows one, else load `Tail`.
    Pop,
    /// Loaded `Tail` as `t` because the remembered copy said empty; about to
    /// compare it against own `Head`.
    Compare { t: u8 },
    /// Saw `t == head`; about to load the close flag.
    LoadClosed,
    /// Saw the close flag set; about to re-read `Tail` (the post-fix drain
    /// step). The pre-fix variant skips this state entirely.
    Recheck,
    /// Finished (observed `Closed` with nothing left).
    Done,
}

/// What the consumer does between seeing the close flag and reporting
/// `Closed`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CloseDrain {
    /// Re-read the `Tail` word itself: the protocol.
    RereadWord,
    /// "Re-read" the remembered `Tail`: a cache that the drain fails to
    /// bypass.
    RereadRemembered,
    /// Nothing: the pre-fix consumer.
    Skip,
}

/// One interleaved state of the whole system. `tail`/`head`/`closed` are
/// the shared control words; everything else is thread-local.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct World {
    tail: u8,
    head: u8,
    closed: bool,
    prod: Prod,
    /// `Head` as the producer last read it.
    seen_head: u8,
    cons: Cons,
    /// `Tail` as the consumer last read it.
    seen_tail: u8,
    consumed: u8,
}

/// Model parameters: `n` records through a ring holding `cap` records, and
/// the consumer's close-drain step.
#[derive(Clone, Copy)]
struct Model {
    n: u8,
    cap: u8,
    close_drain: CloseDrain,
}

impl Model {
    fn initial(&self) -> World {
        World {
            tail: 0,
            head: 0,
            closed: false,
            prod: Prod::Push { i: 0 },
            seen_head: 0,
            cons: Cons::Pop,
            seen_tail: 0,
            consumed: 0,
        }
    }

    /// Producer successor states (at most one: the producer is
    /// deterministic given the shared state it reads).
    fn step_prod(&self, w: World, out: &mut Vec<World>) {
        let mut v = w;
        match w.prod {
            Prod::Push { i } => {
                if w.tail - w.seen_head < self.cap {
                    // Space check passed against a possibly stale head.
                    // The real ring writes the record bytes here; under
                    // sequential consistency the byte copy collapses into
                    // the release store of `Tail`. The overcommit safety
                    // assertion: even with the stale copy, the record fits
                    // against the *true* head, because head only grows.
                    assert!(
                        w.tail + 1 - w.head <= self.cap,
                        "overcommit: push accepted against remembered head {} \
                         but true occupancy is {}..{} in cap {}",
                        w.seen_head,
                        w.head,
                        w.tail + 1,
                        self.cap
                    );
                    v.tail = w.tail + 1;
                    v.prod = if i + 1 < self.n {
                        Prod::Push { i: i + 1 }
                    } else {
                        Prod::Close
                    };
                } else {
                    // Full as far as the remembered head says: re-read it.
                    // Still full afterwards means the push fails and the
                    // caller comes back, to this same step.
                    v.seen_head = w.head;
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
            Cons::Pop => {
                if w.seen_tail > w.head {
                    // A record is published as far as the remembered tail
                    // says — and so it is, because tail only grows: consume
                    // it and loop.
                    assert!(
                        w.head < w.tail,
                        "consumed record {} on the strength of remembered tail {} \
                         but only {} are published",
                        w.head,
                        w.seen_tail,
                        w.tail
                    );
                    v.head = w.head + 1;
                    v.consumed = w.consumed + 1;
                } else {
                    v.cons = Cons::Compare { t: w.tail };
                }
                out.push(v);
            }
            Cons::Compare { t } => {
                if t == w.head {
                    v.cons = Cons::LoadClosed;
                } else {
                    v.seen_tail = t;
                    v.cons = Cons::Pop;
                }
                out.push(v);
            }
            Cons::LoadClosed => {
                v.cons = match (w.closed, self.close_drain) {
                    (false, _) => Cons::Pop, // empty, not closed: spin
                    (true, CloseDrain::Skip) => Cons::Done,
                    (true, _) => Cons::Recheck,
                };
                out.push(v);
            }
            Cons::Recheck => {
                // The post-fix drain step: re-read Tail after seeing the
                // close flag; records published before the close win.
                let t = match self.close_drain {
                    CloseDrain::RereadRemembered => w.seen_tail.max(w.head),
                    _ => w.tail,
                };
                if t == w.head {
                    v.cons = Cons::Done;
                } else {
                    v.seen_tail = t;
                    v.cons = Cons::Pop;
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
            // A remembered cursor is never ahead of the word it remembers.
            assert!(
                w.seen_head <= w.head && w.seen_tail <= w.tail,
                "remembered cursor ahead of its word in {w:?}"
            );
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
                close_drain: CloseDrain::RereadWord,
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
    assert_loses_a_record(CloseDrain::Skip);
}

/// The same race, reopened by a remembered cursor: a close-drain step that
/// consults the consumer's remembered `Tail` re-reads nothing (the copy said
/// empty a moment ago, which is why the close flag was looked at), so it
/// must be caught losing the same records. The re-read has to bypass the
/// copy.
#[test]
fn checker_finds_a_close_drain_that_trusts_the_remembered_tail() {
    assert_loses_a_record(CloseDrain::RereadRemembered);
}

fn assert_loses_a_record(close_drain: CloseDrain) {
    let finals = Model {
        n: 1,
        cap: 1,
        close_drain,
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

/// The safety assertions inside the model — no overcommit against a
/// remembered `Head`, no record consumed that a remembered `Tail` promised
/// and the word does not hold, no remembered cursor ahead of its word —
/// double as proof obligations over all interleavings; this test just makes
/// their coverage explicit for the widest bounded ring.
#[test]
fn stale_head_space_check_never_overcommits() {
    let (max_n, max_cap) = bounds();
    // The assert!s inside `step_prod`, `step_cons` and `check` fire on any
    // violating interleaving.
    let _ = Model {
        n: max_n,
        cap: max_cap,
        close_drain: CloseDrain::RereadWord,
    }
    .check();
}

/// The status the consumer releases record `k` with: never 0, which is
/// what a freshly pushed record holds, and different for neighbours.
fn status_of(k: u8) -> u8 {
    1 + k % 2
}

/// The most records a reclaim model's ring holds.
const MAX_CAP: usize = 4;

/// What a ring slot holds: the record last pushed there (the model's own
/// bookkeeping; the real completer knows only positions), and its status
/// byte.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Slot {
    rec: u8,
    status: u8,
}

/// The completer's program counter, mirroring `ShmFabric::complete_sends`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Completer {
    /// About to load `Head`.
    LoadHead,
    /// Loaded `Head` as `h`; about to read the status of record `k`.
    Read { h: u8, k: u8 },
    /// Has read every status below `h`; about to store `reclaimed = h`.
    Reclaim { h: u8 },
}

/// One interleaved state of poster, consumer and completer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct ReclaimWorld {
    tail: u8,
    head: u8,
    reclaimed: u8,
    slots: [Slot; MAX_CAP],
    /// The consumer has written the status of record `head` and is about
    /// to release it.
    marked: bool,
    completer: Completer,
}

/// The reclaim model: `n` records through a ring of `cap` records, the
/// poster bounded by `reclaimed` or (the mutant) by `Head`.
#[derive(Clone, Copy)]
struct ReclaimModel {
    n: u8,
    cap: u8,
    bound_by_head: bool,
}

impl ReclaimModel {
    /// Every successor of `w`; `Err` names a status read wrong.
    fn successors(&self, w: ReclaimWorld, out: &mut Vec<ReclaimWorld>) -> Result<(), String> {
        let slot = |k: u8| (k % self.cap) as usize;
        // Poster: one step publishes the record (bytes, then `Tail`), as
        // `enqueue_data` does once the bound it read shows room. The bound
        // only grows, so reading it in the same step loses nothing.
        let bound = if self.bound_by_head {
            w.head
        } else {
            w.reclaimed
        };
        if w.tail < self.n && w.tail - bound < self.cap {
            let mut v = w;
            v.slots[slot(w.tail)] = Slot {
                rec: w.tail,
                status: 0,
            };
            v.tail += 1;
            out.push(v);
        }
        // Consumer: write the head record's status into its slot, then
        // release it.
        if w.marked {
            let mut v = w;
            v.head += 1;
            v.marked = false;
            out.push(v);
        } else if w.head < w.tail {
            assert_eq!(w.slots[slot(w.head)].rec, w.head, "FIFO in {w:?}");
            let mut v = w;
            v.slots[slot(w.head)].status = status_of(w.head);
            v.marked = true;
            out.push(v);
        }
        // Completer: load `Head`, read each status below it, reclaim.
        let mut v = w;
        match w.completer {
            Completer::LoadHead if w.head > w.reclaimed => {
                v.completer = Completer::Read {
                    h: w.head,
                    k: w.reclaimed,
                };
                out.push(v);
            }
            Completer::LoadHead => {}
            Completer::Read { h, k } => {
                let got = w.slots[slot(k)];
                if got.rec != k || got.status != status_of(k) {
                    return Err(format!(
                        "record {k}'s status was overwritten before it was read: \
                         its slot holds {got:?} in {w:?}"
                    ));
                }
                v.completer = if k + 1 == h {
                    Completer::Reclaim { h }
                } else {
                    Completer::Read { h, k: k + 1 }
                };
                out.push(v);
            }
            Completer::Reclaim { h } => {
                v.reclaimed = h;
                v.completer = Completer::LoadHead;
                out.push(v);
            }
        }
        Ok(())
    }

    /// Explore every interleaving: `Err` on a status read wrong; a stuck
    /// state panics.
    fn check(&self) -> Result<(), String> {
        assert!(usize::from(self.cap) <= MAX_CAP);
        let initial = ReclaimWorld {
            tail: 0,
            head: 0,
            reclaimed: 0,
            slots: [Slot { rec: 0, status: 0 }; MAX_CAP],
            marked: false,
            completer: Completer::LoadHead,
        };
        let mut seen = HashSet::new();
        let mut stack = vec![initial];
        let mut succ = Vec::with_capacity(3);
        while let Some(w) = stack.pop() {
            if !seen.insert(w) {
                continue;
            }
            succ.clear();
            self.successors(w, &mut succ)?;
            if succ.is_empty() {
                let done = (w.tail, w.head, w.reclaimed) == (self.n, self.n, self.n);
                assert!(done, "stuck in {w:?}");
            }
            stack.extend(succ.iter().copied());
        }
        Ok(())
    }
}

/// The reclaim rule reads every status as the consumer wrote it, in every
/// interleaving, and always finishes.
#[test]
fn reclaim_rule_reads_every_status_before_its_slot_is_reused() {
    let (max_n, max_cap) = bounds();
    for n in 1..=max_n {
        for cap in 1..=max_cap {
            let model = ReclaimModel {
                n,
                cap,
                bound_by_head: false,
            };
            if let Err(e) = model.check() {
                panic!("n={n} cap={cap}: {e}");
            }
        }
    }
}

/// Checker self-test: a poster bounded by `Head`, which the ring's own
/// space check is, reuses a released slot before the completer has read its
/// status, whenever the stream is longer than the ring — and is caught at
/// default bounds.
#[test]
fn checker_finds_a_push_bounded_by_head_instead_of_reclaimed() {
    let (max_n, max_cap) = bounds();
    for n in 1..=max_n {
        for cap in 1..=max_cap {
            let model = ReclaimModel {
                n,
                cap,
                bound_by_head: true,
            };
            let caught = model.check().is_err();
            assert_eq!(caught, n > cap, "n={n} cap={cap}");
        }
    }
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
