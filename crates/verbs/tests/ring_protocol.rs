//! Exhaustive-interleaving model check of the SPSC ring's cursor protocol,
//! its remembered cursors, and the close-drain shutdown handshake; and of
//! the shared-memory fabric's receive-credit protocol.
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
//! A second model checks `ShmFabric`'s receive-credit protocol: a sender
//! that places each WR and rings its doorbell, spending one credit per
//! write-with-imm from the credit word its receiver publishes, holding a
//! write with no credit until the receiver has notified the ring ahead and
//! come back to find it empty, and only then starting the RNR rule; a
//! receiver that posts receives, notifies doorbells and looks at an empty
//! ring; and optionally a forger that raises the credit word past what
//! was posted. Every write-with-imm must consume exactly one posted
//! receive, receiver-not-ready must be decided only when the receiver has
//! notified everything ahead and has no receive left, a forged word must
//! complete nothing beyond what was posted, and no state may be stuck. The
//! checker must catch a sender that spends a credit twice, and one that
//! starts its RNR wait before the ring ahead has drained.
//!
//! Bounds: capacities 1–3 records × streams of 1–4 records by default; the
//! credit model runs each stream all writes-with-imm and with its second WR
//! a bare write, against 0 to as many receives as WRs and an `rnr_retry` of
//! 0 and 1. Setting `RING_PROTOCOL_DEEP=1` widens the bounds (capacity ≤ 4,
//! stream ≤ 6) and raises the concrete-ring stress iterations; the state spaces
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

/// The sender's program counter in the credit model, mirroring
/// `ShmFabric::try_send` and its RNR rule for the first WR not sent yet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Sender {
    /// About to try WR `next`: a bare write is placed at once; a
    /// write-with-imm reads the credit word if the credits this side knows
    /// of are spent, and is placed if one is left.
    Try,
    /// A write-with-imm with no credit: about to load `Polled` and see
    /// whether the receiver has notified every doorbell ahead of it and
    /// come back to an empty ring since.
    Drained,
    /// The ring was drained: about to read the credit word again, and make
    /// a receiver-not-ready attempt if it still shows no credit.
    Recheck,
    /// The RNR timer is armed, with `left` re-arms left; it expires at some
    /// point, and the WR is tried again.
    Armed { left: u8 },
    /// Every WR is placed or failed.
    Done,
}

/// The most doorbells a credit model's ring holds.
const MAX_BELLS: usize = 4;

/// One interleaved state of the credit protocol: a sender of `n` WRs, the
/// doorbell ring, and a receiver that posts up to `receives` receive WRs
/// and notifies doorbells, in any order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct CreditWorld {
    sender: Sender,
    /// The first WR not placed or failed.
    next: u8,
    /// Credits spent, and the credit word as the sender last read it.
    spent: u8,
    limit: u8,
    /// WRs that fail at their first receiver-not-ready attempt.
    flush: u8,
    /// Doorbells published (`Tail`) and notified (`Head`); slot `k %
    /// cap` holds the WR index of doorbell `k`.
    tail: u8,
    head: u8,
    ring: [u8; MAX_BELLS],
    /// `Head` as of the receiver's last look at an empty ring.
    polled: u8,
    /// The credit word: the receiving QP's posted count, as published.
    credit: u8,
    /// Receive WRs posted, and consumed by notify.
    posted: u8,
    consumed: u8,
    /// Receive completions pushed, and doorbells of a write-with-imm that
    /// found no receive WR (refused and counted).
    cqes: u8,
    refused: u8,
    /// WRs that failed `RnrRetryExceeded`.
    failed: u8,
    /// Whether the forger has written the credit word.
    forged: bool,
}

/// A sender that breaks the protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CreditMutant {
    /// The protocol.
    None,
    /// Takes a credit when the word shows exactly what it has spent: the
    /// last credit is spent twice.
    SpendsTwice,
    /// Starts the RNR rule without waiting for the ring ahead to drain.
    RnrBeforeDrain,
}

/// The credit model: `n` WRs (WR `i` a write-with-imm unless bit `i` of
/// `bare` is set) through a ring of `cap` doorbells, `receives` receive WRs,
/// an `rnr_retry` budget, and optionally a forger that raises the credit
/// word once past what was posted.
#[derive(Clone, Copy)]
struct CreditModel {
    n: u8,
    bare: u8,
    cap: u8,
    receives: u8,
    rnr_retry: u8,
    forger: bool,
    mutant: CreditMutant,
}

impl CreditModel {
    fn is_imm(&self, wr: u8) -> bool {
        self.bare & (1 << wr) == 0
    }

    /// Place WR `next` and ring its doorbell, if the ring has room (else
    /// the sender stays where it is, as a full ring waits).
    fn place(&self, w: CreditWorld, out: &mut Vec<CreditWorld>) {
        if w.tail - w.head < self.cap {
            let mut v = w;
            v.ring[(w.tail % self.cap) as usize] = w.next;
            v.tail += 1;
            v.spent += u8::from(self.is_imm(w.next));
            v.next += 1;
            v.flush = w.flush.saturating_sub(1);
            v.sender = if v.next == self.n {
                Sender::Done
            } else {
                Sender::Try
            };
            out.push(v);
        }
    }

    /// A receiver-not-ready attempt of WR `next`, with `left` re-arms left:
    /// the receiver must really be not ready — every doorbell ahead
    /// notified, and no posted receive left unconsumed — as a responder
    /// decides RNR when the packet reaches it.
    fn attempt(&self, w: CreditWorld, left: u8, out: &mut Vec<CreditWorld>) -> Result<(), String> {
        if !w.forged && (w.head != w.tail || w.posted != w.consumed) {
            return Err(format!(
                "RNR attempt while the receiver was ready or had doorbells ahead: {w:?}"
            ));
        }
        let mut v = w;
        if left > 0 {
            v.sender = Sender::Armed { left: left - 1 };
        } else {
            v.failed += 1;
            v.next += 1;
            // The WRs behind it fail at their first attempt.
            v.flush = self.n - v.next;
            v.sender = if v.next == self.n {
                Sender::Done
            } else {
                Sender::Try
            };
        }
        out.push(v);
        Ok(())
    }

    fn successors(&self, w: CreditWorld, out: &mut Vec<CreditWorld>) -> Result<(), String> {
        // Sender.
        let credit_left = |w: &CreditWorld, word: u8| match self.mutant {
            CreditMutant::SpendsTwice => w.spent <= word,
            _ => w.spent < word,
        };
        match w.sender {
            Sender::Try if !self.is_imm(w.next) => self.place(w, out),
            Sender::Try => {
                let mut v = w;
                if w.spent == w.limit {
                    v.limit = w.limit.max(w.credit);
                }
                if credit_left(&v, v.limit) {
                    self.place(v, out);
                } else if self.mutant == CreditMutant::RnrBeforeDrain {
                    v.sender = Sender::Recheck;
                    out.push(v);
                } else {
                    v.sender = Sender::Drained;
                    out.push(v);
                }
            }
            Sender::Drained => {
                let mut v = w;
                // Not drained: not yet receiver-not-ready; try again later.
                v.sender = match w.polled == w.tail {
                    true => Sender::Recheck,
                    false => Sender::Try,
                };
                out.push(v);
            }
            Sender::Recheck => {
                let mut v = w;
                v.limit = w.limit.max(w.credit);
                if credit_left(&v, v.limit) {
                    self.place(v, out);
                } else {
                    let left = if w.flush > 0 { 0 } else { self.rnr_retry };
                    self.attempt(v, left, out)?;
                }
            }
            Sender::Armed { left } => {
                // The timer expires; the credit word is read again first.
                let mut v = w;
                if w.spent == w.limit {
                    v.limit = w.limit.max(w.credit);
                }
                if credit_left(&v, v.limit) {
                    self.place(v, out);
                } else {
                    self.attempt(v, left, out)?;
                }
            }
            Sender::Done => {}
        }
        // Receiver: post a receive (published under the receive lock, one
        // step), notify the doorbell at `Head`, or find the ring empty and
        // publish `Head` as `Polled`.
        if w.head == w.tail && w.polled != w.head {
            let mut v = w;
            v.polled = w.head;
            out.push(v);
        }
        if w.posted < self.receives {
            let mut v = w;
            v.posted += 1;
            v.credit = v.posted;
            out.push(v);
        }
        if w.head < w.tail {
            let mut v = w;
            let wr = w.ring[(w.head % self.cap) as usize];
            if self.is_imm(wr) {
                if w.posted > w.consumed {
                    v.consumed += 1;
                    v.cqes += 1;
                } else if w.forged {
                    v.refused += 1;
                } else {
                    return Err(format!(
                        "write-with-imm {wr} notified with no posted receive: {w:?}"
                    ));
                }
            }
            v.head += 1;
            out.push(v);
        }
        // Forger: raise the credit word past what was posted, once.
        if self.forger && !w.forged {
            let mut v = w;
            v.credit = w.posted + 2;
            v.forged = true;
            out.push(v);
        }
        Ok(())
    }

    /// Explore every interleaving: `Err` names the first broken property; a
    /// stuck state or a lost completion panics.
    fn check(&self) -> Result<(), String> {
        assert!(usize::from(self.cap) <= MAX_BELLS);
        let initial = CreditWorld {
            sender: if self.n == 0 {
                Sender::Done
            } else {
                Sender::Try
            },
            next: 0,
            spent: 0,
            limit: 0,
            flush: 0,
            tail: 0,
            head: 0,
            ring: [0; MAX_BELLS],
            polled: 0,
            credit: 0,
            posted: 0,
            consumed: 0,
            cqes: 0,
            refused: 0,
            failed: 0,
            forged: false,
        };
        let mut seen = HashSet::new();
        let mut stack = vec![initial];
        let mut succ = Vec::with_capacity(4);
        while let Some(w) = stack.pop() {
            if !seen.insert(w) {
                continue;
            }
            // Nothing completes beyond what was posted, forged or not.
            assert!(w.cqes <= w.posted && w.consumed == w.cqes, "{w:?}");
            succ.clear();
            self.successors(w, &mut succ)?;
            if succ.is_empty() {
                // No stuck state: the sender resolved every WR, and every
                // doorbell was notified — each write-with-imm that was
                // placed completed on the receiver or was refused.
                assert_eq!(w.sender, Sender::Done, "sender stuck in {w:?}");
                assert_eq!(w.head, w.tail, "doorbells left in {w:?}");
                let imms = (0..self.n).filter(|&i| self.is_imm(i)).count() as u8;
                assert_eq!(w.spent, imms - w.failed, "{w:?}");
                assert_eq!(w.cqes + w.refused, w.spent, "{w:?}");
            }
            stack.extend(succ.iter().copied());
        }
        Ok(())
    }
}

/// Every credit model at the bounds, `forger` and `mutant` as given; the
/// first failure with its parameters.
fn check_credit_models(forger: bool, mutant: CreditMutant) -> Result<(), String> {
    let (max_n, max_cap) = bounds();
    for n in 1..=max_n {
        for bare in [0, 0b10] {
            for cap in 1..=max_cap {
                for receives in 0..=n {
                    for rnr_retry in 0..=1 {
                        let model = CreditModel {
                            n,
                            bare,
                            cap,
                            receives,
                            rnr_retry,
                            forger,
                            mutant,
                        };
                        model.check().map_err(|e| {
                            format!("n={n} bare={bare:#b} cap={cap} receives={receives} rnr_retry={rnr_retry}: {e}")
                        })?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// The credit protocol, in every interleaving: every write-with-imm that
/// is placed consumes exactly one posted receive, receiver-not-ready is
/// decided only when the receiver has notified every doorbell ahead and has
/// no receive left, and no state is stuck while both sides live.
#[test]
fn every_write_with_imm_consumes_exactly_one_posted_receive() {
    if let Err(e) = check_credit_models(false, CreditMutant::None) {
        panic!("{e}");
    }
}

/// A credit word forged past what was posted completes nothing beyond it:
/// a write-with-imm that finds no receive WR is refused and counted, and
/// no state is stuck.
#[test]
fn a_forged_credit_word_completes_nothing_beyond_what_was_posted() {
    if let Err(e) = check_credit_models(true, CreditMutant::None) {
        panic!("{e}");
    }
}

/// Checker self-test: a sender that spends its last credit twice places a
/// write-with-imm no receive was posted for, and is caught at default
/// bounds.
#[test]
fn checker_finds_a_sender_that_spends_a_credit_twice() {
    let found = check_credit_models(false, CreditMutant::SpendsTwice);
    let e = found.expect_err("the double spend was not found");
    assert!(e.contains("no posted receive"), "{e}");
}

/// Checker self-test: a sender that starts its RNR wait while the ring
/// ahead of it still holds doorbells decides receiver-not-ready for a
/// receiver that may be about to post, and is caught at default bounds.
#[test]
fn checker_finds_an_rnr_wait_started_before_the_ring_drained() {
    let found = check_credit_models(false, CreditMutant::RnrBeforeDrain);
    let e = found.expect_err("the early RNR wait was not found");
    assert!(e.contains("RNR attempt"), "{e}");
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
