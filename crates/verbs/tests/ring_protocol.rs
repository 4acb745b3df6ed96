//! Exhaustive-interleaving model check of the SPSC ring's cursor protocol
//! and its remembered cursors, and of the shared-memory fabric's
//! receive-credit protocol.
//!
//! No model-checking framework is vendored, so this is a hand-rolled
//! explicit-state checker: [`explore`] runs a memoized DFS over every
//! interleaving of a [`Model`]'s steps under sequential consistency, fails
//! on the first broken property a step reports, and fails on a stuck state:
//! one where every side can only wait (no step changes the state) before
//! the model is finished.
//!
//! The ring model decomposes the producer and consumer into the same atomic
//! load/store steps the real `SpscRing` performs on its control words — one
//! shared access per step, with each side's remembered copy of the other's
//! cursor (`seen_head`, `seen_tail`) as thread-local state. It checks that
//!
//! - the whole stream goes through: in every interleaving the consumer takes
//!   all `n` records the producer pushes, and no state is stuck;
//! - the producer never overcommits: a push accepted against a stale
//!   `Head` still fits, because `Head` only advances (the stale check is
//!   conservative);
//! - a remembered cursor only ever errs on the safe side: in every reachable
//!   state `seen_head <= Head` and `seen_tail <= Tail`, so the producer can
//!   only under-report free space and the consumer only under-report
//!   published bytes, and a record consumed on the strength of `seen_tail`
//!   is really there.
//!
//! The checker is validated against a producer that trusts its remembered
//! `Head` for good once it says full: that producer waits on a ring the
//! consumer has emptied, and the search must find it stuck.
//!
//! The credit model checks `ShmFabric`'s receive-credit protocol: a sender
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
//! stream ≤ 6); the state spaces stay small (tens of thousands of states)
//! because the protocols have so little shared state — that is rather the
//! point of the design.

use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::Hash;

/// A protocol as the search sees it: its states, the steps each side can
/// take, and what must hold when it is finished.
trait Model {
    type State: Copy + Eq + Hash + Debug;

    fn initial(&self) -> Self::State;

    /// Push every successor of `s`: one per step a side can take. `Err`
    /// names a property that `s` or one of its steps breaks. A side that
    /// can only wait pushes `s` itself, or nothing.
    fn successors(&self, s: Self::State, out: &mut Vec<Self::State>) -> Result<(), String>;

    /// Whether `s` is an end of the protocol: a state that is not, and that
    /// no step changes, is stuck.
    fn finished(&self, s: &Self::State) -> bool;

    /// What a finished state must hold.
    fn check_final(&self, _s: &Self::State) -> Result<(), String> {
        Ok(())
    }
}

/// The explicit-state search: every state reachable from the model's
/// initial one, each explored once. `Err` names the first broken property
/// or stuck state.
fn explore<M: Model>(model: &M) -> Result<(), String> {
    let mut seen = HashSet::new();
    let mut stack = vec![model.initial()];
    let mut succ = Vec::with_capacity(4);
    while let Some(s) = stack.pop() {
        if !seen.insert(s) {
            continue;
        }
        succ.clear();
        model.successors(s, &mut succ)?;
        // A step back to `s` is a side waiting, not progress.
        succ.retain(|&v| v != s);
        if succ.is_empty() {
            if !model.finished(&s) {
                return Err(format!("stuck in {s:?}"));
            }
            model.check_final(&s)?;
        }
        stack.extend(succ.iter().copied());
    }
    Ok(())
}

/// Producer program counter, mirroring `SpscRing::try_push`: push records
/// 0..n, then done.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Prod {
    /// About to push record `i`: publish it (store `Tail`) if the remembered
    /// `Head` shows room, else load `Head` into the remembered copy (and the
    /// caller tries again).
    Push { i: u8 },
    /// Finished.
    Done,
}

/// One interleaved state of the ring. `tail`/`head` are the shared control
/// words; everything else is thread-local. The consumer mirrors
/// `SpscRing::try_pop`: it consumes a record (stores `Head`) if the
/// remembered `Tail` shows one, else loads `Tail` into the remembered copy;
/// it is done once it has taken `n` records.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct RingWorld {
    tail: u8,
    head: u8,
    prod: Prod,
    /// `Head` as the producer last read it.
    seen_head: u8,
    /// `Tail` as the consumer last read it.
    seen_tail: u8,
}

/// The ring model: `n` records through a ring holding `cap` records; with
/// `stale_full`, a producer that never re-reads `Head` once its remembered
/// copy says full.
#[derive(Clone, Copy)]
struct RingModel {
    n: u8,
    cap: u8,
    stale_full: bool,
}

impl Model for RingModel {
    type State = RingWorld;

    fn initial(&self) -> RingWorld {
        RingWorld {
            tail: 0,
            head: 0,
            prod: Prod::Push { i: 0 },
            seen_head: 0,
            seen_tail: 0,
        }
    }

    fn successors(&self, w: RingWorld, out: &mut Vec<RingWorld>) -> Result<(), String> {
        if w.seen_head > w.head || w.seen_tail > w.tail {
            return Err(format!("remembered cursor ahead of its word in {w:?}"));
        }
        // Producer: deterministic given the shared state it reads.
        if let Prod::Push { i } = w.prod {
            let mut v = w;
            if w.tail - w.seen_head < self.cap {
                // Space check passed against a possibly stale head. The
                // real ring writes the record bytes here; under sequential
                // consistency the byte copy collapses into the release store
                // of `Tail`. Even with the stale copy, the record must fit
                // against the *true* head, because head only grows.
                if w.tail + 1 - w.head > self.cap {
                    return Err(format!(
                        "overcommit: push accepted against remembered head {} but true \
                         occupancy is {}..{} in cap {}",
                        w.seen_head,
                        w.head,
                        w.tail + 1,
                        self.cap
                    ));
                }
                v.tail = w.tail + 1;
                v.prod = if i + 1 < self.n {
                    Prod::Push { i: i + 1 }
                } else {
                    Prod::Done
                };
            } else if !self.stale_full {
                // Full as far as the remembered head says: re-read it.
                v.seen_head = w.head;
            }
            out.push(v);
        }
        // Consumer.
        if w.head < self.n {
            let mut v = w;
            if w.seen_tail > w.head {
                // A record is published as far as the remembered tail says —
                // and so it is, because tail only grows: consume it.
                if w.head >= w.tail {
                    return Err(format!(
                        "consumed record {} on the strength of remembered tail {} but \
                         only {} are published",
                        w.head, w.seen_tail, w.tail
                    ));
                }
                v.head = w.head + 1;
            } else {
                // Empty as far as the remembered tail says: re-read it.
                v.seen_tail = w.tail;
            }
            out.push(v);
        }
        Ok(())
    }

    fn finished(&self, w: &RingWorld) -> bool {
        w.prod == Prod::Done && w.head == self.n
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

/// Every ring model at the bounds; the first failure with its parameters.
fn check_ring_models(stale_full: bool) -> Result<(), String> {
    let (max_n, max_cap) = bounds();
    for n in 1..=max_n {
        for cap in 1..=max_cap {
            let model = RingModel { n, cap, stale_full };
            explore(&model).map_err(|e| format!("n={n} cap={cap}: {e}"))?;
        }
    }
    Ok(())
}

/// Every interleaving of the ring protocol delivers the whole stream: the
/// consumer takes all `n` records and no state is stuck, for every bounded
/// (records, capacity) pair.
#[test]
fn every_interleaving_delivers_the_whole_stream() {
    if let Err(e) = check_ring_models(false) {
        panic!("{e}");
    }
}

/// Checker self-test: a producer that trusts its remembered `Head` for good
/// once it says full never sees the space the consumer hands back, and is
/// caught stuck at default bounds.
#[test]
fn checker_finds_a_producer_that_never_rereads_a_full_head() {
    let found = check_ring_models(true);
    let e = found.expect_err("the stale full ring was not found");
    assert!(e.contains("stuck"), "{e}");
}

/// The safety checks inside the model — no overcommit against a remembered
/// `Head`, no record consumed that a remembered `Tail` promised and the
/// word does not hold, no remembered cursor ahead of its word — double as
/// proof obligations over all interleavings; this test just makes their
/// coverage explicit for the widest bounded ring.
#[test]
fn stale_head_space_check_never_overcommits() {
    let (n, cap) = bounds();
    let model = RingModel {
        n,
        cap,
        stale_full: false,
    };
    if let Err(e) = explore(&model) {
        panic!("{e}");
    }
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

    /// Every step either side can take from `w`.
    fn steps(&self, w: CreditWorld, out: &mut Vec<CreditWorld>) -> Result<(), String> {
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
}

impl Model for CreditModel {
    type State = CreditWorld;

    fn initial(&self) -> CreditWorld {
        assert!(usize::from(self.cap) <= MAX_BELLS);
        CreditWorld {
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
        }
    }

    fn successors(&self, w: CreditWorld, out: &mut Vec<CreditWorld>) -> Result<(), String> {
        // Nothing completes beyond what was posted, forged or not.
        if w.cqes > w.posted || w.consumed != w.cqes {
            return Err(format!("a completion beyond what was posted: {w:?}"));
        }
        self.steps(w, out)
    }

    /// The sender resolved every WR, and every doorbell was notified.
    fn finished(&self, w: &CreditWorld) -> bool {
        w.sender == Sender::Done && w.head == w.tail
    }

    /// Each write-with-imm that was placed completed on the receiver or
    /// was refused.
    fn check_final(&self, w: &CreditWorld) -> Result<(), String> {
        let imms = (0..self.n).filter(|&i| self.is_imm(i)).count() as u8;
        if w.spent != imms - w.failed || w.cqes + w.refused != w.spent {
            return Err(format!("credits and completions disagree: {w:?}"));
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
                        explore(&model).map_err(|e| {
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
