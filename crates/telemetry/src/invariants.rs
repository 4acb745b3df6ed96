//! Counter-conservation invariants.
//!
//! A [`Snapshot`] is a double-entry ledger: every wire event is counted at
//! its source (post, retransmit, injection) and at its sink (delivery,
//! suppression, error). [`check`] reconciles the two sides and returns a
//! typed [`Report`] of every violated law. A non-empty report after a
//! quiesced run means the instrumentation or the accounting it observes is
//! broken — it is never expected noise.
//!
//! The laws, in ledger form (Σ sums over all QPs unless noted):
//!
//! 1.  Per QP: `send_posted == completed_success + completed_error + outstanding`
//! 2.  Per QP: `slot_underflows == 0`
//! 3.  Per QP: `recv_posted == recv_consumed + recv_queue_depth`
//! 4.  `inner_submissions == Σ send_posted + retransmits + duplicates_injected − dropped`
//! 5.  `delivery_attempts == inner_submissions + rnr_requeues`
//! 6.  `delivery_attempts == delivered + duplicates_suppressed + remote_errors + receiver_not_ready + length_errors`
//! 7.  `dropped == retransmits + exhausted` (every drop is either retried or surfaced)
//! 8.  `Σ completed_success <= delivered` and `delivered − Σ completed_success <= delivered_ghost`
//!     (a ghost duplicate can land bytes while the original exhausts its
//!     retry budget — the "orphan delivery" case)
//! 9.  If `delivered == Σ completed_success`: `bytes_delivered == Σ bytes_completed`
//! 10. `recv_cqes == Σ cq.recv_pushed` (delivery site vs. CQ push site)
//! 11. Per CQ: `polled <= pushed_total`
//! 12. `partitions_posted <= preadys` (poisoning may strand preadys)
//! 13. `pool_gets == pool_hits + pool_misses` (every arena get is exactly
//!     one of recycled or freshly allocated)
//! 14. `pool_returns <= pool_gets` (a buffer cannot return to the pool
//!     more often than it was handed out)
//!
//! [`check_strict`] additionally requires a fully drained system:
//! every QP's `outstanding == 0` and every CQ fully polled.

use std::fmt;

use crate::snapshot::Snapshot;

/// One violated conservation law, with both sides of the failed equation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Law 1: a QP's posted sends don't equal completions plus live
    /// outstanding slots — a slot leaked or a completion double-fired.
    QpSendLedger {
        /// Owning node.
        node: u32,
        /// QP number.
        qp_num: u32,
        /// Send WRs posted.
        posted: u64,
        /// Successful + errored completions.
        completed: u64,
        /// Live outstanding slots.
        outstanding: u64,
    },
    /// Law 2: a send-slot release found the outstanding count at zero.
    QpSlotUnderflow {
        /// Owning node.
        node: u32,
        /// QP number.
        qp_num: u32,
        /// Underflowing releases observed.
        count: u64,
    },
    /// Law 3: a QP's posted receives don't equal consumed plus queued.
    QpRecvLedger {
        /// Owning node.
        node: u32,
        /// QP number.
        qp_num: u32,
        /// Receive WRs posted.
        posted: u64,
        /// Receive WRs consumed.
        consumed: u64,
        /// Receive WRs still queued.
        queued: u64,
    },
    /// Law 4: transfers reaching the delivering fabric don't reconcile
    /// with posts, retransmits, duplicates and drops.
    SubmissionLedger {
        /// Observed inner submissions.
        inner_submissions: u64,
        /// Expected: posted + retransmits + duplicates − dropped.
        expected: u64,
    },
    /// Law 5: delivery attempts don't equal inner submissions plus RNR
    /// requeues.
    AttemptLedger {
        /// Observed delivery attempts.
        attempts: u64,
        /// Expected: inner_submissions + rnr_requeues.
        expected: u64,
    },
    /// Law 6: delivery outcomes don't partition the attempts.
    OutcomePartition {
        /// Observed delivery attempts.
        attempts: u64,
        /// Sum of all outcome buckets.
        outcomes: u64,
    },
    /// Law 7: drops aren't fully attributed to retransmissions or retry
    /// exhaustion.
    DropLedger {
        /// Transfers dropped.
        dropped: u64,
        /// Retransmissions scheduled.
        retransmits: u64,
        /// Retry budgets exhausted.
        exhausted: u64,
    },
    /// Law 8: successful completions exceed actual deliveries, or the
    /// delivered surplus exceeds what ghosts could account for.
    DeliveryCompletion {
        /// Payload-landing deliveries.
        delivered: u64,
        /// Of which by ghost duplicates.
        delivered_ghost: u64,
        /// Successful send completions.
        completed_success: u64,
    },
    /// Law 9: deliveries and successes agree in count but not in bytes.
    ByteConservation {
        /// Bytes landed in target memory.
        bytes_delivered: u64,
        /// Bytes in successful completions.
        bytes_completed: u64,
    },
    /// Law 10: receive CQEs generated at delivery don't match CQEs pushed
    /// to receive-side queues.
    RecvCqeLedger {
        /// Receive CQEs counted at the delivery site.
        delivery_side: u64,
        /// Receive CQEs counted at the CQ push site.
        cq_side: u64,
    },
    /// Law 11: a CQ polled out more entries than were ever pushed.
    CqOverPolled {
        /// CQ identifier.
        cq_id: u32,
        /// Entries pushed.
        pushed: u64,
        /// Entries polled.
        polled: u64,
    },
    /// Law 12: more partitions were posted to the wire than were ever
    /// marked ready.
    RuntimePartitionLedger {
        /// `pready` calls accepted.
        preadys: u64,
        /// Partitions posted in aggregated WRs.
        partitions_posted: u64,
    },
    /// Law 13: arena gets don't partition into pool hits and misses.
    ArenaGetLedger {
        /// Buffers requested from the arena.
        pool_gets: u64,
        /// Requests served by recycling.
        pool_hits: u64,
        /// Requests served by fresh allocation.
        pool_misses: u64,
    },
    /// Law 14: more buffers returned to the arena than were handed out.
    ArenaReturnLedger {
        /// Buffers requested from the arena.
        pool_gets: u64,
        /// Buffers returned to the pool.
        pool_returns: u64,
    },
    /// Strict only: a QP still has outstanding send WRs.
    NotDrained {
        /// Owning node.
        node: u32,
        /// QP number.
        qp_num: u32,
        /// Outstanding send WRs.
        outstanding: u64,
    },
    /// Strict only: a CQ still holds unpolled entries.
    CqNotDrained {
        /// CQ identifier.
        cq_id: u32,
        /// Entries pushed.
        pushed: u64,
        /// Entries polled.
        polled: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::QpSendLedger { node, qp_num, posted, completed, outstanding } => write!(
                f,
                "qp {node}/{qp_num}: send ledger broken: posted {posted} != completed {completed} + outstanding {outstanding}"
            ),
            Violation::QpSlotUnderflow { node, qp_num, count } => write!(
                f,
                "qp {node}/{qp_num}: {count} send-slot release(s) underflowed the outstanding count"
            ),
            Violation::QpRecvLedger { node, qp_num, posted, consumed, queued } => write!(
                f,
                "qp {node}/{qp_num}: recv ledger broken: posted {posted} != consumed {consumed} + queued {queued}"
            ),
            Violation::SubmissionLedger { inner_submissions, expected } => write!(
                f,
                "wire: inner submissions {inner_submissions} != posted + retransmits + duplicates - dropped = {expected}"
            ),
            Violation::AttemptLedger { attempts, expected } => write!(
                f,
                "wire: delivery attempts {attempts} != inner submissions + rnr requeues = {expected}"
            ),
            Violation::OutcomePartition { attempts, outcomes } => write!(
                f,
                "wire: delivery outcomes {outcomes} do not partition the {attempts} attempts"
            ),
            Violation::DropLedger { dropped, retransmits, exhausted } => write!(
                f,
                "wire: dropped {dropped} != retransmits {retransmits} + exhausted {exhausted}"
            ),
            Violation::DeliveryCompletion { delivered, delivered_ghost, completed_success } => write!(
                f,
                "wire: delivered {delivered} (ghost {delivered_ghost}) irreconcilable with {completed_success} successful completions"
            ),
            Violation::ByteConservation { bytes_delivered, bytes_completed } => write!(
                f,
                "wire: bytes delivered {bytes_delivered} != bytes completed {bytes_completed}"
            ),
            Violation::RecvCqeLedger { delivery_side, cq_side } => write!(
                f,
                "recv CQEs: delivery side counted {delivery_side}, CQ side counted {cq_side}"
            ),
            Violation::CqOverPolled { cq_id, pushed, polled } => write!(
                f,
                "cq {cq_id}: polled {polled} entries but only {pushed} were pushed"
            ),
            Violation::RuntimePartitionLedger { preadys, partitions_posted } => write!(
                f,
                "runtime: posted {partitions_posted} partitions but only {preadys} preadys accepted"
            ),
            Violation::ArenaGetLedger { pool_gets, pool_hits, pool_misses } => write!(
                f,
                "arena: pool gets {pool_gets} != hits {pool_hits} + misses {pool_misses}"
            ),
            Violation::ArenaReturnLedger { pool_gets, pool_returns } => write!(
                f,
                "arena: {pool_returns} buffers returned but only {pool_gets} handed out"
            ),
            Violation::NotDrained { node, qp_num, outstanding } => write!(
                f,
                "qp {node}/{qp_num}: {outstanding} send WR(s) still outstanding at quiescence"
            ),
            Violation::CqNotDrained { cq_id, pushed, polled } => write!(
                f,
                "cq {cq_id}: {} entry(ies) pushed but never polled",
                pushed - polled
            ),
        }
    }
}

/// The result of reconciling a snapshot against the conservation laws.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every violated law, in check order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// True when every law held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a readable multi-line listing unless the report is clean.
    /// The workhorse assertion for the chaos / fault-injection suites.
    #[track_caller]
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "{self}");
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "telemetry ledger clean");
        }
        writeln!(
            f,
            "{} telemetry invariant violation(s):",
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Reconcile a quiesced snapshot against laws 1–14.
///
/// "Quiesced" means the scheduler has run dry (sim) or all requests have
/// completed (instant fabric): laws 5–10 compare sites on opposite ends of
/// in-flight transfers and only balance once nothing is mid-flight. Laws
/// 1–3 and 11–12 hold at any instant.
pub fn check(snap: &Snapshot) -> Report {
    let mut r = Report::default();
    check_instantaneous(snap, &mut r);
    check_quiescent(snap, &mut r);
    r
}

/// [`check`] plus full-drain requirements: no outstanding send WRs and no
/// unpolled CQEs anywhere. Use after a run whose driver polls to empty.
pub fn check_strict(snap: &Snapshot) -> Report {
    let mut r = check(snap);
    for q in &snap.qps {
        if q.outstanding != 0 {
            r.violations.push(Violation::NotDrained {
                node: q.node,
                qp_num: q.qp_num,
                outstanding: q.outstanding,
            });
        }
    }
    for c in &snap.cqs {
        if c.polled != c.pushed_total {
            r.violations.push(Violation::CqNotDrained {
                cq_id: c.cq_id,
                pushed: c.pushed_total,
                polled: c.polled,
            });
        }
    }
    r
}

/// Laws that hold at any instant, even mid-flight.
fn check_instantaneous(snap: &Snapshot, r: &mut Report) {
    for q in &snap.qps {
        let completed = q.completed_success + q.completed_error;
        if q.send_posted != completed + q.outstanding {
            r.violations.push(Violation::QpSendLedger {
                node: q.node,
                qp_num: q.qp_num,
                posted: q.send_posted,
                completed,
                outstanding: q.outstanding,
            });
        }
        if q.slot_underflows != 0 {
            r.violations.push(Violation::QpSlotUnderflow {
                node: q.node,
                qp_num: q.qp_num,
                count: q.slot_underflows,
            });
        }
        if q.recv_posted != q.recv_consumed + q.recv_queue_depth {
            r.violations.push(Violation::QpRecvLedger {
                node: q.node,
                qp_num: q.qp_num,
                posted: q.recv_posted,
                consumed: q.recv_consumed,
                queued: q.recv_queue_depth,
            });
        }
    }
    for c in &snap.cqs {
        if c.polled > c.pushed_total {
            r.violations.push(Violation::CqOverPolled {
                cq_id: c.cq_id,
                pushed: c.pushed_total,
                polled: c.polled,
            });
        }
    }
    let rt = &snap.runtime;
    if rt.partitions_posted > rt.preadys {
        r.violations.push(Violation::RuntimePartitionLedger {
            preadys: rt.preadys,
            partitions_posted: rt.partitions_posted,
        });
    }
}

/// Laws that compare opposite ends of the pipe; they balance only once
/// nothing is in flight.
fn check_quiescent(snap: &Snapshot, r: &mut Report) {
    let w = &snap.wire;
    let posted = snap.total_send_posted();
    let success = snap.total_completed_success();

    let expected_inner = (posted + w.retransmits + w.duplicates_injected).saturating_sub(w.dropped);
    if w.inner_submissions != expected_inner {
        r.violations.push(Violation::SubmissionLedger {
            inner_submissions: w.inner_submissions,
            expected: expected_inner,
        });
    }

    let expected_attempts = w.inner_submissions + w.rnr_requeues;
    if w.delivery_attempts != expected_attempts {
        r.violations.push(Violation::AttemptLedger {
            attempts: w.delivery_attempts,
            expected: expected_attempts,
        });
    }

    let outcomes = w.delivered
        + w.duplicates_suppressed
        + w.remote_errors
        + w.receiver_not_ready
        + w.length_errors;
    if w.delivery_attempts != outcomes {
        r.violations.push(Violation::OutcomePartition {
            attempts: w.delivery_attempts,
            outcomes,
        });
    }

    if w.dropped != w.retransmits + w.exhausted {
        r.violations.push(Violation::DropLedger {
            dropped: w.dropped,
            retransmits: w.retransmits,
            exhausted: w.exhausted,
        });
    }

    // Orphan analysis: every successful completion implies its payload
    // landed (possibly via a ghost), and any delivered surplus must be
    // attributable to ghost duplicates whose original errored out.
    if success > w.delivered || w.delivered - success > w.delivered_ghost {
        r.violations.push(Violation::DeliveryCompletion {
            delivered: w.delivered,
            delivered_ghost: w.delivered_ghost,
            completed_success: success,
        });
    } else if w.delivered == success {
        let bytes_completed = snap.total_bytes_completed();
        if w.bytes_delivered != bytes_completed {
            r.violations.push(Violation::ByteConservation {
                bytes_delivered: w.bytes_delivered,
                bytes_completed,
            });
        }
    }

    let cq_recv: u64 = snap.cqs.iter().map(|c| c.recv_pushed).sum();
    if w.recv_cqes != cq_recv {
        r.violations.push(Violation::RecvCqeLedger {
            delivery_side: w.recv_cqes,
            cq_side: cq_recv,
        });
    }

    let a = &snap.arena;
    if a.pool_gets != a.pool_hits + a.pool_misses {
        r.violations.push(Violation::ArenaGetLedger {
            pool_gets: a.pool_gets,
            pool_hits: a.pool_hits,
            pool_misses: a.pool_misses,
        });
    }
    if a.pool_returns > a.pool_gets {
        r.violations.push(Violation::ArenaReturnLedger {
            pool_gets: a.pool_gets,
            pool_returns: a.pool_returns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CqSnapshot, QpSnapshot, Snapshot};

    fn qp(posted: u64, success: u64, error: u64, outstanding: u64) -> QpSnapshot {
        QpSnapshot {
            node: 0,
            qp_num: 1,
            state: "RTS",
            outstanding,
            recv_queue_depth: 0,
            send_posted: posted,
            recv_posted: 0,
            recv_consumed: 0,
            completed_success: success,
            completed_error: error,
            bytes_posted: 0,
            bytes_completed: 0,
            recoveries: 0,
            slot_underflows: 0,
        }
    }

    /// A snapshot representing N clean posts, all delivered and completed.
    fn clean(n: u64) -> Snapshot {
        let mut s = Snapshot {
            qps: vec![qp(n, n, 0, 0)],
            ..Default::default()
        };
        s.wire.inner_submissions = n;
        s.wire.delivery_attempts = n;
        s.wire.delivered = n;
        s
    }

    #[test]
    fn clean_ledger_passes() {
        let r = check(&clean(8));
        assert!(r.is_clean(), "{r}");
        check_strict(&clean(8)).assert_clean();
    }

    #[test]
    fn leaked_slot_is_caught() {
        let mut s = clean(8);
        s.qps[0].outstanding = 1; // posted 8, completed 8, yet a slot is held
        let r = check(&s);
        assert!(matches!(r.violations[0], Violation::QpSendLedger { .. }));
    }

    #[test]
    fn double_completion_is_caught() {
        let mut s = clean(8);
        s.qps[0].completed_success = 9;
        let r = check(&s);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::QpSendLedger { .. })));
        // 9 successes against 8 deliveries also breaks law 8.
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DeliveryCompletion { .. })));
    }

    #[test]
    fn unattributed_drop_is_caught() {
        let mut s = clean(4);
        s.wire.dropped = 1; // never retransmitted nor surfaced
        let r = check(&s);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DropLedger { .. })));
    }

    #[test]
    fn byte_mismatch_is_caught_when_counts_agree() {
        let mut s = clean(2);
        s.wire.bytes_delivered = 100;
        s.qps[0].bytes_completed = 90;
        let r = check(&s);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ByteConservation { .. })));
    }

    #[test]
    fn ghost_orphan_is_tolerated() {
        // 1 post with a ghost duplicate injected; the original is dropped
        // and exhausts its (zero) retry budget while the ghost lands the
        // payload: delivered 1, success 0, ghost 1 — an orphan delivery,
        // legal under law 8.
        let mut s = Snapshot {
            qps: vec![qp(1, 0, 1, 0)],
            ..Default::default()
        };
        s.wire.duplicates_injected = 1;
        s.wire.dropped = 1;
        s.wire.exhausted = 1;
        s.wire.inner_submissions = 1;
        s.wire.delivery_attempts = 1;
        s.wire.delivered = 1;
        s.wire.delivered_ghost = 1;
        // Orphans are tolerated by law 8, but only because the original
        // errored; deliveries beyond ghost coverage are not.
        let r = check(&s);
        assert!(r.is_clean(), "{r}");
        s.wire.delivered_ghost = 0;
        assert!(!check(&s).is_clean());
    }

    #[test]
    fn strict_catches_undrained_cq() {
        let mut s = clean(1);
        s.cqs.push(CqSnapshot {
            cq_id: 0,
            pushed_by_status: [1, 0, 0, 0, 0],
            pushed_total: 1,
            polled: 0,
            recv_pushed: 0,
            recv_bytes: 0,
        });
        assert!(check(&s).is_clean());
        let r = check_strict(&s);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CqNotDrained { .. })));
    }

    #[test]
    fn arena_get_ledger_is_caught() {
        let mut s = clean(2);
        s.arena.pool_gets = 5;
        s.arena.pool_hits = 2;
        s.arena.pool_misses = 2; // one get unaccounted for
        let r = check(&s);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ArenaGetLedger { .. })));
        s.arena.pool_misses = 3;
        check(&s).assert_clean();
    }

    #[test]
    fn arena_over_return_is_caught() {
        let mut s = clean(2);
        s.arena.pool_gets = 3;
        s.arena.pool_misses = 3;
        s.arena.pool_returns = 4; // more returns than gets
        let r = check(&s);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ArenaReturnLedger { .. })));
        s.arena.pool_returns = 3;
        check(&s).assert_clean();
    }

    #[test]
    fn report_display_lists_all() {
        let mut s = clean(2);
        s.qps[0].slot_underflows = 3;
        s.wire.dropped = 1;
        let r = check(&s);
        let text = r.to_string();
        assert!(text.contains("underflowed"));
        assert!(text.contains("dropped 1"));
    }
}
