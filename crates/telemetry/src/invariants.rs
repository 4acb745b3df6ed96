//! Counter-conservation invariants.
//!
//! A [`Snapshot`] is a double-entry ledger: every wire event is counted at
//! its source (post, retransmit, injection) and at its sink (delivery,
//! suppression, error). [`check`] reconciles the two sides and returns a
//! [`Report`] with one numbered line per violated law. A non-empty report
//! after a quiesced run means the instrumentation or the accounting it
//! observes is broken — it is never expected noise.
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
//!
//! 15. Per QP: `outstanding == 0`
//! 16. Per CQ: `polled >= pushed_total`

use std::fmt;

use crate::snapshot::Snapshot;

/// One violated conservation law: its number in the list above and the
/// line that states both sides of the failed equation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The law's number, 1–16.
    pub law: u8,
    /// What broke, for a human reader.
    pub text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
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

    /// Record law `law` as broken, with `text`, when `broken`.
    fn law(&mut self, law: u8, broken: bool, text: impl FnOnce() -> String) {
        if broken {
            self.violations.push(Violation { law, text: text() });
        }
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
/// completed (instant fabric): laws 4–10 and 13–14 compare sites on
/// opposite ends of in-flight transfers and only balance once nothing is
/// mid-flight. Laws 1–3 and 11–12 hold at any instant.
pub fn check(snap: &Snapshot) -> Report {
    let mut r = Report::default();
    for q in &snap.qps {
        let (node, qp, posted) = (q.node, q.qp_num, q.send_posted);
        let completed = q.completed_success + q.completed_error;
        r.law(1, posted != completed + q.outstanding, || {
            format!(
                "qp {node}/{qp}: send ledger broken: posted {posted} != completed {completed} + outstanding {}",
                q.outstanding
            )
        });
        r.law(2, q.slot_underflows != 0, || {
            format!(
                "qp {node}/{qp}: {} send-slot release(s) underflowed the outstanding count",
                q.slot_underflows
            )
        });
        let (consumed, queued) = (q.recv_consumed, q.recv_queue_depth);
        r.law(3, q.recv_posted != consumed + queued, || {
            format!(
                "qp {node}/{qp}: recv ledger broken: posted {} != consumed {consumed} + queued {queued}",
                q.recv_posted
            )
        });
    }
    for c in &snap.cqs {
        r.law(11, c.polled > c.pushed_total, || {
            format!(
                "cq {}: polled {} entries but only {} were pushed",
                c.cq_id, c.polled, c.pushed_total
            )
        });
    }
    let rt = &snap.runtime;
    r.law(12, rt.partitions_posted > rt.preadys, || {
        format!(
            "runtime: posted {} partitions but only {} preadys accepted",
            rt.partitions_posted, rt.preadys
        )
    });
    // Laws 4–10 and 13–14: opposite ends of the pipe.
    let w = &snap.wire;
    let posted = snap.total_send_posted();
    let success = snap.total_completed_success();

    let expected = (posted + w.retransmits + w.duplicates_injected).saturating_sub(w.dropped);
    r.law(4, w.inner_submissions != expected, || {
        format!(
            "wire: inner submissions {} != posted + retransmits + duplicates - dropped = {expected}",
            w.inner_submissions
        )
    });

    let expected = w.inner_submissions + w.rnr_requeues;
    r.law(5, w.delivery_attempts != expected, || {
        format!(
            "wire: delivery attempts {} != inner submissions + rnr requeues = {expected}",
            w.delivery_attempts
        )
    });

    let outcomes = w.delivered
        + w.duplicates_suppressed
        + w.remote_errors
        + w.receiver_not_ready
        + w.length_errors;
    r.law(6, w.delivery_attempts != outcomes, || {
        format!(
            "wire: delivery outcomes {outcomes} do not partition the {} attempts",
            w.delivery_attempts
        )
    });

    r.law(7, w.dropped != w.retransmits + w.exhausted, || {
        format!(
            "wire: dropped {} != retransmits {} + exhausted {}",
            w.dropped, w.retransmits, w.exhausted
        )
    });

    // Orphan analysis: every successful completion implies its payload
    // landed (possibly via a ghost), and any delivered surplus must be
    // attributable to ghost duplicates whose original errored out.
    let orphans = success > w.delivered || w.delivered - success > w.delivered_ghost;
    r.law(8, orphans, || {
        format!(
            "wire: delivered {} (ghost {}) irreconcilable with {success} successful completions",
            w.delivered, w.delivered_ghost
        )
    });
    let (delivered, completed) = (w.bytes_delivered, snap.total_bytes_completed());
    r.law(9, w.delivered == success && delivered != completed, || {
        format!("wire: bytes delivered {delivered} != bytes completed {completed}")
    });

    let cq_recv: u64 = snap.cqs.iter().map(|c| c.recv_pushed).sum();
    r.law(10, w.recv_cqes != cq_recv, || {
        format!(
            "recv CQEs: delivery side counted {}, CQ side counted {cq_recv}",
            w.recv_cqes
        )
    });

    let a = &snap.arena;
    r.law(13, a.pool_gets != a.pool_hits + a.pool_misses, || {
        format!(
            "arena: pool gets {} != hits {} + misses {}",
            a.pool_gets, a.pool_hits, a.pool_misses
        )
    });
    r.law(14, a.pool_returns > a.pool_gets, || {
        format!(
            "arena: {} buffers returned but only {} handed out",
            a.pool_returns, a.pool_gets
        )
    });
    r
}

/// [`check`] plus laws 15 and 16, full drain: no outstanding send WRs and
/// no unpolled CQEs anywhere. Use after a run whose driver polls to empty.
pub fn check_strict(snap: &Snapshot) -> Report {
    let mut r = check(snap);
    for q in &snap.qps {
        r.law(15, q.outstanding != 0, || {
            format!(
                "qp {}/{}: {} send WR(s) still outstanding at quiescence",
                q.node, q.qp_num, q.outstanding
            )
        });
    }
    for c in &snap.cqs {
        r.law(16, c.polled < c.pushed_total, || {
            format!(
                "cq {}: {} entry(ies) pushed but never polled",
                c.cq_id,
                c.pushed_total - c.polled
            )
        });
    }
    r
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

    /// The laws `r` reports, in check order.
    fn laws(r: &Report) -> Vec<u8> {
        r.violations.iter().map(|v| v.law).collect()
    }

    fn cq(pushed: u64, polled: u64) -> CqSnapshot {
        CqSnapshot {
            cq_id: 0,
            pushed_by_status: [pushed, 0, 0, 0, 0],
            pushed_total: pushed,
            polled,
            recv_pushed: 0,
            recv_bytes: 0,
        }
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
        assert_eq!(laws(&r), [1]);
    }

    #[test]
    fn double_completion_is_caught() {
        let mut s = clean(8);
        s.qps[0].completed_success = 9;
        let r = check(&s);
        // 9 successes against 8 deliveries also breaks law 8.
        assert_eq!(laws(&r), [1, 8]);
    }

    #[test]
    fn unattributed_drop_is_caught() {
        let mut s = clean(4);
        s.wire.dropped = 1; // never retransmitted nor surfaced
        let r = check(&s);
        // The delivering fabric saw one fewer submission than expected, too.
        assert_eq!(laws(&r), [4, 7]);
    }

    #[test]
    fn byte_mismatch_is_caught_when_counts_agree() {
        let mut s = clean(2);
        s.wire.bytes_delivered = 100;
        s.qps[0].bytes_completed = 90;
        let r = check(&s);
        assert_eq!(laws(&r), [9]);
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
        s.cqs.push(cq(1, 0));
        assert!(check(&s).is_clean());
        assert_eq!(laws(&check_strict(&s)), [16]);
    }

    #[test]
    fn arena_get_ledger_is_caught() {
        let mut s = clean(2);
        s.arena.pool_gets = 5;
        s.arena.pool_hits = 2;
        s.arena.pool_misses = 2; // one get unaccounted for
        let r = check(&s);
        assert_eq!(laws(&r), [13]);
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
        assert_eq!(laws(&r), [14]);
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

    /// Each law, broken alone on an otherwise clean snapshot, is reported
    /// exactly once and under its own number; laws 15 and 16 only by
    /// [`check_strict`].
    #[test]
    fn each_law_is_reported_alone_under_its_number() {
        type Break = fn(&mut Snapshot);
        let table: [(u8, Break); 16] = [
            (1, |s| s.qps[0].completed_error = 1),
            (2, |s| s.qps[0].slot_underflows = 1),
            (3, |s| s.qps[0].recv_posted = 1),
            (4, |s| s.wire.duplicates_injected = 1),
            (5, |s| s.wire.rnr_requeues = 1),
            (6, |s| s.wire.remote_errors = 1),
            (7, |s| s.wire.exhausted = 1),
            (8, |s| {
                s.qps[0].completed_success -= 1;
                s.qps[0].completed_error = 1;
            }),
            (9, |s| s.wire.bytes_delivered = 1),
            (10, |s| s.wire.recv_cqes = 1),
            (11, |s| s.cqs.push(cq(0, 1))),
            (12, |s| s.runtime.partitions_posted = 1),
            (13, |s| s.arena.pool_gets = 1),
            (14, |s| s.arena.pool_returns = 1),
            // In flight, its payload already landed by a ghost duplicate.
            (15, |s| {
                s.qps[0].completed_success -= 1;
                s.qps[0].outstanding = 1;
                s.wire.delivered_ghost = 1;
            }),
            (16, |s| s.cqs.push(cq(1, 0))),
        ];
        for (law, break_it) in table {
            let mut s = clean(4);
            break_it(&mut s);
            let strict = check_strict(&s);
            assert_eq!(laws(&strict), [law], "{strict}");
            assert!(!strict.violations[0].text.is_empty());
            let lenient: &[u8] = if law <= 14 { &[law] } else { &[] };
            assert_eq!(laws(&check(&s)), lenient);
        }
    }
}
