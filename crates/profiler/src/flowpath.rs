//! Per-flow critical-path reconstruction from causal flow events.
//!
//! The flow recorder (`partix_telemetry::FlowRecorder`) stamps every traced
//! message at each stage of its life: `Posted` at the aggregation decision,
//! `CapQueued`/`CapDequeued` around the software-pending queue,
//! `WireSubmit` at the doorbell, `Retransmit`/`RnrWait` for recovery
//! waits, `Delivered` at fabric delivery, `SendCqe`/`RecvCqe` at
//! completion-queue poll, and `Arrived` when the receive flags become
//! visible to `MPI_Parrived`. This module reassembles those events into
//! [`FlowChain`]s, checks causal completeness and timestamp monotonicity
//! (post ≤ wire ≤ CQE ≤ arrival, across retransmits), and extracts the
//! per-flow stall decomposition behind the `trace` analyzer's reports.

use partix_telemetry::{FlowEvent, FlowStage};

/// All events of one flow, sorted by `(ts_ns, stage)`.
#[derive(Debug, Clone)]
pub struct FlowChain {
    /// The flow identifier (non-zero).
    pub flow: u64,
    /// The flow's events in causal order.
    pub events: Vec<FlowEvent>,
}

/// One stall attribution: how long a flow spent in one wait class, and the
/// QP/channel responsible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// The flow identifier.
    pub flow: u64,
    /// Nanoseconds spent in this wait class.
    pub wait_ns: u64,
    /// The queue pair the wait was observed on.
    pub qp: u32,
    /// The runtime channel (send-request id) that posted the flow.
    pub chan: u32,
}

impl FlowChain {
    /// Timestamp of the first event of `stage`, if any.
    pub fn first_ts(&self, stage: FlowStage) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.ts_ns)
            .min()
    }

    /// Sum of the `aux` field across events of `stage` (the wait classes
    /// carry their duration there), saturating: the events may come from a
    /// file.
    pub fn aux_sum(&self, stage: FlowStage) -> u64 {
        self.events
            .iter()
            .filter(|e| e.stage == stage)
            .fold(0, |sum, e| sum.saturating_add(e.aux))
    }

    /// Queue pair and channel of the posting event (falls back to the first
    /// event when `Posted` is missing).
    pub fn origin(&self) -> (u32, u32) {
        self.events
            .iter()
            .find(|e| e.stage == FlowStage::Posted)
            .or_else(|| self.events.first())
            .map(|e| (e.qp, e.chan))
            .unwrap_or((0, 0))
    }

    /// Did this flow reach the receiver (`Arrived` recorded)?
    pub fn arrived(&self) -> bool {
        self.first_ts(FlowStage::Arrived).is_some()
    }

    /// Number of wire submissions beyond the first (retransmissions and
    /// duplicate injections visible on the doorbell).
    pub fn resubmissions(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.stage == FlowStage::WireSubmit)
            .count()
            .saturating_sub(1)
    }

    /// End-to-end latency from post to arrival, when both ends exist.
    pub fn total_ns(&self) -> Option<u64> {
        let post = self.first_ts(FlowStage::Posted)?;
        let arrive = self.first_ts(FlowStage::Arrived)?;
        Some(arrive.saturating_sub(post))
    }

    /// Causal-completeness and monotonicity violations for an arrived flow:
    /// the chain must contain `Posted`, `WireSubmit`, `RecvCqe` and
    /// `Arrived`, ordered `post ≤ wire ≤ recv CQE ≤ arrival` — where
    /// "wire" is the *first* submission, so the invariant holds across
    /// retransmits (later submissions only move delivery later). Flows that
    /// never arrived (e.g. in flight at snapshot time) report only the
    /// violations among the spans they do have.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let post = self.first_ts(FlowStage::Posted);
        let wire = self.first_ts(FlowStage::WireSubmit);
        let recv_cqe = self.first_ts(FlowStage::RecvCqe);
        let arrive = self.first_ts(FlowStage::Arrived);
        if arrive.is_some() {
            for (name, ts) in [
                ("posted", post),
                ("wire_submit", wire),
                ("recv_cqe", recv_cqe),
            ] {
                if ts.is_none() {
                    out.push(format!("flow {}: arrived without a {name} span", self.flow));
                }
            }
        }
        let mut check = |a: Option<u64>, b: Option<u64>, what: &str| {
            if let (Some(a), Some(b)) = (a, b) {
                if a > b {
                    out.push(format!(
                        "flow {}: {what} ordering violated ({a} > {b})",
                        self.flow
                    ));
                }
            }
        };
        check(post, wire, "post <= wire");
        check(wire, recv_cqe, "wire <= recv_cqe");
        check(recv_cqe, arrive, "recv_cqe <= arrival");
        check(post, self.first_ts(FlowStage::SendCqe), "post <= send_cqe");
        out
    }

    /// The stall decomposition of this flow: `(agg_hold, cap_wait,
    /// rnr_wait, retrans_wait)` in nanoseconds. Aggregation hold rides on
    /// the `Posted` aux; the wait classes sum their own aux fields.
    pub fn stalls(&self) -> (u64, u64, u64, u64) {
        (
            self.aux_sum(FlowStage::Posted),
            self.aux_sum(FlowStage::CapDequeued),
            self.aux_sum(FlowStage::RnrWait),
            self.aux_sum(FlowStage::Retransmit),
        )
    }
}

/// Group raw flow events into per-flow chains, sorted by flow id; events
/// within a chain are ordered by `(ts_ns, stage)`.
pub fn assemble_chains(events: &[FlowEvent]) -> Vec<FlowChain> {
    let mut sorted: Vec<FlowEvent> = events.iter().filter(|e| e.flow != 0).copied().collect();
    sorted.sort_by_key(|e| (e.flow, e.ts_ns, e.stage));
    let mut chains: Vec<FlowChain> = Vec::new();
    for ev in sorted {
        match chains.last_mut() {
            Some(c) if c.flow == ev.flow => c.events.push(ev),
            _ => chains.push(FlowChain {
                flow: ev.flow,
                events: vec![ev],
            }),
        }
    }
    chains
}

/// Top-`k` flows by one wait class, descending; `pick` maps a chain's stall
/// tuple to the class of interest.
pub fn top_stalls(chains: &[FlowChain], k: usize, pick: impl Fn(&FlowChain) -> u64) -> Vec<Stall> {
    let mut stalls: Vec<Stall> = chains
        .iter()
        .map(|c| {
            let (qp, chan) = c.origin();
            Stall {
                flow: c.flow,
                wait_ns: pick(c),
                qp,
                chan,
            }
        })
        .filter(|s| s.wait_ns > 0)
        .collect();
    stalls.sort_by(|a, b| b.wait_ns.cmp(&a.wait_ns).then(a.flow.cmp(&b.flow)));
    stalls.truncate(k);
    stalls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(flow: u64, stage: FlowStage, ts: u64, aux: u64) -> FlowEvent {
        FlowEvent {
            flow,
            stage,
            ts_ns: ts,
            qp: 2,
            chan: 7,
            aux,
        }
    }

    #[test]
    fn complete_chain_has_no_violations() {
        let chains = assemble_chains(&[
            ev(1, FlowStage::Arrived, 400, 0),
            ev(1, FlowStage::Posted, 100, 40),
            ev(1, FlowStage::WireSubmit, 150, 0),
            ev(1, FlowStage::RecvCqe, 300, 5),
        ]);
        assert_eq!(chains.len(), 1);
        assert!(chains[0].arrived());
        assert!(chains[0].violations().is_empty());
        assert_eq!(chains[0].total_ns(), Some(300));
        assert_eq!(chains[0].origin(), (2, 7));
    }

    #[test]
    fn missing_wire_span_is_flagged() {
        let chains = assemble_chains(&[
            ev(3, FlowStage::Posted, 100, 0),
            ev(3, FlowStage::RecvCqe, 300, 0),
            ev(3, FlowStage::Arrived, 400, 0),
        ]);
        let v = chains[0].violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("wire_submit"));
    }

    #[test]
    fn retransmit_keeps_first_wire_submission() {
        let chains = assemble_chains(&[
            ev(5, FlowStage::Posted, 100, 0),
            ev(5, FlowStage::WireSubmit, 150, 0),
            ev(5, FlowStage::Retransmit, 200, 50),
            ev(5, FlowStage::WireSubmit, 250, 0),
            ev(5, FlowStage::RecvCqe, 300, 0),
            ev(5, FlowStage::Arrived, 400, 0),
        ]);
        assert!(chains[0].violations().is_empty());
        assert_eq!(chains[0].resubmissions(), 1);
        assert_eq!(chains[0].stalls(), (0, 0, 0, 50));
    }

    #[test]
    fn top_stalls_ranks_descending() {
        let chains = assemble_chains(&[
            ev(1, FlowStage::Posted, 0, 10),
            ev(2, FlowStage::Posted, 0, 30),
            ev(3, FlowStage::Posted, 0, 20),
            ev(4, FlowStage::Posted, 0, 0),
        ]);
        let top = top_stalls(&chains, 2, |c| c.stalls().0);
        assert_eq!(
            top.iter().map(|s| (s.flow, s.wait_ns)).collect::<Vec<_>>(),
            [(2, 30), (3, 20)]
        );
    }
}
