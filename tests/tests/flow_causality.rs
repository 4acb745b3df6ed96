//! Flow-ID causality under chaos: on a lossy wire (seeded drops,
//! duplicates, and delays with timer-based retransmission), every
//! partition that reports `Parrived` must belong to a flow whose causal
//! span chain is complete and monotonically timestamped — `post ≤ wire ≤
//! CQE ≤ arrival` — including flows that crossed the wire more than once
//! via retransmission or duplicate injection.

use partix_core::telemetry::FlowStage;
use partix_core::{AggregatorKind, LossyConfig, PartixConfig};
use partix_profiler::assemble_chains;
use partix_sim::split_seed;
use partix_workloads::{run_traced, Pt2PtConfig, ThreadTiming};

fn chaos_cfg(drop_p: f64, seed: u64) -> Pt2PtConfig {
    let mut partix = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    partix.fabric.copy_data = false;
    partix.loss = Some(LossyConfig::chaos(
        drop_p,
        split_seed(seed, "flow-causality", 0),
    ));
    Pt2PtConfig {
        partix,
        partitions: 16,
        part_bytes: 4096,
        warmup: 1,
        iters: 4,
        timing: ThreadTiming::overhead(),
        seed,
    }
}

#[test]
fn every_arrived_flow_has_a_complete_monotone_chain_under_chaos() {
    let mut saw_retransmit = false;
    for seed in [3, 17, 99] {
        let art = run_traced(&chaos_cfg(0.08, seed), None);
        assert!(art.result.error.is_none(), "chaos run failed (seed {seed})");
        saw_retransmit |= art.result.retransmits > 0;

        let chains = assemble_chains(&art.flows);
        assert!(!chains.is_empty(), "traced chaos run produced no flows");
        // Every posted flow arrived (the reliability layer guarantees
        // delivery), and every arrived flow's chain is complete and
        // monotone — including retransmitted ones.
        let violations = art.chain_violations();
        assert!(
            violations.is_empty(),
            "seed {seed}: {} chain violations:\n{}",
            violations.len(),
            violations.join("\n")
        );
        for c in &chains {
            assert!(
                c.arrived(),
                "seed {seed}: flow {} was posted but never arrived",
                c.flow
            );
        }
        // Flows the lossy wire hit more than once keep ONE causal identity:
        // a retransmitted flow has extra wire submissions, and its chain
        // still validated above.
        let resubmitted = chains.iter().filter(|c| c.resubmissions() > 0).count();
        if art.result.retransmits + art.result.duplicates > 0 {
            assert!(
                resubmitted > 0,
                "seed {seed}: wire reported retransmits/duplicates but no flow \
                 recorded a second submission"
            );
        }
    }
    assert!(
        saw_retransmit,
        "no seed exercised retransmission — raise drop_p so the property is non-vacuous"
    );
}

#[test]
fn flow_ids_are_unique_and_dense_per_run() {
    let art = run_traced(&chaos_cfg(0.05, 7), None);
    let chains = assemble_chains(&art.flows);
    // One chain per posted WR, ids minted 1..=N with no reuse across
    // retransmits (a re-posted WR keeps its original flow).
    assert_eq!(chains.len() as u64, art.result.total_wrs);
    let posted = art
        .flows
        .iter()
        .filter(|e| e.stage == FlowStage::Posted)
        .count() as u64;
    assert_eq!(posted, art.result.total_wrs, "exactly one Posted per WR");
    let mut ids: Vec<u64> = chains.iter().map(|c| c.flow).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len() as u64,
        art.result.total_wrs,
        "flow ids are unique"
    );
}

#[test]
fn chaos_tracing_does_not_change_results() {
    let cfg = chaos_cfg(0.08, 23);
    let plain = partix_workloads::run_pt2pt(&cfg);
    let traced = run_traced(&cfg, None);
    let t1: Vec<u64> = plain.rounds.iter().map(|r| r.total().as_nanos()).collect();
    let t2: Vec<u64> = traced
        .result
        .rounds
        .iter()
        .map(|r| r.total().as_nanos())
        .collect();
    assert_eq!(
        t1, t2,
        "flow tracing must not perturb virtual time, even under chaos"
    );
    assert_eq!(plain.retransmits, traced.result.retransmits);
    assert_eq!(plain.drops, traced.result.drops);
}
