//! Executor-independence of the sharded PDES engine at workload scale.
//!
//! The engine's contract: with the shard count held fixed, the sequential
//! reference executor, the inline epoch loop (`jobs = 1`), and the threaded
//! epoch engine at any job count all produce the same events in the same
//! order — checked end to end through the order-sensitive workload digests
//! (any reordering anywhere in the run changes the digest).

use partix_core::telemetry::{stage_histograms, FlowLog};
use partix_workloads::fullstack::{
    run_fullstack, run_fullstack_instrumented, run_fullstack_observed, Executor, FullStackConfig,
    FullStackReport,
};
use partix_workloads::pdes::{run_fanin, run_sweep, PdesOutcome, PdesWorkloadConfig};

const JOB_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn assert_matrix_agrees(
    name: &str,
    cfg: &PdesWorkloadConfig,
    run: impl Fn(&PdesWorkloadConfig, Option<usize>) -> PdesOutcome,
) -> PdesOutcome {
    let reference = run(cfg, None);
    for jobs in JOB_MATRIX {
        let got = run(cfg, Some(jobs));
        assert_eq!(
            got.deterministic_parts(),
            reference.deterministic_parts(),
            "{name} (shards={}) diverged from the reference executor at jobs={jobs}",
            cfg.shards,
        );
    }
    reference
}

#[test]
fn fanin_agrees_across_the_job_matrix() {
    let cfg = PdesWorkloadConfig::new(4096);
    let out = assert_matrix_agrees("fanin", &cfg, run_fanin);
    // Every rank resolves: leaves contribute a Start, interior ranks a
    // Contribute per child — ranks-1 contributions in total.
    assert!(out.report.events >= 4096);
    assert!(out.report.cross_messages > 0, "tree must cross shards");
}

#[test]
fn sweep_agrees_across_the_job_matrix() {
    let cfg = PdesWorkloadConfig::new(2500);
    let out = assert_matrix_agrees("sweep", &cfg, run_sweep);
    assert_eq!(out.nodes, 2500, "50x50 grid uses every rank");
    // Each rank computes `sweeps` times; credits and tries add more events.
    assert!(out.report.events >= 2500 * cfg.sweeps as u64);
}

#[test]
fn shard_count_changes_the_schedule_not_the_model() {
    // The shard count is part of the experiment identity (it enters the
    // deterministic total order), so digests may differ across shard
    // counts — but each count must be internally consistent at every job
    // count, and model-level totals (event population of the fixed fan-in
    // tree) cannot depend on the partitioning.
    let mut events = Vec::new();
    for shards in [1, 3, 16, 64] {
        let mut cfg = PdesWorkloadConfig::new(2000);
        cfg.shards = shards;
        let out = assert_matrix_agrees("fanin", &cfg, run_fanin);
        events.push(out.report.events);
    }
    assert!(
        events.windows(2).all(|w| w[0] == w[1]),
        "fan-in event totals must be shard-count-invariant, got {events:?}"
    );
}

/// Every flow stage's `(name, count, sum)`: the residency multisets are
/// virtual-time facts, so no executor may change them.
type StageTotals = Vec<(&'static str, u64, u64)>;

/// `cfg` once more on `executor` with a flow log attached. Tracing only
/// observes: the run must reproduce the digests of `untraced`, the same
/// executor's run without it.
fn traced_stage_totals(
    name: &str,
    cfg: &FullStackConfig,
    executor: Executor,
    untraced: &FullStackReport,
) -> StageTotals {
    let log = FlowLog::new();
    let (traced, _world, _sched) =
        run_fullstack_instrumented(cfg, executor, Some(log.clone()), None);
    assert_eq!(
        (traced.digest, traced.ledger_digest),
        (untraced.digest, untraced.ledger_digest),
        "{name}: tracing changed the run on {}",
        executor.label()
    );
    let stages = stage_histograms(&log.sorted());
    let totals = stages.into_iter().map(|(stage, h)| (stage, h.count, h.sum));
    totals.collect()
}

/// Full-stack executor independence: the entire verbs pipeline — partitioned
/// aggregation runtime, DES fabric, optionally the lossy wire — through the
/// job matrix, comparing the completion-record digest AND the canonical
/// telemetry ledger digest against the sequential reference. Ledger equality
/// is the stronger claim: every per-QP/CQ counter, all wire counters, and all
/// runtime counters byte-identical, with all conservation laws clean. The
/// matrix runs untraced, as the benchmark and users do; each executor then
/// runs once more traced, for the flow-stage totals. Returns the reference
/// executor's.
fn assert_fullstack_matrix_agrees(name: &str, cfg: &FullStackConfig) -> StageTotals {
    let reference = run_fullstack(cfg, Executor::Reference);
    assert!(
        reference.invariants_clean,
        "{name}: reference run left a dirty ledger"
    );
    let reference_stages = traced_stage_totals(name, cfg, Executor::Reference, &reference);
    for jobs in JOB_MATRIX {
        let got = run_fullstack(cfg, Executor::Sharded(jobs));
        assert_eq!(
            got.digest, reference.digest,
            "{name}: completion digest diverged from the reference at jobs={jobs}"
        );
        assert_eq!(
            got.ledger_digest, reference.ledger_digest,
            "{name}: telemetry ledger diverged from the reference at jobs={jobs}"
        );
        assert_eq!(
            (
                got.events,
                got.makespan,
                got.drops,
                got.retransmits,
                got.duplicates
            ),
            (
                reference.events,
                reference.makespan,
                reference.drops,
                reference.retransmits,
                reference.duplicates
            ),
            "{name}: schedule shape diverged from the reference at jobs={jobs}"
        );
        assert!(
            got.invariants_clean,
            "{name}: jobs={jobs} left a dirty ledger"
        );
        assert_eq!(
            traced_stage_totals(name, cfg, Executor::Sharded(jobs), &got),
            reference_stages,
            "{name}: flow-stage totals diverged from the reference at jobs={jobs}"
        );
    }
    reference_stages
}

#[test]
fn fullstack_figure_agrees_across_the_job_matrix() {
    for seed in [7, 4242] {
        let cfg = FullStackConfig::figure(6, seed);
        assert_fullstack_matrix_agrees(&format!("figure seed={seed}"), &cfg);
    }
}

/// `Persistent` is the one policy that reserves the UCX worker-lock
/// resource (at the sender's `pready`), besides the receive path every
/// policy reserves (at the receiver's delivery): the case in which a
/// reservation made off its owning node would race under real threads.
#[test]
fn fullstack_persistent_figure_agrees_across_the_job_matrix() {
    let mut cfg = FullStackConfig::figure(6, 7);
    cfg.partix.aggregator = partix_core::AggregatorKind::Persistent;
    assert_fullstack_matrix_agrees("persistent figure seed=7", &cfg);
}

#[test]
fn fullstack_chaos_agrees_across_the_job_matrix() {
    for seed in [7, 4242] {
        let cfg = FullStackConfig::chaos(6, 0.10, seed);
        let reference = run_fullstack(&cfg, Executor::Reference);
        assert!(
            reference.drops > 0,
            "chaos seed={seed} must actually drop packets for the test to bite"
        );
        let stages = assert_fullstack_matrix_agrees(&format!("chaos seed={seed}"), &cfg);
        let wire = stages.iter().find(|(stage, ..)| *stage == "wire_ns");
        assert!(
            wire.is_some_and(|&(_, count, _)| count > 0),
            "chaos seed={seed} must time flows on the wire for the stage comparison to bite"
        );
    }
}

#[test]
fn fullstack_figure_events_all_carry_node_affinity() {
    // The census extension of the `at_node` audit: after a full figure
    // workload every scheduler event must have been attributed to a real
    // rank — nothing in the overflow slot, and every rank's shard fielded
    // work. An unattributed event would pin work to shard 0 regardless of
    // owner, silently serialising the parallel engine.
    let cfg = FullStackConfig::figure(6, 99);
    let (report, _world, sched) = run_fullstack_observed(&cfg, Executor::Reference, None);
    assert!(report.invariants_clean);
    let census = sched.node_event_counts();
    assert_eq!(
        census.len(),
        cfg.ranks as usize + 1,
        "counters for ranks 0..ranks plus the overflow slot"
    );
    let (per_rank, overflow) = census.split_at(cfg.ranks as usize);
    assert_eq!(
        overflow,
        &[0],
        "no full-stack event may target an out-of-range node"
    );
    for (rank, &count) in per_rank.iter().enumerate() {
        assert!(count > 0, "rank {rank} fielded no node-affine events");
    }
    assert_eq!(
        census.iter().sum::<u64>(),
        report.events,
        "every executed event must be node-affine (zero slipped through \
         the non-affine `at` path)"
    );
}

#[test]
fn fullstack_figure_census_is_pinned() {
    // Recorded when every `at_node` was one shared atomic increment; the
    // per-shard censuses must sum to the same vector on the reference
    // executor, the inline loop and two worker threads.
    const CENSUS: [u64; 7] = [214, 130, 130, 130, 130, 130, 0];
    let cfg = FullStackConfig::figure(6, 99);
    for executor in [
        Executor::Reference,
        Executor::Sharded(1),
        Executor::Sharded(2),
    ] {
        let (report, _world, sched) = run_fullstack_observed(&cfg, executor, None);
        assert_eq!(report.events, 864, "{executor:?}");
        assert_eq!(sched.node_event_counts(), CENSUS, "{executor:?}");
    }
}

#[test]
fn pinned_pdes_runs_keep_their_channel_diagnostics() {
    // The benchmark's pinned `pdes_sweep` runs (seed 12, 10 000 ranks, two
    // sweeps) on the inline loop and two workers, and on the reference
    // executor, which merges after every event: `(events, cross, makespan)`
    // and the mailbox high-water mark and overflow count, as recorded when
    // every merge locked its mailbox.
    let cfg = PdesWorkloadConfig {
        sweeps: 2,
        seed: 12,
        ..PdesWorkloadConfig::new(10_000)
    };
    for (jobs, sweep_hw, fanin_hw) in [(Some(1), 16, 540), (Some(2), 16, 540), (None, 1, 1)] {
        let sweep = run_sweep(&cfg, jobs);
        let fanin = run_fanin(&cfg, jobs);
        let got = |o: &PdesOutcome| {
            let r = &o.report;
            (
                r.deterministic_parts(),
                r.channel_high_water,
                r.channel_overflows,
            )
        };
        assert_eq!(
            got(&sweep),
            ((59_601, 39_600, 525_895), sweep_hw, 0),
            "{jobs:?}"
        );
        assert_eq!(
            got(&fanin),
            ((18_749, 9_375, 12_594), fanin_hw, 0),
            "{jobs:?}"
        );
    }
}

#[test]
fn distinct_seeds_produce_distinct_digests() {
    // A digest that ignored its inputs would pass every equality test;
    // prove it is sensitive to the simulated content.
    let a = run_sweep(&PdesWorkloadConfig::new(400), Some(2));
    let mut cfg = PdesWorkloadConfig::new(400);
    cfg.seed ^= 0xDEAD;
    let b = run_sweep(&cfg, Some(2));
    assert_ne!(a.digest, b.digest);
}
