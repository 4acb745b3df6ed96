//! Agreement between the PLogGP model and the discrete-event simulation:
//! the model's qualitative predictions (which transport partition count
//! wins where) must hold when measured end-to-end on the simulated fabric.

use partix_core::{AggregatorKind, PartixConfig};
use partix_model::{ArrivalPattern, PLogGpModel};
use partix_workloads::overhead::forced_config;
use partix_workloads::{run_pt2pt, Pt2PtConfig};

/// Measure one forced-(T,Q) configuration under the many-before-one pattern
/// (100 ms compute, 4% noise) and return the mean total round time.
fn measure(partitions: u32, total_bytes: usize, transport: u32, qps: u32) -> f64 {
    let partix = forced_config(
        &PartixConfig::default(),
        partitions,
        total_bytes,
        transport,
        qps,
    );
    let cfg = Pt2PtConfig {
        warmup: 1,
        iters: 6,
        seed: 99,
        ..Pt2PtConfig::perceived(partix, partitions, total_bytes)
    };
    run_pt2pt(&cfg).mean_total_ns()
}

/// Large messages: the model prefers splitting, and so does the simulation.
#[test]
fn splitting_wins_for_large_messages_in_both() {
    let model = PLogGpModel::niagara();
    let size = 128 << 20;
    let m1 = model.completion_many_before_one(size, 1, 4e6);
    let m32 = model.completion_many_before_one(size, 32, 4e6);
    assert!(m32 < m1, "model must prefer 32 partitions at 128 MiB");

    let s1 = measure(32, size, 1, 1);
    let s32 = measure(32, size, 32, 16);
    assert!(
        s32 < s1,
        "simulation must agree: T=32 ({s32} ns) vs T=1 ({s1} ns) at 128 MiB"
    );
}

/// Small messages: the model prefers full aggregation; the simulation must
/// at least not punish it (near-tie or win).
#[test]
fn aggregation_not_punished_for_small_messages() {
    let model = PLogGpModel::niagara();
    let size = 32 << 10;
    assert_eq!(
        model.optimal_transport_partitions(size, 32, 4e6),
        1,
        "model fully aggregates 32 KiB"
    );
    let s1 = measure(32, size, 1, 1);
    let s32 = measure(32, size, 32, 16);
    assert!(
        s1 < s32 * 1.05,
        "T=1 ({s1} ns) should be within 5% of T=32 ({s32} ns) at 32 KiB"
    );
}

/// The model's chosen optimum is never much worse in simulation than the
/// best forced configuration across a small grid.
#[test]
fn model_choice_close_to_simulated_argmin() {
    let partitions = 16u32;
    for size in [64usize << 10, 4 << 20, 64 << 20] {
        let model_t = PLogGpModel::niagara().optimal_transport_partitions(size, partitions, 4e6);
        let model_time = measure(partitions, size, model_t, model_t.min(16));
        let mut best = f64::INFINITY;
        let mut t = 1u32;
        while t <= partitions {
            best = best.min(measure(partitions, size, t, t.min(16)));
            t <<= 1;
        }
        assert!(
            model_time <= best * 1.30,
            "at {size} bytes the model's T={model_t} ({model_time} ns) is >30% off the simulated argmin ({best} ns)"
        );
    }
}

/// Simultaneous-arrival model evaluations are internally consistent with
/// the generic pipeline evaluator at T=1.
#[test]
fn model_evaluators_agree_at_t1() {
    let m = PLogGpModel::niagara();
    for size in [1usize << 10, 1 << 20, 64 << 20] {
        let a = m.completion(size, 1, &ArrivalPattern::Simultaneous);
        let b = m.completion_pipeline(&[0.0], size);
        // Simultaneous charges G*(k-1), pipeline G*k: sub-per-mille apart.
        assert!((a - b).abs() / a < 1e-3, "{size}: {a} vs {b}");
    }
}

/// The aggregator actually consults the model: the planned transport count
/// equals the model's optimum (clamped to the user's partitions).
#[test]
fn runtime_plan_matches_model() {
    for (size, partitions) in [
        (32usize << 10, 32u32),
        (2 << 20, 32),
        (128 << 20, 32),
        (128 << 20, 8),
    ] {
        let cfg = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
        let plan = partix_core::plan_for(&cfg, partitions, size / partitions as usize);
        let expect = PLogGpModel::new(cfg.model_params).optimal_transport_partitions(
            size,
            partitions,
            cfg.decision_delay_ns,
        );
        assert_eq!(plan.groups, expect, "size {size} partitions {partitions}");
    }
}
