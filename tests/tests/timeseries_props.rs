//! Property tests over the time-series delta plane:
//!
//! - `snapshot_delta` / `snapshot_accum` round-trip: for arbitrary ledgers
//!   and arbitrary increments, the delta frame recovers the increment
//!   exactly (every counter non-negative, nothing wraps);
//! - reversed arguments saturate to zero instead of underflowing;
//! - a `Sampler` fed an arbitrary monotone snapshot sequence emits frames
//!   whose sum reproduces the final cumulative snapshot;
//! - a chaos full-stack run produces a frame sequence byte-identical across
//!   the sequential reference and the sharded executor at `--jobs 1/4`.
//!
//! The vendored proptest is deterministic (seeded from the test name, no
//! shrinking), so a green run is reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use partix_core::telemetry::{
    frames_json, snapshot_accum, snapshot_delta, CqSnapshot, QpSnapshot, Sample, SampleSource,
    Sampler, SamplerConfig, Snapshot,
};
use partix_sim::SimDuration;
use partix_workloads::fullstack::{run_fullstack_instrumented, Executor, FullStackConfig};
use proptest::prelude::*;

/// Build a full ledger snapshot (two QPs, two CQs, every field of every
/// ledger as its definition lists them) from a flat word pool. The pool
/// cycles, so any non-empty vector works.
fn build_snapshot(vals: &[u64]) -> Snapshot {
    let mut it = vals.iter().copied().cycle();
    let mut n = move || it.next().expect("non-empty pool");
    let qp = |node, qp_num| QpSnapshot {
        node,
        qp_num,
        state: "RTS",
        ..QpSnapshot::default()
    };
    let mut cq = |cq_id| CqSnapshot {
        cq_id,
        pushed_by_status: std::array::from_fn(|_| n()),
        ..CqSnapshot::default()
    };
    let mut snap = Snapshot {
        qps: vec![qp(0, 100), qp(1, 101)],
        cqs: vec![cq(7), cq(8)],
        ..Snapshot::default()
    };
    snap.for_each_ledger(|_, _, slots| slots.iter_mut().for_each(|v| **v = n()));
    snap
}

/// Assert every monotone counter of `d` is zero (gauges excluded — they are
/// carried, not subtracted).
fn assert_monotone_zero(d: &Snapshot) {
    d.clone().for_each_ledger(|ledger, defs, slots| {
        for (f, v) in defs.iter().zip(slots.iter()).filter(|(f, _)| !f.gauge) {
            assert_eq!(**v, 0, "{ledger}.{} should have saturated to zero", f.name);
        }
    });
    for c in &d.cqs {
        assert!(c.pushed_by_status.iter().all(|&s| s == 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delta/accum round-trip: with `cur = prev + inc` (same QP/CQ rows),
    /// `snapshot_delta(prev, cur)` recovers `inc` exactly — every counter
    /// is the true non-negative increment, and the live gauges carry the
    /// window-end values. Bounded below 2^40 so the accumulation itself
    /// cannot overflow.
    #[test]
    fn delta_recovers_the_increment_exactly(
        base in prop::collection::vec(0u64..1 << 40, 8..64),
        inc in prop::collection::vec(0u64..1 << 40, 8..64),
    ) {
        let prev = build_snapshot(&base);
        let inc = build_snapshot(&inc);
        let mut cur = prev.clone();
        snapshot_accum(&mut cur, &inc);
        prop_assert_eq!(snapshot_delta(&prev, &cur), inc);
    }

    /// Saturating subtraction: reversing the arguments (a "shrinking"
    /// ledger, which a real run never produces) must clamp every monotone
    /// counter to zero rather than wrapping around.
    #[test]
    fn reversed_delta_saturates_to_zero(
        base in prop::collection::vec(0u64..1 << 40, 8..64),
        inc in prop::collection::vec(1u64..1 << 40, 8..64),
    ) {
        let prev = build_snapshot(&base);
        let mut cur = prev.clone();
        snapshot_accum(&mut cur, &build_snapshot(&inc));
        assert_monotone_zero(&snapshot_delta(&cur, &prev));
    }

    /// Frame-sum law: feeding a sampler an arbitrary monotone snapshot
    /// sequence, the sum of every emitted frame reproduces the final
    /// cumulative snapshot — the end-of-run export is exactly the integral
    /// of the time series.
    #[test]
    fn frames_sum_to_the_final_cumulative_snapshot(
        increments in prop::collection::vec(
            prop::collection::vec(0u64..1 << 32, 4..24),
            1..12,
        ),
    ) {
        let mut cumulative = Vec::with_capacity(increments.len());
        let mut acc = Snapshot::default();
        for inc in &increments {
            snapshot_accum(&mut acc, &build_snapshot(inc));
            cumulative.push(acc.clone());
        }
        let last = cumulative.last().expect("at least one increment").clone();
        let observations = Arc::new(cumulative);
        let cursor = Arc::new(AtomicUsize::new(0));
        let source: SampleSource = {
            let observations = observations.clone();
            Arc::new(move || Sample {
                snapshot: observations[cursor.fetch_add(1, Ordering::Relaxed)].clone(),
                gauges: Vec::new(),
            })
        };
        let sampler = Sampler::new(
            SamplerConfig {
                interval_ns: 10,
                capacity: observations.len(),
                deterministic: false,
            },
            source,
        );
        for k in 1..=observations.len() as u64 {
            sampler.tick(k * 10);
        }
        prop_assert_eq!(sampler.frames_captured(), observations.len() as u64);
        let mut summed = Snapshot::default();
        for frame in sampler.frames() {
            snapshot_accum(&mut summed, &frame.deltas);
        }
        prop_assert_eq!(summed, last);
    }
}

/// The acceptance test: a chaos full-stack run on the sharded executor at
/// `--jobs 1` and `--jobs 4` emits a frame sequence **byte-identical** to
/// the sequential reference — the time axis is as deterministic as the
/// end-of-run digests.
#[test]
fn chaos_fullstack_frames_are_jobs_invariant() {
    let cfg = FullStackConfig::chaos(6, 0.15, 42);
    let sampling = Some((SimDuration::from_micros(100), 512));
    let run = |executor: Executor| {
        let label = executor.label();
        let (report, world, _sched) = run_fullstack_instrumented(&cfg, executor, None, sampling);
        assert!(report.invariants_clean, "{label}: dirty telemetry ledger");
        let sampler = world.sampler().expect("sampling enabled");
        frames_json(&sampler.frames())
    };
    let reference = run(Executor::Reference);
    assert!(
        !reference.is_empty(),
        "reference run captured no frames — sampling interval too coarse"
    );
    for jobs in [1usize, 4] {
        let got = run(Executor::Sharded(jobs));
        for (i, (want, have)) in reference.lines().zip(got.lines()).enumerate() {
            assert_eq!(
                want, have,
                "jobs={jobs}: frame {i} diverged from the reference"
            );
        }
        assert_eq!(
            got.lines().count(),
            reference.lines().count(),
            "jobs={jobs}: frame count diverged from the reference"
        );
    }
}
