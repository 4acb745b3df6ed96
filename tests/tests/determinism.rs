//! Bit-reproducibility of the simulation: identical configurations produce
//! identical virtual timelines, WR counts, and figure data across runs —
//! the property that makes the regenerated figures trustworthy.

use partix_core::{AggregatorKind, PartixConfig, SimDuration};
use partix_workloads::sweep::{run_sweep, SweepConfig};
use partix_workloads::{run_pt2pt, Pt2PtConfig, ThreadTiming};

fn pt2pt_fingerprint(kind: AggregatorKind, seed: u64) -> (Vec<u64>, u64) {
    let mut partix = PartixConfig::with_aggregator(kind);
    partix.fabric.copy_data = false;
    let cfg = Pt2PtConfig {
        partix,
        partitions: 32,
        part_bytes: 8 << 10,
        warmup: 2,
        iters: 6,
        timing: ThreadTiming::perceived_bw(1, 0.04),
        seed,
    };
    let r = run_pt2pt(&cfg);
    (
        r.rounds
            .iter()
            .map(|s| s.recv_complete.as_nanos())
            .collect(),
        r.total_wrs,
    )
}

#[test]
fn pt2pt_runs_are_bit_identical() {
    for kind in [
        AggregatorKind::Persistent,
        AggregatorKind::PLogGp,
        AggregatorKind::TimerPLogGp,
    ] {
        let a = pt2pt_fingerprint(kind, 7);
        let b = pt2pt_fingerprint(kind, 7);
        assert_eq!(a, b, "{kind:?} not reproducible");
    }
}

#[test]
fn different_seeds_differ() {
    let a = pt2pt_fingerprint(AggregatorKind::PLogGp, 1);
    let b = pt2pt_fingerprint(AggregatorKind::PLogGp, 2);
    assert_ne!(a.0, b.0, "seeds must matter");
}

#[test]
fn overhead_sweep_reproducible() {
    let run = || {
        [64 << 10, 1 << 20].map(|size| {
            let partix = PartixConfig::with_aggregator(AggregatorKind::TuningTable);
            let cfg = Pt2PtConfig {
                warmup: 1,
                iters: 5,
                ..Pt2PtConfig::overhead(partix, 16, size)
            };
            let r = run_pt2pt(&cfg);
            (r.mean_total_ns().to_bits(), r.total_wrs)
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn sweep_reproducible_and_noise_sensitive() {
    let run = |noise: f64| {
        let mut cfg = SweepConfig::paper_1024(
            PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp),
            4 << 10,
        );
        cfg.rows = 4;
        cfg.cols = 4;
        cfg.threads = 8;
        cfg.compute = SimDuration::from_micros(500);
        cfg.noise_frac = noise;
        cfg.warmup = 1;
        cfg.iters = 3;
        run_sweep(&cfg).mean_total_ns.to_bits()
    };
    assert_eq!(run(0.04), run(0.04));
    assert_ne!(run(0.04), run(0.01));
}
