//! Shape tests for the paper's headline claims: each asserts the
//! *qualitative* result of one experiment (who wins, roughly by how much,
//! where crossovers fall) with reduced iteration counts. EXPERIMENTS.md
//! records the quantitative paper-vs-measured comparison from full runs.

use partix_core::{AggregatorKind, PartixConfig, SimDuration};
use partix_model::{table1, PLogGpModel, DEFAULT_DECISION_DELAY_NS};
use partix_workloads::sweep::{run_sweep, SweepConfig};
use partix_workloads::{run_pt2pt, Pt2PtConfig};

/// Speed-up of PLogGP over persistent in an overhead cell at 2 + 10 rounds.
fn ploggp_speedup(partitions: u32, size: usize) -> f64 {
    let mean_ns = |kind| {
        let cfg = Pt2PtConfig {
            warmup: 2,
            iters: 10,
            ..Pt2PtConfig::overhead(PartixConfig::with_aggregator(kind), partitions, size)
        };
        run_pt2pt(&cfg).mean_total_ns()
    };
    mean_ns(AggregatorKind::Persistent) / mean_ns(AggregatorKind::PLogGp)
}

/// Perceived bandwidth of a 32-partition, 8 MiB cell at 1 + 5 rounds.
fn perceived_8mib(kind: AggregatorKind, delta_us: Option<u64>) -> f64 {
    let mut partix = PartixConfig::with_aggregator(kind);
    if let Some(d) = delta_us {
        partix.delta = SimDuration::from_micros(d);
    }
    let cfg = Pt2PtConfig {
        warmup: 1,
        iters: 5,
        ..Pt2PtConfig::perceived(partix, 32, 8 << 20)
    };
    run_pt2pt(&cfg).perceived_bandwidth(cfg.total_bytes())
}

/// Table I reproduces the paper's exact aggregation thresholds.
#[test]
fn claim_table1_thresholds() {
    let rows = table1(&PLogGpModel::niagara());
    let lookup = |bytes: usize| {
        rows.iter()
            .find(|r| r.message_bytes == bytes)
            .unwrap()
            .transport_partitions
    };
    assert_eq!(lookup(128 << 10), 1);
    assert_eq!(lookup(512 << 10), 2);
    assert_eq!(lookup(2 << 20), 4);
    assert_eq!(lookup(8 << 20), 8);
    assert_eq!(lookup(32 << 20), 16);
    assert_eq!(lookup(128 << 20), 32);
}

/// Fig. 8 (32 partitions): the aggregators beat the persistent baseline by
/// around 2x in the medium range and converge toward 1.0 at large sizes.
#[test]
fn claim_medium_message_speedup_32_partitions() {
    let medium = ploggp_speedup(32, 128 << 10);
    let large = ploggp_speedup(32, 64 << 20);
    assert!(
        medium > 1.5 && medium < 4.0,
        "128 KiB speedup should be ~2x (paper: 2.17x), got {medium}"
    );
    assert!(
        (large - 1.0).abs() < 0.15,
        "64 MiB speedup should approach 1.0 (bandwidth bound), got {large}"
    );
}

/// Fig. 8 (128 partitions): oversubscription makes aggregation win big.
#[test]
fn claim_oversubscription_blowup_128_partitions() {
    let sp = ploggp_speedup(128, 128 << 10);
    assert!(
        sp > 3.0,
        "128 partitions at 128 KiB should show a large win (paper: up to 8.8x), got {sp}"
    );
}

/// Fig. 9 ordering at a medium size: persistent and timer far above plain
/// PLogGP; everything above the single-threaded hardware line.
#[test]
fn claim_perceived_bandwidth_ordering() {
    let hw = PartixConfig::default().fabric.link_bandwidth();
    let persistent = perceived_8mib(AggregatorKind::Persistent, None);
    let ploggp = perceived_8mib(AggregatorKind::PLogGp, None);
    let timer = perceived_8mib(AggregatorKind::TimerPLogGp, Some(3_000));
    assert!(
        persistent > 2.0 * ploggp,
        "persistent {persistent:.3e} vs ploggp {ploggp:.3e}"
    );
    assert!(
        timer > 2.0 * ploggp,
        "timer {timer:.3e} vs ploggp {ploggp:.3e}"
    );
    for (name, bw) in [
        ("persistent", persistent),
        ("ploggp", ploggp),
        ("timer", timer),
    ] {
        assert!(
            bw > hw * 0.9,
            "{name} perceived bandwidth {bw:.3e} should not fall below the hw line {hw:.3e} at 8 MiB"
        );
    }
}

/// Fig. 13: the timer is robust to a 10x delta mis-tuning (paper: at most
/// 6.15% between 10 us and 100 us).
#[test]
fn claim_delta_window_is_forgiving() {
    let bw = |delta_us: u64| perceived_8mib(AggregatorKind::TimerPLogGp, Some(delta_us));
    let (b10, b35, b100) = (bw(10), bw(35), bw(100));
    let spread = (b10.max(b35).max(b100) - b10.min(b35).min(b100)) / b35;
    assert!(
        spread < 0.10,
        "perceived bandwidth should vary <10% across delta in [10, 100] us, got {:.1}%",
        spread * 100.0
    );
}

/// Fig. 14b: at medium message sizes on the 1024-core sweep, both designs
/// beat the baseline and the timer beats plain PLogGP.
#[test]
fn claim_sweep_speedup_ordering() {
    let comm = |kind: AggregatorKind| {
        let mut cfg = SweepConfig::paper_1024(PartixConfig::with_aggregator(kind), (32 << 10) / 16);
        cfg.compute = SimDuration::from_millis(1);
        cfg.noise_frac = 0.04;
        cfg.warmup = 1;
        cfg.iters = 3;
        run_sweep(&cfg).mean_comm_ns
    };
    let persistent = comm(AggregatorKind::Persistent);
    let ploggp = comm(AggregatorKind::PLogGp);
    let timer = comm(AggregatorKind::TimerPLogGp);
    assert!(
        persistent / ploggp > 1.2,
        "ploggp should beat persistent at 32 KiB (got {:.2}x)",
        persistent / ploggp
    );
    assert!(
        timer <= ploggp * 1.02,
        "timer ({timer}) should be at least as good as ploggp ({ploggp})"
    );
}

/// The Netgauge→PLogGP loop on the simulated fabric yields monotone
/// aggregation decisions that split large messages.
#[test]
fn claim_netgauge_fit_loop() {
    use partix_model::netgauge::assess;
    use partix_workloads::netgauge_provider::SimNetgauge;
    let mut ng = SimNetgauge::new(PartixConfig::default());
    let fitted = PLogGpModel::new(assess(&mut ng).params);
    let small = fitted.optimal_transport_partitions(64 << 10, 32, DEFAULT_DECISION_DELAY_NS);
    let large = fitted.optimal_transport_partitions(256 << 20, 32, DEFAULT_DECISION_DELAY_NS);
    assert!(small <= 4, "64 KiB should mostly aggregate, got {small}");
    assert!(large >= 8, "256 MiB should split, got {large}");
}

/// Fig. 12 scale: the estimated minimum delta for 32 threads lands near the
/// paper's ~35 us.
#[test]
fn claim_min_delta_scale() {
    let partix = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    let cfg = Pt2PtConfig {
        warmup: 1,
        iters: 5,
        seed: 42,
        ..Pt2PtConfig::perceived(partix, 32, 8 << 20)
    };
    let mean_ns = run_pt2pt(&cfg).mean_min_delta_ns();
    let mean_us = mean_ns.expect("a round with a laggard yields a delta") / 1e3;
    assert!(
        (15.0..60.0).contains(&mean_us),
        "min delta for 32 threads should be ~35 us (paper), got {mean_us:.1} us"
    );
}
