//! Programmatic paper-vs-measured verification: one row per headline
//! observable, with a PASS/WARN verdict. `figures -- check` prints the
//! table; EXPERIMENTS.md narrates the same comparisons.

use partix_core::{AggregatorKind, PartixConfig, SimDuration};
use partix_model::{table1, PLogGpModel};
use partix_workloads::sweep::{run_sweep, SweepConfig};
use partix_workloads::{run_pt2pt, Pt2PtConfig};

use crate::experiments::{overhead_ratios, timer, Quality};
use crate::report::Table;

struct Check {
    experiment: &'static str,
    observable: &'static str,
    paper: String,
    measured: String,
    pass: bool,
}

/// Run every headline check and render the verdict table.
pub fn check_table(q: Quality) -> Table {
    let mut checks: Vec<Check> = Vec::new();

    // Table I thresholds.
    let rows = table1(&PLogGpModel::niagara());
    let expected: &[(usize, u32)] = &[
        (128 << 10, 1),
        (512 << 10, 2),
        (2 << 20, 4),
        (8 << 20, 8),
        (32 << 20, 16),
        (128 << 20, 32),
    ];
    let all_match = expected.iter().all(|(bytes, t)| {
        rows.iter()
            .find(|r| r.message_bytes == *bytes)
            .is_some_and(|r| r.transport_partitions == *t)
    });
    checks.push(Check {
        experiment: "Table I",
        observable: "aggregation thresholds (6 boundaries)",
        paper: "1/2/4/8/16/32".into(),
        measured: if all_match {
            "1/2/4/8/16/32".into()
        } else {
            "MISMATCH".into()
        },
        pass: all_match,
    });

    // Fig. 8: PLogGP's speed-up over persistent.
    let persistent_cfg = || PartixConfig::with_aggregator(AggregatorKind::Persistent);
    let ploggp_cfg = || PartixConfig::with_aggregator(AggregatorKind::PLogGp);
    let speedup_at =
        |parts, size| overhead_ratios(q, parts, &[size], &persistent_cfg(), &[ploggp_cfg()])[0][0];
    let peak32 = speedup_at(32, 128 << 10);
    checks.push(Check {
        experiment: "Fig 8",
        observable: "speedup @ 32 partitions, 128 KiB",
        paper: "2.17x".into(),
        measured: format!("{peak32:.2}x"),
        pass: (1.5..4.0).contains(&peak32),
    });

    // Fig. 8 convergence at large sizes.
    let large32 = speedup_at(32, 64 << 20);
    checks.push(Check {
        experiment: "Fig 8",
        observable: "speedup @ 32 partitions, 64 MiB (bandwidth bound)",
        paper: "~1.0x".into(),
        measured: format!("{large32:.2}x"),
        pass: (large32 - 1.0).abs() < 0.15,
    });

    // Fig. 8 oversubscription blowup.
    let peak128 = speedup_at(128, 128 << 10);
    checks.push(Check {
        experiment: "Fig 8",
        observable: "speedup @ 128 partitions (oversubscribed), 128 KiB",
        paper: "up to 8.80x".into(),
        measured: format!("{peak128:.2}x"),
        pass: peak128 > 3.0,
    });

    // Fig. 9 ordering at 8 MiB: perceived GB/s of a 32-partition cell.
    let gbs = |partix: PartixConfig| {
        let cfg = Pt2PtConfig {
            warmup: q.sweep_warmup,
            iters: q.sweep_iters.max(4),
            ..Pt2PtConfig::perceived(partix, 32, 8 << 20)
        };
        run_pt2pt(&cfg).perceived_bandwidth(cfg.total_bytes()) / 1e9
    };
    let (persistent, ploggp) = (gbs(persistent_cfg()), gbs(ploggp_cfg()));
    let timer3000 = gbs(timer(3_000));
    checks.push(Check {
        experiment: "Fig 9",
        observable: "perceived BW order @ 8 MiB (GB/s)",
        paper: "persistent & timer >> plain PLogGP".into(),
        measured: format!("{persistent:.0} / {timer3000:.0} >> {ploggp:.0}"),
        pass: persistent > 2.0 * ploggp && timer3000 > 2.0 * ploggp,
    });

    let hw = PartixConfig::default().fabric.link_bandwidth() / 1e9;
    let slowest = ploggp.min(timer3000).min(persistent);
    checks.push(Check {
        experiment: "Fig 9",
        observable: "early-bird beats single-threaded hw line",
        paper: format!("all > {hw:.1} GB/s at medium sizes"),
        measured: format!("min = {slowest:.1} GB/s"),
        pass: slowest > hw * 0.9,
    });

    // Fig. 12 minimum delta at 32 threads.
    let cfg = Pt2PtConfig {
        warmup: 1,
        iters: q.sweep_iters.max(4),
        seed: 0xC1EC,
        ..Pt2PtConfig::perceived(ploggp_cfg(), 32, 8 << 20)
    };
    let delta_us = run_pt2pt(&cfg).mean_min_delta_ns().unwrap_or(0.0) / 1e3;
    checks.push(Check {
        experiment: "Fig 12",
        observable: "min delta @ 32 threads",
        paper: "~35 us".into(),
        measured: format!("{delta_us:.1} us"),
        pass: (15.0..60.0).contains(&delta_us),
    });

    // Fig. 13 robustness.
    let (b10, b100) = (gbs(timer(10)), gbs(timer(100)));
    let spread_pct = ((b10 - b100).abs() / b100) * 100.0;
    checks.push(Check {
        experiment: "Fig 13",
        observable: "delta 10 us vs 100 us perceived-BW spread",
        paper: "<= 6.15%".into(),
        measured: format!("{spread_pct:.2}%"),
        pass: spread_pct < 10.0,
    });

    // Fig. 14b ordering at 32 KiB.
    let comm = |kind: AggregatorKind| {
        let mut cfg = SweepConfig::paper_1024(PartixConfig::with_aggregator(kind), (32 << 10) / 16);
        cfg.compute = SimDuration::from_millis(1);
        cfg.noise_frac = 0.04;
        cfg.warmup = q.sweep_warmup;
        cfg.iters = q.sweep_iters;
        run_sweep(&cfg).mean_comm_ns
    };
    let sp_plg = comm(AggregatorKind::Persistent) / comm(AggregatorKind::PLogGp);
    let sp_tmr = comm(AggregatorKind::Persistent) / comm(AggregatorKind::TimerPLogGp);
    checks.push(Check {
        experiment: "Fig 14b",
        observable: "sweep comm speedup @ 1024 cores, 32 KiB",
        paper: "up to 1.63x; timer >= PLogGP".into(),
        measured: format!("PLogGP {sp_plg:.2}x, timer {sp_tmr:.2}x"),
        pass: sp_plg > 1.2 && sp_tmr >= sp_plg * 0.98,
    });

    let mut t = Table::new(
        "Paper-vs-measured verification",
        &["experiment", "observable", "paper", "measured", "verdict"],
    );
    for c in checks {
        t.push(vec![
            c.experiment.into(),
            c.observable.into(),
            c.paper,
            c.measured,
            if c.pass { "PASS".into() } else { "WARN".into() },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_headline_checks_pass() {
        let t = check_table(Quality::quick());
        let failures: Vec<String> = t
            .rows
            .iter()
            .filter(|r| r[4] != "PASS")
            .map(|r| format!("{} / {}: measured {}", r[0], r[1], r[3]))
            .collect();
        assert!(
            failures.is_empty(),
            "headline checks failed:\n{}",
            failures.join("\n")
        );
    }
}
