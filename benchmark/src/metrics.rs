//! The names the benchmark reports, and the report of one run.
//!
//! `../BENCHMARK.json` lists the same names; a test keeps the two equal.
//! Every workload reports every end-to-end metric (untraced run) and every
//! per-layer metric (traced run). A per-layer metric belongs to the workloads
//! that pass through its layer ([`MetricDef::by`]): on those it must be
//! measured, on the others it reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
    /// What one unit of `work_per_s` is on this workload.
    pub work_unit: &'static str,
    /// This workload's bit in [`MetricDef::by`].
    pub bit: u8,
}

/// Bits of [`MetricDef::by`], one per workload.
pub const FIGURES: u8 = 1;
/// `fullstack_ring`.
pub const FULLSTACK: u8 = 2;
/// `pdes_sweep`.
pub const PDES: u8 = 4;
/// `instant_pready`.
pub const INSTANT: u8 = 8;
/// `shm_exchange`.
pub const SHM: u8 = 16;
/// Every workload.
pub const ALL: u8 = 31;

/// The five workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "figures_full",
        why: "What a reader of the paper runs: every table of `figures --quick all` plus `check`, all on the sequential Scheduler + SimFabric + model; nothing real-time. work = fig14 sweep iterations.",
        work_unit: "1024-core sweep iterations of fig14",
        bit: FIGURES,
    },
    WorkloadDef {
        name: "fullstack_ring",
        why: "Aggregation + verbs pipeline on the PDES inline engine, 16-rank ring, on a clean wire and then under 10% loss: core and verbs do most of each event. work = clean-wire events.",
        work_unit: "events on the clean wire",
        bit: FULLSTACK,
    },
    WorkloadDef {
        name: "pdes_sweep",
        why: "The event engine alone (no core, no verbs): 400k-rank wavefront, then a fan-in tree, on the inline engine. A core/verbs change must not move it. work = wavefront events.",
        work_unit: "wavefront events",
        bit: PDES,
    },
    WorkloadDef {
        name: "instant_pready",
        why: "The runtime with no simulator under it: persistent (verbs-bound), aggregated (pready-bound) and 64 KiB (copy-bound) phases on World::instant. work = aggregated partitions.",
        work_unit: "partitions on the aggregated path",
        bit: INSTANT,
    },
    WorkloadDef {
        name: "shm_exchange",
        why: "The real-time ShmFabric over file segments, two threads on one host (loopback, no link): 64 B stream, 64 KiB stream, ping-pong. Bypasses partix-sim. work = 64 B messages.",
        work_unit: "64 B messages",
        bit: SHM,
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a run reports.
pub struct MetricDef {
    /// Name, `<crate>.<module>.<what>` for a layer metric.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for per-layer metrics, which are not gated.
    pub bound: f64,
    /// The workloads (bits) that measure it. They must; on the others a
    /// per-layer metric reads 0.
    pub by: u8,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        by: ALL,
    }
}

const fn lower(name: &'static str, unit: &'static str, by: u8) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        by,
    }
}

const fn higher(name: &'static str, unit: &'static str, by: u8) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
        by,
    }
}

/// End-to-end metrics, measured with tracing off. Each is defined on every
/// workload (README.md says what it is on each). The bounds are three times
/// the widest spread CALIBRATION.md records for the metric on any workload,
/// up to the 0.25 the driver allows.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Per-layer metrics, measured in the traced run. `count` metrics repeat
/// exactly for one seed; times in `sim_ms` are virtual, so they do too.
pub const PER_LAYER: [MetricDef; 62] = [
    // partix-sim
    lower("sim.scheduler.post_dispatch_ns", "ns", FIGURES),
    lower("sim.scheduler.chain_ns", "ns", FIGURES),
    lower("sim.pdes.inline_ns_per_event", "ns", PDES),
    lower("sim.pdes.fanin_ns_per_event", "ns", PDES),
    lower("sim.pdes.reference_ns_per_event", "ns", PDES),
    lower("sim.pdes.jobs2_ns_per_event", "ns", PDES),
    lower("sim.pdes.jobs2_barrier_wait_share", "share", PDES),
    lower("sim.pdes.events", "count", PDES),
    lower("sim.pdes.epochs", "count", PDES),
    lower("sim.pdes.cross_shard_msgs", "count", PDES),
    lower("sim.pdes.sim_makespan_ms", "sim_ms", PDES),
    // partix-model
    lower("model.optimal.table1_us", "us", FIGURES),
    // partix-verbs
    lower("verbs.qp.post_send_ns", "ns", INSTANT),
    lower("verbs.qp.post_send_batch_ns_per_wr", "ns", INSTANT),
    lower("verbs.cq.poll_ns_per_cqe", "ns", INSTANT),
    higher("verbs.memory.copy_gb_per_s", "GB/s", INSTANT | SHM),
    higher("verbs.arena.pool_hit_share", "share", INSTANT),
    higher("verbs.fabric_lossy.events_per_s", "1/s", FULLSTACK),
    lower("verbs.fabric_lossy.retransmits", "count", FULLSTACK),
    lower("verbs.fabric_lossy.dropped", "count", FULLSTACK),
    lower("verbs.fabric_lossy.sim_makespan_ms", "sim_ms", FULLSTACK),
    lower("verbs.shm.ring_heap_push_pop_ns", "ns", SHM),
    lower("verbs.shm.ring_file_push_pop_ns", "ns", SHM),
    higher("verbs.shm.ring_file_gb_per_s", "GB/s", SHM),
    higher("verbs.shm.stream_msgs_per_s", "1/s", SHM),
    higher("verbs.shm.stream_gb_per_s", "GB/s", SHM),
    lower("verbs.shm.oneway_p50_us", "us", SHM),
    lower("verbs.shm.oneway_tail_us", "us", SHM),
    lower("verbs.shm.progress_iters_per_msg", "1/msg", SHM),
    lower("verbs.shm.wakeups_per_msg", "1/msg", SHM),
    lower("verbs.shm.ring_full_stalls", "count", SHM),
    lower("verbs.shm.retransmits", "count", SHM),
    lower("verbs.shm.rnr_deferrals", "count", SHM),
    lower("verbs.shm.out_of_order", "count", SHM),
    // partix-core
    lower("core.world.setup_us", "us", INSTANT),
    lower("core.request.start_ns", "ns", INSTANT),
    lower("core.request.pready_ns_persistent", "ns", INSTANT),
    lower("core.request.pready_ns_aggregated", "ns", INSTANT),
    lower("core.request.wait_ns", "ns", INSTANT),
    higher("core.request.persistent_msgs_per_s", "1/s", INSTANT),
    higher("core.request.aggregated_parts_per_s", "1/s", INSTANT),
    higher("core.request.bulk_gb_per_s", "GB/s", INSTANT),
    higher("core.request.partitions_per_wr", "count", INSTANT),
    lower("core.request.preadys", "count", INSTANT),
    // partix-telemetry, through World
    lower("telemetry.snapshot_us", "us", FULLSTACK),
    // partix-workloads
    lower("workloads.runner.pt2pt_round_us", "us", FIGURES),
    lower("workloads.sweep.paper_1024_s", "s", FIGURES),
    lower("workloads.fullstack.setup_s", "s", FULLSTACK),
    lower("workloads.fullstack.events", "count", FULLSTACK),
    lower("workloads.fullstack.sim_makespan_ms", "sim_ms", FULLSTACK),
    higher(
        "workloads.fullstack.reference_events_per_s",
        "1/s",
        FULLSTACK,
    ),
    higher("workloads.fullstack.jobs2_events_per_s", "1/s", FULLSTACK),
    // partix-bench
    lower("bench.experiments.fig6_s", "s", FIGURES),
    lower("bench.experiments.fig7_s", "s", FIGURES),
    lower("bench.experiments.fig8_s", "s", FIGURES),
    lower("bench.experiments.fig9_s", "s", FIGURES),
    lower("bench.experiments.fig10_13_s", "s", FIGURES),
    lower("bench.experiments.fig14_s", "s", FIGURES),
    lower("bench.experiments.check_s", "s", FIGURES),
    lower("bench.experiments.rest_s", "s", FIGURES),
    // the benchmark itself
    lower("trace_overhead_share", "share", ALL),
    lower("trace_spans", "count", ALL),
];

/// Look up a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Checks made and checks that failed, counted where they are made so that
/// both are in the same unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one check; returns `ok`.
    #[inline]
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// Add the checks `other` counted.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one run found.
pub struct Report {
    /// Workload run.
    pub workload: &'static WorkloadDef,
    /// Whether this was the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static WorkloadDef, traced: bool) -> Self {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Count `n` attempted operations of which `failed` failed, both in the
    /// same unit; `what` names them in the report when any did.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        assert!(failed <= n, "{failed} of {n} failed: {what}");
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.lines.push(format!("FAILED {failed}/{n}: {what}"));
        }
    }

    /// Count one attempted operation that succeeded iff `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.ops(1, u64::from(!ok), what);
    }

    /// Count the checks of `tally`.
    pub fn tally(&mut self, tally: Tally, what: &str) {
        self.ops(tally.attempted, tally.failed, what);
    }

    /// Record metric `name`. Metrics of the other run kind are dropped, so a
    /// workload reports what it measured without asking which run this is;
    /// an undeclared name, or one that belongs to other workloads, is a bug
    /// in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        assert!(
            def.by & self.workload.bit != 0,
            "metric {name} does not belong to {}",
            self.workload.name
        );
        if self.defs().iter().any(|d| d.name == name) {
            self.values.insert(name, value);
        }
    }

    /// Add a free-form line (sample counts, sizes, host facts) to the
    /// human-readable part of the report.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Whether every output checked was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Render the report: a table of every metric by name with its unit, the
    /// notes, and as the last line the JSON object the driver reads.
    ///
    /// Fails when nothing was attempted, when a metric this workload owns
    /// was not measured or is not finite, or when an end-to-end metric is
    /// not positive: the driver must never see a made-up number. A per-layer
    /// metric of a layer the workload does not pass through reads 0.
    pub fn render(&self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut out = String::new();
        let kind = if self.traced {
            "traced run, per-layer metrics"
        } else {
            "untraced run, end-to-end metrics"
        };
        let _ = writeln!(out, "# partix benchmark: {} ({kind})", self.workload.name);
        let _ = writeln!(out, "# work_per_s counts {}", self.workload.work_unit);
        for line in &self.lines {
            let _ = writeln!(out, "# {line}");
        }
        let mut json = String::new();
        for (i, def) in self.defs().iter().enumerate() {
            let value = match self.values.get(def.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {} is {v}", def.name)),
                None if def.by & self.workload.bit == 0 => 0.0,
                None => return Err(format!("metric {} was not measured", def.name)),
            };
            if !self.traced && value <= 0.0 {
                return Err(format!("end-to-end metric {} is {value}", def.name));
            }
            let _ = writeln!(out, "{:<44} {:>20} {}", def.name, value, def.unit);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        let _ = writeln!(
            out,
            "attempted {} operations, {} failed",
            self.attempted, self.failed
        );
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_bench::tracefile::{parse_json, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name").into())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_names() {
        let doc = benchmark_json();
        let declared = |defs: &[MetricDef]| -> Vec<String> {
            defs.iter().map(|d| d.name.to_string()).collect()
        };
        assert_eq!(names(&doc, "end_to_end"), declared(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), declared(&PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (m, def) in doc.get(key).unwrap().as_arr().unwrap().iter().zip(defs) {
                assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(def.unit));
                let better = m.get("better").and_then(|b| b.as_str());
                assert_eq!(better, Some(def.better.as_str()), "{}", def.name);
                if key == "end_to_end" {
                    let Some(Json::Num(bound)) = m.get("bound") else {
                        panic!("{} has no bound", def.name)
                    };
                    assert_eq!(*bound, def.bound, "{}", def.name);
                }
            }
        }
        for (w, def) in doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(|y| y.as_str()), Some(def.why));
            assert!(
                def.why.len() <= 200 && !def.why.contains('\n'),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name);
        for name in all.chain(WORKLOADS.iter().map(|w| w.name)) {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn rendered_report_parses_and_names_every_metric() {
        for traced in [false, true] {
            let mut r = Report::new(&WORKLOADS[0], traced);
            let owned = |d: &&MetricDef| d.by & FIGURES != 0;
            for def in END_TO_END.iter().chain(&PER_LAYER).filter(owned) {
                r.set(def.name, 1.25);
            }
            r.ops(9, 0, "verdicts");
            let text = r.render().expect("complete report renders");
            let last = text.lines().last().unwrap();
            let doc = parse_json(last).expect("last line is JSON");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(doc.get("attempted").and_then(|a| a.as_u64()), Some(9));
            assert_eq!(doc.get("failed").and_then(|a| a.as_u64()), Some(0));
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("metrics is an object")
            };
            let want = if traced {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want_names: Vec<&str> = want.iter().map(|d| d.name).collect();
            assert_eq!(got, want_names);
            for def in want {
                assert!(text.contains(def.name), "table lacks {}", def.name);
            }
        }
    }

    #[test]
    fn missing_or_zero_end_to_end_metric_is_refused() {
        let mut r = Report::new(&WORKLOADS[0], false);
        r.check(true, "an operation");
        assert!(r.render().is_err());
        for def in &END_TO_END {
            r.set(def.name, 0.0);
        }
        assert!(r.render().is_err());
        r.check(false, "a digest differed");
        assert!(!r.correct());
    }

    #[test]
    fn an_owned_layer_metric_must_be_measured_and_the_others_read_zero() {
        let mut r = Report::new(&WORKLOADS[2], true);
        r.check(true, "an operation");
        let owned = |d: &&MetricDef| d.by & PDES != 0;
        let mut mine = PER_LAYER.iter().filter(owned);
        let last = mine.next_back().expect("pdes_sweep owns metrics");
        for def in mine {
            r.set(def.name, 2.0);
        }
        let missing = r.render().expect_err("one owned metric is unset");
        assert!(missing.contains(last.name), "{missing}");
        r.set(last.name, 2.0);
        let text = r.render().expect("every owned metric is set");
        assert!(text.contains("\"core.request.wait_ns\": {\"value\": 0,"));
    }

    #[test]
    fn a_report_with_nothing_attempted_is_refused() {
        let mut r = Report::new(&WORKLOADS[0], false);
        for def in &END_TO_END {
            r.set(def.name, 1.0);
        }
        assert!(r.render().is_err());
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn setting_another_workloads_metric_is_a_bug() {
        Report::new(&WORKLOADS[2], true).set("core.request.wait_ns", 1.0);
    }
}
