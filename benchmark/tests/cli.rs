//! Runs the built benchmark the way the driver does, at `--quick` size, so a
//! broken benchmark is caught before the pipeline runs it.

use std::process::Command;
use std::sync::{Mutex, MutexGuard};

use partix_bench::tracefile::{parse_json, Json};
use partix_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

/// One test at a time: the workloads time themselves, two of them use every
/// core, and one test looks at what the runs leave behind.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run the binary; returns its standard output (must exit 0).
fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_partix-benchmark"))
        .args(args)
        // The benchmark must not care where it is started from or what
        // PARTIX_* says.
        .current_dir(std::env::temp_dir())
        .env("PARTIX_AGGREGATOR", "persistent")
        .env("PARTIX_DROP_P", "0.5")
        .output()
        .expect("run partix-benchmark");
    assert!(
        out.status.success(),
        "{args:?} exited {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// The metrics object of the report's last line, after checking the rest.
fn result(report: &str, want: &[MetricDef]) -> Vec<(String, f64)> {
    let last = report.lines().last().expect("a last line");
    let doc = parse_json(last).expect("last line is JSON");
    let Json::Obj(keys) = &doc else {
        panic!("result is an object")
    };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{report}");
    assert_eq!(doc.get("failed").and_then(|f| f.as_u64()), Some(0));
    assert!(doc.get("attempted").and_then(|a| a.as_u64()).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is an object")
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want_names: Vec<&str> = want.iter().map(|d| d.name).collect();
    assert_eq!(got, want_names);
    metrics
        .iter()
        .zip(want)
        .map(|((name, m), def)| {
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(def.unit));
            let Some(Json::Num(v)) = m.get("value") else {
                panic!("{name} has no numeric value")
            };
            assert!(report.contains(&format!("{name} ")), "table lacks {name}");
            (name.clone(), *v)
        })
        .collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics.iter().find(|(n, _)| n == name).expect(name).1
}

/// The `digest ...` a simulator workload prints.
fn digest(report: &str) -> &str {
    let at = report.find("digest ").expect("a digest line") + "digest ".len();
    &report[at..at + 16]
}

#[test]
fn every_workload_reports_every_metric_in_both_runs() {
    let _serial = serial();
    for w in &WORKLOADS {
        let plain = bench(&[
            "--workload",
            w.name,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ]);
        for (name, v) in result(&plain, &END_TO_END) {
            assert!(v > 0.0, "{}: {name} = {v}", w.name);
        }
        let traced = bench(&[
            "--workload",
            w.name,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--quick",
        ]);
        let layers = result(&traced, &PER_LAYER);
        assert!(value(&layers, "trace_spans") > 0.0, "{}", w.name);
        assert!(traced.contains("# wrote "), "no trace file named");
    }
    // Nothing is left behind but the trace files.
    let out = partix_benchmark::out_dir();
    let left: Vec<_> = std::fs::read_dir(&out)
        .expect("out/ exists after a traced run")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| !(n.starts_with("trace_") && n.ends_with(".json")))
        .collect();
    assert!(left.is_empty(), "left in out/: {left:?}");
}

#[test]
fn each_layer_metric_is_filled_by_its_workload() {
    let _serial = serial();
    let filled = |workload: &str, names: &[&str]| {
        let traced = bench(&["--workload", workload, "--trace", "1", "--quick"]);
        let layers = result(&traced, &PER_LAYER);
        for name in names {
            assert!(value(&layers, name) > 0.0, "{workload}: {name} is 0");
        }
        // A layer the workload does not pass through reads 0.
        let bit = WORKLOADS.iter().find(|w| w.name == workload).unwrap().bit;
        for def in PER_LAYER.iter().filter(|d| d.by & bit == 0) {
            assert_eq!(value(&layers, def.name), 0.0, "{workload}: {}", def.name);
        }
    };
    filled(
        "pdes_sweep",
        &[
            "sim.pdes.inline_ns_per_event",
            "sim.pdes.fanin_ns_per_event",
            "sim.pdes.jobs2_ns_per_event",
            "sim.pdes.epochs",
        ],
    );
    filled(
        "instant_pready",
        &[
            "core.request.pready_ns_aggregated",
            "core.request.partitions_per_wr",
            "verbs.qp.post_send_ns",
            "verbs.memory.copy_gb_per_s",
        ],
    );
    filled(
        "shm_exchange",
        &[
            "verbs.shm.oneway_p50_us",
            "verbs.shm.ring_file_push_pop_ns",
            "verbs.shm.stream_gb_per_s",
        ],
    );
    filled(
        "fullstack_ring",
        &[
            "verbs.fabric_lossy.dropped",
            "verbs.fabric_lossy.events_per_s",
            "telemetry.snapshot_us",
            "workloads.fullstack.events",
        ],
    );
    filled(
        "figures_full",
        &[
            "bench.experiments.fig14_s",
            "sim.scheduler.chain_ns",
            "workloads.sweep.paper_1024_s",
        ],
    );
}

#[test]
fn seed_is_live_and_one_seed_repeats_exactly() {
    let _serial = serial();
    for (workload, counts) in [
        (
            "fullstack_ring",
            &[
                "workloads.fullstack.events",
                "workloads.fullstack.sim_makespan_ms",
                "verbs.fabric_lossy.dropped",
            ][..],
        ),
        (
            "pdes_sweep",
            &[
                "sim.pdes.events",
                "sim.pdes.epochs",
                "sim.pdes.cross_shard_msgs",
                "sim.pdes.sim_makespan_ms",
            ][..],
        ),
    ] {
        let run = |seed: &str| {
            bench(&[
                "--workload",
                workload,
                "--seed",
                seed,
                "--trace",
                "1",
                "--quick",
            ])
        };
        let (a, again, b) = (run("11"), run("11"), run("12"));
        assert_eq!(
            digest(&a),
            digest(&again),
            "{workload}: one seed, two digests"
        );
        assert_ne!(digest(&a), digest(&b), "{workload}: two seeds, one digest");
        let (ma, magain) = (result(&a, &PER_LAYER), result(&again, &PER_LAYER));
        for name in counts {
            assert_eq!(value(&ma, name), value(&magain, name), "{workload}: {name}");
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let _serial = serial();
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "3"][..],
        &["pdes_sweep"][..],
        &["--workload", "pdes_sweep", "--trace"][..],
        &[][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_partix-benchmark"))
            .args(args)
            .output()
            .expect("run partix-benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
