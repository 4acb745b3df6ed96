//! Fully-observed experiment runs: telemetry snapshot + invariant report +
//! causal flow trace from one workload execution.
//!
//! This is the `--trace` backend of the benchmark binaries: run a workload
//! with causal flow tracing attached; freeze the telemetry ledger at
//! quiescence; reconcile it against the conservation laws; and (optionally)
//! write the artifacts next to the other results. The flow log is the one
//! trace source: the trace file's chrome-trace events are a view rendered
//! from it. Open the trace file at `chrome://tracing` or
//! <https://ui.perfetto.dev>, or feed it to the `trace` analyzer binary.
//!
//! # Artifact naming
//!
//! [`TraceArtifacts::write_to`] takes a workload *tag* and writes
//! `telemetry_<tag>.json` and `trace_<tag>.json`, so traced runs of
//! different workloads into one `results/` directory never overwrite each
//! other. Tags are lowercase `[a-z0-9_]` identifiers (e.g. `figure9`,
//! `fault_chaos`); the binaries derive them from the sweep cell they are
//! tracing.

use std::path::Path;

use partix_core::telemetry::{
    write_telemetry_json, write_trace_json, FlowEvent, FlowLog, Frame, HistSnapshot,
};
use partix_core::{invariants, SimDuration, Snapshot};
use partix_profiler::assemble_chains;

use crate::runner::{run_pt2pt_instrumented, Pt2PtConfig, Pt2PtResult};

/// Everything one traced run produces.
pub struct TraceArtifacts {
    /// The workload result itself.
    pub result: Pt2PtResult,
    /// Telemetry ledger frozen at quiescence.
    pub snapshot: Snapshot,
    /// The conservation-law reconciliation of that snapshot.
    pub report: invariants::Report,
    /// Causal flow events, sorted by `(flow, ts, stage)`.
    pub flows: Vec<FlowEvent>,
    /// Per-stage residency histogram snapshots.
    pub stages: Vec<(&'static str, HistSnapshot)>,
    /// Windowed time-series frames, when sampling was enabled (empty
    /// otherwise).
    pub frames: Vec<Frame>,
}

impl TraceArtifacts {
    /// Write `telemetry_<tag>.json` (ledger + invariant verdict) and
    /// `trace_<tag>.json` (flow events + their chrome-trace view + stage
    /// histograms + frames) into `dir`, creating it if needed. Returns the
    /// number of chrome-trace events written.
    pub fn write_to(&self, dir: &Path, tag: &str) -> std::io::Result<usize> {
        write_telemetry_json(
            &dir.join(format!("telemetry_{tag}.json")),
            &self.snapshot,
            &self.report,
        )?;
        write_trace_json(
            &dir.join(format!("trace_{tag}.json")),
            tag,
            &self.flows,
            &self.stages,
            &self.frames,
        )
    }

    /// Causal-chain violations across every arrived flow (empty on a
    /// healthy trace): missing spans or non-monotone `post ≤ wire ≤ CQE ≤
    /// arrival` orderings, including across retransmits.
    pub fn chain_violations(&self) -> Vec<String> {
        assemble_chains(&self.flows)
            .iter()
            .flat_map(|c| c.violations())
            .collect()
    }
}

/// Run `cfg` with causal flow tracing attached and, when `sampling` is
/// `Some((interval, capacity))`, windowed time-series sampling: the trace
/// file then gains per-window counter events and a `"frames"` array of
/// ledger deltas.
pub fn run_traced(cfg: &Pt2PtConfig, sampling: Option<(SimDuration, usize)>) -> TraceArtifacts {
    let flow_log = FlowLog::new();
    let (result, world) = run_pt2pt_instrumented(cfg, Some(flow_log.clone()), sampling);
    let snapshot = world.telemetry_snapshot();
    let report = invariants::check(&snapshot);
    let flows = flow_log.sorted();
    let stages = world.telemetry().flows.stages.snapshot();
    let now_ns = world.now().as_nanos();
    let frames = world.sampler().map_or_else(Vec::new, |s| {
        // Close the final partial window so the frame stream covers the
        // whole run.
        s.capture(now_ns);
        s.frames()
    });
    TraceArtifacts {
        result,
        snapshot,
        report,
        flows,
        stages,
        frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::ThreadTiming;
    use partix_core::telemetry::{parse_json, FlowStage, Json};
    use partix_core::{AggregatorKind, PartixConfig, World};

    fn cfg(kind: AggregatorKind) -> Pt2PtConfig {
        let mut partix = PartixConfig::with_aggregator(kind);
        partix.fabric.copy_data = false;
        Pt2PtConfig {
            partix,
            partitions: 8,
            part_bytes: 4096,
            warmup: 1,
            iters: 3,
            timing: ThreadTiming::overhead(),
            seed: 11,
        }
    }

    /// A scratch directory unique to this process and `name`.
    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("partix-{name}-{}", std::process::id()))
    }

    /// The `ph: "X"` events of a written trace file.
    fn x_spans(path: &Path) -> Vec<Json> {
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let x = Json::from("X");
        events
            .iter()
            .filter(|e| e.get("ph") == Some(&x))
            .cloned()
            .collect()
    }

    #[test]
    fn traced_run_is_clean_and_produces_spans() {
        let art = run_traced(&cfg(AggregatorKind::TimerPLogGp), None);
        assert_eq!(art.result.rounds.len(), 3);
        art.report.assert_clean();
        // The ledger saw the workload: 8 partitions x 4 rounds.
        assert_eq!(art.snapshot.runtime.preadys, 32);
        assert!(art.snapshot.wire.delivered > 0);
        // Every posted WR minted a flow, each causally complete.
        assert_eq!(
            art.flows
                .iter()
                .filter(|e| e.stage == FlowStage::Posted)
                .count() as u64,
            art.result.total_wrs
        );
        assert!(art.chain_violations().is_empty());
        // Stage histograms saw wire time for every transfer.
        let wire = art
            .stages
            .iter()
            .find(|(n, _)| *n == "wire_ns")
            .map(|(_, h)| h.count)
            .unwrap_or(0);
        assert_eq!(wire, art.result.total_wrs);

        // The chrome-trace view is the flow log's: every X span lies inside
        // its flow's [Posted − hold, last event], and there is one per pair
        // of consecutive events plus one per non-zero hold.
        let dir = scratch("trace-spans");
        art.write_to(&dir, "spans").unwrap();
        let spans = x_spans(&dir.join("trace_spans.json"));
        std::fs::remove_dir_all(&dir).ok();
        let mut bounds = std::collections::BTreeMap::<u64, (u64, u64)>::new();
        let mut holds = 0;
        for e in &art.flows {
            let mut lo = e.ts_ns;
            if e.stage == FlowStage::Posted && e.aux > 0 {
                lo -= e.aux;
                holds += 1;
            }
            let b = bounds.entry(e.flow).or_insert((lo, e.ts_ns));
            *b = (b.0.min(lo), b.1.max(e.ts_ns));
        }
        assert!(holds > 0, "the timer policy held no partition");
        assert_eq!(spans.len(), art.flows.len() - bounds.len() + holds);
        let us = |s: &Json, k: &str| match s.get(k) {
            Some(Json::Num(v)) => *v,
            other => panic!("{k}: {other:?}"),
        };
        for s in &spans {
            assert_eq!(s.get("cat"), Some(&Json::from("flow")));
            let flow = s.get("args").and_then(|a| a.get("flow"));
            let (lo, hi) = bounds[&flow.and_then(Json::as_u64).unwrap()];
            let (ts, end) = (us(s, "ts"), us(s, "ts") + us(s, "dur"));
            let eps = 1e-6;
            assert!(
                lo as f64 / 1e3 - eps <= ts && end <= hi as f64 / 1e3 + eps,
                "{s}"
            );
        }
    }

    #[test]
    fn tracing_does_not_change_results() {
        let c = cfg(AggregatorKind::PLogGp);
        let plain = crate::runner::run_pt2pt(&c);
        let traced = run_traced(&c, None);
        let t1: Vec<u64> = plain.rounds.iter().map(|r| r.total().as_nanos()).collect();
        let t2: Vec<u64> = traced
            .result
            .rounds
            .iter()
            .map(|r| r.total().as_nanos())
            .collect();
        assert_eq!(t1, t2, "observability must not perturb virtual time");
    }

    /// Every flow event names its QP by number, and the runtime's stages
    /// agree with the fabric's. `Persistent` drives two QPs per channel, so
    /// the channel's QP indices (0, 1) are not the QP numbers, and 64 WRs
    /// against the 16-WR cap make some of them spill.
    #[test]
    fn flow_events_name_real_queue_pairs() {
        let mut c = cfg(AggregatorKind::Persistent);
        c.partitions = 64;
        let art = run_traced(&c, None);
        assert!(art.flows.iter().all(|e| e.qp != 0), "an event on QP 0");
        let chains = assemble_chains(&art.flows);
        let mut send_qps = std::collections::BTreeSet::new();
        let mut spilled = 0;
        for chain in &chains {
            let qp = |stage| chain.events.iter().find(|e| e.stage == stage).map(|e| e.qp);
            let posted = qp(FlowStage::Posted).expect("posted");
            send_qps.insert(posted);
            assert_eq!(
                qp(FlowStage::WireSubmit),
                Some(posted),
                "flow {}",
                chain.flow
            );
            for stage in [FlowStage::CapQueued, FlowStage::CapDequeued] {
                if let Some(q) = qp(stage) {
                    assert_eq!(q, posted, "flow {} {stage:?}", chain.flow);
                    spilled += 1;
                }
            }
            let arrived = qp(FlowStage::Arrived).expect("arrived");
            assert_eq!(Some(arrived), qp(FlowStage::RecvCqe), "flow {}", chain.flow);
        }
        assert_eq!(send_qps.len(), 2, "{send_qps:?}");
        assert!(spilled > 0, "no WR reached the outstanding cap");
    }

    #[test]
    fn sampled_run_produces_frames_that_sum_to_the_snapshot() {
        use partix_core::telemetry::snapshot_accum;
        let art = run_traced(
            &cfg(AggregatorKind::TimerPLogGp),
            Some((SimDuration::from_micros(50), 256)),
        );
        assert!(!art.frames.is_empty(), "sampling produced no frames");
        // Accumulating every delta frame reproduces the final cumulative
        // ledger (modulo the determinism scrub of arena pool counters).
        let mut acc = Snapshot::default();
        for f in &art.frames {
            snapshot_accum(&mut acc, &f.deltas);
        }
        assert_eq!(acc.wire.delivered, art.snapshot.wire.delivered);
        assert_eq!(acc.runtime.preadys, art.snapshot.runtime.preadys);
        // Frames ride into the trace file.
        let dir = scratch("frames-test");
        art.write_to(&dir, "sampled").unwrap();
        let tr = std::fs::read_to_string(dir.join("trace_sampled.json")).unwrap();
        assert!(tr.contains("\"frames\""));
        assert!(tr.contains("\"ph\": \"C\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifacts_write_valid_files() {
        let art = run_traced(&cfg(AggregatorKind::Persistent), None);
        let dir = scratch("trace-test");
        art.write_to(&dir, "persistent").unwrap();
        let tel = std::fs::read_to_string(dir.join("telemetry_persistent.json")).unwrap();
        assert!(tel.contains("\"clean\": true"));
        let tr = std::fs::read_to_string(dir.join("trace_persistent.json")).unwrap();
        assert!(tr.contains("\"traceEvents\""));
        assert!(tr.contains("\"flows\""));
        assert!(tr.contains("\"stages\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A wall-clock world has a chrome-trace view too: it is rendered from
    /// the flow log, which every world records.
    #[test]
    fn wall_clock_world_has_a_chrome_view() {
        let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
        let log = FlowLog::new();
        world.enable_flow_tracing(log.clone());
        let (p0, p1) = (world.proc(0), world.proc(1));
        let (sbuf, rbuf) = (
            p0.alloc_buffer(8 * 64).unwrap(),
            p1.alloc_buffer(8 * 64).unwrap(),
        );
        let send = p0.psend_init(&sbuf, 8, 64, 1, 0).unwrap();
        let recv = p1.precv_init(&rbuf, 8, 64, 0, 0).unwrap();
        recv.start().unwrap();
        send.start().unwrap();
        for i in 0..8 {
            send.pready(i).unwrap();
        }
        send.wait().unwrap();
        recv.wait().unwrap();

        let dir = scratch("wall-trace");
        let path = dir.join("trace_wall.json");
        let stages = world.telemetry().flows.stages.snapshot();
        write_trace_json(&path, "wall", &log.sorted(), &stages, &[]).unwrap();
        let spans = x_spans(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert!(!spans.is_empty(), "no X span for a wall-clock round");
        assert!(spans
            .iter()
            .all(|s| s.get("cat") == Some(&Json::from("flow"))));
    }
}
