//! Fully-observed experiment runs: telemetry snapshot + invariant report +
//! chrome-trace spans + causal flow trace from one workload execution.
//!
//! This is the `--trace` backend of the benchmark binaries: run a workload
//! with the profiler, resource span tracing, and causal flow tracing
//! attached; freeze the telemetry ledger at quiescence; reconcile it against
//! the conservation laws; and (optionally) write the artifacts next to the
//! other results. Open the trace file at `chrome://tracing` or
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
use std::sync::Arc;

use partix_core::telemetry::{
    write_telemetry_json, write_trace_json, FlowEvent, FlowLog, Frame, HistSnapshot,
};
use partix_core::{invariants, SimDuration, Snapshot, SpanEvent, SpanLog};
use partix_profiler::{assemble_chains, chrome_spans, Profiler};

use crate::runner::{run_pt2pt_instrumented, Pt2PtConfig, Pt2PtResult};

/// Everything one traced run produces.
pub struct TraceArtifacts {
    /// The workload result itself.
    pub result: Pt2PtResult,
    /// Telemetry ledger frozen at quiescence.
    pub snapshot: Snapshot,
    /// The conservation-law reconciliation of that snapshot.
    pub report: invariants::Report,
    /// Merged span timeline: fabric resource occupancy plus profiler
    /// round/partition phases, sorted by start time.
    pub spans: Vec<SpanEvent>,
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
    /// `trace_<tag>.json` (chrome-trace + flow events + stage histograms)
    /// into `dir`, creating it if needed.
    pub fn write_to(&self, dir: &Path, tag: &str) -> std::io::Result<()> {
        write_telemetry_json(
            &dir.join(format!("telemetry_{tag}.json")),
            &self.snapshot,
            &self.report,
        )?;
        write_trace_json(
            &dir.join(format!("trace_{tag}.json")),
            tag,
            &self.spans,
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

/// Run `cfg` with full observability attached.
pub fn run_traced(cfg: &Pt2PtConfig) -> TraceArtifacts {
    run_traced_sampled(cfg, None)
}

/// [`run_traced`] with optional time-series sampling
/// (`Some((interval, capacity))`): the trace file gains per-window counter
/// events and a `"frames"` array of ledger deltas.
pub fn run_traced_sampled(
    cfg: &Pt2PtConfig,
    sampling: Option<(SimDuration, usize)>,
) -> TraceArtifacts {
    let profiler = Arc::new(Profiler::new());
    let log = SpanLog::new();
    let flow_log = FlowLog::new();
    let (result, world) = run_pt2pt_instrumented(
        cfg,
        Some(profiler.clone()),
        Some(log.clone()),
        Some(flow_log.clone()),
        sampling,
    );
    let snapshot = world.telemetry_snapshot();
    let report = invariants::check(&snapshot);
    let mut spans = log.sorted();
    spans.extend(chrome_spans(&profiler));
    spans.sort_by_key(|s| (s.ts_ns, s.pid, s.tid));
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
        spans,
        flows,
        stages,
        frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::ThreadTiming;
    use partix_core::telemetry::FlowStage;
    use partix_core::{AggregatorKind, PartixConfig};

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

    #[test]
    fn traced_run_is_clean_and_produces_spans() {
        let art = run_traced(&cfg(AggregatorKind::TimerPLogGp));
        assert_eq!(art.result.rounds.len(), 3);
        art.report.assert_clean();
        // Fabric resources and profiler rounds both land in the timeline.
        assert!(art.spans.iter().any(|s| s.cat == "resource"));
        assert!(art.spans.iter().any(|s| s.cat == "round"));
        assert!(art.spans.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
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
    }

    #[test]
    fn tracing_does_not_change_results() {
        let c = cfg(AggregatorKind::PLogGp);
        let plain = crate::runner::run_pt2pt(&c);
        let traced = run_traced(&c);
        let t1: Vec<u64> = plain.rounds.iter().map(|r| r.total().as_nanos()).collect();
        let t2: Vec<u64> = traced
            .result
            .rounds
            .iter()
            .map(|r| r.total().as_nanos())
            .collect();
        assert_eq!(t1, t2, "observability must not perturb virtual time");
    }

    #[test]
    fn sampled_run_produces_frames_that_sum_to_the_snapshot() {
        use partix_core::telemetry::snapshot_accum;
        let art = run_traced_sampled(
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
        let dir = std::env::temp_dir().join(format!("partix-frames-test-{}", std::process::id()));
        art.write_to(&dir, "sampled").unwrap();
        let tr = std::fs::read_to_string(dir.join("trace_sampled.json")).unwrap();
        assert!(tr.contains("\"frames\""));
        assert!(tr.contains("\"ph\": \"C\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifacts_write_valid_files() {
        let art = run_traced(&cfg(AggregatorKind::Persistent));
        let dir = std::env::temp_dir().join(format!("partix-trace-test-{}", std::process::id()));
        art.write_to(&dir, "persistent").unwrap();
        let tel = std::fs::read_to_string(dir.join("telemetry_persistent.json")).unwrap();
        assert!(tel.contains("\"clean\": true"));
        let tr = std::fs::read_to_string(dir.join("trace_persistent.json")).unwrap();
        assert!(tr.contains("\"traceEvents\""));
        assert!(tr.contains("\"flows\""));
        assert!(tr.contains("\"stages\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
