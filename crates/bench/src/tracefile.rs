//! Trace-file loading and analysis for the `trace` binary.
//!
//! Reads the `trace_<tag>.json` artifacts written by traced runs
//! ([`partix_workloads::TraceArtifacts::write_to`]): a `"flows"` array of
//! raw causal flow events and a `"stages"` map of per-stage residency
//! histogram snapshots (the chrome-trace events beside them are a view of
//! the flows, and are not read here). The bytes are read by the
//! workspace's one JSON parser, `partix_telemetry::parse_json` (re-exported
//! here); this module turns the [`Json`] value into a [`TraceFile`],
//! reconstructs per-flow critical paths via `partix_profiler` and renders
//! the percentile tables, stall reports, and run-to-run diffs.

use std::fmt::Write as _;
use std::path::Path;

use partix_profiler::{assemble_chains, top_stalls, FlowChain};
pub use partix_verbs::telemetry::{parse_json, Json};
use partix_verbs::telemetry::{FlowEvent, FlowStage, HistSnapshot};

/// One parsed time-series frame: a window of ledger deltas, stage-histogram
/// windows, and transport gauges. Field lists keep source order; unknown
/// keys survive parsing, so the reader never lags the writer.
pub struct FrameRow {
    /// Frame sequence number.
    pub seq: u64,
    /// Window-end timestamp (virtual or wall ns, per the producing clock).
    pub t_ns: u64,
    /// Window length in ns.
    pub span_ns: u64,
    /// Wire-ledger deltas for this window.
    pub wire: Vec<(String, u64)>,
    /// Runtime-ledger deltas for this window.
    pub runtime: Vec<(String, u64)>,
    /// Arena-ledger deltas for this window.
    pub arena: Vec<(String, u64)>,
    /// Per-stage histogram *windows* (activity inside this frame only).
    pub stages: Vec<(String, HistSnapshot)>,
    /// Transport gauges: `(name, cumulative total, window delta)`.
    pub gauges: Vec<(String, u64, u64)>,
}

impl FrameRow {
    /// A wire delta by field name (0 when absent).
    pub fn wire_val(&self, key: &str) -> u64 {
        self.wire
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// A runtime delta by field name (0 when absent).
    pub fn runtime_val(&self, key: &str) -> u64 {
        self.runtime
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// A stage-histogram window by name.
    pub fn stage(&self, name: &str) -> Option<&HistSnapshot> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// A loaded trace artifact: the workload tag, raw flow events, the
/// per-stage residency histograms, and any time-series frames. Both
/// `trace_<tag>.json` and `flightrec_<tag>.json` parse into this shape.
pub struct TraceFile {
    /// Workload tag from the trace metadata.
    pub workload: String,
    /// Raw causal flow events.
    pub flows: Vec<FlowEvent>,
    /// Per-stage histogram snapshots, in file order.
    pub stages: Vec<(String, HistSnapshot)>,
    /// Windowed time-series frames (empty when the run was unsampled).
    pub frames: Vec<FrameRow>,
}

impl TraceFile {
    /// Load and parse a trace file from disk.
    pub fn load(path: &Path) -> Result<TraceFile, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        TraceFile::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse a trace document.
    pub fn parse(src: &str) -> Result<TraceFile, String> {
        let doc = parse_json(src)?;
        // Trace artifacts carry meta.workload; flight-recorder dumps carry
        // meta.tag. Accept either so both feed the same analyses.
        let workload = doc
            .get("meta")
            .and_then(|m| m.get("workload").or_else(|| m.get("tag")))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let mut flows = Vec::new();
        for row in doc
            .get("flows")
            .and_then(Json::as_arr)
            .ok_or("missing \"flows\" array")?
        {
            let row = row.as_arr().ok_or("flow row is not an array")?;
            if row.len() != 6 {
                return Err(format!("flow row has {} fields, want 6", row.len()));
            }
            let stage_name = row[1].as_str().ok_or("flow stage is not a string")?;
            let stage = FlowStage::from_name(stage_name)
                .ok_or_else(|| format!("unknown flow stage {stage_name:?}"))?;
            let num = |i: usize| -> Result<u64, String> {
                row[i]
                    .as_u64()
                    .ok_or_else(|| format!("flow field {i} is not a number"))
            };
            let narrow = |i: usize, what: &str| -> Result<u32, String> {
                u32::try_from(num(i)?).map_err(|_| format!("flow {what} exceeds u32::MAX"))
            };
            flows.push(FlowEvent {
                flow: num(0)?,
                stage,
                ts_ns: num(2)?,
                qp: narrow(3, "qp")?,
                chan: narrow(4, "chan")?,
                aux: num(5)?,
            });
        }
        let stages = match doc.get("stages") {
            Some(v) => parse_stage_map(v)?,
            None => Vec::new(),
        };
        let mut frames = Vec::new();
        if let Some(rows) = doc.get("frames").and_then(Json::as_arr) {
            for row in rows {
                frames.push(parse_frame(row)?);
            }
        }
        Ok(TraceFile {
            workload,
            flows,
            stages,
            frames,
        })
    }

    /// Reassembled per-flow chains.
    pub fn chains(&self) -> Vec<FlowChain> {
        assemble_chains(&self.flows)
    }

    /// Causal completeness / monotonicity violations across all chains.
    pub fn violations(&self) -> Vec<String> {
        self.chains().iter().flat_map(|c| c.violations()).collect()
    }

    /// Stage snapshots with borrowed names (the shape the exposition
    /// encoder takes).
    pub fn stage_refs(&self) -> Vec<(&str, HistSnapshot)> {
        self.stages
            .iter()
            .map(|(n, s)| (n.as_str(), s.clone()))
            .collect()
    }
}

/// Parse a `{"name": {count, sum, max, buckets}}` histogram map (the shape
/// of the document-level `"stages"` key and of each frame's stage windows).
/// Buckets must be non-empty `[lo, hi)` ranges in ascending order without
/// overlap, and their counts must add up to `count`: what the quantile
/// arithmetic relies on.
fn parse_stage_map(v: &Json) -> Result<Vec<(String, HistSnapshot)>, String> {
    let Json::Obj(members) = v else {
        return Err("stage map is not an object".into());
    };
    let mut stages = Vec::new();
    for (name, snap) in members {
        let field = |k: &str| -> Result<u64, String> {
            snap.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stage {name}: missing {k}"))
        };
        let count = field("count")?;
        let (mut buckets, mut total, mut floor) = (Vec::new(), 0u64, 0u64);
        for b in snap
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("stage {name}: missing buckets"))?
        {
            let b = b.as_arr().ok_or("bucket is not an array")?;
            if b.len() != 3 {
                return Err("bucket is not a [lo, hi, count] triple".into());
            }
            let (lo, hi) = (
                b[0].as_u64().ok_or("bucket lo")?,
                b[1].as_u64().ok_or("bucket hi")?,
            );
            if lo >= hi {
                return Err(format!("stage {name}: bucket [{lo}, {hi}) is empty"));
            }
            if lo < floor {
                return Err(format!(
                    "stage {name}: bucket [{lo}, {hi}) overlaps or precedes the one before it"
                ));
            }
            floor = hi;
            let n = b[2].as_u64().ok_or("bucket count")?;
            total = total
                .checked_add(n)
                .ok_or_else(|| format!("stage {name}: bucket counts overflow"))?;
            buckets.push(partix_verbs::telemetry::HistBucket { lo, hi, count: n });
        }
        if total != count {
            return Err(format!(
                "stage {name}: bucket counts sum to {total}, but count is {count}"
            ));
        }
        stages.push((
            name.clone(),
            HistSnapshot {
                count,
                sum: field("sum")?,
                max: field("max")?,
                buckets,
            },
        ));
    }
    Ok(stages)
}

/// Flatten a `{field: number}` ledger object into name/value pairs,
/// skipping non-numeric members.
fn parse_ledger(v: Option<&Json>) -> Vec<(String, u64)> {
    let Some(Json::Obj(members)) = v else {
        return Vec::new();
    };
    members
        .iter()
        .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
        .collect()
}

/// Parse one entry of the `"frames"` array.
fn parse_frame(row: &Json) -> Result<FrameRow, String> {
    let num = |k: &str| -> Result<u64, String> {
        row.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("frame missing {k:?}"))
    };
    let stages = match row.get("stages") {
        Some(v) => parse_stage_map(v)?,
        None => Vec::new(),
    };
    let mut gauges = Vec::new();
    if let Some(Json::Obj(members)) = row.get("gauges") {
        for (name, g) in members {
            let total = g.get("total").and_then(Json::as_u64).unwrap_or(0);
            let delta = g.get("delta").and_then(Json::as_u64).unwrap_or(0);
            gauges.push((name.clone(), total, delta));
        }
    }
    Ok(FrameRow {
        seq: num("seq")?,
        t_ns: num("t_ns")?,
        span_ns: num("span_ns")?,
        wire: parse_ledger(row.get("wire")),
        runtime: parse_ledger(row.get("runtime")),
        arena: parse_ledger(row.get("arena")),
        stages,
        gauges,
    })
}

/// The delta series tabulated (and sparklined) by [`timeline`]: a short
/// label, the ledger it reads, and the field name.
const TIMELINE_COLS: [(&str, &str, &str); 5] = [
    ("delivered", "wire", "delivered"),
    ("bytes", "wire", "bytes_delivered"),
    ("retrans", "wire", "retransmits"),
    ("preadys", "runtime", "preadys"),
    ("agg_wrs", "runtime", "aggregated_wrs"),
];

/// Render the per-window timeline: one row per frame with the key ledger
/// deltas and the `wire_ns` window percentiles, then a rate-of-change
/// sparkline per tabulated series. Returns `None` when the trace carries
/// no frames (unsampled run).
pub fn timeline(tf: &TraceFile) -> Option<String> {
    if tf.frames.is_empty() {
        return None;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# trace timeline — workload: {}, {} windows",
        tf.workload,
        tf.frames.len()
    );
    let _ = write!(out, "{:>4} {:>12} {:>10}", "seq", "t_us", "span_us");
    for (label, _, _) in TIMELINE_COLS {
        let _ = write!(out, " {label:>10}");
    }
    let _ = writeln!(out, " {:>9} {:>9}", "wire_p50", "wire_p99");
    let pick = |f: &FrameRow, ledger: &str, field: &str| -> u64 {
        match ledger {
            "wire" => f.wire_val(field),
            _ => f.runtime_val(field),
        }
    };
    for f in &tf.frames {
        let _ = write!(
            out,
            "{:>4} {:>12.1} {:>10.1}",
            f.seq,
            f.t_ns as f64 / 1e3,
            f.span_ns as f64 / 1e3
        );
        for (_, ledger, field) in TIMELINE_COLS {
            let _ = write!(out, " {:>10}", pick(f, ledger, field));
        }
        match f.stage("wire_ns") {
            Some(h) if h.count > 0 => {
                let _ = writeln!(out, " {:>9} {:>9}", h.quantile(0.50), h.quantile(0.99));
            }
            _ => {
                let _ = writeln!(out, " {:>9} {:>9}", "-", "-");
            }
        }
    }
    let _ = writeln!(out, "\n## per-window rates");
    for (label, ledger, field) in TIMELINE_COLS {
        let series: Vec<u64> = tf.frames.iter().map(|f| pick(f, ledger, field)).collect();
        let peak = series.iter().copied().max().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>10} |{}| peak {}/window",
            label,
            partix_profiler::sparkline(&series),
            peak
        );
    }
    Some(out)
}

/// Prometheus text exposition of the **latest** frame in a loaded trace:
/// `partix_window_*` ledger deltas, `partix_gauge_*` transport gauges, and
/// the frame's stage windows.
pub fn latest_frame_exposition(tf: &TraceFile) -> Option<String> {
    let f = tf.frames.last()?;
    let mut s = String::with_capacity(2048);
    let mut gauge = |name: &str, v: u64| {
        let _ = writeln!(s, "# TYPE {name} gauge");
        let _ = writeln!(s, "{name} {v}");
    };
    gauge("partix_window_seq", f.seq);
    gauge("partix_window_t_ns", f.t_ns);
    gauge("partix_window_span_ns", f.span_ns);
    for (k, v) in &f.wire {
        gauge(&format!("partix_window_wire_{k}"), *v);
    }
    for (k, v) in &f.runtime {
        gauge(&format!("partix_window_runtime_{k}"), *v);
    }
    for (k, v) in &f.arena {
        gauge(&format!("partix_window_arena_{k}"), *v);
    }
    for (name, total, delta) in &f.gauges {
        gauge(&format!("partix_gauge_{name}"), *total);
        gauge(&format!("partix_gauge_{name}_delta"), *delta);
    }
    let refs: Vec<(&str, HistSnapshot)> = f
        .stages
        .iter()
        .map(|(n, h)| (n.as_str(), h.clone()))
        .collect();
    s.push_str(&partix_verbs::telemetry::exposition(&refs));
    Some(s)
}

/// Render the per-stage percentile table and the top-`k` stall report.
pub fn report(tf: &TraceFile, k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# trace report — workload: {}", tf.workload);
    let chains = tf.chains();
    let arrived = chains.iter().filter(|c| c.arrived()).count();
    let _ = writeln!(
        out,
        "{} flows ({} arrived), {} events\n",
        chains.len(),
        arrived,
        tf.flows.len()
    );
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "stage", "count", "p50_ns", "p95_ns", "p99_ns", "max_ns", "mean_ns"
    );
    for (name, h) in &tf.stages {
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12.1}",
            name,
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max,
            h.mean(),
        );
    }
    type StallPick = fn(&FlowChain) -> u64;
    let classes: [(&str, StallPick); 4] = [
        ("wr_cap_wait", |c| c.stalls().1),
        ("rnr_wait", |c| c.stalls().2),
        ("retransmit_wait", |c| c.stalls().3),
        ("delta_timer_hold", |c| c.stalls().0),
    ];
    for (title, pick) in classes {
        let top = top_stalls(&chains, k, pick);
        if top.is_empty() {
            continue;
        }
        let _ = writeln!(out, "\n## top {} flows by {}", top.len(), title);
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>6} {:>6}",
            "flow", "wait_ns", "qp", "chan"
        );
        for s in top {
            let _ = writeln!(
                out,
                "{:<10} {:>12} {:>6} {:>6}",
                s.flow, s.wait_ns, s.qp, s.chan
            );
        }
    }
    out
}

/// One per-stage percentile regression found by [`diff`].
pub struct Regression {
    /// Stage histogram name.
    pub stage: String,
    /// Which percentile regressed ("p50", "p95", "p99").
    pub quantile: &'static str,
    /// Baseline value in ns.
    pub before: u64,
    /// Candidate value in ns.
    pub after: u64,
}

/// Compare two traces stage by stage; a regression is a candidate
/// percentile more than `threshold` (fractional, e.g. 0.10) above the
/// baseline's. Returns the rendered table and the regressions found.
pub fn diff(base: &TraceFile, cand: &TraceFile, threshold: f64) -> (String, Vec<Regression>) {
    let mut out = String::new();
    let mut regressions = Vec::new();
    let _ = writeln!(
        out,
        "# trace diff — baseline: {}, candidate: {} (threshold {:.0}%)",
        base.workload,
        cand.workload,
        threshold * 100.0
    );
    let _ = writeln!(
        out,
        "{:<16} {:>4} {:>12} {:>12} {:>9}",
        "stage", "q", "base_ns", "cand_ns", "delta"
    );
    for (name, b) in &base.stages {
        let Some((_, c)) = cand.stages.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "{name:<16} missing from candidate");
            continue;
        };
        if b.count == 0 || c.count == 0 {
            continue;
        }
        for (qname, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let bv = b.quantile(q);
            let cv = c.quantile(q);
            let delta = if bv == 0 {
                if cv == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                cv as f64 / bv as f64 - 1.0
            };
            let regressed = delta > threshold;
            let _ = writeln!(
                out,
                "{:<16} {:>4} {:>12} {:>12} {:>+8.1}%{}",
                name,
                qname,
                bv,
                cv,
                delta * 100.0,
                if regressed { "  REGRESSED" } else { "" }
            );
            if regressed {
                regressions.push(Regression {
                    stage: name.clone(),
                    quantile: qname,
                    before: bv,
                    after: cv,
                });
            }
        }
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BASELINE: &str = include_str!("../../../results/baseline/trace_fault_chaos.json");

    /// What the `trace` bin does with a file the user names, short of
    /// reading it: neither parser may panic, whatever the bytes, and a
    /// document that parses renders through every view without panicking.
    fn parse_both(bytes: &[u8]) {
        let src = String::from_utf8_lossy(bytes);
        let _ = parse_json(&src);
        if let Ok(tf) = TraceFile::parse(&src) {
            let _ = report(&tf, 5);
            let _ = diff(&tf, &tf, 0.10);
            let _ = timeline(&tf);
            let _ = latest_frame_exposition(&tf);
            let _ = partix_verbs::telemetry::exposition(&tf.stage_refs());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary bytes, strings over JSON's own alphabet (which get past
        /// the first byte), and a real artifact truncated anywhere or with
        /// any one byte changed.
        #[test]
        fn no_input_panics_the_parsers(
            junk in prop::collection::vec(any::<u8>(), 0..64),
            jsonish in prop::collection::vec(
                prop::sample::select(b"[]{}\":,\\u0123456789-+.eEtrufalsn \n".to_vec()),
                0..64,
            ),
            cut in 0..BASELINE.len(),
            at in 0..BASELINE.len(),
            mask in 1u8..=255,
        ) {
            parse_both(&junk);
            parse_both(&jsonish);
            parse_both(&BASELINE.as_bytes()[..cut]);
            let mut flipped = BASELINE.as_bytes().to_vec();
            flipped[at] ^= mask;
            parse_both(&flipped);
        }
    }

    /// The readers against the files in the tree, so one that drifts from
    /// them fails `cargo test` and not only the CI smoke job.
    #[test]
    fn the_committed_baseline_loads() {
        let results = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
        let tf = TraceFile::load(&results.join("baseline/trace_fault_chaos.json"))
            .expect("baseline loads");
        assert_eq!(tf.workload, "fault_chaos");
        assert!(!tf.flows.is_empty() && !tf.stages.is_empty());
        assert!(tf.violations().is_empty());

        let bench = std::fs::read_to_string(results.join("BENCH_shm.json")).expect("BENCH_shm");
        let bench = parse_json(&bench).expect("BENCH_shm.json parses");
        assert_eq!(
            bench.get("bench").and_then(Json::as_str),
            Some("shm_exchange")
        );
        let rows = bench.get("rows").and_then(Json::as_arr).expect("rows");
        assert!(!rows.is_empty());
        for row in rows {
            assert!(row.get("messages").and_then(Json::as_u64).is_some());
            assert!(matches!(row.get("gb_per_sec"), Some(Json::Num(_))));
            assert!(row.get("receiver_report").and_then(Json::as_str).is_some());
        }
    }

    fn sample_doc(wire_vals: &[u64]) -> String {
        use partix_verbs::telemetry::LogHistogram;
        let h = LogHistogram::new();
        for &v in wire_vals {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut buckets = String::new();
        for (i, b) in snap.buckets.iter().enumerate() {
            if i > 0 {
                buckets.push_str(", ");
            }
            buckets.push_str(&format!("[{}, {}, {}]", b.lo, b.hi, b.count));
        }
        format!(
            "{{\"meta\": {{\"workload\": \"unit\", \"format\": 1}},\n\
             \"traceEvents\": [],\n\
             \"flows\": [\n  [1, \"posted\", 100, 2, 7, 40],\n  [1, \"wire_submit\", 150, 2, 0, 0],\n  [1, \"recv_cqe\", 300, 2, 0, 5],\n  [1, \"arrived\", 400, 0, 7, 1]\n],\n\
             \"stages\": {{\"wire_ns\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}}},\n\
             \"displayTimeUnit\": \"ns\"}}\n",
            snap.count, snap.sum, snap.max, buckets
        )
    }

    #[test]
    fn trace_file_parses_flows_and_stages() {
        let tf = TraceFile::parse(&sample_doc(&[100, 200, 300])).unwrap();
        assert_eq!(tf.workload, "unit");
        assert_eq!(tf.flows.len(), 4);
        assert_eq!(tf.flows[0].stage, FlowStage::Posted);
        assert!(tf.violations().is_empty());
        let (_, h) = &tf.stages[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 600);
        assert!(h.quantile(0.5) >= 200);
        let text = report(&tf, 3);
        assert!(text.contains("wire_ns"));
        assert!(text.contains("delta_timer_hold"));
    }

    fn framed_doc() -> String {
        "{\"meta\": {\"workload\": \"framed\", \"format\": 1},\n\
         \"traceEvents\": [],\n\
         \"flows\": [],\n\
         \"stages\": {},\n\
         \"frames\": [\n\
           {\"seq\": 0, \"t_ns\": 1000, \"span_ns\": 1000, \"qps\": [], \"cqs\": [],\n\
            \"wire\": {\"delivered\": 4, \"bytes_delivered\": 4096, \"retransmits\": 0},\n\
            \"runtime\": {\"preadys\": 8, \"aggregated_wrs\": 2},\n\
            \"arena\": {},\n\
            \"stages\": {\"wire_ns\": {\"count\": 2, \"sum\": 600, \"max\": 400,\n\
                         \"buckets\": [[256, 512, 2]]}},\n\
            \"gauges\": {\"ring_full_stalls\": {\"total\": 7, \"delta\": 3}}},\n\
           {\"seq\": 1, \"t_ns\": 2000, \"span_ns\": 1000, \"qps\": [], \"cqs\": [],\n\
            \"wire\": {\"delivered\": 12, \"bytes_delivered\": 12288, \"retransmits\": 1},\n\
            \"runtime\": {\"preadys\": 8, \"aggregated_wrs\": 6},\n\
            \"arena\": {},\n\
            \"stages\": {},\n\
            \"gauges\": {}}\n\
         ],\n\
         \"displayTimeUnit\": \"ns\"}\n"
            .to_string()
    }

    #[test]
    fn trace_file_parses_frames_and_renders_the_timeline() {
        let tf = TraceFile::parse(&framed_doc()).unwrap();
        assert_eq!(tf.frames.len(), 2);
        let f0 = &tf.frames[0];
        assert_eq!((f0.seq, f0.t_ns, f0.span_ns), (0, 1000, 1000));
        assert_eq!(f0.wire_val("delivered"), 4);
        assert_eq!(f0.runtime_val("aggregated_wrs"), 2);
        assert_eq!(f0.stage("wire_ns").unwrap().count, 2);
        assert_eq!(f0.gauges, vec![("ring_full_stalls".to_string(), 7, 3)]);
        // Absent fields read as zero rather than erroring.
        assert_eq!(f0.wire_val("no_such_counter"), 0);

        let text = timeline(&tf).expect("frames present");
        assert!(text.contains("workload: framed, 2 windows"));
        assert!(text.contains("wire_p99"));
        // Window 1 delivered three times window 0: the sparkline peaks there.
        let rates = text.lines().find(|l| l.contains("delivered |")).unwrap();
        assert!(rates.contains('█'), "peak window must render full: {rates}");
        assert!(rates.contains("peak 12/window"));
        // Unsampled traces yield no timeline.
        let plain = TraceFile::parse(&sample_doc(&[100])).unwrap();
        assert!(plain.frames.is_empty());
        assert!(timeline(&plain).is_none());
    }

    #[test]
    fn latest_frame_exposition_renders_the_newest_frame() {
        let tf = TraceFile::parse(&framed_doc()).unwrap();
        let expo = latest_frame_exposition(&tf).unwrap();
        assert!(expo.contains("partix_window_seq 1"));
        assert!(expo.contains("partix_window_wire_delivered 12"));
        assert!(expo.contains("partix_window_runtime_preadys 8"));
        let none = TraceFile::parse(&sample_doc(&[100])).unwrap();
        assert!(latest_frame_exposition(&none).is_none());
        // Gauges and stage windows of the latest frame expose as
        // partix_gauge_* / partix_stage_*: parse a one-frame doc whose
        // frame carries both.
        let doc = "{\"meta\": {\"workload\": \"one\"}, \"flows\": [],\n\
             \"frames\": [{\"seq\": 0, \"t_ns\": 10, \"span_ns\": 10,\n\
             \"wire\": {}, \"runtime\": {}, \"arena\": {},\n\
             \"stages\": {\"wire_ns\": {\"count\": 1, \"sum\": 300, \"max\": 300,\n\
             \"buckets\": [[256, 512, 1]]}},\n\
             \"gauges\": {\"ring_full_stalls\": {\"total\": 7, \"delta\": 3}}}]}";
        let tf1 = TraceFile::parse(doc).unwrap();
        assert_eq!(tf1.frames.len(), 1);
        let expo1 = latest_frame_exposition(&tf1).unwrap();
        assert!(expo1.contains("partix_gauge_ring_full_stalls 7"));
        assert!(expo1.contains("partix_gauge_ring_full_stalls_delta 3"));
        assert!(expo1.contains("# TYPE partix_stage_wire_ns histogram"));
    }

    #[test]
    fn a_qp_or_chan_beyond_u32_is_refused() {
        let doc = sample_doc(&[100]).replace(
            "[1, \"posted\", 100, 2, 7, 40]",
            "[1, \"posted\", 100, 4294967297, 7, 40]",
        );
        let err = TraceFile::parse(&doc)
            .err()
            .expect("qp 2^32 + 1 must not read as qp 1");
        assert!(err.contains("qp"), "{err}");
        let doc = sample_doc(&[100]).replace(
            "[1, \"posted\", 100, 2, 7, 40]",
            "[1, \"posted\", 100, 2, 4294967296, 40]",
        );
        assert!(TraceFile::parse(&doc)
            .err()
            .expect("chan 2^32")
            .contains("chan"));
    }

    /// Each malformed bucket list is refused with the stage named, so
    /// neither `report` nor `timeline` ever computes a quantile from it.
    #[test]
    fn malformed_stage_buckets_are_refused() {
        let stage = |count: u64, buckets: &str| {
            format!(
                "{{\"flows\": [[1, \"posted\", 0, 1, 1, 0]], \"stages\": {{\"wire_ns\": \
                 {{\"count\": {count}, \"sum\": 0, \"max\": 0, \"buckets\": [{buckets}]}}}}}}"
            )
        };
        for (count, buckets, why) in [
            (1, "[0, 0, 1]", "is empty"),
            (1, "[5, 3, 1]", "is empty"),
            (2, "[8, 9, 1], [4, 5, 1]", "precedes"),
            (2, "[4, 8, 1], [6, 9, 1]", "overlaps"),
            (3, "[1, 2, 1], [2, 3, 1]", "sum to 2"),
            (0, "[1, 2, 18446744073709551615], [2, 3, 1]", "overflow"),
        ] {
            match TraceFile::parse(&stage(count, buckets)) {
                Ok(tf) => panic!("accepted {buckets}:\n{}", report(&tf, 5)),
                Err(e) => assert!(e.contains("wire_ns") && e.contains(why), "{buckets}: {e}"),
            }
        }
        let frame = stage(1, "[1, 2, 1]").replace(
            "\"stages\"",
            "\"frames\": [{\"seq\": 0, \"t_ns\": 1, \"span_ns\": 1, \
             \"stages\": {\"wire_ns\": {\"count\": 1, \"sum\": 0, \"max\": 0, \
             \"buckets\": [[0, 0, 1]]}}}], \"stages\"",
        );
        let err = TraceFile::parse(&frame)
            .err()
            .expect("a frame's stage window is checked too");
        assert!(err.contains("is empty"), "{err}");
        assert!(TraceFile::parse(&stage(2, "[1, 2, 1], [2, 3, 1]")).is_ok());
    }

    #[test]
    fn diff_flags_injected_regression() {
        let base = TraceFile::parse(&sample_doc(&[100; 50])).unwrap();
        let cand = TraceFile::parse(&sample_doc(
            &[100; 49]
                .iter()
                .copied()
                .chain([100_000])
                .collect::<Vec<_>>(),
        ))
        .unwrap();
        let (_, same) = diff(&base, &base, 0.10);
        assert!(same.is_empty());
        let (text, regs) = diff(&base, &cand, 0.10);
        assert!(!regs.is_empty(), "p99 blow-up must be flagged:\n{text}");
        assert!(regs.iter().any(|r| r.quantile == "p99"));
    }
}
