//! The one JSON module: the [`Json`] value, the writer (`Display`,
//! [`write_json`]), the parser ([`parse_json`]), and the artifacts built on
//! them — `telemetry_<tag>.json` (full ledger + invariant report),
//! `trace_<tag>.json` (flow events, stage histograms and sampled frames,
//! with the chrome-trace view of the flow events under `traceEvents`;
//! `chrome://tracing` / Perfetto ignore the other top-level keys) and
//! `flightrec_<tag>.json`.
//!
//! The workspace has no serde. An artifact is a function that returns a
//! [`Json`]; escaping, number formatting and line layout live in the writer
//! and nowhere else, and every ledger object is rendered from its field
//! table, so a counter added to a definition appears in every artifact.

use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::Path;

use crate::counters::STATUS_NAMES;
use crate::flow::{FlowEvent, FlowStage};
use crate::hist::HistSnapshot;
use crate::invariants::Report;
use crate::snapshot::{CqSnapshot, QpSnapshot, Snapshot};
use crate::timeseries::Frame;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. The parser reads every number token as this, integers
    /// included, unless an `f64` would round it. A non-finite value is
    /// written as `null`.
    Num(f64),
    /// An integer an `f64` cannot hold (some past 2^53), so that a `u64` is
    /// written and read back digit for digit. Build numbers with
    /// `Json::from`, which picks the variant the parser would.
    Big(u64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from anything that converts to values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as u64, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Big(n) => Some(n),
            // 2^64 is the first f64 past u64::MAX; the cast below is exact.
            Json::Num(n)
                if n.fract() == 0.0 && (0.0..18_446_744_073_709_551_616.0).contains(&n) =>
            {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The value as &str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// The first `f64` past `u64::MAX`; an integral `f64` below it casts exactly.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from! {
    bool => |v| Json::Bool(v),
    u64 => |v| match v as f64 {
        f if f as u128 == v as u128 => Json::Num(f),
        _ => Json::Big(v),
    },
    u32 => |v| Json::from(v as u64),
    usize => |v| Json::from(v as u64),
    f64 => |v| Json::Num(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
}

/// Containers nested this deep or deeper are written on one line; above it
/// every member gets its own line. Two levels put one span, flow event,
/// frame, QP row or top-level counter on each line of an artifact.
const INLINE_DEPTH: usize = 2;

/// The writer: `to_string()` or `{}`. One escaping rule, one number rule (an
/// integer below 2^64 in full decimal digits, any other `f64` in Rust's
/// shortest round-trip form), one layout rule (`INLINE_DEPTH`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, 0)
    }
}

fn write_value(f: &mut fmt::Formatter<'_>, v: &Json, depth: usize) -> fmt::Result {
    match v {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => write!(f, "{b}"),
        Json::Big(n) => write!(f, "{n}"),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < TWO_POW_64 => write!(f, "{}", *n as i128),
        Json::Num(n) if n.is_finite() => write!(f, "{n:?}"),
        Json::Num(_) => f.write_str("null"),
        Json::Str(s) => write_str(f, s),
        Json::Arr(items) => write_seq(f, '[', ']', depth, items.len(), |f, i| {
            write_value(f, &items[i], depth + 1)
        }),
        Json::Obj(members) => write_seq(f, '{', '}', depth, members.len(), |f, i| {
            let (k, v) = &members[i];
            write_str(f, k)?;
            f.write_str(": ")?;
            write_value(f, v, depth + 1)
        }),
    }
}

fn write_seq(
    f: &mut fmt::Formatter<'_>,
    open: char,
    close: char,
    depth: usize,
    len: usize,
    mut item: impl FnMut(&mut fmt::Formatter<'_>, usize) -> fmt::Result,
) -> fmt::Result {
    let broken = depth < INLINE_DEPTH && len > 0;
    f.write_char(open)?;
    for i in 0..len {
        if i > 0 {
            f.write_char(',')?;
        }
        if broken {
            write!(f, "\n{:1$}", "", 2 * (depth + 1))?;
        } else if i > 0 {
            f.write_char(' ')?;
        }
        item(f, i)?;
    }
    if broken {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    f.write_char(close)
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

/// Write `doc` and a final newline to `path`, creating parent directories as
/// needed.
pub fn write_json(path: &Path, doc: &Json) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, format!("{doc}\n"))
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser recurses
/// once per level and the `trace` bin feeds it files the user names, so an
/// unbounded depth is a stack overflow on demand; a sampled trace, the
/// deepest artifact the repository writes, nests seven deep.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Errors carry the byte offset of the problem.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", c as char, *pos))
    }
}

/// Parse the value at `pos`, itself `depth` arrays/objects deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at offset {}",
            *pos
        )),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key is not a string at offset {}", *pos)),
                };
                expect(b, pos, b':')?;
                members.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| format!("bad \\u escape at offset {}", *pos))?;
                                // The writer leaves everything past U+001F
                                // unescaped, so surrogate pairs do not occur
                                // in our files; a lone one reads as U+FFFD.
                                s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at offset {}", *pos)),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Multi-byte UTF-8 sequences pass through untouched.
                        let start = *pos;
                        let len = if c < 0x80 {
                            1
                        } else if c >> 5 == 0b110 {
                            2
                        } else if c >> 4 == 0b1110 {
                            3
                        } else {
                            4
                        };
                        let chunk = b
                            .get(start..start + len)
                            .and_then(|ch| std::str::from_utf8(ch).ok())
                            .ok_or_else(|| format!("bad utf-8 at offset {start}"))?;
                        s.push_str(chunk);
                        *pos += len;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("the token is ASCII");
            // Digits alone that fit a u64 stay exact (`Big` where an f64
            // would round them); anything else is an f64. Rust's parsers take
            // a leading `+` and overflow to infinity; JSON has neither.
            let num = match text.parse::<u64>() {
                Ok(n) => Some(Json::from(n)),
                Err(_) => text
                    .parse()
                    .ok()
                    .filter(|n: &f64| n.is_finite())
                    .map(Json::Num),
            };
            let num = num.filter(|_| !text.starts_with('+'));
            num.ok_or_else(|| format!("bad number at offset {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

/// A ledger's `(name, value)` pairs as object members.
fn counters<const N: usize>(
    fields: [(&'static str, u64); N],
) -> impl Iterator<Item = (&'static str, Json)> {
    fields.into_iter().map(|(k, v)| (k, v.into()))
}

/// One QP row: identity, then the ledger. The same in the telemetry artifact
/// and in a frame.
fn qp_obj(q: &QpSnapshot) -> Json {
    let head = [
        ("node", q.node.into()),
        ("qp_num", q.qp_num.into()),
        ("state", q.state.into()),
    ];
    Json::obj(head.into_iter().chain(counters(q.fields())))
}

/// One CQ row. `pushed` is the per-status breakdown: keyed by status name in
/// the telemetry artifact, a bare array in a frame.
fn cq_obj(c: &CqSnapshot, pushed: Json) -> Json {
    let head = [("cq_id", c.cq_id.into()), ("pushed", pushed)];
    Json::obj(head.into_iter().chain(counters(c.fields())))
}

/// Render a snapshot plus its invariant report as a JSON document and
/// write it to `path`, creating parent directories as needed.
pub fn write_telemetry_json(path: &Path, snap: &Snapshot, report: &Report) -> io::Result<()> {
    write_json(path, &telemetry_json(snap, report))
}

fn telemetry_json(snap: &Snapshot, report: &Report) -> Json {
    let cq = |c: &CqSnapshot| {
        let by_name = STATUS_NAMES.into_iter().zip(c.pushed_by_status);
        cq_obj(c, Json::obj(by_name.map(|(k, v)| (k, v.into()))))
    };
    // The artifact groups the plan-source counters: every
    // `<source>_decisions` field is `decisions.<source>`.
    let (mut runtime, mut decisions) = (Vec::new(), Vec::new());
    for (k, v) in counters(snap.runtime.fields()) {
        match k.strip_suffix("_decisions") {
            Some(source) => decisions.push((source, v)),
            None => runtime.push((k, v)),
        }
    }
    runtime.push(("decisions", Json::obj(decisions)));
    Json::obj([
        ("qps", Json::arr(snap.qps.iter().map(qp_obj))),
        ("cqs", Json::arr(snap.cqs.iter().map(cq))),
        ("wire", Json::obj(counters(snap.wire.fields()))),
        ("runtime", Json::obj(runtime)),
        ("arena", Json::obj(counters(snap.arena.fields()))),
        (
            "invariants",
            Json::obj([
                ("clean", report.is_clean().into()),
                (
                    "violations",
                    Json::arr(report.violations.iter().map(|v| v.to_string())),
                ),
            ]),
        ),
    ])
}

/// Nanoseconds as the microseconds chrome-trace expects; sub-µs precision
/// survives as the fraction (exact below 2^53 ns, 104 days).
fn micros(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

/// The `{"stage": {count, sum, max, buckets}}` map the `trace` analyzer
/// reads, shared by the trace artifact and frame rendering.
fn stage_map(stages: &[(&str, HistSnapshot)]) -> Json {
    Json::obj(stages.iter().map(|(name, snap)| {
        let buckets = snap
            .buckets
            .iter()
            .map(|b| Json::arr([b.lo, b.hi, b.count]));
        let hist = Json::obj([
            ("count", snap.count.into()),
            ("sum", snap.sum.into()),
            ("max", snap.max.into()),
            ("buckets", Json::arr(buckets)),
        ]);
        (*name, hist)
    }))
}

/// One [`Frame`]: ledger deltas, stage windows and gauges under the key
/// names of the telemetry artifact.
fn frame_obj(f: &Frame) -> Json {
    let d = &f.deltas;
    let gauges = f.gauges.iter().map(|g| {
        let pair = [("total", g.total.into()), ("delta", g.delta.into())];
        (g.name, Json::obj(pair))
    });
    Json::obj([
        ("seq", f.seq.into()),
        ("t_ns", f.t_ns.into()),
        ("span_ns", f.span_ns.into()),
        ("qps", Json::arr(d.qps.iter().map(qp_obj))),
        (
            "cqs",
            Json::arr(
                d.cqs
                    .iter()
                    .map(|c| cq_obj(c, Json::arr(c.pushed_by_status))),
            ),
        ),
        ("wire", Json::obj(counters(d.wire.fields()))),
        ("runtime", Json::obj(counters(d.runtime.fields()))),
        ("arena", Json::obj(counters(d.arena.fields()))),
        ("stages", stage_map(&f.stages)),
        ("gauges", Json::obj(gauges)),
    ])
}

fn frames_value(frames: &[Frame]) -> Json {
    Json::arr(frames.iter().map(frame_obj))
}

/// Render a frame sequence as a JSON array. This is the canonical rendering
/// the determinism suites byte-compare, and the value of the `frames` key in
/// trace and flight-recorder artifacts.
pub fn frames_json(frames: &[Frame]) -> String {
    frames_value(frames).to_string()
}

/// The flow log as the `[flow, "stage", ts, qp, chan, aux]` tuples the
/// `trace` analyzer reads.
fn flow_tuples(flows: &[FlowEvent]) -> Json {
    Json::arr(flows.iter().map(|e| {
        Json::Arr(vec![
            e.flow.into(),
            e.stage.name().into(),
            e.ts_ns.into(),
            e.qp.into(),
            e.chan.into(),
            e.aux.into(),
        ])
    }))
}

/// The flight-recorder dump: run metadata, the retained frame ring, and the
/// tail of the flow log.
pub(crate) fn flightrec_json(
    tag: &str,
    reason: &str,
    frames: &[Frame],
    flows: &[FlowEvent],
) -> Json {
    let meta = Json::obj([
        ("tag", tag.into()),
        ("reason", reason.into()),
        ("format", 1u64.into()),
        ("frames", frames.len().into()),
        ("flow_tail", flows.len().into()),
    ]);
    Json::obj([
        ("meta", meta),
        ("frames", frames_value(frames)),
        ("flows", flow_tuples(flows)),
    ])
}

/// Write the full trace artifact for one run at `path`: the raw flow-event
/// list, the per-stage latency histograms, when the run was sampled the
/// frame ring under a `frames` key, and under `traceEvents` the chrome-trace
/// view of the flow events (one `X` span per stage interval, on one lane per
/// QP), plus per-window counter tracks (`ph: "C"`) so Perfetto plots
/// delivery and aggregation rates over the flow timeline. Chrome-trace
/// viewers render `traceEvents` and ignore the other keys; the `trace`
/// analyzer reads `flows`, `stages` and `frames`. `flows` is sorted by
/// `(flow, ts, stage)`, as [`FlowLog::sorted`](crate::FlowLog::sorted)
/// returns it. Returns the number of `traceEvents` written.
pub fn write_trace_json(
    path: &Path,
    workload: &str,
    flows: &[FlowEvent],
    stages: &[(&str, HistSnapshot)],
    frames: &[Frame],
) -> io::Result<usize> {
    let doc = trace_json(workload, flows, stages, frames);
    write_json(path, &doc)?;
    let events = doc.get("traceEvents").and_then(Json::as_arr);
    Ok(events.map_or(0, <[Json]>::len))
}

/// The chrome-trace view of the flow log, one lane per QP (`pid` 0, `tid` =
/// QP number, which is network-wide unique). Within a flow, each pair of
/// consecutive events is one `X` span on the lane of the first, named after
/// its stage and lasting until the second; a `Posted` that held partitions
/// adds an `agg_hold` span ending at the post; and an `s`/`f` arrow keyed by
/// the flow id links the post to the arrival.
fn flow_view(flows: &[FlowEvent], out: &mut Vec<Json>) {
    let head = |name: &str, ph: &str, e: &FlowEvent| {
        let lane = [("pid", 0u64.into()), ("tid", e.qp.into())];
        let kind = [
            ("name", name.into()),
            ("cat", "flow".into()),
            ("ph", ph.into()),
        ];
        kind.into_iter().chain(lane)
    };
    let span = |name: &str, e: &FlowEvent, ts_ns: u64, dur_ns: u64| {
        let args = Json::obj([("flow", e.flow.into())]);
        let tail = [
            ("ts", micros(ts_ns)),
            ("dur", micros(dur_ns)),
            ("args", args),
        ];
        Json::obj(head(name, "X", e).chain(tail))
    };
    for chain in flows.chunk_by(|a, b| a.flow == b.flow) {
        for (i, e) in chain.iter().enumerate() {
            if e.stage == FlowStage::Posted && e.aux > 0 {
                let start = e.ts_ns.saturating_sub(e.aux);
                out.push(span("agg_hold", e, start, e.ts_ns - start));
            }
            if let Some(next) = chain.get(i + 1) {
                let dur_ns = next.ts_ns.saturating_sub(e.ts_ns);
                out.push(span(e.stage.name(), e, e.ts_ns, dur_ns));
            }
            let (ph, bind) = match e.stage {
                FlowStage::Posted => ("s", None),
                FlowStage::Arrived => ("f", Some(("bp", "e".into()))),
                _ => continue,
            };
            let tail = [("id", e.flow.into()), ("ts", micros(e.ts_ns))];
            out.push(Json::obj(head("flow", ph, e).chain(bind).chain(tail)));
        }
    }
}

fn trace_json(
    workload: &str,
    flows: &[FlowEvent],
    stages: &[(&str, HistSnapshot)],
    frames: &[Frame],
) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(3 * flows.len() + 2 * frames.len());
    flow_view(flows, &mut events);
    // Counter tracks: one sample per frame, so viewers plot the windowed
    // delivery/aggregation rates alongside the flow timeline.
    for f in frames {
        let (w, r) = (&f.deltas.wire, &f.deltas.runtime);
        let track = |name: &str, args: Json| {
            Json::obj([
                ("name", name.into()),
                ("ph", "C".into()),
                ("pid", 0u64.into()),
                ("tid", 0u64.into()),
                ("ts", micros(f.t_ns)),
                ("args", args),
            ])
        };
        events.push(track(
            "wire_rate",
            Json::obj([
                ("delivered", w.delivered.into()),
                ("retransmits", w.retransmits.into()),
                ("bytes_delivered", w.bytes_delivered.into()),
            ]),
        ));
        events.push(track(
            "runtime_rate",
            Json::obj([
                ("preadys", r.preadys.into()),
                ("aggregated_wrs", r.aggregated_wrs.into()),
            ]),
        ));
    }
    let meta = Json::obj([("workload", workload.into()), ("format", 1u64.into())]);
    let sampled = (!frames.is_empty()).then(|| ("frames", frames_value(frames)));
    Json::obj(
        [
            ("meta", meta),
            ("traceEvents", Json::Arr(events)),
            ("flows", flow_tuples(flows)),
            ("stages", stage_map(stages)),
        ]
        .into_iter()
        .chain(sampled)
        .chain([("displayTimeUnit", "ns".into())]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowEvent, FlowStage};
    use crate::invariants;
    use crate::timeseries::{snapshot_accum, snapshot_delta, FrameGauge};
    use proptest::prelude::*;

    fn reparse(doc: &Json) -> Json {
        let text = doc.to_string();
        parse_json(&text).unwrap_or_else(|e| panic!("{e} in:\n{text}"))
    }

    #[test]
    fn escape_handles_specials() {
        let s = Json::from("a\"b\\c\nd\u{1}é");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(reparse(&s), s);
    }

    #[test]
    fn micros_preserves_sub_us() {
        assert_eq!(micros(0).to_string(), "0");
        assert_eq!(micros(1500).to_string(), "1.5");
        assert_eq!(micros(999).to_string(), "0.999");
        // The value the earlier fixed-point writer ("1234.567") read back as.
        assert_eq!(Ok(micros(1_234_567)), parse_json("1234.567"));
    }

    #[test]
    fn json_round_trips_nested_values() {
        let doc =
            parse_json(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true, "e": null}}"#).unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0)
            ]))
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("b").unwrap().get("e"), Some(&Json::Null));
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded_and_the_error_names_the_offset() {
        // 200 000 levels overflowed the stack (SIGABRT) before the bound.
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at offset 128");
        let err = parse_json(&"{\"a\":".repeat(200_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at offset 640");
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_json(&deepest).is_ok());
        assert!(parse_json(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn numbers_are_exact_or_refused() {
        // At the parent: 1.9 -> 1, 1e300 -> u64::MAX, "+1" -> 1, 1e999 -> inf.
        assert_eq!(Json::Num(1.9).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(Json::Num(4096.0).as_u64(), Some(4096));
        assert_eq!(Json::from(u64::MAX).as_u64(), Some(u64::MAX));
        for bad in ["+1", "+1.5", "1e999", "-1e999", "-", "1e", "--1", "x"] {
            assert!(parse_json(bad).is_err(), "{bad} must not parse");
        }
        // Every number token reads as `Num`, as it always has, unless an f64
        // would round it: u64::MAX goes digit for digit, both ways.
        assert_eq!(parse_json("76"), Ok(Json::Num(76.0)));
        assert_eq!(Json::from(u64::MAX), Json::Big(u64::MAX));
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(parse_json("18446744073709551615"), Ok(Json::Big(u64::MAX)));
        assert_eq!(parse_json("9007199254740993"), Ok(Json::Big((1 << 53) + 1)));
        assert_eq!(
            parse_json("9007199254740992"),
            Ok(Json::Num(9007199254740992.0))
        );
        assert_eq!(
            parse_json("18446744073709551616"),
            Ok(Json::Num(18_446_744_073_709_551_616.0))
        );
        // Integers in full digits, never an exponent, below 2^64.
        assert_eq!(Json::from(1u64 << 60).to_string(), "1152921504606846976");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(1e20).to_string(), "1e20");
        assert_eq!(parse_json("1e3"), Ok(Json::Num(1000.0)));
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn layout_breaks_two_levels_and_inlines_the_rest() {
        let doc = Json::obj([
            ("a", Json::arr([Json::arr([1u64, 2]), Json::Arr(vec![])])),
            ("b", Json::obj([("c", Json::obj([("d", Json::Null)]))])),
            ("e", Json::Obj(vec![])),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"a\": [\n    [1, 2],\n    []\n  ],\n  \"b\": {\n    \"c\": {\"d\": null}\n  },\n  \"e\": {}\n}"
        );
    }

    /// A value built from a pool of random words: every scalar kind (finite
    /// floats — the writer has no spelling for the others), strings over the
    /// characters that need care, empty and nested containers.
    fn json_from(words: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
        const CHARS: [char; 14] = [
            '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{1f}', ' ', 'a', 'é', '€', '😀', '\u{7f}',
        ];
        // Up to seven characters, picked by successive nibbles of one word.
        let text = |w: u64| -> String {
            let picks = (0..w % 8).map(|i| CHARS[(w >> (8 + 4 * i)) as usize % CHARS.len()]);
            picks.collect()
        };
        let (kind, w) = (words.next().unwrap_or(0), words.next().unwrap_or(0));
        match kind % if depth < 6 { 7 } else { 5 } {
            0 => Json::Null,
            1 => Json::Bool(w & 1 == 1),
            2 => Json::from(w),
            3 => Json::Num(
                Some(f64::from_bits(w))
                    .filter(|f| f.is_finite())
                    .unwrap_or(w as f64 / 3.0),
            ),
            4 => Json::Str(text(w)),
            5 => Json::Arr((0..w % 4).map(|_| json_from(words, depth + 1)).collect()),
            _ => Json::Obj(
                (0..w % 4)
                    .map(|i| {
                        (
                            text(w.rotate_left(8 * i as u32)),
                            json_from(words, depth + 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_inverts_write(
            words in prop::collection::vec(any::<u64>(), 16..512),
            wrap in 0..MAX_DEPTH,
        ) {
            let v = json_from(&mut words.into_iter(), 0);
            prop_assert_eq!(reparse(&v), v);
            // Up to the parser's bound: `wrap` arrays around a scalar nest
            // `wrap` deep; one more level is an error, not a stack overflow.
            let nest = |levels: usize| (0..levels).fold(Json::from(7u64), |v, _| Json::Arr(vec![v]));
            prop_assert_eq!(reparse(&nest(wrap)), nest(wrap));
            prop_assert_eq!(reparse(&nest(MAX_DEPTH)), nest(MAX_DEPTH));
            prop_assert!(parse_json(&nest(MAX_DEPTH + 1).to_string()).is_err());
        }

        /// Arbitrary bytes and strings over JSON's own alphabet (which get
        /// past the first byte): `Err`, never a panic. The `tracefile` suite
        /// runs the same over a real artifact cut or flipped anywhere.
        #[test]
        fn no_input_panics_the_parser(
            junk in prop::collection::vec(any::<u8>(), 0..64),
            jsonish in prop::collection::vec(
                prop::sample::select(b"[]{}\":,\\u0123456789-+.eEtrufalsn \n".to_vec()),
                0..64,
            ),
        ) {
            let _ = parse_json(&String::from_utf8_lossy(&junk));
            let _ = parse_json(&String::from_utf8_lossy(&jsonish));
        }
    }

    /// A snapshot with two QP rows, two CQ rows and every ledger field set to
    /// a distinct value (`base`, `base + 1`, ... in visit order), walked from
    /// the definitions: a counter added to a ledger is covered unasked.
    fn distinct_snapshot(base: u64) -> Snapshot {
        let qp = |node, qp_num| QpSnapshot {
            node,
            qp_num,
            state: "RTS",
            ..QpSnapshot::default()
        };
        let cq = |cq_id, first: u64| CqSnapshot {
            cq_id,
            pushed_by_status: std::array::from_fn(|i| base + first + i as u64),
            ..CqSnapshot::default()
        };
        let mut snap = Snapshot {
            qps: vec![qp(0, 100), qp(1, 101)],
            cqs: vec![cq(7, 500), cq(8, 600)],
            ..Snapshot::default()
        };
        let mut next = base;
        snap.for_each_ledger(|_, _, slots| {
            for v in slots {
                **v = next;
                next += 1;
            }
        });
        snap
    }

    /// Where a field of the n-th `ledger` visited lives in a rendered
    /// telemetry document or frame.
    fn rendered<'a>(doc: &'a Json, ledger: &str, row: usize, name: &str) -> Option<&'a Json> {
        let holder = doc.get(ledger)?;
        let holder = match holder {
            Json::Arr(rows) => &rows[row],
            obj => obj,
        };
        holder.get(name).or_else(|| {
            holder
                .get("decisions")?
                .get(name.strip_suffix("_decisions")?)
        })
    }

    #[test]
    fn every_ledger_field_reaches_every_rendering() {
        let mut snap = distinct_snapshot(1_000);
        let telemetry = reparse(&telemetry_json(&snap, &invariants::check(&snap)));
        let frame = Frame {
            seq: 0,
            t_ns: 10,
            span_ns: 10,
            deltas: snap.clone(),
            stages: Vec::new(),
            gauges: Vec::new(),
        };
        let frames = parse_json(&frames_json(std::slice::from_ref(&frame))).unwrap();

        let (mut rows, mut seen) = (std::collections::HashMap::new(), 0);
        snap.for_each_ledger(|ledger, defs, slots| {
            let row = rows.entry(ledger).or_insert(0usize);
            for (f, v) in defs.iter().zip(slots.iter()) {
                let want = Some(Json::from(**v));
                let at = format!("{ledger}[{row}].{}", f.name);
                assert_eq!(
                    rendered(&telemetry, ledger, *row, f.name).cloned(),
                    want,
                    "{at}"
                );
                let in_frame = rendered(&frames.as_arr().unwrap()[0], ledger, *row, f.name);
                assert_eq!(in_frame.cloned(), want, "frame {at}");
                seen += 1;
            }
            *row += 1;
        });
        assert!(seen >= 2 * 11 + 2 * 4 + 17 + 11 + 5, "walked {seen} fields");
        // The CQ status breakdown, the one member outside the field tables.
        let cq0 = &telemetry.get("cqs").and_then(Json::as_arr).unwrap()[0];
        let pushed = cq0.get("pushed").unwrap();
        assert_eq!(pushed.get("retry_exceeded"), Some(&Json::from(1_502u64)));
    }

    #[test]
    fn every_ledger_field_is_windowed_summed_and_digested() {
        let prev = distinct_snapshot(1_000);
        let inc = distinct_snapshot(50_000);
        let mut cur = prev.clone();
        snapshot_accum(&mut cur, &inc);
        assert_eq!(snapshot_delta(&prev, &cur), inc);

        // Field by field: a counter was summed, a gauge overwritten.
        let (mut before, mut added) = (Vec::new(), Vec::new());
        prev.clone()
            .for_each_ledger(|_, _, s| before.extend(s.iter().map(|v| **v)));
        inc.clone()
            .for_each_ledger(|_, _, s| added.extend(s.iter().map(|v| **v)));
        let mut i = 0;
        cur.clone().for_each_ledger(|ledger, defs, slots| {
            for (f, v) in defs.iter().zip(slots.iter()) {
                let want = if f.gauge {
                    added[i]
                } else {
                    before[i] + added[i]
                };
                assert_eq!(**v, want, "{ledger}.{}", f.name);
                i += 1;
            }
        });

        // The digest moves with every field it covers and with no other.
        let digest = prev.ledger_digest();
        for bumped in 0..before.len() {
            let (mut probe, mut i, mut covered) = (prev.clone(), 0, false);
            probe.for_each_ledger(|_, defs, slots| {
                for (f, v) in defs.iter().zip(slots.iter_mut()) {
                    if i == bumped {
                        **v += 1;
                        covered = f.digest;
                    }
                    i += 1;
                }
            });
            assert_eq!(probe.ledger_digest() != digest, covered, "field #{bumped}");
        }
    }

    #[test]
    fn telemetry_json_is_balanced() {
        let snap = Snapshot::default();
        let report = invariants::check(&snap);
        let doc = reparse(&telemetry_json(&snap, &report));
        let Json::Obj(members) = &doc else {
            panic!("not an object: {doc}")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["qps", "cqs", "wire", "runtime", "arena", "invariants"]
        );
        let verdict = doc.get("invariants").unwrap();
        assert_eq!(verdict.get("clean"), Some(&Json::Bool(true)));
        assert_eq!(verdict.get("violations"), Some(&Json::Arr(vec![])));
    }

    fn flow(flow: u64, stage: FlowStage, ts_ns: u64, aux: u64) -> FlowEvent {
        FlowEvent {
            flow,
            stage,
            ts_ns,
            qp: 9,
            chan: 1,
            aux,
        }
    }

    #[test]
    fn trace_json_carries_flows_and_stages() {
        use crate::hist::LogHistogram;
        let flows = vec![
            flow(3, FlowStage::Posted, 100, 0),
            flow(3, FlowStage::Arrived, 900, 4),
        ];
        let h = LogHistogram::new();
        h.record(800);
        let stages = vec![("wire_ns", h.snapshot())];
        let doc = reparse(&trace_json("unit", &flows, &stages, &[]));
        let meta = doc.get("meta").unwrap();
        assert_eq!(meta.get("workload").and_then(Json::as_str), Some("unit"));
        let first = &doc.get("flows").and_then(Json::as_arr).unwrap()[0];
        let want = [3u64.into(), "posted".into(), 100u64.into(), 9u64.into()];
        assert_eq!(first.as_arr().unwrap()[..4], want);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phases: Vec<_> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str())
            .collect();
        assert_eq!(phases, [Some("X"), Some("s"), Some("f")]);
        assert_eq!(events[2].get("bp").and_then(Json::as_str), Some("e"));
        let wire = doc.get("stages").unwrap().get("wire_ns").unwrap();
        assert_eq!(wire.get("count"), Some(&Json::from(1u64)));
        assert_eq!(doc.get("frames"), None, "unsampled run has no frames key");
    }

    #[test]
    fn trace_json_with_frames_is_balanced_and_has_counters() {
        let mut deltas = Snapshot::default();
        deltas.wire.delivered = 12;
        deltas.runtime.preadys = 3;
        let frames = vec![Frame {
            seq: 0,
            t_ns: 2_000,
            span_ns: 2_000,
            deltas,
            stages: Vec::new(),
            gauges: vec![FrameGauge {
                name: "iters",
                total: 5,
                delta: 5,
            }],
        }];
        let doc = reparse(&trace_json("unit", &[], &[], &frames));
        let frame = &doc.get("frames").and_then(Json::as_arr).unwrap()[0];
        let iters = frame.get("gauges").unwrap().get("iters").unwrap();
        assert_eq!(iters.get("total"), Some(&Json::from(5u64)));
        assert_eq!(iters.get("delta"), Some(&Json::from(5u64)));
        let tracks = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[0].get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(tracks[0].get("ts"), Some(&Json::Num(2.0)));
        let args = tracks[0].get("args").unwrap();
        assert_eq!(args.get("delivered"), Some(&Json::from(12u64)));
    }

    #[test]
    fn flightrec_json_is_balanced() {
        let flows = vec![flow(1, FlowStage::Posted, 10, 0)];
        let doc = reparse(&flightrec_json("unit \"tag\"", "panic: boom", &[], &flows));
        let meta = doc.get("meta").unwrap();
        assert_eq!(meta.get("tag").and_then(Json::as_str), Some("unit \"tag\""));
        assert_eq!(
            meta.get("reason").and_then(Json::as_str),
            Some("panic: boom")
        );
        assert_eq!(meta.get("flow_tail"), Some(&Json::from(1u64)));
        assert_eq!(doc.get("frames"), Some(&Json::Arr(vec![])));
        assert_eq!(doc.get("flows").and_then(Json::as_arr).unwrap().len(), 1);
    }

    #[test]
    fn chrome_view_is_rendered_from_the_flow_events() {
        use FlowStage::*;
        let ev = |flow, stage, ts_ns, qp, aux| FlowEvent {
            flow,
            stage,
            ts_ns,
            qp,
            chan: 1,
            aux,
        };
        // Sorted by (flow, ts, stage), as `FlowLog::sorted` returns them:
        // a clean flow held 300 ns, a retransmitted one, a capped one.
        let flows = [
            ev(1, Posted, 1000, 5, 300),
            ev(1, WireSubmit, 1100, 5, 900),
            ev(1, Delivered, 2000, 6, 64),
            ev(1, RecvCqe, 2100, 6, 0),
            ev(1, Arrived, 2200, 6, 0),
            ev(1, SendCqe, 2500, 5, 0),
            ev(2, Posted, 3000, 5, 0),
            ev(2, WireSubmit, 3100, 5, 900),
            ev(2, Retransmit, 3500, 5, 500),
            ev(2, WireSubmit, 4000, 5, 800),
            ev(2, Delivered, 4800, 6, 64),
            ev(2, Arrived, 4900, 6, 0),
            ev(3, Posted, 5000, 7, 50),
            ev(3, CapQueued, 5000, 7, 0),
            ev(3, CapDequeued, 5600, 7, 600),
            ev(3, WireSubmit, 5600, 7, 400),
            ev(3, Delivered, 6000, 8, 64),
            ev(3, Arrived, 6000, 8, 0),
        ];
        let doc = reparse(&trace_json("unit", &flows, &[], &[]));
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let of = |ph: &str| -> Vec<&Json> {
            let ph = Json::from(ph);
            events.iter().filter(|e| e.get("ph") == Some(&ph)).collect()
        };
        let lane = |e: &Json| (e.get("pid").cloned(), e.get("tid").cloned());

        let spans = of("X");
        let got: Vec<_> = spans
            .iter()
            .map(|e| {
                assert_eq!(e.get("cat"), Some(&Json::from("flow")));
                let field = |k| e.get(k).cloned().unwrap();
                (field("name"), lane(e), field("ts"), field("dur"))
            })
            .collect();
        let want: Vec<_> = [
            ("agg_hold", 5u32, 700, 300),
            ("posted", 5, 1000, 100),
            ("wire_submit", 5, 1100, 900),
            ("delivered", 6, 2000, 100),
            ("recv_cqe", 6, 2100, 100),
            ("arrived", 6, 2200, 300),
            ("posted", 5, 3000, 100),
            ("wire_submit", 5, 3100, 400),
            ("retransmit", 5, 3500, 500),
            ("wire_submit", 5, 4000, 800),
            ("delivered", 6, 4800, 100),
            ("agg_hold", 7, 4950, 50),
            ("posted", 7, 5000, 0),
            ("cap_queued", 7, 5000, 600),
            ("cap_dequeued", 7, 5600, 0),
            ("wire_submit", 7, 5600, 400),
            ("delivered", 8, 6000, 0),
        ]
        .into_iter()
        .map(|(name, qp, ts, dur)| {
            let lane = (Some(Json::from(0u64)), Some(Json::from(qp)));
            (Json::from(name), lane, micros(ts), micros(dur))
        })
        .collect();
        assert_eq!(got, want);
        // events − flows + non-zero holds.
        assert_eq!(spans.len(), flows.len() - 3 + 2);

        // Arrows: post → arrival per flow, each on a lane its spans use.
        let arrows: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("s" | "f")))
            .map(|e| {
                let ph = e.get("ph").and_then(Json::as_str).unwrap();
                (
                    ph,
                    e.get("id").cloned().unwrap(),
                    lane(e),
                    e.get("ts").cloned(),
                )
            })
            .collect();
        let at = |ph, flow: u64, qp: u32, ts| {
            let lane = (Some(Json::from(0u64)), Some(Json::from(qp)));
            (ph, Json::from(flow), lane, Some(micros(ts)))
        };
        assert_eq!(
            arrows,
            [
                at("s", 1, 5, 1000),
                at("f", 1, 6, 2200),
                at("s", 2, 5, 3000),
                at("f", 2, 6, 4900),
                at("s", 3, 7, 5000),
                at("f", 3, 8, 6000),
            ]
        );
        for (_, id, arrow_lane, _) in &arrows {
            let flow = Json::obj([("flow", id.clone())]);
            assert!(spans
                .iter()
                .any(|s| s.get("args") == Some(&flow) && lane(s) == *arrow_lane));
        }
    }
}
