//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The tree is workload → repetition → phase → layer call. A span records
//! `{name, start_ns, end_ns, parent, rep, count}`; calls too short to time
//! one by one (a `pready` is ~100 ns) are timed as a [`Batch`] and enter the
//! tree as one span whose `busy_ns` is the summed time of `count` calls. A
//! span's self time is its busy time minus the busy time of its children.
//! Spans stay in memory and are written out once, when the run ends.
//!
//! A disabled tracer takes no timestamps: `span` just runs its closure, so
//! the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call or phase name.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Time spent inside the span: `end_ns - start_ns` for a plain span, the
    /// summed call time for a batch.
    pub busy_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (0 = set-up and warm-up).
    pub rep: u32,
    /// Calls the span covers (1 for a plain span).
    pub count: u64,
}

/// Summed calls of one kind, timed together.
#[derive(Clone, Copy, Debug, Default)]
pub struct Batch {
    busy: Duration,
    count: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Batch {
    /// Time `f`, which makes `calls` calls into the layer.
    #[inline]
    pub fn time<R>(&mut self, calls: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.first.get_or_insert(t0);
        self.last = Some(t1);
        self.busy += t1 - t0;
        self.count += calls;
        r
    }

    /// Add the calls `other` timed (later than this batch's) to this batch.
    pub fn absorb(&mut self, other: &Batch) {
        self.busy += other.busy;
        self.count += other.count;
        self.first = self.first.or(other.first);
        self.last = other.last.or(self.last);
    }

    /// Mean ns per call, 0 when nothing was timed.
    pub fn ns_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy.as_nanos() as f64 / self.count as f64
        }
    }
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of that name.
    pub spans: u64,
    /// Calls they cover.
    pub count: u64,
    /// Summed busy time.
    pub busy_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures it is
    /// handed.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between repetitions (the traced run
    /// alternates the two to measure the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans");
        self.enabled = on;
    }

    /// Label the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
            count: 1,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end_ns = self.ns(Instant::now());
        self.spans[id].end_ns = end_ns;
        self.spans[id].busy_ns = end_ns - start_ns;
        r
    }

    /// Record `batch` as one child span of the current span.
    pub fn record_batch(&mut self, name: &'static str, batch: &Batch) {
        let (Some(first), Some(last)) = (batch.first, batch.last) else {
            return;
        };
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(first),
            end_ns: self.ns(last),
            busy_ns: batch.busy.as_nanos() as u64,
            parent: self.stack.last().copied(),
            rep: self.rep,
            count: batch.count,
        });
    }

    /// The recorded spans, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: busy time minus the busy time of its
    /// children (never below zero: batch children may overlap clock reads).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_busy)
            .map(|(s, c)| s.busy_ns.saturating_sub(c))
            .collect()
    }

    /// Totals per span name, over repetitions `>= 1` (the timed ones).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            if s.rep == 0 {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.count += s.count;
            t.busy_ns += s.busy_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The trace as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        );
        let self_times = self.self_times();
        for (i, (s, self_ns)) in self.spans.iter().zip(&self_times).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"busy_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \
                 \"rep\": {}, \"count\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.busy_ns, s.rep, s.count
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, busy_ns: u64, parent: Option<usize>, count: u64) -> Span {
        Span {
            name,
            start_ns: 0,
            end_ns: busy_ns,
            busy_ns,
            parent,
            rep: 1,
            count,
        }
    }

    #[test]
    fn self_time_is_busy_minus_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("rep", 1_000, None, 1),
            span("phase", 700, Some(0), 1),
            span("call", 250, Some(1), 10),
            span("call", 300, Some(1), 12),
        ];
        assert_eq!(t.self_times(), vec![300, 150, 250, 300]);
        let totals = t.totals();
        assert_eq!(
            totals["call"],
            NameTotals {
                spans: 2,
                count: 22,
                busy_ns: 550,
                self_ns: 550
            }
        );
        assert_eq!(totals["phase"].self_ns, 150);
    }

    #[test]
    fn nesting_sets_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_rep(1);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            let mut b = Batch::default();
            b.time(4, || std::hint::black_box(1 + 1));
            t.record_batch("calls", &b);
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!(s[2].count, 4);
        assert!(s[0].busy_ns >= s[1].busy_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn json_lists_every_span() {
        let mut t = Tracer::new(true);
        t.span("a", |t| t.span("b", |_| ()));
        let json = t.to_json("w", 3);
        let doc = partix_bench::tracefile::parse_json(&json).expect("trace parses");
        let spans = doc.get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
    }
}
