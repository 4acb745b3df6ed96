//! Crash flight recorder: dump the sampler's frame ring plus the tail of
//! the flow log when a run dies.
//!
//! A [`FlightRecorder`] pairs a [`Sampler`] (the last N windows of ledger
//! activity) with an optional [`FlowLog`] (the most recent causal events,
//! from which a reader computes each window's stage histograms) and knows
//! how to serialize both to `flightrec_<tag>.json` in a target directory.
//! Dumps trigger two ways:
//!
//! - **Panic**: [`FlightRecorder::arm`] registers the recorder on a global
//!   list consulted by a process-wide chained panic hook. If any armed
//!   recorder is alive when a panic unwinds, it dumps once with the panic
//!   message as the reason, then the previous hook runs (so backtraces are
//!   unaffected).
//! - **Invariant violation**: callers that reconcile the ledger at
//!   quiescence call [`FlightRecorder::dump`] directly with the violation
//!   text when `invariants::check` comes back dirty.
//!
//! A recorder dumps at most once (first trigger wins); the armed list holds
//! weak references, so dropping every `Arc<FlightRecorder>` disarms it.

use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, Weak};

use crate::flow::FlowLog;
use crate::json::{flightrec_json, write_json};
use crate::timeseries::Sampler;

/// Recorders consulted by the panic hook. A plain `std` mutex: the list is
/// touched only on arm/disarm and inside the hook, and must stay usable
/// even if a panic poisons nothing else.
fn armed() -> &'static Mutex<Vec<Weak<FlightRecorder>>> {
    static ARMED: OnceLock<Mutex<Vec<Weak<FlightRecorder>>>> = OnceLock::new();
    ARMED.get_or_init(|| Mutex::new(Vec::new()))
}

fn install_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let reason = info.to_string();
            let live: Vec<Arc<FlightRecorder>> = match armed().lock() {
                Ok(list) => list.iter().filter_map(Weak::upgrade).collect(),
                Err(poisoned) => poisoned
                    .into_inner()
                    .iter()
                    .filter_map(Weak::upgrade)
                    .collect(),
            };
            for rec in live {
                // A failing dump must never turn the panic into an abort.
                let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                    let _ = rec.dump(&reason);
                }));
            }
            prev(info);
        }));
    });
}

/// See the module docs. Build with [`FlightRecorder::new`], then
/// [`arm`](FlightRecorder::arm) it for panic coverage and/or call
/// [`dump`](FlightRecorder::dump) on an invariant violation.
pub struct FlightRecorder {
    tag: String,
    dir: PathBuf,
    sampler: Arc<Sampler>,
    flow_log: Option<Arc<FlowLog>>,
    flow_tail: usize,
    dumped: AtomicBool,
}

impl FlightRecorder {
    /// A recorder that will write `dir/flightrec_<tag>.json` from
    /// `sampler`'s retained frames. No flow tail unless
    /// [`with_flow_log`](FlightRecorder::with_flow_log) is chained. Wrap in
    /// an `Arc` to [`arm`](FlightRecorder::arm) it.
    pub fn new(tag: impl Into<String>, dir: impl Into<PathBuf>, sampler: Arc<Sampler>) -> Self {
        FlightRecorder {
            tag: tag.into(),
            dir: dir.into(),
            sampler,
            flow_log: None,
            flow_tail: 0,
            dumped: AtomicBool::new(false),
        }
    }

    /// Include the `tail` latest events of `log` in the dump: the last by
    /// `(ts, flow, stage)`, written in the log's `(flow, ts, stage)` order.
    pub fn with_flow_log(mut self, log: Arc<FlowLog>, tail: usize) -> Self {
        self.flow_log = Some(log);
        self.flow_tail = tail;
        self
    }

    /// Register on the panic hook's armed list (installing the hook on
    /// first use). The registration is weak: dropping the last `Arc`
    /// disarms the recorder.
    pub fn arm(self: &Arc<Self>) {
        install_hook();
        let mut list = match armed().lock() {
            Ok(l) => l,
            Err(poisoned) => poisoned.into_inner(),
        };
        list.retain(|w| w.strong_count() > 0);
        list.push(Arc::downgrade(self));
    }

    /// Where the dump lands.
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("flightrec_{}.json", self.tag))
    }

    /// Write the dump now with `reason` recorded in its metadata. Returns
    /// `Ok(None)` if this recorder already dumped (first trigger wins).
    pub fn dump(&self, reason: &str) -> io::Result<Option<PathBuf>> {
        if self.dumped.swap(true, Ordering::SeqCst) {
            return Ok(None);
        }
        let frames = self.sampler.frames();
        let flows = match &self.flow_log {
            Some(log) if self.flow_tail > 0 => {
                let mut all = log.sorted();
                all.sort_by_key(|e| (e.ts_ns, e.flow, e.stage));
                let mut tail = all.split_off(all.len().saturating_sub(self.flow_tail));
                tail.sort_by_key(|e| (e.flow, e.ts_ns, e.stage));
                tail
            }
            _ => Vec::new(),
        };
        let path = self.path();
        write_json(&path, &flightrec_json(&self.tag, reason, &frames, &flows))?;
        Ok(Some(path))
    }

    /// The target directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{Sample, SampleSource, SamplerConfig};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("partix-flightrec-{}-{}", tag, std::process::id()))
    }

    fn test_sampler() -> Arc<Sampler> {
        let source: SampleSource = Arc::new(|| {
            let mut s = Sample::default();
            s.snapshot.wire.delivered = 5;
            s
        });
        Sampler::new(
            SamplerConfig {
                interval_ns: 10,
                capacity: 4,
                deterministic: false,
            },
            source,
        )
    }

    #[test]
    fn dump_writes_once() {
        let sampler = test_sampler();
        sampler.tick(10);
        let dir = temp_dir("once");
        let rec = FlightRecorder::new("unit_once", &dir, sampler);
        let rec = Arc::new(rec);
        let first = rec.dump("invariant violation: test").unwrap();
        assert!(first.is_some());
        let text = std::fs::read_to_string(first.unwrap()).unwrap();
        assert!(text.contains("\"reason\": \"invariant violation: test\""));
        assert!(text.contains("\"delivered\": 5"));
        let second = rec.dump("later").unwrap();
        assert!(second.is_none(), "second trigger must be a no-op");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The tail is the latest events, not the highest flow ids: a low flow's
    /// late event outranks a newer flow's early one.
    #[test]
    fn flow_tail_keeps_the_latest_events() {
        use crate::flow::{FlowEvent, FlowStage};
        use crate::json::parse_json;
        let log = FlowLog::new();
        for (flow, ts_ns) in [(1, 900), (2, 100)] {
            log.record(FlowEvent {
                flow,
                stage: FlowStage::Arrived,
                ts_ns,
                qp: 1,
                chan: 0,
                aux: 0,
            });
        }
        let dir = temp_dir("tail");
        let rec = FlightRecorder::new("unit_tail", &dir, test_sampler()).with_flow_log(log, 1);
        let path = rec.dump("tail").unwrap().unwrap();
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let flows = doc.get("flows").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(flows.len(), 1);
        let row = flows[0].as_arr().unwrap();
        assert_eq!((row[0].as_u64(), row[2].as_u64()), (Some(1), Some(900)));
    }

    #[test]
    fn panic_in_thread_triggers_armed_dump() {
        let sampler = test_sampler();
        sampler.tick(10);
        let dir = temp_dir("panic");
        let rec = Arc::new(FlightRecorder::new("unit_panic", &dir, sampler));
        rec.arm();
        let h = std::thread::spawn(|| panic!("injected failure for flightrec"));
        assert!(h.join().is_err());
        let text = std::fs::read_to_string(rec.path()).unwrap();
        assert!(text.contains("injected failure for flightrec"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        std::fs::remove_dir_all(&dir).ok();
    }
}
