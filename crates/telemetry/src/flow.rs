//! Causal flow tracing: per-message flow IDs and the stage events that let
//! an analyzer reconstruct where each partitioned message spent its time.
//!
//! A *flow* is one aggregated work request's life: minted when the
//! aggregation layer builds the WR (`Posted`), carried through the verbs
//! layer on the WR/transfer/completion structs, and closed when the
//! receiver applies the arrival (`Arrived`). Producers record
//! [`FlowEvent`]s through the world-wide [`FlowRecorder`]; when tracing is
//! off every site pays a single relaxed atomic load and records nothing, so
//! the hot path stays allocation-free and traced runs stay byte-identical
//! to untraced runs (recording never touches the scheduler).
//!
//! The log is the only record of where a flow spent its time: each wait
//! class of the stall taxonomy is the `aux` of one or two stages, and
//! [`stage_histograms`] computes the per-stage tables from the events.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::hist::HistSnapshot;

/// A shared nanosecond clock closure (virtual time under the simulator,
/// wall time otherwise). Injected at attach time so this crate needs no
/// dependency on the simulator.
pub type ClockHook = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Lifecycle stages of a flow, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowStage {
    /// The aggregation layer built and posted the WR (`aux` = aggregation
    /// hold time in ns: oldest member partition's `pready` to post).
    Posted,
    /// The WR spilled to the software pending queue because the QP's
    /// outstanding-WR cap was full (`aux` = 0).
    CapQueued,
    /// The progress engine re-posted a previously capped WR (`aux` = wait
    /// ns spent in the software queue).
    CapDequeued,
    /// The fabric accepted the transfer onto the wire (`aux` = wire time in
    /// ns: doorbell to delivery on a modelled wire, submit to acknowledgement
    /// on a real one).
    WireSubmit,
    /// The lossy wire dropped the transfer and scheduled a retransmission
    /// (`aux` = backoff ns until the retry).
    Retransmit,
    /// Delivery found no receive WR posted; the attempt re-arms after the
    /// receiver's RNR timer (`aux` = RNR wait ns).
    RnrWait,
    /// Payload landed in the target memory region (`aux` = bytes).
    Delivered,
    /// The sender polled the send-side CQE (`aux` = CQ-poll lag ns:
    /// push-to-poll).
    SendCqe,
    /// The receiver polled the recv-side CQE (`aux` = CQ-poll lag ns).
    RecvCqe,
    /// The receiver marked the carried partitions arrived (`aux` =
    /// `(lo << 32) | count`: the WR carried partitions `lo..lo + count`).
    Arrived,
}

impl FlowStage {
    /// Every stage, index-aligned with the enum discriminants (used by the
    /// lock-free event log to round-trip stages through atomic words).
    pub const ALL: [FlowStage; 10] = [
        FlowStage::Posted,
        FlowStage::CapQueued,
        FlowStage::CapDequeued,
        FlowStage::WireSubmit,
        FlowStage::Retransmit,
        FlowStage::RnrWait,
        FlowStage::Delivered,
        FlowStage::SendCqe,
        FlowStage::RecvCqe,
        FlowStage::Arrived,
    ];

    /// Stable string name used in trace JSON and by the `trace` analyzer.
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Posted => "posted",
            FlowStage::CapQueued => "cap_queued",
            FlowStage::CapDequeued => "cap_dequeued",
            FlowStage::WireSubmit => "wire_submit",
            FlowStage::Retransmit => "retransmit",
            FlowStage::RnrWait => "rnr_wait",
            FlowStage::Delivered => "delivered",
            FlowStage::SendCqe => "send_cqe",
            FlowStage::RecvCqe => "recv_cqe",
            FlowStage::Arrived => "arrived",
        }
    }

    /// Inverse of [`FlowStage::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|stage| stage.name() == s)
    }

    /// The index into [`STAGE_HIST_NAMES`] of the histogram this stage's
    /// `aux` is a sample of, or `None` when `aux` is not a wait.
    fn hist(self) -> Option<usize> {
        match self {
            FlowStage::Posted => Some(0),
            FlowStage::CapDequeued => Some(1),
            FlowStage::RnrWait => Some(2),
            FlowStage::Retransmit => Some(3),
            FlowStage::WireSubmit => Some(4),
            FlowStage::SendCqe | FlowStage::RecvCqe => Some(5),
            FlowStage::CapQueued | FlowStage::Delivered | FlowStage::Arrived => None,
        }
    }
}

/// Stable exposition names of the stage histograms, one per wait class of
/// the stall taxonomy: aggregation hold (oldest member partition's `pready`
/// → WR post), WR-cap queueing, RNR backoff, retransmit backoff, wire time
/// (doorbell → delivered) and CQ-poll lag (CQE pushed → polled).
pub const STAGE_HIST_NAMES: [&str; 6] = [
    "agg_hold_ns",
    "cap_wait_ns",
    "rnr_wait_ns",
    "retrans_wait_ns",
    "wire_ns",
    "cq_lag_ns",
];

/// The stage histograms of `events`, all six in [`STAGE_HIST_NAMES`] order:
/// each is the histogram of the `aux` of the events whose stage it names.
pub fn stage_histograms(events: &[FlowEvent]) -> Vec<(&'static str, HistSnapshot)> {
    (STAGE_HIST_NAMES.into_iter().enumerate())
        .map(|(i, name)| {
            let waits = events.iter().filter(|e| e.stage.hist() == Some(i));
            (name, HistSnapshot::of(waits.map(|e| e.aux)))
        })
        .collect()
}

/// One timestamped stage transition of a flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowEvent {
    /// Flow identifier (world-unique, minted at WR build; never 0).
    pub flow: u64,
    /// Which lifecycle stage this event records.
    pub stage: FlowStage,
    /// Event time in nanoseconds (virtual time under the simulator).
    pub ts_ns: u64,
    /// Number of the QP the stage happened on: the sending QP from `Posted`
    /// through `Delivered` and `SendCqe`, the receiving QP at `RecvCqe` and
    /// `Arrived`. Always a QP number as the network minted it (never a
    /// channel's index into its QPs), so 0 names no QP.
    pub qp: u32,
    /// Send-channel / request identifier (0 if unknown).
    pub chan: u32,
    /// Stage-specific payload — see the [`FlowStage`] variants.
    pub aux: u64,
}

/// One fixed slot of the lock-free fast region: five atomic words per
/// event. `stage1` holds `stage index + 1` and doubles as the commit flag
/// (0 = slot reserved but not yet written); it is stored with `Release`
/// after the payload words so a harvester that observes it non-zero with
/// `Acquire` sees a fully written event.
#[derive(Default)]
struct Slot {
    flow: AtomicU64,
    ts_ns: AtomicU64,
    aux: AtomicU64,
    qp_chan: AtomicU64,
    stage1: AtomicU64,
}

impl Slot {
    /// The event in this slot, or `None` while it is reserved but not yet
    /// committed.
    fn load(&self) -> Option<FlowEvent> {
        let stage = match self.stage1.load(Ordering::Acquire) {
            0 => return None,
            stage1 => FlowStage::ALL[(stage1 - 1) as usize],
        };
        let qp_chan = self.qp_chan.load(Ordering::Relaxed);
        Some(FlowEvent {
            flow: self.flow.load(Ordering::Relaxed),
            stage,
            ts_ns: self.ts_ns.load(Ordering::Relaxed),
            qp: (qp_chan >> 32) as u32,
            chan: qp_chan as u32,
            aux: self.aux.load(Ordering::Relaxed),
        })
    }
}

/// Events held in the wait-free fast region before appends spill to the
/// mutex-guarded overflow vector. 8 Ki events (~320 KiB) covers every
/// traced round comfortably; long traced runs overflow gracefully.
const FAST_SLOTS: usize = 8192;

/// A shared, append-only collection of flow events.
///
/// Appends are wait-free while the fast region has space — one relaxed
/// `fetch_add` to claim a slot plus five plain stores — and fall back to a
/// mutex-guarded spill vector once it fills. Harvesting (`sorted`) is meant
/// for quiescent points (end of round or run): events still being
/// written at harvest time are skipped, never torn.
pub struct FlowLog {
    slots: Box<[Slot]>,
    reserved: AtomicUsize,
    spill: Mutex<Vec<FlowEvent>>,
}

impl std::fmt::Debug for FlowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowLog").field("len", &self.len()).finish()
    }
}

impl Default for FlowLog {
    fn default() -> Self {
        FlowLog {
            slots: (0..FAST_SLOTS).map(|_| Slot::default()).collect(),
            reserved: AtomicUsize::new(0),
            spill: Mutex::new(Vec::new()),
        }
    }
}

impl FlowLog {
    /// A fresh, empty log behind an `Arc` (producers hold clones).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Append one event.
    #[inline]
    pub fn record(&self, ev: FlowEvent) {
        let idx = self.reserved.fetch_add(1, Ordering::Relaxed);
        match self.slots.get(idx) {
            Some(s) => {
                s.flow.store(ev.flow, Ordering::Relaxed);
                s.ts_ns.store(ev.ts_ns, Ordering::Relaxed);
                s.aux.store(ev.aux, Ordering::Relaxed);
                s.qp_chan
                    .store(((ev.qp as u64) << 32) | ev.chan as u64, Ordering::Relaxed);
                s.stage1.store(ev.stage as u64 + 1, Ordering::Release);
            }
            None => self.spill.lock().push(ev),
        }
    }

    /// Copy out every committed event, in append order (fast region first).
    fn collect(&self) -> Vec<FlowEvent> {
        let spill = self.spill.lock();
        let used = self.reserved.load(Ordering::Acquire).min(self.slots.len());
        let mut out = Vec::with_capacity(used + spill.len());
        out.extend(self.slots[..used].iter().filter_map(Slot::load));
        out.extend(spill.iter().copied());
        out
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.reserved.load(Ordering::Relaxed).min(self.slots.len()) + self.spill.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out every event, sorted by (flow, time, stage order).
    pub fn sorted(&self) -> Vec<FlowEvent> {
        let mut evs = self.collect();
        evs.sort_by_key(|e| (e.flow, e.ts_ns, e.stage));
        evs
    }
}

/// World-wide flow-tracing state, owned by the telemetry `Registry`.
///
/// Disabled by default: every recording site checks one relaxed atomic and
/// returns. [`FlowRecorder::attach`] arms it with an event log and a clock;
/// flow IDs minted while disabled are 0, which every site treats as "not
/// traced".
///
/// The armed hot path is lock-free: log and clock live in `OnceLock`s
/// (one `Acquire` load to reach either) and the event log is a wait-free
/// bump region. The price is that a recorder accepts ONE log and clock for
/// its lifetime — a second [`attach`] must hand back the same log
/// (`Arc`-identical) or it panics. One world, one log.
///
/// [`attach`]: FlowRecorder::attach
#[derive(Default)]
pub struct FlowRecorder {
    enabled: AtomicBool,
    next_flow: AtomicU64,
    log: OnceLock<Arc<FlowLog>>,
    clock: OnceLock<ClockHook>,
}

impl std::fmt::Debug for FlowRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowRecorder")
            .field("enabled", &self.enabled())
            .field("flows_minted", &self.next_flow.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlowRecorder {
    /// Arm the recorder: subsequent `next_flow_id` calls mint real IDs and
    /// events land in `log`, timestamped by `clock`.
    ///
    /// # Panics
    ///
    /// When a *different* log was attached earlier — the lock-free hot
    /// path pins the recorder to one log for its lifetime.
    pub fn attach(&self, log: Arc<FlowLog>, clock: ClockHook) {
        let installed = self.log.get_or_init(|| log.clone());
        assert!(
            Arc::ptr_eq(installed, &log),
            "FlowRecorder::attach: a different FlowLog is already installed \
             (a recorder accepts one log for its lifetime)"
        );
        let _ = self.clock.set(clock);
        self.enabled.store(true, Ordering::Release);
    }

    /// Whether tracing is armed (one relaxed load — the hot-path gate).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Mint a fresh flow ID, or 0 when tracing is off (0 = untraced).
    #[inline]
    pub fn next_flow_id(&self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        self.next_flow.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current time from the attached clock, or 0 when unarmed. Used by
    /// sites that stamp auxiliary timestamps (e.g. per-partition `pready`
    /// times) rather than events.
    #[inline]
    pub fn now(&self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        match self.clock.get() {
            Some(clock) => clock(),
            None => 0,
        }
    }

    /// Record a stage event stamped with the attached clock's current time.
    #[inline]
    pub fn event(&self, flow: u64, stage: FlowStage, qp: u32, chan: u32, aux: u64) {
        if flow == 0 || !self.enabled() {
            return;
        }
        let ts_ns = match self.clock.get() {
            Some(clock) => clock(),
            None => 0,
        };
        self.event_at(flow, stage, ts_ns, qp, chan, aux);
    }

    /// Record a stage event at an explicit timestamp (used by the fabric,
    /// which knows event times from its own reservation arithmetic —
    /// including times still in the virtual future).
    #[inline]
    pub fn event_at(&self, flow: u64, stage: FlowStage, ts_ns: u64, qp: u32, chan: u32, aux: u64) {
        if flow == 0 || !self.enabled() {
            return;
        }
        if let Some(log) = self.log.get() {
            log.record(FlowEvent {
                flow,
                stage,
                ts_ns,
                qp,
                chan,
                aux,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlowRecorder::default();
        assert_eq!(r.next_flow_id(), 0);
        assert_eq!(r.now(), 0);
        r.event(1, FlowStage::Posted, 0, 0, 0);
        // A log attached later holds nothing from before.
        let log = FlowLog::new();
        r.attach(log.clone(), Arc::new(|| 5));
        assert!(log.is_empty());
    }

    #[test]
    fn attached_recorder_mints_and_records() {
        let r = FlowRecorder::default();
        let log = FlowLog::new();
        let t = Arc::new(AtomicU64::new(42));
        let tc = t.clone();
        r.attach(log.clone(), Arc::new(move || tc.load(Ordering::Relaxed)));
        let f = r.next_flow_id();
        assert_eq!(f, 1);
        r.event(f, FlowStage::Posted, 7, 3, 0);
        t.store(99, Ordering::Relaxed);
        r.event_at(f, FlowStage::Delivered, 88, 7, 3, 4096);
        r.event_at(0, FlowStage::WireSubmit, 50, 7, 3, 46);
        let evs = log.sorted();
        assert_eq!(evs.len(), 2, "flow 0 is untraced");
        assert_eq!(evs[0].ts_ns, 42);
        assert_eq!(evs[0].stage, FlowStage::Posted);
        assert_eq!(evs[1].ts_ns, 88);
    }

    /// One table, row per stage: an event of that stage with `aux = v` is a
    /// sample of exactly the histogram named, and of none for the stages
    /// whose `aux` is not a wait.
    #[test]
    fn each_stage_lands_in_the_histogram_it_names() {
        use FlowStage::*;
        let table = [
            (Posted, Some("agg_hold_ns")),
            (CapQueued, None),
            (CapDequeued, Some("cap_wait_ns")),
            (WireSubmit, Some("wire_ns")),
            (Retransmit, Some("retrans_wait_ns")),
            (RnrWait, Some("rnr_wait_ns")),
            (Delivered, None),
            (SendCqe, Some("cq_lag_ns")),
            (RecvCqe, Some("cq_lag_ns")),
            (Arrived, None),
        ];
        assert_eq!(table.map(|(s, _)| s), FlowStage::ALL);
        for (i, (stage, want)) in table.into_iter().enumerate() {
            let v = 1_000 + i as u64;
            let ev = FlowEvent {
                flow: 1,
                stage,
                ts_ns: 10,
                qp: 2,
                chan: 3,
                aux: v,
            };
            let hists = stage_histograms(&[ev]);
            let names: Vec<_> = hists.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, STAGE_HIST_NAMES, "all six, in order");
            for (name, h) in hists {
                let expect = if Some(name) == want {
                    HistSnapshot::of([v])
                } else {
                    HistSnapshot::default()
                };
                assert_eq!(h, expect, "{stage:?} in {name}");
            }
        }
    }

    #[test]
    fn stage_names_round_trip() {
        for (i, stage) in FlowStage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "ALL is index-aligned");
            assert_eq!(FlowStage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(FlowStage::from_name("bogus"), None);
    }
}
