//! # partix-telemetry
//!
//! First-class observability for the `partix` stack: relaxed-atomic counters
//! threaded through the verbs layer (per-QP, per-CQ, wire-level), the MPI
//! Partitioned runtime (per-strategy aggregation activity), and causal flow
//! tracing (per-WR stage events, from which the chrome-trace view is
//! rendered) — plus an [`invariants`] module that reconciles the whole ledger
//! after a run.
//!
//! Design rules:
//!
//! - **Zero allocation on the hot path.** Every counter is a pre-registered
//!   relaxed [`AtomicU64`](std::sync::atomic::AtomicU64); incrementing never
//!   takes a lock or allocates. Flow events are recorded only when a
//!   [`FlowLog`] has been explicitly attached (tracing off = a single atomic
//!   load).
//! - **Counters are a ledger, not a log.** Every event is counted at exactly
//!   one site, and the sites are chosen so conservation laws hold *by
//!   construction*: `invariants::check` failing means an instrumentation or
//!   accounting bug, not noise.
//! - **No serde, one JSON module.** An artifact is a function that builds a
//!   [`Json`] value; [`write_json`] is the only writer and [`parse_json`] the
//!   only reader, for this crate's exports ([`write_telemetry_json`],
//!   [`write_trace_json`]) and for every other result file in the workspace.
//! - **One definition per ledger.** Each counter is named once, in
//!   `counters.rs`; snapshots, delta frames, the digest and every rendering
//!   walk that definition ([`Field`]).

#![warn(missing_docs)]

mod counters;
mod expo;
mod flightrec;
mod flow;
mod hist;
mod json;
mod snapshot;
mod timeseries;

pub mod invariants;

pub use counters::{
    segments_for, ArenaCounters, Counter, CqCounters, Field, QpCounters, Registry, RuntimeCounters,
    WireCounters, STATUS_NAMES, STATUS_SLOTS,
};
pub use expo::exposition;
pub use flightrec::FlightRecorder;
pub use flow::{
    stage_histograms, ClockHook, FlowEvent, FlowLog, FlowRecorder, FlowStage, STAGE_HIST_NAMES,
};
pub use hist::{HistBucket, HistSnapshot};
pub use json::{frames_json, parse_json, write_json, write_telemetry_json, write_trace_json, Json};
pub use snapshot::{
    ArenaSnapshot, CqSnapshot, QpSnapshot, RuntimeSnapshot, Snapshot, WireSnapshot,
};
pub use timeseries::{
    snapshot_accum, snapshot_delta, Frame, FrameGauge, Sample, SampleSource, Sampler, SamplerConfig,
};
