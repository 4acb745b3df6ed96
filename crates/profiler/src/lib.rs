//! # partix-profiler
//!
//! An arrival-pattern profiler for MPI Partitioned communication, the
//! analogue of the paper's PMPI-based profiler (§V-A, §V-C2): it records
//! when each request reaches `start` and when each `pready` / partition
//! arrival / completion happens, and derives the analyses behind the
//! paper's Figs. 10–12:
//!
//! - per-partition arrival offsets relative to round start (Figs. 10/11),
//! - estimated per-partition wire time from the theoretical bandwidth,
//! - the minimum useful delta for the timer-based aggregator: the spread
//!   between the first and last *non-laggard* arrival (Fig. 12),
//! - ASCII round [`Timeline`]s joining send- and receive-side events.
//!
//! # Example
//!
//! ```
//! use partix_profiler::{min_delta_ns, Profiler};
//! use partix_core::EventSink;
//! use partix_sim::SimTime;
//!
//! let p = Profiler::new();
//! // Normally installed with World::set_event_sink; here we feed events
//! // directly: a round with arrivals at +1us, +3us, +9us and a 4ms laggard.
//! p.on_send_start(0, 1, 1, SimTime(0));
//! for (part, t_us) in [(0u32, 1u64), (1, 3), (2, 9), (3, 4_000)] {
//!     p.on_pready(0, 1, part, SimTime(t_us * 1_000));
//! }
//! let trace = p.send_trace(1).unwrap();
//! // The Fig. 12 estimator: spread of the non-laggard arrivals.
//! assert_eq!(min_delta_ns(&trace.rounds[0]), Some(8_000.0));
//! ```

#![warn(missing_docs)]

mod analysis;
mod flowpath;
mod recorder;
mod timeline;

pub use analysis::{min_delta_ns, ArrivalPoint, ArrivalProfile};
pub use flowpath::{assemble_chains, top_stalls, FlowChain, Stall};
pub use recorder::{Profiler, RecvTrace, RoundTrace, SendTrace};
pub use timeline::{sparkline, PartitionSpan, Timeline};
