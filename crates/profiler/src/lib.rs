//! # partix-profiler
//!
//! The analyses behind the paper's PMPI-profiler figures (§V-A, §V-C2),
//! over the two records a run already keeps: the `pready` offsets the
//! point-to-point driver draws for each round, and the causal flow log
//! (`partix_telemetry::FlowLog`). It records nothing itself.
//!
//! - per-partition arrival offsets relative to round start, with the
//!   estimated wire time from the theoretical bandwidth (Figs. 10/11:
//!   [`ArrivalProfile`]); the minimum useful delta over the same offsets
//!   (Fig. 12) is `partix_core::min_delta_ns`;
//! - ASCII round [`Timeline`]s joining those offsets with the round's
//!   `Posted` and `Arrived` flow events;
//! - per-flow critical paths and stall attribution ([`assemble_chains`],
//!   [`top_stalls`]).
//!
//! # Example
//!
//! ```
//! use partix_profiler::ArrivalProfile;
//! use partix_sim::SimDuration;
//!
//! // A round with arrivals at +1us, +3us, +9us and a 4ms laggard.
//! let offsets = [1, 3, 9, 4_000].map(SimDuration::from_micros);
//! let profile = ArrivalProfile::from_offsets(&offsets, 1 << 20, 12.5e9);
//! assert_eq!(profile.points[3].partition, 3);
//! // The Fig. 12 estimator: spread of the non-laggard arrivals.
//! let ns = offsets.iter().map(|d| d.as_nanos());
//! assert_eq!(partix_core::min_delta_ns(ns), Some(8_000));
//! ```

#![warn(missing_docs)]

mod analysis;
mod flowpath;
mod timeline;

pub use analysis::{ArrivalPoint, ArrivalProfile};
pub use flowpath::{assemble_chains, top_stalls, FlowChain, Stall};
pub use timeline::{sparkline, PartitionSpan, Timeline};
