//! # partix-workloads
//!
//! Experiment harnesses reproducing the paper's evaluation (§V):
//!
//! - [`runner`] — the point-to-point micro-benchmark driver (virtual clock,
//!   warm-up + measured rounds, callback-chained iterations);
//! - [`noise`] — thread compute/arrival models (single-thread-delay noise,
//!   natural arrival jitter, oversubscription);
//! - [`overhead`] — the overhead benchmark (Figs. 6–8), including forced
//!   `(transport partitions, QPs)` configurations;
//! - [`perceived`] — the perceived-bandwidth benchmark (Figs. 9, 13);
//! - [`sweep`] — the Sweep3D wavefront pattern at up to 1024 simulated
//!   cores (Fig. 14);
//! - [`halo`] — a 2-D periodic halo exchange (extension; the second
//!   application pattern of the benchmark suite the paper builds on);
//! - [`fault_sweep`] — aggregation strategies under injected wire loss
//!   (drops / duplicates / delays) with the RC reliability layer on;
//! - [`pdes`] — 100k+-rank fan-in and Sweep3D wavefront generators for the
//!   sharded conservative-sync engine in `partix_sim::pdes` (O(1) state
//!   per rank, LogGP wire timing, order-sensitive digests);
//! - [`tuning_search`] — the brute-force tuning-table construction (§IV-B);
//! - [`netgauge_provider`] — LogGP parameter measurement over the simulated
//!   MPI path (the paper's Netgauge step);
//! - [`stats`] — summary statistics.
//!
//! # Example
//!
//! ```
//! use partix_core::{AggregatorKind, PartixConfig};
//! use partix_workloads::{run_pt2pt, Pt2PtConfig, ThreadTiming};
//!
//! // A small perceived-bandwidth-style experiment on the virtual clock.
//! let mut partix = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
//! partix.fabric.copy_data = false; // timing-only
//! let cfg = Pt2PtConfig {
//!     partix,
//!     partitions: 8,
//!     part_bytes: 64 << 10,
//!     warmup: 1,
//!     iters: 3,
//!     timing: ThreadTiming::perceived_bw(1, 0.04),
//!     seed: 7,
//! };
//! let result = run_pt2pt(&cfg);
//! assert_eq!(result.rounds.len(), 3);
//! assert!(result.perceived_bandwidth(cfg.total_bytes()) > 0.0);
//! ```

#![warn(missing_docs)]

pub mod fault_sweep;
pub mod fullstack;
pub mod halo;
pub mod netgauge_provider;
pub mod noise;
pub mod overhead;
pub mod pdes;
pub mod perceived;
pub mod runner;
pub mod stats;
pub mod sweep;
pub mod traced;
pub mod tuning_search;

pub use fault_sweep::{FaultCell, FaultSweep};
pub use fullstack::{
    run_fullstack, run_fullstack_instrumented, run_fullstack_observed, Executor, FullStackConfig,
    FullStackReport,
};
pub use noise::{NoiseModel, ThreadTiming};
pub use runner::{
    run_pt2pt, run_pt2pt_instrumented, run_pt2pt_with_sink, Pt2PtConfig, Pt2PtResult, RoundSample,
};
pub use traced::{run_traced, TraceArtifacts};
