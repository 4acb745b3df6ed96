//! # partix-workloads
//!
//! Experiment harnesses reproducing the paper's evaluation (§V):
//!
//! - [`runner`] — the point-to-point micro-benchmark driver (virtual clock,
//!   warm-up + measured rounds, callback-chained iterations); a cell is a
//!   [`Pt2PtConfig`], and the overhead (Figs. 6–8) and perceived-bandwidth
//!   (Figs. 9–13) benchmarks are its two constructors;
//! - [`noise`] — thread compute/arrival models (single-thread-delay noise,
//!   natural arrival jitter, oversubscription);
//! - [`overhead`] — forced `(transport partitions, QPs)` configurations and
//!   the power-of-two size axis;
//! - [`sweep`] — the Sweep3D wavefront pattern at up to 1024 simulated
//!   cores (Fig. 14), and the one grid driver the applications share;
//! - [`halo`] — a 2-D periodic halo exchange on that driver (extension; the
//!   second application pattern of the benchmark suite the paper builds on);
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
//! // A small perceived-bandwidth cell on the virtual clock: 1 ms compute
//! // instead of 100, 1 + 3 rounds.
//! let partix = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
//! let cfg = Pt2PtConfig {
//!     warmup: 1,
//!     iters: 3,
//!     timing: ThreadTiming::perceived_bw(1, 0.04),
//!     ..Pt2PtConfig::perceived(partix, 8, 512 << 10)
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
pub use runner::{run_pt2pt, run_pt2pt_instrumented, Pt2PtConfig, Pt2PtResult, RoundSample};
pub use traced::{run_traced, TraceArtifacts};
