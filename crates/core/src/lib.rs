//! # partix-core
//!
//! An MPI Partitioned point-to-point runtime mapped directly onto a
//! (software) InfiniBand Verbs layer — the primary contribution of
//! *"A Dynamic Network-Native MPI Partitioned Aggregation Over InfiniBand
//! Verbs"* (CLUSTER 2023), reproduced in Rust.
//!
//! ## What's here
//!
//! - The full MPI Partitioned lifecycle: [`Proc::psend_init`] /
//!   [`Proc::precv_init`] (init-order matching by `(src, dst, tag)`, no
//!   wildcards), [`PsendRequest::start`], [`PsendRequest::pready`],
//!   [`PrecvRequest::parrived`], `test`/`wait`, persistent rounds;
//! - the mapping to verbs objects (paper §IV-A): one `RDMA_WRITE_WITH_IMM`
//!   per transport partition, immediates encoding `(start partition, run
//!   length)`, per-channel QP sets honouring the 16-outstanding-WR hardware
//!   cap, a try-lock single-threaded progress engine;
//! - four aggregation policies ([`AggregatorKind`]): the **persistent**
//!   baseline (one message per user partition through an Open MPI + UCX
//!   cost model), the **tuning-table** aggregator (§IV-B), the **PLogGP**
//!   aggregator (§IV-C) and the **timer-based PLogGP** aggregator (§IV-D);
//! - [`World`]: in-process multi-rank harness over either the simulated
//!   (virtual-clock, LogGP-priced) or instant fabric.
//!
//! ## Quick example (instant fabric)
//!
//! ```
//! use partix_core::{AggregatorKind, PartixConfig, World};
//!
//! let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
//! let (p0, p1) = (world.proc(0), world.proc(1));
//!
//! let sbuf = p0.alloc_buffer(4 * 1024).unwrap();
//! let rbuf = p1.alloc_buffer(4 * 1024).unwrap();
//! let send = p0.psend_init(&sbuf, 4, 1024, 1, 0).unwrap();
//! let recv = p1.precv_init(&rbuf, 4, 1024, 0, 0).unwrap();
//!
//! recv.start().unwrap();
//! send.start().unwrap();
//! sbuf.fill(0, 4 * 1024, 0xAB).unwrap();
//! for i in 0..4 {
//!     send.pready(i).unwrap();
//! }
//! send.wait().unwrap();
//! recv.wait().unwrap();
//! assert_eq!(rbuf.read_vec(0, 4 * 1024).unwrap(), vec![0xAB; 4 * 1024]);
//! ```

#![warn(missing_docs)]

mod config;
mod error;
mod handles;
mod plan;
mod proc;
mod request;
mod tuning;
mod ucx;
mod world;

pub use config::{AggregatorKind, PartixConfig, ReliabilityConfig};
pub use error::{PartixError, Result};
pub use handles::{PrecvRequest, Proc, PsendRequest, MAX_PARTITIONS};
pub use plan::{plan_for, PlanDecision, TransportPlan};
pub use request::min_delta_ns;
pub use tuning::{TuningKey, TuningTable, TuningValue};
pub use ucx::{UcxCost, UcxModel, UcxProtocol};
pub use world::World;

// Re-export the pieces of the substrate users need to drive the API.
pub use partix_sim::{Scheduler, SimDuration, SimTime};
pub use partix_verbs::telemetry;
pub use partix_verbs::telemetry::{invariants, Registry, Snapshot};
pub use partix_verbs::{FabricParams, LossyConfig, LossyFabric, MemoryRegion};
