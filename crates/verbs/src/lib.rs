//! # partix-verbs
//!
//! A software re-implementation of the InfiniBand Verbs object model used by
//! the `partix` reproduction of *"A Dynamic Network-Native MPI Partitioned
//! Aggregation Over InfiniBand Verbs"* (CLUSTER 2023).
//!
//! The API mirrors the libibverbs surface the paper's design maps onto:
//!
//! - [`Network::open`] ≈ `ibv_open_device` → [`Context`]
//! - [`Context::alloc_pd`] ≈ `ibv_alloc_pd`
//! - [`Context::reg_mr`] ≈ `ibv_reg_mr` → [`MemoryRegion`] with lkey/rkey
//! - [`Context::create_cq`] ≈ `ibv_create_cq` → [`CompletionQueue`]
//! - [`Context::create_qp`] ≈ `ibv_create_qp` → [`QueuePair`] with the
//!   RESET → INIT → RTR → RTS state machine and a 16-outstanding-WR cap
//! - [`QueuePair::post_send`] ≈ `ibv_post_send` with gather lists and
//!   `IBV_WR_RDMA_WRITE{,_WITH_IMM}`, the only operations
//! - [`CompletionQueue::poll`] ≈ `ibv_poll_cq`
//!
//! Bytes genuinely move between registered regions on every fabric. The
//! [`SimFabric`] prices each transfer with a LogGP-parameterised cost model
//! on a virtual clock; the [`InstantFabric`] applies effects synchronously
//! for functional use.
//!
//! # Example
//!
//! ```
//! use partix_verbs::{connect_pair, imm, InstantFabric, Network, Opcode,
//!                    QpCaps, RecvWr, SendWr, Sge};
//!
//! let net = Network::new(2, InstantFabric::new());
//! let (a, b) = (net.open(0).unwrap(), net.open(1).unwrap());
//! let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
//! let (cqa, cqb) = (a.create_cq(), b.create_cq());
//! let qa = a.create_qp(pda, cqa.clone(), a.create_cq(), QpCaps::default()).unwrap();
//! let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), QpCaps::default()).unwrap();
//! connect_pair(&qa, &qb).unwrap();
//!
//! let src = a.reg_mr(pda, 4096).unwrap();
//! let dst = b.reg_mr(pdb, 4096).unwrap();
//! src.fill(0, 4096, 0x42).unwrap();
//! qb.post_recv(RecvWr::bare(7)).unwrap();
//! qa.post_send(SendWr {
//!     wr_id: 1,
//!     opcode: Opcode::RdmaWriteWithImm,
//!     sg_list: vec![Sge { addr: src.addr(), length: 4096, lkey: src.lkey() }],
//!     remote_addr: dst.addr(),
//!     rkey: dst.rkey(),
//!     imm: Some(imm::encode(0, 8)),
//!     inline_data: false,
//!     flow: 0,
//! }).unwrap();
//!
//! let wc = cqb.poll_one().unwrap();
//! assert_eq!(imm::decode(wc.imm.unwrap()), (0, 8));
//! assert_eq!(dst.read_vec(0, 4096).unwrap(), vec![0x42; 4096]);
//! ```

#![warn(missing_docs)]

mod buf;
pub mod conformance;
mod cq;
mod error;
mod fabric;
mod fabric_instant;
mod fabric_lossy;
mod fabric_sim;
mod memory;
mod network;
mod qp;
pub mod shm;
mod table;
mod types;

pub use buf::{InlineVec, PayloadArena, PooledBuf, PooledBufMut, INLINE_CAP};
pub use cq::{CompletionQueue, Handoff, NotifyHook};
pub use error::{Result, VerbsError};
pub use fabric::{
    complete_send, execute_delivery, outcome_status, sender_retry_profile, DeliveryHeader,
    DeliveryOutcome, Fabric, Payload, PostOptions, ResolvedSegment, TransferJob, MAX_WR_BYTES,
};
pub use fabric_instant::InstantFabric;
pub use fabric_lossy::{FaultPlan, LossyConfig, LossyFabric};
pub use fabric_sim::{FabricParams, SimFabric};
pub use memory::MemoryRegion;
pub use network::{connect_pair, Context, Network, NetworkState, NodeCtx, ProtectionDomain};
pub use partix_telemetry as telemetry;
pub use partix_telemetry::{
    invariants, CqCounters, FlowEvent, FlowLog, FlowRecorder, FlowStage, HistSnapshot, QpCounters,
    Registry, Snapshot, WireCounters,
};
pub use qp::{PeerId, QpCaps, QueuePair, RetryProfile};
pub use shm::{ShmConfig, ShmFabric};
pub use types::{
    imm, NodeId, Opcode, QpState, RecvWr, SendWr, Sge, WcOpcode, WcStatus, WorkCompletion,
};
