//! The network of nodes and the per-node device context.
//!
//! A [`Network`] is a set of nodes (host + NIC pairs) joined by one fabric.
//! [`Context`] is the user-space device handle (`ibv_open_device` analogue):
//! it allocates protection domains, registers memory, and creates CQs and
//! QPs on its node.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use partix_telemetry::{QpSnapshot, Registry, Snapshot};

use crate::buf::PayloadArena;
use crate::cq::CompletionQueue;
use crate::error::{Result, VerbsError};
use crate::fabric::Fabric;
use crate::memory::{MemoryRegion, MrRegistry};
use crate::qp::{QpCaps, QueuePair};
use crate::table::IndexTable;
use crate::types::NodeId;

/// Per-node state: the node's registered memory. Every QP of the node
/// holds it, so posting and delivery reach the registry without a look-up.
pub struct NodeCtx {
    /// Node identifier.
    pub id: NodeId,
    pub(crate) mrs: MrRegistry,
}

impl NodeCtx {
    fn new(id: NodeId) -> Arc<Self> {
        Arc::new(NodeCtx {
            id,
            mrs: MrRegistry::new(id),
        })
    }
}

/// Shared, fabric-visible network state: the nodes and every live QP.
pub struct NetworkState {
    nodes: Vec<Arc<NodeCtx>>,
    /// Every QP of the network at the index its number spells (numbers are
    /// minted sequentially network-wide and QPs are never destroyed).
    qps: IndexTable<Arc<QueuePair>>,
    next_qp_num: AtomicU32,
    next_cq_id: AtomicU32,
    next_pd_id: AtomicU32,
    telemetry: Arc<Registry>,
    arena: PayloadArena,
}

impl NetworkState {
    /// Node lookup.
    pub fn node(&self, id: NodeId) -> Result<&Arc<NodeCtx>> {
        self.nodes
            .get(id as usize)
            .ok_or(VerbsError::UnknownNode(id))
    }

    /// Look up QP `qp_num` of node `node` — how the wire resolves the
    /// `(node, qp)` pair a transfer names.
    pub fn qp(&self, node: NodeId, qp_num: u32) -> Result<&Arc<QueuePair>> {
        self.qps
            .get(qp_num)
            .filter(|qp| qp.node() == node)
            .ok_or(VerbsError::UnknownQp(qp_num))
    }

    /// The telemetry registry every layer of this network reports into.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The payload arena the data plane recycles its buffers through.
    pub fn arena(&self) -> &PayloadArena {
        &self.arena
    }

    /// Freeze the complete telemetry ledger: per-QP counters are read
    /// alongside each QP's live state (outstanding slots, receive depth,
    /// state machine position), plus every CQ, the wire, and the runtime.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut qps: Vec<QpSnapshot> = self
            .qps
            .iter()
            .map(|qp| {
                qp.counters().snapshot_onto(QpSnapshot {
                    node: qp.node(),
                    qp_num: qp.qp_num(),
                    state: qp.state().name(),
                    outstanding: qp.outstanding() as u64,
                    recv_queue_depth: qp.recv_queue_depth() as u64,
                    ..QpSnapshot::default()
                })
            })
            .collect();
        // The table runs in QP-number order; the ledger lists node by node.
        qps.sort_by_key(|q| q.node);
        Snapshot {
            qps,
            cqs: self.telemetry.cq_snapshots(),
            wire: self.telemetry.wire.snapshot_onto(Default::default()),
            runtime: self.telemetry.runtime.snapshot_onto(Default::default()),
            arena: self.telemetry.arena.snapshot_onto(Default::default()),
        }
    }
}

/// A network: nodes plus the fabric that moves bytes between them.
#[derive(Clone)]
pub struct Network {
    state: Arc<NetworkState>,
    fabric: Arc<dyn Fabric>,
}

impl Network {
    /// Create a network of `nodes` nodes over `fabric`.
    pub fn new(nodes: u32, fabric: Arc<dyn Fabric>) -> Self {
        let telemetry = Arc::new(Registry::new());
        let arena = PayloadArena::new();
        arena.set_telemetry(telemetry.clone());
        let state = Arc::new(NetworkState {
            nodes: (0..nodes).map(NodeCtx::new).collect(),
            qps: IndexTable::new(),
            next_qp_num: AtomicU32::new(1),
            next_cq_id: AtomicU32::new(1),
            next_pd_id: AtomicU32::new(1),
            telemetry,
            arena,
        });
        Network { state, fabric }
    }

    /// Shared state handle.
    pub fn state(&self) -> &Arc<NetworkState> {
        &self.state
    }

    /// The fabric.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.fabric
    }

    /// Open a device context on `node` (`ibv_open_device`).
    pub fn open(&self, node: NodeId) -> Result<Context> {
        let node_ctx = self.state.node(node)?;
        Ok(Context {
            node: node_ctx.clone(),
            state: self.state.clone(),
            fabric: self.fabric.clone(),
        })
    }
}

/// A protection domain handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtectionDomain {
    /// Domain identifier.
    pub id: u32,
    /// Node the domain lives on.
    pub node: NodeId,
}

/// User-space device context for one node.
#[derive(Clone)]
pub struct Context {
    node: Arc<NodeCtx>,
    state: Arc<NetworkState>,
    fabric: Arc<dyn Fabric>,
}

impl Context {
    /// The node this context operates on.
    pub fn node_id(&self) -> NodeId {
        self.node.id
    }

    /// Node state (diagnostics).
    pub fn node(&self) -> &Arc<NodeCtx> {
        &self.node
    }

    /// Allocate a protection domain (`ibv_alloc_pd`).
    pub fn alloc_pd(&self) -> ProtectionDomain {
        ProtectionDomain {
            id: self.state.next_pd_id.fetch_add(1, Ordering::Relaxed),
            node: self.node.id,
        }
    }

    /// Register a memory region of `len` bytes (`ibv_reg_mr`).
    pub fn reg_mr(&self, pd: ProtectionDomain, len: usize) -> Result<MemoryRegion> {
        if pd.node != self.node.id {
            return Err(VerbsError::ProtectionDomainMismatch);
        }
        Ok(self.node.mrs.register(pd.id, len))
    }

    /// Register a virtual (timing-only, storage-free) region for
    /// `copy_data = false` studies.
    pub fn reg_mr_virtual(&self, pd: ProtectionDomain, len: usize) -> Result<MemoryRegion> {
        if pd.node != self.node.id {
            return Err(VerbsError::ProtectionDomainMismatch);
        }
        Ok(self.node.mrs.register_virtual(pd.id, len))
    }

    /// Create a completion queue (`ibv_create_cq`). A fabric that progresses
    /// on its pollers' threads ([`Fabric::progress`]) is attached to it, so
    /// an empty poll drives the fabric.
    pub fn create_cq(&self) -> Arc<CompletionQueue> {
        let polled_fabric = self.fabric.progress().then(|| self.fabric.clone());
        let cq = CompletionQueue::new(
            self.state.next_cq_id.fetch_add(1, Ordering::Relaxed),
            polled_fabric,
        );
        self.state
            .telemetry
            .register_cq(cq.id(), cq.counters().clone());
        cq
    }

    /// Create a queue pair (`ibv_create_qp`).
    pub fn create_qp(
        &self,
        pd: ProtectionDomain,
        send_cq: Arc<CompletionQueue>,
        recv_cq: Arc<CompletionQueue>,
        caps: QpCaps,
    ) -> Result<Arc<QueuePair>> {
        if pd.node != self.node.id {
            return Err(VerbsError::ProtectionDomainMismatch);
        }
        let qp_num = self.state.next_qp_num.fetch_add(1, Ordering::Relaxed);
        let qp = QueuePair::new(
            qp_num,
            self.node.clone(),
            pd.id,
            caps,
            send_cq,
            recv_cq,
            Arc::downgrade(&self.state),
            self.fabric.clone(),
        );
        let fresh = self.state.qps.set(qp_num, qp.clone());
        assert!(fresh.is_ok(), "QP numbers are minted once");
        Ok(qp)
    }
}

/// Drive both ends of a QP pair through INIT → RTR → RTS. In a real
/// deployment the QP numbers travel out-of-band (e.g. TCP or MPI's business
/// card exchange); in-process we connect directly. The partitioned runtime
/// performs this asynchronously with a modelled setup delay.
pub fn connect_pair(a: &Arc<QueuePair>, b: &Arc<QueuePair>) -> Result<()> {
    use crate::qp::PeerId;
    a.modify(crate::types::QpState::Init)?;
    b.modify(crate::types::QpState::Init)?;
    a.modify_to_rtr(PeerId {
        node: b.node(),
        qp_num: b.qp_num(),
    })?;
    b.modify_to_rtr(PeerId {
        node: a.node(),
        qp_num: a.qp_num(),
    })?;
    a.modify_to_rts()?;
    b.modify_to_rts()?;
    Ok(())
}
