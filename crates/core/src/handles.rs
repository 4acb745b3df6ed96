//! Public API handles: [`Proc`], [`PsendRequest`], [`PrecvRequest`].
//!
//! These mirror the MPI Partitioned surface:
//!
//! | MPI | partix |
//! |---|---|
//! | `MPI_Psend_init` | [`Proc::psend_init`] |
//! | `MPI_Precv_init` | [`Proc::precv_init`] |
//! | `MPI_Start` | [`PsendRequest::start`] / [`PrecvRequest::start`] |
//! | `MPI_Pready` | [`PsendRequest::pready`] |
//! | `MPI_Pready_range` | [`PsendRequest::pready_range`] |
//! | `MPI_Parrived` | [`PrecvRequest::parrived`] |
//! | `MPI_Test` | [`PsendRequest::test`] / [`PrecvRequest::test`] |
//! | `MPI_Wait` | [`PsendRequest::wait`] / [`PrecvRequest::wait`] |

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use partix_verbs::MemoryRegion;

use crate::error::{PartixError, Result};
use crate::plan::TransportPlan;
use crate::proc::ProcInner;
use crate::request::{RecvShared, SendShared};
use crate::world::WorldInner;

/// The largest partition count the immediate encoding supports (start index
/// and run length are packed as two u16s).
pub const MAX_PARTITIONS: u32 = u16::MAX as u32;

/// A process (rank) of the world.
#[derive(Clone)]
pub struct Proc {
    inner: Arc<ProcInner>,
    world: Arc<WorldInner>,
}

impl Proc {
    pub(crate) fn new(inner: Arc<ProcInner>, world: Arc<WorldInner>) -> Self {
        Proc { inner, world }
    }

    /// This process's rank.
    pub fn rank(&self) -> u32 {
        self.inner.rank
    }

    /// Register a communication buffer of `bytes` bytes (persistent buffers
    /// must be registered before `psend_init`/`precv_init`, like
    /// `ibv_reg_mr`).
    pub fn alloc_buffer(&self, bytes: usize) -> Result<MemoryRegion> {
        Ok(self.inner.ctx.reg_mr(self.inner.pd, bytes)?)
    }

    /// Register a virtual (timing-only) buffer: reports `bytes` of length
    /// but allocates no storage. Pair with `fabric.copy_data = false` for
    /// large parameter sweeps.
    pub fn alloc_buffer_virtual(&self, bytes: usize) -> Result<MemoryRegion> {
        Ok(self.inner.ctx.reg_mr_virtual(self.inner.pd, bytes)?)
    }

    fn validate(&self, buf: &MemoryRegion, partitions: u32, part_bytes: usize) -> Result<()> {
        if partitions == 0 || partitions > MAX_PARTITIONS {
            return Err(PartixError::BadPartitionCount { partitions });
        }
        if part_bytes == 0 {
            return Err(PartixError::ZeroPartitionSize);
        }
        let required = partitions as usize * part_bytes;
        if buf.len() < required {
            return Err(PartixError::BufferTooSmall {
                required,
                available: buf.len(),
            });
        }
        if buf.node() != self.inner.ctx.node_id() {
            return Err(PartixError::WrongNode);
        }
        Ok(())
    }

    /// Initialise a partitioned send of `partitions` partitions of
    /// `part_bytes` bytes each from `buf` to rank `dest` with `tag`
    /// (`MPI_Psend_init`). Non-blocking: channel setup proceeds
    /// asynchronously; the first `start` requires readiness.
    pub fn psend_init(
        &self,
        buf: &MemoryRegion,
        partitions: u32,
        part_bytes: usize,
        dest: u32,
        tag: u32,
    ) -> Result<PsendRequest> {
        self.validate(buf, partitions, part_bytes)?;
        let max_wr_bytes = self.world.network.fabric().max_wr_bytes();
        if part_bytes as u64 > max_wr_bytes {
            return Err(PartixError::PartitionTooLarge {
                part_bytes,
                max_wr_bytes,
            });
        }
        let shared = Arc::new(SendShared {
            id: self.world.req_seq.fetch_add(1, Ordering::Relaxed),
            proc: self.inner.clone(),
            partitions,
            part_bytes,
            mr: buf.clone(),
            dest,
            tag,
            channel: OnceLock::new(),
            ready: AtomicBool::new(false),
            ready_cbs: Mutex::new(Vec::new()),
            active: AtomicBool::new(false),
            round: AtomicU64::new(0),
            arrived: (0..partitions).map(|_| AtomicU8::new(0)).collect(),
            sent: (0..partitions).map(|_| AtomicU8::new(0)).collect(),
            pready_count: AtomicU32::new(0),
            sent_count: AtomicU32::new(0),
            wr_posted: AtomicU32::new(0),
            wr_completed: AtomicU32::new(0),
            wr_posted_total: AtomicU64::new(0),
            completed_rounds: AtomicU64::new(0),
            recoveries_round: AtomicU64::new(0),
            recoveries_total: AtomicU64::new(0),
            complete_cbs: Mutex::new(Vec::new()),
            error: OnceLock::new(),
            pready_ns: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
        });
        crate::world::World {
            inner: self.world.clone(),
        }
        .offer_send(shared.clone())?;
        Ok(PsendRequest {
            shared,
            _world: self.world.clone(),
        })
    }

    /// Initialise a partitioned receive (`MPI_Precv_init`).
    pub fn precv_init(
        &self,
        buf: &MemoryRegion,
        partitions: u32,
        part_bytes: usize,
        src: u32,
        tag: u32,
    ) -> Result<PrecvRequest> {
        self.validate(buf, partitions, part_bytes)?;
        // Register with the process: the request's place in `recvs` is the
        // id its receive WRs carry.
        let mut recvs = self.inner.recvs.write();
        let shared = Arc::new(RecvShared {
            id: self.world.req_seq.fetch_add(1, Ordering::Relaxed),
            wr_id: recvs.len() as u64,
            proc: self.inner.clone(),
            partitions,
            part_bytes,
            mr: buf.clone(),
            src,
            tag,
            channel: OnceLock::new(),
            ready: AtomicBool::new(false),
            ready_cbs: Mutex::new(Vec::new()),
            active: AtomicBool::new(false),
            arrived: (0..partitions).map(|_| AtomicU8::new(0)).collect(),
            arrived_count: AtomicU32::new(0),
            completed_rounds: AtomicU64::new(0),
            complete_cbs: Mutex::new(Vec::new()),
            early: Mutex::new(Vec::new()),
        });
        recvs.push(shared.clone());
        drop(recvs);
        crate::world::World {
            inner: self.world.clone(),
        }
        .offer_recv(shared.clone())?;
        Ok(PrecvRequest {
            shared,
            _world: self.world.clone(),
        })
    }

    /// Drive the progress engine (the `MPI_Test`-without-a-request
    /// equivalent): poll this rank's CQs and re-post its send WRs that the
    /// outstanding-WR cap parked in software. Nothing else re-posts them —
    /// see [`PsendRequest::test`].
    pub fn progress(&self) {
        self.inner.try_progress();
    }
}

/// Shared behaviour of the two request handles.
macro_rules! common_request_methods {
    () => {
        /// Unique request identifier (the `chan` of its flow events).
        pub fn id(&self) -> u64 {
            self.shared.id
        }

        /// Whether asynchronous channel setup has completed.
        pub fn is_ready(&self) -> bool {
            self.shared.ready.load(Ordering::Acquire)
        }

        /// Run `cb` when the channel becomes ready (immediately if it
        /// already is).
        pub fn on_ready(&self, cb: impl FnOnce() + Send + 'static) {
            let mut cbs = self.shared.ready_cbs.lock();
            if self.shared.ready.load(Ordering::Acquire) {
                drop(cbs);
                cb();
            } else {
                cbs.push(Box::new(cb));
            }
        }

        /// Register `cb` to run when the current round completes. Must be
        /// registered while the round is in flight (or before it can
        /// possibly complete).
        pub fn on_complete(&self, cb: impl FnOnce() + Send + 'static) {
            self.shared.complete_cbs.lock().push(Box::new(cb));
        }

        /// Rounds completed so far.
        pub fn completed_rounds(&self) -> u64 {
            self.shared.completed_rounds.load(Ordering::Acquire)
        }

        /// Whether the request is mid-round.
        pub fn is_active(&self) -> bool {
            self.shared.active.load(Ordering::Acquire)
        }

        /// The transport plan (available once the channel is established).
        pub fn plan(&self) -> Option<TransportPlan> {
            self.shared.channel.get().map(|c| c.plan.clone())
        }
    };
}

/// Handle to a partitioned send request.
#[derive(Clone)]
pub struct PsendRequest {
    shared: Arc<SendShared>,
    /// A request keeps its world alive (see `Drop for WorldInner`).
    _world: Arc<WorldInner>,
}

impl PsendRequest {
    common_request_methods!();

    /// Begin a round (`MPI_Start`). The channel must be ready; use
    /// [`Self::on_ready`] to sequence the first round in simulated mode, or
    /// [`Self::start_blocking`] with real threads.
    pub fn start(&self) -> Result<()> {
        self.shared.start()
    }

    /// `MPI_Start` with the paper's first-round behaviour: poll the progress
    /// engine until the remote buffer is ready. Only valid off the virtual
    /// clock (instant mode).
    pub fn start_blocking(&self) -> Result<()> {
        if self.shared.proc.sim_mode() {
            return Err(PartixError::WouldBlockInSim);
        }
        while !self.is_ready() {
            self.shared.proc.try_progress();
            std::thread::yield_now();
        }
        self.start()
    }

    /// Mark partition `i` ready for transfer (`MPI_Pready`). Callable from
    /// any thread. A WR this makes eligible is posted at once if its QP has
    /// a free send slot and parked in software (a *spill*) if the
    /// outstanding-WR cap is reached; `pready` itself never drives progress,
    /// so a parked WR waits for [`test`](Self::test), [`wait`](Self::wait)
    /// or [`Proc::progress`] on this rank.
    pub fn pready(&self, i: u32) -> Result<()> {
        self.shared.pready(i)
    }

    /// Mark partitions `[lo, hi)` ready (`MPI_Pready_range`).
    pub fn pready_range(&self, lo: u32, hi: u32) -> Result<()> {
        for i in lo..hi {
            self.shared.pready(i)?;
        }
        Ok(())
    }

    /// Mark an arbitrary set of partitions ready (`MPI_Pready_list`).
    /// Partitions are committed in the order given; on error, partitions
    /// before the failing index remain committed (matching MPI's
    /// local-completion semantics).
    pub fn pready_list(&self, indices: &[u32]) -> Result<()> {
        for &i in indices {
            self.shared.pready(i)?;
        }
        Ok(())
    }

    /// Non-blocking completion check (`MPI_Test`): drives progress and
    /// reports whether the round has completed (an inactive request tests
    /// true, as in MPI).
    ///
    /// **Who drives progress.** On a wall-clock world the send side's own
    /// calls — `test`, `wait`, [`Proc::progress`] on the sending rank — are
    /// the only drivers of spilled WRs: the receiver's `parrived` / `test` /
    /// `wait` poll the receiver's CQs, and the fabric frees send slots, but
    /// only the sending rank's progress engine posts what it parked. A
    /// harness that polls the receiver alone stalls short of the round
    /// whenever more WRs were made ready than the cap admits (MPI's rule:
    /// a send completes through calls on the send request). Simulated worlds
    /// are driven by completion events instead.
    pub fn test(&self) -> bool {
        if !self.shared.active.load(Ordering::Acquire) {
            return true;
        }
        self.shared.proc.try_progress();
        // Re-evaluate completion directly: the round can become complete
        // without a fresh work completion (a pready that posts nothing
        // because a concurrent flush already covered its partition).
        self.shared.maybe_complete();
        !self.shared.active.load(Ordering::Acquire)
    }

    /// Block until the round completes (`MPI_Wait`), driving progress —
    /// spilled WRs included, see [`test`](Self::test) — on every turn.
    /// Returns [`PartixError::WouldBlockInSim`] on the virtual clock — use
    /// [`Self::on_complete`] there.
    pub fn wait(&self) -> Result<()> {
        loop {
            if let Some(status) = self.shared.error.get() {
                return Err(PartixError::TransferFailed { status });
            }
            if !self.shared.active.load(Ordering::Acquire) {
                return Ok(());
            }
            if self.shared.proc.sim_mode() {
                return Err(PartixError::WouldBlockInSim);
            }
            self.shared.proc.try_progress();
            self.shared.maybe_complete();
            std::thread::yield_now();
        }
    }

    /// Total work requests posted across all rounds (aggregation
    /// diagnostics: the paper's wire-efficiency argument is about exactly
    /// this number).
    pub fn total_wrs_posted(&self) -> u64 {
        self.shared.wr_posted_total.load(Ordering::Relaxed)
    }

    /// Fatal transfer error, if one occurred.
    pub fn error(&self) -> Option<&'static str> {
        self.shared.error.get().copied()
    }

    /// QP recovery cycles performed across the request's lifetime (each one
    /// is an error completion answered by cycling the QP back to RTS and
    /// re-posting the failed WR).
    pub fn recoveries(&self) -> u64 {
        self.shared.recoveries_total.load(Ordering::Relaxed)
    }

    /// The timer aggregator's delta currently in force (changes between
    /// rounds under adaptive tuning); `None` for non-timer plans.
    pub fn current_delta(&self) -> Option<crate::SimDuration> {
        self.shared.channel.get().and_then(|c| c.current_delta())
    }
}

/// Handle to a partitioned receive request.
#[derive(Clone)]
pub struct PrecvRequest {
    shared: Arc<RecvShared>,
    /// A request keeps its world alive (see `Drop for WorldInner`).
    _world: Arc<WorldInner>,
}

impl PrecvRequest {
    common_request_methods!();

    /// Begin a round (`MPI_Start`): resets arrival flags and replenishes
    /// receive WRs.
    pub fn start(&self) -> Result<()> {
        self.shared.start()
    }

    /// `MPI_Start` that first waits (blocking) for channel readiness.
    /// Instant mode only.
    pub fn start_blocking(&self) -> Result<()> {
        if self.shared.proc.sim_mode() {
            return Err(PartixError::WouldBlockInSim);
        }
        while !self.is_ready() {
            self.shared.proc.try_progress();
            std::thread::yield_now();
        }
        self.start()
    }

    /// Has partition `i` arrived this round? (`MPI_Parrived`.) Callable from
    /// any thread; internally drives the try-lock progress engine.
    pub fn parrived(&self, i: u32) -> Result<bool> {
        self.shared.parrived(i)
    }

    /// Non-blocking completion check (`MPI_Test`).
    pub fn test(&self) -> bool {
        if !self.shared.active.load(Ordering::Acquire) {
            return true;
        }
        self.shared.proc.try_progress();
        !self.shared.active.load(Ordering::Acquire)
    }

    /// Block until all partitions arrive (`MPI_Wait`). Instant mode only.
    pub fn wait(&self) -> Result<()> {
        loop {
            if !self.shared.active.load(Ordering::Acquire) {
                return Ok(());
            }
            if self.shared.proc.sim_mode() {
                return Err(PartixError::WouldBlockInSim);
            }
            self.shared.proc.try_progress();
            std::thread::yield_now();
        }
    }

    /// Count of partitions arrived this round.
    pub fn arrived_count(&self) -> u32 {
        self.shared.arrived_count.load(Ordering::Acquire)
    }
}
