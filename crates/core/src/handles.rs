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

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use partix_verbs::{MemoryRegion, QpState, MAX_WR_BYTES};

use crate::error::{PartixError, Result};
use crate::plan::TransportPlan;
use crate::proc::ProcInner;
use crate::request::{Lifecycle, RecvShared, RequestCore, SendShared};
use crate::world::{End, WorldInner};

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

    /// The lifecycle core of a new request of this process under the
    /// world's next id, once its shape and buffer check out.
    fn core<C>(
        &self,
        buf: &MemoryRegion,
        partitions: u32,
        part_bytes: usize,
        peer: u32,
        tag: u32,
    ) -> Result<RequestCore<C>> {
        if partitions == 0 || partitions > MAX_PARTITIONS {
            return Err(PartixError::BadPartitionCount { partitions });
        }
        if part_bytes == 0 {
            return Err(PartixError::ZeroPartitionSize);
        }
        // Saturated: a size past `usize` fits no buffer.
        let required = (partitions as usize).saturating_mul(part_bytes);
        if buf.len() < required {
            return Err(PartixError::BufferTooSmall {
                required,
                available: buf.len(),
            });
        }
        if buf.node() != self.inner.ctx.node_id() {
            return Err(PartixError::WrongNode);
        }
        Ok(RequestCore {
            id: self.world.req_seq.fetch_add(1, Ordering::Relaxed),
            proc: self.inner.clone(),
            partitions,
            part_bytes,
            mr: buf.clone(),
            peer,
            tag,
            channel: OnceLock::new(),
            life: Lifecycle::default(),
        })
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
        let core = self.core(buf, partitions, part_bytes, dest, tag)?;
        if part_bytes as u64 > MAX_WR_BYTES {
            return Err(PartixError::PartitionTooLarge {
                part_bytes,
                max_wr_bytes: MAX_WR_BYTES,
            });
        }
        // The request's place in `sends` is the top of its WR ids,
        // registered as `precv_init` registers a receive.
        let mut sends = self.inner.sends.write();
        let shared = Arc::new(SendShared::new(core, sends.len() as u32));
        let (offer, entry) = (End::Send(shared.clone()), shared.clone());
        let register = move || sends.push(entry);
        self.world.match_svc.offer(&self.world, offer, register)?;
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
        let core = self.core(buf, partitions, part_bytes, src, tag)?;
        // The request's place in `recvs` is the id its receive WRs carry.
        // The table stays locked until the match service accepts the offer
        // and registers it there; a refused offer leaves the table as it
        // was. (A failed channel set-up keeps the entry: receive WRs
        // carrying its id may already be posted.)
        let mut recvs = self.inner.recvs.write();
        let shared = Arc::new(RecvShared::new(core, recvs.len() as u64));
        let (offer, entry) = (End::Recv(shared.clone()), shared.clone());
        let register = move || recvs.push(entry);
        self.world.match_svc.offer(&self.world, offer, register)?;
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
        self.inner.try_progress(None);
    }
}

/// Turns of [`block`] between two reads of a limit's clock.
const TURNS_PER_CLOCK_READ: u32 = 64;

/// The one blocking loop of both handles: a turn runs `done` (`Some` ends it),
/// refuses the virtual clock, then drives progress and yields. A `limit` reads
/// the clock every [`TURNS_PER_CLOCK_READ`] turns; expiry reports `state`.
fn block(
    proc: &Arc<ProcInner>,
    limit: Option<Duration>,
    mut done: impl FnMut() -> Option<Result<()>>,
    state: impl FnOnce() -> String,
) -> Result<()> {
    let bound = limit.map(|limit| (limit, proc.time.now()));
    let mut turn = 0u32;
    loop {
        if let Some(result) = done() {
            return result;
        }
        if proc.sim_mode() {
            return Err(PartixError::WouldBlockInSim);
        }
        turn = turn.wrapping_add(1);
        if let Some((limit, since)) = bound.filter(|_| turn % TURNS_PER_CLOCK_READ == 0) {
            let elapsed = proc.time.now().saturating_since(since).as_nanos();
            if Duration::from_nanos(elapsed) >= limit {
                let state = state();
                return Err(PartixError::Timeout { limit, state });
            }
        }
        proc.try_progress(None);
        std::thread::yield_now();
    }
}

/// Shared behaviour of the two request handles.
macro_rules! common_request_methods {
    () => {
        /// Unique request identifier (the `chan` of its flow events).
        pub fn id(&self) -> u64 {
            self.shared.core.id
        }

        /// Whether asynchronous channel setup has completed.
        pub fn is_ready(&self) -> bool {
            self.shared.core.is_ready()
        }

        /// Run `cb` when the channel becomes ready (immediately if it
        /// already is).
        pub fn on_ready(&self, cb: impl FnOnce() + Send + 'static) {
            self.shared.core.on_ready(cb)
        }

        /// Register `cb` to run when the current round completes. Must be
        /// registered while the round is in flight (or before it can
        /// possibly complete).
        pub fn on_complete(&self, cb: impl FnOnce() + Send + 'static) {
            self.shared.core.on_complete(cb)
        }

        /// Rounds completed so far.
        pub fn completed_rounds(&self) -> u64 {
            self.shared.core.completed_rounds()
        }

        /// Whether the request is mid-round.
        pub fn is_active(&self) -> bool {
            self.shared.core.is_active()
        }

        /// The transport plan (available once the channel is established).
        pub fn plan(&self) -> Option<TransportPlan> {
            self.shared.core.channel.get().map(|c| c.plan.clone())
        }

        /// Begin a round (`MPI_Start`; a receive also clears its arrival
        /// flags and replenishes receive WRs). The channel must be ready:
        /// sequence the first round with [`Self::on_ready`] on the virtual
        /// clock, or use [`Self::start_blocking`].
        pub fn start(&self) -> Result<()> {
            self.shared.start()
        }

        /// `MPI_Start` once the channel is ready, driving progress until it
        /// is (the paper's first round); on the virtual clock a channel not
        /// yet ready is [`PartixError::WouldBlockInSim`] — use `on_ready`.
        pub fn start_blocking(&self) -> Result<()> {
            let ready = || self.is_ready().then(|| self.start());
            block(&self.shared.core.proc, None, ready, || self.state())
        }

        /// Block until the round completes (`MPI_Wait`), driving progress;
        /// [`PartixError::WouldBlockInSim`] on the virtual clock — use
        /// [`Self::on_complete`] there.
        pub fn wait(&self) -> Result<()> {
            let done = || self.round_done();
            block(&self.shared.core.proc, None, done, || self.state())
        }

        /// [`Self::wait`] for at most `limit` of the world's clock, then
        /// [`PartixError::Timeout`]: the round stays active for a later wait.
        pub fn wait_deadline(&self, limit: Duration) -> Result<()> {
            let done = || self.round_done();
            block(&self.shared.core.proc, Some(limit), done, || self.state())
        }

        /// The request in one line, for a [`PartixError::Timeout`].
        fn state(&self) -> String {
            let (side, counts) = self.counts();
            let qps = self.shared.core.channel.get().map(|c| c.qps.as_slice());
            let qps: Vec<QpState> = qps.unwrap_or_default().iter().map(|q| q.state()).collect();
            let (id, active, done) = (self.id(), self.is_active(), self.completed_rounds());
            let round = done + u64::from(active);
            format!(
                "{side} request {id}: round {round}, active {active}, {counts}, \
                 {done} rounds completed, QPs {qps:?}"
            )
        }
    };
}

/// Handle to a partitioned send request.
#[derive(Clone)]
pub struct PsendRequest {
    pub(crate) shared: Arc<SendShared>,
    /// A request keeps its world alive (see `Drop for WorldInner`).
    _world: Arc<WorldInner>,
}

impl PsendRequest {
    common_request_methods!();

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
        (lo..hi).try_for_each(|i| self.shared.pready(i))
    }

    /// Mark an arbitrary set of partitions ready (`MPI_Pready_list`).
    /// Partitions are committed in the order given; on error, partitions
    /// before the failing index remain committed (matching MPI's
    /// local-completion semantics).
    pub fn pready_list(&self, indices: &[u32]) -> Result<()> {
        indices.iter().try_for_each(|&i| self.shared.pready(i))
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
        // Completion is re-evaluated directly: the round can become complete
        // without a fresh work completion (a pready that posts nothing
        // because a concurrent flush already covered its partition).
        self.shared.core.test(|| self.shared.maybe_complete())
    }

    /// A wait's step: a failed transfer ends it; completion is re-evaluated.
    fn round_done(&self) -> Option<Result<()>> {
        if let Some(status) = self.shared.error.get() {
            return Some(Err(PartixError::TransferFailed { status }));
        }
        self.shared.maybe_complete();
        (!self.is_active()).then_some(Ok(()))
    }

    /// Side and partition counts, for the request's `state`.
    fn counts(&self) -> (&str, String) {
        let s = &self.shared;
        let ready = s.bits[..s.bits.len() / 2].iter();
        let arrived: u32 = ready.map(|w| w.load(Ordering::Acquire).count_ones()).sum();
        let (posted, parts) = (s.sent_count.load(Ordering::Acquire), s.core.partitions);
        let counts = format!("{arrived}/{parts} partitions arrived, {posted} posted");
        ("send", counts)
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
        self.shared.core.channel.get()?.current_delta()
    }
}

/// Handle to a partitioned receive request.
#[derive(Clone)]
pub struct PrecvRequest {
    pub(crate) shared: Arc<RecvShared>,
    /// A request keeps its world alive (see `Drop for WorldInner`).
    _world: Arc<WorldInner>,
}

impl PrecvRequest {
    common_request_methods!();

    /// Has partition `i` arrived this round? (`MPI_Parrived`.) Callable from
    /// any thread; internally drives the try-lock progress engine.
    pub fn parrived(&self, i: u32) -> Result<bool> {
        self.shared.parrived(i)
    }

    /// Non-blocking completion check (`MPI_Test`).
    pub fn test(&self) -> bool {
        self.shared.core.test(|| {})
    }

    /// The receive side's step of a wait: every partition has arrived.
    fn round_done(&self) -> Option<Result<()>> {
        (!self.is_active()).then_some(Ok(()))
    }

    /// Side and partition counts, for the request's `state`.
    fn counts(&self) -> (&str, String) {
        let (arrived, parts) = (self.arrived_count(), self.shared.core.partitions);
        ("recv", format!("{arrived}/{parts} partitions arrived"))
    }

    /// Count of partitions arrived this round.
    pub fn arrived_count(&self) -> u32 {
        self.shared.arrived_count.load(Ordering::Acquire)
    }
}
