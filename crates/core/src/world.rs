//! World construction, init-time matching, and channel establishment.
//!
//! `psend_init`/`precv_init` are matched by `(source rank, destination
//! rank, tag)` in posted order — MPI Partitioned forbids wildcards, which is
//! what makes init-time matching sufficient (paper §II-A). A matched pair
//! establishes a channel: QPs are created and connected on both nodes, the
//! receiver's registered buffer (rkey + base address) is handed to the
//! sender, and readiness is signalled after a modelled asynchronous setup
//! delay (the paper polls the progress engine in `MPI_Start` until the
//! remote buffer is ready — §IV-A).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use partix_sim::{Scheduler, SimDuration, SimTime, TimeSource};
use partix_verbs::telemetry::{invariants, Registry, Sample, Sampler, SamplerConfig, Snapshot};
use partix_verbs::{connect_pair, Fabric, LossyFabric, Network, QpCaps, SimFabric};

use crate::config::PartixConfig;
use crate::error::Result;
use crate::handles::Proc;
use crate::plan::{plan_for, PlanDecision};
use crate::proc::ProcInner;
use crate::request::{GroupState, RecvChannel, RecvShared, SendChannel, SendShared};

/// Matching queues per `(src, dst, tag)`.
#[derive(Default)]
struct PairQueues {
    sends: std::collections::VecDeque<Arc<SendShared>>,
    recvs: std::collections::VecDeque<Arc<RecvShared>>,
}

/// Init-time matcher.
#[derive(Default)]
pub(crate) struct MatchService {
    pending: Mutex<HashMap<(u32, u32, u32), PairQueues>>,
}

impl MatchService {
    fn offer_send(&self, world: &Arc<WorldInner>, s: Arc<SendShared>) -> Result<()> {
        let key = (s.proc.rank, s.dest, s.tag);
        let matched = {
            let mut map = self.pending.lock();
            let q = map.entry(key).or_default();
            match q.recvs.pop_front() {
                Some(r) => Some(r),
                None => {
                    q.sends.push_back(s.clone());
                    None
                }
            }
        };
        if let Some(r) = matched {
            establish(world, s, r)?;
        }
        Ok(())
    }

    fn offer_recv(&self, world: &Arc<WorldInner>, r: Arc<RecvShared>) -> Result<()> {
        let key = (r.src, r.proc.rank, r.tag);
        let matched = {
            let mut map = self.pending.lock();
            let q = map.entry(key).or_default();
            match q.sends.pop_front() {
                Some(s) => Some(s),
                None => {
                    q.recvs.push_back(r.clone());
                    None
                }
            }
        };
        if let Some(s) = matched {
            establish(world, s, r)?;
        }
        Ok(())
    }
}

/// Shared world state.
pub(crate) struct WorldInner {
    pub network: Network,
    /// The world's one clock and timer: its scheduler, or the wall clock.
    pub time: TimeSource,
    pub config: PartixConfig,
    pub match_svc: MatchService,
    /// By rank, so that a world is torn down in rank order on every run: a
    /// hash map's order differs from one process to the next, and with it
    /// the order the ranks' buffers go back to the allocator.
    pub procs: Mutex<BTreeMap<u32, Arc<ProcInner>>>,
    pub req_seq: AtomicU64,
    pub sampler: OnceLock<Arc<Sampler>>,
}

/// Every user-facing handle holds the `WorldInner`, and ownership below it
/// points one way except where a request holds its process while the
/// process's WR tables hold requests. Emptying those tables here is what
/// lets a world nothing refers to any more be freed, network and all
/// (DESIGN.md §13, "World lifetime").
impl Drop for WorldInner {
    fn drop(&mut self) {
        for p in self.procs.get_mut().values() {
            p.forget_requests();
        }
    }
}

/// An in-process "MPI world": a set of ranks joined by one fabric.
#[derive(Clone)]
pub struct World {
    pub(crate) inner: Arc<WorldInner>,
}

impl World {
    /// Build a simulated world of `ranks` ranks on a fresh virtual clock.
    /// Returns the scheduler that drives it. When `config.loss` is set, the
    /// fabric is wrapped in a [`LossyFabric`] with that loss model (seeded
    /// chaos: drops, duplicates and delays, with timer-based retransmission
    /// backoff on the virtual clock).
    pub fn sim(ranks: u32, config: PartixConfig) -> (World, Scheduler) {
        let sched = Scheduler::new();
        Self::sim_on(ranks, config, sched)
    }

    /// Build a simulated world whose events execute on the **sharded PDES
    /// engine** with one shard per rank and `jobs` worker threads (see
    /// [`Scheduler::sharded`]). The engine lookahead is the fabric's LogGP
    /// wire latency `L` — the model's minimum cross-rank delay. Virtual
    /// timing differs slightly from the sequential [`World::sim`] model
    /// (the receive port is reserved in arrival order and acks pay a full
    /// `L` from delivery visibility), but is byte-identical across the
    /// reference executor and every job count.
    ///
    /// Requests must be initialised from the driving thread (not from
    /// inside events), and `on_ready`/`on_complete` callbacks must only
    /// touch their own rank's requests — cross-rank calls would mutate
    /// another shard's state.
    pub fn sim_sharded(ranks: u32, config: PartixConfig, jobs: usize) -> (World, Scheduler) {
        let sched = Scheduler::sharded(ranks, Self::wire_lookahead(&config), jobs);
        Self::sim_on(ranks, config, sched)
    }

    /// [`World::sim_sharded`] on the sequential reference executor — the
    /// oracle sharded runs are byte-compared against.
    pub fn sim_sharded_reference(ranks: u32, config: PartixConfig) -> (World, Scheduler) {
        let sched = Scheduler::sharded_reference(ranks, Self::wire_lookahead(&config));
        Self::sim_on(ranks, config, sched)
    }

    /// The minimum cross-rank latency of `config`'s fabric model: the LogGP
    /// wire latency, converted exactly as the fabric converts it.
    fn wire_lookahead(config: &PartixConfig) -> partix_sim::SimDuration {
        partix_sim::SimDuration::from_nanos_f64(config.fabric.loggp.l)
    }

    fn sim_on(ranks: u32, config: PartixConfig, sched: Scheduler) -> (World, Scheduler) {
        // Fabric events carry node affinity (delivery at the receiver,
        // completions and retransmit timers at the sender); on a sharded
        // scheduler, where affinity decides the executing shard, the census
        // lets tests confirm routing coverage. A sequential scheduler runs
        // every node on one shard, so it keeps the census off.
        if sched.is_sharded() {
            sched.enable_node_affinity(ranks);
        }
        let fabric = SimFabric::new(sched.clone(), config.fabric);
        let world = Self::assemble(ranks, config, fabric, Some(sched.clone()));
        (world, sched)
    }

    /// Build an instant-fabric world (wall-clock time, synchronous
    /// transfers) for functional use with real threads.
    pub fn instant(ranks: u32, config: PartixConfig) -> World {
        World::with_fabric(ranks, config, partix_verbs::InstantFabric::new())
    }

    /// Build a wall-clock world over a caller-supplied fabric (e.g. a
    /// [`partix_verbs::ShmFabric`], or a scripted [`LossyFabric`] for
    /// failure-injection testing). When `config.loss` is set, the fabric is
    /// wrapped in a [`LossyFabric`] with that loss model, as in
    /// [`World::sim`], except that a wall-clock wire retransmits at once.
    pub fn with_fabric(ranks: u32, config: PartixConfig, fabric: Arc<dyn Fabric>) -> World {
        Self::assemble(ranks, config, fabric, None)
    }

    /// The one place a [`WorldInner`] is put together, and the one place
    /// `config.loss` is read: over `fabric`, on `sched`'s virtual clock or,
    /// without one, on the wall clock.
    fn assemble(
        ranks: u32,
        config: PartixConfig,
        fabric: Arc<dyn Fabric>,
        sched: Option<Scheduler>,
    ) -> World {
        let wire: Arc<dyn Fabric> = match (config.loss, &sched) {
            (Some(cfg), Some(sched)) => LossyFabric::simulated(fabric, sched.clone(), cfg),
            (Some(cfg), None) => LossyFabric::new(fabric, cfg),
            (None, _) => fabric,
        };
        let inner = Arc::new(WorldInner {
            network: Network::new(ranks, wire),
            time: sched.map_or_else(TimeSource::wall, TimeSource::Sim),
            config,
            match_svc: MatchService::default(),
            procs: Mutex::new(BTreeMap::new()),
            req_seq: AtomicU64::new(1),
            sampler: OnceLock::new(),
        });
        World { inner }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PartixConfig {
        &self.inner.config
    }

    /// Current time (virtual in sim mode, wall-clock otherwise).
    pub fn now(&self) -> SimTime {
        self.inner.time.now()
    }

    /// The driving scheduler (sim mode only).
    pub fn scheduler(&self) -> Option<&Scheduler> {
        self.inner.time.scheduler()
    }

    /// The telemetry registry the whole stack reports into.
    pub fn telemetry(&self) -> &Arc<Registry> {
        self.inner.network.state().telemetry()
    }

    /// Freeze the complete telemetry ledger (per-QP, per-CQ, wire, and
    /// runtime counters) for invariant checking or export.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.inner.network.state().telemetry_snapshot()
    }

    /// Reconcile the current ledger against the conservation laws. Call at
    /// quiescence (after `sched.run()` returns / all requests completed).
    pub fn check_invariants(&self) -> invariants::Report {
        invariants::check(&self.telemetry_snapshot())
    }

    /// Enable causal flow tracing: every WR posted from here on carries a
    /// flow identifier and its per-stage events land in `log`. Works in both
    /// simulated and wall-clock mode (timestamps come from the world's
    /// clock), and the log is the one trace source: the chrome-trace view
    /// `write_trace_json` renders and every stage histogram
    /// ([`stage_histograms`](partix_verbs::telemetry::stage_histograms)) are
    /// computed from it. Recording is passive — it never schedules events —
    /// so traced simulated runs stay byte-identical to untraced ones.
    pub fn enable_flow_tracing(&self, log: Arc<partix_verbs::FlowLog>) {
        self.telemetry()
            .flows
            .attach(log, self.inner.time.ns_hook());
    }

    /// Enable windowed time-series sampling: a [`Sampler`] captures a delta
    /// frame of the telemetry ledger every `interval` of this world's time,
    /// retaining the last `capacity` frames. In sim mode the scheduler drives
    /// it at deterministic points (epoch boundaries on the sharded engine,
    /// batch boundaries on the sequential one), so frame sequences are
    /// byte-identical across job counts; wall-clock worlds tick it from
    /// whoever drives progress (e.g.
    /// [`partix_verbs::ShmFabric::attach_sampler`]). Idempotent: a second
    /// call returns the sampler installed by the first.
    pub fn enable_sampling(&self, interval: SimDuration, capacity: usize) -> Arc<Sampler> {
        let sampler = self.inner.sampler.get_or_init(|| {
            let weak = Arc::downgrade(&self.inner);
            let source = Arc::new(move || {
                let Some(inner) = weak.upgrade() else {
                    return Sample::default();
                };
                Sample {
                    snapshot: inner.network.state().telemetry_snapshot(),
                    gauges: Vec::new(),
                }
            });
            Sampler::new(
                SamplerConfig {
                    interval_ns: interval.as_nanos().max(1),
                    capacity,
                    // Sim-time frames must be jobs-invariant; the arena's
                    // pool-reuse counters are scheduling noise, like in
                    // `ledger_digest`.
                    deterministic: self.scheduler().is_some(),
                },
                source,
            )
        });
        if let Some(sched) = self.scheduler() {
            let s = sampler.clone();
            sched.set_sample_hook(Arc::new(move |t_ns| s.tick(t_ns)));
        }
        sampler.clone()
    }

    /// The sampler installed by [`enable_sampling`](Self::enable_sampling),
    /// if any.
    pub fn sampler(&self) -> Option<Arc<Sampler>> {
        self.inner.sampler.get().cloned()
    }

    /// Get (or lazily create) the process for `rank`.
    pub fn proc(&self, rank: u32) -> Proc {
        let inner = {
            let mut procs = self.inner.procs.lock();
            if let Some(p) = procs.get(&rank) {
                p.clone()
            } else {
                let ctx = self
                    .inner
                    .network
                    .open(rank)
                    .expect("rank within world size");
                let p = ProcInner::new(
                    rank,
                    ctx,
                    self.inner.config.clone(),
                    self.inner.time.clone(),
                    self.inner.network.state().telemetry().clone(),
                );
                // In simulated mode, completion events drive the progress
                // engine directly (the completion-channel analogue); in
                // instant mode progress is caller-driven, like real MPI.
                if p.sim_mode() {
                    let weak = Arc::downgrade(&p);
                    let hook = Arc::new(move || {
                        if let Some(p) = weak.upgrade() {
                            p.try_progress();
                        }
                    });
                    let fresh = p.send_cq.set_notify(hook.clone()).is_ok()
                        && p.recv_cq.set_notify(hook).is_ok();
                    assert!(fresh, "a new process's CQs carry no hook yet");
                }
                procs.insert(rank, p.clone());
                p
            }
        };
        Proc::new(inner, self.inner.clone())
    }

    pub(crate) fn offer_send(&self, s: Arc<SendShared>) -> Result<()> {
        self.inner.match_svc.offer_send(&self.inner, s)
    }

    pub(crate) fn offer_recv(&self, r: Arc<RecvShared>) -> Result<()> {
        self.inner.match_svc.offer_recv(&self.inner, r)
    }
}

/// Establish the channel for a matched psend/precv pair.
fn establish(world: &Arc<WorldInner>, s: Arc<SendShared>, r: Arc<RecvShared>) -> Result<()> {
    assert_eq!(
        s.partitions, r.partitions,
        "matched psend/precv disagree on partition count (src {} dst {} tag {})",
        s.proc.rank, s.dest, s.tag
    );
    assert_eq!(
        s.part_bytes, r.part_bytes,
        "matched psend/precv disagree on partition size (src {} dst {} tag {})",
        s.proc.rank, s.dest, s.tag
    );

    let max_wr_bytes = world.network.fabric().max_wr_bytes();
    let plan = plan_for(&world.config, s.partitions, s.part_bytes, max_wr_bytes);
    let rt = &world.network.state().telemetry().runtime;
    match plan.decision {
        PlanDecision::Fixed => rt.fixed_decisions.inc(),
        PlanDecision::Table => rt.table_decisions.inc(),
        PlanDecision::TableFallback => rt.table_fallback_decisions.inc(),
        PlanDecision::Model => rt.model_decisions.inc(),
    }
    // Retry/timeout attributes from the reliability configuration, applied
    // at QP creation (they take effect at RTR/RTS, like `ibv_modify_qp`).
    let rel = &world.config.reliability;
    let base_caps = QpCaps {
        timeout: rel.timeout,
        retry_cnt: rel.retry_cnt,
        rnr_retry: rel.rnr_retry,
        min_rnr_timer_ns: rel.min_rnr_timer_ns,
        ..QpCaps::default()
    };
    let mut send_qps = Vec::with_capacity(plan.qp_count as usize);
    let mut recv_qps = Vec::with_capacity(plan.qp_count as usize);
    for q in 0..plan.qp_count {
        let recv_caps = QpCaps {
            max_recv_wr: plan.max_incoming_wrs(q) + 16,
            ..base_caps
        };
        let qa = s.proc.ctx.create_qp(
            s.proc.pd,
            s.proc.send_cq.clone(),
            s.proc.recv_cq.clone(),
            base_caps,
        )?;
        let qb = r.proc.ctx.create_qp(
            r.proc.pd,
            r.proc.send_cq.clone(),
            r.proc.recv_cq.clone(),
            recv_caps,
        )?;
        connect_pair(&qa, &qb)?;
        send_qps.push(qa);
        recv_qps.push(qb);
    }

    let groups = (0..plan.groups)
        .map(|g| GroupState {
            range: plan.range_of(g),
            arrived: std::sync::atomic::AtomicU32::new(0),
            phase: std::sync::atomic::AtomicU8::new(0),
            lock: Mutex::new(()),
        })
        .collect();

    let send_channel = Arc::new(SendChannel {
        plan: plan.clone(),
        qps: send_qps,
        remote_addr: r.mr.addr(),
        remote_rkey: r.mr.rkey(),
        groups,
        pending: Mutex::new(std::collections::VecDeque::new()),
        delta_ns: std::sync::atomic::AtomicU64::new(
            plan.timer_delta.map(|d| d.as_nanos()).unwrap_or(0),
        ),
        batch_scratch: Mutex::new(Vec::new()),
    });
    let recv_channel = Arc::new(RecvChannel {
        plan,
        qps: recv_qps,
    });

    set_once(&s.channel, send_channel);
    set_once(&r.channel, recv_channel);
    s.proc.drainable.lock().push(Arc::downgrade(&s));

    // Asynchronous bring-up: the channel becomes usable after the modelled
    // QP-exchange delay (first `MPI_Start` waits on this — paper §IV-A).
    let mark_both = move |s: &SendShared, r: &RecvShared| {
        s.set_ready();
        r.set_ready();
        s.fire_ready();
        r.fire_ready();
    };
    match world.time.scheduler() {
        Some(sched) if sched.is_sharded() => {
            // Each end's state must only be touched on its own shard, so the
            // bring-up is split per end: both ready flags latch at `at`, and
            // both `fire_ready` notifications run one lookahead later — far
            // enough that each side's flag write is happens-before every
            // fire, on the reference executor and under parallel epochs
            // alike.
            let lookahead = sched.sharded_lookahead().expect("sharded");
            let (src_node, dst_node) = (s.proc.rank, r.proc.rank);
            let at = sched.now() + world.config.setup_delay;
            let fire_at = at + lookahead;
            let s2 = s.clone();
            sched.at_node(src_node, at, move || s2.set_ready());
            let r2 = r.clone();
            sched.at_node(dst_node, at, move || r2.set_ready());
            let s3 = s.clone();
            sched.at_node(src_node, fire_at, move || s3.fire_ready());
            let r3 = r.clone();
            sched.at_node(dst_node, fire_at, move || r3.fire_ready());
        }
        Some(sched) => {
            let (s2, r2) = (s.clone(), r.clone());
            // Bring-up completes at the initiating (sender) rank: tag the
            // event with its node so sharded executors can home it.
            let src_node = s.proc.rank;
            let at = sched.now() + world.config.setup_delay;
            sched.at_node(src_node, at, move || {
                mark_both(&s2, &r2);
            });
        }
        None => mark_both(&s, &r),
    }
    Ok(())
}

fn set_once<T>(slot: &OnceLock<T>, value: T) {
    if slot.set(value).is_err() {
        unreachable!("channel established twice for one request");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AggregatorKind;

    /// δ expiry on the wall clock without sleeping: `fire_due` takes `now`.
    /// A deadline armed in a round that has since ended finds it over and
    /// does nothing; the live round's deadline flushes.
    #[test]
    fn expired_delta_of_an_ended_round_is_a_no_op() {
        let hour = SimDuration::from_secs(3600);
        let mut cfg = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
        cfg.delta = hour;
        let world = World::instant(2, cfg);
        let (p0, p1) = (world.proc(0), world.proc(1));
        let sbuf = p0.alloc_buffer(4 * 256).unwrap();
        let rbuf = p1.alloc_buffer(4 * 256).unwrap();
        let send = p0.psend_init(&sbuf, 4, 256, 1, 0).unwrap();
        let recv = p1.precv_init(&rbuf, 4, 256, 0, 0).unwrap();
        let fires = || world.telemetry_snapshot().runtime.timer_fires;

        // Round 1 arms δ and ends long before it: the last arrival sends the
        // whole group.
        recv.start().unwrap();
        send.start().unwrap();
        send.pready_range(0, 4).unwrap();
        send.wait().unwrap();
        recv.wait().unwrap();
        // Round 2 arms its own δ.
        recv.start().unwrap();
        send.start().unwrap();
        send.pready(0).unwrap();
        assert_eq!((fires(), send.total_wrs_posted()), (0, 1));

        let TimeSource::Wall(clock) = &world.inner.time else {
            unreachable!("instant worlds run on the wall clock");
        };
        assert_eq!(clock.fire_due(world.now() + hour + hour), None);
        assert_eq!(fires(), 1, "round 1's deadline was stale, round 2's fired");
        assert_eq!(send.total_wrs_posted(), 2, "the flush sent partition 0");

        send.pready_range(1, 4).unwrap();
        send.wait().unwrap();
        recv.wait().unwrap();
        assert_eq!(
            send.total_wrs_posted(),
            5,
            "post-flush arrivals send themselves"
        );
    }
}
