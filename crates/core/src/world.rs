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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use partix_sim::{Scheduler, SimDuration, SimTime, TimeSource};
use partix_verbs::telemetry::{invariants, Registry, Sample, Sampler, SamplerConfig, Snapshot};
use partix_verbs::{connect_pair, Fabric, LossyFabric, Network, NotifyHook, QpCaps, SimFabric};

use crate::config::PartixConfig;
use crate::error::{PartixError, Result};
use crate::handles::Proc;
use crate::plan::{plan_for, PlanDecision};
use crate::proc::ProcInner;
use crate::request::{RecvChannel, RecvShared, SendChannel, SendShared};

/// One end of a pair, as offered to the match service.
pub(crate) enum End {
    Send(Arc<SendShared>),
    Recv(Arc<RecvShared>),
}

impl End {
    /// The `(source rank, destination rank, tag)` the end matches on.
    fn key(&self) -> (u32, u32, u32) {
        match self {
            End::Send(s) => (s.core.proc.rank, s.core.peer, s.core.tag),
            End::Recv(r) => (r.core.peer, r.core.proc.rank, r.core.tag),
        }
    }
}

/// Init-time matcher: per `(src, dst, tag)`, the unmatched ends in posted
/// order, all of one side (an end of the other side would have matched).
#[derive(Default)]
pub(crate) struct MatchService {
    pending: Mutex<HashMap<(u32, u32, u32), VecDeque<End>>>,
}

impl MatchService {
    /// Match `end` with the oldest waiting end of the other side, or queue
    /// it; a key with nothing waiting keeps no queue. A peer of another
    /// shape (partition count and size) refuses the offer and stays at the
    /// front of its queue. `register` runs only once the offer is accepted,
    /// and before the match lock is released, so that a receive is in its
    /// process's table before any peer can post to it.
    pub(crate) fn offer(
        &self,
        world: &Arc<WorldInner>,
        end: End,
        register: impl FnOnce(),
    ) -> Result<()> {
        let key = end.key();
        let matched = {
            let mut map = self.pending.lock();
            let queue = map.entry(key).or_default();
            let matched = match (&end, queue.front()) {
                (End::Send(s), Some(End::Recv(r))) | (End::Recv(r), Some(End::Send(s))) => {
                    let send = (s.core.partitions, s.core.part_bytes);
                    let recv = (r.core.partitions, r.core.part_bytes);
                    if send != recv {
                        return Err(PartixError::ShapeMismatch { send, recv });
                    }
                    let matched = (s.clone(), r.clone());
                    queue.pop_front();
                    if queue.is_empty() {
                        map.remove(&key);
                    }
                    Some(matched)
                }
                _ => {
                    queue.push_back(end);
                    None
                }
            };
            register();
            matched
        };
        if let Some((s, r)) = matched {
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
                    let hook: NotifyHook = Arc::new(move |offer| {
                        if let Some(p) = weak.upgrade() {
                            p.try_progress(offer);
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
}

/// Modelled duration of the asynchronous QP exchange and RTR/RTS bring-up:
/// the gap from `psend_init`/`precv_init` to the first possible `start` on
/// the virtual clock.
const SETUP_DELAY: SimDuration = SimDuration::from_micros(10);

/// Establish the channel for a matched psend/precv pair.
fn establish(world: &Arc<WorldInner>, s: Arc<SendShared>, r: Arc<RecvShared>) -> Result<()> {
    let max_wr_bytes = world.network.fabric().max_wr_bytes();
    let plan = plan_for(
        &world.config,
        s.core.partitions,
        s.core.part_bytes,
        max_wr_bytes,
    );
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
        let (sp, rp) = (&s.core.proc, &r.core.proc);
        let qa = sp
            .ctx
            .create_qp(sp.pd, sp.send_cq.clone(), sp.recv_cq.clone(), base_caps)?;
        let qb = rp
            .ctx
            .create_qp(rp.pd, rp.send_cq.clone(), rp.recv_cq.clone(), recv_caps)?;
        connect_pair(&qa, &qb)?;
        send_qps.push(qa);
        recv_qps.push(qb);
    }

    let remote = (r.core.mr.addr(), r.core.mr.rkey());
    let send_channel = Arc::new(SendChannel::new(&s, plan.clone(), send_qps, remote));
    let recv_channel = Arc::new(RecvChannel {
        plan,
        qps: recv_qps,
    });

    let fresh =
        s.core.channel.set(send_channel).is_ok() && r.core.channel.set(recv_channel).is_ok();
    assert!(fresh, "channel established twice for one request");
    s.core.proc.drainable.lock().push(Arc::downgrade(&s));

    // Asynchronous bring-up: the channel becomes usable after the modelled
    // QP-exchange delay (first `MPI_Start` waits on this — paper §IV-A).
    let mark_both = move |s: &SendShared, r: &RecvShared| {
        s.core.set_ready();
        r.core.set_ready();
        s.core.fire_ready();
        r.core.fire_ready();
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
            let (src_node, dst_node) = (s.core.proc.rank, r.core.proc.rank);
            let at = sched.now() + SETUP_DELAY;
            let fire_at = at + lookahead;
            let (s2, r2, s3, r3) = (s.clone(), r.clone(), s.clone(), r.clone());
            sched.at_node(src_node, at, move || s2.core.set_ready());
            sched.at_node(dst_node, at, move || r2.core.set_ready());
            sched.at_node(src_node, fire_at, move || s3.core.fire_ready());
            sched.at_node(dst_node, fire_at, move || r3.core.fire_ready());
        }
        Some(sched) => {
            // Bring-up completes at the initiating (sender) rank: tag the
            // event with its node so sharded executors can home it.
            let (s2, r2) = (s.clone(), r.clone());
            let at = sched.now() + SETUP_DELAY;
            sched.at_node(s.core.proc.rank, at, move || mark_both(&s2, &r2));
        }
        None => mark_both(&s, &r),
    }
    Ok(())
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

    /// On the virtual clock every completion reaches an idle progress
    /// engine, which takes it from the CQ's notify hook: after a round both
    /// CQs of both ranks are empty, every pushed entry counts as polled, and
    /// the bytes arrived.
    #[test]
    fn sim_completions_are_handed_off_and_counted_polled() {
        let (world, sched) = World::sim(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
        let (p0, p1) = (world.proc(0), world.proc(1));
        let sbuf = p0.alloc_buffer(8 * 512).unwrap();
        let rbuf = p1.alloc_buffer(8 * 512).unwrap();
        let send = p0.psend_init(&sbuf, 8, 512, 1, 0).unwrap();
        let recv = p1.precv_init(&rbuf, 8, 512, 0, 0).unwrap();
        let data: Vec<u8> = (0..8 * 512).map(|b| (b % 253) as u8).collect();
        sbuf.write(0, &data).unwrap();
        let (send2, recv2) = (send.clone(), recv.clone());
        send.on_ready(move || {
            recv2.start().unwrap();
            send2.start().unwrap();
            for i in 0..8 {
                send2.pready(i).unwrap();
            }
        });
        sched.run();
        assert!(recv.test());
        assert_eq!(rbuf.read_vec(0, 8 * 512).unwrap(), data);
        for p in world.inner.procs.lock().values() {
            for cq in [&p.send_cq, &p.recv_cq] {
                assert_eq!(cq.depth(), 0, "rank {}", p.rank);
                assert_eq!(cq.total_polled(), cq.total_pushed(), "rank {}", p.rank);
            }
        }
        let pushed = |rank: u32| {
            let p = &world.inner.procs.lock()[&rank];
            (p.send_cq.total_pushed(), p.recv_cq.total_pushed())
        };
        assert!(
            pushed(0).0 > 0 && pushed(1).1 > 0,
            "the round made completions"
        );
    }

    /// A `precv_init` the match service refuses leaves no entry in its
    /// process's receive table, so refusals neither grow it nor pin their
    /// requests; the next accepted request takes the first free index as
    /// its `wr_id` and completes a round. The matched pair leaves nothing
    /// queued in the match service, not even an empty queue.
    #[test]
    fn a_refused_precv_init_is_not_registered() {
        let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
        let (p0, p1) = (world.proc(0), world.proc(1));
        let sbuf = p0.alloc_buffer(4 * 256).unwrap();
        let rbuf = p1.alloc_buffer(4 * 256).unwrap();
        let send = p0.psend_init(&sbuf, 4, 256, 1, 0).unwrap();
        let table = || {
            let recvs = world.inner.procs.lock()[&1].recvs.read().clone();
            recvs.iter().map(|r| r.wr_id).collect::<Vec<_>>()
        };
        for _ in 0..3 {
            let refused = p1.precv_init(&rbuf, 2, 256, 0, 0).err();
            let want = PartixError::ShapeMismatch {
                send: (4, 256),
                recv: (2, 256),
            };
            assert_eq!(refused, Some(want));
        }
        assert_eq!(table(), [], "a refused request stayed registered");

        let recv = p1.precv_init(&rbuf, 4, 256, 0, 0).unwrap();
        assert_eq!(table(), [0], "the wr_id is the table index");
        assert!(world.inner.match_svc.pending.lock().is_empty());
        let data: Vec<u8> = (0..4 * 256).map(|b| (b % 251) as u8).collect();
        sbuf.write(0, &data).unwrap();
        recv.start().unwrap();
        send.start().unwrap();
        send.pready_range(0, 4).unwrap();
        send.wait().unwrap();
        recv.wait().unwrap();
        assert_eq!(rbuf.read_vec(0, 4 * 256).unwrap(), data);
    }
}
