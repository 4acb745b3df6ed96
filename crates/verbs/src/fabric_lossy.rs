//! The lossy fabric: seeded, deterministic wire-level chaos.
//!
//! [`LossyFabric`] wraps any inner fabric and, per transfer, may **drop**
//! it (triggering the sender-side retransmission machinery), **duplicate**
//! it (an extra ghost delivery the destination's PSN check must suppress),
//! or **delay** it (extra one-way wire latency). All decisions come from a
//! single seeded RNG, so a simulated run is bit-reproducible from
//! `(seed, config)` alone. A [`FaultPlan`] scripts drops instead of rolling
//! for them ([`LossyFabric::scripted`]): the tests' "fail exactly this
//! transfer". This is the one place in the workspace where a transfer is
//! dropped, duplicated, delayed, failed or re-sent.
//!
//! Retransmission follows the IB RC model: a dropped transfer is re-offered
//! to the wire after the source QP's ack timeout (`4.096 us x 2^timeout`),
//! doubling per attempt, up to `retry_cnt` attempts; only exhaustion
//! surfaces `RetryExceeded` at the sender's CQ. Because retransmissions
//! share the original PSN, a late original plus a successful retry still
//! lands exactly once at the memory region.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use partix_sim::{Scheduler, SimDuration};
use partix_telemetry::FlowStage;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::fabric::{complete_send, sender_retry_profile, Fabric, TransferJob};
use crate::network::NetworkState;
use crate::table::IndexTable;
use crate::types::WcStatus;

/// Loss model of a [`LossyFabric`]. All probabilities are per wire attempt
/// (a retransmission re-rolls the dice).
#[derive(Clone, Copy, Debug)]
pub struct LossyConfig {
    /// Probability a transfer is dropped by the wire.
    pub drop_p: f64,
    /// Probability a transfer is duplicated (original + one ghost copy).
    pub dup_p: f64,
    /// Probability a transfer is delayed by extra wire latency.
    pub delay_p: f64,
    /// Maximum extra latency for delayed transfers (uniform in `[0, max)`),
    /// nanoseconds.
    pub max_delay_ns: u64,
    /// RNG seed; same seed + same config = same fault pattern.
    pub seed: u64,
}

impl Default for LossyConfig {
    fn default() -> Self {
        LossyConfig {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            max_delay_ns: 2_000,
            seed: 0x10_55,
        }
    }
}

impl LossyConfig {
    /// A drop-only configuration at rate `p`.
    pub fn drops(p: f64, seed: u64) -> Self {
        LossyConfig {
            drop_p: p,
            seed,
            ..LossyConfig::default()
        }
    }

    /// Drops, duplicates and delays all enabled — the chaos-suite default.
    pub fn chaos(drop_p: f64, seed: u64) -> Self {
        LossyConfig {
            drop_p,
            dup_p: drop_p / 2.0,
            delay_p: 0.2,
            max_delay_ns: 2_000,
            seed,
        }
    }
}

/// Scripted drops: which wire attempts, by their 0-based index in the order
/// the fabric sees them (retransmissions count), are dropped whatever the
/// dice say. On a QP with `retry_cnt = 0` a scripted drop is an injected
/// fault: `RetryExceeded` at once, nothing delivered.
#[derive(Debug)]
pub enum FaultPlan {
    /// Drop every `n`-th attempt (1-based: `EveryNth(1)` drops all).
    EveryNth(u64),
    /// Drop the attempts whose index is in the list.
    Indices(Vec<u64>),
}

impl FaultPlan {
    fn drops(&self, index: u64) -> bool {
        match self {
            FaultPlan::EveryNth(n) => *n > 0 && (index + 1) % *n == 0,
            FaultPlan::Indices(list) => list.contains(&index),
        }
    }
}

/// A fabric decorator that drops, duplicates and delays transfers per a
/// seeded loss model, and retransmits dropped transfers with exponential
/// backoff per the source QP's [`RetryProfile`](crate::RetryProfile).
pub struct LossyFabric {
    inner: Arc<dyn Fabric>,
    /// Scheduler for timer-based backoff. `None` = instant mode: dropped
    /// transfers are retried immediately (zero-latency retransmission).
    sched: Option<Scheduler>,
    cfg: LossyConfig,
    /// Scripted drops, on top of the seeded ones.
    plan: Option<FaultPlan>,
    rng: Mutex<StdRng>,
    /// Per-source-node RNG streams, used instead of the shared `rng` when
    /// the scheduler is sharded: with shards executing concurrently, a
    /// single stream's draw order would depend on wall-clock interleaving,
    /// while per-node streams are pure functions of each node's (shard-
    /// deterministic) attempt order. Seeds derive from `cfg.seed` via
    /// `split_seed`, so the fault pattern is reproducible per node.
    node_rngs: IndexTable<Mutex<StdRng>>,
    /// True when `sched` executes on the sharded PDES engine.
    sharded: bool,
    /// Wire attempts so far: the index [`FaultPlan`] reads. The wire
    /// ledger (`wire.*` telemetry) counts what became of each attempt.
    attempts: AtomicU64,
    /// Self-handle for timer closures (retransmissions re-enter `attempt`).
    me: Weak<LossyFabric>,
}

impl LossyFabric {
    /// Wrap `inner` for instant-mode use: retransmissions happen
    /// synchronously inside `submit`, without backoff delays. Note that
    /// with real threads the draw *order* depends on thread interleaving;
    /// only simulated mode is bit-deterministic.
    pub fn new(inner: Arc<dyn Fabric>, cfg: LossyConfig) -> Arc<Self> {
        Self::build(inner, None, cfg, None)
    }

    /// Wrap `inner` for instant-mode use on an otherwise perfect wire that
    /// drops exactly the attempts `plan` names: deterministic for any one
    /// posting order, and no randomness decides anything.
    pub fn scripted(inner: Arc<dyn Fabric>, plan: FaultPlan) -> Arc<Self> {
        Self::build(inner, None, LossyConfig::default(), Some(plan))
    }

    /// Wrap `inner` for simulated mode: retransmissions wait out the ack
    /// timeout on `sched`'s virtual clock. Deterministic: the event loop is
    /// single-threaded, so the RNG draw order is a pure function of the
    /// seed and the workload.
    pub fn simulated(inner: Arc<dyn Fabric>, sched: Scheduler, cfg: LossyConfig) -> Arc<Self> {
        Self::build(inner, Some(sched), cfg, None)
    }

    fn build(
        inner: Arc<dyn Fabric>,
        sched: Option<Scheduler>,
        cfg: LossyConfig,
        plan: Option<FaultPlan>,
    ) -> Arc<Self> {
        assert!(
            (0.0..=1.0).contains(&cfg.drop_p)
                && (0.0..=1.0).contains(&cfg.dup_p)
                && (0.0..=1.0).contains(&cfg.delay_p),
            "loss probabilities must be within [0, 1]"
        );
        let sharded = sched.as_ref().is_some_and(|s| s.is_sharded());
        Arc::new_cyclic(|me| LossyFabric {
            inner,
            sched,
            cfg,
            plan,
            rng: Mutex::new(StdRng::seed_from_u64(cfg.seed)),
            node_rngs: IndexTable::new(),
            sharded,
            attempts: AtomicU64::new(0),
            me: me.clone(),
        })
    }

    /// Run `f` against the RNG stream that governs attempts from
    /// `src_node`: the shared stream in sequential/instant mode (draw order
    /// = global attempt order), a per-node split stream in sharded mode.
    fn with_rng<R>(&self, src_node: u32, f: impl FnOnce(&mut StdRng) -> R) -> R {
        if self.sharded {
            let rng = self.node_rngs.get_or_init(src_node, || {
                Mutex::new(StdRng::seed_from_u64(partix_sim::split_seed(
                    self.cfg.seed,
                    "lossy-node",
                    src_node as u64,
                )))
            });
            f(&mut rng.lock())
        } else {
            f(&mut self.rng.lock())
        }
    }

    /// The loss model in force.
    pub fn config(&self) -> LossyConfig {
        self.cfg
    }

    /// Wire attempts seen (originals + retransmissions + ghosts).
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// One wire attempt for `job` (attempt number `tries`, 0-based).
    fn attempt(&self, net: Arc<NetworkState>, mut job: TransferJob, tries: u8) {
        let index = self.attempts.fetch_add(1, Ordering::Relaxed);
        // Draw all three decisions up front so the consumed randomness per
        // attempt is fixed regardless of which branches fire (a scripted
        // drop included: the plan consumes none).
        let (drop_roll, dup_roll, delay_roll) = self.with_rng(job.src_node, |rng| {
            let d: f64 = rng.random();
            let u: f64 = rng.random();
            let y: f64 = rng.random();
            (d, u, y)
        });

        // Duplicate: the wire delivers an extra ghost copy alongside the
        // original. The ghost shares the original's PSN, so at most one of
        // the two writes memory; the ghost never completes at the sender.
        let wire = &net.telemetry().wire;
        if !job.ghost && dup_roll < self.cfg.dup_p {
            wire.duplicates_injected.inc();
            let mut ghost = job.clone();
            ghost.ghost = true;
            self.inner.submit(net.clone(), ghost);
        }

        let scripted = self.plan.as_ref().is_some_and(|plan| plan.drops(index));
        if scripted || drop_roll < self.cfg.drop_p {
            wire.dropped.inc();
            if job.ghost {
                // A lost duplicate is simply gone. It is not retried, so
                // the drop ledger attributes it as "exhausted with zero
                // retries" rather than leaving it unaccounted.
                wire.exhausted.inc();
                return;
            }
            let profile = sender_retry_profile(&net, &job);
            if tries >= profile.map_or(0, |p| p.retry_cnt) {
                // Retries exhausted: only now does the failure surface.
                wire.exhausted.inc();
                complete_send(&net, &job, WcStatus::RetryExceeded);
                return;
            }
            wire.retransmits.inc();
            // Sender-side timeout retransmission: the drop is noticed one
            // ack-timeout after the post, doubling per attempt (exponential
            // backoff). A wall-clock wire retries at once.
            let backoff = match &self.sched {
                Some(_) => profile.map_or(4_096, |p| p.backoff_ns(tries)),
                None => 0,
            };
            let flows = &net.telemetry().flows;
            flows.event(job.flow, FlowStage::Retransmit, job.src_qp, 0, backoff);
            let Some(sched) = &self.sched else {
                return self.attempt(net, job, tries + 1);
            };
            let me = self.me.clone();
            // The timeout fires on the sender's NIC: source-node affinity
            // for sharded executors.
            let at = sched.now() + SimDuration::from_nanos(backoff);
            sched.at_node(job.src_node, at, move || {
                if let Some(me) = me.upgrade() {
                    me.attempt(net, job, tries + 1);
                }
            });
            return;
        }

        if delay_roll < self.cfg.delay_p && self.cfg.max_delay_ns > 0 {
            wire.delayed.inc();
            let extra = self.with_rng(job.src_node, |rng| {
                rng.random_range(0..self.cfg.max_delay_ns)
            });
            job.opts.extra_wire_latency += SimDuration::from_nanos(extra);
        }
        self.inner.submit(net, job);
    }
}

impl Fabric for LossyFabric {
    fn submit(&self, net: Arc<NetworkState>, job: TransferJob) {
        self.attempt(net, job, 0);
    }

    fn max_wr_bytes(&self) -> u64 {
        self.inner.max_wr_bytes()
    }

    fn progress(&self) -> bool {
        self.inner.progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric_instant::InstantFabric;
    use crate::network::{connect_pair, Network};
    use crate::qp::QpCaps;
    use crate::types::{Opcode, QpState, RecvWr, SendWr, Sge};

    struct Pair {
        net: Network,
        lossy: Arc<LossyFabric>,
    }

    impl Pair {
        /// The wire ledger: what became of each attempt.
        fn wire(&self) -> partix_telemetry::WireSnapshot {
            self.net.state().telemetry_snapshot().wire
        }
    }

    /// Two connected nodes over an instant fabric wrapped by `cfg`.
    fn setup(cfg: LossyConfig, caps: QpCaps) -> (Pair, TestEndpoints) {
        setup_on(LossyFabric::new(InstantFabric::new(), cfg), caps)
    }

    /// Two connected nodes over `lossy`.
    fn setup_on(lossy: Arc<LossyFabric>, caps: QpCaps) -> (Pair, TestEndpoints) {
        let net = Network::new(2, lossy.clone());
        let a = net.open(0).unwrap();
        let b = net.open(1).unwrap();
        let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
        let (cqa, cqb) = (a.create_cq(), b.create_cq());
        let qa = a.create_qp(pda, cqa.clone(), a.create_cq(), caps).unwrap();
        let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), caps).unwrap();
        connect_pair(&qa, &qb).unwrap();
        let src = a.reg_mr(pda, 64).unwrap();
        let dst = b.reg_mr(pdb, 64).unwrap();
        src.fill(0, 64, 0x5a).unwrap();
        (
            Pair { net, lossy },
            TestEndpoints {
                qa,
                qb,
                cqa,
                cqb,
                src,
                dst,
            },
        )
    }

    struct TestEndpoints {
        qa: Arc<crate::qp::QueuePair>,
        qb: Arc<crate::qp::QueuePair>,
        cqa: Arc<crate::cq::CompletionQueue>,
        cqb: Arc<crate::cq::CompletionQueue>,
        src: crate::memory::MemoryRegion,
        dst: crate::memory::MemoryRegion,
    }

    impl TestEndpoints {
        fn write_imm(&self, wr_id: u64) {
            self.qa
                .post_send(SendWr {
                    wr_id,
                    opcode: Opcode::RdmaWriteWithImm,
                    sg_list: vec![Sge {
                        addr: self.src.addr(),
                        length: 64,
                        lkey: self.src.lkey(),
                    }],
                    remote_addr: self.dst.addr(),
                    rkey: self.dst.rkey(),
                    imm: Some(0),
                    inline_data: false,
                    flow: 0,
                })
                .unwrap();
        }
    }

    #[test]
    fn duplicates_deliver_exactly_once() {
        // Every transfer is duplicated; the PSN check must collapse the two
        // wire copies to one delivery and one receive completion.
        let cfg = LossyConfig {
            dup_p: 1.0,
            ..LossyConfig::default()
        };
        let (pair, ep) = setup(cfg, QpCaps::default());
        for i in 0..8 {
            ep.qb.post_recv(RecvWr::bare(i)).unwrap();
        }
        for i in 0..8 {
            ep.write_imm(i);
            let wc = ep.cqa.poll_one().unwrap();
            assert_eq!(wc.status, WcStatus::Success);
        }
        assert_eq!(pair.wire().duplicates_injected, 8);
        // Exactly one receive CQE and one recv-WR consumed per logical send.
        assert_eq!(ep.cqb.total_pushed(), 8);
        assert_eq!(ep.qb.recv_queue_depth(), 0);
        assert_eq!(ep.dst.read_vec(0, 64).unwrap(), vec![0x5a; 64]);
        assert_eq!(ep.qa.outstanding(), 0);
        drop(pair.net);
    }

    #[test]
    fn drops_are_retransmitted_transparently() {
        // Half the wire attempts drop; with retry_cnt = 7 every WR still
        // completes successfully and the receiver sees each payload once.
        let cfg = LossyConfig::drops(0.5, 7);
        let (pair, ep) = setup(cfg, QpCaps::default());
        for i in 0..16 {
            ep.qb.post_recv(RecvWr::bare(i)).unwrap();
        }
        for i in 0..16 {
            ep.write_imm(i);
            let wc = ep.cqa.poll_one().unwrap();
            assert_eq!(wc.status, WcStatus::Success, "wr {i}");
        }
        let wire = pair.wire();
        assert!(wire.dropped > 0, "loss model never fired");
        assert_eq!((wire.retransmits, wire.exhausted), (wire.dropped, 0));
        assert_eq!(ep.cqb.total_pushed(), 16);
        assert_eq!(ep.qa.state(), QpState::ReadyToSend);
    }

    #[test]
    fn zero_retries_surface_first_loss() {
        // retry_cnt = 0 restores the legacy no-reliability behaviour: the
        // first drop turns straight into RetryExceeded and an Error QP.
        let cfg = LossyConfig::drops(1.0, 3);
        let caps = QpCaps {
            retry_cnt: 0,
            ..QpCaps::default()
        };
        let (pair, ep) = setup(cfg, caps);
        ep.qb.post_recv(RecvWr::bare(0)).unwrap();
        ep.write_imm(0);
        let wc = ep.cqa.poll_one().unwrap();
        assert_eq!(wc.status, WcStatus::RetryExceeded);
        assert_eq!(ep.qa.state(), QpState::Error);
        let wire = pair.wire();
        assert_eq!((wire.exhausted, wire.retransmits), (1, 0));
        assert_eq!(ep.cqb.total_pushed(), 0);
        assert_eq!(ep.dst.read_vec(0, 1).unwrap(), vec![0]);
    }

    #[test]
    fn scripted_drop_with_no_retries_is_an_injected_fault() {
        // The plan names the second attempt; with retry_cnt = 0 that drop
        // fails its WR at once and the wire eats it whole.
        let caps = QpCaps {
            retry_cnt: 0,
            ..QpCaps::default()
        };
        let lossy = LossyFabric::scripted(InstantFabric::new(), FaultPlan::EveryNth(2));
        let (pair, ep) = setup_on(lossy, caps);
        ep.qb.post_recv(RecvWr::bare(0)).unwrap();
        ep.qb.post_recv(RecvWr::bare(1)).unwrap();

        ep.write_imm(1);
        assert_eq!(ep.cqa.poll_one().unwrap().status, WcStatus::Success);
        assert_eq!(ep.dst.read_vec(0, 1).unwrap(), vec![0x5a]);

        ep.dst.fill(0, 64, 0).unwrap();
        ep.write_imm(2);
        assert_eq!(ep.cqa.poll_one().unwrap().status, WcStatus::RetryExceeded);
        assert_eq!(ep.dst.read_vec(0, 1).unwrap(), vec![0], "nothing landed");
        assert_eq!(ep.qa.state(), QpState::Error);
        let wire = pair.wire();
        assert_eq!((pair.lossy.attempts(), wire.dropped), (2, 1));
        assert_eq!((wire.exhausted, wire.retransmits), (1, 0));
        assert_eq!(ep.cqb.total_pushed(), 1, "no receive CQE for the drop");
    }

    #[test]
    fn plan_counts_every_wire_attempt() {
        let plan = FaultPlan::Indices(vec![3, 5]);
        let hits: Vec<u64> = (0..8).filter(|&i| plan.drops(i)).collect();
        assert_eq!(hits, [3, 5]);
        assert!((0..8).all(|i| FaultPlan::EveryNth(1).drops(i)));
        assert!((0..8).all(|i| !FaultPlan::EveryNth(0).drops(i)));

        // With retries left a scripted drop is retransmitted, and the
        // retransmission is the next index: attempts 0 and 1 are WR 0.
        let lossy = LossyFabric::scripted(InstantFabric::new(), FaultPlan::Indices(vec![0, 2]));
        let (pair, ep) = setup_on(lossy, QpCaps::default());
        for i in 0..2 {
            ep.qb.post_recv(RecvWr::bare(i)).unwrap();
            ep.write_imm(i);
            assert_eq!(ep.cqa.poll_one().unwrap().status, WcStatus::Success);
        }
        let wire = pair.wire();
        assert_eq!((pair.lossy.attempts(), wire.dropped), (4, 2));
        assert_eq!((wire.retransmits, wire.exhausted), (2, 0));
        assert_eq!(ep.cqb.total_pushed(), 2);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        // The fault sequence is a pure function of (seed, config, workload).
        let run = |seed: u64| {
            let cfg = LossyConfig::chaos(0.3, seed);
            let (pair, ep) = setup(cfg, QpCaps::default());
            for i in 0..32 {
                ep.qb.post_recv(RecvWr::bare(i)).unwrap();
            }
            for i in 0..32 {
                ep.write_imm(i);
                assert_eq!(ep.cqa.poll_one().unwrap().status, WcStatus::Success);
            }
            (pair.lossy.attempts(), pair.wire())
        };
        let first = run(11);
        assert_eq!(first, run(11));
        assert_ne!(first, run(12));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn rejects_out_of_range_probability() {
        let _ = LossyFabric::new(
            InstantFabric::new(),
            LossyConfig {
                drop_p: 1.5,
                ..LossyConfig::default()
            },
        );
    }
}
