//! The full verbs stack on the sharded PDES engine.
//!
//! A ring of `ranks` MPI processes — rank `r` runs a partitioned send to
//! `(r + 1) % ranks` and a partitioned receive from its predecessor — driven
//! for `iters` synchronised iterations on [`World::sim_sharded`]. One PDES
//! shard hosts each rank's slice of QP/CQ/aggregation state, so the whole
//! paper pipeline (aggregation runtime, verbs fabric, optional lossy wire)
//! executes in parallel at `--jobs N` while staying **byte-identical** to
//! the sequential reference executor.
//!
//! Determinism rests on three rules the driver follows strictly:
//!
//! 1. **Own-shard state only.** Every callback touches only its own rank's
//!    requests; cross-rank coordination travels as events through the
//!    engine's mailbox lanes, never as direct shared-state mutation.
//! 2. **Coordinator pattern.** Round chaining runs on rank 0: each side's
//!    completion sends a *note* event to node 0 one lookahead ahead (the
//!    minimum cross-shard delay). The note handler only counts — a
//!    commutative operation — so the note arrival order cannot influence
//!    the schedule. The next iteration starts when the count drains, at a
//!    virtual time that is a pure `max` over completion times.
//! 3. **Frozen source buffers.** Send buffers are filled once at set-up and
//!    never mutated mid-run: a destination shard may copy from the source
//!    MR while the source shard's wall clock has already moved on.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use partix_core::{
    PartixConfig, PrecvRequest, PsendRequest, Scheduler, SimDuration, SimTime, World,
};

/// Which executor drives the run. Both use the sharded scheduler's event
/// semantics, so their digests are comparable byte-for-byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Executor {
    /// Sequential reference executor: the global `(time, shard, seq)` merge
    /// — the oracle parallel runs are compared against.
    Reference,
    /// Barrier-epoch parallel engine with this many worker threads.
    Sharded(usize),
}

impl Executor {
    /// Short display name (`"ref"` / `"jobs=N"`).
    pub fn label(&self) -> String {
        match self {
            Executor::Reference => "ref".into(),
            Executor::Sharded(j) => format!("jobs={j}"),
        }
    }
}

/// Configuration of one full-stack ring run.
#[derive(Clone)]
pub struct FullStackConfig {
    /// Runtime configuration — aggregator, fabric, delta, and the optional
    /// lossy wire (`partix.loss`) for chaos runs.
    pub partix: PartixConfig,
    /// Ring size (= PDES shards).
    pub ranks: u32,
    /// User partitions per channel.
    pub partitions: u32,
    /// Bytes per partition.
    pub part_bytes: usize,
    /// Synchronised ring iterations.
    pub iters: usize,
    /// Per-partition `pready` stagger window per iteration (deterministic
    /// per-(rank, partition, iteration) offsets within `[0, spread]`).
    pub spread: SimDuration,
    /// Root seed for the stagger pattern.
    pub seed: u64,
}

impl FullStackConfig {
    /// A figure-representative clean-wire configuration.
    pub fn figure(ranks: u32, seed: u64) -> Self {
        let mut partix = PartixConfig::default();
        partix.fabric.copy_data = false;
        FullStackConfig {
            partix,
            ranks,
            partitions: 16,
            part_bytes: 4 << 10,
            iters: 6,
            spread: SimDuration::from_micros(40),
            seed,
        }
    }

    /// A chaos configuration: same ring with `drop_p` wire loss.
    pub fn chaos(ranks: u32, drop_p: f64, seed: u64) -> Self {
        let mut cfg = Self::figure(ranks, seed);
        cfg.partix.loss = Some(partix_core::LossyConfig::drops(drop_p, seed));
        cfg
    }
}

/// Outcome of one full-stack run — everything the determinism suites and the
/// bench compare across executors.
pub struct FullStackReport {
    /// FNV-1a digest over every per-rank completion record in canonical
    /// `(rank, registration order)` order. Byte-identical digests mean the
    /// executors produced the same completions at the same virtual times.
    pub digest: u64,
    /// Canonical telemetry ledger digest
    /// ([`partix_core::telemetry::Snapshot::ledger_digest`]).
    pub ledger_digest: u64,
    /// Events the scheduler executed.
    pub events: u64,
    /// Virtual makespan of the run.
    pub makespan: SimTime,
    /// All 14 conservation laws clean on the final snapshot.
    pub invariants_clean: bool,
    /// Wire drops the lossy fabric injected (0 on a clean wire).
    pub drops: u64,
    /// Wire retransmissions performed.
    pub retransmits: u64,
    /// Ghost duplicates injected.
    pub duplicates: u64,
}

/// One completion record: `(iteration, rank, side, virtual ns)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Record {
    iter: u64,
    side: u8, // 0 = send complete, 1 = recv complete
    at_ns: u64,
}

struct Link {
    send: PsendRequest,
    recv: PrecvRequest,
}

struct Coord {
    sched: Scheduler,
    cfg: FullStackConfig,
    lookahead: SimDuration,
    links: Vec<Link>,
    /// Per-rank completion logs; each touched only by its own shard.
    samples: Vec<Mutex<Vec<Record>>>,
    /// Readiness notes outstanding before iteration 0 (2 per rank).
    ready_pending: AtomicU32,
    /// Completion notes outstanding in the current iteration.
    side_pending: AtomicU32,
    iter: AtomicUsize,
    iters_done: AtomicU64,
}

impl Coord {
    /// Handle one readiness note on node 0.
    fn ready_note(self: &Arc<Self>) {
        if self.ready_pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.start_iter();
        }
    }

    /// Start the next iteration: per-rank start events one lookahead out.
    fn start_iter(self: &Arc<Self>) {
        let iter = self.iter.load(Ordering::Acquire) as u64;
        let t0 = self.sched.now() + self.lookahead;
        self.side_pending
            .store(2 * self.cfg.ranks, Ordering::Release);
        for r in 0..self.cfg.ranks {
            let me = self.clone();
            self.sched
                .at_node(r, t0, move || me.rank_start(r, iter, t0));
        }
    }

    /// Per-rank iteration start, executing on rank `r`'s shard.
    fn rank_start(self: &Arc<Self>, r: u32, iter: u64, t0: SimTime) {
        let link = &self.links[r as usize];
        link.recv.start().expect("recv start");
        link.send.start().expect("send start");

        let me = self.clone();
        link.send.on_complete(move || me.side_done(r, 0, iter));
        let me = self.clone();
        link.recv.on_complete(move || me.side_done(r, 1, iter));

        // Deterministic per-(rank, partition, iteration) arrival stagger —
        // the spread of user-thread arrival times the figures model.
        let spread = self.cfg.spread.as_nanos();
        let stagger = partix_sim::SeedStream::new(self.cfg.seed, "fullstack-pready");
        for p in 0..self.cfg.partitions {
            let mix = stagger.at((iter << 40) ^ ((r as u64) << 20) ^ p as u64);
            let off = if spread == 0 { 0 } else { mix % (spread + 1) };
            let send = link.send.clone();
            self.sched
                .at_node(r, t0 + SimDuration::from_nanos(off), move || {
                    send.pready(p).expect("pready");
                });
        }
    }

    /// One side of rank `r` finished `iter`; runs on rank `r`'s shard.
    fn side_done(self: &Arc<Self>, r: u32, side: u8, iter: u64) {
        let now = self.sched.now();
        self.samples[r as usize].lock().push(Record {
            iter,
            side,
            at_ns: now.as_nanos(),
        });
        let me = self.clone();
        self.sched
            .at_node(0, now + self.lookahead, move || me.side_note());
    }

    /// Handle one completion note on node 0.
    fn side_note(self: &Arc<Self>) {
        if self.side_pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        self.iters_done.fetch_add(1, Ordering::AcqRel);
        let next = self.iter.fetch_add(1, Ordering::AcqRel) + 1;
        if next < self.cfg.iters {
            self.start_iter();
        }
    }
}

/// FNV-1a over the canonical record stream.
fn digest_records(samples: &[Mutex<Vec<Record>>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for (rank, cell) in samples.iter().enumerate() {
        let log = cell.lock();
        put(rank as u64);
        put(log.len() as u64);
        for rec in log.iter() {
            put(rec.iter);
            put(rec.side as u64);
            put(rec.at_ns);
        }
    }
    h
}

/// Run the full-stack ring on `executor`, returning the report alongside the
/// world and scheduler so callers can inspect post-run state (telemetry
/// snapshot, the flow log when tracing, node-affinity census).
pub fn run_fullstack_observed(
    cfg: &FullStackConfig,
    executor: Executor,
    flow_log: Option<Arc<partix_core::telemetry::FlowLog>>,
) -> (FullStackReport, World, Scheduler) {
    run_fullstack_instrumented(cfg, executor, flow_log, None)
}

/// [`run_fullstack_observed`] with optional time-series sampling: when
/// `sampling` is `Some((interval, capacity))` the world captures a delta
/// frame every `interval` of virtual time (last `capacity` retained),
/// harvestable after the run via [`World::sampler`]. Frames are driven at
/// epoch barriers, so the sequence is byte-identical across executors.
pub fn run_fullstack_instrumented(
    cfg: &FullStackConfig,
    executor: Executor,
    flow_log: Option<Arc<partix_core::telemetry::FlowLog>>,
    sampling: Option<(SimDuration, usize)>,
) -> (FullStackReport, World, Scheduler) {
    let (world, sched) = match executor {
        Executor::Reference => World::sim_sharded_reference(cfg.ranks, cfg.partix.clone()),
        Executor::Sharded(jobs) => World::sim_sharded(cfg.ranks, cfg.partix.clone(), jobs),
    };
    if let Some(log) = flow_log {
        world.enable_flow_tracing(log);
    }
    if let Some((interval, capacity)) = sampling {
        world.enable_sampling(interval, capacity);
    }
    let lookahead = sched.sharded_lookahead().expect("sharded scheduler");

    let total = cfg.partitions as usize * cfg.part_bytes;
    let mut links = Vec::with_capacity(cfg.ranks as usize);
    for r in 0..cfg.ranks {
        let proc = world.proc(r);
        // Timing-only fabrics pair with storage-free buffers; data-copying
        // fabrics get real storage, filled once and then frozen (rule 3).
        let (sbuf, rbuf) = if cfg.partix.fabric.copy_data {
            let sbuf = proc.alloc_buffer(total).expect("send buffer");
            let pattern: Vec<u8> = (0..total).map(|i| (i as u8) ^ (r as u8)).collect();
            sbuf.write(0, &pattern).expect("fill send buffer");
            (sbuf, proc.alloc_buffer(total).expect("recv buffer"))
        } else {
            (
                proc.alloc_buffer_virtual(total).expect("send buffer"),
                proc.alloc_buffer_virtual(total).expect("recv buffer"),
            )
        };
        let dst = (r + 1) % cfg.ranks;
        let src = (r + cfg.ranks - 1) % cfg.ranks;
        let send = proc
            .psend_init(&sbuf, cfg.partitions, cfg.part_bytes, dst, 7)
            .expect("psend_init");
        let recv = proc
            .precv_init(&rbuf, cfg.partitions, cfg.part_bytes, src, 7)
            .expect("precv_init");
        links.push(Link { send, recv });
    }

    let coord = Arc::new(Coord {
        sched: sched.clone(),
        cfg: cfg.clone(),
        lookahead,
        samples: (0..cfg.ranks).map(|_| Mutex::new(Vec::new())).collect(),
        ready_pending: AtomicU32::new(2 * cfg.ranks),
        side_pending: AtomicU32::new(0),
        iter: AtomicUsize::new(0),
        iters_done: AtomicU64::new(0),
        links,
    });

    // Readiness notes: each end reports to the coordinator from its own
    // shard once its channel bring-up fires.
    for link in &coord.links {
        for as_send in [true, false] {
            let me = coord.clone();
            let note = move || {
                let sched = me.sched.clone();
                let me2 = me.clone();
                sched.at_node(0, sched.now() + me.lookahead, move || me2.ready_note());
            };
            if as_send {
                link.send.on_ready(note);
            } else {
                link.recv.on_ready(note);
            }
        }
    }

    let events = sched.run();
    assert_eq!(
        coord.iters_done.load(Ordering::Acquire),
        cfg.iters as u64,
        "full-stack run did not complete all iterations ({})",
        executor.label()
    );

    let snapshot = world.telemetry_snapshot();
    let report = FullStackReport {
        digest: digest_records(&coord.samples),
        ledger_digest: snapshot.ledger_digest(),
        events,
        makespan: sched.now(),
        invariants_clean: world.check_invariants().is_clean(),
        drops: snapshot.wire.dropped,
        retransmits: snapshot.wire.retransmits,
        duplicates: snapshot.wire.duplicates_injected,
    };
    (report, world, sched)
}

/// [`run_fullstack_observed`] keeping only the report.
pub fn run_fullstack(cfg: &FullStackConfig, executor: Executor) -> FullStackReport {
    run_fullstack_observed(cfg, executor, None).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ring_completes_on_reference() {
        let cfg = FullStackConfig::figure(4, 11);
        let r = run_fullstack(&cfg, Executor::Reference);
        assert!(r.events > 0);
        assert!(r.makespan > SimTime(0));
        assert!(r.invariants_clean);
        assert_eq!(r.drops, 0);
    }

    #[test]
    fn sharded_matches_reference_clean_wire() {
        let cfg = FullStackConfig::figure(4, 23);
        let a = run_fullstack(&cfg, Executor::Reference);
        let b = run_fullstack(&cfg, Executor::Sharded(2));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.ledger_digest, b.ledger_digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn sampled_frames_are_identical_across_executors() {
        use partix_core::telemetry::frames_json;
        let cfg = FullStackConfig::figure(4, 23);
        let sampling = Some((SimDuration::from_micros(100), 512));
        let frames_for = |exec: Executor| {
            let (_, world, _) = run_fullstack_instrumented(&cfg, exec, None, sampling);
            frames_json(&world.sampler().expect("sampling enabled").frames())
        };
        let want = frames_for(Executor::Reference);
        assert!(want.contains("\"seq\""), "reference run captured no frames");
        for jobs in [1, 4] {
            assert_eq!(
                frames_for(Executor::Sharded(jobs)),
                want,
                "jobs={jobs} frame stream diverged from reference"
            );
        }
    }

    #[test]
    fn sharded_matches_reference_chaos_wire() {
        let cfg = FullStackConfig::chaos(4, 0.10, 31);
        let a = run_fullstack(&cfg, Executor::Reference);
        let b = run_fullstack(&cfg, Executor::Sharded(2));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.ledger_digest, b.ledger_digest);
        assert!(a.drops > 0, "chaos run should inject drops");
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.retransmits, b.retransmits);
        assert!(a.invariants_clean && b.invariants_clean);
    }
}
