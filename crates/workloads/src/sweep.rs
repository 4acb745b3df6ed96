//! The Sweep3D wavefront communication pattern (paper §V-D, Fig. 14), and
//! the grid driver it shares with the halo exchange ([`crate::halo`]).
//!
//! Ranks form an R×C grid; a wavefront sweeps from the north-west corner to
//! the south-east: each rank waits for its west and north inputs, computes
//! (T threads, each owning one partition of every outgoing message, with
//! single-thread-delay noise), and commits partitions to its east and south
//! neighbours. The paper ran 16 threads × 64 nodes = 1024 cores; speedups
//! are reported for the *communication* portion only (total minus the
//! wavefront's compute critical path).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use partix_core::{PartixConfig, PrecvRequest, PsendRequest, SimDuration, SimTime, World};

use crate::noise::{NoiseModel, ThreadTiming};
use crate::stats;

/// Configuration of a grid application: the Sweep3D wavefront
/// ([`run_sweep`]) or the halo exchange ([`crate::halo::run_halo`]).
#[derive(Clone)]
pub struct SweepConfig {
    /// Runtime configuration.
    pub partix: PartixConfig,
    /// Grid rows (periodic for the halo).
    pub rows: u32,
    /// Grid columns (periodic for the halo).
    pub cols: u32,
    /// Threads per rank (= partitions per message).
    pub threads: u32,
    /// Bytes per partition (message size = `threads * part_bytes`).
    pub part_bytes: usize,
    /// Compute per iteration (sweep: per wavefront step) per thread.
    pub compute: SimDuration,
    /// Single-thread-delay noise fraction.
    pub noise_frac: f64,
    /// Warm-up iterations.
    pub warmup: usize,
    /// Measured iterations.
    pub iters: usize,
    /// Root seed.
    pub seed: u64,
}

impl SweepConfig {
    /// The paper's 1024-core setup: 8×8 ranks × 16 threads.
    pub fn paper_1024(partix: PartixConfig, part_bytes: usize) -> Self {
        SweepConfig {
            partix,
            rows: 8,
            cols: 8,
            threads: 16,
            part_bytes,
            compute: SimDuration::from_millis(1),
            noise_frac: 0.01,
            warmup: 3,
            iters: 10,
            seed: 0x53EE9,
        }
    }

    /// The halo exchange's setup: a 4×4 grid with 8 threads per rank, 1 ms
    /// compute, 4 % noise.
    pub fn small(partix: PartixConfig, part_bytes: usize) -> Self {
        SweepConfig {
            partix,
            rows: 4,
            cols: 4,
            threads: 8,
            part_bytes,
            compute: SimDuration::from_millis(1),
            noise_frac: 0.04,
            warmup: 2,
            iters: 5,
            seed: 0xA10,
        }
    }

    /// Total message bytes per edge.
    pub fn message_bytes(&self) -> usize {
        self.threads as usize * self.part_bytes
    }

    /// Wavefront diagonals from corner to corner.
    pub fn waves(&self) -> u32 {
        self.rows + self.cols - 1
    }
}

/// Result of a grid application run.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Mean iteration time (ns).
    pub mean_total_ns: f64,
    /// Mean communication time: total minus the compute critical path, as
    /// the paper reports.
    pub mean_comm_ns: f64,
    /// Events the scheduler executed, bring-up and warm-up included.
    pub events_executed: u64,
    /// Virtual time at which the last event ran.
    pub end_time: SimTime,
}

/// What a grid application gives [`run_grid`].
pub(crate) struct Pattern {
    /// `(src, dst, tag)` channels, in creation order.
    pub edges: Vec<(u32, u32, u32)>,
    /// Whether a rank computes only once every input has arrived (a
    /// wavefront); otherwise every rank computes as an iteration starts.
    pub gated: bool,
    /// Thread arrival model of one rank's compute.
    pub timing: ThreadTiming,
    /// Compute on the measured critical path (ns): the iteration time minus
    /// this is the communication time.
    pub compute_path_ns: f64,
}

struct Rank {
    id: u32,
    inputs: Vec<PrecvRequest>,
    outputs: Vec<PsendRequest>,
    /// Inputs still to arrive this iteration.
    deps: AtomicU32,
}

/// The iteration driver of every grid application.
struct GridDriver {
    world: World,
    cfg: SweepConfig,
    pattern: Pattern,
    ranks: Vec<Arc<Rank>>,
    requests_per_iter: u32,
    iter_idx: AtomicUsize,
    remaining: AtomicU32,
    iter_start: Mutex<SimTime>,
    totals: Mutex<Vec<f64>>,
}

impl GridDriver {
    fn start_iteration(self: &Arc<Self>) {
        *self.iter_start.lock() = self.world.now();
        self.remaining
            .store(self.requests_per_iter, Ordering::Release);
        // Start every receive before every send so data can never outrun a
        // receive queue.
        for rank in &self.ranks {
            rank.deps.store(rank.inputs.len() as u32, Ordering::Release);
            for r in &rank.inputs {
                r.start().expect("recv start");
            }
        }
        for rank in &self.ranks {
            for s in &rank.outputs {
                s.start().expect("send start");
            }
        }
        // Count completions; under a wavefront the last input releases the
        // rank's compute.
        for rank in &self.ranks {
            for r in &rank.inputs {
                let (me, rank) = (self.clone(), rank.clone());
                r.on_complete(move || {
                    if me.pattern.gated && rank.deps.fetch_sub(1, Ordering::AcqRel) == 1 {
                        me.begin_compute(&rank);
                    }
                    me.request_done();
                });
            }
            for s in &rank.outputs {
                let me = self.clone();
                s.on_complete(move || me.request_done());
            }
        }
        // Every rank of a halo, and the sources of a wavefront (the NW
        // corner), compute right away.
        for rank in &self.ranks {
            if !self.pattern.gated || rank.inputs.is_empty() {
                self.begin_compute(rank);
            }
        }
    }

    fn begin_compute(self: &Arc<Self>, rank: &Arc<Rank>) {
        if rank.outputs.is_empty() {
            return; // a sink's compute is off the communication path
        }
        let iter = self.iter_idx.load(Ordering::Acquire) as u64;
        let round_key = iter * self.ranks.len() as u64 + rank.id as u64;
        let arrivals = self
            .pattern
            .timing
            .arrivals(self.cfg.threads, self.cfg.seed, round_key);
        let sched = self.world.scheduler().expect("sim world");
        let t0 = self.world.now();
        for (t, a) in arrivals.into_iter().enumerate() {
            let rank = rank.clone();
            // Thread arrivals happen at the computing rank.
            sched.at_node(rank.id, t0 + a, move || {
                for out in &rank.outputs {
                    out.pready(t as u32).expect("pready");
                }
            });
        }
    }

    fn request_done(self: &Arc<Self>) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let t0 = *self.iter_start.lock();
        let total = self.world.now().saturating_since(t0).as_nanos() as f64;
        let idx = self.iter_idx.fetch_add(1, Ordering::AcqRel);
        if idx >= self.cfg.warmup {
            self.totals.lock().push(total);
        }
        if idx + 1 < self.cfg.warmup + self.cfg.iters {
            // The iteration driver lives at rank 0.
            let me = self.clone();
            let sched = self.world.scheduler().expect("sim world");
            let at = sched.now() + SimDuration::from_micros(5);
            sched.at_node(0, at, move || me.start_iteration());
        }
    }
}

/// Run a grid application: build its channels on a fresh simulated world,
/// wait until every channel is up, then drive `warmup + iters` iterations.
pub(crate) fn run_grid(cfg: &SweepConfig, pattern: Pattern) -> SweepResult {
    let ranks = cfg.rows * cfg.cols;
    let mut partix = cfg.partix.clone();
    partix.fabric.copy_data = false;
    let (world, sched) = World::sim(ranks, partix);

    let msg = cfg.message_bytes();
    let mut inputs: Vec<Vec<PrecvRequest>> = (0..ranks).map(|_| Vec::new()).collect();
    let mut outputs: Vec<Vec<PsendRequest>> = (0..ranks).map(|_| Vec::new()).collect();
    for &(src, dst, tag) in &pattern.edges {
        let (p_src, p_dst) = (world.proc(src), world.proc(dst));
        let sbuf = p_src.alloc_buffer_virtual(msg).expect("send buffer");
        let rbuf = p_dst.alloc_buffer_virtual(msg).expect("recv buffer");
        outputs[src as usize].push(
            p_src
                .psend_init(&sbuf, cfg.threads, cfg.part_bytes, dst, tag)
                .expect("psend_init"),
        );
        inputs[dst as usize].push(
            p_dst
                .precv_init(&rbuf, cfg.threads, cfg.part_bytes, src, tag)
                .expect("precv_init"),
        );
    }
    let ranks: Vec<Arc<Rank>> = (0..ranks)
        .zip(inputs.into_iter().zip(outputs))
        .map(|(id, (inputs, outputs))| {
            Arc::new(Rank {
                id,
                inputs,
                outputs,
                deps: AtomicU32::new(0),
            })
        })
        .collect();
    let requests_per_iter = ranks
        .iter()
        .map(|r| (r.inputs.len() + r.outputs.len()) as u32)
        .sum();
    let sends: u32 = ranks.iter().map(|r| r.outputs.len() as u32).sum();
    let driver = Arc::new(GridDriver {
        world,
        cfg: cfg.clone(),
        pattern,
        ranks,
        requests_per_iter,
        iter_idx: AtomicUsize::new(0),
        remaining: AtomicU32::new(0),
        iter_start: Mutex::new(SimTime::ZERO),
        totals: Mutex::new(Vec::new()),
    });

    // Readiness barrier: iterate only once every channel has finished its
    // (simulated) asynchronous bring-up.
    let pending = Arc::new(AtomicU32::new(sends));
    for rank in &driver.ranks {
        for s in &rank.outputs {
            let (d, p) = (driver.clone(), pending.clone());
            s.on_ready(move || {
                if p.fetch_sub(1, Ordering::AcqRel) == 1 {
                    d.start_iteration();
                }
            });
        }
    }
    sched.run();

    let totals = std::mem::take(&mut *driver.totals.lock());
    assert_eq!(
        totals.len(),
        cfg.iters,
        "grid run did not complete all iterations"
    );
    let mean_total_ns = stats::mean(&totals);
    SweepResult {
        mean_total_ns,
        mean_comm_ns: (mean_total_ns - driver.pattern.compute_path_ns).max(0.0),
        events_executed: sched.events_executed(),
        end_time: sched.now(),
    }
}

/// Run a sweep experiment.
pub fn run_sweep(cfg: &SweepConfig) -> SweepResult {
    let id = |r: u32, c: u32| r * cfg.cols + c;
    let mut edges = Vec::new();
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            // East edges (tag 1), then south edges (tag 2).
            if c + 1 < cfg.cols {
                edges.push((id(r, c), id(r, c + 1), 1));
            }
            if r + 1 < cfg.rows {
                edges.push((id(r, c), id(r + 1, c), 2));
            }
        }
    }
    let timing = ThreadTiming {
        compute: cfg.compute,
        noise: NoiseModel::SingleThreadDelay {
            frac: cfg.noise_frac,
        },
        jitter_per_thread_ns: 100,
        compute_jitter_frac: 3e-4,
        cores_per_node: 40,
    };
    // The sink's compute is not on the measured path (nothing depends on
    // it), so the critical compute path is one wave short.
    let compute_path_ns = (cfg.waves() - 1) as f64 * cfg.compute.as_nanos() as f64;
    run_grid(
        cfg,
        Pattern {
            edges,
            gated: true,
            timing,
            compute_path_ns,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_core::AggregatorKind;

    fn quick(kind: AggregatorKind, rows: u32, cols: u32, part_bytes: usize) -> SweepResult {
        let cfg = SweepConfig {
            partix: PartixConfig::with_aggregator(kind),
            rows,
            cols,
            threads: 4,
            part_bytes,
            compute: SimDuration::from_micros(100),
            noise_frac: 0.04,
            warmup: 1,
            iters: 3,
            seed: 11,
        };
        run_sweep(&cfg)
    }

    /// Virtual time is part of the contract: the paper's 1024-core sweep at
    /// 16 KiB messages must execute exactly these events, end at exactly
    /// this instant and report exactly this communication time under every
    /// aggregator. A refactor that adds, drops or reorders an event fails
    /// here; a deliberate model change re-records the constants (and the
    /// benchmark's pinned runs with them).
    #[test]
    fn paper_1024_virtual_time_is_pinned() {
        let pinned = [
            (
                AggregatorKind::Persistent,
                25_651u64,
                59_665_966u64,
                909_726.333333334f64,
            ),
            (AggregatorKind::TuningTable, 5_491, 56_943_879, 230_110.0),
            (AggregatorKind::PLogGp, 5_491, 56_943_879, 230_110.0),
            (AggregatorKind::TimerPLogGp, 5_939, 56_962_883, 230_110.0),
        ];
        for (kind, events, end_ns, comm_ns) in pinned {
            let mut cfg =
                SweepConfig::paper_1024(PartixConfig::with_aggregator(kind), (16 << 10) / 16);
            cfg.warmup = 1;
            cfg.iters = 3;
            let r = run_sweep(&cfg);
            assert_eq!(
                (r.events_executed, r.end_time.as_nanos(), r.mean_comm_ns),
                (events, end_ns, comm_ns),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn small_grid_completes() {
        let r = quick(AggregatorKind::PLogGp, 3, 3, 4096);
        // 4 waves (the sink's compute is off-path) of 100 us compute
        // minimum.
        assert!(r.mean_total_ns > 400_000.0, "total {}", r.mean_total_ns);
        assert!(r.mean_comm_ns > 0.0);
        assert!(r.mean_comm_ns < r.mean_total_ns);
    }

    #[test]
    fn deterministic() {
        let a = quick(AggregatorKind::TimerPLogGp, 3, 3, 8192);
        let b = quick(AggregatorKind::TimerPLogGp, 3, 3, 8192);
        assert_eq!(a.mean_total_ns, b.mean_total_ns);
    }

    #[test]
    fn single_row_grid_works() {
        // Degenerate 1xN pipeline: only east edges.
        let r = quick(AggregatorKind::Persistent, 1, 4, 2048);
        assert!(r.mean_total_ns > 0.0);
    }

    #[test]
    fn aggregation_helps_at_medium_messages_on_grid() {
        // Fig. 14's qualitative claim: at medium message sizes the PLogGP
        // aggregators beat the persistent baseline on communication time.
        let persistent = quick(AggregatorKind::Persistent, 4, 4, 64 << 10);
        let ploggp = quick(AggregatorKind::PLogGp, 4, 4, 64 << 10);
        assert!(
            ploggp.mean_comm_ns < persistent.mean_comm_ns,
            "ploggp comm {} should beat persistent {}",
            ploggp.mean_comm_ns,
            persistent.mean_comm_ns
        );
    }
}
