//! The Sweep3D wavefront communication pattern (paper §V-D, Fig. 14).
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

/// Configuration of a sweep experiment.
#[derive(Clone)]
pub struct SweepConfig {
    /// Runtime configuration.
    pub partix: PartixConfig,
    /// Grid rows.
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Threads per rank (= partitions per message).
    pub threads: u32,
    /// Bytes per partition (message size = `threads * part_bytes`).
    pub part_bytes: usize,
    /// Compute per wavefront step per thread.
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

    /// Total message bytes per edge.
    pub fn message_bytes(&self) -> usize {
        self.threads as usize * self.part_bytes
    }

    /// Wavefront diagonals from corner to corner.
    pub fn waves(&self) -> u32 {
        self.rows + self.cols - 1
    }
}

/// Result of a sweep experiment.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Mean iteration time (ns).
    pub mean_total_ns: f64,
    /// Mean communication time: total minus the compute critical path
    /// (`waves * compute`), as the paper reports.
    pub mean_comm_ns: f64,
    /// Sample standard deviation of the total (ns).
    pub std_total_ns: f64,
    /// Events the scheduler executed, bring-up and warm-up included.
    pub events_executed: u64,
    /// Virtual time at which the last event ran.
    pub end_time: SimTime,
}

struct SweepNode {
    id: u32,
    inputs: Vec<PrecvRequest>,
    outputs: Vec<PsendRequest>,
    deps: AtomicU32,
}

struct SweepDriver {
    world: World,
    cfg: SweepConfig,
    nodes: Vec<Arc<SweepNode>>,
    requests_per_iter: u32,
    iter_idx: AtomicUsize,
    remaining: AtomicU32,
    iter_start: Mutex<SimTime>,
    totals: Mutex<Vec<f64>>,
    timing: ThreadTiming,
}

impl SweepDriver {
    fn start_iteration(self: &Arc<Self>) {
        let t0 = self.world.now();
        *self.iter_start.lock() = t0;
        self.remaining
            .store(self.requests_per_iter, Ordering::Release);
        // Start every receive before every send so data can never outrun a
        // receive queue.
        for node in &self.nodes {
            node.deps.store(node.inputs.len() as u32, Ordering::Release);
            for r in &node.inputs {
                r.start().expect("recv start");
            }
        }
        for node in &self.nodes {
            for s in &node.outputs {
                s.start().expect("send start");
            }
        }
        // Wire up completion counting and dependency release.
        for node in &self.nodes {
            for r in &node.inputs {
                let me = self.clone();
                let n = node.clone();
                r.on_complete(move || {
                    if n.deps.fetch_sub(1, Ordering::AcqRel) == 1 {
                        me.begin_compute(&n);
                    }
                    me.request_done();
                });
            }
            for s in &node.outputs {
                let me = self.clone();
                s.on_complete(move || {
                    me.request_done();
                });
            }
        }
        // Sources (only the NW corner in a corner sweep) compute right away.
        for node in &self.nodes {
            if node.inputs.is_empty() {
                self.begin_compute(node);
            }
        }
    }

    fn begin_compute(self: &Arc<Self>, node: &Arc<SweepNode>) {
        if node.outputs.is_empty() {
            return; // the sink's compute is off the communication path
        }
        let iter = self.iter_idx.load(Ordering::Acquire) as u64;
        let round_key = iter * self.nodes.len() as u64 + node.id as u64;
        let arrivals = self
            .timing
            .arrivals(self.cfg.threads, self.cfg.seed, round_key);
        let sched = self.world.scheduler().expect("sim world");
        let t0 = self.world.now();
        for (t, a) in arrivals.into_iter().enumerate() {
            let node = node.clone();
            // Thread arrivals happen at the computing rank.
            sched.at_node(node.id, t0 + a, move || {
                for out in &node.outputs {
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
            // The iteration driver lives at the corner rank (0).
            let me = self.clone();
            let sched = self.world.scheduler().expect("sim world");
            let at = sched.now() + SimDuration::from_micros(5);
            sched.at_node(0, at, move || {
                me.start_iteration();
            });
        }
    }
}

/// Run a sweep experiment.
pub fn run_sweep(cfg: &SweepConfig) -> SweepResult {
    let ranks = cfg.rows * cfg.cols;
    let mut partix = cfg.partix.clone();
    partix.fabric.copy_data = false;
    let (world, sched) = World::sim(ranks, partix);

    let msg = cfg.message_bytes();
    let id_of = |r: u32, c: u32| r * cfg.cols + c;

    // Build channels: east edges (tag 1) and south edges (tag 2).
    let mut inputs: Vec<Vec<PrecvRequest>> = (0..ranks).map(|_| Vec::new()).collect();
    let mut outputs: Vec<Vec<PsendRequest>> = (0..ranks).map(|_| Vec::new()).collect();
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            let src = id_of(r, c);
            let p_src = world.proc(src);
            for (dr, dc, tag) in [(0u32, 1u32, 1u32), (1, 0, 2)] {
                let (nr, nc) = (r + dr, c + dc);
                if nr >= cfg.rows || nc >= cfg.cols {
                    continue;
                }
                let dst = id_of(nr, nc);
                let p_dst = world.proc(dst);
                let sbuf = p_src.alloc_buffer_virtual(msg).expect("send buffer");
                let rbuf = p_dst.alloc_buffer_virtual(msg).expect("recv buffer");
                let send = p_src
                    .psend_init(&sbuf, cfg.threads, cfg.part_bytes, dst, tag)
                    .expect("psend_init");
                let recv = p_dst
                    .precv_init(&rbuf, cfg.threads, cfg.part_bytes, src, tag)
                    .expect("precv_init");
                outputs[src as usize].push(send);
                inputs[dst as usize].push(recv);
            }
        }
    }

    let nodes: Vec<Arc<SweepNode>> = (0..ranks)
        .map(|id| {
            Arc::new(SweepNode {
                id,
                inputs: std::mem::take(&mut inputs[id as usize]),
                outputs: std::mem::take(&mut outputs[id as usize]),
                deps: AtomicU32::new(0),
            })
        })
        .collect();
    let requests_per_iter: u32 = nodes
        .iter()
        .map(|n| (n.inputs.len() + n.outputs.len()) as u32)
        .sum();

    let driver = Arc::new(SweepDriver {
        world: world.clone(),
        cfg: cfg.clone(),
        nodes,
        requests_per_iter,
        iter_idx: AtomicUsize::new(0),
        remaining: AtomicU32::new(0),
        iter_start: Mutex::new(SimTime::ZERO),
        totals: Mutex::new(Vec::new()),
        timing: ThreadTiming {
            compute: cfg.compute,
            noise: NoiseModel::SingleThreadDelay {
                frac: cfg.noise_frac,
            },
            jitter_per_thread_ns: 100,
            compute_jitter_frac: 3e-4,
            cores_per_node: 40,
        },
    });

    // Readiness barrier: iterate only once every channel has finished its
    // (simulated) asynchronous bring-up.
    let pending_ready = Arc::new(AtomicU32::new(0));
    let mut total_sends = 0u32;
    for node in &driver.nodes {
        total_sends += node.outputs.len() as u32;
    }
    pending_ready.store(total_sends, Ordering::Release);
    for node in driver.nodes.iter() {
        for s in &node.outputs {
            let d2 = driver.clone();
            let pr = pending_ready.clone();
            s.on_ready(move || {
                if pr.fetch_sub(1, Ordering::AcqRel) == 1 {
                    d2.start_iteration();
                }
            });
        }
    }
    sched.run();

    let totals = std::mem::take(&mut *driver.totals.lock());
    assert_eq!(
        totals.len(),
        cfg.iters,
        "sweep did not complete all iterations"
    );
    let mean_total = stats::mean(&totals);
    // The sink's compute is not on the measured path (nothing depends on
    // it), so the critical compute path is one wave short.
    let compute_path = (cfg.waves() - 1) as f64 * cfg.compute.as_nanos() as f64;
    SweepResult {
        mean_total_ns: mean_total,
        mean_comm_ns: (mean_total - compute_path).max(0.0),
        std_total_ns: stats::stddev(&totals),
        events_executed: sched.events_executed(),
        end_time: sched.now(),
    }
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
