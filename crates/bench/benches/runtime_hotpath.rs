//! Bench: runtime hot paths — event post/dispatch throughput of the
//! slab-backed scheduler, steady-state event chains, same-timestamp storms,
//! the pready fast path, full partitioned rounds, the batched verbs data
//! plane, and the cost of each opt-in observability layer.
//!
//! Writes all measurements to `BENCH_hotpath.json` (override the path with
//! the `BENCH_JSON` environment variable). Run with `-- --test` for a
//! one-iteration smoke pass, as CI does. What a work request may allocate is
//! pinned by `tests/tests/alloc_regression.rs`, not measured here.

use criterion::Criterion;
use partix_core::{AggregatorKind, PartixConfig, World};
use partix_sim::{Scheduler, SimDuration, SimTime};
use std::hint::black_box;

/// Event-queue throughput: post N events, then dispatch them all. The
/// closures capture an `Arc` and a payload word, like real runtime events
/// (completion delivery captures request state).
fn bench_event_queue(c: &mut Criterion) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const N: u64 = 100_000;
    let mut g = c.benchmark_group("event_queue");

    g.bench_function("post_dispatch_100k_slab", |b| {
        b.iter(|| {
            let sim = Scheduler::with_capacity(1024);
            let acc = Arc::new(AtomicU64::new(0));
            for i in 0..N {
                let acc = acc.clone();
                sim.at(SimTime(i), move || {
                    acc.fetch_add(i, Ordering::Relaxed);
                });
            }
            sim.run();
            black_box(acc.load(Ordering::Relaxed))
        })
    });

    // Post-only: isolates insertion (slab slot + heap push) from dispatch.
    g.bench_function("post_100k_slab", |b| {
        b.iter(|| {
            let sim = Scheduler::with_capacity(1024);
            let acc = Arc::new(AtomicU64::new(0));
            for i in 0..N {
                let acc = acc.clone();
                sim.at(SimTime(i), move || {
                    acc.fetch_add(i, Ordering::Relaxed);
                });
            }
            black_box(sim.events_pending())
        })
    });

    // Steady state: a single chain where each event schedules the next, so
    // the queue depth stays at 1 and every event reuses the same slab slot
    // — the allocation-free regime the slab design targets.
    g.bench_function("steady_chain_100k_slab", |b| {
        b.iter(|| {
            let sim = Scheduler::new();
            fn link(sim: &Scheduler, remaining: u64) {
                if remaining == 0 {
                    return;
                }
                let next = sim.clone();
                sim.after(SimDuration(1), move || link(&next, remaining - 1));
            }
            link(&sim, N);
            black_box(sim.run())
        })
    });

    // Same-timestamp storm: everything fires at once, exercising the
    // batched same-time drain (one lock per MAX_BATCH events, not per
    // event).
    g.bench_function("same_time_storm_10k", |b| {
        b.iter(|| {
            let sim = Scheduler::new();
            for _ in 0..10_000u64 {
                sim.at(SimTime(7), || {});
            }
            black_box(sim.run())
        })
    });

    g.finish();
}

/// pready fast path: one virtual-time round dominated by per-partition
/// pready bookkeeping (128 partitions of 256 B under an aggregating plan,
/// so most preadys only mark arrival and return).
fn bench_pready_fastpath(c: &mut Criterion) {
    let (world, sim) = World::sim(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let parts = 128u32;
    let pb = 256usize;
    let sbuf = p0.alloc_buffer(parts as usize * pb).unwrap();
    let rbuf = p1.alloc_buffer(parts as usize * pb).unwrap();
    let send = p0.psend_init(&sbuf, parts, pb, 1, 0).unwrap();
    let recv = p1.precv_init(&rbuf, parts, pb, 0, 0).unwrap();
    // Drain the channel-establishment events before measuring rounds.
    sim.run();
    c.bench_function("pready_fastpath_128x256B", |b| {
        b.iter(|| {
            recv.start().unwrap();
            send.start().unwrap();
            for i in 0..parts {
                send.pready(i).unwrap();
            }
            sim.run();
            send.wait().unwrap();
            recv.wait().unwrap();
        })
    });
}

fn bench_round(c: &mut Criterion, kind: AggregatorKind) {
    let world = World::instant(2, PartixConfig::with_aggregator(kind));
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let parts = 32u32;
    let pb = 4096usize;
    let sbuf = p0.alloc_buffer(parts as usize * pb).unwrap();
    let rbuf = p1.alloc_buffer(parts as usize * pb).unwrap();
    let send = p0.psend_init(&sbuf, parts, pb, 1, 0).unwrap();
    let recv = p1.precv_init(&rbuf, parts, pb, 0, 0).unwrap();
    c.bench_function(format!("round_32x4k_{kind:?}"), |b| {
        b.iter(|| {
            recv.start().unwrap();
            send.start().unwrap();
            for i in 0..parts {
                send.pready(i).unwrap();
            }
            send.wait().unwrap();
            recv.wait().unwrap();
        })
    });
}

/// Which parts of the opt-in observability stack a telemetry bench round
/// attaches.
#[derive(Clone, Copy, PartialEq)]
enum Traced {
    /// Nothing attached — the baseline both gates compare against.
    Off,
    /// Resource span tracing (`World::enable_tracing`).
    Spans,
    /// Causal flow tracing: flow-ID minting, per-stage events, and
    /// residency histograms (`World::enable_flow_tracing`).
    Flows,
    /// Windowed time-series sampling: the scheduler ticks a `Sampler`
    /// at batch boundaries and it captures delta frames of the ledger
    /// (`World::enable_sampling`).
    Sampled,
}

/// Telemetry overhead: the same simulated round with and without the
/// opt-in observability layers attached. Counters are always on (they are
/// the product), so each traced round isolates the cost of one `--trace`
/// ingredient: `Spans` pays the OnceLock load per resource reservation
/// plus span recording; `Flows` pays flow-ID minting, per-stage event
/// stamping, histogram records, and the per-round drain; `Sampled` pays
/// the scheduler's batch-boundary sampler tick plus a ledger snapshot
/// whenever sim time crosses a window boundary. The acceptance bounds
/// (each within 5% of untraced) are asserted in `main`.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use partix_core::telemetry::FlowLog;
    use partix_core::SpanLog;

    fn sim_round_world(traced: Traced) -> impl FnMut() {
        let (world, sim) = World::sim(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
        let log = (traced == Traced::Spans).then(SpanLog::new);
        if let Some(log) = &log {
            world.enable_tracing(log.clone());
        }
        let flow_log = (traced == Traced::Flows).then(FlowLog::new);
        if let Some(flow_log) = &flow_log {
            world.enable_flow_tracing(flow_log.clone());
        }
        let sampler = (traced == Traced::Sampled)
            .then(|| world.enable_sampling(SimDuration::from_micros(100), 512));
        let p0 = world.proc(0);
        let p1 = world.proc(1);
        let parts = 64u32;
        let pb = 1024usize;
        let sbuf = p0.alloc_buffer(parts as usize * pb).unwrap();
        let rbuf = p1.alloc_buffer(parts as usize * pb).unwrap();
        let send = p0.psend_init(&sbuf, parts, pb, 1, 0).unwrap();
        let recv = p1.precv_init(&rbuf, parts, pb, 0, 0).unwrap();
        sim.run();
        move || {
            recv.start().unwrap();
            send.start().unwrap();
            for i in 0..parts {
                send.pready(i).unwrap();
            }
            sim.run();
            send.wait().unwrap();
            recv.wait().unwrap();
            if let Some(log) = &log {
                black_box(log.drain());
            }
            if let Some(flow_log) = &flow_log {
                black_box(flow_log.drain());
            }
            if let Some(sampler) = &sampler {
                black_box(sampler.frames_captured());
            }
        }
    }

    let mut g = c.benchmark_group("telemetry");
    let mut untraced = sim_round_world(Traced::Off);
    g.bench_function("round_untraced", |b| b.iter(&mut untraced));
    let mut spans = sim_round_world(Traced::Spans);
    g.bench_function("round_traced", |b| b.iter(&mut spans));
    let mut flows = sim_round_world(Traced::Flows);
    g.bench_function("round_flow_traced", |b| b.iter(&mut flows));
    let mut sampled = sim_round_world(Traced::Sampled);
    g.bench_function("round_sampled", |b| b.iter(&mut sampled));
    g.finish();
}

/// One partitioned message: 16 RDMA-write WRs over an instant fabric.
const DP_PARTS: usize = 16;

/// The zero-copy data plane: pooled WR shells updated in place, one
/// `post_send_batch` slot claim per message, completions drained into a
/// reused scratch vector, and the wire moving bytes MR→MR directly.
fn dataplane_round(msg: usize) -> impl FnMut() {
    use partix_verbs::{
        connect_pair, InstantFabric, Network, Opcode, PostOptions, QpCaps, SendWr, Sge,
    };
    let pb = msg / DP_PARTS;
    let net = Network::new(2, InstantFabric::new());
    let a = net.open(0).unwrap();
    let b = net.open(1).unwrap();
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let cqa = a.create_cq();
    let qa = a
        .create_qp(pda, cqa.clone(), a.create_cq(), QpCaps::default())
        .unwrap();
    let qb = b
        .create_qp(pdb, b.create_cq(), b.create_cq(), QpCaps::default())
        .unwrap();
    connect_pair(&qa, &qb).unwrap();
    let src = a.reg_mr(pda, msg).unwrap();
    let dst = b.reg_mr(pdb, msg).unwrap();
    src.fill(0, msg, 0x5A).unwrap();
    let mut wrs: Vec<SendWr> = (0..DP_PARTS)
        .map(|i| SendWr {
            wr_id: i as u64,
            opcode: Opcode::RdmaWrite,
            sg_list: vec![Sge {
                addr: src.addr_at(i * pb),
                length: pb as u32,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr() + (i * pb) as u64,
            rkey: dst.rkey(),
            imm: None,
            inline_data: false,
            flow: 0,
        })
        .collect();
    let mut scratch = Vec::with_capacity(DP_PARTS);
    let mut next_id = DP_PARTS as u64;
    // QPs hold the network weakly; the closure keeps it (and the passive
    // side) alive for the benchmark's lifetime.
    let keep = (net, qb);
    move || {
        black_box(&keep);
        for wr in wrs.iter_mut() {
            wr.wr_id = next_id;
            next_id += 1;
        }
        let granted = qa.post_send_batch(&wrs, PostOptions::default()).unwrap();
        assert_eq!(
            granted, DP_PARTS,
            "instant fabric frees slots synchronously"
        );
        scratch.clear();
        while scratch.len() < DP_PARTS {
            cqa.poll_cq_into(&mut scratch, DP_PARTS);
        }
        black_box(scratch.len());
    }
}

/// Dataplane group: one 16-WR message through the verbs layer alone, at a
/// 4 KiB and a 64 KiB message.
fn bench_dataplane(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataplane");
    for (label, msg) in [("msg_4k", 4096usize), ("msg_64k", 65536)] {
        let mut round = dataplane_round(msg);
        g.bench_function(label, |b| b.iter(&mut round));
    }
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("scheduler_100k_events", |b| {
        b.iter(|| {
            let sim = Scheduler::new();
            for i in 0..100_000u64 {
                sim.at(SimTime(i), || {});
            }
            black_box(sim.run())
        })
    });
}

fn bench(c: &mut Criterion) {
    bench_event_queue(c);
    bench_pready_fastpath(c);
    bench_round(c, AggregatorKind::Persistent);
    bench_round(c, AggregatorKind::PLogGp);
    bench_telemetry_overhead(c);
    bench_dataplane(c);
    bench_scheduler(c);
}

fn main() {
    let mut c = Criterion::from_args();
    bench(&mut c);
    // Always leave a results file behind (empty array in smoke mode), so CI
    // can upload it unconditionally.
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_hotpath.json".into());
    c.write_json(std::path::Path::new(&path))
        .expect("write hotpath results");
    eprintln!("wrote benchmark results to {path}");

    // Acceptance bounds: span tracing, flow tracing (histograms and causal
    // stage events), and windowed sampling must each stay within 5% of the
    // untraced round
    // (smoke mode records no timings, so the checks only run on real
    // measurements; a filter may also have skipped a pair). Scheduler
    // noise on a busy host can swing either single statistic by several
    // percent between back-to-back runs, so each gate requires BOTH the
    // sample floor and the median to exceed the budget before failing — a
    // genuine regression moves both, a noise spike moves one.
    if !c.is_test_mode() {
        let sample = |id: &str| c.results().iter().find(|r| r.id == id).cloned();
        let untraced = sample("telemetry/round_untraced");
        for (what, id) in [
            ("span tracing", "telemetry/round_traced"),
            ("flow tracing + histograms", "telemetry/round_flow_traced"),
            ("windowed sampling", "telemetry/round_sampled"),
        ] {
            if let (Some(untraced), Some(traced)) = (untraced.clone(), sample(id)) {
                assert!(
                    traced.min_ns <= untraced.min_ns * 1.05
                        || traced.median_ns <= untraced.median_ns * 1.05,
                    "{what} overhead out of budget: traced {:.1}/{:.1} ns \
                     (floor/median) vs untraced {:.1}/{:.1} ns (both > 5%)",
                    traced.min_ns,
                    traced.median_ns,
                    untraced.min_ns,
                    untraced.median_ns
                );
                eprintln!(
                    "{what} overhead: {:+.2}% at the floor, {:+.2}% at the median \
                     (traced {:.1}/{:.1} ns, untraced {:.1}/{:.1} ns)",
                    (traced.min_ns / untraced.min_ns - 1.0) * 100.0,
                    (traced.median_ns / untraced.median_ns - 1.0) * 100.0,
                    traced.min_ns,
                    traced.median_ns,
                    untraced.min_ns,
                    untraced.median_ns
                );
            }
        }
    }
}
