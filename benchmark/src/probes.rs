//! Dedicated per-layer probes, run only in the traced run of the workload
//! whose end-to-end metric the layer should move (README.md has the map).
//! Each times public calls of one layer from outside, at that workload's
//! operating point, and reports the fastest of several passes (for the
//! reason `harness::Reps::part_s` gives).

use std::hint::black_box;
use std::sync::Arc;

use partix_core::{AggregatorKind, PartixConfig};
use partix_model::{table1, PLogGpModel};
use partix_sim::{Scheduler, SimDuration, SimTime};
use partix_verbs::shm::{FileSegment, HeapSegment, Popped, Segment, SpscRing};
use partix_verbs::{
    connect_pair, InstantFabric, Network, Opcode, PostOptions, QpCaps, SendWr, Sge,
};
use partix_workloads::sweep::{run_sweep, SweepConfig};
use partix_workloads::{run_pt2pt, Pt2PtConfig, ThreadTiming};

use crate::harness::{secs, Ctx};
use crate::stats::fastest;
use crate::trace::Batch;

/// Fastest of `passes` timings `f` takes.
fn fastest_of(passes: usize, mut f: impl FnMut() -> f64) -> f64 {
    fastest((0..passes).map(|_| f()))
}

fn chain_step(sim: Scheduler, left: u64) {
    if left > 0 {
        let next = sim.clone();
        sim.after(SimDuration::from_nanos(10), move || {
            chain_step(next, left - 1)
        });
    }
}

/// `sim.scheduler.*`: the sequential scheduler's cost per event, for a
/// pre-posted batch of capturing closures and for a self-rescheduling chain.
pub fn scheduler(ctx: &mut Ctx) {
    let events = ctx.scaled(1_000_000);
    let post_dispatch = ctx.tracer.span("sim.scheduler.post_dispatch", |_| {
        fastest_of(5, || {
            let sim = Scheduler::with_capacity(events as usize);
            let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let ((), s) = secs(|| {
                for i in 0..events {
                    let hits = hits.clone();
                    sim.at(SimTime(i % 4096), move || {
                        hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                }
                black_box(sim.run());
            });
            s * 1e9 / events as f64
        })
    });
    ctx.report
        .set("sim.scheduler.post_dispatch_ns", post_dispatch);

    let chain = ctx.tracer.span("sim.scheduler.chain", |_| {
        fastest_of(5, || {
            let sim = Scheduler::new();
            let ((), s) = secs(|| {
                chain_step(sim.clone(), events);
                black_box(sim.run());
            });
            s * 1e9 / events as f64
        })
    });
    ctx.report.set("sim.scheduler.chain_ns", chain);
}

/// `model.optimal.table1_us`: negligible today; pinned so it stays so.
pub fn model_table1(ctx: &mut Ctx) {
    let model = PLogGpModel::niagara();
    let us = ctx.tracer.span("model.optimal.table1", |_| {
        fastest_of(21, || secs(|| black_box(table1(&model))).1 * 1e6)
    });
    ctx.report.set("model.optimal.table1_us", us);
}

/// `workloads.*`: one point-to-point cell and one 1024-core sweep, the two
/// harnesses fig8 and fig14 spend their time in. Host time.
pub fn workloads_cells(ctx: &mut Ctx) {
    let mut partix = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    partix.fabric.copy_data = false;
    let cell = Pt2PtConfig {
        partix: partix.clone(),
        partitions: 32,
        part_bytes: 4 << 10,
        warmup: 10,
        iters: ctx.scaled(100) as usize,
        timing: ThreadTiming::perceived_bw(1, 0.04),
        seed: ctx.args.seed,
    };
    let rounds = (cell.warmup + cell.iters) as f64;
    let round_us = ctx.tracer.span("workloads.runner.pt2pt", |_| {
        fastest_of(5, || {
            secs(|| black_box(run_pt2pt(&cell).total_wrs)).1 * 1e6 / rounds
        })
    });
    ctx.report.set("workloads.runner.pt2pt_round_us", round_us);

    let mut sweep = SweepConfig::paper_1024(partix, (32 << 10) / 16);
    sweep.iters = ctx.scaled(sweep.iters as u64) as usize;
    let sweep_s = ctx.tracer.span("workloads.sweep.paper_1024", |_| {
        fastest_of(3, || secs(|| black_box(run_sweep(&sweep).mean_total_ns)).1)
    });
    ctx.report.set("workloads.sweep.paper_1024_s", sweep_s);
}

/// `verbs.qp.*` and `verbs.cq.*`: 64 B RDMA writes between two QPs on the
/// instant fabric, posted one by one and as a 16-WR batch, and their
/// completions polled — the calls phase a of `instant_pready` is bound by.
pub fn verbs_instant(ctx: &mut Ctx) {
    const WRS: usize = 16;
    const BYTES: usize = 64;
    let rounds = ctx.scaled(20_000);
    let net = Network::new(2, InstantFabric::new());
    let (Ok(a), Ok(b)) = (net.open(0), net.open(1)) else {
        return ctx.report.check(false, "verbs probe: open nodes");
    };
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let cq = a.create_cq();
    let qps = (
        a.create_qp(pda, cq.clone(), a.create_cq(), QpCaps::default()),
        b.create_qp(pdb, b.create_cq(), b.create_cq(), QpCaps::default()),
    );
    let mrs = (a.reg_mr(pda, WRS * BYTES), b.reg_mr(pdb, WRS * BYTES));
    let ((Ok(qa), Ok(qb)), (Ok(src), Ok(dst))) = (qps, mrs) else {
        return ctx.report.check(false, "verbs probe: create QPs and MRs");
    };
    if connect_pair(&qa, &qb).is_err() {
        return ctx.report.check(false, "verbs probe: connect");
    }
    let wrs: Vec<SendWr> = (0..WRS)
        .map(|i| SendWr {
            wr_id: i as u64,
            opcode: Opcode::RdmaWrite,
            sg_list: vec![Sge {
                addr: src.addr_at(i * BYTES),
                length: BYTES as u32,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr() + (i * BYTES) as u64,
            rkey: dst.rkey(),
            imm: None,
            inline_data: false,
            flow: 0,
        })
        .collect();

    let inline_wrs: Vec<SendWr> = wrs
        .iter()
        .map(|wr| SendWr {
            inline_data: true,
            ..wr.clone()
        })
        .collect();

    let (mut single, mut batch, mut poll) = (Batch::default(), Batch::default(), Batch::default());
    let mut scratch = Vec::with_capacity(WRS);
    let mut lost = 0u64;
    let mut drain = |poll: &mut Batch| {
        scratch.clear();
        poll.time(WRS as u64, || {
            // The instant fabric completes synchronously: one poll suffices.
            cq.poll_cq_into(&mut scratch, WRS);
        });
        (WRS - scratch.len()) as u64
    };
    ctx.tracer.span("verbs.instant_probe", |t| {
        for _ in 0..rounds {
            let posted = single.time(WRS as u64, || {
                wrs.iter()
                    .filter(|wr| qa.post_send((*wr).clone()).is_ok())
                    .count()
            });
            lost += (WRS - posted) as u64 + drain(&mut poll);
            let granted = batch.time(WRS as u64, || {
                qa.post_send_batch(&wrs, PostOptions::default())
                    .unwrap_or(0)
            });
            lost += (WRS - granted) as u64 + drain(&mut poll);
            // Inline sends snapshot their payload into a pooled arena
            // buffer: after the first round every get should be a pool hit.
            let inlined = inline_wrs
                .iter()
                .filter(|wr| qa.post_send((*wr).clone()).is_ok())
                .count();
            lost += (WRS - inlined) as u64 + drain(&mut poll);
        }
        t.record_batch("verbs.qp.post_send", &single);
        t.record_batch("verbs.qp.post_send_batch", &batch);
        t.record_batch("verbs.cq.poll", &poll);
    });
    let arena = net.state().telemetry_snapshot().arena;
    ctx.report.set(
        "verbs.arena.pool_hit_share",
        arena.pool_hits as f64 / arena.pool_gets.max(1) as f64,
    );
    // Each WR is two checks: posted, and completed.
    ctx.report.ops(
        rounds * 3 * 2 * WRS as u64,
        lost,
        "verbs probe WRs not posted or not completed",
    );
    ctx.report
        .set("verbs.qp.post_send_ns", single.ns_per_call());
    ctx.report
        .set("verbs.qp.post_send_batch_ns_per_wr", batch.ns_per_call());
    ctx.report
        .set("verbs.cq.poll_ns_per_cqe", poll.ns_per_call());
}

/// `verbs.memory.copy_gb_per_s`: `MemoryRegion::copy_to`, 64 KiB at a time.
pub fn memory_copy(ctx: &mut Ctx) {
    const CHUNK: usize = 64 << 10;
    const CHUNKS: usize = 16;
    let copies = ctx.scaled(2_000);
    let net = Network::new(2, InstantFabric::new());
    let (Ok(a), Ok(b)) = (net.open(0), net.open(1)) else {
        return ctx.report.check(false, "copy probe: open nodes");
    };
    let (Ok(src), Ok(dst)) = (
        a.reg_mr(a.alloc_pd(), CHUNK * CHUNKS),
        b.reg_mr(b.alloc_pd(), CHUNK * CHUNKS),
    ) else {
        return ctx.report.check(false, "copy probe: register MRs");
    };
    let filled = src.fill(0, CHUNK * CHUNKS, 0x5A).is_ok();
    let mut failed = 0u64;
    let pass_s = ctx.tracer.span("verbs.memory.copy", |_| {
        fastest_of(5, || {
            secs(|| {
                for i in 0..copies as usize {
                    let off = (i % CHUNKS) * CHUNK;
                    failed += u64::from(src.copy_to(off, &dst, off, CHUNK).is_err());
                }
            })
            .1
        })
    });
    let gb_per_s = copies as f64 * CHUNK as f64 / 1e9 / pass_s;
    let intact = dst
        .read_vec(0, CHUNK)
        .is_ok_and(|v| v.iter().all(|b| *b == 0x5A));
    ctx.report.ops(5 * copies, failed, "copy probe copies");
    ctx.report.check(filled && intact, "copy probe payload");
    ctx.report.set("verbs.memory.copy_gb_per_s", gb_per_s);
}

/// Push and pop `records` records of `payload` through `ring`, one at a
/// time on this thread; ns per push+pop pair and records that went wrong.
fn ring_pairs(ring: &SpscRing, payload: &[u8], records: u64) -> (f64, u64) {
    let mut scratch = Vec::with_capacity(payload.len());
    let mut wrong = 0u64;
    let ((), s) = secs(|| {
        for _ in 0..records {
            let pushed = ring.try_push(1, payload);
            let popped = ring.try_pop(&mut scratch) == Popped::Record(1);
            wrong += u64::from(!(pushed && popped && scratch.len() == payload.len()));
        }
    });
    (s * 1e9 / records as f64, wrong)
}

/// `verbs.shm.ring_*`: the SPSC ring alone, over heap and over file
/// segments. The heap–file gap is what each ring access costs in syscalls.
pub fn shm_rings(ctx: &mut Ctx) {
    const CAPACITY: usize = 1 << 20;
    let small = [0xA5u8; 64];
    let large = vec![0x5Au8; 64 << 10];
    let small_records = ctx.scaled(100_000);
    let large_records = ctx.scaled(4_000);
    let path = ctx.scratch.join("probe_ring.data");
    let file = std::fs::create_dir_all(&ctx.scratch)
        .and_then(|()| FileSegment::create(&path, CAPACITY as u64));
    let file: Arc<dyn Segment> = match file {
        Ok(seg) => Arc::new(seg),
        Err(e) => return ctx.report.check(false, &format!("ring probe: {e}")),
    };
    let heap_ring = SpscRing::new(Arc::new(HeapSegment::new(CAPACITY)));
    let file_ring = SpscRing::new(file);

    let mut wrong = 0u64;
    let mut pass = |ring: &SpscRing, payload: &[u8], records: u64| {
        fastest_of(5, || {
            let (ns, bad) = ring_pairs(ring, payload, records);
            wrong += bad;
            ns
        })
    };
    let (heap_ns, file_ns, file_large_ns) = ctx.tracer.span("verbs.shm.ring_probe", |_| {
        (
            pass(&heap_ring, &small, small_records),
            pass(&file_ring, &small, small_records),
            pass(&file_ring, &large, large_records),
        )
    });
    let _ = std::fs::remove_file(&path);
    ctx.report.ops(
        5 * (2 * small_records + large_records),
        wrong,
        "ring probe records lost or truncated",
    );
    ctx.report.set("verbs.shm.ring_heap_push_pop_ns", heap_ns);
    ctx.report.set("verbs.shm.ring_file_push_pop_ns", file_ns);
    ctx.report.set(
        "verbs.shm.ring_file_gb_per_s",
        large.len() as f64 / file_large_ns,
    );
}
