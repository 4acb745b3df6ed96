//! `instant_pready`: the runtime with no simulator under it.
//!
//! Two ranks on `World::instant` with `copy_data = true`, one driver thread,
//! closed loop: `psend_init`/`precv_init` once, then rounds of `start` /
//! `pready` in a seeded permutation / wait. Three phases, each bound by a
//! different layer:
//!
//! - a: `Persistent`, 128 x 64 B — one WR per partition, so verbs
//!   `post_send`, delivery and CQE handling dominate;
//! - b: `PLogGp`, 128 x 64 B — the paper's aggregated path, where core's
//!   `pready` bookkeeping dominates;
//! - c: `PLogGp`, 16 x 64 KiB — the copy dominates.
//!
//! `TimerPLogGp` is left out: on the instant fabric its δ-timer runs on the
//! wall clock, so its throughput varies severalfold between runs; the two
//! simulator workloads cover it in virtual time.

use std::time::{Duration, Instant};

use partix_core::{AggregatorKind, MemoryRegion, PartixConfig, PrecvRequest, PsendRequest, World};
use partix_sim::split_seed;

use crate::harness::{repeat, secs, Ctx};
use crate::probes;
use crate::stats::median;
use crate::trace::Batch;

/// One phase's shape.
struct Phase {
    name: &'static str,
    kind: AggregatorKind,
    partitions: u32,
    part_bytes: usize,
    /// Rounds per repetition, sized for 5-10 ms: short enough that some of
    /// the several hundred repetitions of a run are undisturbed.
    rounds: u64,
}

const PHASES: [Phase; 3] = [
    Phase {
        name: "instant.persistent",
        kind: AggregatorKind::Persistent,
        partitions: 128,
        part_bytes: 64,
        rounds: 50,
    },
    Phase {
        name: "instant.aggregated",
        kind: AggregatorKind::PLogGp,
        partitions: 128,
        part_bytes: 64,
        rounds: 400,
    },
    Phase {
        name: "instant.bulk",
        kind: AggregatorKind::PLogGp,
        partitions: 16,
        part_bytes: 64 << 10,
        rounds: 150,
    },
];

/// How long a round may take before it counts as a failed wait.
const ROUND_DEADLINE: Duration = Duration::from_secs(5);

/// A connected sender/receiver pair and its buffers.
struct Link {
    world: World,
    send: PsendRequest,
    recv: PrecvRequest,
    sbuf: MemoryRegion,
    rbuf: MemoryRegion,
    order: Vec<u32>,
    bytes: usize,
}

/// Call-kind timings of the traced repetitions of one phase.
#[derive(Default)]
struct CallTimes {
    start: Batch,
    pready: Batch,
    wait: Batch,
}

/// Failures so far: rounds with a failed call, waits that failed, and
/// payload verifications that found a wrong byte.
#[derive(Default)]
struct Failures {
    calls: u64,
    waits: u64,
    payloads: u64,
}

/// Seeded Fisher-Yates permutation of `0..n`.
fn permutation(seed: u64, n: u32) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n).collect();
    for i in (1..order.len()).rev() {
        let j = (split_seed(seed, "benchmark-pready-order", i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Payload of repetition `rep`: differs by seed, repetition and position.
fn pattern(seed: u64, rep: u64, len: usize) -> Vec<u8> {
    let salt = split_seed(seed, "benchmark-payload", rep);
    (0..len)
        .map(|i| (salt.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9)) >> 11) as u8)
        .collect()
}

impl Link {
    /// World, buffers, both requests, and one completed round.
    fn new(phase: &Phase, seed: u64) -> Result<Link, String> {
        let world = World::instant(2, PartixConfig::with_aggregator(phase.kind));
        let (p0, p1) = (world.proc(0), world.proc(1));
        let bytes = phase.partitions as usize * phase.part_bytes;
        let err = |e: partix_core::PartixError| format!("{}: {e}", phase.name);
        let sbuf = p0.alloc_buffer(bytes).map_err(err)?;
        let rbuf = p1.alloc_buffer(bytes).map_err(err)?;
        let send = p0
            .psend_init(&sbuf, phase.partitions, phase.part_bytes, 1, 0)
            .map_err(err)?;
        let recv = p1
            .precv_init(&rbuf, phase.partitions, phase.part_bytes, 0, 0)
            .map_err(err)?;
        let link = Link {
            world,
            send,
            recv,
            sbuf,
            rbuf,
            order: permutation(seed, phase.partitions),
            bytes,
        };
        let mut fails = Failures::default();
        link.round(&mut fails);
        if fails.calls + fails.waits > 0 {
            return Err(format!("{}: first round did not complete", phase.name));
        }
        Ok(link)
    }

    /// Wait for both sides with a deadline; `false` when it passed or the
    /// transfer failed.
    fn wait(&self) -> bool {
        let deadline = Instant::now() + ROUND_DEADLINE;
        while !(self.send.test() && self.recv.test()) {
            if self.send.error().is_some() || Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
        self.send.error().is_none()
    }

    /// One round, untimed inside.
    #[inline]
    fn round(&self, fails: &mut Failures) {
        let started = self.recv.start().is_ok() & self.send.start().is_ok();
        let mut ok = started;
        for &p in &self.order {
            ok &= self.send.pready(p).is_ok();
        }
        fails.calls += u64::from(!ok);
        fails.waits += u64::from(!self.wait());
    }

    /// One round with each call kind timed as a batch.
    fn round_timed(&self, fails: &mut Failures, t: &mut CallTimes) {
        let started = t
            .start
            .time(2, || self.recv.start().is_ok() & self.send.start().is_ok());
        let readied = t.pready.time(self.order.len() as u64, || {
            let mut ok = true;
            for &p in &self.order {
                ok &= self.send.pready(p).is_ok();
            }
            ok
        });
        fails.calls += u64::from(!(started && readied));
        fails.waits += u64::from(!t.wait.time(2, || self.wait()));
    }

    /// Whether the receive buffer holds exactly `want`.
    fn received(&self, want: &[u8]) -> bool {
        self.rbuf
            .read_vec(0, self.bytes)
            .is_ok_and(|got| got == want)
    }
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.args.seed;

    // Set-up: three worlds, their buffers and requests, and a first
    // completed round on each, fifty times over; the last set is the one
    // the repetitions run on.
    let mut links: Vec<Link> = Vec::new();
    let mut setup_s = Vec::new();
    let mut aggregated_setup_s = Vec::new();
    for _ in 0..ctx.scaled(50) {
        let (built, total) = secs(|| PHASES.map(|p| secs(|| Link::new(&p, seed))));
        setup_s.push(total);
        aggregated_setup_s.push(built[1].1);
        links.clear();
        for (link, _) in built {
            match link {
                Ok(l) => links.push(l),
                Err(e) => return ctx.report.check(false, &e),
            }
        }
    }
    ctx.report.set("setup_s", median(&setup_s));
    ctx.report
        .set("core.world.setup_us", median(&aggregated_setup_s) * 1e6);

    let rounds: Vec<u64> = PHASES.iter().map(|p| ctx.scaled(p.rounds)).collect();
    let mut call_times: [CallTimes; 3] = Default::default();
    let mut fails = Failures::default();
    let mut rep_no = 0u64;
    let mut rounds_run = 0u64;

    // One repetition: every phase, each with a fresh payload that is
    // verified byte for byte afterwards (outside the timed part).
    let mut one_rep = |ctx: &mut Ctx, fails: &mut Failures| -> [f64; 3] {
        rep_no += 1;
        let mut times = [0.0; 3];
        for (i, (phase, link)) in PHASES.iter().zip(&links).enumerate() {
            let want = pattern(seed, rep_no, link.bytes);
            let written = link.sbuf.write(0, &want).is_ok();
            let traced = ctx.tracer.enabled();
            let ct = &mut call_times[i];
            let ((), wall) = ctx.tracer.span(phase.name, |t| {
                secs(|| {
                    if traced {
                        let mut local = CallTimes::default();
                        for _ in 0..rounds[i] {
                            link.round_timed(fails, &mut local);
                        }
                        t.record_batch("core.request.start", &local.start);
                        t.record_batch("core.request.pready", &local.pready);
                        t.record_batch("core.request.wait", &local.wait);
                        ct.absorb(&local);
                    } else {
                        for _ in 0..rounds[i] {
                            link.round(fails);
                        }
                    }
                })
            });
            rounds_run += rounds[i];
            fails.payloads += u64::from(!(written && link.received(&want)));
            times[i] = wall;
        }
        times
    };

    // Warm-up repetition, then the timed ones.
    one_rep(ctx, &mut fails);
    let reps = repeat(ctx, 5, |ctx| one_rep(ctx, &mut fails));

    let n = reps.count() + 1;
    ctx.report.ops(
        rounds_run,
        fails.calls,
        "rounds with a failed start or pready",
    );
    ctx.report.ops(
        rounds_run,
        fails.waits,
        "waits that hit their deadline or saw a failed transfer",
    );
    ctx.report.ops(
        n * PHASES.len() as u64,
        fails.payloads,
        "payloads with a byte that failed verification",
    );
    ctx.report.check(
        links.iter().all(|l| l.world.check_invariants().is_clean()),
        "conservation laws on the instant worlds",
    );

    let rate = |phase: usize, per_round: f64, s: f64| rounds[phase] as f64 * per_round / s;
    let msgs_per_s = rate(0, f64::from(PHASES[0].partitions), reps.part_s(0));
    let parts_per_s = rate(1, f64::from(PHASES[1].partitions), reps.part_s(1));
    let gb_per_s = rate(2, links[2].bytes as f64 / 1e9, reps.part_s(2));
    ctx.report.set("work_per_s", parts_per_s);
    ctx.report.note(format!(
        "phase a persistent 128 x 64 B: {msgs_per_s:.0} msgs/s; \
         phase b aggregated 128 x 64 B: {parts_per_s:.0} partitions/s; \
         phase c aggregated 16 x 64 KiB: {gb_per_s:.2} GB/s ({} / {} / {} rounds per repetition)",
        rounds[0], rounds[1], rounds[2]
    ));

    if ctx.args.trace {
        ctx.report
            .set("core.request.persistent_msgs_per_s", msgs_per_s);
        ctx.report
            .set("core.request.aggregated_parts_per_s", parts_per_s);
        ctx.report.set("core.request.bulk_gb_per_s", gb_per_s);
        let [a, b, _] = &call_times;
        ctx.report
            .set("core.request.start_ns", b.start.ns_per_call());
        ctx.report
            .set("core.request.pready_ns_persistent", a.pready.ns_per_call());
        ctx.report
            .set("core.request.pready_ns_aggregated", b.pready.ns_per_call());
        ctx.report.set("core.request.wait_ns", b.wait.ns_per_call());

        // Useful outcomes per attempt of the aggregation policy, from the
        // aggregated world's own ledger.
        let snap = links[1].world.telemetry_snapshot();
        let rt = &snap.runtime;
        let world_rounds = links[1].send.completed_rounds().max(1);
        ctx.report.set(
            "core.request.partitions_per_wr",
            rt.partitions_posted as f64 / rt.aggregated_wrs.max(1) as f64,
        );
        ctx.report.set(
            "core.request.preadys",
            rt.preadys as f64 / world_rounds as f64,
        );
        probes::verbs_instant(ctx);
        probes::memory_copy(ctx);
    }
}

impl CallTimes {
    fn absorb(&mut self, other: &CallTimes) {
        self.start.absorb(&other.start);
        self.pready.absorb(&other.pready);
        self.wait.absorb(&other.wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_pready_order_and_the_payload() {
        let order = permutation(7, 128);
        assert_eq!(order, permutation(7, 128));
        assert_ne!(order, permutation(8, 128));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..128).collect::<Vec<u32>>());

        assert_eq!(pattern(7, 1, 4096), pattern(7, 1, 4096));
        assert_ne!(pattern(7, 1, 4096), pattern(8, 1, 4096));
        assert_ne!(pattern(7, 1, 4096), pattern(7, 2, 4096));
    }
}
