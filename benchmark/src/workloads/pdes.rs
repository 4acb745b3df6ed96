//! `pdes_sweep`: the event engine alone.
//!
//! No core, no verbs: an engine change shows here in full and on
//! `fullstack_ring` in part; a core or verbs change must not move it. A
//! repetition has two parts on the sharded engine's inline loop
//! (`Some(1)`): a Sweep3D-style wavefront over 400 000 ranks (neighbour
//! traffic; the headline rate), then a fan-in reduction tree over the same
//! ranks (many-to-one traffic), so that `wall_s` is not one traffic pattern
//! alone. Side phases, outside the timed numbers, run a reduced wavefront on
//! the reference executor and on two worker threads; all three must agree on
//! every deterministic part. A last, pinned run does not depend on `--seed`
//! and must reproduce the virtual-time results recorded below.

use partix_workloads::pdes::{run_fanin, run_sweep, PdesOutcome, PdesWorkloadConfig};

use crate::harness::{median_s, repeat, secs, Ctx};

/// Ranks of the timed parts.
const RANKS: u64 = 400_000;
/// Wavefront sweeps of one repetition (3 events per rank per sweep): two
/// keep a repetition near 0.2 s, so that some repetitions run undisturbed.
const SWEEPS: u32 = 2;
/// Ranks of the cross-executor side phases.
const SIDE_RANKS: u64 = 40_000;

/// The pinned run: seed, ranks, and the `(events, cross-shard messages,
/// makespan ns)` the wavefront and the fan-in tree gave for them when this
/// benchmark was defined. Virtual time repeats exactly, so any difference is
/// a change of the model, not of its speed; whoever makes one re-records
/// these in a benchmark change of its own.
const PINNED_SEED: u64 = 12;
const PINNED_RANKS: u64 = 10_000;
type Pinned = (u64, u64, u64);
const PINNED_SWEEP: Pinned = (59_601, 39_600, 525_895);
const PINNED_FANIN: Pinned = (18_749, 9_375, 12_594);

fn config(seed: u64, ranks: u64) -> PdesWorkloadConfig {
    PdesWorkloadConfig {
        sweeps: SWEEPS,
        seed,
        ..PdesWorkloadConfig::new(ranks as u32)
    }
}

fn ns_per_event(outcome: &PdesOutcome, seconds: f64) -> f64 {
    seconds * 1e9 / outcome.report.events as f64
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let cfg = config(seed, ctx.scaled(RANKS));

    // Set-up: the smallest complete run at full width — every rank built,
    // one sweep — which every repetition pays again.
    let one = PdesWorkloadConfig { sweeps: 1, ..cfg };
    let setup_s = median_s(if ctx.args.quick { 3 } else { 9 }, || {
        std::hint::black_box(run_sweep(&one, Some(1)).digest);
    });
    ctx.report.set("setup_s", setup_s);

    // Warm-up repetition; its results are the ones every timed repetition
    // must reproduce.
    let want = run_sweep(&cfg, Some(1));
    let want_fanin = run_fanin(&cfg, Some(1));

    let mut differing = 0u64;
    let reps = repeat(ctx, 3, |ctx| {
        let (got, sweep_s) = ctx
            .tracer
            .span("sim.pdes.inline", |_| secs(|| run_sweep(&cfg, Some(1))));
        let (got_fanin, fanin_s) = ctx
            .tracer
            .span("sim.pdes.fanin", |_| secs(|| run_fanin(&cfg, Some(1))));
        differing += u64::from(got.deterministic_parts() != want.deterministic_parts());
        differing += u64::from(got_fanin.deterministic_parts() != want_fanin.deterministic_parts());
        [sweep_s, fanin_s]
    });
    ctx.report.ops(
        2 * reps.count(),
        differing,
        "timed parts whose digest, event count or makespan differ from the warm-up's",
    );

    let events = want.report.events;
    ctx.report.set("work_per_s", events as f64 / reps.part_s(0));
    ctx.report.note(format!(
        "one repetition: {} ranks, {} shards, inline engine: {SWEEPS} wavefront sweeps \
         ({events} events, digest {:016x}), then a {}-ary fan-in tree ({} events)",
        want.nodes, cfg.shards, want.digest, cfg.fanout, want_fanin.report.events
    ));
    ctx.report.set(
        "sim.pdes.inline_ns_per_event",
        ns_per_event(&want, reps.part_s(0)),
    );
    ctx.report.set(
        "sim.pdes.fanin_ns_per_event",
        ns_per_event(&want_fanin, reps.part_s(1)),
    );
    ctx.report.set("sim.pdes.events", events as f64);
    ctx.report.set("sim.pdes.epochs", want.report.epochs as f64);
    ctx.report.set(
        "sim.pdes.cross_shard_msgs",
        want.report.cross_messages as f64,
    );
    ctx.report.set(
        "sim.pdes.sim_makespan_ms",
        want.report.makespan.as_nanos() as f64 / 1e6,
    );

    // Side phases: the reduced grid on the inline, reference and two-thread
    // executors. The threaded figures are reported, never gated: on a host
    // with two shared cores they vary severalfold from run to run.
    let small = config(seed, ctx.scaled(SIDE_RANKS));
    let inline = run_sweep(&small, Some(1));
    let (reference, ref_s) = ctx
        .tracer
        .span("sim.pdes.reference", |_| secs(|| run_sweep(&small, None)));
    let (jobs2, jobs2_s) = ctx
        .tracer
        .span("sim.pdes.jobs2", |_| secs(|| run_sweep(&small, Some(2))));
    ctx.report.check(
        reference.deterministic_parts() == inline.deterministic_parts(),
        "reference executor differs from inline",
    );
    ctx.report.check(
        jobs2.deterministic_parts() == inline.deterministic_parts(),
        "two worker threads differ from inline",
    );
    ctx.report.set(
        "sim.pdes.reference_ns_per_event",
        ns_per_event(&reference, ref_s),
    );
    ctx.report
        .set("sim.pdes.jobs2_ns_per_event", ns_per_event(&jobs2, jobs2_s));
    // Barrier wait is summed over the two workers.
    ctx.report.set(
        "sim.pdes.jobs2_barrier_wait_share",
        jobs2.barrier_wait_ns as f64 / (2.0 * jobs2_s * 1e9),
    );

    // The pinned run: the same answer on every commit, whatever `--seed` is.
    // `--quick` changes no size of it.
    let pinned = config(PINNED_SEED, PINNED_RANKS);
    for (got, recorded, what) in [
        (run_sweep(&pinned, Some(1)), PINNED_SWEEP, "wavefront"),
        (run_fanin(&pinned, Some(1)), PINNED_FANIN, "fan-in tree"),
    ] {
        let got = got.report.deterministic_parts();
        ctx.report.check(
            got == recorded,
            &format!(
                "pinned {what} (seed {PINNED_SEED}) gave {got:?}, recorded {recorded:?}: \
                 the model changed"
            ),
        );
    }
    ctx.report.note(format!(
        "side phases, once each: {} ranks on the reference and 2-thread executors, and the \
         pinned run (seed {PINNED_SEED}, {PINNED_RANKS} ranks); host cpus {}",
        inline.nodes,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
}
