//! What every workload shares: the command line, the run context, the
//! time-boxed repetition loop and the process's peak memory.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics::{workload, Report, WorkloadDef, WORKLOADS};
use crate::stats::{fastest, median};
use crate::trace::Tracer;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: &'static str,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds the timed repetitions run for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Every size at about a twentieth, for tests.
    pub quick: bool,
}

/// The usage line.
pub fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: partix-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        names.join("|")
    )
}

/// Parse the arguments after the program name: the driver's grammar, every
/// flag with its value, plus `--quick`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: "",
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--quick" {
            out.quick = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
        match arg.as_str() {
            "--workload" => {
                out.workload = workload(v)
                    .map(|w| w.name)
                    .ok_or_else(|| format!("unknown workload {v}"))?;
            }
            "--seed" => out.seed = v.parse().map_err(|_| format!("--seed {v} is not a u64"))?,
            "--seconds" => {
                out.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 120.0 => s,
                    _ => return Err(format!("--seconds {v} is not in (0, 120]")),
                };
            }
            "--trace" => {
                out.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v} is neither 0 nor 1")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload.is_empty() {
        return Err("no workload given".into());
    }
    Ok(out)
}

/// What a workload runs with.
pub struct Ctx {
    /// The command line.
    pub args: Args,
    /// Span recorder, enabled on a traced run.
    pub tracer: Tracer,
    /// The report being filled.
    pub report: Report,
    /// Scratch directory for this process (`<benchmark>/out/run_<pid>`),
    /// removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A context for `args`.
    pub fn new(args: Args, def: &'static WorkloadDef, scratch: PathBuf) -> Self {
        Ctx {
            tracer: Tracer::new(args.trace),
            report: Report::new(def, args.trace),
            args,
            scratch,
        }
    }

    /// `full` on a normal run, about a twentieth of it with `--quick`.
    pub fn scaled(&self, full: u64) -> u64 {
        if self.args.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// Seconds the timed repetitions may take.
    pub fn budget(&self) -> Duration {
        let s = if self.args.quick {
            self.args.seconds.min(0.5)
        } else {
            self.args.seconds
        };
        Duration::from_secs_f64(s)
    }
}

/// Times of the parts (phases, experiments) of each timed repetition,
/// seconds.
pub struct Reps<const N: usize> {
    /// Repetitions with tracing off (all of them on an untraced run).
    pub plain: Vec<[f64; N]>,
    /// Repetitions with tracing on (none on an untraced run).
    pub traced: Vec<[f64; N]>,
}

impl<const N: usize> Reps<N> {
    fn walls(rows: &[[f64; N]]) -> Vec<f64> {
        rows.iter().map(|r| r.iter().sum()).collect()
    }

    fn fastest(rows: &[[f64; N]], part: usize) -> f64 {
        fastest(rows.iter().map(|r| r[part]))
    }

    /// Fastest seconds `part` took with tracing off.
    ///
    /// The fastest and not the median: on a shared host other tenants only
    /// ever add time, in bursts that last from milliseconds to minutes, so
    /// the median of a run follows the neighbours while the fastest of many
    /// short repetitions follows the program (CALIBRATION.md has both).
    pub fn part_s(&self, part: usize) -> f64 {
        Self::fastest(&self.plain, part)
    }

    /// Fastest seconds `part` took with tracing on.
    pub fn traced_part_s(&self, part: usize) -> f64 {
        Self::fastest(&self.traced, part)
    }

    /// Seconds one whole repetition takes on a quiet host: the sum over its
    /// parts of the fastest time each took with tracing off.
    pub fn wall_s(&self) -> f64 {
        (0..N).map(|p| self.part_s(p)).sum()
    }

    /// Repetitions timed, traced or not.
    pub fn count(&self) -> u64 {
        (self.plain.len() + self.traced.len()) as u64
    }

    /// (traced − untraced) ÷ untraced of [`Self::wall_s`] and its traced
    /// counterpart; 0 on an untraced run.
    fn trace_overhead_share(&self) -> f64 {
        if self.traced.is_empty() {
            return 0.0;
        }
        let traced: f64 = (0..N).map(|p| self.traced_part_s(p)).sum();
        (traced - self.wall_s()) / self.wall_s()
    }
}

/// Run `rep` — one repetition of fixed work, returning its phase times —
/// until the budget is spent, at least `min_reps` times (twice that on a
/// traced run, which alternates tracing off and on so that both sides see
/// the same machine state). Repetition numbers start at 1; 0 is warm-up.
///
/// Reports what is measured the same way on every workload: `wall_s`,
/// `trace_overhead_share`, and `peak_rss_mb` — `VmHWM` once set-up, warm-up
/// and the *first* timed repetition are done, not at exit, because how many
/// repetitions fit the budget varies and memory the program never frees
/// would make the peak grow with their number.
pub fn repeat<const N: usize>(
    ctx: &mut Ctx,
    min_reps: usize,
    mut rep: impl FnMut(&mut Ctx) -> [f64; N],
) -> Reps<N> {
    let traced_run = ctx.args.trace;
    let min_reps = if traced_run { 2 * min_reps } else { min_reps };
    let budget = ctx.budget();
    let mut reps = Reps {
        plain: Vec::new(),
        traced: Vec::new(),
    };
    let t0 = Instant::now();
    let mut n = 0usize;
    while n < min_reps || t0.elapsed() < budget {
        n += 1;
        let trace_this = traced_run && n.is_multiple_of(2);
        ctx.tracer.set_enabled(trace_this);
        ctx.tracer.set_rep(n as u32);
        let times = rep(ctx);
        if trace_this {
            reps.traced.push(times);
        } else {
            reps.plain.push(times);
        }
        if n == 1 {
            if let Some(mb) = peak_rss_mb() {
                ctx.report.set("peak_rss_mb", mb);
            }
        }
    }
    ctx.report.set("wall_s", reps.wall_s());
    ctx.report
        .set("trace_overhead_share", reps.trace_overhead_share());
    ctx.tracer.set_enabled(traced_run);
    ctx.tracer.set_rep(0);
    let mut walls = Reps::walls(&reps.plain);
    walls.sort_by(f64::total_cmp);
    ctx.report.note(format!(
        "timed repetitions: {} untraced, {} traced, in {:.2} s; untraced repetition \
         fastest {:.4} s, median {:.4} s, slowest {:.4} s; the fastest of each part is reported",
        reps.plain.len(),
        reps.traced.len(),
        t0.elapsed().as_secs_f64(),
        walls[0],
        median(&walls),
        walls[walls.len() - 1],
    ));
    reps
}

/// Median seconds of `times` runs of `f`: how `setup_s` is taken, from
/// several complete set-ups before the first timed repetition.
pub fn median_s(times: usize, mut f: impl FnMut()) -> f64 {
    let each: Vec<f64> = (0..times).map(|_| secs(&mut f).1).collect();
    median(&each)
}

/// Seconds `f` takes.
pub fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// `VmHWM` of this process in MB (10^6 bytes): the most memory it has held.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&v)
    }

    #[test]
    fn the_drivers_grammar_parses_and_nothing_else() {
        let a = parse("--workload pdes_sweep --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.quick),
            ("pdes_sweep", 7, 3.0, true, false)
        );
        let b = parse("--quick --workload shm_exchange --trace 0").unwrap();
        assert_eq!(
            (b.workload, b.trace, b.quick),
            ("shm_exchange", false, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload pdes_sweep --seconds 0").is_err());
        assert!(parse("pdes_sweep").is_err());
        assert!(parse("--workload pdes_sweep --trace").is_err());
        assert!(parse("--workload pdes_sweep --trace 2").is_err());
    }

    #[test]
    fn repeat_runs_for_the_budget_and_alternates_when_traced() {
        let args = parse("--workload pdes_sweep --seconds 0.05 --trace 1").unwrap();
        let mut ctx = Ctx::new(args, &WORKLOADS[2], PathBuf::new());
        let reps = repeat(&mut ctx, 2, |_| {
            std::thread::sleep(Duration::from_millis(5));
            [0.005]
        });
        assert!(reps.plain.len() >= 2 && reps.traced.len() >= 2);
        assert!(reps.plain.len().abs_diff(reps.traced.len()) <= 1);
        assert_eq!(reps.trace_overhead_share(), 0.0);
        assert_eq!(reps.count(), (reps.plain.len() + reps.traced.len()) as u64);
    }

    #[test]
    fn peak_rss_is_positive_here() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
