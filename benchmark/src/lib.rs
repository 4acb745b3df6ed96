//! # partix-benchmark
//!
//! The one benchmark every performance or simplicity claim about partix is
//! measured with: five workloads, four end-to-end metrics each, and the
//! per-layer metrics that say which layer moved. `README.md` is the
//! glossary; `../BENCHMARK.json` is the contract the driver reads.
//!
//! The benchmark drives partix only through public functions of
//! `partix-sim`, `partix-model`, `partix-verbs`, `partix-core`,
//! `partix-workloads` and `partix-bench`, never reads `PARTIX_*`
//! environment variables, and writes only under its own `out/` directory.

#![warn(missing_docs)]

pub mod harness;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use harness::{Args, Ctx};

/// Where the benchmark writes: `out/` beside its manifest, wherever the
/// process was started from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The per-layer table of a traced run: totals per span name over the timed
/// repetitions, self time being busy time minus children.
fn layer_table(ctx: &Ctx) -> String {
    let mut out = String::from(
        "# span                                  spans       calls     busy_ms     self_ms\n",
    );
    for (name, t) in ctx.tracer.totals() {
        let _ = writeln!(
            out,
            "# {name:<32} {:>10} {:>11} {:>11.3} {:>11.3}",
            t.spans,
            t.count,
            t.busy_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    out
}

/// Run one workload and return what to print: the report, whose last line is
/// the JSON object the driver reads. A traced run also writes
/// `out/trace_<workload>.json`. The per-process scratch directory is removed
/// before returning, on success and on failure alike.
pub fn run(args: Args) -> Result<String, String> {
    let def = metrics::workload(args.workload).ok_or("unknown workload")?;
    let out = out_dir();
    let scratch = out.join(format!("run_{}", std::process::id()));
    let mut ctx = Ctx::new(args, def, scratch.clone());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workloads::run(&mut ctx);
    }));
    let _ = std::fs::remove_dir_all(&scratch);
    outcome.map_err(|_| format!("{} panicked; no result", def.name))?;

    let mut text = String::new();
    if ctx.args.trace {
        ctx.report
            .set("trace_spans", ctx.tracer.spans().len() as f64);
        let path = out.join(format!("trace_{}.json", def.name));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_json(def.name, ctx.args.seed)))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let _ = writeln!(text, "# wrote {}", path.display());
        text.push_str(&layer_table(&ctx));
    }
    text.push_str(&ctx.report.render()?);
    Ok(text)
}
