//! The `--trace` body of the `figures` and `fault_sweep` binaries: one fully
//! observed, sampled run of a point-to-point workload, its artifacts (the
//! flow log, with the chrome-trace view rendered from it), and the two gates
//! on them.

use std::path::Path;

use partix_core::SimDuration;
use partix_workloads::{run_traced, Pt2PtConfig};

/// Sampling window and frames retained. 25 µs of virtual time is short
/// enough that the smallest traced run (`fault_sweep --quick --trace`, about
/// 120 µs) still spans several windows, so `trace timeline` has a series to
/// show; at 100 µs it had two.
const SAMPLING: (SimDuration, usize) = (SimDuration::from_micros(25), 512);

/// Run `cfg` with every observer attached and write
/// `<out>/telemetry_<tag>.json` (counter ledger + invariant verdict) and
/// `<out>/trace_<tag>.json` (causal flow events and their chrome-trace view,
/// windowed frames — what the `trace` binary reads).
/// Returns whether the run passed both gates: every causal flow chain
/// complete and monotone, every conservation law clean. Violations go to
/// stderr.
pub fn run_trace(cfg: &Pt2PtConfig, out: &Path, tag: &str) -> bool {
    let art = run_traced(cfg, Some(SAMPLING));
    let trace_events = art.write_to(out, tag).expect("write trace artifacts");
    println!(
        "wrote {} and {} ({} trace events, {} flow events, {} frames)",
        out.join(format!("telemetry_{tag}.json")).display(),
        out.join(format!("trace_{tag}.json")).display(),
        trace_events,
        art.flows.len(),
        art.frames.len(),
    );
    let violations = art.chain_violations();
    for v in &violations {
        eprintln!("flow-chain violation: {v}");
    }
    if !violations.is_empty() {
        eprintln!(
            "causal flow chains INCOMPLETE ({} violations)",
            violations.len()
        );
        return false;
    }
    if art.report.is_clean() {
        println!("telemetry invariants: clean");
        true
    } else {
        eprintln!("telemetry invariants VIOLATED:\n{}", art.report);
        false
    }
}
