//! Stall-diagnosis trace analyzer for traced runs.
//!
//! ```text
//! trace report <trace.json> [--stalls K] [--expo FILE] [--strict]
//! trace diff <baseline.json> <candidate.json> [--threshold F]
//! trace timeline <trace.json> [--expo FILE]
//! ```
//!
//! `report` reconstructs per-flow critical paths from a `trace_<tag>.json`
//! artifact, prints the per-stage latency table (p50/p95/p99/max/mean,
//! computed from the flow events) and
//! the top-K stall report (flows ranked by WR-cap wait, RNR wait,
//! retransmit wait, and delta-timer hold, with the responsible QP and
//! channel). `--expo FILE` additionally writes the stage histograms as a
//! Prometheus-style text exposition; `--strict` exits non-zero when any
//! arrived flow has an incomplete or non-monotone causal chain.
//!
//! `diff` compares per-stage p50/p95/p99 between two traces and exits
//! non-zero when the candidate regresses beyond `--threshold` (fractional;
//! default 0.10 = 10%).
//!
//! `timeline` tabulates the windowed time-series frames of a sampled run
//! (one row per window: ledger deltas and wire_ns window percentiles, plus
//! a rate-of-change sparkline per series). It also reads flight-recorder
//! dumps (`flightrec_<tag>.json`). `--expo FILE` writes the Prometheus
//! exposition of the latest frame.

use std::path::{Path, PathBuf};

use partix_bench::tracefile::{diff, latest_frame_exposition, report, timeline, TraceFile};

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace report <trace.json> [--stalls K] [--expo FILE] [--strict]\n  \
         trace diff <baseline.json> <candidate.json> [--threshold F]\n  \
         trace timeline <trace.json> [--expo FILE]"
    );
    std::process::exit(2);
}

fn load(path: &Path) -> TraceFile {
    TraceFile::load(path).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn cmd_report(args: &[String]) -> i32 {
    let mut file = None;
    let mut stalls = 5usize;
    let mut expo: Option<PathBuf> = None;
    let mut strict = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stalls" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) => stalls = k,
                None => usage(),
            },
            "--expo" => match it.next() {
                Some(p) => expo = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--strict" => strict = true,
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    let tf = load(&file);
    print!("{}", report(&tf, stalls));
    if let Some(out) = expo {
        let text = partix_verbs::telemetry::exposition(&tf.stages);
        if let Err(e) = std::fs::write(&out, text) {
            eprintln!("error: {}: {e}", out.display());
            return 2;
        }
        println!("\nwrote exposition to {}", out.display());
    }
    let violations = tf.violations();
    if !violations.is_empty() {
        eprintln!("\n{} causal-chain violations:", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        if strict {
            return 1;
        }
    } else {
        println!("\ncausal chains: complete and monotone");
    }
    0
}

fn cmd_diff(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut threshold = 0.10f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold = t,
                None => usage(),
            },
            other if !other.starts_with('-') => files.push(PathBuf::from(other)),
            _ => usage(),
        }
    }
    if files.len() != 2 {
        usage();
    }
    let base = load(&files[0]);
    let cand = load(&files[1]);
    let (text, regressions) = diff(&base, &cand, threshold);
    print!("{text}");
    if regressions.is_empty() {
        println!("\nno per-stage percentile regressions beyond the threshold");
        0
    } else {
        eprintln!(
            "\n{} percentile regressions beyond {:.0}%:",
            regressions.len(),
            threshold * 100.0
        );
        for r in &regressions {
            eprintln!(
                "  {} {}: {} ns -> {} ns",
                r.stage, r.quantile, r.before, r.after
            );
        }
        1
    }
}

fn cmd_timeline(args: &[String]) -> i32 {
    let mut file = None;
    let mut expo: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--expo" => match it.next() {
                Some(p) => expo = Some(PathBuf::from(p)),
                None => usage(),
            },
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    let tf = load(&file);
    let Some(text) = timeline(&tf) else {
        eprintln!(
            "{}: no time-series frames (`figures --trace` and `fault_sweep --trace` write sampled traces)",
            file.display()
        );
        return 1;
    };
    print!("{text}");
    if let Some(out) = expo {
        let text = latest_frame_exposition(&tf).expect("frames checked above");
        if let Err(e) = std::fs::write(&out, text) {
            eprintln!("error: {}: {e}", out.display());
            return 2;
        }
        println!("\nwrote latest-frame exposition to {}", out.display());
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("timeline") => cmd_timeline(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}
