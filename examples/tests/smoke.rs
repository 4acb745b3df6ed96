//! CI smoke tests for the runnable examples.
//!
//! Each test executes the example binary (cargo builds it first and hands
//! us the path via `CARGO_BIN_EXE_*`), requires exit code 0, and pins the
//! FNV-1a digest the example prints over every byte it verified: the
//! examples are deterministic end to end, so a digest change means the
//! runtime changed what actually lands in receive buffers — something a
//! bare exit-code check would miss. `multithreaded_pready` and `delta_hold`
//! run on the wall clock and pin no digest: the first checks its own bytes
//! and its early-bird flushes, the second is held to loose bounds here.

use std::process::Command;

fn run(bin: &str) -> String {
    let out = Command::new(bin)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout).expect("example output is UTF-8")
}

fn final_line(stdout: &str) -> &str {
    stdout.lines().last().expect("example printed nothing")
}

#[test]
fn quickstart_exits_clean_with_pinned_digest() {
    let out = run(env!("CARGO_BIN_EXE_quickstart"));
    assert_eq!(
        final_line(&out),
        "quickstart OK digest=0x559bdca49774a325",
        "full output:\n{out}"
    );
}

#[test]
fn halo_exchange_exits_clean_with_pinned_digest() {
    let out = run(env!("CARGO_BIN_EXE_halo_exchange"));
    assert_eq!(
        final_line(&out),
        "halo_exchange OK digest=0x6578b1660d7d082a",
        "full output:\n{out}"
    );
}

#[test]
fn multithreaded_pready_exits_clean() {
    let out = run(env!("CARGO_BIN_EXE_multithreaded_pready"));
    assert_eq!(
        final_line(&out),
        "multithreaded_pready OK",
        "full output:\n{out}"
    );
}

/// The value of `key=` in `line`.
fn field(line: &str, key: &str) -> f64 {
    let value = line
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"));
    value
        .parse()
        .unwrap_or_else(|e| panic!("{key}={value}: {e}"))
}

/// 1 000 rounds of δ = 35 µs with one partition 300 µs late, the receiver in
/// `wait`: no round misses its flush, and the hold's p99 stays far under
/// the laggard's lateness (loose: any host, any load).
#[test]
fn delta_hold_flushes_every_round_in_time() {
    let out = run(env!("CARGO_BIN_EXE_delta_hold"));
    assert_eq!(final_line(&out), "delta_hold OK", "full output:\n{out}");
    let stats = out
        .lines()
        .find(|l| l.starts_with("delta_hold rounds="))
        .unwrap_or_else(|| panic!("no statistics line:\n{out}"));
    assert_eq!(field(stats, "rounds"), 1000.0, "{stats}");
    assert_eq!(field(stats, "missed"), 0.0, "{stats}");
    assert!(field(stats, "p99_us") < 5_000.0, "{stats}");
}
