//! CI smoke tests for the runnable examples.
//!
//! Each test executes the example binary (cargo builds it first and hands
//! us the path via `CARGO_BIN_EXE_*`), requires exit code 0, and pins the
//! FNV-1a digest the example prints over every byte it verified: the
//! examples are deterministic end to end, so a digest change means the
//! runtime changed what actually lands in receive buffers — something a
//! bare exit-code check would miss. `multithreaded_pready` runs on the wall
//! clock and pins no digest; it checks its own bytes.

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
