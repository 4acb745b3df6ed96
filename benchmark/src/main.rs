//! `partix-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One workload per process. Prints every metric by name with its unit, the
//! attempted and failed operation counts, and as the last line of standard
//! output one JSON object. Exits 0 whenever that line was printed (a failed
//! check shows as `"correct": false`), non-zero when there is no result.

use std::process::ExitCode;

use partix_benchmark::harness::{parse_args, usage};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match partix_benchmark::run(args) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
