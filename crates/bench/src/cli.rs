//! The argument loop the sweep binaries (`figures`, `fault_sweep`,
//! `ablations`) share: `--quick`, `--jobs N`, `--out DIR`, and whatever is
//! left for the binary itself.

use std::path::PathBuf;

/// The flags every sweep binary takes, plus the arguments it did not.
#[derive(Debug, PartialEq, Eq)]
pub struct SweepArgs {
    /// `--quick`: trimmed iteration counts.
    pub quick: bool,
    /// `--jobs N` / `-j N`: worker threads across independent cells
    /// (default: the machine's available parallelism).
    pub jobs: usize,
    /// `--out DIR` (default `results`).
    pub out: PathBuf,
    /// Every other argument, in order.
    pub rest: Vec<String>,
}

impl SweepArgs {
    /// Parse `args` (without the program name); the error is the message to
    /// print before exiting with status 2.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<SweepArgs, String> {
        let mut parsed = SweepArgs {
            quick: false,
            jobs: partix_sim::parallel::default_jobs(),
            out: PathBuf::from("results"),
            rest: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => parsed.quick = true,
                "--jobs" | "-j" => {
                    let n = it.next().and_then(|v| v.parse::<usize>().ok());
                    let n = n.ok_or("error: --jobs requires a positive integer argument")?;
                    parsed.jobs = n.max(1);
                }
                "--out" => {
                    let dir = it
                        .next()
                        .ok_or("error: --out requires a directory argument")?;
                    parsed.out = PathBuf::from(dir);
                }
                _ => parsed.rest.push(a),
            }
        }
        Ok(parsed)
    }

    /// [`SweepArgs::parse`] on the process arguments; a bad flag prints its
    /// message and exits with status 2.
    pub fn from_env() -> SweepArgs {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|msg| usage_error(&msg))
    }
}

/// Print `msg` to stderr and exit with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn common_flags_are_taken_and_the_rest_kept_in_order() {
        let a = parse(&[
            "fig6", "--quick", "-j", "0", "--trace", "--out", "/tmp/r", "--seed", "5",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.jobs, 1, "--jobs 0 is clamped to 1");
        assert_eq!(a.out, PathBuf::from("/tmp/r"));
        assert_eq!(a.rest, ["fig6", "--trace", "--seed", "5"]);
        let d = parse(&[]).unwrap();
        assert!(!d.quick && d.rest.is_empty());
        assert_eq!(d.out, PathBuf::from("results"));
        assert_eq!(d.jobs, partix_sim::parallel::default_jobs());
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        assert_eq!(
            parse(&["--jobs", "many"]).unwrap_err(),
            "error: --jobs requires a positive integer argument"
        );
        assert_eq!(
            parse(&["--jobs"]).unwrap_err(),
            "error: --jobs requires a positive integer argument"
        );
        assert_eq!(
            parse(&["--quick", "--out"]).unwrap_err(),
            "error: --out requires a directory argument"
        );
    }
}
