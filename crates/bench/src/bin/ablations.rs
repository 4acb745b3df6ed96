//! Run the ablation studies (see `partix_bench::ablations`).
//!
//! ```text
//! ablations [--quick] [--jobs N] [--out DIR]
//! ```
//!
//! `--jobs N` fans independent cells across N worker threads (default: the
//! machine's available parallelism); output is byte-identical at any count.

use std::path::PathBuf;

use partix_bench::ablations;
use partix_bench::experiments::Quality;

fn main() {
    let mut quick = false;
    let mut jobs = partix_sim::parallel::default_jobs();
    let mut out = PathBuf::from("results");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--jobs" | "-j" => {
                let n = it.next().and_then(|v| v.parse::<usize>().ok());
                let Some(n) = n else {
                    eprintln!("error: --jobs requires a positive integer argument");
                    std::process::exit(2);
                };
                jobs = n.max(1);
            }
            "--out" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --out requires a directory argument");
                    std::process::exit(2);
                };
                out = PathBuf::from(dir);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let q = if quick {
        Quality::quick()
    } else {
        Quality::full()
    }
    .with_jobs(jobs);

    let tables = [
        ("ablation_a1_convoy", ablations::ablation_convoy(q)),
        ("ablation_a2_small_lane", ablations::ablation_small_lane(q)),
        (
            "ablation_a3_qp_fraction",
            ablations::ablation_qp_fraction(q),
        ),
        ("ablation_a4_recv_path", ablations::ablation_recv_path(q)),
        ("ablation_a5_delta_wrs", ablations::ablation_delta_wrs(q)),
        ("ablation_a7_early_bird", ablations::ablation_early_bird(q)),
        (
            "extension_adaptive_delta",
            ablations::extension_adaptive_delta(q),
        ),
        ("extension_halo", ablations::extension_halo(q)),
    ];
    for (slug, table) in tables {
        let text = table.save(&out, slug).expect("write results");
        println!("{text}");
    }
}
