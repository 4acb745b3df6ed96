//! Run the ablation studies (see `partix_bench::ablations`).
//!
//! ```text
//! ablations [--quick] [--jobs N] [--out DIR]
//! ```
//!
//! `--jobs N` fans independent cells across N worker threads (default: the
//! machine's available parallelism); output is byte-identical at any count.

use partix_bench::ablations;
use partix_bench::cli::{usage_error, SweepArgs};
use partix_bench::experiments::Quality;

fn main() {
    let SweepArgs {
        quick,
        jobs,
        out,
        rest,
    } = SweepArgs::from_env();
    if let Some(other) = rest.first() {
        usage_error(&format!("unknown argument: {other}"));
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
