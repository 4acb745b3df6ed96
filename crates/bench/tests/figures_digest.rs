//! "Same figures" as a test: one FNV-1a digest over every table `figures
//! all` renders, the two round timelines and the `check` verdicts, at the
//! smallest complete quality. A change that moves one byte of one figure
//! moves the digest; a deliberate model change re-records it (together with
//! the pinned virtual-time values).

use partix_bench::check::check_table;
use partix_bench::experiments::{self, Quality};
use partix_core::AggregatorKind;

/// Every experiment at one warm-up and the fewest measured rounds it takes.
const SMALLEST: Quality = Quality {
    warmup: 1,
    iters: 2,
    sweep_warmup: 1,
    sweep_iters: 1,
    search_iters: 1,
    jobs: 1,
};

/// The digest of this tree's figures at [`SMALLEST`].
const PINNED: u64 = 0x0973_b786_ef99_c04a;

fn fold(mut h: u64, text: &str) -> u64 {
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn figures_all_digest_is_pinned() {
    let q = SMALLEST;
    let mut tables = vec![
        experiments::table1_table(),
        experiments::fig3_table(),
        experiments::fig6_table(q),
        experiments::fig7_table(q),
    ];
    tables.extend(experiments::fig8_tables(q));
    tables.extend(experiments::fig9_tables(q));
    tables.push(experiments::arrival_profile_table(8 << 20, "Fig 10", q));
    tables.push(experiments::arrival_profile_table(128 << 20, "Fig 11", q));
    tables.push(experiments::fig12_table(q));
    tables.push(experiments::fig13_table(q));
    tables.extend(experiments::fig14_tables(q));
    let mut h = tables
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, t| fold(h, &t.to_csv()));
    for kind in [AggregatorKind::Persistent, AggregatorKind::TimerPLogGp] {
        h = fold(h, &experiments::timeline_text(8 << 20, kind, q));
    }
    h = fold(h, &check_table(q).to_csv());
    assert_eq!(
        h, PINNED,
        "the figures changed: digest {h:#018x}, pinned {PINNED:#018x}"
    );
}
