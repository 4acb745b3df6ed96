//! Property-based tests of transport planning invariants: every plan
//! partitions the user range exactly, respects the hardware QP model, and
//! the tuning-table round-trip preserves lookups.

use partix_core::{plan_for, AggregatorKind, PartixConfig, TuningTable};
use proptest::prelude::*;

fn kinds() -> impl Strategy<Value = AggregatorKind> {
    prop::sample::select(vec![
        AggregatorKind::Persistent,
        AggregatorKind::TuningTable,
        AggregatorKind::PLogGp,
        AggregatorKind::TimerPLogGp,
    ])
}

proptest! {
    /// Plans tile the user partitions exactly: `groups * group_size ==
    /// partitions`, groups are aligned, and the QP count is within bounds.
    #[test]
    fn plans_tile_partitions_exactly(
        kind in kinds(),
        partitions in 1u32..512,
        part_bytes in prop::sample::select(vec![1usize, 64, 4096, 1 << 20]),
    ) {
        let cfg = PartixConfig::with_aggregator(kind);
        let plan = plan_for(&cfg, partitions, part_bytes, u64::MAX);
        prop_assert_eq!(plan.groups * plan.group_size, partitions);
        prop_assert!(plan.qp_count >= 1);
        prop_assert!(plan.qp_count <= cfg.max_qps_per_channel.max(cfg.persistent_qps));
        // Every partition maps into exactly one group, and ranges chain.
        for g in 0..plan.groups {
            let r = plan.range_of(g);
            prop_assert_eq!(r.start, g * plan.group_size);
            for p in r.clone() {
                prop_assert_eq!(plan.group_of(p), g);
            }
        }
        // Receiver-side WR provisioning covers every partition exactly once
        // across QPs.
        let total_wrs: u32 = (0..plan.qp_count).map(|q| plan.max_incoming_wrs(q)).sum();
        prop_assert_eq!(total_wrs, partitions);
        // Each QP's bound is its round-robin share of the groups.
        for q in 0..plan.qp_count + 2 {
            let groups_on_q = (0..plan.groups).filter(|g| plan.qp_of(*g) == q).count() as u32;
            prop_assert_eq!(plan.max_incoming_wrs(q), groups_on_q * plan.group_size);
        }
    }

    /// On a bounded wire a plan still tiles the partitions with a power-of-
    /// two transport count, and every group fits unless it cannot halve.
    #[test]
    fn bounded_wire_plans_fit_or_cannot_split(
        kind in kinds(),
        partitions in 1u32..256,
        part_bytes in prop::sample::select(vec![64usize, 4096, 64 << 10, 1 << 20, 256 << 20]),
        max_wr_bytes in prop::sample::select(
            vec![4096u64, 100_000, (512 << 10) - 80, 1 << 22, u32::MAX.into()],
        ),
    ) {
        let cfg = PartixConfig::with_aggregator(kind);
        let open = plan_for(&cfg, partitions, part_bytes, u64::MAX);
        let plan = plan_for(&cfg, partitions, part_bytes, max_wr_bytes);
        prop_assert_eq!(plan.groups * plan.group_size, partitions);
        prop_assert!(plan.groups >= open.groups);
        prop_assert!((plan.groups / open.groups).is_power_of_two());
        let group_bytes = plan.group_size as u64 * part_bytes as u64;
        prop_assert!(group_bytes <= max_wr_bytes.max(open.group_size as u64 * part_bytes as u64));
        prop_assert!(group_bytes <= max_wr_bytes || plan.group_size % 2 == 1);
        if open.group_size as u64 * part_bytes as u64 <= max_wr_bytes {
            prop_assert_eq!(plan, open);
        }
    }

    /// Non-persistent plans never exceed the user's partition count and
    /// only use power-of-two transport counts (paper §IV-C).
    #[test]
    fn model_plans_use_power_of_two_groups(
        partitions in 1u32..512,
        part_bytes in prop::sample::select(vec![64usize, 4096, 256 << 10, 4 << 20]),
    ) {
        let cfg = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
        let plan = plan_for(&cfg, partitions, part_bytes, u64::MAX);
        prop_assert!(plan.groups.is_power_of_two());
        prop_assert!(plan.groups <= partitions);
    }

    /// Bigger aggregate sizes never yield fewer transport partitions
    /// (monotonicity of the model decision at fixed partition count).
    #[test]
    fn plan_monotone_in_size(partitions in prop::sample::select(vec![4u32, 8, 16, 32, 64])) {
        let cfg = PartixConfig::with_aggregator(AggregatorKind::PLogGp);
        let mut last = 0;
        for shift in 6..24 {
            let part_bytes = 1usize << shift;
            let plan = plan_for(&cfg, partitions, part_bytes, u64::MAX);
            prop_assert!(
                plan.groups >= last,
                "groups decreased at part_bytes = {part_bytes}"
            );
            last = plan.groups;
        }
    }

    /// Tuning tables survive text round-trips for arbitrary entries.
    #[test]
    fn tuning_table_text_round_trip(
        entries in prop::collection::vec(
            (1u32..256, 1u64..(1 << 40), 1u32..64, 1u32..16),
            0..50
        )
    ) {
        let mut t = TuningTable::new();
        for &(p, s, tr, q) in &entries {
            t.insert(p, s, tr, q);
        }
        let parsed = TuningTable::from_text(&t.to_text()).unwrap();
        prop_assert_eq!(&parsed, &t);
        for &(p, s, ..) in &entries {
            prop_assert!(parsed.get(p, s).is_some());
        }
    }
}
