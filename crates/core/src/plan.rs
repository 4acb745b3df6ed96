//! Transport planning: mapping user partitions to transport partitions and
//! queue pairs (paper Fig. 4 and §IV-B/C/D).
//!
//! Transport partitions are contiguous, uniform, and aligned on
//! `user_parts / transport_parts` boundaries (§IV-C). Groups are assigned to
//! QPs round-robin.

use partix_model::PLogGpModel;
use partix_sim::SimDuration;

use crate::config::{AggregatorKind, PartixConfig};

/// How a [`TransportPlan`]'s layout was decided — recorded so telemetry can
/// attribute each channel establishment to a decision path (the paper's
/// tuning-table-vs-model distinction, §IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanDecision {
    /// Fixed, non-adaptive mapping (the Persistent baseline).
    Fixed,
    /// Tuning-table hit.
    Table,
    /// Tuning-table miss that fell back to the analytic model.
    TableFallback,
    /// Computed directly from the P-LogGP model.
    Model,
}

/// The immutable transport layout chosen for a channel at init time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportPlan {
    /// Aggregation strategy in force.
    pub kind: AggregatorKind,
    /// User partitions per transport partition (uniform).
    pub group_size: u32,
    /// Number of transport partitions.
    pub groups: u32,
    /// Number of QPs backing the channel.
    pub qp_count: u32,
    /// Delta for the timer aggregator; `None` disables the timer.
    pub timer_delta: Option<SimDuration>,
    /// Which decision path produced this layout.
    pub decision: PlanDecision,
}

impl TransportPlan {
    /// Total user partitions covered.
    pub fn user_partitions(&self) -> u32 {
        self.group_size * self.groups
    }

    /// Transport group containing user partition `i`.
    #[inline]
    pub fn group_of(&self, i: u32) -> u32 {
        i / self.group_size
    }

    /// User-partition range of group `g`.
    #[inline]
    pub fn range_of(&self, g: u32) -> std::ops::Range<u32> {
        g * self.group_size..(g + 1) * self.group_size
    }

    /// QP index serving group `g` (round-robin).
    #[inline]
    pub fn qp_of(&self, g: u32) -> u32 {
        g % self.qp_count
    }

    /// Upper bound on incoming write-with-immediate WRs that QP `q` can see
    /// in one round: the timer aggregator may split a group into up to
    /// `group_size` single-partition writes, so the receiver pre-posts that
    /// many receive WRs.
    pub fn max_incoming_wrs(&self, q: u32) -> u32 {
        // Groups q, q + qp_count, q + 2 qp_count, ... below `groups`.
        let groups_on_q = if q < self.qp_count {
            (self.groups.saturating_sub(q)).div_ceil(self.qp_count)
        } else {
            0
        };
        groups_on_q * self.group_size
    }
}

/// Largest power of two that divides `n`.
fn pow2_divisor(n: u32) -> u32 {
    debug_assert!(n > 0);
    1 << n.trailing_zeros()
}

/// Compute the transport plan for a channel of `partitions` user partitions
/// of `part_bytes` bytes each, over a wire whose largest WR is
/// `max_wr_bytes` (a fabric's is at most `u32::MAX`, the longest SGE;
/// `u64::MAX` plans without a bound): while a group's WR would not fit and
/// halving the group keeps the transport count a power of two that divides
/// `partitions`, the transport partitions double (and the QPs with them, up
/// to `max_qps_per_channel`).
pub fn plan_for(
    config: &PartixConfig,
    partitions: u32,
    part_bytes: usize,
    max_wr_bytes: u64,
) -> TransportPlan {
    let mut plan = policy_plan(config, partitions, part_bytes);
    while plan.group_size % 2 == 0
        && u64::from(plan.group_size).saturating_mul(part_bytes as u64) > max_wr_bytes
    {
        plan.group_size /= 2;
        plan.groups *= 2;
        plan.qp_count = plan
            .qp_count
            .max(plan.groups.min(config.max_qps_per_channel));
    }
    if plan.group_size == 1 {
        // Nothing left to aggregate: a timer would only delay.
        plan.timer_delta = None;
    }
    plan
}

/// The plan `config.aggregator` picks, for an unbounded wire.
fn policy_plan(config: &PartixConfig, partitions: u32, part_bytes: usize) -> TransportPlan {
    debug_assert!(partitions >= 1);
    let total = partitions as usize * part_bytes;
    match config.aggregator {
        AggregatorKind::Persistent => TransportPlan {
            kind: AggregatorKind::Persistent,
            group_size: 1,
            groups: partitions,
            qp_count: config.persistent_qps.clamp(1, partitions.max(1)),
            timer_delta: None,
            decision: PlanDecision::Fixed,
        },
        AggregatorKind::TuningTable => {
            if let Some((t, q)) = config
                .tuning_table
                .as_ref()
                .and_then(|tab| tab.lookup(partitions, total as u64))
            {
                let t = clamp_transport(t, partitions);
                TransportPlan {
                    kind: AggregatorKind::TuningTable,
                    group_size: partitions / t,
                    groups: t,
                    qp_count: q.clamp(1, config.max_qps_per_channel),
                    timer_delta: None,
                    decision: PlanDecision::Table,
                }
            } else {
                // Missing key: fall back to the model (the paper's table
                // covered only the searched subset of the space).
                let mut plan = model_plan(config, partitions, total);
                plan.kind = AggregatorKind::TuningTable;
                plan.decision = PlanDecision::TableFallback;
                plan
            }
        }
        AggregatorKind::PLogGp => model_plan(config, partitions, total),
        AggregatorKind::TimerPLogGp => {
            let mut plan = model_plan(config, partitions, total);
            plan.kind = AggregatorKind::TimerPLogGp;
            // A timer only makes sense when a group aggregates more than one
            // user partition.
            if plan.group_size > 1 {
                plan.timer_delta = Some(config.delta);
            }
            plan
        }
    }
}

/// Clamp a requested transport count to a power of two that divides the
/// user partition count (the paper restricts both to powers of two; for
/// non-power-of-two user counts we keep groups uniform by clamping to the
/// largest dividing power of two).
fn clamp_transport(requested: u32, partitions: u32) -> u32 {
    let max_t = pow2_divisor(partitions);
    let mut t = requested.max(1).min(partitions);
    if !t.is_power_of_two() {
        t = (t + 1).next_power_of_two() / 2; // round down to a power of two
    }
    t.min(max_t)
}

fn model_plan(config: &PartixConfig, partitions: u32, total: usize) -> TransportPlan {
    let model = PLogGpModel::new(config.model_params);
    let opt = model.optimal_transport_partitions(
        total.max(1),
        pow2_divisor(partitions),
        config.decision_delay_ns,
    );
    let t = clamp_transport(opt, partitions);
    TransportPlan {
        kind: AggregatorKind::PLogGp,
        group_size: partitions / t,
        groups: t,
        qp_count: t.min(config.max_qps_per_channel),
        timer_delta: None,
        decision: PlanDecision::Model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::TuningTable;
    use std::sync::Arc;

    fn cfg(kind: AggregatorKind) -> PartixConfig {
        PartixConfig::with_aggregator(kind)
    }

    #[test]
    fn persistent_is_one_group_per_partition() {
        let p = plan_for(&cfg(AggregatorKind::Persistent), 32, 4096, u64::MAX);
        assert_eq!(p.group_size, 1);
        assert_eq!(p.groups, 32);
        assert_eq!(p.qp_count, 2, "baseline drives two UCX lanes");
        assert_eq!(p.timer_delta, None);
        assert_eq!(p.user_partitions(), 32);
    }

    #[test]
    fn ploggp_small_message_fully_aggregates() {
        // 32 x 512 B = 16 KiB: Table I says one transport partition.
        let p = plan_for(&cfg(AggregatorKind::PLogGp), 32, 512, u64::MAX);
        assert_eq!(p.groups, 1);
        assert_eq!(p.group_size, 32);
        assert_eq!(p.qp_count, 1);
    }

    #[test]
    fn ploggp_large_message_splits() {
        // 32 x 4 MiB = 128 MiB: Table I says 32 transport partitions.
        let p = plan_for(&cfg(AggregatorKind::PLogGp), 32, 4 << 20, u64::MAX);
        assert_eq!(p.groups, 32);
        assert_eq!(p.group_size, 1);
        assert_eq!(p.qp_count, 16, "capped by max_qps_per_channel");
    }

    #[test]
    fn ploggp_clamps_to_user_request() {
        // 4 partitions of 32 MiB: the model wants 32 but only 4 exist.
        let p = plan_for(&cfg(AggregatorKind::PLogGp), 4, 32 << 20, u64::MAX);
        assert_eq!(p.groups, 4);
        assert_eq!(p.group_size, 1);
    }

    #[test]
    fn timer_gets_delta_only_when_aggregating() {
        let mut c = cfg(AggregatorKind::TimerPLogGp);
        c.delta = SimDuration::from_micros(100);
        // Aggregating case: small message.
        let p = plan_for(&c, 32, 512, u64::MAX);
        assert_eq!(p.timer_delta, Some(SimDuration::from_micros(100)));
        // Non-aggregating case (group_size == 1): timer pointless.
        let p = plan_for(&c, 32, 4 << 20, u64::MAX);
        assert_eq!(p.group_size, 1);
        assert_eq!(p.timer_delta, None);
    }

    #[test]
    fn tuning_table_lookup_used() {
        let mut tab = TuningTable::new();
        tab.insert(32, 32 * 4096, 8, 4);
        let mut c = cfg(AggregatorKind::TuningTable);
        c.tuning_table = Some(Arc::new(tab));
        let p = plan_for(&c, 32, 4096, u64::MAX);
        assert_eq!(p.groups, 8);
        assert_eq!(p.group_size, 4);
        assert_eq!(p.qp_count, 4);
        assert_eq!(p.decision, PlanDecision::Table);
    }

    #[test]
    fn tuning_table_missing_key_falls_back_to_model() {
        let c = cfg(AggregatorKind::TuningTable); // no table at all
        let p = plan_for(&c, 32, 512, u64::MAX);
        assert_eq!(
            p.groups, 1,
            "model fallback should aggregate small messages"
        );
        assert_eq!(p.kind, AggregatorKind::TuningTable);
        assert_eq!(p.decision, PlanDecision::TableFallback);
    }

    #[test]
    fn non_power_of_two_partitions_stay_uniform() {
        let p = plan_for(&cfg(AggregatorKind::PLogGp), 12, 4 << 20, u64::MAX);
        // 12 = 4 * 3: at most 4 transport partitions keep groups uniform.
        assert!(p.groups <= 4);
        assert_eq!(p.groups * p.group_size, 12);
        // Odd partition count: only full aggregation divides evenly.
        let p = plan_for(&cfg(AggregatorKind::PLogGp), 7, 4 << 20, u64::MAX);
        assert_eq!(p.groups, 1);
        assert_eq!(p.group_size, 7);
    }

    #[test]
    fn group_mapping_helpers() {
        let p = TransportPlan {
            kind: AggregatorKind::PLogGp,
            group_size: 4,
            groups: 8,
            qp_count: 3,
            timer_delta: None,
            decision: PlanDecision::Model,
        };
        assert_eq!(p.group_of(0), 0);
        assert_eq!(p.group_of(5), 1);
        assert_eq!(p.group_of(31), 7);
        assert_eq!(p.range_of(2), 8..12);
        assert_eq!(p.qp_of(0), 0);
        assert_eq!(p.qp_of(5), 2);
        // QP 0 serves groups 0, 3, 6 -> up to 12 incoming WRs.
        assert_eq!(p.max_incoming_wrs(0), 12);
        assert_eq!(p.max_incoming_wrs(2), 8);
    }

    /// 16 x 64 KiB on a ring that holds just under 512 KiB: the model's two
    /// 512 KiB WRs become four of 256 KiB, each on its own QP. An odd group
    /// cannot halve, and a timer plan left with single partitions drops δ.
    #[test]
    fn wire_limit_doubles_transport_partitions_until_a_group_fits() {
        let ring = (512 << 10) - 80;
        let open = plan_for(&cfg(AggregatorKind::PLogGp), 16, 64 << 10, u64::MAX);
        assert_eq!(open.groups, 2, "the model's plan on an unbounded wire");
        let p = plan_for(&cfg(AggregatorKind::PLogGp), 16, 64 << 10, ring);
        assert_eq!((p.groups, p.group_size, p.qp_count), (4, 4, 4));
        assert!(p.group_size as u64 * (64 << 10) <= ring);
        let odd = plan_for(&cfg(AggregatorKind::PLogGp), 3, 300 << 10, ring);
        assert_eq!((odd.groups, odd.group_size), (1, 3));
        let mut c = cfg(AggregatorKind::TimerPLogGp);
        c.delta = SimDuration::from_micros(100);
        let t = plan_for(&c, 4, 400 << 10, ring);
        assert_eq!((t.groups, t.group_size, t.timer_delta), (4, 1, None));
    }

    #[test]
    fn pow2_divisor_cases() {
        assert_eq!(pow2_divisor(1), 1);
        assert_eq!(pow2_divisor(7), 1);
        assert_eq!(pow2_divisor(12), 4);
        assert_eq!(pow2_divisor(32), 32);
        assert_eq!(pow2_divisor(96), 32);
    }
}
