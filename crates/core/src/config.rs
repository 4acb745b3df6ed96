//! Runtime configuration.
//!
//! The fine-tuning knobs the paper mentions (§IV-A: transport partitions are
//! invisible to the user "other than any environment variables we create for
//! fine-tuning of our library") are the fields of [`PartixConfig`]; nothing
//! reads the process environment.

use std::sync::Arc;

use partix_model::LogGpParams;
use partix_sim::SimDuration;
use partix_verbs::{FabricParams, LossyConfig};

use crate::tuning::TuningTable;
use crate::ucx::UcxModel;

/// Transport reliability knobs: the `ibv_modify_qp` retry attributes applied
/// to every channel QP at RTR/RTS, plus the runtime's QP recovery budget.
///
/// The wire layer retries on its own (retransmission with exponential
/// backoff, RNR NAK waits); only exhaustion surfaces an error completion.
/// The runtime then attempts *recovery*: cycle the errored QP back to RTS
/// and re-post the failed WR, up to [`max_recoveries`](Self::max_recoveries)
/// times per round. Only an exhausted recovery budget reaches the
/// application as `TransferFailed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Ack-timeout exponent (IB-style: the timer is `4.096 us x 2^timeout`).
    /// Default 5 (~131 us) so retransmissions resolve at simulated
    /// micro-benchmark time scales; real deployments run ~14 (~67 ms).
    pub timeout: u8,
    /// Transport retries before a WR fails with `RetryExceeded`.
    pub retry_cnt: u8,
    /// Receiver-not-ready retries before `RnrRetryExceeded`.
    pub rnr_retry: u8,
    /// RNR NAK back-off interval (ns).
    pub min_rnr_timer_ns: u64,
    /// QP recovery cycles (Error → Reset → Init → RTR → RTS + re-post)
    /// allowed per request round; 0 disables recovery entirely, restoring
    /// fail-on-first-error behaviour.
    pub max_recoveries: u64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            timeout: 5,
            retry_cnt: 7,
            rnr_retry: 7,
            min_rnr_timer_ns: 10_000,
            max_recoveries: 64,
        }
    }
}

impl ReliabilityConfig {
    /// No wire retries, no RNR waits, no QP recovery: the first loss or
    /// error completion poisons the request (the pre-reliability semantics;
    /// also what fault-injection tests want).
    pub fn disabled() -> Self {
        ReliabilityConfig {
            retry_cnt: 0,
            rnr_retry: 0,
            max_recoveries: 0,
            ..ReliabilityConfig::default()
        }
    }
}

/// Which aggregation strategy a send request uses (paper §IV-B/C/D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregatorKind {
    /// Baseline: one message per user partition through the Open MPI + UCX
    /// software path (the `part_persist` analogue).
    Persistent,
    /// Brute-force tuning table lookup (§IV-B); falls back to PLogGP for
    /// missing keys.
    TuningTable,
    /// PLogGP-model-driven aggregation (§IV-C).
    PLogGp,
    /// PLogGP grouping with the delta-timer arrival-pattern optimisation
    /// (§IV-D).
    TimerPLogGp,
}

/// Full runtime configuration.
#[derive(Clone)]
pub struct PartixConfig {
    /// Aggregation strategy.
    pub aggregator: AggregatorKind,
    /// Delta for the timer-based aggregator (paper §IV-D / Fig. 12-13).
    pub delta: SimDuration,
    /// Laggard-delay input to the PLogGP model when planning (paper uses
    /// 4 ms, i.e. 4% noise on 100 ms compute).
    pub decision_delay_ns: f64,
    /// LogGP parameters the PLogGP planner uses (MPI-level; normally the
    /// output of the Netgauge-style assessment).
    pub model_params: LogGpParams,
    /// Simulated fabric timing.
    pub fabric: FabricParams,
    /// Maximum QPs a channel may create.
    pub max_qps_per_channel: u32,
    /// QPs used by the persistent baseline (UCX drives more than one lane
    /// per peer, which is how Open MPI reaches full link bandwidth for
    /// large messages).
    pub persistent_qps: u32,
    /// UCX protocol cost model for the baseline.
    pub ucx: UcxModel,
    /// Tuning table for [`AggregatorKind::TuningTable`].
    pub tuning_table: Option<Arc<TuningTable>>,
    /// Online delta auto-tuning for the timer aggregator (the paper's
    /// named future work, §IV-D): after each round, delta is reset to
    /// `adaptive_delta_margin` times the observed spread between the first
    /// and last non-laggard arrival (the paper's Fig. 12 estimator),
    /// clamped to at least 1 us.
    pub adaptive_delta: bool,
    /// Safety margin applied to the measured arrival spread.
    pub adaptive_delta_margin: f64,
    /// Transport reliability: QP retry attributes and the recovery budget.
    pub reliability: ReliabilityConfig,
    /// Optional wire loss model: when set, simulated worlds wrap their
    /// fabric in a [`partix_verbs::LossyFabric`] with this configuration
    /// (chaos testing; `None` = perfect wire).
    pub loss: Option<LossyConfig>,
}

impl Default for PartixConfig {
    fn default() -> Self {
        PartixConfig {
            aggregator: AggregatorKind::PLogGp,
            delta: SimDuration::from_micros(35),
            decision_delay_ns: partix_model::DEFAULT_DECISION_DELAY_NS,
            model_params: LogGpParams::niagara_mpi(),
            fabric: FabricParams::default(),
            max_qps_per_channel: 16,
            persistent_qps: 2,
            ucx: UcxModel::default(),
            tuning_table: None,
            adaptive_delta: false,
            adaptive_delta_margin: 1.2,
            reliability: ReliabilityConfig::default(),
            loss: None,
        }
    }
}

impl PartixConfig {
    /// Default configuration with a chosen aggregator.
    pub fn with_aggregator(aggregator: AggregatorKind) -> Self {
        PartixConfig {
            aggregator,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = PartixConfig::default();
        assert_eq!(c.aggregator, AggregatorKind::PLogGp);
        assert!(c.max_qps_per_channel >= 1);
        assert!(c.persistent_qps >= 1);
        assert!(c.model_params.validate().is_ok());
    }
}
