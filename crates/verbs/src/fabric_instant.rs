//! The instant fabric: zero-latency functional mode.
//!
//! All side effects of a post happen synchronously inside `post_send`. Used
//! by examples and multi-threaded correctness tests where timing fidelity is
//! irrelevant. Completion-notify hooks still fire, so the runtime behaves
//! identically to simulated mode apart from timestamps.
//!
//! Telemetry parity: the instant fabric stamps the same wire-ledger
//! counters and flow stages the simulated and shared-memory fabrics stamp —
//! `inner_submissions`, `mtu_segments`, `rnr_requeues` and the `WireSubmit`
//! / `RnrWait` flow events — so it sits in the backend conformance matrix
//! without carve-outs. Being zero-latency, its wire-stage events carry 0 ns;
//! RNR waits carry the time the yield loop actually took on the attached
//! flow clock.

use std::sync::{Arc, OnceLock};

use partix_telemetry::segments_for;

use crate::fabric::{
    complete_send, execute_delivery, outcome_status, sender_retry_profile, DeliveryOutcome, Fabric,
    TransferJob,
};
use crate::network::NetworkState;

/// MTU used for `mtu_segments` accounting, matching `FabricParams::mtu`'s
/// default: the instant fabric has no cost model, but the segmentation law
/// (wire-ledger invariants) still needs the packet count.
const ACCOUNTING_MTU: usize = 4096;

/// Fabric that applies every transfer immediately.
pub struct InstantFabric;

impl InstantFabric {
    /// The instant fabric. It holds no state (what it does is counted in
    /// each network's wire ledger), so every network shares one instance.
    pub fn new() -> Arc<Self> {
        static SHARED: OnceLock<Arc<InstantFabric>> = OnceLock::new();
        SHARED.get_or_init(|| Arc::new(InstantFabric)).clone()
    }
}

impl Fabric for InstantFabric {
    fn submit(&self, net: Arc<NetworkState>, job: TransferJob) {
        let net = &net;
        let wire = &net.telemetry().wire;
        wire.inner_submissions.inc();
        wire.mtu_segments
            .add(segments_for(job.total_len as u64, ACCOUNTING_MTU));
        let flows = &net.telemetry().flows;
        // Zero-latency mode: the wire stage exists but takes no time.
        flows.event(
            job.flow,
            partix_telemetry::FlowStage::WireSubmit,
            job.src_qp,
            0,
            0,
        );
        // Receiver-not-ready triggers the QP's bounded RNR retry loop: with
        // real threads the receiver may be about to post its WR, so each
        // attempt yields the CPU first (the zero-latency analogue of waiting
        // out the RNR NAK timer).
        let mut attempt = 0u8;
        let outcome = loop {
            let outcome = execute_delivery(net, &job);
            if matches!(outcome, DeliveryOutcome::ReceiverNotReady)
                && attempt < sender_retry_profile(net, &job).map_or(0, |p| p.rnr_retry)
            {
                attempt += 1;
                wire.rnr_requeues.inc();
                let before = flows.now();
                std::thread::yield_now();
                let waited = flows.now().saturating_sub(before);
                flows.event(
                    job.flow,
                    partix_telemetry::FlowStage::RnrWait,
                    job.src_qp,
                    0,
                    waited,
                );
                continue;
            }
            break outcome;
        };
        complete_send(net, &job, outcome_status(&outcome));
    }
}
