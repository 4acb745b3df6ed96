//! The instant fabric: zero-latency functional mode.
//!
//! All side effects of a post happen synchronously inside `post_send`. Used
//! by examples and multi-threaded correctness tests where timing fidelity is
//! irrelevant. Completion-notify hooks still fire, so the runtime behaves
//! identically to simulated mode apart from timestamps.
//!
//! Telemetry parity: the instant fabric stamps the same wire-ledger
//! counters and flow stages the simulated and shared-memory fabrics stamp —
//! `inner_submissions`, `mtu_segments`, `rnr_requeues`, the `WireSubmit` /
//! `RnrWait` flow events and the `wire` / `rnr_wait` stage histograms — so
//! it sits in the backend conformance matrix without carve-outs. Being
//! zero-latency, its wire-stage samples are all 0 ns; RNR waits record the
//! time the yield loop actually took on the attached flow clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
#[derive(Default)]
pub struct InstantFabric {
    transfers: AtomicU64,
    bytes: AtomicU64,
}

impl InstantFabric {
    /// Create an instant fabric.
    pub fn new() -> Arc<Self> {
        Arc::new(InstantFabric::default())
    }

    /// Transfers executed so far.
    pub fn total_transfers(&self) -> u64 {
        self.transfers.load(Ordering::Relaxed)
    }

    /// Bytes moved so far.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Fabric for InstantFabric {
    fn submit(&self, net: &Arc<NetworkState>, job: TransferJob) {
        self.transfers.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(job.total_len as u64, Ordering::Relaxed);
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
        if job.flow != 0 {
            flows.stage_ns(|s| &s.wire, 0);
        }
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
                if job.flow != 0 {
                    flows.stage_ns(|s| &s.rnr_wait, waited);
                }
                continue;
            }
            break outcome;
        };
        complete_send(net, &job, outcome_status(&outcome));
    }
}
