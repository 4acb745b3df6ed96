//! The simulated fabric: LogGP-parameterised timing on the virtual clock.
//!
//! Cost composition for a posted WR of `k` bytes on QP `q` of node `s`
//! destined to node `d`:
//!
//! 1. **Doorbell** — the WQE becomes NIC-visible at
//!    `max(now, opts.earliest) + o_s`;
//! 2. **NIC WQE processing** — a per-node serial resource models the
//!    PCIe/doorbell path shared by *all* QPs of the node: each WQE occupies
//!    it for `wqe_overhead + packets * pkt_overhead` (MTU segmentation);
//! 3. **QP DMA engine** — a per-QP serial resource paces the payload at
//!    `G / qp_bw_fraction` ns/byte: a single QP cannot saturate the link,
//!    which is why large messages benefit from spreading over multiple QPs
//!    (paper Fig. 7);
//! 4. **Egress/ingress links** — per-node serial resources at the full link
//!    rate `G` ns/byte, shared across QPs (aggregate bandwidth cap);
//! 5. **Latency** — delivery happens `L + opts.extra_wire_latency` after the
//!    wire is traversed; the receive completion is visible `o_r` later;
//! 6. **Ack** — the send completion is visible `L` after delivery.

use std::sync::Arc;

use partix_model::LogGpParams;
use partix_sim::{Scheduler, SerialResource, SimDuration, SimTime};
use partix_telemetry::segments_for;

use crate::fabric::{
    complete_send, execute_delivery_ext, outcome_status, sender_retry_profile, DeliveryOutcome,
    Fabric, TransferJob,
};
use crate::network::NetworkState;
use crate::table::IndexTable;
use crate::types::NodeId;

/// Timing parameters of the simulated fabric.
#[derive(Clone, Copy, Debug)]
pub struct FabricParams {
    /// Verbs-level LogGP parameters (`l`, `o_s`, `o_r`, `big_g` used; `g` is
    /// unused — per-message costs are explicit below).
    pub loggp: LogGpParams,
    /// Fraction of link bandwidth a single QP's DMA engine can drive.
    pub qp_bw_fraction: f64,
    /// Per-WQE NIC processing cost (ns) on the shared doorbell/PCIe path.
    pub wqe_overhead_ns: u64,
    /// Additional NIC processing per MTU packet (ns).
    pub pkt_overhead_ns: u64,
    /// Maximum transmission unit (bytes); the paper's tuning used 4 KiB.
    pub mtu: usize,
    /// Whether delivery really copies bytes between regions. Timing-only
    /// studies over many-gigabyte parameter sweeps turn this off; all
    /// completion/WR accounting is unaffected.
    pub copy_data: bool,
    /// Per-WQE NIC cost when the post uses the small-message fast lane
    /// (inline/BlueFlame: no WQE DMA fetch).
    pub inline_wqe_overhead_ns: u64,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            loggp: LogGpParams::niagara_verbs(),
            qp_bw_fraction: 0.6,
            wqe_overhead_ns: 450,
            pkt_overhead_ns: 10,
            mtu: 4096,
            copy_data: true,
            inline_wqe_overhead_ns: 100,
        }
    }
}

impl FabricParams {
    /// ns/byte on the shared link.
    pub fn link_g(&self) -> f64 {
        self.loggp.big_g
    }

    /// ns/byte through a single QP engine.
    pub fn qp_g(&self) -> f64 {
        self.loggp.big_g / self.qp_bw_fraction
    }

    /// Theoretical single-QP point-to-point bandwidth (bytes/sec) — the
    /// "hardware limit" line of the paper's perceived-bandwidth figures.
    pub fn single_qp_bandwidth(&self) -> f64 {
        1e9 / self.qp_g()
    }

    /// Link bandwidth (bytes/sec).
    pub fn link_bandwidth(&self) -> f64 {
        1e9 / self.link_g()
    }
}

/// The three per-node resources.
#[derive(Default)]
struct NodeResources {
    nic: Arc<SerialResource>,
    egress: Arc<SerialResource>,
    ingress: Arc<SerialResource>,
}

/// Discrete-event fabric.
pub struct SimFabric {
    sched: Scheduler,
    params: FabricParams,
    /// `params.loggp.{o_s, l, o_r}` as durations, converted once.
    o_s: SimDuration,
    latency: SimDuration,
    o_r: SimDuration,
    /// Per-node resources by node id and per-QP DMA engines by (network-wide
    /// sequential) QP number, each created at first use: a transfer finds
    /// its whole route with three index look-ups.
    nodes: IndexTable<NodeResources>,
    engines: IndexTable<Arc<SerialResource>>,
}

impl SimFabric {
    /// Create a simulated fabric driven by `sched`.
    pub fn new(sched: Scheduler, params: FabricParams) -> Arc<Self> {
        Arc::new(SimFabric {
            sched,
            params,
            o_s: SimDuration::from_nanos_f64(params.loggp.o_s),
            latency: SimDuration::from_nanos_f64(params.loggp.l),
            o_r: SimDuration::from_nanos_f64(params.loggp.o_r),
            nodes: IndexTable::new(),
            engines: IndexTable::new(),
        })
    }

    fn node(&self, n: NodeId) -> &NodeResources {
        self.nodes.get_or_init(n, NodeResources::default)
    }
}

/// One transfer on its way through the simulated wire: the job plus what
/// its later events need, boxed once at submit time and handed from the
/// delivery event to any RNR re-attempt to the ack event — each of those
/// closures captures only this pointer and the scheduler handle the
/// delivery passes on, so it stores inline in the scheduler's event slab.
struct Flight {
    net: Arc<NetworkState>,
    job: TransferJob,
    copy_data: bool,
    /// One-way wire latency the ack pays.
    ack_latency: SimDuration,
    /// Absolute time the send-side ack of the current delivery attempt
    /// becomes visible; a re-attempt pays a fresh ack latency from its own
    /// delivery time.
    ack_at: SimTime,
    /// RNR re-attempts so far.
    attempt: u8,
    /// What the sharded arrival event still has to add up on the
    /// receiver's shard (unused on the sequential scheduler, where `submit`
    /// finishes the arithmetic itself).
    arrival: Arrival,
}

#[derive(Clone, Copy)]
struct Arrival {
    doorbell: SimTime,
    nic_done: SimTime,
    wire_cost: SimDuration,
    latency: SimDuration,
    o_r: SimDuration,
}

impl Fabric for SimFabric {
    fn submit(&self, net: Arc<NetworkState>, job: TransferJob) {
        let p = &self.params;
        let bytes = job.total_len as u64;
        let now = self.sched.now();
        let sw_ready = job.opts.earliest.unwrap_or(now).max(now);
        let doorbell = sw_ready + self.o_s;

        let wire_counters = &net.telemetry().wire;
        wire_counters.inner_submissions.inc();

        // Per-node WQE processing path (shared by all QPs of the node).
        let packets = segments_for(bytes, p.mtu);
        wire_counters.mtu_segments.add(packets);
        let src = self.node(job.src_node);
        let wqe = if job.opts.small_lane {
            p.inline_wqe_overhead_ns
        } else {
            p.wqe_overhead_ns + packets * p.pkt_overhead_ns
        };
        let nic_cost = SimDuration::from_nanos(wqe);
        let (_, nic_done) = src.nic.reserve(doorbell, nic_cost);

        // Per-QP DMA engine pacing the payload.
        let engine = self.engines.get_or_init(job.src_qp, Arc::default);
        let engine_cost = SimDuration::from_nanos_f64(bytes as f64 * p.qp_g());
        let (_, engine_done) = engine.reserve(nic_done, engine_cost);

        // Shared link occupancy at full rate (egress then ingress).
        let wire_cost = SimDuration::from_nanos_f64(bytes as f64 * p.link_g());
        let (_, egress_done) = src.egress.reserve(nic_done, wire_cost);
        let dst_node = job.dst_node;
        let ingress = &self.node(dst_node).ingress;

        let latency = self.latency + job.opts.extra_wire_latency;
        let o_r = self.o_r;
        let mut flight = Box::new(Flight {
            net,
            job,
            copy_data: p.copy_data,
            ack_latency: self.latency,
            ack_at: SimTime::ZERO,
            attempt: 0,
            arrival: Arrival {
                doorbell,
                nic_done,
                wire_cost,
                latency,
                o_r,
            },
        });

        if self.sched.is_sharded() {
            // Sharded delivery is split in two so that every resource is
            // touched only by events on its owning node's shard. The
            // source-side event reserves nic/engine/egress (above) and sends
            // a cross-shard arrival at `head_arrive = src wire end + wire
            // latency` (>= now + L, so the lookahead always holds); the
            // arrival event on the receiver's shard reserves its ingress
            // port — in deterministic receiver event order — and finishes
            // the identical arithmetic: `delivered = max(engine, egress,
            // ingress done) + latency = max(head_arrive, ingress_done +
            // latency)`.
            let head_arrive = engine_done.max(egress_done) + latency;
            let ingress = ingress.clone();
            let sched = self.sched.clone();
            self.sched.at_node(dst_node, head_arrive, move || {
                let a = flight.arrival;
                let (_, ingress_done) = ingress.reserve(a.nic_done, a.wire_cost);
                let delivered = head_arrive.max(ingress_done + a.latency);
                record_wire_span(&flight.net, &flight.job, a.doorbell, delivered);
                flight.ack_at = delivered + flight.ack_latency;
                let handle = sched.clone();
                sched.at_node(dst_node, delivered + a.o_r, move || {
                    deliver_with_rnr_retry(handle, flight)
                });
            });
            return;
        }

        let (_, ingress_done) = ingress.reserve(nic_done, wire_cost);

        let wire_end = engine_done.max(egress_done).max(ingress_done);
        let delivered = wire_end + latency;
        let recv_visible = delivered + o_r;
        flight.ack_at = delivered + self.latency;

        // Flow tracing: both the doorbell instant and the delivery instant
        // fall out of the reservation arithmetic above, so the wire-time
        // sample is recorded passively here — no extra scheduler events,
        // keeping traced runs byte-identical to untraced ones.
        record_wire_span(&flight.net, &flight.job, doorbell, delivered);

        // Delivery event: move the data, push the receive completion, then
        // schedule the send-side ack. Receiver-not-ready re-arms the
        // delivery after the RNR timer instead of failing outright.
        // Delivery executes on the receiver: route with destination-node
        // affinity so a sharded executor can home it correctly.
        let sched = self.sched.clone();
        self.sched.at_node(dst_node, recv_visible, move || {
            deliver_with_rnr_retry(sched, flight)
        });
    }
}

/// Record the passive wire-stage flow event for `job`: doorbell instant,
/// wire residency up to `delivered`.
fn record_wire_span(
    net: &Arc<NetworkState>,
    job: &TransferJob,
    doorbell: SimTime,
    delivered: SimTime,
) {
    net.telemetry().flows.event_at(
        job.flow,
        partix_telemetry::FlowStage::WireSubmit,
        doorbell.as_nanos(),
        job.src_qp,
        0,
        delivered.saturating_since(doorbell).as_nanos(),
    );
}

/// Execute a delivery on the virtual clock, waiting out the RNR NAK timer
/// and re-attempting up to the sender's `rnr_retry` budget before the
/// `RnrRetryExceeded` completion is allowed to surface. `sched` is the
/// handle the delivery event carried; it schedules what comes next.
fn deliver_with_rnr_retry(sched: Scheduler, mut flight: Box<Flight>) {
    let Flight { net, job, .. } = &*flight;
    let outcome = execute_delivery_ext(net, job, flight.copy_data);
    if matches!(outcome, DeliveryOutcome::ReceiverNotReady) {
        if let Some(profile) = sender_retry_profile(net, job) {
            if flight.attempt < profile.rnr_retry {
                net.telemetry().wire.rnr_requeues.inc();
                let wait = SimDuration::from_nanos(profile.min_rnr_timer_ns.max(1));
                net.telemetry().flows.event_at(
                    job.flow,
                    partix_telemetry::FlowStage::RnrWait,
                    sched.now().as_nanos(),
                    job.src_qp,
                    0,
                    wait.as_nanos(),
                );
                let at = sched.now() + wait;
                flight.attempt += 1;
                let handle = sched.clone();
                sched.at_node(flight.job.dst_node, at, move || {
                    flight.ack_at = handle.now() + flight.ack_latency;
                    deliver_with_rnr_retry(handle, flight);
                });
                return;
            }
        }
    }
    let status = outcome_status(&outcome);
    let at = if sched.is_sharded() {
        // The delivery event runs at `delivered + o_r`, which is *after*
        // `ack_at = delivered + L` was computed; crossing back to the
        // sender's shard needs the full wire latency from the current
        // instant, so the ack pays at least `now + L`. (Virtual-time only;
        // identical on every sharded executor and job count.)
        flight.ack_at.max(sched.now() + flight.ack_latency)
    } else {
        flight.ack_at.max(sched.now())
    };
    // The completion lands in the sender's CQ — source-node affinity — and
    // the flight ends there.
    sched.at_node(flight.job.src_node, at, move || {
        complete_send(&flight.net, &flight.job, status)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_sane() {
        let p = FabricParams::default();
        assert!(p.qp_g() > p.link_g());
        assert!(p.single_qp_bandwidth() < p.link_bandwidth());
        // EDR-class link.
        assert!(p.link_bandwidth() > 10e9 && p.link_bandwidth() < 15e9);
    }
}
