//! Relaxed-atomic counters, the one definition of each ledger (its counter
//! struct, its snapshot struct and the field table every walk is written
//! over), and the registry that owns the shared ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::flow::FlowRecorder;

/// Number of distinct completion statuses a CQ can classify.
///
/// Mirrors the verbs `WcStatus` enum: Success, RemoteAccessError,
/// RetryExceeded, RnrRetryExceeded, LocalLengthError — in that order.
pub const STATUS_SLOTS: usize = 5;

/// Human-readable names for each status slot, index-aligned with
/// [`STATUS_SLOTS`] and the verbs `WcStatus` discriminants.
pub const STATUS_NAMES: [&str; STATUS_SLOTS] = [
    "success",
    "remote_access_error",
    "retry_exceeded",
    "rnr_retry_exceeded",
    "local_length_error",
];

/// A single monotonic event counter.
///
/// All operations use `Relaxed` ordering: counters are a ledger reconciled
/// at quiescence, never a synchronisation primitive. `inc`/`add` compile to
/// a single `lock xadd` with no fence, which is still a read-modify-write:
/// about 10 ns uncontended on the 2-vCPU host the benchmark runs on, and a
/// simulated work request makes about 20 of them — a sixth of its host cost
/// (DESIGN.md §13).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the counter to `v` if it is below it (a high-water gauge).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

/// Number of MTU-sized segments a payload of `bytes` occupies on the wire.
///
/// Zero-byte transfers (a bare immediate) still consume one header-only
/// segment. This is the single source of truth shared by the simulated
/// fabric's serialization model and the MTU-conservation property tests.
#[inline]
pub fn segments_for(bytes: u64, mtu: usize) -> u64 {
    (bytes as usize).div_ceil(mtu.max(1)).max(1) as u64
}

/// One field of a ledger, as the `ledger!` definitions below state it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Field {
    /// The struct member, the JSON key and the exposition suffix.
    pub name: &'static str,
    /// A value that may fall. A delta frame carries it as read at the window
    /// end, where a monotone counter is subtracted.
    pub gauge: bool,
    /// The same at any `--jobs`. `false` for a value that depends on how pool
    /// accesses interleave across shards: `Snapshot::ledger_digest` skips it
    /// and a deterministic sampler zeroes it.
    pub digest: bool,
}

/// Defines one ledger: the `*Counters` struct the hot path increments and
/// the `*Snapshot` struct of `u64`s everything else reads, plus the field
/// table and the per-field walks (`fields`, `slots`, `delta`, `accum`) that
/// the digest, the delta frames and every rendering are written over. A new
/// counter is one line under `counted`; nothing else names it.
///
/// The two leading blocks splice members the walks do not cover (a row's
/// identity, the CQ status array); `read` lists values the snapshot holds
/// and the counters do not (live queue depths, a derived total).
macro_rules! ledger {
    (@gauge counter) => { false };
    (@gauge gauge) => { true };
    (@digest) => { true };
    (@digest per_executor) => { false };
    (
        $(#[$cmeta:meta])*
        $Counters:ident { $($(#[$xm:meta])* $xf:ident: $xt:ty,)* }
        $(#[$smeta:meta])*
        $Snapshot:ident { $($(#[$km:meta])* $kf:ident: $kt:ty,)* }
        read { $($(#[$rm:meta])* $rkind:ident $rf:ident,)* }
        counted { $($(#[$fm:meta])* $kind:ident $f:ident $(: $flag:ident)?,)* }
    ) => {
        $(#[$cmeta])*
        #[derive(Debug, Default)]
        pub struct $Counters {
            $($(#[$xm])* pub $xf: $xt,)*
            $($(#[$fm])* pub $f: Counter,)*
        }

        $(#[$smeta])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $Snapshot {
            $($(#[$km])* pub $kf: $kt,)*
            $($(#[$rm])* pub $rf: u64,)*
            $($(#[$fm])* pub $f: u64,)*
        }

        impl $Counters {
            /// Read every counter onto `head`, which brings the members the
            /// counters do not hold.
            pub fn snapshot_onto(&self, mut head: $Snapshot) -> $Snapshot {
                $(head.$f = self.$f.get();)*
                head
            }
        }

        impl $Snapshot {
            /// Number of ledger fields.
            pub const LEN: usize = Self::FIELDS.len();

            /// The ledger's fields in definition order (`read` first): the
            /// order of every export and of the digest fold.
            pub const FIELDS: &'static [Field] = &[
                $(Field {
                    name: stringify!($rf),
                    gauge: ledger!(@gauge $rkind),
                    digest: true,
                },)*
                $(Field {
                    name: stringify!($f),
                    gauge: ledger!(@gauge $kind),
                    digest: ledger!(@digest $($flag)?),
                },)*
            ];

            /// Every field as a `(name, value)` pair, in [`Self::FIELDS`] order.
            pub fn fields(&self) -> [(&'static str, u64); Self::LEN] {
                [$((stringify!($rf), self.$rf),)* $((stringify!($f), self.$f),)*]
            }

            /// Every field's storage, in [`Self::FIELDS`] order.
            pub fn slots(&mut self) -> [&mut u64; Self::LEN] {
                [$(&mut self.$rf,)* $(&mut self.$f,)*]
            }

            /// `cur - prev`: counters subtracted (saturating), gauges and the
            /// members outside the field table as `cur` has them.
            pub(crate) fn delta(prev: &Self, cur: &Self) -> Self {
                let mut d = cur.clone();
                for ((f, d), (_, p)) in Self::FIELDS.iter().zip(d.slots()).zip(prev.fields()) {
                    if !f.gauge {
                        *d = d.saturating_sub(p);
                    }
                }
                d
            }

            /// Add a delta back on: counters summed, gauges overwritten.
            pub(crate) fn accum(&mut self, delta: &Self) {
                for ((f, a), (_, d)) in Self::FIELDS.iter().zip(self.slots()).zip(delta.fields()) {
                    *a = if f.gauge { d } else { *a + d };
                }
            }
        }
    };
}

ledger! {
    /// Per-queue-pair ledger. One instance per QP, owned by the QP itself.
    QpCounters {}
    /// Frozen view of one queue pair's ledger plus its live state.
    QpSnapshot {
        /// Node that owns the QP.
        node: u32,
        /// QP number.
        qp_num: u32,
        /// QP state name at snapshot time (e.g. `"RTS"`, `"Error"`).
        state: &'static str,
    }
    read {
        /// Send WRs currently posted but not yet completed (live slot count).
        gauge outstanding,
        /// Receive WRs currently posted but not yet consumed.
        gauge recv_queue_depth,
    }
    counted {
        /// Send WRs accepted by `post_send` (a claimed send slot each).
        counter send_posted,
        /// Receive WRs accepted by `post_recv`.
        counter recv_posted,
        /// Receive WRs consumed by an arriving message.
        counter recv_consumed,
        /// Send WRs completed with `WcStatus::Success`.
        counter completed_success,
        /// Send WRs completed with any error status.
        counter completed_error,
        /// Payload bytes across all accepted send WRs.
        counter bytes_posted,
        /// Payload bytes across successfully completed send WRs.
        counter bytes_completed,
        /// Times this QP was recovered from the Error state (drain + reconnect).
        counter recoveries,
        /// Send-slot releases that found the outstanding count already at zero.
        /// Always zero unless the cap accounting is broken; checked by
        /// [`crate::invariants::check`].
        counter slot_underflows,
    }
}

ledger! {
    /// Per-completion-queue ledger. One instance per CQ, owned by the CQ.
    CqCounters {
        /// CQEs pushed, bucketed by `WcStatus` discriminant.
        pushed_by_status: [Counter; STATUS_SLOTS],
    }
    /// Frozen view of one completion queue's ledger.
    CqSnapshot {
        /// CQ identifier.
        cq_id: u32,
        /// CQEs pushed, bucketed by `WcStatus` discriminant.
        pushed_by_status: [u64; STATUS_SLOTS],
    }
    read {
        /// Total CQEs pushed across all statuses.
        counter pushed_total,
    }
    counted {
        /// CQEs handed back to the application by `poll`.
        counter polled,
        /// CQEs for receive-side opcodes (Recv / RecvRdmaWithImm).
        counter recv_pushed,
        /// Bytes reported by receive-side CQEs.
        counter recv_bytes,
    }
}

impl CqCounters {
    /// Total CQEs pushed across all statuses.
    pub fn pushed_total(&self) -> u64 {
        self.pushed_by_status.iter().map(Counter::get).sum()
    }
}

ledger! {
    /// Wire-level ledger shared by every fabric decorator in a network.
    ///
    /// Sites are chosen so the conservation laws in [`crate::invariants`] hold
    /// exactly: each physical event increments exactly one counter here.
    WireCounters {}
    /// Frozen view of the wire ledger.
    WireSnapshot {}
    read {}
    counted {
        /// Transfers handed to the innermost (delivering) fabric. Retransmits
        /// and duplicates count again; dropped ones never arrive here.
        counter inner_submissions,
        /// Lossy-wire retransmissions scheduled after a drop.
        counter retransmits,
        /// Transfers the lossy wire dropped (original attempts and retries).
        counter dropped,
        /// Ghost duplicates the lossy wire injected alongside an original.
        counter duplicates_injected,
        /// Transfers the lossy wire delayed beyond the base latency.
        counter delayed,
        /// Transfers whose retry budget ran out (surfaced as `RetryExceeded`).
        counter exhausted,
        /// RNR re-arms: delivery attempts repeated because the receiver had no
        /// receive WR posted yet.
        counter rnr_requeues,
        /// MTU segments serialized by the simulated fabric.
        counter mtu_segments,
        /// Calls into the delivery engine (including RNR repeats).
        counter delivery_attempts,
        /// Attempts that landed payload bytes in the target region.
        counter delivered,
        /// Subset of `delivered` carried by ghost duplicates.
        counter delivered_ghost,
        /// Attempts suppressed by the PSN filter (payload already applied).
        counter duplicates_suppressed,
        /// Attempts that failed remote key/address validation (or could not
        /// resolve the destination).
        counter remote_errors,
        /// Attempts that found no receive WR posted (single RNR event; the
        /// requeue that may follow is counted separately).
        counter receiver_not_ready,
        /// Attempts whose payload exceeded the receive WR's scatter space.
        counter length_errors,
        /// Payload bytes landed in target memory regions.
        counter bytes_delivered,
        /// Receive-side CQEs generated by deliveries.
        counter recv_cqes,
    }
}

ledger! {
    /// Runtime-level ledger for the MPI Partitioned aggregation layer.
    RuntimeCounters {}
    /// Frozen view of the runtime ledger.
    RuntimeSnapshot {}
    read {}
    counted {
        /// `pready` calls accepted across all send requests.
        counter preadys,
        /// δ-timer expirations that flushed a partition group.
        counter timer_fires,
        /// Aggregated work requests posted (one WR may carry many partitions).
        counter aggregated_wrs,
        /// Partitions carried by those WRs.
        counter partitions_posted,
        /// WRs spilled to the pending queue because the send queue was full.
        counter pending_spills,
        /// Pending WRs successfully re-posted by the progress engine.
        counter pending_reposts,
        /// Request-level recovery cycles (QP drain + byte-identical re-post).
        counter recoveries,
        /// Transport plans resolved from a tuning-table hit.
        counter table_decisions,
        /// Transport plans that fell back from the table to the model.
        counter table_fallback_decisions,
        /// Transport plans computed directly from the LogGP model.
        counter model_decisions,
        /// Transport plans with a fixed (non-adaptive) mapping.
        counter fixed_decisions,
    }
}

ledger! {
    /// Payload-arena ledger: the data plane's buffer-recycling pool.
    ///
    /// The arena hands out pooled payload buffers (inline snapshots,
    /// retransmission slots); these counters reconcile the pool's books. The
    /// conservation laws are checked by [`crate::invariants::check`]:
    /// `pool_gets == pool_hits + pool_misses` and `pool_returns <= pool_gets`.
    ArenaCounters {}
    /// Frozen view of the payload-arena ledger.
    ArenaSnapshot {}
    read {}
    counted {
        /// Buffers requested from the arena.
        counter pool_gets,
        /// Requests satisfied by recycling a previously returned buffer.
        counter pool_hits: per_executor,
        /// Requests that had to allocate a fresh buffer (cold pool, oversized
        /// payload, or a full size class).
        counter pool_misses: per_executor,
        /// Buffers handed back to the pool when their last reference dropped.
        counter pool_returns,
        /// High-water mark of concurrently live (handed-out, not yet returned)
        /// buffers.
        gauge live_high_water: per_executor,
    }
}

/// The shared half of a network's telemetry: wire + runtime counters and
/// the list of registered CQ ledgers.
///
/// Per-QP counters are *not* listed here — they live on the QPs themselves
/// and are walked by the network when building a snapshot, so that live
/// state (outstanding slots, queue depth, QP state) can be read alongside.
#[derive(Debug, Default)]
pub struct Registry {
    /// Fabric/wire-level counters.
    pub wire: WireCounters,
    /// Aggregation-runtime counters.
    pub runtime: RuntimeCounters,
    /// Payload-arena counters.
    pub arena: ArenaCounters,
    /// Causal flow tracing: flow-ID minting and stage events. Inert (one
    /// relaxed load per site) until armed.
    pub flows: FlowRecorder,
    cqs: Mutex<Vec<(u32, Arc<CqCounters>)>>,
}

impl Registry {
    /// A fresh registry with all counters zeroed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a CQ's counter block so snapshots can enumerate it.
    pub fn register_cq(&self, cq_id: u32, counters: Arc<CqCounters>) {
        self.cqs.lock().push((cq_id, counters));
    }

    /// Snapshot every registered CQ.
    pub fn cq_snapshots(&self) -> Vec<CqSnapshot> {
        self.cqs
            .lock()
            .iter()
            .map(|(id, c)| {
                c.snapshot_onto(CqSnapshot {
                    cq_id: *id,
                    pushed_by_status: c.pushed_by_status.each_ref().map(Counter::get),
                    pushed_total: c.pushed_total(),
                    ..CqSnapshot::default()
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn segments_cover_edges() {
        assert_eq!(segments_for(0, 4096), 1, "bare immediates cost a header");
        assert_eq!(segments_for(1, 4096), 1);
        assert_eq!(segments_for(4096, 4096), 1);
        assert_eq!(segments_for(4097, 4096), 2);
        assert_eq!(segments_for(10, 1), 10);
        assert_eq!(segments_for(10, 0), 10, "mtu 0 clamps to 1");
    }

    #[test]
    fn registry_snapshots_registered_cqs() {
        let reg = Registry::new();
        let cq = Arc::new(CqCounters::default());
        cq.pushed_by_status[0].add(3);
        cq.pushed_by_status[2].inc();
        cq.polled.add(4);
        reg.register_cq(7, cq.clone());
        let snaps = reg.cq_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].cq_id, 7);
        assert_eq!(snaps[0].pushed_total, 4);
        assert_eq!(snaps[0].pushed_by_status[2], 1);
        assert_eq!(snaps[0].polled, 4);
    }
}
