//! Point-in-time copies of every ledger, suitable for invariant checking
//! and JSON export.

use crate::counters::Field;
pub use crate::counters::{ArenaSnapshot, CqSnapshot, QpSnapshot, RuntimeSnapshot, WireSnapshot};

/// A complete, self-consistent copy of every ledger in one network.
///
/// Built by `NetworkState::telemetry_snapshot()` (verbs side), which walks
/// the live QPs so `outstanding`/`recv_queue_depth`/`state` reflect the same
/// instant as the counters. All invariant checking and export operates on
/// this frozen form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// One entry per live queue pair.
    pub qps: Vec<QpSnapshot>,
    /// One entry per completion queue.
    pub cqs: Vec<CqSnapshot>,
    /// Wire-level ledger.
    pub wire: WireSnapshot,
    /// Aggregation-runtime ledger.
    pub runtime: RuntimeSnapshot,
    /// Payload-arena ledger.
    pub arena: ArenaSnapshot,
}

impl Snapshot {
    /// Sum of send WRs posted across all QPs.
    pub fn total_send_posted(&self) -> u64 {
        self.qps.iter().map(|q| q.send_posted).sum()
    }

    /// Sum of successful send completions across all QPs.
    pub fn total_completed_success(&self) -> u64 {
        self.qps.iter().map(|q| q.completed_success).sum()
    }

    /// Sum of errored send completions across all QPs.
    pub fn total_completed_error(&self) -> u64 {
        self.qps.iter().map(|q| q.completed_error).sum()
    }

    /// Sum of payload bytes in successful completions across all QPs.
    pub fn total_bytes_completed(&self) -> u64 {
        self.qps.iter().map(|q| q.bytes_completed).sum()
    }

    /// Canonical FNV-1a digest over every counter in the ledger.
    ///
    /// QPs are folded in `(node, qp_num)` order and CQs in `cq_id` order, so
    /// the digest is independent of registration order. Two runs with equal
    /// digests performed the same aggregate work on every QP, CQ, the wire,
    /// the runtime and the arena — the comparison the sharded-executor
    /// determinism suites use as their "telemetry ledger equality" check.
    pub fn ledger_digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);

        let mut qps: Vec<&QpSnapshot> = self.qps.iter().collect();
        qps.sort_by_key(|q| (q.node, q.qp_num));
        h.put(qps.len() as u64);
        for q in qps {
            h.put(q.node as u64);
            h.put(q.qp_num as u64);
            for b in q.state.as_bytes() {
                h.put(*b as u64);
            }
            h.fold(QpSnapshot::FIELDS, &q.fields());
        }

        let mut cqs: Vec<&CqSnapshot> = self.cqs.iter().collect();
        cqs.sort_by_key(|c| c.cq_id);
        h.put(cqs.len() as u64);
        for c in cqs {
            h.put(c.cq_id as u64);
            for s in c.pushed_by_status {
                h.put(s);
            }
            h.fold(CqSnapshot::FIELDS, &c.fields());
        }

        h.fold(WireSnapshot::FIELDS, &self.wire.fields());
        h.fold(RuntimeSnapshot::FIELDS, &self.runtime.fields());
        h.fold(ArenaSnapshot::FIELDS, &self.arena.fields());
        h.0
    }

    /// Visit every ledger in the snapshot — each QP row, each CQ row, then
    /// the wire, the runtime and the arena — as its key in the artifacts,
    /// its field table and its storage in table order.
    pub fn for_each_ledger(
        &mut self,
        mut visit: impl FnMut(&'static str, &'static [Field], &mut [&mut u64]),
    ) {
        for q in &mut self.qps {
            visit("qps", QpSnapshot::FIELDS, &mut q.slots());
        }
        for c in &mut self.cqs {
            visit("cqs", CqSnapshot::FIELDS, &mut c.slots());
        }
        visit("wire", WireSnapshot::FIELDS, &mut self.wire.slots());
        visit(
            "runtime",
            RuntimeSnapshot::FIELDS,
            &mut self.runtime.slots(),
        );
        visit("arena", ArenaSnapshot::FIELDS, &mut self.arena.slots());
    }

    /// Zero every field [`Snapshot::ledger_digest`] skips: the projection
    /// under which frames from any executor compare equal.
    pub(crate) fn zero_per_executor_fields(&mut self) {
        self.for_each_ledger(|_, defs, slots| {
            for (_, v) in defs.iter().zip(slots).filter(|(f, _)| !f.digest) {
                **v = 0;
            }
        });
    }
}

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a ledger's values in field-table order. Fields a definition marks
    /// `per_executor` are left out: they depend on the wall-clock
    /// interleaving of pool accesses when events execute on parallel shards
    /// and may differ between executors that do identical virtual-time work.
    fn fold(&mut self, defs: &[Field], vals: &[(&'static str, u64)]) {
        for (_, (_, v)) in defs.iter().zip(vals).filter(|(f, _)| f.digest) {
            self.put(*v);
        }
    }
}
