//! Backend conformance matrix.
//!
//! Each test runs one scenario from `partix_verbs::conformance` against
//! every fabric backend — virtual-clock sim, synchronous instant, the
//! seeded lossy decorator, and the real-time shared-memory fabric — and
//! asserts the digests (payload hashes, CQE sequences, deterministic
//! ledger counters) are byte-identical across the matrix. Scenarios also
//! self-check the telemetry invariant laws per backend.

use partix_verbs::conformance::{assert_digests_match, assert_uniform, scenarios, BackendKind};

fn run(name: &str) {
    let table = scenarios();
    let scenario = table
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("scenario {name} not in conformance table"));
    let digest = assert_uniform(scenario);
    assert!(!digest.is_empty(), "{name}: empty digest");
}

macro_rules! conformance_tests {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                run(stringify!($name));
            }
        )*

        /// Every scenario in the harness table has a matching test here, so
        /// adding a scenario without wiring it up fails loudly.
        #[test]
        fn scenario_table_is_fully_covered() {
            let covered = [$(stringify!($name)),*];
            let table = scenarios();
            for s in &table {
                assert!(
                    covered.contains(&s.name),
                    "scenario {} has no conformance test",
                    s.name
                );
            }
            assert_eq!(covered.len(), table.len(), "stale test entries");
        }
    };
}

/// The whole scenario table, digest-compared head-to-head: the sequential
/// sim backend (whose digests the matrix pins) against the sharded PDES
/// executor running the same fabric with two shards and two worker threads.
/// Byte-identical digests here are the conformance half of the "full stack
/// on the sharded engine" guarantee; the workload half lives in
/// `pdes_determinism`.
#[test]
fn sharded_executor_digests_match_sequential_sim() {
    for s in &scenarios() {
        let sequential = (s.run)(BackendKind::Sim);
        let sharded = (s.run)(BackendKind::SimSharded);
        // Names the scenario and both backends with a per-line diff on
        // failure, instead of dumping the two raw digest vectors.
        assert_digests_match(
            s.name,
            BackendKind::Sim,
            &sequential,
            BackendKind::SimSharded,
            &sharded,
        );
    }
}

conformance_tests!(
    connect_teardown_reconnect,
    write_imm_roundtrip,
    bare_write_has_no_recv_cqe,
    gather_three_sge_write,
    mtu_segmentation_ledger,
    wr_cap_spill_sequential,
    batch_partial_grant,
    psn_exactly_once_under_duplicates,
    drop_retransmit_recovery,
    chaos_storm_delivers_exactly_once,
    retry_budget_exhausts_under_total_loss,
    rnr_exhausts_without_receiver,
    qp_error_then_recovery_cycle,
    remote_access_error_writes_nothing,
    inline_send_arena_conservation,
    imm_encoding_sweep,
    bidirectional_interleave,
    multi_qp_fanout,
    sequential_stream_wraps_transport,
    flow_stage_trace,
    post_refusals_touch_nothing,
);
