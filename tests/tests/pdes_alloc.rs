//! Allocation regression test for the PDES cross-shard channel path.
//!
//! A counting global allocator wraps `System`; with the engine's pools
//! presized ([`PdesConfig::channel_capacity`] / `event_capacity`), a full
//! run of a cross-shard-heavy model on the inline epoch executor must
//! perform **zero heap allocations**: mailbox pushes land in preallocated
//! buffers, merges swap those buffers instead of reallocating, the merge
//! sort is in-place (`sort_unstable`), and event payloads recycle slab
//! slots.

use partix_sim::pdes::{Pdes, PdesConfig, PdesNode, ShardCtx, ShardLogic};
use partix_sim::{SimDuration, SimTime};
use partix_system_tests::alloc_count::count_allocs;

const NODES: u32 = 64;
const SHARDS: u32 = 4;
const HOPS: u32 = 4096;

/// Token ring: every hop crosses to the next node, and striping puts
/// consecutive nodes on different shards, so every single event exercises
/// the cross-shard channel path (mailbox push, merge, sort, slab recycle).
struct Ring;

#[derive(Clone, Copy)]
struct Hop {
    remaining: u32,
}

impl ShardLogic for Ring {
    type Event = Hop;
    fn handle(&mut self, ctx: &mut ShardCtx<'_, Hop>, node: PdesNode, ev: Hop) {
        if ev.remaining > 0 {
            ctx.send(
                (node + 1) % NODES,
                SimDuration::from_nanos(100 + (node as u64 & 0x1F)),
                Hop {
                    remaining: ev.remaining - 1,
                },
            );
        }
    }
}

#[test]
fn pdes_cross_shard_path_is_allocation_free() {
    let cfg = PdesConfig {
        shards: SHARDS,
        lookahead: SimDuration::from_nanos(100),
        channel_capacity: 64,
        event_capacity: 64,
    };
    let mut pdes = Pdes::new(cfg, (0..SHARDS).map(|_| Ring).collect());
    pdes.seed(0, SimTime(0), Hop { remaining: HOPS });

    let (allocs, report) = count_allocs(|| pdes.run(1));

    // Verify the run actually moved the token before judging the count.
    assert_eq!(report.events as u32, HOPS + 1);
    assert_eq!(report.cross_messages as u32, HOPS);
    assert!(report.epochs > 0);
    assert_eq!(
        report.channel_overflows, 0,
        "presized channels must not report overflow"
    );
    assert_eq!(
        allocs, 0,
        "PDES steady state must not touch the heap ({allocs} allocations leaked into the epoch loop)"
    );
}
