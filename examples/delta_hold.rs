//! The timer aggregator's δ flush on the wall clock: how long it holds the
//! partitions that arrived on time while one is late and the receiver waits.
//!
//! ```text
//! cargo run --release -p partix-examples --bin delta_hold [-- ROUNDS]
//! ```
//!
//! Two ranks on `World::instant`, `TimerPLogGp`, 128 partitions of 64 B,
//! δ = 35 µs, 1 000 rounds by default. Each round a sender thread marks
//! partitions 0–126 ready, sleeps 300 µs and marks the last one, while the
//! receiver's main thread is in `wait`. The flushed WR's hold is its flow's
//! `agg_hold_ns` (the `Posted` event's `aux`: from the run's first `pready`
//! to its post). A round whose flush was not posted before the laggard's
//! `pready` (or not at all: the laggard sent the whole group) is a miss.
//!
//! The last line but one reads `delta_hold rounds=… p50_us=… p99_us=…
//! max_us=… missed=…`.

use std::time::Duration;

use partix_core::telemetry::{FlowLog, FlowStage};
use partix_core::{AggregatorKind, PartixConfig, SimDuration, World};

const PARTITIONS: u32 = 128;
const PART_BYTES: usize = 64;
const DELTA: Duration = Duration::from_micros(35);
const LATE: Duration = Duration::from_micros(300);

fn main() {
    let rounds: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("ROUNDS is a count"),
        None => 1_000,
    };
    let mut config = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    config.delta = SimDuration::from_nanos(DELTA.as_nanos() as u64);
    let world = World::instant(2, config);
    let log = FlowLog::new();
    world.enable_flow_tracing(log.clone());
    let (sender, receiver) = (world.proc(0), world.proc(1));
    let bytes = PARTITIONS as usize * PART_BYTES;
    let sbuf = sender.alloc_buffer(bytes).expect("send buffer");
    let rbuf = receiver.alloc_buffer(bytes).expect("recv buffer");
    let send = sender
        .psend_init(&sbuf, PARTITIONS, PART_BYTES, 1, 0)
        .expect("psend_init");
    let recv = receiver
        .precv_init(&rbuf, PARTITIONS, PART_BYTES, 0, 0)
        .expect("precv_init");
    assert_eq!(send.plan().expect("plan").groups, 1, "one group of 128");

    // The flow clock is the world's: round `r` posts in `starts[r]..starts[r + 1]`.
    let mut starts = Vec::with_capacity(rounds + 1);
    for _ in 0..rounds {
        recv.start().expect("recv start");
        send.start().expect("send start");
        starts.push(world.now().as_nanos());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                send.pready_range(0, PARTITIONS - 1).expect("pready");
                std::thread::sleep(LATE);
                send.pready(PARTITIONS - 1).expect("laggard pready");
            });
            recv.wait_deadline(Duration::from_secs(10))
                .expect("recv wait");
        });
        send.wait().expect("send wait");
    }
    starts.push(u64::MAX);

    let mut posted: Vec<(u64, u64)> = log
        .sorted()
        .into_iter()
        .filter(|e| e.stage == FlowStage::Posted)
        .map(|e| (e.ts_ns, e.aux))
        .collect();
    posted.sort_unstable();
    let (mut holds, mut missed, mut at) = (Vec::with_capacity(rounds), 0, 0);
    for window in starts.windows(2) {
        let end = at + posted[at..].partition_point(|&(ts, _)| ts < window[1]);
        let round = &posted[at..end];
        at = end;
        // The laggard's run is the round's last post; its `pready` is its
        // post less its own hold.
        let &(last_ts, last_hold) = round.last().expect("a round posts");
        let laggard_ready = last_ts - last_hold;
        match round.first() {
            Some(&(ts, hold)) if round.len() >= 2 && ts < laggard_ready => holds.push(hold),
            _ => missed += 1,
        }
    }
    holds.sort_unstable();
    let pct = |q: f64| -> f64 {
        let i = ((holds.len() as f64 * q).ceil() as usize).clamp(1, holds.len().max(1)) - 1;
        holds.get(i).map_or(f64::NAN, |&ns| ns as f64 / 1e3)
    };
    println!(
        "delta_hold rounds={rounds} p50_us={:.1} p99_us={:.1} max_us={:.1} missed={missed}",
        pct(0.50),
        pct(0.99),
        pct(1.0),
    );
    println!("delta_hold OK");
}
