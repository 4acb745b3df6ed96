//! Multi-threaded `pready` with the timer-based PLogGP aggregator on real
//! OS threads — the paper's target scenario (§IV-D, Fig. 5).
//!
//! ```text
//! cargo run -p partix-examples --bin multithreaded_pready
//! ```
//!
//! Each of 32 worker threads computes for a few hundred microseconds, fills
//! its partition, and calls `pready`. One thread per round is an artificial
//! laggard (the single-thread-delay model). With the delta timer armed, the
//! early threads' partitions are flushed as contiguous runs while the
//! laggard is still computing, and the laggard ships only its own partition
//! when it arrives. The flush is fired by the receiver's `wait`, the one
//! thread inside the runtime then: every round asserts at least two work
//! requests, the flush and the laggard's run.

use std::time::{Duration, Instant};

use partix_core::{AggregatorKind, PartixConfig, SimDuration, World};

fn main() {
    let mut config = PartixConfig::with_aggregator(AggregatorKind::TimerPLogGp);
    // Flush anything that has arrived 2 ms after the first arrival.
    config.delta = SimDuration::from_millis(2);
    let world = World::instant(2, config);
    let sender = world.proc(0);
    let receiver = world.proc(1);

    let partitions = 32u32;
    let part_bytes = 2 << 10;
    let total = partitions as usize * part_bytes;
    let sbuf = sender.alloc_buffer(total).expect("send buffer");
    let rbuf = receiver.alloc_buffer(total).expect("recv buffer");
    let send = sender
        .psend_init(&sbuf, partitions, part_bytes, 1, 0)
        .expect("psend_init");
    let recv = receiver
        .precv_init(&rbuf, partitions, part_bytes, 0, 0)
        .expect("precv_init");
    println!(
        "plan: {} transport partitions, delta = {:?}",
        send.plan().unwrap().groups,
        send.plan().unwrap().timer_delta,
    );

    for round in 0..3u32 {
        recv.start().expect("recv start");
        send.start().expect("send start");
        let laggard = round % partitions;
        let wrs_before = send.total_wrs_posted();
        let t0 = Instant::now();

        std::thread::scope(|scope| {
            for t in 0..partitions {
                let send = &send;
                let sbuf = &sbuf;
                scope.spawn(move || {
                    // "Compute": a short, jittered busy period; the laggard
                    // stalls well past the delta.
                    let base = Duration::from_micros(200 + (t as u64 * 13) % 150);
                    let extra = if t == laggard {
                        Duration::from_millis(8)
                    } else {
                        Duration::ZERO
                    };
                    std::thread::sleep(base + extra);
                    sbuf.fill(t as usize * part_bytes, part_bytes, (round as u8) ^ t as u8)
                        .expect("fill");
                    send.pready(t).expect("pready");
                });
            }
            // Meanwhile the receiver's main thread waits for the round,
            // driving its progress engine; a round that never lands ends in
            // a `Timeout` naming what arrived, not a hang.
            recv.wait_deadline(Duration::from_secs(10))
                .expect("recv wait");
        });

        send.wait().expect("send wait");
        let wrs = send.total_wrs_posted() - wrs_before;
        assert!(
            wrs >= 2,
            "round {round}: {wrs} work request(s), so the receiver's wait did not \
             fire the δ flush before the laggard"
        );
        println!(
            "round {round}: laggard was thread {laggard}; {wrs} work requests \
             ({} early-bird flush + laggard), {:.1} ms wall",
            wrs - 1,
            t0.elapsed().as_secs_f64() * 1e3,
        );
        for t in 0..partitions {
            let got = rbuf
                .read_vec(t as usize * part_bytes, part_bytes)
                .expect("read");
            assert!(got.iter().all(|b| *b == (round as u8) ^ t as u8));
        }
    }
    println!("multithreaded_pready OK");
}
