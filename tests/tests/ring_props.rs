//! Property tests over the shared-memory SPSC byte ring
//! (`partix_verbs::shm::SpscRing`):
//!
//! - arbitrary capacities and record mixes stream FIFO with bytes intact,
//!   including records that straddle the physical wrap point (monotone
//!   cursors mean the data offset wraps while the cursors never do);
//! - the full/empty boundary is exact: a push is rejected iff the free
//!   span is smaller than the record, with no sacrificial slot, and the
//!   published-byte ledger (`len()`) reconciles after every operation;
//! - a real producer thread and consumer thread agree on the stream for
//!   arbitrary payload mixes, the consumer draining until it has taken
//!   every record.
//!
//! Every property runs over both backings: a heap segment shared by the two
//! ends, and a file segment the producer creates and the consumer opens —
//! two `MAP_SHARED` mappings of one file, which is what two processes have.
//!
//! The vendored proptest is deterministic (seeded from the test name), so
//! a green run is reproducible.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use partix_verbs::shm::{FileSegment, HeapSegment, Popped, SpscRing, RECORD_HEADER};
use proptest::prelude::*;

/// The two ends of one ring, and the segment file to remove afterwards.
struct Ends {
    tx: SpscRing,
    rx: SpscRing,
    file: Option<PathBuf>,
}

impl Drop for Ends {
    fn drop(&mut self) {
        if let Some(path) = &self.file {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A ring of `cap` bytes over each backing, heap first.
fn rings(cap: usize) -> [Ends; 2] {
    static FILES: AtomicU64 = AtomicU64::new(0);
    let heap = Arc::new(HeapSegment::new(cap));
    let path = std::env::temp_dir().join(format!(
        "partix_ring_props_{}_{}.ring",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    let created = FileSegment::create(&path, cap as u64).expect("create segment file");
    let opened = FileSegment::open(&path)
        .expect("open segment file")
        .expect("a created segment is complete");
    [
        Ends {
            tx: SpscRing::new(heap.clone()),
            rx: SpscRing::new(heap),
            file: None,
        },
        Ends {
            tx: SpscRing::new(Arc::new(created)),
            rx: SpscRing::new(Arc::new(opened)),
            file: Some(path),
        },
    ]
}

/// Deterministic payload for record `i` of length `len`.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (i.wrapping_mul(37).wrapping_add(j.wrapping_mul(11)) & 0xff) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any capacity, any record mix: the consumer sees exactly the
    /// producer's sequence. Single-threaded, draining inline whenever the
    /// ring rejects a push, so the cursors sweep through many physical
    /// offsets and records straddle the wrap at arbitrary split points.
    #[test]
    fn stream_is_fifo_at_any_capacity(
        cap in 24usize..=1024,
        lens in prop::collection::vec(0usize..=192, 1..120),
    ) {
        let biggest = cap - RECORD_HEADER as usize;
        for Ends { tx, rx, .. } in &rings(cap) {
            let mut buf = Vec::new();
            let mut next = 0usize; // next record index expected out
            for (i, &len) in lens.iter().enumerate() {
                let len = len.min(biggest);
                let bytes = payload(i, len);
                while !tx.try_push((i % 251) as u8, &bytes) {
                    // Full: the consumer must be able to free space.
                    match rx.try_pop(&mut buf) {
                        Popped::Record(kind) => {
                            prop_assert_eq!(kind, (next % 251) as u8);
                            let want = payload(next, lens[next].min(biggest));
                            prop_assert_eq!(&buf, &want, "record {} corrupted", next);
                            next += 1;
                        }
                        other => prop_assert!(false, "full ring popped {:?}", other),
                    }
                }
            }
            while next < lens.len() {
                match rx.try_pop(&mut buf) {
                    Popped::Record(kind) => {
                        prop_assert_eq!(kind, (next % 251) as u8);
                        let want = payload(next, lens[next].min(biggest));
                        prop_assert_eq!(&buf, &want, "record {} corrupted", next);
                        next += 1;
                    }
                    other => prop_assert!(false, "record {} lost: popped {:?}", next, other),
                }
            }
            prop_assert_eq!(rx.try_pop(&mut buf), Popped::Empty);
            prop_assert!(rx.is_empty());
        }
    }

    /// Advance the cursors to an arbitrary physical offset with a warm-up
    /// sequence (push+pop on an otherwise empty ring moves both cursors by
    /// the record footprint), then round-trip a near-capacity record from
    /// there: wherever the cursor landed, header and payload splits across
    /// the wrap boundary must be invisible to the consumer.
    #[test]
    fn wrap_straddling_record_round_trips(
        cap in 32usize..=256,
        warmup in prop::collection::vec(0usize..=100, 0..24),
        len in 0usize..=248,
    ) {
        let biggest = cap - RECORD_HEADER as usize;
        for Ends { tx, rx, .. } in &rings(cap) {
            let mut buf = Vec::new();
            for (i, &w) in warmup.iter().enumerate() {
                let bytes = payload(i, w.min(biggest));
                prop_assert!(tx.try_push(0, &bytes), "warm-up push on empty ring");
                prop_assert_eq!(rx.try_pop(&mut buf), Popped::Record(0));
                prop_assert_eq!(&buf, &bytes);
            }
            // The record under test: long payloads straddle the boundary for
            // most cursor positions; short ones exercise split headers.
            let bytes = payload(99, len.min(biggest));
            prop_assert!(tx.try_push(7, &bytes));
            prop_assert_eq!(rx.try_pop(&mut buf), Popped::Record(7));
            prop_assert_eq!(&buf, &bytes);
            prop_assert!(rx.is_empty());
        }
    }

    /// The full/empty boundary is exact: pushes are accepted while the
    /// record fits in `capacity - len()` and rejected otherwise; popping
    /// one record frees exactly its footprint.
    #[test]
    fn full_empty_boundary_is_exact(
        cap in 24usize..=512,
        record_len in 0usize..=64,
    ) {
        for Ends { tx, rx, .. } in &rings(cap) {
            let record_len = record_len.min(cap - RECORD_HEADER as usize);
            let footprint = RECORD_HEADER as usize + record_len;
            let bytes = payload(3, record_len);
            let mut pushed = 0usize;
            // Fill to the brim; the ledger tracks every accepted record.
            while tx.try_push(1, &bytes) {
                pushed += 1;
                prop_assert_eq!(rx.len(), (pushed * footprint) as u64);
                prop_assert!(pushed * footprint <= cap, "ring overcommitted");
            }
            prop_assert_eq!(pushed, cap / footprint, "acceptance must match exact fit");
            // No sacrificial slot: the reject happened only because the free
            // span is genuinely smaller than one footprint.
            prop_assert!(cap - pushed * footprint < footprint);
            let mut buf = Vec::new();
            prop_assert_eq!(rx.try_pop(&mut buf), Popped::Record(1));
            prop_assert_eq!(&buf, &bytes);
            // Exactly one footprint freed: one push fits again, a second would
            // exceed the span that single pop released.
            prop_assert!(tx.try_push(2, &bytes));
            prop_assert!(!tx.try_push(2, &bytes));
            // Drain everything; order and the ledger must reconcile.
            let mut drained = 0usize;
            loop {
                match rx.try_pop(&mut buf) {
                    Popped::Record(kind) => {
                        prop_assert_eq!(kind, if drained + 1 < pushed { 1 } else { 2 });
                        prop_assert_eq!(&buf, &bytes);
                        drained += 1;
                    }
                    Popped::Empty => break,
                    Popped::Corrupt => prop_assert!(false, "corrupt after {} records", drained),
                }
            }
            prop_assert_eq!(drained, pushed, "one popped, one pushed: count preserved");
            prop_assert_eq!(rx.len(), 0);
        }
    }

    /// Cross-thread stream with arbitrary payload mixes: a real producer
    /// and consumer agree on record order, kinds and bytes, and the
    /// consumer takes every record, then finds the ring empty.
    #[test]
    fn threaded_stream_agrees(
        cap in 64usize..=2048,
        lens in prop::collection::vec(0usize..=128, 1..400),
    ) {
        let biggest = cap - RECORD_HEADER as usize;
        let expect: Vec<usize> = lens.iter().map(|&l| l.min(biggest)).collect();
        for Ends { tx, rx, .. } in &rings(cap) {
            std::thread::scope(|s| {
                s.spawn(|| {
                    for (i, &len) in expect.iter().enumerate() {
                        let bytes = payload(i, len);
                        while !tx.try_push((i % 251) as u8, &bytes) {
                            std::hint::spin_loop();
                        }
                    }
                });
                let mut buf = Vec::new();
                let mut next = 0usize;
                while next < expect.len() {
                    match rx.try_pop(&mut buf) {
                        Popped::Record(kind) => {
                            prop_assert_eq!(kind, (next % 251) as u8);
                            prop_assert_eq!(&buf, &payload(next, expect[next]), "record {}", next);
                            next += 1;
                        }
                        Popped::Empty => std::hint::spin_loop(),
                        Popped::Corrupt => prop_assert!(false, "corrupt at record {}", next),
                    }
                }
            });
            prop_assert_eq!(rx.try_pop(&mut Vec::new()), Popped::Empty);
        }
    }
}
