//! Single-producer single-consumer byte ring over a [`Segment`].
//!
//! The ring carries variable-size records — `[len u32][kind u8][magic
//! u8][reserved u16]` header plus payload — through a fixed data area.
//! Cursors are *monotone byte counts* (they never wrap); only the data
//! offsets wrap, so "full" (`tail - head == capacity`) and "empty" (`tail ==
//! head`) are unambiguous without a sacrificial slot. Records may straddle
//! the physical wrap point: a copy that crosses it is split there.
//!
//! Publication protocol (model-checked in `tests/ring_protocol.rs`):
//!
//! - producer: read `Head` (acquire), check space, write record bytes,
//!   store `Tail = tail + n` (release);
//! - consumer: read `Tail` (acquire), copy the record at `head` out, store
//!   `Head = head + n` (release).
//!
//! The acquire on `Tail` is what makes the record bytes visible to the
//! consumer; the acquire on `Head` is what lets the producer reuse space.
//!
//! Each end remembers the other side's cursor as it last read it and goes
//! back to the shared word only when that copy says *full* (producer) or
//! *empty* (consumer). Cursors only grow, so a stale copy errs on the safe
//! side — it under-reports free space, or published bytes — and a burst of
//! records costs one load of the line the other side keeps writing, not one
//! per record.
//!
//! The ring has no close: it is a record queue, and teardown is the
//! owner's, out of band. The words one end reads are the other end's to
//! write, and in host mode that is another process: a `Head` past `Tail` is
//! read as `Tail` (an empty ring), never as more room than the ring has, and
//! a `Tail` or a record header that no producer of this ring writes pops as
//! [`Popped::Corrupt`], never as a panic or as bytes out of bounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::segment::{Ctrl, Segment};

/// Per-record header bytes: `len: u32` | `kind: u8` | `magic: u8` |
/// `reserved: u16`.
pub const RECORD_HEADER: u64 = 8;

/// Magic byte stamped into every record header; a mismatch on pop means
/// the bytes at `Head` are no record.
const RECORD_MAGIC: u8 = 0xA7;

/// What [`SpscRing::try_pop`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped {
    /// Nothing published.
    Empty,
    /// A record was read; its kind tag (payload is in the caller's scratch).
    Record(u8),
    /// The cursors or the record header at `Head` are not what a producer
    /// of this ring writes (a bad magic, a length past `Tail`, or a `Tail`
    /// behind `Head` or more than a capacity ahead of it). Nothing was
    /// consumed: the ring cannot be read past this point.
    Corrupt,
}

/// SPSC ring handle. Producer-side calls (`try_push`) must come from one
/// logical producer, consumer-side calls (`try_pop`) from one logical
/// consumer; the fabric serialises each side with its own lock.
pub struct SpscRing {
    seg: Arc<dyn Segment>,
    /// `Head` as the producer last read it; written by the producer only.
    /// Never ahead of the true `Head`.
    seen_head: AtomicU64,
    /// `Tail` as the consumer last read it; written by the consumer only.
    /// Never ahead of the true `Tail`.
    seen_tail: AtomicU64,
}

impl SpscRing {
    /// Wrap `seg`. The segment's control words must start zeroed (freshly
    /// created) or hold a consistent prior state (reattach).
    pub fn new(seg: Arc<dyn Segment>) -> Self {
        let seen_head = AtomicU64::new(seg.ctrl_load(Ctrl::Head));
        let seen_tail = AtomicU64::new(seg.ctrl_load(Ctrl::Tail));
        SpscRing {
            seg,
            seen_head,
            seen_tail,
        }
    }

    /// Data capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.seg.capacity()
    }

    /// Bytes currently published but unconsumed.
    pub fn len(&self) -> u64 {
        let tail = self.seg.ctrl_load(Ctrl::Tail);
        let head = self.seg.ctrl_load(Ctrl::Head);
        tail.saturating_sub(head)
    }

    /// Producer side: an upper bound on [`len`](Self::len) from the
    /// producer's own cursor and its remembered `Head`, touching nothing the
    /// consumer writes.
    pub fn len_bound(&self) -> u64 {
        let tail = self.seg.ctrl_load(Ctrl::Tail);
        tail.saturating_sub(self.seen_head.load(Ordering::Relaxed))
    }

    /// Producer side: [`len`](Self::len), with the `Head` it loads kept as
    /// the remembered one, so that [`len_bound`](Self::len_bound) is exact
    /// again until the next push.
    pub(crate) fn producer_len(&self) -> u64 {
        let tail = self.seg.ctrl_load(Ctrl::Tail);
        let head = self.seg.ctrl_load(Ctrl::Head).min(tail);
        self.seen_head.store(head, Ordering::Relaxed);
        tail - head
    }

    /// Bytes ever consumed: the consumer's cursor.
    pub fn consumed(&self) -> u64 {
        self.seg.ctrl_load(Ctrl::Head)
    }

    /// Bytes ever published: the producer's cursor.
    pub(crate) fn published(&self) -> u64 {
        self.seg.ctrl_load(Ctrl::Tail)
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumer-side attach acknowledgement (cross-process bring-up).
    pub fn mark_attached(&self) {
        self.seg.ctrl_store(Ctrl::Attached, 1);
    }

    /// Whether a consumer has attached.
    pub fn is_attached(&self) -> bool {
        self.seg.ctrl_load(Ctrl::Attached) != 0
    }

    /// Copy `bytes` into the data area starting at logical position `pos`:
    /// one copy, or two when the span straddles the physical wrap point.
    fn write_wrapped(&self, pos: u64, bytes: &[u8]) {
        let cap = self.seg.capacity();
        let off = pos % cap;
        let first = ((cap - off) as usize).min(bytes.len());
        self.seg.data_write(off, &bytes[..first]);
        if first < bytes.len() {
            self.seg.data_write(0, &bytes[first..]);
        }
    }

    /// Copy `dst.len()` bytes out of the data area from logical position
    /// `pos`: one copy, or two when the span straddles the physical wrap
    /// point.
    fn read_wrapped(&self, pos: u64, dst: &mut [u8]) {
        let cap = self.seg.capacity();
        let off = pos % cap;
        let first = ((cap - off) as usize).min(dst.len());
        self.seg.data_read(off, &mut dst[..first]);
        if first < dst.len() {
            self.seg.data_read(0, &mut dst[first..]);
        }
    }

    /// Publish one record. Returns `false` when the ring lacks space (the
    /// caller retries after the consumer advances). Panics if the record
    /// can never fit (payload larger than the ring).
    pub fn try_push(&self, kind: u8, payload: &[u8]) -> bool {
        let need = RECORD_HEADER + payload.len() as u64;
        let cap = self.seg.capacity();
        assert!(
            need <= cap,
            "record of {need} bytes exceeds ring capacity {cap}"
        );
        let tail = self.seg.ctrl_load(Ctrl::Tail);
        // `seen_head` is this side's own word (Relaxed is enough: the
        // acquire that lets the space be reused was made when it was read
        // from `Head`, by this same logical producer).
        let mut head = self.seen_head.load(Ordering::Relaxed);
        if cap - (tail - head) < need {
            // Full as far as the remembered `Head` says: look again.
            head = self.seg.ctrl_load(Ctrl::Head).min(tail);
            self.seen_head.store(head, Ordering::Relaxed);
            if cap - (tail - head) < need {
                return false;
            }
        }
        let mut header = [0u8; RECORD_HEADER as usize];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4] = kind;
        header[5] = RECORD_MAGIC;
        // The span `[tail, tail + need)` lies below `head + cap`, checked
        // free above against a `Head` that only grows, and the consumer
        // reads nothing past `Tail`, which moves only once it is written.
        self.write_wrapped(tail, &header);
        self.write_wrapped(tail + RECORD_HEADER, payload);
        self.seg.ctrl_store(Ctrl::Tail, tail + need);
        true
    }

    /// Consume one record if available, its payload copied into `scratch`
    /// (resized to the payload's length), and hand its space back to the
    /// producer. A [`Popped::Corrupt`] consumes nothing and leaves `scratch`
    /// as it was.
    pub fn try_pop(&self, scratch: &mut Vec<u8>) -> Popped {
        let head = self.seg.ctrl_load(Ctrl::Head);
        // As `seen_head` in `try_push`: this side's own word, and the
        // acquire that publishes the bytes below it was made when it was
        // read from `Tail`.
        let mut tail = self.seen_tail.load(Ordering::Relaxed);
        if tail <= head {
            // Empty as far as the remembered `Tail` says (behind `Head`
            // when another handle consumed since): look again.
            tail = self.seg.ctrl_load(Ctrl::Tail);
            if tail == head {
                return Popped::Empty;
            }
            self.seen_tail.store(tail, Ordering::Relaxed);
        }
        // Saturating: a `Tail` behind `Head` is corrupt too.
        let avail = tail.saturating_sub(head);
        if avail < RECORD_HEADER || avail > self.seg.capacity() {
            return Popped::Corrupt;
        }
        let mut header = [0u8; RECORD_HEADER as usize];
        self.read_wrapped(head, &mut header);
        let len = u32::from_le_bytes(header[..4].try_into().expect("fixed slice")) as u64;
        if header[5] != RECORD_MAGIC || RECORD_HEADER + len > avail {
            return Popped::Corrupt;
        }
        // Every byte is overwritten: a scratch that held a record of the
        // same length is not filled first.
        scratch.resize(len as usize, 0);
        self.read_wrapped(head + RECORD_HEADER, scratch);
        self.seg.ctrl_store(Ctrl::Head, head + RECORD_HEADER + len);
        Popped::Record(header[4])
    }
}

#[cfg(test)]
mod tests {
    use super::super::segment::HeapSegment;
    use super::*;

    fn ring(cap: usize) -> SpscRing {
        SpscRing::new(Arc::new(HeapSegment::new(cap)))
    }

    #[test]
    fn push_pop_round_trip() {
        let r = ring(256);
        assert!(r.try_push(1, b"hello"));
        assert!(r.try_push(2, b""));
        let mut buf = Vec::new();
        assert_eq!(r.try_pop(&mut buf), Popped::Record(1));
        assert_eq!(buf, b"hello");
        assert_eq!(r.try_pop(&mut buf), Popped::Record(2));
        assert!(buf.is_empty());
        assert_eq!(r.try_pop(&mut buf), Popped::Empty);
    }

    #[test]
    fn records_straddle_the_wrap_point() {
        let r = ring(32);
        let mut buf = Vec::new();
        // Walk the cursors until pushes land at every offset mod 32,
        // forcing header and payload splits.
        for i in 0..64u8 {
            let payload = vec![i; (i % 13) as usize];
            assert!(r.try_push(i, &payload), "push {i}");
            assert_eq!(r.try_pop(&mut buf), Popped::Record(i));
            assert_eq!(buf, payload, "record {i}");
        }
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_rejects_then_accepts_after_drain() {
        let r = ring(40); // room for exactly two 8+12 records
        assert!(r.try_push(0, &[1; 12]));
        assert!(r.try_push(1, &[2; 12]));
        assert!(!r.try_push(2, &[3; 12]), "full ring must reject");
        let mut buf = Vec::new();
        assert_eq!(r.try_pop(&mut buf), Popped::Record(0));
        assert!(r.try_push(2, &[3; 12]), "freed space must be reusable");
        assert_eq!(r.try_pop(&mut buf), Popped::Record(1));
        assert_eq!(r.try_pop(&mut buf), Popped::Record(2));
        assert_eq!(buf, [3; 12]);
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn oversized_record_panics() {
        let r = ring(16);
        let _ = r.try_push(0, &[0; 64]);
    }

    /// A ring of 64 bytes holding one 4-byte record, with `corrupt` applied
    /// to its segment as another process could: every pop then reports
    /// [`Popped::Corrupt`], consumes nothing and leaves the scratch alone.
    fn assert_pops_corrupt(corrupt: impl FnOnce(&HeapSegment)) {
        let seg = Arc::new(HeapSegment::new(64));
        let r = SpscRing::new(seg.clone());
        assert!(r.try_push(3, b"four"));
        corrupt(&seg);
        let mut buf = b"kept".to_vec();
        for _ in 0..2 {
            assert_eq!(r.try_pop(&mut buf), Popped::Corrupt);
            assert_eq!(r.consumed(), 0, "a corrupt record consumes nothing");
            assert_eq!(buf, b"kept");
        }
    }

    #[test]
    fn a_record_with_a_bad_magic_pops_corrupt() {
        assert_pops_corrupt(|seg| seg.data_write(5, &[0]));
    }

    #[test]
    fn a_record_longer_than_what_tail_publishes_pops_corrupt() {
        // 4 + 8 bytes published; the header claims 5 of payload.
        assert_pops_corrupt(|seg| seg.data_write(0, &5u32.to_le_bytes()));
    }

    #[test]
    fn a_tail_more_than_a_capacity_ahead_of_head_pops_corrupt() {
        assert_pops_corrupt(|seg| seg.ctrl_store(Ctrl::Tail, 64 + 12));
    }

    #[test]
    fn cross_thread_stream() {
        const N: u32 = 10_000;
        let seg = Arc::new(HeapSegment::new(512));
        let tx = SpscRing::new(seg.clone());
        let rx = SpscRing::new(seg);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let payload = i.to_le_bytes();
                while !tx.try_push((i % 251) as u8, &payload) {
                    std::hint::spin_loop();
                }
            }
        });
        let mut buf = Vec::new();
        let mut next = 0u32;
        while next < N {
            match rx.try_pop(&mut buf) {
                Popped::Record(kind) => {
                    assert_eq!(kind, (next % 251) as u8);
                    assert_eq!(buf, next.to_le_bytes());
                    next += 1;
                }
                Popped::Empty => std::hint::spin_loop(),
                Popped::Corrupt => panic!("corrupt at record {next}"),
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.try_pop(&mut buf), Popped::Empty);
    }
}
