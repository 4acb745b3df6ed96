//! Single-producer single-consumer byte ring over a [`Segment`].
//!
//! The ring carries variable-size records — `[len u32][kind u8][magic
//! u8][status u8][reserved u8]` header plus payload — through a fixed data
//! area. Cursors are *monotone byte counts* (they never wrap); only the
//! data offsets wrap, so "full" (`tail - head == capacity`) and "empty"
//! (`tail == head`) are unambiguous without a sacrificial slot. Records may
//! straddle the physical wrap point: every copy is split at the boundary.
//!
//! Publication protocol (model-checked in `tests/ring_protocol.rs`):
//!
//! - producer: read `Head` (acquire), check space, write record bytes,
//!   store `Tail = tail + n` (release);
//! - consumer: read `Tail` (acquire), parse records in `[head, tail)`,
//!   store `Head = head + n` (release).
//!
//! The acquire on `Tail` is what makes the record bytes visible to the
//! consumer; the acquire on `Head` is what lets the producer reuse space.
//! A consumer may keep a record at the head, or release it with a status
//! byte that the producer reads back once `Head` has passed it, and before
//! it reuses the space (the reclaim rule, in [`Segment`]'s contract).
//!
//! Each end remembers the other side's cursor as it last read it and goes
//! back to the shared word only when that copy says *full* (producer) or
//! *empty* (consumer). Cursors only grow, so a stale copy errs on the safe
//! side — it under-reports free space, or published bytes — and a burst of
//! records costs one load of the line the other side keeps writing, not one
//! per record. The close-drain re-read of `Tail` below bypasses the copy.
//!
//! Both ends can work on a record *in place*: [`SpscRing::try_push_with`]
//! hands the producer the record's span to fill before `Tail` moves, and
//! [`SpscRing::try_pop_with`] hands the consumer the span to read before
//! `Head` moves — so a record is written once and read where it lies, with
//! no staging buffer.
//! [`SpscRing::try_push`] / [`SpscRing::try_pop`] are the slice-and-`Vec`
//! conveniences over them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::segment::{Ctrl, Segment};

/// Per-record header bytes: `len: u32` | `kind: u8` | `magic: u8` |
/// `status: u8` | `reserved: u8`.
pub const RECORD_HEADER: u64 = 8;

/// Offset of the status byte in a record header: 0 as the producer writes
/// it, and whatever the consumer released the record with.
const STATUS_AT: u64 = 6;

/// Magic byte stamped into every record header; a mismatch on pop means
/// cursor corruption and is reported as poisoning, not silently skipped.
const RECORD_MAGIC: u8 = 0xA7;

/// What [`SpscRing::try_pop`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped {
    /// Nothing published.
    Empty,
    /// A record was read; its kind tag (payload is in the caller's scratch).
    Record(u8),
    /// The producer closed the ring and everything published was consumed.
    Closed,
}

/// The payload span of a record being published, handed to the filler of
/// [`SpscRing::try_push_with`]: up to two pieces of ring memory (split at
/// the physical wrap point), written front to back. Lets a producer gather
/// straight into the ring instead of staging the record first.
pub struct RecordWriter<'a> {
    first: &'a mut [u8],
    second: &'a mut [u8],
}

impl<'a> RecordWriter<'a> {
    /// A writer over `first` then `second` (any memory, not only a ring's:
    /// the fabric serialises a retransmission copy through the same code).
    pub fn new(first: &'a mut [u8], second: &'a mut [u8]) -> Self {
        RecordWriter { first, second }
    }

    /// Bytes not yet written.
    pub fn remaining(&self) -> usize {
        self.first.len() + self.second.len()
    }

    /// Hand the next `len` bytes to `fill`, one call per contiguous piece
    /// (two when the span straddles the wrap point), in order.
    pub fn fill(&mut self, len: usize, mut fill: impl FnMut(&mut [u8])) {
        assert!(len <= self.remaining(), "record writer overrun");
        let n = len.min(self.first.len());
        for (piece, n) in [(&mut self.first, n), (&mut self.second, len - n)] {
            if n > 0 {
                let (now, later) = std::mem::take(piece).split_at_mut(n);
                fill(now);
                *piece = later;
            }
        }
    }

    /// Write `bytes` next.
    pub fn put(&mut self, bytes: &[u8]) {
        let mut done = 0;
        self.fill(bytes.len(), |dst| {
            dst.copy_from_slice(&bytes[done..done + dst.len()]);
            done += dst.len();
        });
    }
}

/// The payload of the record at the head of the ring, handed to the reader
/// of [`SpscRing::try_pop_with`]: up to two pieces of ring memory, consumed
/// front to back. Lets a consumer copy each part of a record once, into the
/// buffer that will own it.
pub struct RecordReader<'a> {
    first: &'a [u8],
    second: &'a [u8],
    backlog: u64,
}

impl<'a> RecordReader<'a> {
    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.first.len() + self.second.len()
    }

    /// Everything not yet read, in place: the ring memory itself, in up to
    /// two pieces (the second is empty unless the record straddles the wrap
    /// point). Valid until the reader's closure returns and the space goes
    /// back to the producer; whatever must outlive that is copied out.
    pub fn rest(&self) -> [&'a [u8]; 2] {
        [self.first, self.second]
    }

    /// Bytes published and unconsumed as of the consumer's last `Tail` load,
    /// this record included: the ring's occupancy as this end knows it
    /// (exact when the load was made for this pop, a lower bound after).
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    /// Hand the next `len` bytes to `read`, one call per contiguous piece.
    fn drain(&mut self, len: usize, mut read: impl FnMut(&[u8])) {
        assert!(len <= self.remaining(), "record shorter than its format");
        let n = len.min(self.first.len());
        for (piece, n) in [(&mut self.first, n), (&mut self.second, len - n)] {
            if n > 0 {
                let (now, later) = piece.split_at(n);
                read(now);
                *piece = later;
            }
        }
    }

    /// Fill `dst` from the next `dst.len()` bytes.
    pub fn take(&mut self, dst: &mut [u8]) {
        let mut done = 0;
        self.drain(dst.len(), |src| {
            dst[done..done + src.len()].copy_from_slice(src);
            done += src.len();
        });
    }

    /// Append everything left to `dst`.
    pub fn append_rest_to(&mut self, dst: &mut Vec<u8>) {
        self.drain(self.remaining(), |src| dst.extend_from_slice(src));
    }
}

/// SPSC ring handle. Producer-side calls (`try_push*`, `close`) must come
/// from one logical producer, consumer-side calls from one logical
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

    /// Largest payload a single record can carry in this ring.
    pub fn max_payload(&self) -> u64 {
        self.seg.capacity().saturating_sub(RECORD_HEADER)
    }

    /// Mark the producer side closed (shutdown handshake): consumers keep
    /// draining and then observe [`Popped::Closed`].
    pub fn close(&self) {
        self.seg.ctrl_store(Ctrl::Closed, 1);
    }

    /// Whether the producer closed the ring.
    pub fn is_closed(&self) -> bool {
        self.seg.ctrl_load(Ctrl::Closed) != 0
    }

    /// Consumer-side attach acknowledgement (cross-process bring-up).
    pub fn mark_attached(&self) {
        self.seg.ctrl_store(Ctrl::Attached, 1);
    }

    /// Whether a consumer has attached.
    pub fn is_attached(&self) -> bool {
        self.seg.ctrl_load(Ctrl::Attached) != 0
    }

    /// The `len` data bytes at logical position `pos` as `(offset, first,
    /// second)`: `first` bytes at physical `offset`, then `second` bytes at
    /// physical 0 (non-zero only when the span straddles the wrap point).
    fn split(&self, pos: u64, len: usize) -> (usize, usize, usize) {
        let cap = self.seg.capacity();
        assert!(len as u64 <= cap, "span longer than the ring");
        let off = pos % cap;
        let first = ((cap - off) as usize).min(len);
        (off as usize, first, len - first)
    }

    /// Copy `bytes` into the data area starting at logical position `pos`,
    /// splitting at the physical wrap point.
    fn write_wrapped(&self, pos: u64, bytes: &[u8]) {
        let (off, first, _) = self.split(pos, bytes.len());
        self.seg.data_write(off as u64, &bytes[..first]);
        if first < bytes.len() {
            self.seg.data_write(0, &bytes[first..]);
        }
    }

    /// Copy `dst.len()` bytes out of the data area from logical position
    /// `pos`, splitting at the physical wrap point.
    fn read_wrapped(&self, pos: u64, dst: &mut [u8]) {
        let (off, first, _) = self.split(pos, dst.len());
        self.seg.data_read(off as u64, &mut dst[..first]);
        if first < dst.len() {
            self.seg.data_read(0, &mut dst[first..]);
        }
    }

    /// Publish one record. Returns `false` when the ring lacks space (the
    /// caller retries after the consumer advances). Panics if the record
    /// can never fit (payload larger than the ring).
    pub fn try_push(&self, kind: u8, payload: &[u8]) -> bool {
        self.try_push_with(kind, payload.len(), |w| w.put(payload))
    }

    /// Publish one record of `len` payload bytes that `fill` writes in
    /// place. `fill` runs only when the record fits, and must write exactly
    /// `len` bytes; the record becomes visible to the consumer when it
    /// returns. Returns and panics as [`try_push`](Self::try_push).
    pub fn try_push_with(
        &self,
        kind: u8,
        len: usize,
        fill: impl FnOnce(&mut RecordWriter<'_>),
    ) -> bool {
        let need = RECORD_HEADER + len as u64;
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
            head = self.seg.ctrl_load(Ctrl::Head);
            self.seen_head.store(head, Ordering::Relaxed);
            if cap - (tail - head) < need {
                return false;
            }
        }
        let mut header = [0u8; RECORD_HEADER as usize];
        header[..4].copy_from_slice(&(len as u32).to_le_bytes());
        header[4] = kind;
        header[5] = RECORD_MAGIC;
        self.write_wrapped(tail, &header);
        let (off, first, second) = self.split(tail + RECORD_HEADER, len);
        let data = self.seg.data();
        // SAFETY: `split` keeps both pieces inside the data area, and they
        // are disjoint (`first + second <= cap`). The span lies in `[tail,
        // head + cap)`, checked free above against a `Head` that only
        // grows: the consumer reads nothing past `Tail`, which has not
        // moved yet, and there is one logical producer, so nothing else
        // touches these bytes while the slices live.
        let mut writer = unsafe {
            RecordWriter::new(
                std::slice::from_raw_parts_mut(data.add(off), first),
                std::slice::from_raw_parts_mut(data, second),
            )
        };
        fill(&mut writer);
        assert_eq!(writer.remaining(), 0, "record filler stopped short");
        self.seg.ctrl_store(Ctrl::Tail, tail + need);
        true
    }

    /// Consume one record if available, appending its payload to `scratch`
    /// (cleared first).
    ///
    /// # Panics
    ///
    /// On header corruption (bad magic or a length exceeding the published
    /// span) — the cursors are no longer trustworthy and continuing would
    /// deliver garbage bytes into registered memory.
    pub fn try_pop(&self, scratch: &mut Vec<u8>) -> Popped {
        let popped = self.try_pop_with(|kind, payload| {
            scratch.clear();
            payload.append_rest_to(scratch);
            kind
        });
        match popped {
            Ok(kind) => Popped::Record(kind),
            Err(none) => none,
        }
    }

    /// Consume one record if available: `read` gets its kind tag and its
    /// payload in place, and the space is handed back to the producer when
    /// it returns. `Err` is [`Popped::Empty`] or [`Popped::Closed`], never
    /// a record. Panics as [`try_pop`](Self::try_pop).
    pub fn try_pop_with<R>(
        &self,
        read: impl FnOnce(u8, &mut RecordReader<'_>) -> R,
    ) -> Result<R, Popped> {
        self.try_take_with(|kind, payload| (read(kind, payload), Some(0)))
    }

    /// Read the record at the head in place, as
    /// [`try_pop_with`](Self::try_pop_with) does, and let `read` say what
    /// becomes of it: `Some(status)` releases it, a non-zero `status` first
    /// written into its header for the producer
    /// ([`status_at`](Self::status_at)); `None` leaves it at the head, to be
    /// read again by the next call.
    pub(crate) fn try_take_with<R>(
        &self,
        read: impl FnOnce(u8, &mut RecordReader<'_>) -> (R, Option<u8>),
    ) -> Result<R, Popped> {
        let head = self.seg.ctrl_load(Ctrl::Head);
        // As `seen_head` in `try_push_with`: this side's own word, and the
        // acquire that publishes the bytes below it was made when it was
        // read from `Tail`.
        let mut tail = self.seen_tail.load(Ordering::Relaxed);
        if tail <= head {
            // Empty as far as the remembered `Tail` says (behind `Head`
            // when another handle consumed since): look again.
            tail = self.seg.ctrl_load(Ctrl::Tail);
            if tail == head {
                if !self.is_closed() {
                    return Err(Popped::Empty);
                }
                // `Closed` may have been observed between our `Tail` load
                // and the producer's final publishes (push … push, close).
                // Having seen the close flag (acquire), re-read `Tail` —
                // the word itself, not the remembered copy: every record
                // published before the close must still drain, or the
                // consumer would drop the stream's suffix.
                tail = self.seg.ctrl_load(Ctrl::Tail);
                if tail == head {
                    return Err(Popped::Closed);
                }
            }
            self.seen_tail.store(tail, Ordering::Relaxed);
        }
        // Saturating: a `Tail` behind `Head` is corruption too.
        let avail = tail.saturating_sub(head);
        assert!(
            avail >= RECORD_HEADER && avail <= self.seg.capacity(),
            "ring cursors corrupt: {avail} bytes published at head {head}"
        );
        let mut header = [0u8; RECORD_HEADER as usize];
        self.read_wrapped(head, &mut header);
        let len = u32::from_le_bytes(header[..4].try_into().expect("fixed slice")) as u64;
        let kind = header[4];
        assert_eq!(
            header[5], RECORD_MAGIC,
            "ring record magic mismatch at head {head}"
        );
        assert!(
            RECORD_HEADER + len <= avail,
            "ring record length {len} exceeds published span {avail}"
        );
        let (off, first, second) = self.split(head + RECORD_HEADER, len as usize);
        let data = self.seg.data();
        // SAFETY: `split` keeps both pieces inside the data area. The span
        // lies in `[head, tail)`, published by the `Tail` release acquired
        // above; the producer writes nothing before `Head + cap`, and `Head`
        // moves only below, after the slices are gone (one logical
        // consumer).
        let mut reader = unsafe {
            RecordReader {
                first: std::slice::from_raw_parts(data.add(off), first),
                second: std::slice::from_raw_parts(data, second),
                backlog: avail,
            }
        };
        let (out, release) = read(kind, &mut reader);
        if let Some(status) = release {
            if status != 0 {
                // Before `Head` moves: its release publishes the byte.
                self.write_wrapped(head + STATUS_AT, &[status]);
            }
            self.seg.ctrl_store(Ctrl::Head, head + RECORD_HEADER + len);
        }
        Ok(out)
    }

    /// Producer side: the status byte of the record published at `pos` (0
    /// unless the consumer released it with another), once `Head` has
    /// passed it and until its space is reused.
    pub(crate) fn status_at(&self, pos: u64) -> u8 {
        let mut status = [0u8];
        self.read_wrapped(pos + STATUS_AT, &mut status);
        status[0]
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
    fn in_place_push_and_pop_straddle_the_wrap_point() {
        let r = ring(48);
        let mut buf = Vec::new();
        // Park the cursors at 30: the next record's 8-byte header ends at
        // 38, its 16-byte payload wraps after 10 bytes.
        assert!(r.try_push(0, &[0; 22]));
        assert_eq!(r.try_pop(&mut buf), Popped::Record(0));
        let pushed = r.try_push_with(9, 16, |w| {
            assert_eq!(w.remaining(), 16);
            w.put(b"head:");
            // A gather source that is asked for each contiguous piece.
            let mut next = 0u8;
            w.fill(11, |dst| {
                for b in dst {
                    *b = next;
                    next += 1;
                }
            });
        });
        assert!(pushed);
        let (tag, body) = r
            .try_pop_with(|kind, payload| {
                assert_eq!((kind, payload.remaining()), (9, 16));
                let mut tag = [0u8; 5];
                payload.take(&mut tag);
                let mut body = Vec::new();
                payload.append_rest_to(&mut body);
                (tag, body)
            })
            .expect("a record is waiting");
        assert_eq!(&tag, b"head:");
        assert_eq!(body, (0..11).collect::<Vec<u8>>());
        assert_eq!(r.try_pop_with(|_, _| ()), Err(Popped::Empty));
        assert!(r.is_empty(), "the space went back when the reader returned");
    }

    /// A record the consumer keeps is read again, whole, by the next take;
    /// one it releases with a status hands that status back to the
    /// producer, here through a header that straddles the wrap point.
    #[test]
    fn a_kept_record_is_read_again_and_a_released_one_carries_its_status() {
        let r = ring(40);
        // Park the cursors at 34: the next header's status byte is the
        // first byte of the data area.
        assert!(r.try_push(0, &[0; 26]));
        assert_eq!(r.try_pop_with(|_, _| ()), Ok(()));
        assert!(r.try_push(7, b"abc"));
        let at = r.consumed();
        let peek = |kind, p: &mut RecordReader<'_>| ((kind, p.remaining()), None);
        assert_eq!(r.try_take_with(peek), Ok((7, 3)));
        assert_eq!(r.try_take_with(peek), Ok((7, 3)), "kept, and read again");
        assert_eq!(r.consumed(), at);
        assert_eq!(r.try_take_with(|kind, _| (kind, Some(0x5c))), Ok(7));
        assert_eq!(r.consumed(), r.published(), "released");
        assert_eq!(r.status_at(at), 0x5c);
        // Released with 0, a record's status is the producer's own 0.
        assert!(r.try_push(8, b"d"));
        let at = r.consumed();
        assert_eq!(r.try_pop_with(|kind, _| kind), Ok(8));
        assert_eq!(r.status_at(at), 0);
    }

    #[test]
    #[should_panic(expected = "stopped short")]
    fn filler_that_stops_short_publishes_nothing() {
        let r = ring(64);
        let _ = r.try_push_with(1, 8, |w| w.put(b"four"));
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
    fn close_drains_then_reports_closed() {
        let r = ring(64);
        assert!(r.try_push(9, b"last"));
        r.close();
        let mut buf = Vec::new();
        assert_eq!(r.try_pop(&mut buf), Popped::Record(9));
        assert_eq!(r.try_pop(&mut buf), Popped::Closed);
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn oversized_record_panics() {
        let r = ring(16);
        let _ = r.try_push(0, &[0; 64]);
    }

    #[test]
    fn cross_thread_stream() {
        let seg = Arc::new(HeapSegment::new(512));
        let tx = SpscRing::new(seg.clone());
        let rx = SpscRing::new(seg);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                let payload = i.to_le_bytes();
                while !tx.try_push((i % 251) as u8, &payload) {
                    std::hint::spin_loop();
                }
            }
            tx.close();
        });
        let mut buf = Vec::new();
        let mut next = 0u32;
        loop {
            match rx.try_pop(&mut buf) {
                Popped::Record(kind) => {
                    assert_eq!(kind, (next % 251) as u8);
                    assert_eq!(buf, next.to_le_bytes());
                    next += 1;
                }
                Popped::Empty => std::hint::spin_loop(),
                Popped::Closed => break,
            }
        }
        assert_eq!(next, 10_000);
        producer.join().unwrap();
    }
}
