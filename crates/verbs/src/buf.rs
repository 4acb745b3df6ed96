//! Zero-copy data-plane buffers: a recycling payload arena and a small-vec.
//!
//! The steady-state hot path must not touch the heap per packet. Two pieces
//! make that hold:
//!
//! - [`PayloadArena`]: a size-classed pool of `Vec<u8>` payload buffers.
//!   [`PayloadArena::get`] hands out a [`PooledBufMut`]; filling it and
//!   calling [`PooledBufMut::freeze`] yields a refcounted [`PooledBuf`] that
//!   clones by bumping a refcount (retransmissions and ghost duplicates
//!   share the slot buffer) and returns its storage to the pool when the
//!   last clone drops. After warm-up every `get` is a pool hit: zero
//!   allocations per message.
//! - [`InlineVec`]: a four-slot inline vector for SGE lists and resolved
//!   segments. Partitioned aggregation posts one or two SGEs per WR, so the
//!   common case never spills; pathological lists fall back to a heap `Vec`.
//!
//! The arena reports into [`partix_telemetry::ArenaCounters`] when built
//! with a registry: pool hits/misses/returns obey conservation laws 13–14
//! and `live_high_water` records peak concurrent buffer usage.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use partix_telemetry::Registry;

/// Size classes, in bytes. A request is served from the smallest class that
/// fits; larger requests are allocated exactly and still recycled through
/// the oversized class list.
const CLASSES: [usize; 6] = [256, 1024, 4096, 16384, 65536, 262144];

/// Maximum buffers retained per class; beyond this, returned buffers are
/// dropped to bound idle memory.
const PER_CLASS_CAP: usize = 64;

fn class_for(len: usize) -> Option<usize> {
    CLASSES.iter().position(|&c| len <= c)
}

/// Shared pool state: one free list per size class plus one for oversized
/// buffers (kept sorted-agnostic; first-fit scan, they are rare).
struct Pools {
    classes: [Vec<Vec<u8>>; CLASSES.len()],
    oversized: Vec<Vec<u8>>,
}

struct ArenaInner {
    pools: Mutex<Pools>,
    /// Live (handed-out, not yet returned) buffer count, for the
    /// high-water gauge.
    live: AtomicU64,
    telemetry: Mutex<Option<Arc<Registry>>>,
}

/// A recycling pool of payload buffers (see module docs).
///
/// Cheaply cloneable; all clones share the same pools. The arena is
/// internally synchronised and safe to use from the instant fabric's
/// multi-threaded callers.
#[derive(Clone)]
pub struct PayloadArena {
    inner: Arc<ArenaInner>,
}

impl Default for PayloadArena {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PayloadArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PayloadArena")
            .field("live", &self.inner.live.load(Ordering::Relaxed))
            .finish()
    }
}

impl PayloadArena {
    /// A fresh arena with empty pools and no telemetry.
    pub fn new() -> Self {
        PayloadArena {
            inner: Arc::new(ArenaInner {
                pools: Mutex::new(Pools {
                    classes: Default::default(),
                    oversized: Vec::new(),
                }),
                live: AtomicU64::new(0),
                telemetry: Mutex::new(None),
            }),
        }
    }

    /// Attach the telemetry registry the arena's ledger reports into.
    pub fn set_telemetry(&self, reg: Arc<Registry>) {
        *self.inner.telemetry.lock() = Some(reg);
    }

    /// Hand out a zeroed-length buffer with capacity for at least `len`
    /// bytes, recycling a pooled one when available.
    pub fn get(&self, len: usize) -> PooledBufMut {
        let mut data = {
            let mut pools = self.inner.pools.lock();
            match class_for(len) {
                Some(ci) => pools.classes[ci].pop(),
                None => {
                    // Oversized: first pooled buffer with enough capacity.
                    let pos = pools.oversized.iter().position(|b| b.capacity() >= len);
                    pos.map(|p| pools.oversized.swap_remove(p))
                }
            }
        };
        let hit = data.is_some();
        let data = match data.take() {
            Some(mut d) => {
                d.clear();
                d
            }
            None => {
                let cap = class_for(len).map(|ci| CLASSES[ci]).unwrap_or(len);
                Vec::with_capacity(cap)
            }
        };
        let live = self.inner.live.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(reg) = self.inner.telemetry.lock().as_ref() {
            let a = &reg.arena;
            a.pool_gets.inc();
            if hit {
                a.pool_hits.inc();
            } else {
                a.pool_misses.inc();
            }
            a.live_high_water.record_max(live);
        }
        PooledBufMut {
            data,
            arena: Arc::downgrade(&self.inner),
        }
    }

    /// Buffers currently pooled (diagnostics / tests).
    pub fn pooled(&self) -> usize {
        let pools = self.inner.pools.lock();
        pools.classes.iter().map(Vec::len).sum::<usize>() + pools.oversized.len()
    }

    /// Buffers currently handed out and not yet returned.
    pub fn live(&self) -> u64 {
        self.inner.live.load(Ordering::Relaxed)
    }
}

impl ArenaInner {
    /// Return a buffer's storage to its class pool (or drop it when the
    /// class is at capacity), and settle the ledger.
    fn put_back(&self, mut data: Vec<u8>) {
        data.clear();
        {
            let mut pools = self.pools.lock();
            let list = match class_for(data.capacity().max(1)) {
                // Class by *capacity*: a buffer always re-enters the list it
                // can serve.
                Some(ci) if data.capacity() == CLASSES[ci] => &mut pools.classes[ci],
                _ => &mut pools.oversized,
            };
            if list.len() < PER_CLASS_CAP {
                list.push(data);
            }
        }
        self.live.fetch_sub(1, Ordering::Relaxed);
        if let Some(reg) = self.telemetry.lock().as_ref() {
            reg.arena.pool_returns.inc();
        }
    }
}

/// An exclusively-owned, writable pooled buffer. Fill it (it derefs to
/// `Vec<u8>`), then [`freeze`](Self::freeze) it into a shareable
/// [`PooledBuf`]. Dropping it unfrozen returns the storage to the pool.
pub struct PooledBufMut {
    data: Vec<u8>,
    arena: Weak<ArenaInner>,
}

impl PooledBufMut {
    /// Freeze into an immutable, refcounted handle whose clones share this
    /// storage.
    pub fn freeze(mut self) -> PooledBuf {
        let data = std::mem::take(&mut self.data);
        let arena = std::mem::replace(&mut self.arena, Weak::new());
        std::mem::forget(self);
        PooledBuf {
            inner: Arc::new(PooledInner { data, arena }),
        }
    }
}

impl Deref for PooledBufMut {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.data
    }
}

impl DerefMut for PooledBufMut {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }
}

impl Drop for PooledBufMut {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.upgrade() {
            arena.put_back(std::mem::take(&mut self.data));
        }
    }
}

struct PooledInner {
    data: Vec<u8>,
    arena: Weak<ArenaInner>,
}

impl Drop for PooledInner {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.upgrade() {
            arena.put_back(std::mem::take(&mut self.data));
        }
    }
}

/// An immutable, refcounted pooled payload. Cloning bumps a refcount — a
/// retransmission or ghost duplicate shares the original's slot buffer and
/// the storage cannot re-enter the pool while any clone is alive.
#[derive(Clone)]
pub struct PooledBuf {
    inner: Arc<PooledInner>,
}

impl PooledBuf {
    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.inner.data
    }

    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.data.len()
    }

    /// True when the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.data.is_empty()
    }

    /// True when two handles share the same storage (diagnostics / tests).
    pub fn ptr_eq(a: &PooledBuf, b: &PooledBuf) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }
}

impl Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner.data
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.len())
            .finish()
    }
}

/// How many elements an [`InlineVec`] stores without touching the heap.
pub const INLINE_CAP: usize = 4;

/// A vector with four inline slots and a heap spill for longer lists.
///
/// SGE lists and resolved segment lists are almost always 1–2 entries; this
/// keeps them on the stack (or inside the `TransferJob`) with no `Vec`
/// allocation. The API is the small subset the data plane needs.
#[derive(Clone, Debug)]
pub struct InlineVec<T> {
    inline: [Option<T>; INLINE_CAP],
    len: usize,
    spill: Vec<T>,
}

impl<T> Default for InlineVec<T> {
    fn default() -> Self {
        InlineVec {
            inline: [None, None, None, None],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl<T> InlineVec<T> {
    /// An empty vector (no heap allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append an element; spills to the heap past [`INLINE_CAP`].
    #[inline]
    pub fn push(&mut self, v: T) {
        if self.len < INLINE_CAP {
            self.inline[self.len] = Some(v);
        } else {
            self.spill.push(v);
        }
        self.len += 1;
    }

    /// The element at `i`, if any.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            None
        } else if i < INLINE_CAP {
            self.inline[i].as_ref()
        } else {
            self.spill.get(i - INLINE_CAP)
        }
    }

    /// Iterate the elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline
            .iter()
            .take(self.len.min(INLINE_CAP))
            .filter_map(Option::as_ref)
            .chain(self.spill.iter())
    }

    /// Drop all elements, keeping any spill capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.inline {
            *slot = None;
        }
        self.spill.clear();
        self.len = 0;
    }
}

/// Owning iterator over an [`InlineVec`], in insertion order.
pub struct InlineVecIntoIter<T> {
    inline: [Option<T>; INLINE_CAP],
    idx: usize,
    len: usize,
    spill: std::vec::IntoIter<T>,
}

impl<T> Iterator for InlineVecIntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.idx < self.len.min(INLINE_CAP) {
            let v = self.inline[self.idx].take();
            self.idx += 1;
            v
        } else {
            self.spill.next()
        }
    }
}

impl<T> IntoIterator for InlineVec<T> {
    type Item = T;
    type IntoIter = InlineVecIntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        InlineVecIntoIter {
            inline: self.inline,
            idx: 0,
            len: self.len,
            spill: self.spill.into_iter(),
        }
    }
}

impl<T> FromIterator<T> for InlineVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_and_counts() {
        let arena = PayloadArena::new();
        let reg = Arc::new(Registry::new());
        arena.set_telemetry(reg.clone());

        let mut b = arena.get(1000);
        assert!(b.capacity() >= 1000);
        b.extend_from_slice(&[7u8; 100]);
        let frozen = b.freeze();
        assert_eq!(frozen.len(), 100);
        assert_eq!(arena.live(), 1);
        drop(frozen);
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.pooled(), 1);

        // Second get of the same class is a pool hit.
        let b2 = arena.get(512);
        drop(b2);
        let a = &reg.arena;
        assert_eq!(a.pool_gets.get(), 2);
        assert_eq!(a.pool_hits.get(), 1);
        assert_eq!(a.pool_misses.get(), 1);
        assert_eq!(a.pool_returns.get(), 2);
        assert_eq!(a.live_high_water.get(), 1);
    }

    #[test]
    fn clones_share_storage_and_defer_return() {
        let arena = PayloadArena::new();
        let mut b = arena.get(64);
        b.push(1);
        let f1 = b.freeze();
        let f2 = f1.clone();
        assert!(PooledBuf::ptr_eq(&f1, &f2));
        drop(f1);
        assert_eq!(arena.pooled(), 0, "clone still alive; no return yet");
        drop(f2);
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn oversized_buffers_recycle_too() {
        let arena = PayloadArena::new();
        let big = CLASSES[CLASSES.len() - 1] + 1;
        let b = arena.get(big);
        assert!(b.capacity() >= big);
        drop(b);
        assert_eq!(arena.pooled(), 1);
        let b2 = arena.get(big);
        drop(b2);
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn detached_buf_outlives_arena() {
        let f = {
            let arena = PayloadArena::new();
            let mut b = arena.get(16);
            b.extend_from_slice(b"hi");
            b.freeze()
        };
        // Arena is gone; dropping the handle must not panic.
        assert_eq!(&f[..], b"hi");
        drop(f);
    }

    #[test]
    fn inline_vec_spills_past_four() {
        let mut v: InlineVec<u32> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        let collected: Vec<u32> = v.iter().copied().collect();
        assert_eq!(collected, (0..10).collect::<Vec<_>>());
        assert_eq!(v.get(0), Some(&0));
        assert_eq!(v.get(4), Some(&4));
        assert_eq!(v.get(9), Some(&9));
        assert_eq!(v.get(10), None);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);

        let from: InlineVec<u32> = (0..3).collect();
        assert_eq!(from.len(), 3);
    }
}
