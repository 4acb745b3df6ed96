//! Serial (FIFO) resources for modelling contended hardware.
//!
//! A [`SerialResource`] represents something that can do one thing at a time:
//! a QP's DMA engine, a node's egress link, a lock-protected software path.
//! Callers *reserve* an occupancy interval; the resource hands back the actual
//! start/end after queueing behind earlier reservations. Because the
//! simulation executes events in time order, reservation order matches
//! virtual-time arrival order, which yields FIFO semantics.
//!
//! # Single owner
//!
//! A resource belongs to one simulated node and is reserved only by events
//! of that node, on either scheduler: the sequential one runs every event
//! on one thread, and the sharded one runs a node's events on its shard,
//! whose successive windows are ordered by the epoch barrier. So no two
//! reservations of one resource ever overlap in host time, and a reservation
//! is a plain load and store rather than a lock or a read-modify-write:
//! `Relaxed` suffices, because the one thread, or the epoch barrier and the
//! joins between runs, already order each reservation after the last. A
//! reservation from another node's event would race and yield wrong virtual
//! times, never undefined behaviour.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::{SimDuration, SimTime};

/// A FIFO, one-at-a-time resource on the virtual timeline, free from t = 0.
#[derive(Default)]
pub struct SerialResource {
    free_at: AtomicU64,
}

impl SerialResource {
    /// A resource that is free from t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `dur`, starting no earlier than `earliest`.
    /// Returns the actual `(start, end)` interval granted. Only events of
    /// the owning node may call this (see the module docs).
    #[inline]
    pub fn reserve(&self, earliest: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let start = self.free_at().max(earliest);
        let end = start + dur;
        self.free_at.store(end.as_nanos(), Ordering::Relaxed);
        (start, end)
    }

    /// Earliest instant at which a new reservation could start.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        SimTime(self.free_at.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_reservations_queue() {
        let r = SerialResource::new();
        let (s1, e1) = r.reserve(SimTime(10), SimDuration(100));
        assert_eq!((s1, e1), (SimTime(10), SimTime(110)));
        // Arrives while busy: queued.
        let (s2, e2) = r.reserve(SimTime(50), SimDuration(10));
        assert_eq!((s2, e2), (SimTime(110), SimTime(120)));
        // Arrives after idle gap: starts at arrival.
        let (s3, e3) = r.reserve(SimTime(500), SimDuration(1));
        assert_eq!((s3, e3), (SimTime(500), SimTime(501)));
        assert_eq!(r.free_at(), SimTime(501));
    }

    #[test]
    fn zero_duration_reservation_is_ordering_only() {
        let r = SerialResource::new();
        r.reserve(SimTime(100), SimDuration(0));
        let (s, e) = r.reserve(SimTime(0), SimDuration(10));
        // Queued behind the zero-length hold point.
        assert_eq!((s, e), (SimTime(100), SimTime(110)));
    }
}
