//! Serial (FIFO) resources for modelling contended hardware.
//!
//! A [`SerialResource`] represents something that can do one thing at a time:
//! a QP's DMA engine, a node's egress link, a lock-protected software path.
//! Callers *reserve* an occupancy interval; the resource hands back the actual
//! start/end after queueing behind earlier reservations. Because the
//! simulation executes events in time order, reservation order matches
//! virtual-time arrival order, which yields FIFO semantics.

use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};

/// A FIFO, one-at-a-time resource on the virtual timeline, free from t = 0.
#[derive(Default)]
pub struct SerialResource {
    free_at: Mutex<SimTime>,
}

impl SerialResource {
    /// A resource that is free from t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `dur`, starting no earlier than `earliest`.
    /// Returns the actual `(start, end)` interval granted.
    pub fn reserve(&self, earliest: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let mut free = self.free_at.lock();
        let start = (*free).max(earliest);
        let end = start + dur;
        *free = end;
        (start, end)
    }

    /// Earliest instant at which a new reservation could start.
    pub fn free_at(&self) -> SimTime {
        *self.free_at.lock()
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
