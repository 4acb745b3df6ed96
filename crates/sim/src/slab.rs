//! A recycling slot arena shared by the event schedulers and, outside this
//! crate, by the runtime's in-flight work-request tables.
//!
//! This is the PR 1 event-pool design factored out of the sequential
//! scheduler so the sharded PDES engine reuses the same storage discipline:
//! occupied slots hold payloads, freed slots chain onto an intrusive free
//! list and are reused, so capacity climbs to a high-water mark and stays
//! there. Heaps then order small `Copy` index records instead of sifting
//! fat payloads.

pub(crate) const NIL: u32 = u32::MAX;

enum Slot<T> {
    Vacant { next_free: u32 },
    Occupied(T),
}

/// Recycling arena of `T` slots addressed by dense `u32` indices.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
}

impl<T> Slab<T> {
    /// An empty arena with room for `n` slots before it grows.
    pub fn with_capacity(n: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(n),
            free_head: NIL,
        }
    }

    /// The index the next [`insert`](Self::insert) will return.
    pub fn next_key(&self) -> u32 {
        if self.free_head != NIL {
            self.free_head
        } else {
            self.slots.len() as u32
        }
    }

    /// Store `value`, preferring a recycled slot over fresh growth.
    pub fn insert(&mut self, value: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            match std::mem::replace(&mut self.slots[idx as usize], Slot::Occupied(value)) {
                Slot::Vacant { next_free } => self.free_head = next_free,
                Slot::Occupied(_) => unreachable!("free list pointed at an occupied slot"),
            }
            idx
        } else {
            assert!(self.slots.len() < NIL as usize, "event slab exhausted");
            self.slots.push(Slot::Occupied(value));
            (self.slots.len() - 1) as u32
        }
    }

    /// Remove and return the payload at `idx`, returning the slot to the
    /// free list.
    pub fn take(&mut self, idx: u32) -> T {
        let vacant = Slot::Vacant {
            next_free: self.free_head,
        };
        match std::mem::replace(&mut self.slots[idx as usize], vacant) {
            Slot::Occupied(v) => {
                self.free_head = idx;
                v
            }
            Slot::Vacant { .. } => unreachable!("heap entry pointed at a vacant slot"),
        }
    }

    /// [`take`](Self::take) for an index that came from outside (a completion
    /// naming a work request): `None` when the slot is vacant or was never
    /// minted.
    pub fn remove(&mut self, idx: u32) -> Option<T> {
        match self.slots.get(idx as usize)? {
            Slot::Occupied(_) => Some(self.take(idx)),
            Slot::Vacant { .. } => None,
        }
    }

    /// Drop every payload and forget every slot.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = NIL;
    }

    /// High-water mark: how many slots have ever been live at once.
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_recycle() {
        let mut s: Slab<u64> = Slab::with_capacity(2);
        let a = s.insert(1);
        let b = s.insert(2);
        assert_eq!(s.take(a), 1);
        let c = s.insert(3);
        assert_eq!(c, a, "freed slot must be reused");
        assert_eq!(s.take(b), 2);
        assert_eq!(s.take(c), 3);
        assert_eq!(s.high_water(), 2);
    }

    #[test]
    fn remove_is_checked_and_clear_forgets() {
        let mut s: Slab<u64> = Slab::with_capacity(0);
        assert_eq!(s.next_key(), 0);
        let a = s.insert(7);
        assert_eq!(s.remove(a + 1), None, "never minted");
        assert_eq!(s.remove(a), Some(7));
        assert_eq!(s.remove(a), None, "already vacant");
        assert_eq!(s.next_key(), a, "freed slot is next");
        s.insert(8);
        s.clear();
        assert_eq!(s.high_water(), 0);
        assert_eq!(s.insert(9), 0);
    }
}
