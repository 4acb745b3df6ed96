//! An append-only table addressed by small dense integers.
//!
//! QP numbers, memory keys and node ids are all minted sequentially, so
//! whatever they name can live at the index they spell: a look-up is two
//! dependent loads, takes no lock, hashes nothing and hands out a plain
//! reference. Slots are write-once ([`OnceLock`]) and storage grows in
//! doubling chunks that are never moved or freed before the table is, which
//! is what makes the `&T` sound without a guard.

use std::sync::OnceLock;

/// Slots in the first chunk, as a power of two; chunk `c` holds
/// `1 << (FIRST_BITS + c)`.
const FIRST_BITS: u32 = 5;
/// Enough chunks to address every `u32`.
const CHUNKS: usize = (u32::BITS - FIRST_BITS + 1) as usize;

pub(crate) struct IndexTable<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
}

/// Chunk and offset of index `i`.
fn locate(i: u32) -> (usize, usize) {
    let n = i as u64 + (1 << FIRST_BITS);
    let top = u64::BITS - 1 - n.leading_zeros();
    ((top - FIRST_BITS) as usize, (n - (1 << top)) as usize)
}

impl<T> IndexTable<T> {
    pub(crate) fn new() -> Self {
        IndexTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The value at `i`, if one was ever stored there.
    #[inline]
    pub(crate) fn get(&self, i: u32) -> Option<&T> {
        let (c, off) = locate(i);
        self.chunks[c].get()?[off].get()
    }

    fn slot(&self, i: u32) -> &OnceLock<T> {
        let (c, off) = locate(i);
        let chunk = self.chunks[c].get_or_init(|| {
            (0..1usize << (FIRST_BITS + c as u32))
                .map(|_| OnceLock::new())
                .collect()
        });
        &chunk[off]
    }

    /// Store `value` at `i`; `Err(value)` if the slot was already taken.
    pub(crate) fn set(&self, i: u32, value: T) -> Result<(), T> {
        self.slot(i).set(value)
    }

    /// The value at `i`, created by `init` on first use.
    pub(crate) fn get_or_init(&self, i: u32, init: impl FnOnce() -> T) -> &T {
        self.slot(i).get_or_init(init)
    }

    /// Every stored value, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .filter_map(|c| c.get())
            .flat_map(|c| c.iter().filter_map(|s| s.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_tile_the_index_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(31), (0, 31));
        assert_eq!(locate(32), (1, 0));
        assert_eq!(locate(95), (1, 63));
        assert_eq!(locate(96), (2, 0));
        assert_eq!(locate(u32::MAX).0, CHUNKS - 1);
    }

    #[test]
    fn set_once_get_many_iterate_in_order() {
        let t = IndexTable::new();
        assert!(t.get(7).is_none());
        for i in [300u32, 7, 40] {
            t.set(i, i * 10).unwrap();
        }
        assert_eq!(t.set(7, 1), Err(1));
        assert_eq!(t.get(300), Some(&3000));
        assert_eq!(*t.get_or_init(7, || 0), 70);
        assert_eq!(*t.get_or_init(8, || 80), 80);
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), [70, 80, 400, 3000]);
    }
}
