//! Registered memory regions.
//!
//! A [`MemoryRegion`] models `ibv_reg_mr`: a pinned buffer the NIC may read
//! (gather) and write (RDMA) using key-authorised addresses. Registration
//! assigns the region a base address in the node's NIC-visible address space
//! plus a local key (`lkey`) and remote key (`rkey`).
//!
//! # Safety model
//!
//! RDMA hardware writes into application memory without involving the CPU,
//! so the buffer must be shared-mutable. We confine that to this module:
//! bytes live in `UnsafeCell`s and all access goes through bounds-checked
//! `read`/`write` helpers that use raw pointer copies. The *aliasing
//! discipline* is exactly MPI Partitioned's contract, which the runtime
//! enforces: a partition's byte range is never read and written
//! concurrently (a receiver only reads a partition after observing its
//! arrival flag with `Acquire` ordering, and the flag is set after the copy
//! with `Release` ordering).

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use crate::error::{Result, VerbsError};
use crate::table::IndexTable;
use crate::types::NodeId;

/// Page granularity of the fake NIC address space; regions are padded to
/// this and separated by a guard page so stray addresses fault.
const PAGE: u64 = 4096;

struct Storage {
    bytes: Box<[std::cell::UnsafeCell<u8>]>,
}

// SAFETY: all access to the cells goes through `MemoryRegion::read/write`,
// whose callers (the partitioned runtime) guarantee byte ranges are not
// accessed concurrently from both sides; cross-thread visibility is
// established with explicit fences paired with the runtime's flag
// operations.
unsafe impl Send for Storage {}
unsafe impl Sync for Storage {}

/// A registered, NIC-addressable memory region.
#[derive(Clone)]
pub struct MemoryRegion {
    storage: Arc<Storage>,
    node: NodeId,
    pd_id: u32,
    base_addr: u64,
    len: usize,
    lkey: u32,
    rkey: u32,
    /// Virtual regions report a length but carry no storage; data access is
    /// a checked no-op. Used by timing-only studies (`copy_data = false`)
    /// so that terabyte-scale sweeps do not allocate.
    virtual_backing: bool,
}

impl MemoryRegion {
    pub(crate) fn new(
        node: NodeId,
        pd_id: u32,
        base_addr: u64,
        len: usize,
        lkey: u32,
        rkey: u32,
        virtual_backing: bool,
    ) -> Self {
        let bytes = if virtual_backing {
            Vec::new().into_boxed_slice()
        } else {
            (0..len)
                .map(|_| std::cell::UnsafeCell::new(0u8))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        };
        MemoryRegion {
            storage: Arc::new(Storage { bytes }),
            node,
            pd_id,
            base_addr,
            len,
            lkey,
            rkey,
            virtual_backing,
        }
    }

    /// Whether this region is timing-only (no byte storage).
    #[inline]
    pub fn is_virtual(&self) -> bool {
        self.virtual_backing
    }

    /// Node that registered this region.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Protection domain the region belongs to.
    #[inline]
    pub fn pd_id(&self) -> u32 {
        self.pd_id
    }

    /// NIC-visible base address.
    #[inline]
    pub fn addr(&self) -> u64 {
        self.base_addr
    }

    /// Region length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Local key for gather access.
    #[inline]
    pub fn lkey(&self) -> u32 {
        self.lkey
    }

    /// Remote key authorising RDMA access.
    #[inline]
    pub fn rkey(&self) -> u32 {
        self.rkey
    }

    /// NIC-visible address of byte `offset` within the region.
    #[inline]
    pub fn addr_at(&self, offset: usize) -> u64 {
        debug_assert!(offset <= self.len);
        self.base_addr + offset as u64
    }

    fn check(&self, key: u32, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(VerbsError::OutOfBounds {
                key,
                addr: self.base_addr + offset as u64,
                len: len as u64,
                region_len: self.len as u64,
            });
        }
        Ok(())
    }

    /// Copy `src` into the region at `offset`. Bounds-checked. No-op on a
    /// virtual region.
    pub fn write(&self, offset: usize, src: &[u8]) -> Result<()> {
        self.check(self.lkey, offset, src.len())?;
        if self.virtual_backing {
            return Ok(());
        }
        // SAFETY: bounds checked above; aliasing discipline per module docs.
        unsafe {
            let dst = self.storage.bytes.as_ptr().add(offset) as *mut u8;
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
        }
        fence(Ordering::Release);
        Ok(())
    }

    /// Copy `dst.len()` bytes from the region at `offset` into `dst`.
    /// Virtual regions read as zeroes.
    pub fn read(&self, offset: usize, dst: &mut [u8]) -> Result<()> {
        fence(Ordering::Acquire);
        self.check(self.lkey, offset, dst.len())?;
        if self.virtual_backing {
            dst.fill(0);
            return Ok(());
        }
        // SAFETY: bounds checked above; aliasing discipline per module docs.
        unsafe {
            let src = self.storage.bytes.as_ptr().add(offset) as *const u8;
            std::ptr::copy_nonoverlapping(src, dst.as_mut_ptr(), dst.len());
        }
        Ok(())
    }

    /// Append `len` bytes at `offset` onto `dst` without an intermediate
    /// allocation (beyond `dst`'s own growth). This is the hot-path read:
    /// callers hand in a pooled or reused buffer and no fresh `Vec` is
    /// created per read. Virtual regions append zeroes.
    pub fn read_into(&self, offset: usize, len: usize, dst: &mut Vec<u8>) -> Result<()> {
        fence(Ordering::Acquire);
        self.check(self.lkey, offset, len)?;
        dst.reserve(len);
        let start = dst.len();
        if self.virtual_backing {
            dst.resize(start + len, 0);
            return Ok(());
        }
        // SAFETY: bounds checked above; `reserve` guarantees the spare
        // capacity; aliasing discipline per module docs.
        unsafe {
            let src = self.storage.bytes.as_ptr().add(offset) as *const u8;
            std::ptr::copy_nonoverlapping(src, dst.as_mut_ptr().add(start), len);
            dst.set_len(start + len);
        }
        Ok(())
    }

    /// Read a fresh `Vec` of `len` bytes at `offset`.
    ///
    /// Allocates a new `Vec` per call — a convenience for tests and cold
    /// paths only. Hot paths use [`read_into`](Self::read_into) (reused
    /// buffer) or [`copy_to`](Self::copy_to) (MR→MR, no intermediate).
    pub fn read_vec(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        let mut v = Vec::new();
        self.read_into(offset, len, &mut v)?;
        Ok(v)
    }

    /// Copy `len` bytes from `self` (at `src_offset`) directly into `dst`
    /// (at `dst_offset`): the MR→MR transfer primitive. The simulated wire
    /// uses this to move payload source-region→destination-region with a
    /// single copy and no intermediate buffer.
    pub fn copy_to(
        &self,
        src_offset: usize,
        dst: &MemoryRegion,
        dst_offset: usize,
        len: usize,
    ) -> Result<()> {
        dst.copy_from(dst_offset, self, src_offset, len)
    }

    /// Fill `len` bytes at `offset` with `value`. No-op on a virtual
    /// region.
    pub fn fill(&self, offset: usize, len: usize, value: u8) -> Result<()> {
        self.check(self.lkey, offset, len)?;
        if self.virtual_backing {
            return Ok(());
        }
        // SAFETY: bounds checked above.
        unsafe {
            let dst = self.storage.bytes.as_ptr().add(offset) as *mut u8;
            std::ptr::write_bytes(dst, value, len);
        }
        fence(Ordering::Release);
        Ok(())
    }

    /// Copy `len` bytes from `src` (at `src_offset`) into `self` (at
    /// `dst_offset`). This is the fabric's data-movement primitive.
    pub(crate) fn copy_from(
        &self,
        dst_offset: usize,
        src: &MemoryRegion,
        src_offset: usize,
        len: usize,
    ) -> Result<()> {
        src.check(src.lkey, src_offset, len)?;
        self.check(self.rkey, dst_offset, len)?;
        if self.virtual_backing || src.virtual_backing {
            return Ok(());
        }
        fence(Ordering::Acquire);
        // SAFETY: both ranges bounds-checked; the runtime guarantees the
        // ranges are not concurrently accessed (MPI Partitioned contract);
        // distinct regions cannot overlap.
        unsafe {
            let s = src.storage.bytes.as_ptr().add(src_offset) as *const u8;
            let d = self.storage.bytes.as_ptr().add(dst_offset) as *mut u8;
            std::ptr::copy_nonoverlapping(s, d, len);
        }
        fence(Ordering::Release);
        Ok(())
    }

    /// Translate a NIC-visible address range into an offset, verifying it
    /// lies inside this region.
    pub(crate) fn offset_of(&self, key: u32, addr: u64, len: u64) -> Result<usize> {
        if addr < self.base_addr {
            return Err(VerbsError::OutOfBounds {
                key,
                addr,
                len,
                region_len: self.len as u64,
            });
        }
        let off = addr - self.base_addr;
        if off + len > self.len as u64 {
            return Err(VerbsError::OutOfBounds {
                key,
                addr,
                len,
                region_len: self.len as u64,
            });
        }
        Ok(off as usize)
    }
}

/// First key handed out; region `i` gets `lkey = FIRST_KEY + 2i` and
/// `rkey = lkey + 1`, so either key spells the region's table index.
const FIRST_KEY: u32 = 0x100;

/// Per-node registry of memory regions and the NIC address-space allocator.
pub(crate) struct MrRegistry {
    node: NodeId,
    /// Regions by registration order (never deregistered): a key resolves
    /// with no lock and no scan.
    regions: IndexTable<MemoryRegion>,
    next_addr: parking_lot::Mutex<u64>,
    next_key: std::sync::atomic::AtomicU32,
}

impl MrRegistry {
    pub(crate) fn new(node: NodeId) -> Self {
        MrRegistry {
            node,
            regions: IndexTable::new(),
            next_addr: parking_lot::Mutex::new(PAGE),
            next_key: std::sync::atomic::AtomicU32::new(FIRST_KEY),
        }
    }

    /// Register a new region of `len` bytes under protection domain `pd_id`.
    pub(crate) fn register(&self, pd_id: u32, len: usize) -> MemoryRegion {
        self.register_inner(pd_id, len, false)
    }

    /// Register a virtual (timing-only) region: full address-space
    /// semantics, no storage.
    pub(crate) fn register_virtual(&self, pd_id: u32, len: usize) -> MemoryRegion {
        self.register_inner(pd_id, len, true)
    }

    fn register_inner(&self, pd_id: u32, len: usize, virtual_backing: bool) -> MemoryRegion {
        let key = self
            .next_key
            .fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        let (lkey, rkey) = (key, key + 1);
        let base = {
            let mut next = self.next_addr.lock();
            let base = *next;
            // Pad to page size and add a guard page.
            let span = (len as u64).div_ceil(PAGE).max(1) * PAGE + PAGE;
            *next += span;
            base
        };
        let mr = MemoryRegion::new(self.node, pd_id, base, len, lkey, rkey, virtual_backing);
        let fresh = self.regions.set((key - FIRST_KEY) / 2, mr.clone());
        assert!(fresh.is_ok(), "memory keys are minted once");
        mr
    }

    /// The region whose local (`remote = false`) or remote key is `key`.
    fn by_key(&self, key: u32, remote: bool) -> Option<&MemoryRegion> {
        let i = key.checked_sub(FIRST_KEY + remote as u32)?;
        self.regions.get(i / 2).filter(|_| i % 2 == 0)
    }

    /// Resolve an lkey to its region.
    pub(crate) fn by_lkey(&self, lkey: u32) -> Result<&MemoryRegion> {
        self.by_key(lkey, false)
            .ok_or(VerbsError::InvalidLKey { lkey })
    }

    /// Resolve `(rkey, addr, len)` as remote-access hardware would: find the
    /// region carrying the rkey *and* holding the address range.
    pub(crate) fn resolve_remote(
        &self,
        rkey: u32,
        addr: u64,
        len: u64,
    ) -> Result<(&MemoryRegion, usize)> {
        match self.by_key(rkey, true) {
            Some(m) => Ok((m, m.offset_of(rkey, addr, len)?)),
            None => Err(VerbsError::OutOfBounds {
                key: rkey,
                addr,
                len,
                region_len: 0,
            }),
        }
    }

    /// Number of registered regions (diagnostics).
    pub(crate) fn count(&self) -> usize {
        self.regions.iter().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(len: usize) -> (MrRegistry, MemoryRegion) {
        let r = MrRegistry::new(0);
        let m = r.register(1, len);
        (r, m)
    }

    #[test]
    fn write_read_round_trip() {
        let (_r, m) = reg(64);
        m.write(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_vec(8, 4).unwrap(), vec![1, 2, 3, 4]);
        // Untouched bytes are zero.
        assert_eq!(m.read_vec(0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn bounds_are_enforced() {
        let (_r, m) = reg(16);
        assert!(m.write(12, &[0; 8]).is_err());
        assert!(m.read_vec(16, 1).is_err());
        assert!(m.write(16, &[]).is_ok(), "zero-length at end is fine");
        assert!(m.fill(8, 9, 0xAA).is_err());
    }

    #[test]
    fn read_into_appends_and_checks_bounds() {
        let (_r, m) = reg(32);
        m.write(0, &[5u8; 8]).unwrap();
        let mut buf = vec![0xAAu8; 2];
        m.read_into(0, 8, &mut buf).unwrap();
        assert_eq!(buf, [&[0xAA, 0xAA][..], &[5u8; 8][..]].concat());
        let before = buf.clone();
        assert!(m.read_into(30, 8, &mut buf).is_err());
        assert_eq!(buf, before, "failed read must not grow the buffer");
    }

    #[test]
    fn copy_to_mirrors_copy_from() {
        let r0 = MrRegistry::new(0);
        let r1 = MrRegistry::new(1);
        let src = r0.register(1, 32);
        let dst = r1.register(1, 32);
        src.write(4, &[3u8; 12]).unwrap();
        src.copy_to(4, &dst, 8, 12).unwrap();
        assert_eq!(dst.read_vec(8, 12).unwrap(), vec![3u8; 12]);
        assert!(src.copy_to(28, &dst, 0, 8).is_err());
    }

    #[test]
    fn fill_works() {
        let (_r, m) = reg(8);
        m.fill(2, 3, 0xEE).unwrap();
        assert_eq!(
            m.read_vec(0, 8).unwrap(),
            vec![0, 0, 0xEE, 0xEE, 0xEE, 0, 0, 0]
        );
    }

    #[test]
    fn regions_get_distinct_keys_and_guarded_addresses() {
        let r = MrRegistry::new(0);
        let a = r.register(1, 4096);
        let b = r.register(1, 100);
        assert_ne!(a.lkey(), b.lkey());
        assert_ne!(a.rkey(), b.rkey());
        assert_ne!(a.lkey(), a.rkey());
        // Guard page between regions.
        assert!(b.addr() >= a.addr() + 4096 + PAGE);
    }

    #[test]
    fn copy_between_regions() {
        let r0 = MrRegistry::new(0);
        let r1 = MrRegistry::new(1);
        let src = r0.register(1, 32);
        let dst = r1.register(1, 32);
        src.write(0, &[9u8; 16]).unwrap();
        dst.copy_from(16, &src, 0, 16).unwrap();
        assert_eq!(dst.read_vec(16, 16).unwrap(), vec![9u8; 16]);
        assert_eq!(dst.read_vec(0, 16).unwrap(), vec![0u8; 16]);
    }

    #[test]
    fn remote_resolution_checks_rkey_and_bounds() {
        let r = MrRegistry::new(0);
        let m = r.register(1, 64);
        // Correct rkey, in-bounds.
        let (found, off) = r.resolve_remote(m.rkey(), m.addr_at(10), 20).unwrap();
        assert_eq!(off, 10);
        assert_eq!(found.lkey(), m.lkey());
        // Wrong key.
        assert!(r.resolve_remote(m.rkey() + 100, m.addr(), 4).is_err());
        // Out of bounds.
        assert!(r.resolve_remote(m.rkey(), m.addr_at(60), 8).is_err());
        // lkey is not an rkey.
        assert!(r.resolve_remote(m.lkey(), m.addr(), 4).is_err());
    }

    #[test]
    fn lkey_lookup() {
        let r = MrRegistry::new(0);
        let m = r.register(1, 8);
        assert_eq!(r.by_lkey(m.lkey()).unwrap().rkey(), m.rkey());
        assert!(matches!(
            r.by_lkey(0xdead),
            Err(VerbsError::InvalidLKey { lkey: 0xdead })
        ));
        assert_eq!(r.count(), 1);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let (_r, m) = reg(4096);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let m = &m;
                s.spawn(move || {
                    let off = t * 512;
                    m.write(off, &vec![t as u8 + 1; 512]).unwrap();
                });
            }
        });
        for t in 0..8usize {
            assert_eq!(m.read_vec(t * 512, 512).unwrap(), vec![t as u8 + 1; 512]);
        }
    }
}
