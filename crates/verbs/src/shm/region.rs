//! Where a host-mode fabric's registered regions live (see
//! [`Fabric::region_storage`](crate::Fabric::region_storage)): each in a
//! memory file of its own, which a sending peer maps to place its writes
//! into. The file is the region's bytes, then a [`TRAILER`] that says where
//! the region lies in its owner's NIC-visible address space, which is what
//! a sender resolves a write's remote address against.
//!
//! On Linux a region is a `memfd`, and the name a peer opens, in the
//! fabric's directory, is a symbolic link to it through `/proc/<pid>/fd`,
//! which another process of the same user follows as it would a file.
//! Elsewhere it is a plain file under that name. Two things are kept
//! process-wide on Linux:
//!
//! - **The regions alive in this process**, by descriptor. A peer in the
//!   same process — several ranks to a process, as the tests and the
//!   benchmark run them — writes through the owner's own mapping instead
//!   of mapping the file again, which would count each page twice in the
//!   process's resident set.
//! - **A pool of dropped regions' mappings**, which the next region of the
//!   same length is taken from, zeroed. A fresh page of a memory file costs
//!   a page fault on first touch — about 3 µs on a 2-vCPU VM, twice a fresh
//!   heap page — and a process that brings worlds up and down pays for its
//!   pages once, as it does for heap pages that `malloc` recycles.

use std::path::Path;
use std::sync::Arc;

use super::segment::FileMapping;

/// Bytes after a region's own in its file: a magic word, the region's base
/// address and its length, as little-endian `u64`s.
const TRAILER: usize = 24;
/// The trailer's magic word: "PRTXMR01".
const REGION_MAGIC: u64 = 0x5052_5458_4d52_3031;

/// A peer's region, as [`open`] finds it.
pub(crate) struct Remote {
    /// The whole file, mapped read-write.
    pub(crate) map: Arc<FileMapping>,
    /// The region's base address in its owner's NIC-visible address space.
    pub(crate) base: u64,
    /// The region's length: the file's, less the trailer.
    pub(crate) len: usize,
}

/// A new region of `len` zero bytes at NIC-visible address `base`, mapped
/// read-write, that a peer opens at `path` (see the module docs).
pub(crate) fn create(path: &Path, base: u64, len: usize) -> std::io::Result<Arc<FileMapping>> {
    let mut trailer = [0u8; TRAILER];
    for (word, v) in trailer.chunks_mut(8).zip([REGION_MAGIC, base, len as u64]) {
        word.copy_from_slice(&v.to_le_bytes());
    }
    let file_len = (len + TRAILER) as u64;
    let write_trailer = |map: &FileMapping| {
        // SAFETY: the mapping is `len + TRAILER` bytes, fresh or zeroed from
        // the pool, and no peer can name it before the link below exists.
        unsafe { std::ptr::copy_nonoverlapping(trailer.as_ptr(), map.base().add(len), TRAILER) };
    };
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        let map = Arc::new(match take_spare(file_len) {
            Some(map) => map,
            None => fresh(file_len)?,
        });
        write_trailer(&map);
        let fd = map
            .region_file()
            .expect("a region's own mapping")
            .as_raw_fd();
        // Registered before the link exists, so no peer can find the name
        // and miss the mapping.
        live::insert(fd, &map);
        std::os::unix::fs::symlink(format!("/proc/{}/fd/{fd}", std::process::id()), path)?;
        Ok(map)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(file_len)?;
        let map = FileMapping::map(&file, file_len)?;
        write_trailer(&map);
        Ok(Arc::new(map))
    }
}

/// A peer's region, named `path`, to write into: the owner's own mapping if
/// the owner is this process, else a read-write mapping of the whole file.
/// A file whose trailer does not describe it is `InvalidData`: it is bytes
/// another process wrote.
pub(crate) fn open(path: &Path) -> std::io::Result<Remote> {
    #[cfg(target_os = "linux")]
    let own = own_descriptor(path).and_then(live::get);
    #[cfg(not(target_os = "linux"))]
    let own = None;
    let map = match own {
        Some(map) => map,
        None => Arc::new(FileMapping::open_writable(path)?),
    };
    let mut trailer = [0u8; TRAILER];
    if let Some(len) = map.len().checked_sub(TRAILER) {
        // SAFETY: the last `TRAILER` bytes of the mapping.
        unsafe {
            std::ptr::copy_nonoverlapping(map.base().add(len), trailer.as_mut_ptr(), TRAILER)
        };
    }
    let word = |i: usize| u64::from_le_bytes(trailer[8 * i..8 * i + 8].try_into().expect("fixed"));
    if word(0) != REGION_MAGIC || word(2).checked_add(TRAILER as u64) != Some(map.len() as u64) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{} is no region file", path.display()),
        ));
    }
    let (base, len) = (word(1), map.len() - TRAILER);
    Ok(Remote { map, base, len })
}

/// The descriptor `path` links to, if it is a region of this process.
#[cfg(target_os = "linux")]
fn own_descriptor(path: &Path) -> Option<i32> {
    let target = std::fs::read_link(path).ok()?;
    let ours = format!("/proc/{}/fd/", std::process::id());
    target.to_str()?.strip_prefix(ours.as_str())?.parse().ok()
}

/// A fresh memory file of `len` zero bytes, mapped read-write.
#[cfg(target_os = "linux")]
fn fresh(len: u64) -> std::io::Result<FileMapping> {
    let file = super::segment::sys::memfd()?;
    file.set_len(len)?;
    FileMapping::region_of(file, len)
}

/// Pooled mappings of dropped regions, and how many, of how many bytes in
/// all, are kept at most: beyond that a dropped region is unmapped, as
/// `malloc` unmaps a large free chunk.
#[cfg(target_os = "linux")]
static SPARES: std::sync::Mutex<Vec<Spare>> = std::sync::Mutex::new(Vec::new());
#[cfg(target_os = "linux")]
const MAX_SPARES: usize = 64;
#[cfg(target_os = "linux")]
const MAX_SPARE_BYTES: usize = 64 << 20;

/// A region's mapping waiting in the pool.
#[cfg(target_os = "linux")]
struct Spare {
    file: std::fs::File,
    base: *mut u8,
    len: usize,
}

// SAFETY: a spare is the pool's alone; nothing reads or writes its mapping
// until it is taken out and zeroed.
#[cfg(target_os = "linux")]
unsafe impl Send for Spare {}

/// The pool, locked. A poisoned lock is taken over: every update is one
/// `push` or `swap_remove`, which a panic cannot leave half done, and
/// [`keep`] runs in `Drop`, which must not panic.
#[cfg(target_os = "linux")]
fn spares() -> std::sync::MutexGuard<'static, Vec<Spare>> {
    SPARES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A pooled region mapping of exactly `len` bytes, zeroed.
#[cfg(target_os = "linux")]
fn take_spare(len: u64) -> Option<FileMapping> {
    let Spare { file, base, len } = {
        let mut spares = spares();
        let at = spares.iter().position(|s| s.len as u64 == len)?;
        spares.swap_remove(at)
    };
    // SAFETY: the pool's mapping of `len` writable bytes of `file`, which
    // nothing else refers to any more.
    unsafe {
        std::ptr::write_bytes(base, 0, len);
        Some(FileMapping::region(file, base, len))
    }
}

/// Keep a dropped region's mapping (`base`, `len` bytes of `file`) for the
/// next region of its length. `false` if the pool is full: the caller
/// unmaps it.
pub(super) fn keep(file: std::fs::File, base: *mut u8, len: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut spares = spares();
        let kept: usize = spares.iter().map(|s| s.len).sum();
        if spares.len() < MAX_SPARES && kept.saturating_add(len) <= MAX_SPARE_BYTES {
            spares.push(Spare { file, base, len });
            return true;
        }
    }
    let _ = (file, base, len);
    false
}

/// The regions alive in this process, by descriptor.
#[cfg(target_os = "linux")]
mod live {
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

    use super::FileMapping;

    static LIVE: Mutex<Vec<(i32, Weak<FileMapping>)>> = Mutex::new(Vec::new());

    /// The table, locked; a poisoned lock is taken over, as the pool's is.
    fn live() -> MutexGuard<'static, Vec<(i32, Weak<FileMapping>)>> {
        LIVE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enter `map`, whose file is descriptor `fd`, dropping entries whose
    /// region is gone.
    pub(super) fn insert(fd: i32, map: &Arc<FileMapping>) {
        let mut live = live();
        live.retain(|(at, region)| *at != fd && region.strong_count() > 0);
        live.push((fd, Arc::downgrade(map)));
    }

    /// The live region whose file is descriptor `fd`.
    pub(super) fn get(fd: i32) -> Option<Arc<FileMapping>> {
        let live = live();
        let (_, region) = live.iter().find(|(at, _)| *at == fd)?;
        region.upgrade()
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("partix_region_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A region is zero-filled, its name opens to the owner's own mapping
    /// in this process and to a writable mapping of the same bytes through
    /// the file, each with the base address and length it was created with,
    /// and once dropped its mapping is the next region's of that length,
    /// zeroed again. (A length no other test uses, so the pool's entry is
    /// this test's.) A file with no region trailer does not open.
    #[test]
    fn a_region_is_shared_in_process_mapped_writable_and_pooled() {
        const LEN: usize = 12_345;
        const BASE: u64 = 0x7000;
        let dir = temp_dir("pool");
        let (first, second) = (dir.join("first"), dir.join("second"));
        let owner = create(&first, BASE, LEN).unwrap();
        // SAFETY: the owner's writable mapping of LEN bytes; nothing reads
        // it concurrently.
        let bytes = unsafe { std::slice::from_raw_parts_mut(owner.base(), LEN) };
        assert!(bytes.iter().all(|&b| b == 0));
        bytes.fill(0x5c);
        let shared = open(&first).unwrap();
        assert!(
            Arc::ptr_eq(&shared.map, &owner),
            "this process writes through the owner's mapping"
        );
        assert_eq!((shared.base, shared.len), (BASE, LEN));
        let view = FileMapping::open_writable(&first).unwrap();
        assert_ne!(view.base(), owner.base());
        // SAFETY: a second mapping of the region's LEN bytes; this thread
        // alone touches either.
        let seen = unsafe { std::slice::from_raw_parts_mut(view.base(), LEN) };
        assert!(seen.iter().all(|&b| b == 0x5c), "one file, two mappings");
        seen[7] = 0xa1;
        assert_eq!(
            bytes[7], 0xa1,
            "a write through one is a read through the other"
        );

        let base = owner.base();
        drop((owner, shared));
        let reused = create(&second, BASE + 0x4000, LEN).unwrap();
        assert_eq!(
            reused.base(),
            base,
            "the dropped region's mapping is pooled"
        );
        // SAFETY: as above.
        let bytes = unsafe { std::slice::from_raw_parts(reused.base(), LEN) };
        assert!(bytes.iter().all(|&b| b == 0), "a pooled region is zeroed");
        let again = open(&second).unwrap();
        assert!(Arc::ptr_eq(&again.map, &reused));
        assert_eq!((again.base, again.len), (BASE + 0x4000, LEN));
        drop((view, reused, again));

        let foreign = dir.join("foreign");
        std::fs::write(&foreign, [0x5au8; 64]).unwrap();
        let err = open(&foreign).err().expect("no trailer, no region");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
