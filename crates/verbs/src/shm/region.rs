//! Where a host-mode fabric's registered regions live (see
//! [`Fabric::region_storage`](crate::Fabric::region_storage)): each in a
//! memory file of its own, which a peer maps read-only and delivers from.
//!
//! On Linux a region is a `memfd`, and the name a peer opens, in the
//! fabric's directory, is a symbolic link to it through `/proc/<pid>/fd`,
//! which another process of the same user follows as it would a file.
//! Elsewhere it is a plain file under that name. Two things are kept
//! process-wide on Linux:
//!
//! - **The regions alive in this process**, by descriptor. A peer in the
//!   same process — several ranks to a process, as the tests and the
//!   benchmark run them — reads the owner's own mapping instead of mapping
//!   the file again, which would count each page twice in the process's
//!   resident set.
//! - **A pool of dropped regions' mappings**, which the next region of the
//!   same length is taken from, zeroed. A fresh page of a memory file costs
//!   a page fault on first touch — about 3 µs on a 2-vCPU VM, twice a fresh
//!   heap page — and a process that brings worlds up and down pays for its
//!   pages once, as it does for heap pages that `malloc` recycles.

use std::path::Path;
use std::sync::Arc;

use super::segment::FileMapping;

/// A new region of `len` zero bytes, mapped read-write, that a peer opens
/// at `path` (see the module docs).
pub(crate) fn create(path: &Path, len: u64) -> std::io::Result<Arc<FileMapping>> {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        let map = Arc::new(match take_spare(len) {
            Some(map) => map,
            None => fresh(len)?,
        });
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
        file.set_len(len)?;
        Ok(Arc::new(FileMapping::map(&file, len, true)?))
    }
}

/// A peer's region, named `path`, to read from: the owner's own mapping if
/// the owner is this process, else a read-only mapping of the whole file.
pub(crate) fn open(path: &Path) -> std::io::Result<Arc<FileMapping>> {
    #[cfg(target_os = "linux")]
    if let Some(map) = own_descriptor(path).and_then(live::get) {
        return Ok(map);
    }
    FileMapping::open_read_only(path).map(Arc::new)
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
    /// in this process and to a read-only mapping of the same bytes through
    /// the file, and once dropped its mapping is the next region's of that
    /// length, zeroed again. (A length no other test uses, so the pool's
    /// entry is this test's.)
    #[test]
    fn a_region_is_shared_in_process_mapped_read_only_and_pooled() {
        const LEN: u64 = 12_345;
        let dir = temp_dir("pool");
        let (first, second) = (dir.join("first"), dir.join("second"));
        let owner = create(&first, LEN).unwrap();
        // SAFETY: the owner's writable mapping of LEN bytes; nothing reads
        // it concurrently.
        let bytes = unsafe { std::slice::from_raw_parts_mut(owner.base(), LEN as usize) };
        assert!(bytes.iter().all(|&b| b == 0));
        bytes.fill(0x5c);
        let shared = open(&first).unwrap();
        assert!(
            Arc::ptr_eq(&shared, &owner),
            "this process reads the owner's mapping"
        );
        let view = FileMapping::open_read_only(&first).unwrap();
        assert_eq!(view.len(), LEN as usize);
        assert_ne!(view.base(), owner.base());
        // SAFETY: a read-only mapping of LEN bytes, read only.
        let seen = unsafe { std::slice::from_raw_parts(view.base(), view.len()) };
        assert!(seen.iter().all(|&b| b == 0x5c), "one file, two mappings");

        let base = owner.base();
        drop((owner, shared));
        let reused = create(&second, LEN).unwrap();
        assert_eq!(
            reused.base(),
            base,
            "the dropped region's mapping is pooled"
        );
        // SAFETY: as above.
        let bytes = unsafe { std::slice::from_raw_parts(reused.base(), LEN as usize) };
        assert!(bytes.iter().all(|&b| b == 0), "a pooled region is zeroed");
        assert!(Arc::ptr_eq(&open(&second).unwrap(), &reused));
        drop((view, reused));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
