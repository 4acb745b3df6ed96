//! Shared-memory segments: the storage a [`SpscRing`](super::SpscRing)
//! lives in.
//!
//! A segment is a fixed-size byte area plus a small bank of 8-byte control
//! words. Both backings are plain memory the two sides load and store
//! directly — no syscall moves a byte or orders one:
//!
//! - [`HeapSegment`] — process-private memory for the loopback fabric and
//!   for tests;
//! - [`FileSegment`] — one `MAP_SHARED` mapping of a file on a tmpfs
//!   (`/dev/shm` when present), the `shm_open` analogue reachable from plain
//!   `std` plus two `extern "C"` declarations: two processes map the same
//!   path and exchange records through the same physical pages.
//!
//! # Memory ordering
//!
//! Control words are `AtomicU64`s, stored with `Release` and loaded with
//! `Acquire`; data bytes are moved with `copy_nonoverlapping`. The producer
//! writes a record's bytes and *then* release-stores [`Ctrl::Tail`]; a
//! consumer that acquire-loads a `Tail` covering the record therefore sees
//! its bytes (the classic SPSC publication argument, DESIGN.md §11). The
//! same pairing on [`Ctrl::Head`] hands consumed space back. Lock-free
//! atomics are address-free, so the argument holds unchanged when the two
//! sides are different processes mapping the file at different addresses.
//!
//! The ring code is written against the [`Segment`] trait only, so the
//! protocol (and its tests) is identical across backings.

use std::cell::UnsafeCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Control words a ring uses, by fixed slot index. Kept to a handful so a
/// file segment can give each one a fixed header offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ctrl {
    /// Producer cursor: total bytes ever published (monotone).
    Tail = 0,
    /// Consumer cursor: total bytes ever consumed (monotone).
    Head = 1,
    /// Producer-side close flag (shutdown handshake).
    Closed = 2,
    /// Consumer attach acknowledgement (cross-process bring-up).
    Attached = 3,
    /// Receive credits: how many receive WRs the consumer's QP has had
    /// posted in all (monotone), which its producer spends one per
    /// write-with-immediate (see `ShmFabric`).
    Credits = 4,
    /// `Head` as of the consumer's last scan that found the ring empty:
    /// every record below it was taken, and the consumer's poller came back
    /// afterwards (see `ShmFabric`'s RNR rule).
    Polled = 5,
}

/// Number of control slots.
pub const CTRL_SLOTS: usize = 6;

/// Bytes reserved at the front of a file segment; the data area starts
/// here. Layout (little-endian `u64`s): magic at 0, capacity at 8, the
/// [`Ctrl`] words at `16 + 8 * slot`. The mapping is
/// page-aligned, so every word is naturally aligned.
pub const FILE_HEADER: u64 = 64;

/// Header offset of the first control word.
const CTRL_BASE: usize = 16;

/// Magic stamped into file segments so a stale or foreign file is rejected
/// instead of parsed.
pub const SEG_MAGIC: u64 = 0x5052_5458_5348_4d31; // "PRTXSHM1"

/// Storage for one ring: a data area plus control words.
///
/// Contract: control-word stores are release operations and loads are
/// acquire operations, so data written *before* a [`Ctrl::Tail`] store is
/// visible *after* the corresponding load. Data access is only valid for
/// ranges the protocol proves unshared: the consumer reads only `[head,
/// tail)`, and the producer writes only `[tail, head + capacity)`.
///
/// # Safety
///
/// The provided methods (and the ring) dereference what an implementation
/// hands out: [`data`](Self::data) must point to [`capacity`](Self::capacity)
/// bytes that stay valid and writable for as long as the segment lives, and
/// [`ctrl`](Self::ctrl) must return the same word for the same slot every
/// time, distinct from the data area.
pub unsafe trait Segment: Send + Sync {
    /// Data-area capacity in bytes.
    fn capacity(&self) -> u64;
    /// The control word of `slot`.
    fn ctrl(&self, slot: Ctrl) -> &AtomicU64;
    /// Base of the data area.
    fn data(&self) -> *mut u8;

    /// Acquire-load a control word.
    fn ctrl_load(&self, slot: Ctrl) -> u64 {
        self.ctrl(slot).load(Ordering::Acquire)
    }

    /// Release-store a control word.
    fn ctrl_store(&self, slot: Ctrl, v: u64) {
        self.ctrl(slot).store(v, Ordering::Release);
    }

    /// Copy `src` into the data area at `off` (`off + src.len() <=
    /// capacity`; wrap splitting is the ring's job).
    fn data_write(&self, off: u64, src: &[u8]) {
        assert!(in_bounds(off, src.len(), self.capacity()));
        // SAFETY: bounds asserted; the range is the caller's per the
        // `Segment` contract (the producer's span), and the `Tail` release
        // that follows publishes it to the other side.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.data().add(off as usize), src.len());
        }
    }

    /// Copy `dst.len()` bytes out of the data area at `off`.
    fn data_read(&self, off: u64, dst: &mut [u8]) {
        assert!(in_bounds(off, dst.len(), self.capacity()));
        // SAFETY: bounds asserted; the range is the caller's to read per the
        // `Segment` contract, published by the `Tail` release the caller has
        // already acquire-loaded.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.data().add(off as usize),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
    }
}

/// Whether `[off, off + len)` lies inside a data area of `capacity` bytes.
/// A hard check, not a debug one: on a mapped segment an out-of-range copy
/// is a SIGBUS or a write into a neighbouring mapping.
pub(super) fn in_bounds(off: u64, len: usize, capacity: u64) -> bool {
    off.checked_add(len as u64)
        .is_some_and(|end| end <= capacity)
}

// ---------------------------------------------------------------------------
// Heap backing
// ---------------------------------------------------------------------------

/// Process-private segment: `AtomicU64` control words over an
/// `UnsafeCell` byte area.
pub struct HeapSegment {
    ctrl: [AtomicU64; CTRL_SLOTS],
    data: Box<[UnsafeCell<u8>]>,
}

// SAFETY: the `Segment` contract confines the producer and the consumer to
// disjoint byte ranges at every instant, with the handoff ordered by the
// acquire/release control words — the same discipline `MemoryRegion`'s
// storage documents, here enforced by the SPSC ring protocol (see
// `shm::ring` and the `ring_protocol` model-checking test).
unsafe impl Send for HeapSegment {}
unsafe impl Sync for HeapSegment {}

impl HeapSegment {
    /// Allocate a zeroed segment of `capacity` data bytes.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "segment capacity must be non-zero");
        let data = (0..capacity)
            .map(|_| UnsafeCell::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        HeapSegment {
            ctrl: [const { AtomicU64::new(0) }; CTRL_SLOTS],
            data,
        }
    }
}

// SAFETY: `data` is a boxed slice of `capacity` interior-mutable bytes owned
// by the segment; `ctrl` is a field array separate from it.
unsafe impl Segment for HeapSegment {
    fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    fn ctrl(&self, slot: Ctrl) -> &AtomicU64 {
        &self.ctrl[slot as usize]
    }

    fn data(&self) -> *mut u8 {
        UnsafeCell::raw_get(self.data.as_ptr())
    }
}

// ---------------------------------------------------------------------------
// File backing (cross-process)
// ---------------------------------------------------------------------------

/// The directory cross-process segments default to: `/dev/shm` when the
/// platform provides it (a tmpfs, so "files" are pure page-cache memory),
/// otherwise the system temp dir.
pub fn default_shm_dir() -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

/// `mmap`/`munmap`, declared here because `std` already links the
/// platform's libc: no new dependency, and the offline build holds. The
/// constants below are the same on Linux, macOS and the BSDs; `off_t` is
/// declared as `i64`, which is what those platforms use on 64-bit targets.
#[cfg(all(unix, target_pointer_width = "64"))]
pub(super) mod sys {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 1;

    /// Map the first `len` bytes of `file` shared and read-write.
    pub fn map(file: &std::fs::File, len: usize) -> std::io::Result<*mut u8> {
        // SAFETY: a fresh mapping at a kernel-chosen address aliases nothing
        // this process owns; `file` is open for reading and writing and the
        // caller has checked it is at least `len` bytes long.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if base as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(base.cast())
    }

    /// A fresh, empty anonymous memory file (`memfd_create`), closed on
    /// exec: what a host-mode region lives in on Linux.
    #[cfg(target_os = "linux")]
    pub fn memfd() -> std::io::Result<std::fs::File> {
        use std::os::fd::FromRawFd;
        extern "C" {
            fn memfd_create(name: *const std::ffi::c_char, flags: std::ffi::c_uint) -> c_int;
        }
        const MFD_CLOEXEC: std::ffi::c_uint = 1;
        // SAFETY: the name is a NUL-terminated literal; the call creates a
        // descriptor nothing else owns.
        let fd = unsafe { memfd_create(c"partix_region".as_ptr(), MFD_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor this call alone owns.
        Ok(unsafe { std::fs::File::from_raw_fd(fd) })
    }

    /// Unmap what [`map`] returned.
    ///
    /// # Safety
    ///
    /// `base`/`len` must be exactly one live mapping from [`map`], with no
    /// reference into it outliving this call.
    pub unsafe fn unmap(base: *mut u8, len: usize) {
        // Failure (EINVAL on a bad range) would mean the caller broke the
        // contract above; there is nothing to recover in a destructor.
        let _ = munmap(base.cast(), len);
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
pub(super) mod sys {
    #[cfg(target_os = "linux")]
    pub fn memfd() -> std::io::Result<std::fs::File> {
        Err(std::io::ErrorKind::Unsupported.into())
    }

    pub fn map(_file: &std::fs::File, _len: usize) -> std::io::Result<*mut u8> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "cross-process shm segments require a 64-bit unix platform",
        ))
    }

    pub unsafe fn unmap(_base: *mut u8, _len: usize) {}
}

/// Positioned whole-buffer write, used only while a segment file is being
/// created (never on the ring path).
fn write_at(file: &std::fs::File, off: u64, src: &[u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, src, off)
    }
    #[cfg(not(unix))]
    {
        let _ = (file, off, src);
        Err(std::io::ErrorKind::Unsupported.into())
    }
}

/// Positioned whole-buffer read, used only to validate a header before the
/// file is mapped.
fn read_at(file: &std::fs::File, off: u64, dst: &mut [u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, dst, off)
    }
    #[cfg(not(unix))]
    {
        let _ = (file, off, dst);
        Err(std::io::ErrorKind::Unsupported.into())
    }
}

/// One shared mapping of a whole file: a segment's, or a registered
/// region's in a host-mode fabric (see
/// [`Fabric::region_storage`](crate::Fabric::region_storage)), which the
/// owner maps and a sending peer maps to place its writes. A zero-length
/// file maps to no memory at all.
///
/// After the constructor returns, every access is a load or a store into
/// the mapping. A peer that truncates the file under a live mapping turns
/// the next access into a SIGBUS — a file is owned by whoever created it,
/// like any `shm_open` object. On drop a region's own mapping goes back to
/// the region pool; every other mapping is unmapped.
pub struct FileMapping {
    base: *mut u8,
    len: usize,
    /// A region's file, kept open for the pool; `None` for other mappings.
    region: Option<std::fs::File>,
}

// SAFETY: `base` is a private mapping handle, unmapped only in `Drop`; what
// is read or written through it is the owner's to order (a segment's ring
// protocol, a region's aliasing discipline).
unsafe impl Send for FileMapping {}
unsafe impl Sync for FileMapping {}

impl FileMapping {
    /// Map the first `len` bytes of `file`.
    pub(super) fn map(file: &std::fs::File, len: u64) -> std::io::Result<Self> {
        let len = usize::try_from(len)
            .map_err(|_| std::io::Error::other("mapping larger than the address space"))?;
        let base = match len {
            0 => std::ptr::NonNull::dangling().as_ptr(),
            _ => sys::map(file, len)?,
        };
        Ok(FileMapping {
            base,
            len,
            region: None,
        })
    }

    /// A region's mapping of `len` bytes at `base`, of `file`, which it
    /// keeps open and hands back to the region pool on drop.
    ///
    /// # Safety
    ///
    /// `base`/`len` must be one live writable mapping of `file` that
    /// nothing else refers to.
    pub(super) unsafe fn region(file: std::fs::File, base: *mut u8, len: usize) -> Self {
        FileMapping {
            base,
            len,
            region: Some(file),
        }
    }

    /// Map all `len` bytes of `file` read-write as a region's own mapping,
    /// which keeps the file open and goes back to the region pool on drop.
    pub(super) fn region_of(file: std::fs::File, len: u64) -> std::io::Result<Self> {
        let mut map = Self::map(&file, len)?;
        map.region = Some(file);
        Ok(map)
    }

    /// Map the whole of the existing file at `path` read-write.
    pub(super) fn open_writable(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let len = file.metadata()?.len();
        Self::map(&file, len)
    }

    /// The region's file, if this is a region's own mapping.
    pub(super) fn region_file(&self) -> Option<&std::fs::File> {
        self.region.as_ref()
    }

    /// Base of the mapping (dangling when it is empty).
    pub(crate) fn base(&self) -> *mut u8 {
        self.base
    }

    /// Mapped bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl Drop for FileMapping {
    fn drop(&mut self) {
        if let Some(file) = self.region.take() {
            if super::region::keep(file, self.base, self.len) {
                return;
            }
        }
        if self.len > 0 {
            // SAFETY: `base` came from `sys::map` with exactly this length,
            // and `&mut self` proves no borrow into the mapping is left.
            unsafe { sys::unmap(self.base, self.len) };
        }
    }
}

/// Cross-process segment: one shared [`FileMapping`] of a file
/// (tmpfs-resident when available), header first, data area after it.
pub struct FileSegment {
    map: FileMapping,
    capacity: u64,
}

impl FileSegment {
    fn map(file: &std::fs::File, capacity: u64) -> std::io::Result<Self> {
        Ok(FileSegment {
            map: FileMapping::map(file, FILE_HEADER + capacity)?,
            capacity,
        })
    }

    /// Create (truncate) a segment file of `capacity` data bytes.
    pub fn create(path: &Path, capacity: u64) -> std::io::Result<Self> {
        assert!(capacity > 0, "segment capacity must be non-zero");
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(FILE_HEADER + capacity)?;
        // The header goes in with positioned writes, before mapping: on a
        // block-backed file system (ext4) the first *store* into a sparse
        // shared mapping allocates blocks in the fault handler, an order of
        // magnitude slower than letting `write` allocate the header page.
        let mut rest = [0u8; FILE_HEADER as usize - 8];
        rest[..8].copy_from_slice(&capacity.to_le_bytes());
        write_at(&file, 8, &rest)?;
        // Magic last: a peer that sees it knows the header is complete.
        write_at(&file, 0, &SEG_MAGIC.to_le_bytes())?;
        Self::map(&file, capacity)
    }

    /// Open and map an existing segment file. Returns `None` while the file
    /// is absent or its header incomplete (the creator is still setting it
    /// up) — callers poll. A complete header that contradicts the file (zero
    /// capacity, or a length other than header + capacity) is an error: it
    /// can never become valid, and mapping it would trade an `io::Error`
    /// for a SIGBUS.
    pub fn open(path: &Path) -> std::io::Result<Option<Self>> {
        let file = match std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
        {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        // Two reads, magic first: the creator writes the magic last, so a
        // capacity read *after* the magic was seen is the final one.
        let mut word = [0u8; 8];
        if read_at(&file, 0, &mut word).is_err() || u64::from_le_bytes(word) != SEG_MAGIC {
            return Ok(None); // not sized or not stamped yet
        }
        // A file that ends inside its header reads as capacity 0: an error.
        let capacity = read_at(&file, 8, &mut word).map_or(0, |()| u64::from_le_bytes(word));
        let file_len = file.metadata()?.len();
        if capacity == 0 || FILE_HEADER.checked_add(capacity) != Some(file_len) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "shm segment {} declares capacity {capacity} but is {file_len} bytes long",
                    path.display()
                ),
            ));
        }
        Self::map(&file, capacity).map(Some)
    }
}

// SAFETY: the mapping is `FILE_HEADER + capacity` bytes (its length was
// checked against the file before mapping), lives until `Drop`, and is
// page-aligned, so the control words at `CTRL_BASE + 8 * slot` are aligned
// `u64`s inside the header and the data area is the `capacity` bytes after
// it.
unsafe impl Segment for FileSegment {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn ctrl(&self, slot: Ctrl) -> &AtomicU64 {
        // SAFETY: see the impl comment; `AtomicU64` has no invalid bit
        // patterns and is only ever accessed atomically, by either process.
        unsafe {
            &*self
                .map
                .base()
                .add(CTRL_BASE + 8 * slot as usize)
                .cast::<AtomicU64>()
        }
    }

    fn data(&self) -> *mut u8 {
        // SAFETY: the header is inside the mapping.
        unsafe { self.map.base().add(FILE_HEADER as usize) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("partix_seg_{tag}_{}.ring", std::process::id()))
    }

    #[test]
    fn heap_round_trip() {
        let seg = HeapSegment::new(64);
        seg.data_write(10, b"hello");
        let mut out = [0u8; 5];
        seg.data_read(10, &mut out);
        assert_eq!(&out, b"hello");
        seg.ctrl_store(Ctrl::Tail, 42);
        assert_eq!(seg.ctrl_load(Ctrl::Tail), 42);
        assert_eq!(seg.ctrl_load(Ctrl::Head), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_copy_is_refused() {
        HeapSegment::new(16).data_write(12, b"hello");
    }

    /// The mapping *is* the channel: a store through one mapping is a load
    /// through another of the same file, with no call in between that could
    /// have moved the bytes.
    #[cfg(unix)]
    #[test]
    fn second_mapping_observes_tail_and_the_bytes_before_it() {
        let path = temp_path("shared");
        let writer = FileSegment::create(&path, 128).unwrap();
        let reader = FileSegment::open(&path).unwrap().expect("valid segment");
        assert_eq!(reader.capacity(), 128);
        assert_eq!(reader.ctrl_load(Ctrl::Tail), 0);
        writer.data_write(0, b"abc");
        writer.ctrl_store(Ctrl::Tail, 3);
        assert_eq!(reader.ctrl_load(Ctrl::Tail), 3);
        let mut out = [0u8; 3];
        reader.data_read(0, &mut out);
        assert_eq!(&out, b"abc");
        // And back: the consumer's cursor reaches the producer the same way.
        reader.ctrl_store(Ctrl::Head, 3);
        assert_eq!(writer.ctrl_load(Ctrl::Head), 3);
        // Unmapping one side leaves the other (and the file) intact.
        drop(writer);
        assert_eq!(reader.ctrl_load(Ctrl::Tail), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn create_truncates_a_previous_segment() {
        let path = temp_path("recreate");
        let old = FileSegment::create(&path, 64).unwrap();
        old.ctrl_store(Ctrl::Tail, 9);
        drop(old);
        let new = FileSegment::create(&path, 256).unwrap();
        assert_eq!(new.capacity(), 256);
        assert_eq!(new.ctrl_load(Ctrl::Tail), 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            FILE_HEADER + 256,
            "file is header + data, nothing else"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Files that are not (yet) segments read as "keep polling": absent,
    /// empty, shorter than a header, or without the magic.
    #[cfg(unix)]
    #[test]
    fn open_of_an_incomplete_or_foreign_file_is_none() {
        assert!(FileSegment::open(&temp_path("missing")).unwrap().is_none());
        for (tag, bytes) in [
            ("empty", &b""[..]),
            ("short", &b"PRTX"[..]),
            ("junk", &[0x5au8; 4096][..]),
        ] {
            let path = temp_path(tag);
            std::fs::write(&path, bytes).unwrap();
            assert!(FileSegment::open(&path).unwrap().is_none(), "{tag}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A complete header the file contradicts is an error, never a mapping:
    /// truncated behind the header, longer than declared, or zero capacity.
    #[cfg(unix)]
    #[test]
    fn open_of_a_segment_with_the_wrong_length_is_an_error() {
        let header = |capacity: u64| {
            let mut h = vec![0u8; FILE_HEADER as usize];
            h[..8].copy_from_slice(&SEG_MAGIC.to_le_bytes());
            h[8..16].copy_from_slice(&capacity.to_le_bytes());
            h
        };
        let mut truncated = header(1 << 20);
        truncated.extend_from_slice(&[0; 100]);
        let mut padded = header(64);
        padded.extend_from_slice(&[0; 65]);
        for (tag, bytes) in [
            ("truncated", truncated),
            ("padded", padded),
            ("zero_capacity", header(0)),
            ("magic_only", SEG_MAGIC.to_le_bytes().to_vec()),
            ("huge", header(u64::MAX - 8)),
        ] {
            let path = temp_path(tag);
            std::fs::write(&path, &bytes).unwrap();
            let err = FileSegment::open(&path).err().unwrap_or_else(|| {
                panic!("{tag}: a contradictory header must not map");
            });
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}");
            std::fs::remove_file(&path).unwrap();
        }
    }
}
