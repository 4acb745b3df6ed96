//! The real-time shared-memory fabric.
//!
//! [`ShmFabric`] runs the verbs object model on *wall-clock time and real
//! threads*: every posted WR becomes a DATA record in a per-QP-pair SPSC
//! [`SpscRing`], and whoever polls a completion queue of the fabric scans
//! the rings into deliveries and completions. The data ring is the send
//! queue: a record stays on it until the receiver is done with it, and the
//! ring's `Head`, the receiver's cursor, is the acknowledgement — the shape
//! of MPICH2-over-IB's RDMA channel, whose flow control is a consumer cursor
//! the sender reads (see DESIGN.md §11).
//!
//! Two deployments share all of this code:
//!
//! - **loopback** — both endpoints in one process over [`HeapSegment`]
//!   rings: the conformance-matrix configuration, where the same
//!   [`NetworkState`] (and telemetry registry) sees both sides;
//! - **host** — one process per endpoint over [`FileSegment`] rings mapped
//!   from a tmpfs directory: the `shm_exchange` two-process deployment,
//!   where each process stamps its own side of the ledger.
//!
//! # Data path
//!
//! A payload is copied once, from the source region straight into the
//! destination region, as a NIC's RDMA write moves it; no syscall,
//! allocation, hash look-up or clock read is made on the way. The ring
//! carries a *doorbell*: `submit` writes the 72-byte header and the WR's
//! gather list (16 bytes per segment, checked against the sender's
//! registrations at post), and the scan hands the list to the shared
//! [`execute_delivery`], which reads each segment out of the sender's region
//! only once the PSN, protection and receive-WR checks have passed — a
//! delivery that fails one writes nothing. Only an inline WR's record
//! carries bytes: the snapshot `post_send` took. The ring loses nothing, so
//! nothing is ever re-sent.
//!
//! Where the source region is: in loopback, in the same [`NetworkState`]. In
//! host mode every region a node registers lives in a memory file of its own,
//! named in the fabric's directory ([`Fabric::region_storage`], and the
//! `region` module for how the files are made, shared in-process and
//! pooled); the receiver maps a peer's region read-only the first time a
//! record names it and keeps the mapping, by node and lkey, for the life of
//! the fabric (regions are never deregistered). Each segment is checked
//! again on receipt — the region exists and holds the range, the lengths add
//! up to the header's — and a record that fails is refused as a protection
//! error (see [`ShmFabric::malformed_records`]).
//!
//! **Ownership rule.** The source range belongs to the sender until its send
//! completion, as on every fabric (the MPI Partitioned contract). A ring
//! record belongs to the receiver from its publication until `Head` moves
//! past it, and is delivered from where it lies, however long the RNR rule
//! holds it there: nothing is copied out of the ring.
//!
//! # Completion
//!
//! The receiver releases a record once its delivery has succeeded or failed;
//! a failure first writes its status into the record's header, in a byte
//! the ring reserves for it, before `Head` moves. The sending channel keeps
//! its records in a window, in ring order, each with its ring position. The
//! sender's scan reads `Head` and completes, in window order, every record
//! `Head` has passed, each with [`complete_posted`] of what the sender kept
//! and the status its slot holds. Only then does the sender reuse that space
//! (its `reclaimed` cursor): the ring's own check against `Head` would hand
//! back a slot whose status is unread. `Head` and the status bytes are
//! written by another process: a status byte that names no status fails
//! its WR as a protection error, and a `Head` past what this side posted
//! completes nothing beyond it. The sending channel of a QP is resolved once,
//! into a table indexed by the local QP number.
//!
//! # Progress
//!
//! A scan ([`ShmFabric::scan`]) visits every channel (from a snapshot of the
//! channel list refreshed only when one is installed): it delivers what a
//! data ring holds and completes what a sent ring's `Head` has passed. It
//! takes at most the records that were on a ring when it reached it, so a
//! drain never chases a sender that its own completions keep refilling. The
//! clock is read only where a deadline is set or checked, or to tick an
//! attached sampler. One scanner runs at a time, under the progress lock.
//! Pollers scan, and nothing else does: every completion queue created on
//! the fabric holds it ([`Fabric::progress`]), and a poll that finds its
//! queue empty try-locks and runs one scan on the polling thread, so a record
//! goes from the poster's ring to the poller's CQ with no thread hop — the
//! paper's caller-driven progress (§IV-A). [`ShmFabric::quiesce`], a submit
//! waiting out a full ring and [`ShmFabric::shutdown`]'s final drain scan
//! the same way. The fabric starts no thread: a process that stops polling
//! stops its side of the wire, and its peers' sends wait for their
//! completions until it polls again (a caller bounds that wait with its own
//! deadline).
//!
//! # The RNR rule
//!
//! A record whose receiver is not ready stays at the head of its ring. The
//! channel keeps one head-of-line wait, started at the record's first
//! attempt: when the sending QP's `min_rnr_timer` (wall-clock) expires, and
//! what is left of its `rnr_retry` ([`RnrBudget`]) — that many re-arms for
//! budgets 0–6 and, for InfiniBand's "retry indefinitely" 7, re-arms until
//! the record has waited [`ShmConfig::full_ring_deadline`]. The first scan
//! after the timer tries the record again. The records behind it wait,
//! unattempted, as an RC QP's later requests wait behind an RNR NAK, so a
//! window posted ahead of its receives lands in posting order; other
//! channels pass it. A receiver that is merely slow holds its sender back,
//! and only one that is gone fails it: a record that runs out of budget
//! fails `RnrRetryExceeded`, and so, at their first receiver-not-ready, do
//! the records that were behind it then, as an RC QP flushes its queue once
//! its RNR retries run out — a window fails in one deadline, not one per
//! record.
//!
//! There is no ack timer and no retransmission: a slow receiver is awaited.
//! Loss is not this fabric's to inject or to recover from — a
//! [`LossyFabric`](crate::LossyFabric) wrapped around it drops, duplicates
//! and re-sends, and what reaches this fabric from one is ordinary records
//! plus ghost duplicates, which the delivery engine's PSN check suppresses
//! and which complete nothing.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use partix_telemetry::{segments_for, FlowStage, Sampler};

use crate::buf::InlineVec;
use crate::fabric::{
    complete_posted, execute_delivery, DeliveryHeader, DeliveryOutcome, Fabric, Payload,
    PostedSend, ResolvedSegment, TransferJob,
};
use crate::memory::MemoryRegion;
use crate::network::{NetworkState, NodeCtx};
use crate::qp::RetryProfile;
use crate::table::IndexTable;
use crate::types::{NodeId, WcStatus};

use super::ring::{RecordReader, RecordWriter, SpscRing, RECORD_HEADER};
use super::segment::{FileMapping, FileSegment, HeapSegment, Segment};
use super::wait_until;

/// DATA record kind tag.
const KIND_DATA: u8 = 1;

/// Serialized DATA header bytes (the gather list, or an inline snapshot,
/// follows).
const DATA_HEADER: usize = 72;
/// Serialized bytes of one gather-list entry: `lkey: u32` | `len: u32` |
/// `offset: u64`.
const SEGMENT_ENTRY: usize = 16;

/// Configuration of a [`ShmFabric`].
#[derive(Clone, Copy, Debug)]
pub struct ShmConfig {
    /// Data-ring capacity per QP-pair channel, bytes. A single record
    /// (72-byte header + 16 bytes per gather segment, or + the payload of an
    /// inline WR, + the ring's 8) must fit, and so must a QP's whole window
    /// of its largest records: a record waiting on the RNR rule stays on the
    /// ring, and the records posted behind it wait there too. With the
    /// default caps that is 16 × 336 bytes, about 5.4 KiB; a ring that holds
    /// less stalls a window posted ahead of its receives, and fails it at
    /// the stall deadline. See [`ShmConfig::default`] for how the default
    /// was chosen.
    pub ring_capacity: u64,
    /// MTU used for `mtu_segments` accounting (the wire ledger's
    /// segmentation law), matching `FabricParams::mtu`.
    pub mtu: usize,
    /// The stall deadline. Bound on waiting for ring space on submit before
    /// panicking (a ring sized far below the offered load is a deployment
    /// error, not a recoverable condition), and on how long a delivery from a
    /// QP with `rnr_retry = 7` waits for a receive WR before it fails with
    /// `RnrRetryExceeded`.
    pub full_ring_deadline: Duration,
}

impl Default for ShmConfig {
    /// The data ring defaults to 64 KiB: records are doorbells (a 96-byte
    /// record for a one-segment write), so it holds about 680 of them, over
    /// forty 16-WR windows. Measured on the benchmark's `shm_exchange`
    /// (2 vCPUs, three seeds per size, traced runs for the stream and
    /// untraced ones for memory), the 64 KiB stream moves 11.2–12.0 GB/s at
    /// 64 KiB, 128 KiB 10.7–11.7 and 512 KiB 11.2–11.6, none with a ring-full
    /// stall: what bounds the stream is the one copy, not the ring. What the
    /// size does change is memory, since ring pages are mapped and every
    /// touched page is resident in each process that maps it: peak RSS 7.9–8.1
    /// MB at 64 KiB, 8.0–8.1 at 128 KiB, 8.1–8.2 at 512 KiB.
    fn default() -> Self {
        ShmConfig {
            ring_capacity: 1 << 16,
            mtu: 4096,
            full_ring_deadline: Duration::from_secs(10),
        }
    }
}

/// Where a fabric's segments live.
enum Backing {
    /// In-process heap rings, channels created lazily on first submit.
    Loopback,
    /// File rings under a shared directory; channels opened explicitly
    /// with [`ShmFabric::open_tx`] / [`ShmFabric::open_rx`].
    Host(PathBuf),
}

/// Directed channel identity: sender node/QP → receiver node/QP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PairKey {
    src_node: u32,
    src_qp: u32,
    dst_node: u32,
    dst_qp: u32,
}

impl PairKey {
    fn file_stem(&self) -> String {
        format!(
            "partix_n{}q{}_n{}q{}",
            self.src_node, self.src_qp, self.dst_node, self.dst_qp
        )
    }
}

/// One directed QP-pair channel: its DATA ring, sender → receiver, whose
/// `Head` carries the acknowledgements back.
struct Channel {
    key: PairKey,
    data: SpscRing,
    /// This process produces DATA and completes it.
    we_send: bool,
    /// This process consumes DATA.
    we_recv: bool,
    /// Serialises the DATA producer side (posts may come from any thread;
    /// the ring protocol wants one logical producer).
    tx_lock: Mutex<()>,
    /// Sender side: records not completed yet, in ring order (each is
    /// registered under `tx_lock`, just before it is pushed, so a scan
    /// that sees `Head` past a record finds it here).
    window: Mutex<VecDeque<Pending>>,
    /// Sender side: ring bytes the sender has completed, ghosts included:
    /// the bound on its pushes. Stored by the scanner, after the statuses
    /// below it are read.
    reclaimed: AtomicU64,
}

impl Channel {
    fn new(key: PairKey, data: Arc<dyn Segment>, we_send: bool, we_recv: bool) -> Arc<Channel> {
        let data = SpscRing::new(data);
        Arc::new(Channel {
            key,
            reclaimed: AtomicU64::new(data.consumed()),
            data,
            we_send,
            we_recv,
            tx_lock: Mutex::new(()),
            window: Mutex::new(VecDeque::new()),
        })
    }
}

/// Sender-side record awaiting its completion.
struct Pending {
    /// What the completion needs.
    wr: PostedSend,
    /// The record's ring position: `Head` past it completes it.
    at: u64,
    /// Flow-clock timestamp at submit: the `WireSubmit` event's time.
    submit_ns: u64,
}

/// What follows a DATA record's header, as a delivery reads it: where the
/// payload is.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// The sender's gather list; the bytes are in its regions.
    Gather(&'a InlineVec<ResolvedSegment>),
    /// An inline WR's snapshot, in up to two pieces.
    Inline([&'a [u8]; 2]),
    /// A body that disagrees with its header: there is nothing to read.
    Malformed,
}

/// The `rnr_retry` value InfiniBand reserves for "retry indefinitely".
const RNR_RETRY_INFINITE: u8 = 7;

/// What is left of the sending QP's `rnr_retry` for the record at the head
/// of a ring.
#[derive(Clone, Copy)]
enum RnrBudget {
    /// `rnr_retry` 0–6: receiver-not-ready may re-arm the timer this many
    /// more times.
    Rearms(u8),
    /// `rnr_retry = 7`: it may re-arm the timer until this instant,
    /// [`ShmConfig::full_ring_deadline`] after the record's first attempt.
    /// A wall-clock fabric cannot count this budget out: seven timers are a
    /// few milliseconds, which a receiver thread that merely lost its CPU
    /// outlasts, and the sender it fails cannot tell that from a dead peer.
    Until(Instant),
}

/// The receiver's head-of-line wait on one channel: the record at its head
/// met receiver-not-ready.
struct RnrWait {
    /// When the re-armed RNR timer expires.
    due: Instant,
    budget: RnrBudget,
}

/// What the receiver keeps of a channel between scans: the RNR rule's
/// state.
#[derive(Default)]
struct RxState {
    /// The head record's RNR wait, if it has one.
    wait: Option<RnrWait>,
    /// Records before this ring position fail at their first
    /// receiver-not-ready: they were on the ring when a record ran out of
    /// RNR budget (see the module docs).
    flush_to: u64,
}

/// What the scanner keeps between scans. Whoever scans holds the lock
/// around it, so there is one scanner at a time.
#[derive(Default)]
struct ProgressState {
    /// Every installed channel, in installation order (the list only
    /// grows), re-read only when one is installed, with its receiver's
    /// state.
    channels: Vec<(Arc<Channel>, RxState)>,
}

#[derive(Default)]
struct ShmStats {
    data_records: AtomicU64,
    rnr_deferrals: AtomicU64,
    malformed_records: AtomicU64,
    ring_full_stalls: AtomicU64,
    progress_iterations: AtomicU64,
    ring_occupancy_high_water: AtomicU64,
}

/// Real-time shared-memory fabric. See the module docs.
pub struct ShmFabric {
    cfg: ShmConfig,
    backing: Backing,
    /// Host mode: the files this fabric's own regions live in, unlinked at
    /// `shutdown`.
    region_files: Mutex<Vec<PathBuf>>,
    /// Host mode: what this process has mapped of each peer node's regions,
    /// read-only, at the index the node's id spells (see
    /// [`ShmFabric::source_region`]).
    peers: IndexTable<Arc<NodeCtx>>,
    channels: Mutex<Vec<Arc<Channel>>>,
    /// `channels.len()`, published after each install: a scan re-reads the
    /// list only when this differs from its snapshot.
    channels_installed: AtomicUsize,
    /// The sending channel of each local QP, at the index its number spells
    /// (a connected QP sends to one peer): what `submit` resolves instead of
    /// searching `channels`.
    tx_route: IndexTable<Arc<Channel>>,
    /// The scanner's state, and the progress lock; see [`ProgressState`].
    progress_state: Mutex<ProgressState>,
    net: OnceLock<Weak<NetworkState>>,
    shutdown: AtomicBool,
    stats: ShmStats,
    /// Wall-clock sampler ticked at every scan, paired with the instant it
    /// was attached (its t = 0).
    sampler: OnceLock<(Arc<Sampler>, Instant)>,
}

impl ShmFabric {
    /// In-process fabric over heap rings with default configuration.
    pub fn loopback() -> Arc<Self> {
        Self::loopback_with(ShmConfig::default())
    }

    /// In-process fabric over heap rings.
    pub fn loopback_with(cfg: ShmConfig) -> Arc<Self> {
        Self::build(cfg, Backing::Loopback)
    }

    /// Cross-process fabric over file rings in `dir` (typically
    /// [`default_shm_dir`](super::segment::default_shm_dir)). Channels are
    /// opened explicitly with [`ShmFabric::open_tx`] /
    /// [`ShmFabric::open_rx`] after the out-of-band QP-number exchange.
    pub fn host(dir: impl Into<PathBuf>, cfg: ShmConfig) -> Arc<Self> {
        Self::build(cfg, Backing::Host(dir.into()))
    }

    fn build(cfg: ShmConfig, backing: Backing) -> Arc<Self> {
        assert!(
            cfg.ring_capacity > DATA_HEADER as u64,
            "the ring capacity must hold at least one record"
        );
        Arc::new(ShmFabric {
            cfg,
            backing,
            region_files: Mutex::new(Vec::new()),
            peers: IndexTable::new(),
            channels: Mutex::new(Vec::new()),
            channels_installed: AtomicUsize::new(0),
            tx_route: IndexTable::new(),
            progress_state: Mutex::new(ProgressState::default()),
            net: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            stats: ShmStats::default(),
            sampler: OnceLock::new(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> ShmConfig {
        self.cfg
    }

    /// Register the network this fabric delivers into. Implicit on first
    /// `submit`; a receive-only process (host mode) calls it explicitly so
    /// its scans can resolve destination QPs.
    pub fn attach_network(&self, net: &Arc<NetworkState>) {
        let weak = self.net.get_or_init(|| Arc::downgrade(net));
        debug_assert!(
            weak.upgrade().is_some_and(|n| Arc::ptr_eq(&n, net)),
            "a ShmFabric serves exactly one network"
        );
    }

    /// DATA records this process's scans released: delivered, or failed.
    /// A record that the RNR rule holds at the head of its ring is not
    /// counted until it is released.
    pub fn data_records(&self) -> u64 {
        self.stats.data_records.load(Ordering::Relaxed)
    }

    /// Always 0: the rings lose nothing, so this fabric re-sends nothing
    /// (retransmission is [`LossyFabric`](crate::LossyFabric)'s, counted
    /// in the wire ledger's `retransmits`). Kept because `benchmark/` reports it as
    /// `verbs.shm.retransmits`; it goes with the `[benchmark]` change that
    /// drops that metric.
    pub fn retransmits(&self) -> u64 {
        0
    }

    /// Deliveries re-armed by the wall-clock RNR timer.
    pub fn rnr_deferrals(&self) -> u64 {
        self.stats.rnr_deferrals.load(Ordering::Relaxed)
    }

    /// Records and completions refused as malformed. On the receiving side:
    /// a body that disagrees with its header, or a gather segment that
    /// names no region of the sender's (in host mode: no region file) or
    /// reaches past the end of one; each is released `RemoteAccessError`
    /// and counted in the wire ledger as a delivery attempt that failed its
    /// protection check. On the sending side: a released record whose
    /// status byte names no status, which completes `RemoteAccessError`.
    /// Both are bytes another process wrote; this fabric's own never
    /// produce one.
    pub fn malformed_records(&self) -> u64 {
        self.stats.malformed_records.load(Ordering::Relaxed)
    }

    /// Laps of its data ring made by the busiest channel this process
    /// receives on: bytes consumed over the ring's capacity.
    pub fn data_ring_laps(&self) -> u64 {
        let channels = self.channels.lock();
        let received = channels.iter().filter(|ch| ch.we_recv);
        received
            .map(|ch| ch.data.consumed() / ch.data.capacity())
            .max()
            .unwrap_or(0)
    }

    /// Times a submit had to wait for ring space (backpressure events).
    pub fn ring_full_stalls(&self) -> u64 {
        self.stats.ring_full_stalls.load(Ordering::Relaxed)
    }

    /// Scans (each is one full scan of every channel).
    pub fn progress_iterations(&self) -> u64 {
        self.stats.progress_iterations.load(Ordering::Relaxed)
    }

    /// Always 0: the fabric has no thread to wake, since pollers make all
    /// of its progress. Kept because `benchmark/` reports it as
    /// `verbs.shm.wakeups_per_msg`; it goes with the `[benchmark]` change
    /// that drops that metric.
    pub fn progress_wakeups(&self) -> u64 {
        0
    }

    /// High-water mark of DATA-ring occupancy in bytes, across every
    /// channel of this fabric: sampled by the sender after each enqueue (and
    /// at each ring-full stall) and by the receiver's scans at each record
    /// they take, so whichever side sees the backlog reports it.
    pub fn ring_occupancy_high_water(&self) -> u64 {
        self.stats.ring_occupancy_high_water.load(Ordering::Relaxed)
    }

    /// Raise the occupancy gauge to `seen` bytes. Compared first: past
    /// warm-up the mark rarely moves, and a plain load leaves the counter's
    /// cache line shared between the posting and the scanning thread.
    fn note_occupancy(&self, seen: u64) {
        let mark = &self.stats.ring_occupancy_high_water;
        if seen > mark.load(Ordering::Relaxed) {
            mark.fetch_max(seen, Ordering::Relaxed);
        }
    }

    /// Attach a wall-clock [`Sampler`]: every scan — a poller's, as a rule —
    /// ticks it with nanoseconds elapsed since this call, so frames capture
    /// windows of real time while someone polls. One sampler per fabric;
    /// later calls are ignored.
    pub fn attach_sampler(&self, sampler: Arc<Sampler>) {
        let _ = self.sampler.set((sampler, Instant::now()));
    }

    /// The fabric-level gauges a composed [`Sample`](partix_telemetry::Sample)
    /// source should carry: scan activity and ring occupancy.
    pub fn sample_gauges(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("progress_iterations", self.progress_iterations()),
            (
                "ring_occupancy_high_water",
                self.ring_occupancy_high_water(),
            ),
            ("ring_full_stalls", self.ring_full_stalls()),
            ("rnr_deferrals", self.rnr_deferrals()),
            ("malformed_records", self.malformed_records()),
        ]
    }

    /// Whether nothing is in flight on this fabric: every ring it consumes
    /// drained, and every record it sent completed and its space reclaimed.
    pub fn is_idle(&self) -> bool {
        self.channels.lock().iter().all(|ch| {
            (!ch.we_recv || ch.data.is_empty())
                && (!ch.we_send
                    || (ch.reclaimed.load(Ordering::Acquire) == ch.data.published()
                        && ch.window.lock().is_empty()))
        })
    }

    /// Block until [`is_idle`](Self::is_idle) holds, or `timeout` elapses.
    /// Returns whether the fabric quiesced.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.is_idle() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.progress();
            std::thread::yield_now();
        }
    }

    /// Stop the fabric: close every ring it produces, run the final drain on
    /// the calling thread, and unlink the files this fabric's regions live
    /// in (host mode; mappings stay valid, so a peer's views outlive them).
    /// Idempotent; also run by `Drop`. A thread that is unwinding skips the
    /// drain: a scan that panicked there too would abort the process.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for ch in self.channels.lock().iter().filter(|ch| ch.we_send) {
            ch.data.close();
        }
        if !std::thread::panicking() {
            self.drain();
        }
        for path in self.region_files.lock().drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// The final drain: scan, try-locked as a poll does, until the fabric
    /// is idle, the network it delivers into is gone, or nothing has moved
    /// for a stall deadline (a peer that will never consume must not turn
    /// `shutdown` into a hang).
    fn drain(&self) {
        let mut deadline = Instant::now() + self.cfg.full_ring_deadline;
        loop {
            // `None`: another scanner holds the lock, and is draining too.
            let scanned = (self.progress_state.try_lock()).map(|mut st| self.scan(&mut st));
            let now = Instant::now();
            if scanned == Some(true) {
                deadline = now + self.cfg.full_ring_deadline;
            }
            let network_gone = self.net.get().is_none_or(|net| net.strong_count() == 0);
            if network_gone || (scanned == Some(false) && self.is_idle()) || now >= deadline {
                return;
            }
            if scanned != Some(true) {
                std::thread::yield_now();
            }
        }
    }

    /// Open the sending side of the directed channel `src → dst` (host
    /// mode): creates the segment file and waits up to `timeout` for the
    /// receiver to attach, or fails with `TimedOut`. The wait yields, and
    /// sleeps only after a millisecond, never past `timeout`: a receiver
    /// that is there is seen within µs.
    pub fn open_tx(
        &self,
        src: (u32, u32),
        dst: (u32, u32),
        timeout: Duration,
    ) -> std::io::Result<()> {
        let key = PairKey {
            src_node: src.0,
            src_qp: src.1,
            dst_node: dst.0,
            dst_qp: dst.1,
        };
        let Backing::Host(dir) = &self.backing else {
            panic!("open_tx applies to host-mode fabrics; loopback channels are implicit");
        };
        let ch = {
            // Routes are written under the list lock, so the check holds
            // until the route is set.
            let mut channels = self.channels.lock();
            if self.tx_route.get(src.1).is_some() {
                // A connected QP sends to one peer.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "this QP already has a sending shm channel",
                ));
            }
            let data =
                FileSegment::create(&dir.join(key.file_stem() + ".data"), self.cfg.ring_capacity)?;
            let ch = Channel::new(key, Arc::new(data), true, false);
            self.publish(&mut channels, &ch);
            let fresh = self.tx_route.set(src.1, ch.clone());
            assert!(fresh.is_ok(), "route checked empty under the list lock");
            ch
        };
        if !wait_until(Instant::now() + timeout, || ch.data.is_attached()) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "peer did not attach to shm channel",
            ));
        }
        Ok(())
    }

    /// Open the receiving side of the directed channel `src → dst` (host
    /// mode): looks for the sender's segment file up to `timeout` (or fails
    /// with `TimedOut`), then acknowledges attachment. The wait is
    /// [`open_tx`](Self::open_tx)'s: a file that is there is seen within
    /// µs, and no sleep reaches past `timeout`.
    pub fn open_rx(
        &self,
        src: (u32, u32),
        dst: (u32, u32),
        timeout: Duration,
    ) -> std::io::Result<()> {
        let key = PairKey {
            src_node: src.0,
            src_qp: src.1,
            dst_node: dst.0,
            dst_qp: dst.1,
        };
        let Backing::Host(dir) = &self.backing else {
            panic!("open_rx applies to host-mode fabrics; loopback channels are implicit");
        };
        let path = dir.join(key.file_stem() + ".data");
        // `Ok(None)` until the file is complete; an error ends the wait.
        let mut opened = Ok(None);
        wait_until(Instant::now() + timeout, || {
            opened = FileSegment::open(&path);
            !matches!(opened, Ok(None))
        });
        let Some(data) = opened? else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "shm channel segments never appeared",
            ));
        };
        let ch = Channel::new(key, Arc::new(data), false, true);
        self.publish(&mut self.channels.lock(), &ch);
        ch.data.mark_attached();
        Ok(())
    }

    /// Add `ch` to `channels`, the locked list a scan visits.
    fn publish(&self, channels: &mut Vec<Arc<Channel>>, ch: &Arc<Channel>) {
        channels.push(ch.clone());
        self.channels_installed
            .store(channels.len(), Ordering::Release);
    }

    /// The sending channel for `key` when its QP is not routed to it yet:
    /// the first post of a loopback QP, which creates the channel and the
    /// route, or a QP re-connected to another peer, which keeps its first
    /// route and finds its later channels here on every post.
    #[cold]
    fn channel_slow(&self, key: PairKey) -> Arc<Channel> {
        let Backing::Loopback = &self.backing else {
            panic!(
                "no shm channel open for QP pair {key:?}; host mode requires open_tx before posting"
            );
        };
        // Found or created under the list lock, so concurrent posts create
        // one channel per key.
        let find_or_create = || {
            let mut channels = self.channels.lock();
            if let Some(ch) = channels.iter().find(|c| c.key == key) {
                return ch.clone();
            }
            let ring = Arc::new(HeapSegment::new(self.cfg.ring_capacity as usize));
            let ch = Channel::new(key, ring, true, true);
            self.publish(&mut channels, &ch);
            ch
        };
        let routed = self.tx_route.get_or_init(key.src_qp, find_or_create);
        if routed.key == key {
            routed.clone()
        } else {
            find_or_create()
        }
    }

    /// Publish one DATA record of `len` bytes, written in place by `write`,
    /// on `ch`'s ring, waiting out backpressure. `pending` (none for a ghost)
    /// joins the window, with the record's position, before the record
    /// joins the ring.
    fn enqueue_data(
        &self,
        ch: &Channel,
        len: usize,
        write: &dyn Fn(&mut RecordWriter<'_>),
        pending: Option<Pending>,
    ) {
        let _tx = ch.tx_lock.lock();
        // The producer's own cursor: it moves only under `tx_lock`.
        let at = ch.data.published();
        let (need, cap) = (RECORD_HEADER + len as u64, ch.data.capacity());
        // The ring's own check, which the bound below would only wait out.
        assert!(
            need <= cap,
            "record of {need} bytes exceeds ring capacity {cap}"
        );
        if let Some(pending) = pending {
            ch.window.lock().push_back(Pending { at, ..pending });
        }
        // Only completed records' space is reused: `Head` alone would hand
        // back slots whose status the sender has not read yet.
        let push = || {
            at + need <= ch.reclaimed.load(Ordering::Acquire) + cap
                && ch.data.try_push_with(KIND_DATA, len, write)
        };
        if !push() {
            self.stats.ring_full_stalls.fetch_add(1, Ordering::Relaxed);
            self.note_occupancy(ch.data.len());
            let deadline = Instant::now() + self.cfg.full_ring_deadline;
            loop {
                // A ring's space comes back when its sender scans.
                self.progress();
                std::thread::yield_now();
                if push() {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "shm data ring {:?} full past the {:?} stall deadline — ring under-sized \
                     for the offered load or the consumer is gone",
                    ch.key,
                    self.cfg.full_ring_deadline
                );
            }
        }
        // The producer's own bound never under-reports, so the consumer's
        // cursor is looked at only when the mark could move.
        if ch.data.len_bound() > self.ring_occupancy_high_water() {
            self.note_occupancy(ch.data.len());
        }
    }

    /// [`Fabric::submit`] once the sending channel is known.
    fn submit_on(&self, net: &Arc<NetworkState>, ch: &Channel, job: TransferJob) {
        let profile = net.qp(job.src_node, job.src_qp).ok().map_or(
            RetryProfile {
                timeout: 5,
                retry_cnt: 0,
                rnr_retry: 0,
                min_rnr_timer_ns: 10_000,
            },
            |qp| qp.retry_profile(),
        );
        // Header, then the doorbell's gather list — the receiver reads the
        // bytes out of the source regions — or an inline WR's snapshot.
        let body = match &job.inline_payload {
            Some(snapshot) => snapshot.len(),
            None => SEGMENT_ENTRY * job.segments.len(),
        };
        let header = data_header(&job, &profile);
        let write = |w: &mut RecordWriter<'_>| {
            w.put(&header);
            match &job.inline_payload {
                Some(snapshot) => w.put(snapshot),
                None => (job.segments.iter()).for_each(|seg| w.put(&segment_entry(seg))),
            }
        };
        // A ghost duplicate (a lossy decorator's) is fire-and-forget: no
        // completion. The record's position is known once it is queued.
        let pending = (!job.ghost).then(|| Pending {
            wr: job.posted(),
            at: 0,
            submit_ns: net.telemetry().flows.now(),
        });
        // The wire ledger is charged for a transfer entering the fabric
        // before its record can be delivered.
        let wire = &net.telemetry().wire;
        wire.inner_submissions.inc();
        wire.mtu_segments
            .add(segments_for(job.total_len.into(), self.cfg.mtu));
        self.enqueue_data(ch, DATA_HEADER + body, &write, pending);
    }
}

impl Drop for ShmFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Fabric for ShmFabric {
    fn submit(&self, net: Arc<NetworkState>, job: TransferJob) {
        let net = &net;
        assert!(
            !self.shutdown.load(Ordering::Acquire),
            "submit on a shut-down ShmFabric"
        );
        self.attach_network(net);

        let key = PairKey {
            src_node: job.src_node,
            src_qp: job.src_qp,
            dst_node: job.dst_node,
            dst_qp: job.dst_qp,
        };
        match self.tx_route.get(key.src_qp).filter(|ch| ch.key == key) {
            Some(ch) => self.submit_on(net, ch, job),
            None => self.submit_on(net, &self.channel_slow(key), job),
        }
    }

    /// Host mode: a file of the fabric's directory, mapped read-write, which
    /// peers map read-only to deliver from (see the module docs). Loopback:
    /// the heap, in the one process.
    fn region_storage(
        &self,
        node: NodeId,
        lkey: u32,
        len: usize,
    ) -> std::io::Result<Option<Arc<FileMapping>>> {
        let Backing::Host(dir) = &self.backing else {
            return Ok(None);
        };
        let path = region_path(dir, node, lkey);
        let map = super::region::create(&path, len as u64)?;
        self.region_files.lock().push(path);
        Ok(Some(map))
    }

    /// One scan on the polling thread, unless another scanner holds the
    /// progress lock: then that one is scanning, and the poller looks at its
    /// queue again all the same.
    fn progress(&self) -> bool {
        if let Some(mut st) = self.progress_state.try_lock() {
            self.scan(&mut st);
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Wire records
// ---------------------------------------------------------------------------

/// The record carries an immediate: it is a write-with-immediate and
/// consumes a receive WR. Nothing else in the header names the operation.
const FLAG_IMM: u8 = 1;
const FLAG_GHOST: u8 = 2;
/// The record carries an inline WR's snapshot instead of a gather list.
const FLAG_INLINE: u8 = 8;

/// The status byte the receiver releases a record with: 0 when its
/// delivery landed (or was a suppressed duplicate of one that did).
fn status_to_wire(outcome: &DeliveryOutcome) -> u8 {
    match outcome {
        DeliveryOutcome::Delivered { .. } | DeliveryOutcome::Duplicate => 0,
        DeliveryOutcome::RemoteAccessError => 1,
        DeliveryOutcome::ReceiverNotReady => 2,
    }
}

/// The completion status a released record's status byte names; `None` for
/// a byte that names none.
fn status_from_wire(b: u8) -> Option<WcStatus> {
    match b {
        0 => Some(WcStatus::Success),
        1 => Some(WcStatus::RemoteAccessError),
        2 => Some(WcStatus::RnrRetryExceeded),
        _ => None,
    }
}

/// Offset of the flags byte in a DATA header.
const FLAGS_AT: usize = 60;

/// The fixed header of `job`'s DATA record (its gather list or inline
/// snapshot follows). The receiver reads all of it but `src_node` and
/// `wr_id`, which only say whose record this is to someone reading a segment
/// file: the channel names the sending node, and the sender's window has
/// the rest.
fn data_header(job: &TransferJob, profile: &RetryProfile) -> [u8; DATA_HEADER] {
    let mut rec = [0u8; DATA_HEADER];
    rec[0..4].copy_from_slice(&job.src_node.to_le_bytes());
    rec[4..8].copy_from_slice(&job.dst_node.to_le_bytes());
    rec[8..12].copy_from_slice(&job.src_qp.to_le_bytes());
    rec[12..16].copy_from_slice(&job.dst_qp.to_le_bytes());
    rec[16..24].copy_from_slice(&job.wr_id.to_le_bytes());
    rec[24..32].copy_from_slice(&job.psn.to_le_bytes());
    rec[32..40].copy_from_slice(&job.flow.to_le_bytes());
    rec[40..48].copy_from_slice(&job.remote_addr.to_le_bytes());
    rec[48..52].copy_from_slice(&job.rkey.to_le_bytes());
    rec[52..56].copy_from_slice(&job.total_len.to_le_bytes());
    rec[56..60].copy_from_slice(&job.imm.unwrap_or(0).to_le_bytes());
    if job.imm.is_some() {
        rec[FLAGS_AT] |= FLAG_IMM;
    }
    if job.ghost {
        rec[FLAGS_AT] |= FLAG_GHOST;
    }
    if job.inline_payload.is_some() {
        rec[FLAGS_AT] |= FLAG_INLINE;
    }
    rec[62] = profile.rnr_retry;
    rec[64..72].copy_from_slice(&profile.min_rnr_timer_ns.to_le_bytes());
    rec
}

/// One gather-list entry of a DATA record.
fn segment_entry(seg: &ResolvedSegment) -> [u8; SEGMENT_ENTRY] {
    let mut e = [0u8; SEGMENT_ENTRY];
    e[0..4].copy_from_slice(&seg.lkey.to_le_bytes());
    // An SGE's length is a `u32`, so a checked segment's is too.
    e[4..8].copy_from_slice(&(seg.len as u32).to_le_bytes());
    e[8..16].copy_from_slice(&(seg.offset as u64).to_le_bytes());
    e
}

/// The file region `lkey` of `node` lives in, in a host-mode fabric's
/// directory.
fn region_path(dir: &std::path::Path, node: u32, lkey: u32) -> PathBuf {
    dir.join(format!("partix_n{node}_mr{lkey:#x}"))
}

/// What a DATA record says besides its delivery header.
#[derive(Clone, Copy)]
struct RecordAttrs {
    /// The sending QP's `rnr_retry`.
    rnr_retry: u8,
    /// The sending QP's RNR timer.
    min_rnr_timer_ns: u64,
    /// An inline WR's record ([`FLAG_INLINE`]).
    inline: bool,
}

/// Read a DATA record's fixed header: what its delivery needs, plus the
/// sender's attributes. The body stays where it is, in the ring, as what is
/// left of `r`. `None` for a record too short to hold a header.
fn parse_data_header(r: &mut RecordReader<'_>) -> Option<(DeliveryHeader, RecordAttrs)> {
    let mut rec = [0u8; DATA_HEADER];
    if r.remaining() < DATA_HEADER {
        return None;
    }
    r.take(&mut rec);
    let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().expect("fixed"));
    let u64_at = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().expect("fixed"));
    let flags = rec[FLAGS_AT];
    let total_len = u32_at(52);
    let header = DeliveryHeader {
        src_qp: u32_at(8),
        dst_node: u32_at(4),
        dst_qp: u32_at(12),
        remote_addr: u64_at(40),
        rkey: u32_at(48),
        imm: (flags & FLAG_IMM != 0).then(|| u32_at(56)),
        total_len,
        psn: u64_at(24),
        ghost: flags & FLAG_GHOST != 0,
        flow: u64_at(32),
    };
    let attrs = RecordAttrs {
        rnr_retry: rec[62],
        min_rnr_timer_ns: u64_at(64),
        inline: flags & FLAG_INLINE != 0,
    };
    Some((header, attrs))
}

/// Read what follows a DATA record's header into `gather` (a gather list)
/// and say whether it agrees with the header: an inline snapshot of exactly
/// `total_len` bytes, or one or more whole entries whose lengths add up to
/// it.
fn read_body(
    r: &mut RecordReader<'_>,
    header: &DeliveryHeader,
    inline: bool,
    gather: &mut InlineVec<ResolvedSegment>,
) -> bool {
    let total = u64::from(header.total_len);
    if inline {
        return r.remaining() as u64 == total;
    }
    if r.remaining() == 0 || r.remaining() % SEGMENT_ENTRY != 0 {
        return false;
    }
    let mut sum = 0u64;
    while r.remaining() > 0 {
        let mut e = [0u8; SEGMENT_ENTRY];
        r.take(&mut e);
        let len = u32::from_le_bytes(e[4..8].try_into().expect("fixed"));
        let offset = u64::from_le_bytes(e[8..16].try_into().expect("fixed"));
        let Ok(offset) = usize::try_from(offset) else {
            return false;
        };
        sum += u64::from(len);
        gather.push(ResolvedSegment {
            lkey: u32::from_le_bytes(e[0..4].try_into().expect("fixed")),
            offset,
            len: len as usize,
        });
    }
    sum == total
}

// ---------------------------------------------------------------------------
// Progress engine
// ---------------------------------------------------------------------------

/// Test hook: exclusive hold on a fabric's progress. See
/// [`ShmFabric::pause_progress`].
#[doc(hidden)]
pub struct ProgressDriver<'a> {
    fab: &'a ShmFabric,
    st: MutexGuard<'a, ProgressState>,
}

impl ProgressDriver<'_> {
    /// One scan, on the calling thread. Returns whether it found work.
    pub fn scan(&mut self) -> bool {
        self.fab.scan(&mut self.st)
    }
}

impl ShmFabric {
    /// Test hook: lock every poller out (their scans skip while the driver
    /// lives) and hand the scanning to the caller, one
    /// [`ProgressDriver::scan`] at a time — so a test can count what one scan
    /// does, or hold a side of the wire still. Drop the driver before
    /// `shutdown`, whose drain otherwise waits out the stall deadline.
    #[doc(hidden)]
    pub fn pause_progress(&self) -> ProgressDriver<'_> {
        ProgressDriver {
            fab: self,
            st: self.progress_state.lock(),
        }
    }

    /// One progress scan: deliver what every DATA ring this process
    /// consumes holds, and complete what every ring it sends on has seen
    /// released. Returns whether anything was there to do.
    fn scan(&self, st: &mut ProgressState) -> bool {
        self.stats
            .progress_iterations
            .fetch_add(1, Ordering::Relaxed);
        if let Some((sampler, epoch)) = self.sampler.get() {
            sampler.tick(epoch.elapsed().as_nanos() as u64);
        }
        let Some(net) = self.net.get().and_then(Weak::upgrade) else {
            return false;
        };
        let channels = &mut st.channels;
        if self.channels_installed.load(Ordering::Acquire) != channels.len() {
            let installed = self.channels.lock();
            let fresh = installed[channels.len()..].iter();
            channels.extend(fresh.map(|ch| (ch.clone(), RxState::default())));
        }
        let mut did_work = false;
        for (ch, rx) in channels.iter_mut() {
            if ch.we_recv {
                did_work |= self.take_data(&net, ch, rx);
            }
            if ch.we_send {
                did_work |= self.complete_sends(&net, ch);
            }
        }
        did_work
    }

    /// Deliver the records on `ch`'s ring, in order, from where they lie:
    /// at most those that were there when the drain began. A record that
    /// meets receiver-not-ready with budget left stays at the head, and the
    /// drain ends; the first drain after its timer tries it again. Returns
    /// whether a delivery was attempted.
    fn take_data(&self, net: &Arc<NetworkState>, ch: &Channel, rx: &mut RxState) -> bool {
        let end = ch.data.published();
        let mut attempted = false;
        while ch.data.consumed() < end {
            if rx.wait.as_ref().is_some_and(|w| w.due > Instant::now()) {
                break;
            }
            let taken = ch.data.try_take_with(|kind, r| {
                self.note_occupancy(r.backlog());
                let released = self.take_record(net, ch, rx, kind, r);
                (released.is_some(), released)
            });
            attempted = true;
            if taken != Ok(true) {
                break;
            }
            self.stats.data_records.fetch_add(1, Ordering::Relaxed);
        }
        attempted
    }

    /// Attempt the delivery of the record at the head of `ch`, whose kind
    /// and body `r` holds. `Some(status)` releases it with the status byte
    /// its sender will read; `None` keeps it at the head, receiver-not-ready,
    /// with its RNR timer re-armed.
    fn take_record(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        rx: &mut RxState,
        kind: u8,
        r: &mut RecordReader<'_>,
    ) -> Option<u8> {
        let parsed = (kind == KIND_DATA).then(|| parse_data_header(r)).flatten();
        let Some((header, attrs)) = parsed else {
            // No header, so nothing to deliver to: counted, and failed.
            self.stats.malformed_records.fetch_add(1, Ordering::Relaxed);
            return Some(status_to_wire(&DeliveryOutcome::RemoteAccessError));
        };
        let mut gather = InlineVec::new();
        let source = match (
            read_body(r, &header, attrs.inline, &mut gather),
            attrs.inline,
        ) {
            (false, _) => Source::Malformed,
            (true, true) => Source::Inline(r.rest()),
            (true, false) => Source::Gather(&gather),
        };
        let outcome = self.deliver(net, ch.key.src_node, &header, source);
        if !matches!(outcome, DeliveryOutcome::ReceiverNotReady) {
            rx.wait = None;
            return Some(status_to_wire(&outcome));
        }
        let now = Instant::now();
        let timer = Duration::from_nanos(attrs.min_rnr_timer_ns.max(1));
        let budget = match rx.wait.take() {
            Some(RnrWait { budget, .. }) => budget,
            // A first attempt: the budget starts here, unless the record was
            // on the ring when another ran out of its own.
            None if ch.data.consumed() < rx.flush_to => RnrBudget::Rearms(0),
            None if attrs.rnr_retry == RNR_RETRY_INFINITE => {
                RnrBudget::Until(now + self.cfg.full_ring_deadline)
            }
            None => RnrBudget::Rearms(attrs.rnr_retry),
        };
        let budget = match budget {
            RnrBudget::Rearms(left) if left > 0 => RnrBudget::Rearms(left - 1),
            RnrBudget::Until(give_up) if now < give_up => budget,
            _ => {
                rx.flush_to = ch.data.published();
                return Some(status_to_wire(&outcome));
            }
        };
        rx.wait = Some(RnrWait {
            due: now + timer,
            budget,
        });
        net.telemetry().wire.rnr_requeues.inc();
        self.stats.rnr_deferrals.fetch_add(1, Ordering::Relaxed);
        let flows = &net.telemetry().flows;
        let stage = FlowStage::RnrWait;
        flows.event(header.flow, stage, header.src_qp, 0, attrs.min_rnr_timer_ns);
        None
    }

    /// What a delivery from `source`, of a record sent by `src_node`, reads:
    /// the inline snapshot, or the gather list over the regions it names —
    /// `None` unless every segment lies inside a region of the sender's,
    /// which host mode maps read-only the first time a record names it.
    fn payload<'a>(
        &'a self,
        net: &'a NetworkState,
        src_node: NodeId,
        source: Source<'a>,
    ) -> Option<Payload<'a>> {
        let segments = match source {
            Source::Inline(pieces) => return Some(Payload::Bytes(pieces)),
            Source::Malformed => return None,
            Source::Gather(segments) => segments,
        };
        let src: &NodeCtx = match &self.backing {
            Backing::Loopback => net.node(src_node).ok()?,
            Backing::Host(_) => self.peers.get_or_init(src_node, || NodeCtx::new(src_node)),
        };
        for seg in segments.iter() {
            let mr = self.source_region(src, seg.lkey)?;
            seg.offset
                .checked_add(seg.len)
                .filter(|&end| end <= mr.len())?;
            // The copy waits on the delivery engine's checks; the source's
            // first line, likely in the sender's cache, need not.
            mr.prefetch(seg.offset);
        }
        Some(Payload::Segments(src, segments))
    }

    /// Region `lkey` of the sending node `src`: registered in this process
    /// (loopback), or a peer's, mapped read-only from its file on first use
    /// and kept (host mode). `None` if there is no such region.
    fn source_region<'a>(&self, src: &'a NodeCtx, lkey: u32) -> Option<&'a MemoryRegion> {
        if let Ok(mr) = src.mrs.by_lkey(lkey) {
            return Some(mr);
        }
        let Backing::Host(dir) = &self.backing else {
            return None;
        };
        let view = super::region::open(&region_path(dir, src.id, lkey)).ok()?;
        src.mrs.insert_view(lkey, view)
    }

    /// Run the destination-side effects of one delivery from `source`. A
    /// source that does not check out ([`ShmFabric::payload`]) fails as a
    /// protection error, before any check the delivery engine makes.
    fn deliver(
        &self,
        net: &Arc<NetworkState>,
        src_node: NodeId,
        header: &DeliveryHeader,
        source: Source<'_>,
    ) -> DeliveryOutcome {
        match self.payload(net, src_node, source) {
            Some(payload) => execute_delivery(net, header, payload, true),
            None => {
                // Counted in the ledger as the protection failure it is.
                let wire = &net.telemetry().wire;
                wire.delivery_attempts.inc();
                wire.remote_errors.inc();
                self.stats.malformed_records.fetch_add(1, Ordering::Relaxed);
                DeliveryOutcome::RemoteAccessError
            }
        }
    }

    /// Complete, in window order, the records of `ch` whose release its
    /// ring's `Head` shows, each with the status its slot holds, and then
    /// reclaim their space. A `Head` past what this side posted completes
    /// nothing beyond it. Returns whether anything completed.
    fn complete_sends(&self, net: &Arc<NetworkState>, ch: &Channel) -> bool {
        // The scanner's own word: only scans store it.
        let reclaimed = ch.reclaimed.load(Ordering::Relaxed);
        let published = ch.data.published();
        if reclaimed == published {
            // Nothing in flight: the peer's cursor is not even read.
            return false;
        }
        let head = ch.data.consumed().min(published);
        if head <= reclaimed {
            return false;
        }
        // The wire stage is known once it ends: stamped at submit, lasting
        // until its release is seen here. Recorded before the completion,
        // which a traced poller may be waiting on.
        let flows = &net.telemetry().flows;
        let now = flows.now();
        loop {
            let next = {
                let mut window = ch.window.lock();
                match window.front() {
                    Some(pending) if pending.at < head => window.pop_front(),
                    _ => None,
                }
            };
            let Some(pending) = next else { break };
            let status = status_from_wire(ch.data.status_at(pending.at)).unwrap_or_else(|| {
                self.stats.malformed_records.fetch_add(1, Ordering::Relaxed);
                WcStatus::RemoteAccessError
            });
            let wr = &pending.wr;
            let wire_ns = now.saturating_sub(pending.submit_ns);
            let stage = FlowStage::WireSubmit;
            flows.event_at(wr.flow, stage, pending.submit_ns, wr.src_qp, 0, wire_ns);
            complete_posted(net, wr, status);
        }
        // Every status below `head` is read: its space may be reused.
        ch.reclaimed.store(head, Ordering::Release);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::PerNode;
    use crate::cq::CompletionQueue;
    use crate::network::{connect_pair, Context, Network};
    use crate::qp::{QpCaps, QueuePair};
    use crate::types::{imm, Opcode, QpState, RecvWr, SendWr, Sge, WcOpcode, WorkCompletion};
    use partix_telemetry::invariants;

    use super::super::segment::Ctrl;

    /// Ring bytes of a one-segment DATA record: the doorbell of an ordinary
    /// write.
    const DOORBELL: u64 = RECORD_HEADER + (DATA_HEADER + SEGMENT_ENTRY) as u64;

    struct Pair {
        net: Network,
        /// The fabric node 0 posts on (and, in loopback, the only one).
        fabric: Arc<ShmFabric>,
        /// Host mode: node 1's fabric and the segment directory.
        host: Option<(Arc<ShmFabric>, PathBuf)>,
        a: Context,
        b: Context,
        qa: Arc<QueuePair>,
        qb: Arc<QueuePair>,
        cqa: Arc<CompletionQueue>,
        cqb: Arc<CompletionQueue>,
        pda: crate::network::ProtectionDomain,
        pdb: crate::network::ProtectionDomain,
    }

    /// Two connected nodes over one loopback fabric (heap rings).
    fn pair(cfg: ShmConfig, caps: QpCaps) -> Pair {
        build_pair(ShmFabric::loopback_with(cfg), None, caps)
    }

    /// Two connected nodes over a host-mode fabric each, joined by the
    /// channel a → b: node 0 maps the segment files it creates, node 1 maps
    /// them again, which is what two processes have. One network, so the
    /// test sees both ends; node 0 only sends, so every submit goes to its
    /// fabric, and node 1's only ever delivers. A poll of either node's CQ
    /// drives both fabrics.
    #[cfg(unix)]
    fn host_pair(cfg: ShmConfig, caps: QpCaps) -> Pair {
        let p = host_pair_unopened(cfg, caps);
        p.open_channel();
        p
    }

    /// [`host_pair`] before either side opens the channel.
    #[cfg(unix)]
    fn host_pair_unopened(cfg: ShmConfig, caps: QpCaps) -> Pair {
        let dir = host_dir();
        let (tx, rx) = (ShmFabric::host(&dir, cfg), ShmFabric::host(&dir, cfg));
        build_pair(tx, Some((rx, dir)), caps)
    }

    /// A fresh segment directory of this process's own.
    #[cfg(unix)]
    fn host_dir() -> PathBuf {
        static DIRS: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "partix_shm_host_{}_{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build_pair(
        fabric: Arc<ShmFabric>,
        host: Option<(Arc<ShmFabric>, PathBuf)>,
        caps: QpCaps,
    ) -> Pair {
        let net = match &host {
            Some((rx, _)) => {
                let net = Network::new(2, Arc::new(PerNode([fabric.clone(), rx.clone()])));
                rx.attach_network(net.state());
                net
            }
            None => Network::new(2, fabric.clone()),
        };
        let a = net.open(0).unwrap();
        let b = net.open(1).unwrap();
        let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
        let (cqa, cqb) = (a.create_cq(), b.create_cq());
        let qa = a.create_qp(pda, cqa.clone(), a.create_cq(), caps).unwrap();
        let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), caps).unwrap();
        connect_pair(&qa, &qb).unwrap();
        Pair {
            net,
            fabric,
            host,
            a,
            b,
            qa,
            qb,
            cqa,
            cqb,
            pda,
            pdb,
        }
    }

    impl Pair {
        /// Host mode: open the channel `qa → qb` on both fabrics.
        fn open_channel(&self) {
            self.open(&self.qa, &self.qb);
        }

        /// Host mode: open the channel `qa → qb` of node 0's `qa` and node
        /// 1's `qb` on both fabrics.
        fn open(&self, qa: &QueuePair, qb: &QueuePair) {
            let Some((rx, _)) = &self.host else { return };
            let (from, to) = ((0, qa.qp_num()), (1, qb.qp_num()));
            let tx = &self.fabric;
            std::thread::scope(|s| {
                s.spawn(|| tx.open_tx(from, to, Duration::from_secs(10)).unwrap());
                rx.open_rx(from, to, Duration::from_secs(10)).unwrap();
            });
        }

        /// Another connected QP pair on the same nodes, fabrics and PDs,
        /// its channel open: `(qa, qb, cqa, cqb)`, as in [`Pair`].
        fn more_qps(&self, caps: QpCaps) -> QpPair {
            let (a, b) = (&self.a, &self.b);
            let (cqa, cqb) = (a.create_cq(), b.create_cq());
            let qa = a.create_qp(self.pda, cqa.clone(), a.create_cq(), caps);
            let qb = b.create_qp(self.pdb, b.create_cq(), cqb.clone(), caps);
            let (qa, qb) = (qa.unwrap(), qb.unwrap());
            connect_pair(&qa, &qb).unwrap();
            self.open(&qa, &qb);
            (qa, qb, cqa, cqb)
        }

        /// The same nodes, fabrics and PDs with a fresh connected QP pair.
        fn with_fresh_qps(self) -> Pair {
            let (qa, qb, cqa, cqb) = self.more_qps(QpCaps::default());
            Pair {
                qa,
                qb,
                cqa,
                cqb,
                ..self
            }
        }

        /// Quiesce, check the ledger, then [`close`](Self::close).
        fn finish(self) {
            assert_clean(&self);
            self.close();
        }

        /// Stop the fabric(s) and remove the segment directory.
        fn close(self) {
            self.fabric.shutdown();
            if let Some((rx, dir)) = &self.host {
                rx.shutdown();
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }

    /// What [`Pair::more_qps`] returns.
    type QpPair = (
        Arc<QueuePair>,
        Arc<QueuePair>,
        Arc<CompletionQueue>,
        Arc<CompletionQueue>,
    );

    fn poll_until(cq: &CompletionQueue, what: &str) -> WorkCompletion {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(wc) = cq.poll_one() {
                return wc;
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// Poll `cq`, which stays empty meanwhile, until `done` holds: a waiting
    /// receiver's polls are what drive the fabric.
    fn poll_empty_until(cq: &CompletionQueue, what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(
                cq.poll_one().is_none(),
                "a completion while waiting for {what}"
            );
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    fn write_with_imm(
        p: &Pair,
        src: &crate::memory::MemoryRegion,
        dst: &crate::memory::MemoryRegion,
        wr_id: u64,
        len: u32,
    ) {
        p.qa.post_send(SendWr {
            wr_id,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: len,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: Some(imm::encode(0, 4)),
            inline_data: false,
            flow: 0,
        })
        .unwrap();
    }

    fn assert_clean(p: &Pair) {
        for fabric in std::iter::once(&p.fabric).chain(p.host.iter().map(|(rx, _)| rx)) {
            assert!(
                fabric.quiesce(Duration::from_secs(10)),
                "fabric must quiesce"
            );
        }
        let report = invariants::check_strict(&p.net.state().telemetry_snapshot());
        assert!(report.is_clean(), "invariants violated: {report:?}");
    }

    #[test]
    fn loopback_write_with_imm_round_trip() {
        let p = pair(ShmConfig::default(), QpCaps::default());
        let src = p.a.reg_mr(p.pda, 4096).unwrap();
        let dst = p.b.reg_mr(p.pdb, 4096).unwrap();
        src.fill(0, 4096, 0x5a).unwrap();
        p.qb.post_recv(RecvWr::bare(70)).unwrap();
        write_with_imm(&p, &src, &dst, 1, 4096);
        let send_wc = poll_until(&p.cqa, "send CQE");
        assert_eq!(send_wc.wr_id, 1);
        assert_eq!(send_wc.status, WcStatus::Success);
        let recv_wc = poll_until(&p.cqb, "recv CQE");
        assert_eq!(recv_wc.wr_id, 70);
        assert_eq!(recv_wc.opcode, WcOpcode::RecvRdmaWithImm);
        assert_eq!(imm::decode(recv_wc.imm.unwrap()), (0, 4));
        assert_eq!(dst.read_vec(0, 4096).unwrap(), vec![0x5a; 4096]);
        assert_clean(&p);
        p.fabric.shutdown();
    }

    /// The bring-up does not depend on who comes first: a receiver that
    /// opens 20 ms before its sender waits for the files, the sender finds
    /// it attached, and a write-with-imm then round-trips.
    #[cfg(unix)]
    #[test]
    fn a_receiver_that_opens_first_waits_for_a_late_sender() {
        let p = host_pair_unopened(ShmConfig::default(), QpCaps::default());
        let Some((rx, _)) = &p.host else {
            unreachable!("a host pair")
        };
        let (from, to) = ((0, p.qa.qp_num()), (1, p.qb.qp_num()));
        let (tx, timeout) = (&p.fabric, Duration::from_secs(10));
        std::thread::scope(|s| {
            let late = s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                tx.open_tx(from, to, timeout)
            });
            rx.open_rx(from, to, timeout).unwrap();
            late.join().unwrap().unwrap();
        });
        let src = p.a.reg_mr(p.pda, 256).unwrap();
        let dst = p.b.reg_mr(p.pdb, 256).unwrap();
        src.fill(0, 256, 0x3c).unwrap();
        p.qb.post_recv(RecvWr::bare(5)).unwrap();
        write_with_imm(&p, &src, &dst, 1, 256);
        assert_eq!(poll_until(&p.cqa, "send CQE").status, WcStatus::Success);
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 5);
        assert_eq!(dst.read_vec(0, 256).unwrap(), vec![0x3c; 256]);
        p.finish();
    }

    /// With no peer, each bring-up wait fails with `TimedOut` and its
    /// message once its timeout has passed, and not much later.
    #[cfg(unix)]
    #[test]
    fn with_no_peer_each_bring_up_wait_times_out_at_its_timeout() {
        const TIMEOUT: Duration = Duration::from_millis(50);
        let dir = host_dir();
        let fabric = ShmFabric::host(&dir, ShmConfig::default());
        let timed = |what: &str, wait: &dyn Fn() -> std::io::Result<()>| {
            let t0 = Instant::now();
            let err = wait().expect_err(what);
            let took = t0.elapsed();
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{what}: {err}");
            assert!(
                took >= TIMEOUT && took < TIMEOUT + Duration::from_millis(100),
                "{what} gave up after {took:?}"
            );
            err.to_string()
        };
        assert_eq!(
            timed("open_tx", &|| fabric.open_tx((0, 1), (1, 2), TIMEOUT)),
            "peer did not attach to shm channel"
        );
        assert_eq!(
            timed("open_rx", &|| fabric.open_rx((1, 3), (0, 4), TIMEOUT)),
            "shm channel segments never appeared"
        );
        assert_eq!(
            timed("await_blob", &|| {
                super::super::await_blob(&dir, "absent", TIMEOUT).map(drop)
            }),
            "bootstrap blob absent never appeared"
        );
        fabric.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rnr_waits_out_the_timer_on_the_wall_clock() {
        let caps = QpCaps {
            min_rnr_timer_ns: 2_000_000, // 2 ms per RNR wait
            ..QpCaps::default()
        };
        let p = pair(ShmConfig::default(), caps);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        src.fill(0, 64, 0x77).unwrap();
        // No receive posted yet: the first delivery attempt hits RNR and
        // re-arms on the wall-clock timer; the receive lands mid-backoff.
        write_with_imm(&p, &src, &dst, 9, 64);
        poll_empty_until(&p.cqb, "the RNR", || p.fabric.rnr_deferrals() > 0);
        p.qb.post_recv(RecvWr::bare(900)).unwrap();
        let wc = poll_until(&p.cqa, "send CQE");
        assert_eq!(wc.status, WcStatus::Success);
        let recv_wc = poll_until(&p.cqb, "recv CQE");
        assert_eq!(recv_wc.wr_id, 900);
        assert!(p.fabric.rnr_deferrals() >= 1, "at least one RNR deferral");
        assert_clean(&p);
        p.fabric.shutdown();
    }

    /// A window posted before any receive stays on its ring: the first
    /// record meets receiver-not-ready and re-arms its timer, again and
    /// again, and none behind it is attempted. A second QP pair on the same
    /// nodes, its receiver ready, passes it. Then the receives come, and
    /// the window lands in posting order, each message once.
    #[test]
    fn rnr_deferred_window_is_redelivered_in_posting_order() {
        // Default caps: the 2 ms timer re-arms until the receives are posted.
        let caps = QpCaps {
            min_rnr_timer_ns: 2_000_000,
            ..QpCaps::default()
        };
        let p = pair(ShmConfig::default(), caps);
        let dst = post_window(&p, 0);
        window_is_held_on_its_ring(&p);

        let (q2a, q2b, cq2a, cq2b) = p.more_qps(caps);
        let src2 = p.a.reg_mr(p.pda, 64).unwrap();
        let dst2 = p.b.reg_mr(p.pdb, 64).unwrap();
        q2b.post_recv(RecvWr::bare(1)).unwrap();
        q2a.post_send(SendWr {
            wr_id: 77,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: src2.addr(),
                length: 64,
                lkey: src2.lkey(),
            }],
            remote_addr: dst2.addr(),
            rkey: dst2.rkey(),
            imm: Some(77),
            inline_data: false,
            flow: 0,
        })
        .unwrap();
        assert_eq!(poll_until(&cq2b, "second QP's recv CQE").imm, Some(77));
        assert_eq!(poll_until(&cq2a, "second QP's send CQE").wr_id, 77);
        assert!(p.cqb.poll_one().is_none(), "first QP still waits");
        assert_eq!(p.fabric.data_records(), 1, "the second QP's record alone");

        window_lands_once_in_order(&p, &dst, 0);
        p.finish();
    }

    /// Poll the receiver of a window `post_window` posted ahead of its
    /// receives until its first record has re-armed its RNR timer twice,
    /// and check that nothing left the ring: no record was released, and
    /// every delivery attempt re-armed the timer (an attempt of a record
    /// behind the first would have released it, or not re-armed).
    fn window_is_held_on_its_ring(p: &Pair) {
        let rx = p.host.as_ref().map_or(&p.fabric, |(rx, _)| rx);
        let (released, deferrals) = (rx.data_records(), rx.rnr_deferrals());
        poll_empty_until(&p.cqb, "the RNR timer to re-arm twice", || {
            rx.rnr_deferrals() >= deferrals + 2
        });
        // This thread's polls are the only scans, so the counts agree.
        let wire = p.net.state().telemetry_snapshot().wire;
        assert_eq!(rx.data_records(), released, "no record left the ring");
        assert_eq!(
            wire.delivery_attempts - wire.rnr_requeues,
            released,
            "every attempt since the last release re-armed the head's timer"
        );
        assert!(p.cqa.poll_one().is_none(), "no send completed");
    }

    /// Host mode over mapped file segments, one direction: the sending
    /// fabric never consumes a DATA record, yet its occupancy gauge must
    /// show what it put on the ring (it is the side that stalls on a full
    /// one).
    #[cfg(unix)]
    #[test]
    fn host_mode_sender_reports_ring_occupancy() {
        let cfg = ShmConfig {
            ring_capacity: 1 << 16,
            ..ShmConfig::default()
        };
        let p = host_pair(cfg, QpCaps::default());
        let (tx, rx) = (&p.fabric, &p.host.as_ref().unwrap().0);
        let src = p.a.reg_mr(p.pda, 4096).unwrap();
        let dst = p.b.reg_mr(p.pdb, 4096).unwrap();
        for i in 0..32u64 {
            src.fill(0, 4096, i as u8 + 1).unwrap();
            p.qb.post_recv(RecvWr::bare(i)).unwrap();
            write_with_imm(&p, &src, &dst, i, 4096);
            assert_eq!(poll_until(&p.cqa, "send CQE").status, WcStatus::Success);
            assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, i);
            assert_eq!(dst.read_vec(0, 4096).unwrap(), vec![i as u8 + 1; 4096]);
        }
        assert_eq!((tx.data_records(), rx.data_records()), (0, 32));
        let mark = tx.ring_occupancy_high_water();
        assert!(
            (DOORBELL..2 * DOORBELL).contains(&mark),
            "the sender saw one whole record on its ring and never two: {mark}"
        );
        p.finish();
    }

    /// Messages of the window the tests below post ahead of its receives,
    /// and the bytes of one.
    const WINDOW: u64 = 12;
    const LEN: usize = 64;

    fn window_byte(round: u64, i: u64, k: usize) -> u8 {
        ((round * WINDOW + i) as u8).wrapping_mul(37) ^ (k as u8).wrapping_mul(11)
    }

    /// Post round `round` of the window: message `i` carries its own bytes
    /// from slot `i` of the source region to slot `i` of the destination
    /// region, which is returned, with immediate `i`. A slot is written
    /// once, before its post: the bytes are read at delivery, and the source
    /// belongs to the sender until its send completion.
    fn post_window(p: &Pair, round: u64) -> crate::memory::MemoryRegion {
        let src = p.a.reg_mr(p.pda, WINDOW as usize * LEN).unwrap();
        let dst = p.b.reg_mr(p.pdb, WINDOW as usize * LEN).unwrap();
        for i in 0..WINDOW {
            let payload: Vec<u8> = (0..LEN).map(|k| window_byte(round, i, k)).collect();
            src.write(i as usize * LEN, &payload).unwrap();
            p.qa.post_send(SendWr {
                wr_id: i,
                opcode: Opcode::RdmaWriteWithImm,
                sg_list: vec![Sge {
                    addr: src.addr_at(i as usize * LEN),
                    length: LEN as u32,
                    lkey: src.lkey(),
                }],
                remote_addr: dst.addr_at(i as usize * LEN),
                rkey: dst.rkey(),
                imm: Some(i as u32),
                inline_data: false,
                flow: 0,
            })
            .unwrap();
        }
        dst
    }

    /// Post the window's receives: every message must land exactly once, in
    /// posting order, `Success` on both sides, with the bytes it was posted
    /// with.
    fn window_lands_once_in_order(p: &Pair, dst: &crate::memory::MemoryRegion, round: u64) {
        for i in 0..WINDOW {
            p.qb.post_recv(RecvWr::bare(500 + i)).unwrap();
        }
        for i in 0..WINDOW {
            let wc = poll_until(&p.cqb, "recv CQE");
            assert_eq!((wc.wr_id, wc.imm), (500 + i, Some(i as u32)), "in order");
            let send = poll_until(&p.cqa, "send CQE");
            assert_eq!((send.wr_id, send.status), (i, WcStatus::Success));
        }
        assert!(p.cqb.poll_one().is_none(), "every message landed once");
        window_holds_its_bytes(dst, round);
    }

    fn window_holds_its_bytes(dst: &crate::memory::MemoryRegion, round: u64) {
        for i in 0..WINDOW {
            let got = dst.read_vec(i as usize * LEN, LEN).unwrap();
            let want: Vec<u8> = (0..LEN).map(|k| window_byte(round, i, k)).collect();
            assert_eq!(got, want, "message {i} holds the bytes it was posted with");
        }
    }

    /// A held window owns its ring slots. On a data ring that holds one
    /// window and no more, a window posted ahead of its receives fills the
    /// ring, with no stall, and stays there: its first record re-arms its
    /// RNR timer, and none behind it is attempted. When the receives come it
    /// lands in posting order, each message with the bytes it was posted
    /// with. A second window then does the same in the slots the first one
    /// used: one that reused a slot before its record was done would land
    /// the wrong bytes, or stall.
    fn deferred_deliveries_own_their_bytes(p: Pair) {
        let rx = p.host.as_ref().map_or(&p.fabric, |(rx, _)| rx);
        for round in 0..2 {
            let dst = post_window(&p, round);
            window_is_held_on_its_ring(&p);
            assert_eq!(
                dst.read_vec(0, WINDOW as usize * LEN).unwrap(),
                vec![0; 768]
            );
            window_lands_once_in_order(&p, &dst, round);
        }
        assert_eq!(p.fabric.ring_full_stalls(), 0);
        assert_eq!(rx.data_records(), 2 * WINDOW);
        p.finish();
    }

    /// A data ring that holds the window of [`post_window`] and no more, on
    /// a 5 ms RNR timer.
    fn window_ring() -> (ShmConfig, QpCaps) {
        let cfg = ShmConfig {
            ring_capacity: WINDOW * DOORBELL,
            ..ShmConfig::default()
        };
        let caps = QpCaps {
            min_rnr_timer_ns: 5_000_000,
            ..QpCaps::default()
        };
        (cfg, caps)
    }

    #[test]
    fn deferred_deliveries_own_their_bytes_over_a_heap_segment() {
        let (cfg, caps) = window_ring();
        deferred_deliveries_own_their_bytes(pair(cfg, caps));
    }

    #[cfg(unix)]
    #[test]
    fn deferred_deliveries_own_their_bytes_over_two_mappings_of_a_file_segment() {
        let (cfg, caps) = window_ring();
        deferred_deliveries_own_their_bytes(host_pair(cfg, caps));
    }

    /// Default caps (`rnr_retry = 7`) on a 100 µs RNR timer: counted out,
    /// that budget was 0.7 ms of wall clock.
    fn indefinite_rnr_caps() -> QpCaps {
        QpCaps {
            min_rnr_timer_ns: 100_000,
            ..QpCaps::default()
        }
    }

    /// `rnr_retry = 7` is flow control, not a countdown: a window posted
    /// twenty old budgets ahead of its receives is held back, re-arming the
    /// timer many more than seven times, and no send fails; when the
    /// receives come every message lands once, in posting order, with the
    /// bytes it was posted with.
    fn a_late_receiver_holds_the_sender_back(p: Pair) {
        let t0 = Instant::now();
        let dst = post_window(&p, 0);
        let rx = p.host.as_ref().map_or(&p.fabric, |(rx, _)| rx);
        poll_empty_until(&p.cqb, "the RNR timer to re-arm", || {
            t0.elapsed() >= Duration::from_millis(14) && rx.rnr_deferrals() > 7
        });
        assert!(p.cqa.poll_one().is_none(), "no send may have failed yet");
        window_lands_once_in_order(&p, &dst, 0);
        p.finish();
    }

    #[test]
    fn a_late_receiver_holds_the_sender_back_over_a_heap_segment() {
        a_late_receiver_holds_the_sender_back(pair(ShmConfig::default(), indefinite_rnr_caps()));
    }

    #[cfg(unix)]
    #[test]
    fn a_late_receiver_holds_the_sender_back_over_two_mappings_of_a_file_segment() {
        a_late_receiver_holds_the_sender_back(host_pair(
            ShmConfig::default(),
            indefinite_rnr_caps(),
        ));
    }

    /// Indefinitely is still bounded: with no receive ever, everything on
    /// the ring fails with `RnrRetryExceeded` once the first record has
    /// waited the stall deadline — not after 0.7 ms, and not one deadline
    /// per message —
    /// the QP enters Error, and `shutdown` has nothing left to wait for.
    fn a_receiver_that_never_posts_fails_the_sender_at_the_stall_deadline(p: Pair) {
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        src.fill(0, 64, 0x77).unwrap();
        let t0 = Instant::now();
        for i in 0..3u64 {
            write_with_imm(&p, &src, &dst, i, 64);
        }
        for i in 0..3u64 {
            let wc = poll_until(&p.cqa, "send CQE");
            assert_eq!((wc.wr_id, wc.status), (i, WcStatus::RnrRetryExceeded));
        }
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(50) && waited < Duration::from_secs(1),
            "bounded by the stall deadline, neither a countdown nor a hang: {waited:?}"
        );
        assert_eq!(p.qa.state(), QpState::Error);
        assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0; 64], "nothing landed");
        let t0 = Instant::now();
        p.finish();
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    fn short_stall_deadline() -> ShmConfig {
        ShmConfig {
            full_ring_deadline: Duration::from_millis(50),
            ..ShmConfig::default()
        }
    }

    #[test]
    fn a_receiver_that_never_posts_fails_the_sender_over_a_heap_segment() {
        a_receiver_that_never_posts_fails_the_sender_at_the_stall_deadline(pair(
            short_stall_deadline(),
            indefinite_rnr_caps(),
        ));
    }

    #[cfg(unix)]
    #[test]
    fn a_receiver_that_never_posts_fails_the_sender_over_two_mappings_of_a_file_segment() {
        a_receiver_that_never_posts_fails_the_sender_at_the_stall_deadline(host_pair(
            short_stall_deadline(),
            indefinite_rnr_caps(),
        ));
    }

    /// Once a record runs out of RNR budget, the records that were behind
    /// it on the ring fail at their first receiver-not-ready, as an RC QP
    /// flushes: with `rnr_retry = 1`, the first of three re-arms once and
    /// fails, and the two behind it fail without a re-arm of their own.
    #[test]
    fn records_behind_one_that_ran_out_of_rnr_budget_fail_at_their_first_attempt() {
        let caps = QpCaps {
            rnr_retry: 1,
            min_rnr_timer_ns: 1_000_000,
            ..QpCaps::default()
        };
        let p = pair(ShmConfig::default(), caps);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        for i in 0..3u64 {
            write_with_imm(&p, &src, &dst, i, 64);
        }
        for i in 0..3u64 {
            let wc = poll_until(&p.cqa, "send CQE");
            assert_eq!((wc.wr_id, wc.status), (i, WcStatus::RnrRetryExceeded));
        }
        let wire = p.net.state().telemetry_snapshot().wire;
        assert_eq!((wire.rnr_requeues, wire.receiver_not_ready), (1, 4));
        assert_eq!(p.fabric.rnr_deferrals(), 1);
        p.finish();
    }

    /// A WR is no longer bounded by the ring: 1 MiB, sixteen times a
    /// 64 KiB ring, goes as one doorbell record and lands whole, once, with
    /// one completion on each side.
    fn a_1_mib_wr_lands_whole_as_one_record(p: Pair) {
        const BIG: usize = 1 << 20;
        let src = p.a.reg_mr(p.pda, BIG).unwrap();
        let dst = p.b.reg_mr(p.pdb, BIG).unwrap();
        let bytes: Vec<u8> = (0..BIG).map(|k| (k % 251) as u8).collect();
        src.write(0, &bytes).unwrap();
        p.qb.post_recv(RecvWr::bare(70)).unwrap();
        write_with_imm(&p, &src, &dst, 1, BIG as u32);
        let wc = poll_until(&p.cqa, "send CQE of the 1 MiB WR");
        assert_eq!((wc.wr_id, wc.status), (1, WcStatus::Success));
        let recv = poll_until(&p.cqb, "recv CQE");
        assert_eq!((recv.wr_id, recv.byte_len), (70, BIG as u32));
        assert!(dst.read_vec(0, BIG).unwrap() == bytes, "landed whole");
        let rx = p.host.as_ref().map_or(&p.fabric, |(rx, _)| rx);
        assert_eq!(rx.data_records(), 1, "one WR, one record");
        p.finish();
    }

    fn small_ring() -> ShmConfig {
        ShmConfig {
            ring_capacity: 64 << 10,
            ..ShmConfig::default()
        }
    }

    #[test]
    fn a_1_mib_wr_lands_whole_as_one_record_over_a_heap_segment() {
        a_1_mib_wr_lands_whole_as_one_record(pair(small_ring(), QpCaps::default()));
    }

    #[cfg(unix)]
    #[test]
    fn a_1_mib_wr_lands_whole_as_one_record_over_two_mappings_of_a_file_segment() {
        a_1_mib_wr_lands_whole_as_one_record(host_pair(small_ring(), QpCaps::default()));
    }

    /// A record is bytes another process wrote, and one that lies fails its
    /// own delivery without taking the receiver down. Four writes go onto
    /// the ring of a file segment while the receiver is paused; three are
    /// then rewritten by hand through a second mapping of that file: a
    /// header whose length disagrees with the gather list, a gather entry
    /// naming a region with no file, and one reaching past the end of its
    /// region. Each of the three is released `RemoteAccessError`,
    /// counted, consumes no receive WR and writes nothing; the fourth lands,
    /// and so does a write on a fresh QP pair.
    #[cfg(unix)]
    #[test]
    fn malformed_records_fail_their_delivery_and_the_receiver_survives() {
        let p = host_pair(ShmConfig::default(), QpCaps::default());
        let (rx, dir) = p.host.as_ref().unwrap();
        let src = p.a.reg_mr(p.pda, 4 * LEN).unwrap();
        let dst = p.b.reg_mr(p.pdb, 4 * LEN).unwrap();
        src.fill(0, 4 * LEN, 0x6b).unwrap();
        p.qb.post_recv(RecvWr::bare(90)).unwrap();
        let paused = rx.pause_progress();
        for i in 0..4u64 {
            let at = i as usize * LEN;
            p.qa.post_send(SendWr {
                wr_id: i,
                opcode: Opcode::RdmaWriteWithImm,
                sg_list: vec![Sge {
                    addr: src.addr_at(at),
                    length: LEN as u32,
                    lkey: src.lkey(),
                }],
                remote_addr: dst.addr_at(at),
                rkey: dst.rkey(),
                imm: Some(i as u32),
                inline_data: false,
                flow: 0,
            })
            .unwrap();
        }
        let name = format!("partix_n0q{}_n1q{}.data", p.qa.qp_num(), p.qb.qp_num());
        let ring = FileSegment::open(&dir.join(name)).unwrap().unwrap();
        // Record `i` starts `i` doorbells into the fresh ring; its DATA
        // header follows the ring's own, and its gather entry that.
        let data = |i: u64| i * DOORBELL + RECORD_HEADER;
        let entry = |i: u64| data(i) + DATA_HEADER as u64;
        ring.data_write(data(0) + 52, &(LEN as u32 + 1).to_le_bytes());
        ring.data_write(entry(1), &(src.lkey() + 2000).to_le_bytes());
        ring.data_write(entry(2) + 8, &(3 * LEN as u64 + 32).to_le_bytes());
        drop(paused);

        for i in 0..3u64 {
            let wc = poll_until(&p.cqa, "send CQE of a malformed record");
            assert_eq!((wc.wr_id, wc.status), (i, WcStatus::RemoteAccessError));
        }
        let wc = poll_until(&p.cqa, "send CQE of the good record");
        assert_eq!((wc.wr_id, wc.status), (3, WcStatus::Success));
        let recv = poll_until(&p.cqb, "recv CQE of the good record");
        assert_eq!((recv.wr_id, recv.imm), (90, Some(3)));
        assert_eq!(rx.malformed_records(), 3);
        let landed = dst.read_vec(0, 4 * LEN).unwrap();
        assert_eq!(landed[..3 * LEN], [0; 3 * LEN], "a malformed record wrote");
        assert_eq!(landed[3 * LEN..], [0x6b; LEN]);
        assert_eq!(p.qa.state(), QpState::Error);

        let p = p.with_fresh_qps();
        p.qb.post_recv(RecvWr::bare(91)).unwrap();
        write_with_imm(&p, &src, &dst, 4, LEN as u32);
        assert_eq!(poll_until(&p.cqa, "send CQE").status, WcStatus::Success);
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 91);
        p.finish();
    }

    /// What a panic carried, as text.
    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| "<not text>".into(), |text| text.to_string()),
        }
    }

    /// A full data ring nobody drains is a diagnostic within
    /// `full_ring_deadline`, not a hang: the receiver here attaches (so
    /// `open_tx` returns) and then never consumes a record.
    #[cfg(unix)]
    #[test]
    fn full_data_ring_with_no_consumer_fails_within_the_stall_deadline() {
        let dir = std::env::temp_dir().join(format!("partix_shm_stall_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ShmConfig {
            ring_capacity: 2 * DOORBELL + 16,
            full_ring_deadline: Duration::from_millis(50),
            ..ShmConfig::default()
        };
        let caps = QpCaps::default();
        let p = build_pair(ShmFabric::host(&dir, cfg), None, caps);
        let (from, to) = ((0, p.qa.qp_num()), (1, p.qb.qp_num()));
        std::thread::scope(|s| {
            s.spawn(|| p.fabric.open_tx(from, to, Duration::from_secs(10)).unwrap());
            let data = loop {
                let stem = dir.join(format!("partix_n0q{}_n1q{}.data", from.1, to.1));
                match FileSegment::open(&stem).unwrap() {
                    Some(data) => break data,
                    None => std::thread::yield_now(),
                }
            };
            SpscRing::new(Arc::new(data)).mark_attached();
        });
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        write_with_imm(&p, &src, &dst, 0, 64);
        write_with_imm(&p, &src, &dst, 1, 64);
        let t0 = Instant::now();
        let third = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            write_with_imm(&p, &src, &dst, 2, 64)
        }));
        let waited = t0.elapsed();
        let text = panic_text(third.expect_err("the third record cannot fit"));
        assert!(
            text.contains("full past the 50ms stall deadline"),
            "diagnostic: {text}"
        );
        assert!(
            waited >= Duration::from_millis(50) && waited < Duration::from_secs(1),
            "bounded by the stall deadline, not a hang: {waited:?}"
        );
        // Nothing will ever release the two records on the ring: the final
        // drain gives up after the same deadline instead of joining for ever.
        let t0 = Instant::now();
        p.fabric.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A status byte is bytes another process wrote. One that names no
    /// status fails its WR `RemoteAccessError` and is counted, and breaks
    /// nothing else: the receiver released the record `Success` (here it
    /// landed), and a forged byte is written over that through a second
    /// mapping of the ring before the sender reads it.
    #[cfg(unix)]
    #[test]
    fn a_status_byte_that_names_no_status_fails_its_wr_and_is_counted() {
        let p = host_pair(ShmConfig::default(), QpCaps::default());
        let (tx, rx) = (&p.fabric, &p.host.as_ref().unwrap().0);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        p.qb.post_recv(RecvWr::bare(1)).unwrap();
        // The sender paused: the record is released and not yet completed.
        let mut tx_driver = tx.pause_progress();
        write_with_imm(&p, &src, &dst, 7, 64);
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 1);
        let ring = sent_ring(&p);
        assert_eq!(ring.ctrl_load(Ctrl::Head), DOORBELL, "released");
        // The status byte of the record's ring header.
        ring.data_write(RECORD_HEADER - 2, &[0x7f]);

        assert!(tx_driver.scan(), "the scan completed the record");
        let wc = p.cqa.poll_one().expect("send CQE");
        assert_eq!((wc.wr_id, wc.status), (7, WcStatus::RemoteAccessError));
        assert_eq!((tx.malformed_records(), rx.malformed_records()), (1, 0));
        assert_eq!(p.qa.state(), QpState::Error);
        drop(tx_driver);
        // The ledger now holds a landed write its sender saw fail, which no
        // law allows: the pair is closed unchecked.
        p.close();
    }

    /// `Head` is bytes another process wrote too. One forged past the last
    /// record this side posted completes the records it did post, with the
    /// statuses their slots hold, and nothing beyond them; the sender
    /// reclaims no space past what it published.
    #[cfg(unix)]
    #[test]
    fn a_head_past_what_was_posted_completes_nothing_beyond_it() {
        let p = host_pair(ShmConfig::default(), QpCaps::default());
        let (tx, rx) = (&p.fabric, &p.host.as_ref().unwrap().0);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        // Both sides paused: the records stay on their ring, undelivered.
        let rx_driver = rx.pause_progress();
        let mut tx_driver = tx.pause_progress();
        write_with_imm(&p, &src, &dst, 7, 64);
        write_with_imm(&p, &src, &dst, 8, 64);
        let ring = sent_ring(&p);
        ring.ctrl_store(Ctrl::Head, 1000 * DOORBELL);

        assert!(tx_driver.scan(), "the scan completed the records");
        for wr_id in [7, 8] {
            let wc = p.cqa.poll_one().expect("send CQE");
            assert_eq!((wc.wr_id, wc.status), (wr_id, WcStatus::Success));
        }
        assert!(p.cqa.poll_one().is_none(), "nothing beyond what was posted");
        let ch = tx.channels.lock()[0].clone();
        assert_eq!(ch.reclaimed.load(Ordering::Relaxed), 2 * DOORBELL);
        assert!(ch.window.lock().is_empty());
        assert!(!tx_driver.scan(), "a second look completes nothing more");
        drop((tx_driver, rx_driver));
        // Two sends completed `Success` that never landed, which no ledger
        // law allows: the pair is closed unchecked.
        p.close();
    }

    /// The reclaim rule on the real ring: a slot the receiver has released
    /// is reused only after the sender has read its status. On a ring of
    /// two doorbells, a write that fails its protection check and a good
    /// one are released while the sender is paused; the next post finds
    /// the ring free by `Head` but not by what the sender has read, so it
    /// waits for the sender's own scan, and the failed write still
    /// completes `RemoteAccessError`. A post bounded by `Head` would write
    /// over that status, and the failure would complete `Success`.
    #[cfg(unix)]
    #[test]
    fn a_released_slot_is_reused_only_after_its_status_is_read() {
        let cfg = ShmConfig {
            ring_capacity: 2 * DOORBELL,
            ..ShmConfig::default()
        };
        let p = host_pair(cfg, QpCaps::default());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        p.qb.post_recv(RecvWr::bare(1)).unwrap();
        p.qb.post_recv(RecvWr::bare(2)).unwrap();
        let tx_driver = p.fabric.pause_progress();
        p.qa.post_send(SendWr {
            rkey: dst.rkey() ^ 0x5c5c,
            ..crate::conformance::write_imm_wr(&src, &dst, 0, 64, 0)
        })
        .unwrap();
        write_with_imm(&p, &src, &dst, 1, 64);
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 1, "both released");
        assert_eq!(sent_ring(&p).ctrl_load(Ctrl::Head), 2 * DOORBELL);
        drop(tx_driver);

        write_with_imm(&p, &src, &dst, 2, 64);
        assert_eq!(p.fabric.ring_full_stalls(), 1, "the post waited");
        for (wr_id, status) in [(0, WcStatus::RemoteAccessError), (1, WcStatus::Success)] {
            let wc = poll_until(&p.cqa, "send CQE");
            assert_eq!((wc.wr_id, wc.status), (wr_id, status));
        }
        // The QP is in Error since the first completion: the third record
        // still lands, and completes, behind it.
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 2);
        assert_eq!(poll_until(&p.cqa, "send CQE").wr_id, 2);
        p.finish();
    }

    /// A second mapping of the ring node 0 sends on to node 1 in `p`.
    #[cfg(unix)]
    fn sent_ring(p: &Pair) -> FileSegment {
        let dir = &p.host.as_ref().unwrap().1;
        let name = format!("partix_n0q{}_n1q{}.data", p.qa.qp_num(), p.qb.qp_num());
        FileSegment::open(&dir.join(name)).unwrap().unwrap()
    }

    #[test]
    fn wall_clock_sampler_captures_frames_from_the_poller() {
        use partix_telemetry::{Sample, SampleSource, SamplerConfig};
        let p = pair(ShmConfig::default(), QpCaps::default());
        let net = p.net.state().clone();
        let fab = p.fabric.clone();
        let source: SampleSource = Arc::new(move || Sample {
            snapshot: net.telemetry_snapshot(),
            gauges: fab.sample_gauges(),
        });
        let sampler = Sampler::new(
            SamplerConfig {
                interval_ns: 100_000, // 100 µs windows on the wall clock
                capacity: 64,
                deterministic: false,
            },
            source,
        );
        p.fabric.attach_sampler(sampler.clone());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        for i in 0..4u64 {
            src.fill(0, 64, i as u8 + 1).unwrap();
            p.qb.post_recv(RecvWr::bare(300 + i)).unwrap();
            write_with_imm(&p, &src, &dst, i, 64);
            let _ = poll_until(&p.cqa, "send CQE");
            let _ = poll_until(&p.cqb, "recv CQE");
            std::thread::sleep(Duration::from_micros(300));
        }
        poll_empty_until(&p.cqb, "a frame", || sampler.frames_captured() > 0);
        let frames = sampler.frames();
        let gauges: Vec<&str> = frames
            .last()
            .unwrap()
            .gauges
            .iter()
            .map(|g| g.name)
            .collect();
        assert!(gauges.contains(&"progress_iterations"));
        assert!(gauges.contains(&"ring_occupancy_high_water"));
        assert!(p.fabric.progress_iterations() > 0);
        assert_clean(&p);
        p.fabric.shutdown();
    }

    /// `shutdown`'s final drain runs on the calling thread: a record still
    /// on its ring when it is called — posted, and never polled for — is
    /// delivered, acknowledged and completed there, and a second call is a
    /// no-op.
    #[test]
    fn shutdown_is_idempotent_and_drains() {
        let p = pair(ShmConfig::default(), QpCaps::default());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        src.fill(0, 64, 0xEE).unwrap();
        // The hook sees each send completion pushed, on the pushing thread,
        // and queues it.
        let pushed_on = Arc::new(Mutex::new(Vec::new()));
        let seen = pushed_on.clone();
        let hook: crate::cq::NotifyHook =
            Arc::new(move |_| seen.lock().push(std::thread::current().id()));
        assert!(p.cqa.set_notify(hook).is_ok());
        p.qb.post_recv(RecvWr::bare(3)).unwrap();
        write_with_imm(&p, &src, &dst, 2, 64);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            p.fabric.data_records(),
            0,
            "the record is still on its ring"
        );
        p.fabric.shutdown();
        assert_eq!(*pushed_on.lock(), [std::thread::current().id()]);
        p.fabric.shutdown(); // second call is a no-op
        assert_eq!(p.fabric.data_records(), 1);
        assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0xEE; 64]);
        let send = p.cqa.poll_one().expect("send CQE");
        assert_eq!((send.wr_id, send.status), (2, WcStatus::Success));
        assert_eq!(p.cqb.poll_one().expect("recv CQE").wr_id, 3);
    }

    /// The fabrics of `p`: the one node 0 posts on, then node 1's if it has
    /// its own.
    fn fabrics(p: &Pair) -> Vec<&Arc<ShmFabric>> {
        std::iter::once(&p.fabric)
            .chain(p.host.iter().map(|(rx, _)| rx))
            .collect()
    }

    /// `pause_progress` holds the progress lock against every poller: for
    /// 20 ms of polls nothing moves, and then the holder's own scan does.
    fn pause_progress_locks_out_pollers(p: Pair) {
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        p.qb.post_recv(RecvWr::bare(2)).unwrap();
        let rx = *fabrics(&p).last().unwrap();
        let mut paused: Vec<ProgressDriver<'_>> =
            fabrics(&p).iter().map(|f| f.pause_progress()).collect();
        write_with_imm(&p, &src, &dst, 4, 64);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(20) {
            assert!(p.cqb.poll_one().is_none(), "a poller delivered");
            assert!(p.cqa.poll_one().is_none(), "a poller completed");
            std::thread::yield_now();
        }
        assert_eq!(rx.data_records(), 0, "the record is still on its ring");
        assert!(
            paused.last_mut().unwrap().scan(),
            "the holder's scan delivers"
        );
        assert_eq!(rx.data_records(), 1);
        drop(paused);
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 2);
        assert_eq!(poll_until(&p.cqa, "send CQE").wr_id, 4);
        p.finish();
    }

    #[test]
    fn pause_progress_locks_out_pollers_over_a_heap_segment() {
        pause_progress_locks_out_pollers(pair(ShmConfig::default(), QpCaps::default()));
    }

    #[cfg(unix)]
    #[test]
    fn pause_progress_locks_out_pollers_over_two_mappings_of_a_file_segment() {
        pause_progress_locks_out_pollers(host_pair(ShmConfig::default(), QpCaps::default()));
    }

    /// Nothing moves a receiver's side of the wire but its own polls. A
    /// window is posted to a host-mode receiver whose fabric nobody scans:
    /// through 20 ms of the sender's own scans it stays on its ring, and no
    /// send completes. The receiver's first poll then lands all of it, once,
    /// in posting order, and every send completes `Success`.
    #[cfg(unix)]
    #[test]
    fn a_receiver_that_stops_polling_holds_its_senders_completions_over_two_mappings_of_a_file_segment(
    ) {
        // A send queue well beyond the window.
        let caps = QpCaps {
            max_send_wr: 32,
            ..QpCaps::default()
        };
        let p = host_pair(ShmConfig::default(), caps);
        let rx = &p.host.as_ref().unwrap().0;
        for i in 0..WINDOW {
            p.qb.post_recv(RecvWr::bare(500 + i)).unwrap();
        }
        let dst = post_window(&p, 0);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(20) {
            // Node 0's fabric alone: the scans the sending process makes.
            p.fabric.progress();
            assert_eq!(p.cqa.depth(), 0, "a send completed");
            std::thread::yield_now();
        }
        assert_eq!((rx.data_records(), p.cqb.depth()), (0, 0), "nothing landed");

        let first = p.cqb.poll_one().expect("the receiver's first poll lands");
        assert_eq!((first.wr_id, first.imm), (500, Some(0)));
        assert_eq!(rx.data_records(), WINDOW, "the whole window, in one poll");
        for i in 1..WINDOW {
            let wc = p.cqb.poll_one().expect("landed by the first poll");
            assert_eq!((wc.wr_id, wc.imm), (500 + i, Some(i as u32)), "in order");
        }
        for i in 0..WINDOW {
            let send = poll_until(&p.cqa, "send CQE");
            assert_eq!((send.wr_id, send.status), (i, WcStatus::Success));
        }
        assert!(p.cqb.poll_one().is_none(), "every message landed once");
        window_holds_its_bytes(&dst, 0);
        p.finish();
    }
}
