//! The real-time shared-memory fabric.
//!
//! [`ShmFabric`] runs the verbs object model on *wall-clock time and real
//! threads*, and splits the delivery engine as an RDMA NIC does: the sender
//! runs *place* itself — it writes the bytes straight into the receiver's
//! registered region and completes its WR — and rings a doorbell on a
//! per-QP-pair SPSC [`SpscRing`]; whoever polls the receiver's completion
//! queues runs *notify*, which consumes a receive WR and pushes the receive
//! completion. It is the RDMA fast path of MPICH2-over-IB (DESIGN.md §11):
//! the sender writes into pre-registered buffers, and receive credits flow
//! back to it.
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
//! A payload is copied once, by the sender, from its source region straight
//! into the destination region, as a NIC's RDMA write moves it; no syscall,
//! allocation, hash look-up or clock read is made on the way. `submit` runs
//! place's check — the rkey names a region of the destination node that
//! holds the whole range — and a WR that fails it completes
//! `RemoteAccessError` and writes nothing. Otherwise it copies the gather
//! list (or an inline WR's snapshot) into the region, pushes a 40-byte
//! *doorbell* — the header notify needs, no payload and no gather list — and
//! pushes the send completion. The copy's release is published before the
//! ring's `Tail`, which the receiver acquires before it notifies. A lossy
//! decorator's ghost duplicate places nothing: its doorbell reaches the ring
//! ahead of its original's, and notify suppresses it as the duplicate it is,
//! so a duplicate writes nothing on this fabric either.
//!
//! Where the destination region is: in loopback, in the same
//! [`NetworkState`]. In host mode every region a node registers lives in a
//! memory file of its own, named in the fabric's directory, which ends in a
//! trailer with the region's base address and length
//! ([`Fabric::region_storage`], and the `region` module for how the files
//! are made, shared in-process and pooled). A sender maps a peer's region
//! writable the first time a WR names it and keeps the mapping, by node and
//! rkey, for the life of the fabric (regions are never deregistered).
//!
//! **Ownership rule.** The source range belongs to the sender until its send
//! completion, as on every fabric (the MPI Partitioned contract); here that
//! completion comes once the bytes are placed. A doorbell belongs to the
//! receiver from its publication until `Head` moves past it, which it does
//! once the doorbell is notified.
//!
//! # Receive credits
//!
//! A write-with-immediate consumes a receive WR, and the sender may not
//! place one the receiver has no receive WR for. Each receiving QP
//! publishes the monotone count of receive WRs ever posted on it in its
//! incoming channel's segment ([`Ctrl::Credits`], through
//! [`Fabric::recv_posted`]), and the sender spends one credit per
//! write-with-immediate. It reads the word only once the credits it knows
//! of are spent. A bare write needs no credit, but it is held behind a
//! write-with-immediate that is (RC order), and so is every WR posted after
//! a held one. A held WR still holds its send slot, so it counts against
//! the QP's WR cap. A credit word is bytes another process wrote: one that
//! runs past the receives really posted makes notify meet a doorbell with
//! no receive WR, which completes nothing, and is counted
//! ([`ShmFabric::malformed_records`]).
//!
//! # The RNR rule
//!
//! A write with no credit is not yet receiver-not-ready: its receiver may
//! post the receives while it notifies what is ahead of it, or while its
//! application takes the receive completions of what it notified. It is held
//! until the receiver has notified every doorbell before it and its poller
//! has come back since, finding the ring empty (a scan that does publishes
//! `Head` as [`Ctrl::Polled`]). Only if it still has no credit then — the
//! credit word is read again after `Polled` — does the RNR rule start, on
//! the sender, as InfiniBand decides RNR when the packet reaches the
//! responder: the sending QP's `min_rnr_timer`
//! (wall-clock) is armed, and what is left of its `rnr_retry`
//! ([`RnrBudget`]) — that many re-arms for budgets 0–6 and, for
//! InfiniBand's "retry indefinitely" 7, re-arms until the WR has waited
//! [`ShmConfig::full_ring_deadline`]. Each expiry with no credit is another
//! receiver-not-ready attempt. A credit that comes mid-wait sends the WR at
//! the next scan. A receiver that is merely slow holds its sender back, and
//! only one that is gone fails it: a WR that runs out of budget fails
//! `RnrRetryExceeded`, and so, at their first receiver-not-ready, do the WRs
//! held behind it then, as an RC QP flushes its queue once its RNR retries
//! run out — a window fails in one deadline, not one per WR. A `Head` or a
//! `Polled` past what the sender published is read as a drained ring, and
//! counted.
//!
//! # Progress
//!
//! A scan ([`ShmFabric::scan`]) visits every channel (from a snapshot of the
//! channel list refreshed only when one is installed): it notifies what a
//! ring it receives on holds, and sends what a held queue now allows. It
//! takes at most the doorbells that were on a ring when it reached it, so a
//! drain never chases a sender. The clock is read only where a deadline is
//! set or checked, or to tick an attached sampler. One scanner runs at a
//! time, under the progress lock. Pollers scan, and nothing else does: every
//! completion queue created on the fabric holds it ([`Fabric::progress`]),
//! and a poll that finds its queue empty try-locks and runs one scan on the
//! polling thread — the paper's caller-driven progress (§IV-A).
//! [`ShmFabric::quiesce`], a submit waiting out a full ring and
//! [`ShmFabric::shutdown`]'s final drain scan the same way. The fabric
//! starts no thread. A receiver that stops polling holds no send: its
//! senders' writes land and complete, and its receive completions wait for
//! its next poll, as on InfiniBand.
//!
//! There is no ack timer and no retransmission: the ring loses nothing.
//! Loss is not this fabric's to inject or to recover from — a
//! [`LossyFabric`](crate::LossyFabric) wrapped around it drops, duplicates
//! and re-sends, and what reaches this fabric from one is ordinary WRs plus
//! ghost duplicates, which place nothing and complete nothing.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use partix_telemetry::{segments_for, FlowStage, Sampler};

use crate::fabric::{
    complete_send, notify, place, placement, record_attempt, sender_retry_profile, DeliveryHeader,
    DeliveryOutcome, Fabric, TransferJob,
};
use crate::memory::MemoryRegion;
use crate::network::{NetworkState, NodeCtx};
use crate::table::IndexTable;
use crate::types::{NodeId, WcStatus};

use super::ring::{RecordReader, SpscRing, RECORD_HEADER};
use super::segment::{Ctrl, FileMapping, FileSegment, HeapSegment, Segment};
use super::wait_until;

/// Doorbell record kind tag.
const KIND_DOORBELL: u8 = 1;

/// Serialized doorbell bytes: what notify reads, and nothing else.
const DOORBELL: usize = 40;

/// Configuration of a [`ShmFabric`].
#[derive(Clone, Copy, Debug)]
pub struct ShmConfig {
    /// Doorbell-ring capacity per QP-pair channel, bytes. A doorbell takes
    /// 48 (40 and the ring's 8); WRs held for credit wait on the sender's
    /// side, not on the ring. See [`ShmConfig::default`] for how the default
    /// was chosen.
    pub ring_capacity: u64,
    /// MTU used for `mtu_segments` accounting (the wire ledger's
    /// segmentation law), matching `FabricParams::mtu`.
    pub mtu: usize,
    /// The stall deadline. Bound on waiting for ring space on submit before
    /// panicking (a ring sized far below the offered load is a deployment
    /// error, not a recoverable condition), and on how long a write-with-imm
    /// from a QP with `rnr_retry = 7` waits for a receive credit before it
    /// fails with `RnrRetryExceeded`.
    pub full_ring_deadline: Duration,
}

impl Default for ShmConfig {
    /// The ring defaults to 64 KiB, about 1 360 doorbells. Measured on the
    /// benchmark's `shm_exchange` when records were 96-byte doorbells read
    /// by the receiver (2 vCPUs, three seeds per size), the 64 KiB stream
    /// moved 11.2–12.0 GB/s at 64 KiB, 10.7–11.7 at 128 KiB and 11.2–11.6 at
    /// 512 KiB, none with a ring-full stall: what bounds the stream is the
    /// one copy, not the ring. What the size does change is memory, since
    /// ring pages are mapped and every touched page is resident in each
    /// process that maps it: peak RSS 7.9–8.1 MB at 64 KiB, 8.0–8.1 at 128
    /// KiB, 8.1–8.2 at 512 KiB.
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

/// One directed QP-pair channel: its doorbell ring, sender → receiver, and
/// in the same segment the receiver's credit word.
struct Channel {
    key: PairKey,
    data: SpscRing,
    /// The ring's segment, for [`Ctrl::Credits`].
    seg: Arc<dyn Segment>,
    /// This process sends on the channel.
    we_send: bool,
    /// This process notifies what the channel carries.
    we_recv: bool,
    /// Sender side: the producer's state. Posts may come from any thread;
    /// the ring protocol wants one logical producer.
    tx: Mutex<TxState>,
    /// Whether `tx` holds a WR: what a scan reads before it locks.
    holding: AtomicBool,
}

impl Channel {
    fn new(key: PairKey, seg: Arc<dyn Segment>, we_send: bool, we_recv: bool) -> Arc<Channel> {
        Arc::new(Channel {
            key,
            data: SpscRing::new(seg.clone()),
            seg,
            we_send,
            we_recv,
            tx: Mutex::new(TxState::default()),
            holding: AtomicBool::new(false),
        })
    }

    /// Publish the receiving QP's posted-receive count, `posted`. Every
    /// caller holds that QP's receive lock, so stores are never reordered.
    fn publish_credits(&self, posted: u64) {
        self.seg.ctrl_store(Ctrl::Credits, posted);
    }
}

/// The sender's side of a channel.
#[derive(Default)]
struct TxState {
    /// WRs not sent yet, in posting order, each with its flow-clock submit
    /// time: the first waits for a credit (or for the RNR rule), the rest
    /// are behind it.
    held: VecDeque<(TransferJob, u64)>,
    credit: Credit,
}

/// The sender's credit account and the RNR rule's state for the first WR
/// not sent yet.
#[derive(Default)]
struct Credit {
    /// Credits spent: writes-with-imm placed.
    spent: u64,
    /// The credit word as last read (never lowered).
    limit: u64,
    /// The first WR's RNR wait, if the rule has started for it.
    wait: Option<RnrWait>,
    /// WRs that fail at their first receiver-not-ready: those that were
    /// held behind one that ran out of RNR budget.
    flush: usize,
}

/// The `rnr_retry` value InfiniBand reserves for "retry indefinitely".
const RNR_RETRY_INFINITE: u8 = 7;

/// What is left of the sending QP's `rnr_retry` for the first WR not sent
/// yet.
#[derive(Clone, Copy)]
enum RnrBudget {
    /// `rnr_retry` 0–6: receiver-not-ready may re-arm the timer this many
    /// more times.
    Rearms(u8),
    /// `rnr_retry = 7`: it may re-arm the timer until this instant,
    /// [`ShmConfig::full_ring_deadline`] after the WR's first attempt.
    /// A wall-clock fabric cannot count this budget out: seven timers are a
    /// few milliseconds, which a receiver thread that merely lost its CPU
    /// outlasts, and the sender it fails cannot tell that from a dead peer.
    Until(Instant),
}

/// A WR's wait for a receive credit, once the RNR rule has started.
#[derive(Clone, Copy)]
struct RnrWait {
    /// When the re-armed RNR timer expires.
    due: Instant,
    budget: RnrBudget,
}

/// What becomes of the first WR of a channel not sent yet.
enum Step {
    /// It completes with this status.
    Done(WcStatus),
    /// It waits, for a credit or for its RNR timer.
    Hold,
}

/// What the scanner keeps between scans. Whoever scans holds the lock
/// around it, so there is one scanner at a time.
#[derive(Default)]
struct ProgressState {
    /// Every installed channel, in installation order (the list only
    /// grows), re-read only when one is installed.
    channels: Vec<Arc<Channel>>,
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
    /// writable, at the index the node's id spells (see
    /// [`ShmFabric::placement`]).
    peers: IndexTable<Arc<NodeCtx>>,
    channels: Mutex<Vec<Arc<Channel>>>,
    /// `channels.len()`, published after each install: a scan re-reads the
    /// list only when this differs from its snapshot.
    channels_installed: AtomicUsize,
    /// The sending channel of each local QP, at the index its number spells
    /// (a connected QP sends to one peer): what `submit` resolves instead of
    /// searching `channels`.
    tx_route: IndexTable<Arc<Channel>>,
    /// The receiving channel of each local QP, by its number (a connected
    /// QP receives from one peer): where its credits are published.
    rx_route: IndexTable<Arc<Channel>>,
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
            cfg.ring_capacity >= RECORD_HEADER + DOORBELL as u64,
            "the ring capacity must hold at least one doorbell"
        );
        Arc::new(ShmFabric {
            cfg,
            backing,
            region_files: Mutex::new(Vec::new()),
            peers: IndexTable::new(),
            channels: Mutex::new(Vec::new()),
            channels_installed: AtomicUsize::new(0),
            tx_route: IndexTable::new(),
            rx_route: IndexTable::new(),
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
    /// `submit`; a receive-only process (host mode) calls it explicitly,
    /// before [`open_rx`](Self::open_rx), so its scans can resolve
    /// destination QPs and the channel starts with the receives posted so
    /// far.
    pub fn attach_network(&self, net: &Arc<NetworkState>) {
        let weak = self.net.get_or_init(|| Arc::downgrade(net));
        debug_assert!(
            weak.upgrade().is_some_and(|n| Arc::ptr_eq(&n, net)),
            "a ShmFabric serves exactly one network"
        );
    }

    /// Doorbells this process's scans notified.
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

    /// Sender-side RNR timer arms: each time a write-with-imm with no
    /// credit, its receiver drained, (re-)armed the timer.
    pub fn rnr_deferrals(&self) -> u64 {
        self.stats.rnr_deferrals.load(Ordering::Relaxed)
    }

    /// Words another process wrote that this one refused. On the receiving
    /// side: a doorbell that is no doorbell, one that names no QP, and one
    /// that found no receive WR (a credit word past the receives really
    /// posted), each of which notifies nothing. On the sending side: a
    /// `Head` past what it published, read as a drained ring. This fabric's
    /// own never produce one.
    pub fn malformed_records(&self) -> u64 {
        self.stats.malformed_records.load(Ordering::Relaxed)
    }

    /// Laps of its ring made by the busiest channel this process receives
    /// on: bytes consumed over the ring's capacity.
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

    /// High-water mark of ring occupancy in bytes, across every channel of
    /// this fabric: sampled by the sender after each doorbell (and at each
    /// ring-full stall) and by the receiver's scans at each doorbell they
    /// take, so whichever side sees the backlog reports it.
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

    /// Whether nothing is in flight on this fabric: every ring it notifies
    /// from drained, and no WR it sends held.
    pub fn is_idle(&self) -> bool {
        self.channels.lock().iter().all(|ch| {
            (!ch.we_recv || ch.data.is_empty())
                && (!ch.we_send || !ch.holding.load(Ordering::Acquire))
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
    /// in (host mode; mappings stay valid, so a peer's outlive them).
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
    /// with `TimedOut`), publishes the receives the destination QP has had
    /// posted so far, then acknowledges attachment. The wait is
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
        self.route_rx(self.net.get().and_then(Weak::upgrade).as_deref(), &ch);
        ch.data.mark_attached();
        Ok(())
    }

    /// Add `ch` to `channels`, the locked list a scan visits.
    fn publish(&self, channels: &mut Vec<Arc<Channel>>, ch: &Arc<Channel>) {
        channels.push(ch.clone());
        self.channels_installed
            .store(channels.len(), Ordering::Release);
    }

    /// Make `ch` the receiving channel of its destination QP (the first one
    /// made stays), and publish the receives that QP has had posted so far.
    /// The route is set before the count is read, and every post publishes
    /// under the QP's receive lock, which the read takes too: a post either
    /// finds the route, or is counted in what is read.
    fn route_rx(&self, net: Option<&NetworkState>, ch: &Arc<Channel>) {
        if self.rx_route.set(ch.key.dst_qp, ch.clone()).is_err() {
            return;
        }
        if let Some(qp) = net.and_then(|net| net.qp(ch.key.dst_node, ch.key.dst_qp).ok()) {
            ch.publish_credits(qp.rx().posted);
        }
    }

    /// The sending channel for `key` when its QP is not routed to it yet:
    /// the first post of a loopback QP, which creates the channel and the
    /// route, or a QP re-connected to another peer, which keeps its first
    /// route and finds its later channels here on every post.
    #[cold]
    fn channel_slow(&self, net: &NetworkState, key: PairKey) -> Arc<Channel> {
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
            self.route_rx(Some(net), &ch);
            ch
        };
        let routed = self.tx_route.get_or_init(key.src_qp, find_or_create);
        if routed.key == key {
            routed.clone()
        } else {
            find_or_create()
        }
    }

    /// [`Fabric::submit`] once the sending channel is known: send `job` at
    /// once unless a WR before it is held, or it must be held itself.
    fn submit_on(&self, net: &Arc<NetworkState>, ch: &Channel, job: TransferJob) {
        // The wire ledger is charged for a transfer entering the fabric
        // before anything of it can be counted as delivered.
        let wire = &net.telemetry().wire;
        wire.inner_submissions.inc();
        wire.mtu_segments
            .add(segments_for(job.total_len.into(), self.cfg.mtu));
        let submit_ns = net.telemetry().flows.now();
        let mut tx = ch.tx.lock();
        if tx.held.is_empty() {
            if let Step::Done(status) = self.try_send(net, ch, &mut tx.credit, &job, 0) {
                // Completed outside the lock: a completion hook may post.
                drop(tx);
                return self.finish(net, &job, submit_ns, status);
            }
        }
        tx.held.push_back((job, submit_ns));
        ch.holding.store(true, Ordering::Release);
    }

    /// Send what `ch`'s held queue now allows, in order, each WR completed
    /// outside the lock. Returns whether a WR left the queue.
    fn advance<'c>(
        &self,
        net: &Arc<NetworkState>,
        ch: &'c Channel,
        mut tx: MutexGuard<'c, TxState>,
    ) -> bool {
        let mut moved = false;
        loop {
            let TxState { held, credit } = &mut *tx;
            let Some((job, _)) = held.front() else { break };
            let Step::Done(status) = self.try_send(net, ch, credit, job, held.len() - 1) else {
                break;
            };
            let (job, submit_ns) = held.pop_front().expect("the front WR");
            ch.holding.store(!held.is_empty(), Ordering::Release);
            drop(tx);
            self.finish(net, &job, submit_ns, status);
            moved = true;
            // Another thread that holds the lock is sending too.
            let Some(relocked) = ch.tx.try_lock() else {
                return moved;
            };
            tx = relocked;
        }
        moved
    }

    /// Try to send `job`, the first WR of `ch` not sent yet, with `behind`
    /// WRs held after it: fail its placement check, hold it for a credit,
    /// or place its bytes and ring its doorbell.
    fn try_send(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        credit: &mut Credit,
        job: &TransferJob,
        behind: usize,
    ) -> Step {
        let header = job.delivery_header();
        let step = if job.ghost {
            // A ghost places nothing and spends nothing: its doorbell only
            // meets notify's duplicate check.
            self.ring_doorbell(ch, &header);
            Step::Done(WcStatus::Success)
        } else if let Some((dst, offset)) = self.placement(net, &header) {
            if job.imm.is_some() && !take_credit(ch, credit) {
                if let Some(step) = self.rnr(net, ch, credit, job, behind) {
                    return step;
                }
            }
            place(dst, offset, job.payload(net));
            self.ring_doorbell(ch, &header);
            Step::Done(WcStatus::Success)
        } else {
            record_attempt(net, &header, &DeliveryOutcome::RemoteAccessError);
            Step::Done(WcStatus::RemoteAccessError)
        };
        credit.wait = None;
        credit.flush = credit.flush.saturating_sub(1);
        step
    }

    /// The RNR rule for `job`, a write-with-imm with no credit (see the
    /// module docs); `None` if a credit came after all. The credit word is
    /// read again after `Polled`: a receive posted before the receiver's
    /// last notify ahead is then seen, so receiver-not-ready is decided only
    /// for a receiver that has notified everything ahead and has no receive
    /// left (the `ring_protocol` credit model).
    fn rnr(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        credit: &mut Credit,
        job: &TransferJob,
        behind: usize,
    ) -> Option<Step> {
        let now = Instant::now();
        let profile = sender_retry_profile(net, job);
        let rnr_retry = profile.map_or(0, |p| p.rnr_retry);
        let budget = match credit.wait {
            Some(wait) if wait.due > now => return Some(Step::Hold),
            Some(wait) => wait.budget,
            None if !self.drained(ch) => return Some(Step::Hold),
            None if credit.flush > 0 => RnrBudget::Rearms(0),
            None if rnr_retry == RNR_RETRY_INFINITE => {
                RnrBudget::Until(now + self.cfg.full_ring_deadline)
            }
            None => RnrBudget::Rearms(rnr_retry),
        };
        if take_credit(ch, credit) {
            return None;
        }
        let header = job.delivery_header();
        record_attempt(net, &header, &DeliveryOutcome::ReceiverNotReady);
        let budget = match budget {
            RnrBudget::Rearms(left) if left > 0 => RnrBudget::Rearms(left - 1),
            RnrBudget::Until(give_up) if now < give_up => budget,
            _ => {
                // The WRs held behind this one fail at their first
                // receiver-not-ready.
                credit.wait = None;
                credit.flush = behind;
                return Some(Step::Done(WcStatus::RnrRetryExceeded));
            }
        };
        let timer_ns = profile.map_or(10_000, |p| p.min_rnr_timer_ns).max(1);
        credit.wait = Some(RnrWait {
            due: now + Duration::from_nanos(timer_ns),
            budget,
        });
        net.telemetry().wire.rnr_requeues.inc();
        self.stats.rnr_deferrals.fetch_add(1, Ordering::Relaxed);
        let flows = &net.telemetry().flows;
        flows.event(job.flow, FlowStage::RnrWait, job.src_qp, 0, timer_ns);
        Some(Step::Hold)
    }

    /// Whether the receiver has notified every doorbell `ch` has published
    /// and its poller has come back since, finding the ring empty
    /// ([`Ctrl::Polled`]). A `Head` or a `Polled` past them is counted, and
    /// read as a drained ring.
    fn drained(&self, ch: &Channel) -> bool {
        let published = ch.data.published();
        let polled = ch.seg.ctrl_load(Ctrl::Polled);
        if polled.max(ch.data.consumed()) > published {
            self.stats.malformed_records.fetch_add(1, Ordering::Relaxed);
        }
        polled >= published
    }

    /// Place's check for a WR of header `h`: the destination range in the
    /// region its rkey names — registered in this process (loopback), or a
    /// peer's, which host mode maps writable the first time a WR names it
    /// (`None` if there is no such region).
    fn placement<'a>(
        &'a self,
        net: &'a NetworkState,
        h: &DeliveryHeader,
    ) -> Option<(&'a MemoryRegion, usize)> {
        let Backing::Host(dir) = &self.backing else {
            return placement(net.qp(h.dst_node, h.dst_qp).ok()?.mrs(), h);
        };
        let peer = self
            .peers
            .get_or_init(h.dst_node, || NodeCtx::new(h.dst_node));
        if let Some(found) = placement(&peer.mrs, h) {
            return Some(found);
        }
        // The first WR to name the region, or an rkey that names none.
        let lkey = h.rkey.checked_sub(1)?;
        let remote = super::region::open(&region_path(dir, h.dst_node, lkey)).ok()?;
        // A concurrent first WR may have entered it already.
        let _ = (peer.mrs).insert_remote(lkey, remote.base, remote.len, remote.map);
        placement(&peer.mrs, h)
    }

    /// Push the doorbell of the WR of header `h` on `ch`'s ring, waiting
    /// out backpressure. The caller holds `ch`'s sender lock.
    fn ring_doorbell(&self, ch: &Channel, h: &DeliveryHeader) {
        let bell = doorbell(h);
        let push = || ch.data.try_push(KIND_DOORBELL, &bell);
        if !push() {
            self.stats.ring_full_stalls.fetch_add(1, Ordering::Relaxed);
            self.note_occupancy(ch.data.producer_len());
            let deadline = Instant::now() + self.cfg.full_ring_deadline;
            loop {
                // A ring's space comes back when its receiver scans.
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
        // cursor is looked at only when the mark could move, and what is
        // read of it then makes the bound exact again.
        if ch.data.len_bound() > self.ring_occupancy_high_water() {
            self.note_occupancy(ch.data.producer_len());
        }
    }

    /// Complete `job`, submitted at `submit_ns` on the flow clock, with
    /// `status`. The wire stage is known once it ends, at placement;
    /// recorded before the completion, which a traced poller may wait on.
    fn finish(&self, net: &Arc<NetworkState>, job: &TransferJob, submit_ns: u64, status: WcStatus) {
        if !job.ghost {
            let flows = &net.telemetry().flows;
            let wire_ns = flows.now().saturating_sub(submit_ns);
            let stage = FlowStage::WireSubmit;
            flows.event_at(job.flow, stage, submit_ns, job.src_qp, 0, wire_ns);
        }
        complete_send(net, job, status);
    }
}

/// Take one credit of `ch` for a write-with-imm, if the receiver has posted
/// a receive not spent yet. The credit word is read only once the credits
/// this side knows of are spent.
fn take_credit(ch: &Channel, credit: &mut Credit) -> bool {
    if credit.spent == credit.limit {
        credit.limit = credit.limit.max(ch.seg.ctrl_load(Ctrl::Credits));
    }
    let ok = credit.spent < credit.limit;
    credit.spent += u64::from(ok);
    ok
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
            None => self.submit_on(net, &self.channel_slow(net, key), job),
        }
    }

    /// Host mode: a file of the fabric's directory, mapped read-write, with
    /// the region's address and length in its trailer, which peers map to
    /// place their writes (see the module docs). Loopback: the heap, in the
    /// one process.
    fn region_storage(
        &self,
        node: NodeId,
        lkey: u32,
        addr: u64,
        len: usize,
    ) -> std::io::Result<Option<Arc<FileMapping>>> {
        let Backing::Host(dir) = &self.backing else {
            return Ok(None);
        };
        let path = region_path(dir, node, lkey);
        let map = super::region::create(&path, addr, len)?;
        self.region_files.lock().push(path);
        Ok(Some(map))
    }

    /// Publish the credits of QP `qp_num`'s receiving channel, if it has
    /// one yet (its creation reads the count itself).
    fn recv_posted(&self, node: NodeId, qp_num: u32, posted: u64) {
        if let Some(ch) = self.rx_route.get(qp_num) {
            if ch.key.dst_node == node {
                ch.publish_credits(posted);
            }
        }
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
// Doorbells
// ---------------------------------------------------------------------------

/// The doorbell carries an immediate: notify consumes a receive WR.
const FLAG_IMM: u8 = 1;
/// The doorbell is a ghost duplicate's, which placed nothing.
const FLAG_GHOST: u8 = 2;

/// Offset of the flags byte in a doorbell.
const FLAGS_AT: usize = 36;

/// The doorbell of the WR of header `h`: what notify reads of it, since the
/// bytes are placed already (the rkey and the address are not sent).
fn doorbell(h: &DeliveryHeader) -> [u8; DOORBELL] {
    let mut bell = [0u8; DOORBELL];
    bell[0..4].copy_from_slice(&h.dst_node.to_le_bytes());
    bell[4..8].copy_from_slice(&h.src_qp.to_le_bytes());
    bell[8..12].copy_from_slice(&h.dst_qp.to_le_bytes());
    bell[12..16].copy_from_slice(&h.imm.unwrap_or(0).to_le_bytes());
    bell[16..24].copy_from_slice(&h.psn.to_le_bytes());
    bell[24..32].copy_from_slice(&h.flow.to_le_bytes());
    bell[32..36].copy_from_slice(&h.total_len.to_le_bytes());
    bell[FLAGS_AT] = u8::from(h.imm.is_some()) * FLAG_IMM + u8::from(h.ghost) * FLAG_GHOST;
    bell
}

/// Read a doorbell back: `None` for a record that is no doorbell.
fn parse_doorbell(kind: u8, r: &mut RecordReader<'_>) -> Option<DeliveryHeader> {
    if kind != KIND_DOORBELL || r.remaining() != DOORBELL {
        return None;
    }
    let mut bell = [0u8; DOORBELL];
    r.take(&mut bell);
    let u32_at = |o: usize| u32::from_le_bytes(bell[o..o + 4].try_into().expect("fixed"));
    let u64_at = |o: usize| u64::from_le_bytes(bell[o..o + 8].try_into().expect("fixed"));
    let flags = bell[FLAGS_AT];
    Some(DeliveryHeader {
        dst_node: u32_at(0),
        src_qp: u32_at(4),
        dst_qp: u32_at(8),
        imm: (flags & FLAG_IMM != 0).then(|| u32_at(12)),
        psn: u64_at(16),
        flow: u64_at(24),
        total_len: u32_at(32),
        ghost: flags & FLAG_GHOST != 0,
        remote_addr: 0,
        rkey: 0,
    })
}

/// The file region `lkey` of `node` lives in, in a host-mode fabric's
/// directory.
fn region_path(dir: &std::path::Path, node: u32, lkey: u32) -> PathBuf {
    dir.join(format!("partix_n{node}_mr{lkey:#x}"))
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

    /// One progress scan: notify what every ring this process receives on
    /// holds, and send what every held queue of a ring it sends on now
    /// allows. Returns whether anything was there to do.
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
            channels.extend(installed[channels.len()..].iter().cloned());
        }
        let mut did_work = false;
        for ch in channels.iter() {
            if ch.we_recv {
                did_work |= self.take_doorbells(&net, ch);
            }
            if ch.we_send && ch.holding.load(Ordering::Acquire) {
                // A busy lock is a submit or another advance: skipped.
                if let Some(tx) = ch.tx.try_lock() {
                    did_work |= self.advance(&net, ch, tx);
                }
            }
        }
        did_work
    }

    /// Notify the doorbells on `ch`'s ring, in order: at most those that
    /// were there when the drain began. Each moves `Head` once it is
    /// notified. A scan that finds the ring empty publishes `Head` as
    /// [`Ctrl::Polled`]. Returns whether there was a doorbell.
    fn take_doorbells(&self, net: &Arc<NetworkState>, ch: &Channel) -> bool {
        let end = ch.data.published();
        let head = ch.data.consumed();
        if head == end && ch.seg.ctrl_load(Ctrl::Polled) != head {
            // Back with nothing to notify: every receive completion this
            // side pushed has had a poll since (the RNR rule's drain).
            ch.seg.ctrl_store(Ctrl::Polled, head);
        }
        let mut took = false;
        while ch.data.consumed() < end {
            let notified = ch.data.try_pop_with(|kind, r| {
                self.note_occupancy(r.backlog());
                match parse_doorbell(kind, r) {
                    // A ghost placed nothing: it is a duplicate whether or
                    // not its original has been notified (it never has: its
                    // doorbell comes first).
                    Some(h) if h.ghost => {
                        record_attempt(net, &h, &DeliveryOutcome::Duplicate);
                        true
                    }
                    // A doorbell that names no QP, or an immediate with no
                    // receive WR (a credit past what was posted), lies.
                    Some(h) => matches!(
                        notify(net, &h),
                        DeliveryOutcome::Delivered { .. } | DeliveryOutcome::Duplicate
                    ),
                    None => false,
                }
            });
            let Ok(sound) = notified else { break };
            took = true;
            self.stats.data_records.fetch_add(1, Ordering::Relaxed);
            if !sound {
                self.stats.malformed_records.fetch_add(1, Ordering::Relaxed);
            }
        }
        took
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

    /// Ring bytes of one doorbell.
    const BELL: u64 = RECORD_HEADER + DOORBELL as u64;

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
            opcode: Opcode::RdmaWriteWithImm,
            imm: Some(imm::encode(0, 4)),
            ..bare_write_wr(src, dst, wr_id, len)
        })
        .unwrap();
    }

    /// A write with no immediate of `len` bytes from the start of `src` to
    /// the start of `dst`.
    fn bare_write_wr(
        src: &crate::memory::MemoryRegion,
        dst: &crate::memory::MemoryRegion,
        wr_id: u64,
        len: u32,
    ) -> SendWr {
        SendWr {
            wr_id,
            opcode: Opcode::RdmaWrite,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: len,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: None,
            inline_data: false,
            flow: 0,
        }
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
        // No receive posted yet, and nothing ahead of the write on its ring:
        // the sender meets RNR at once and arms its wall-clock timer; the
        // receive's credit comes mid-backoff.
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

    /// A window posted before any receive is held by its sender: the first
    /// write has no credit and re-arms its RNR timer, again and again, and
    /// none behind it is attempted. A second QP pair on the same nodes, its
    /// receiver ready, passes it. Then the receives come, and the window
    /// lands in posting order, each message once.
    #[test]
    fn rnr_deferred_window_is_redelivered_in_posting_order() {
        // Default caps: the 2 ms timer re-arms until the receives are posted.
        let caps = QpCaps {
            min_rnr_timer_ns: 2_000_000,
            ..QpCaps::default()
        };
        let p = pair(ShmConfig::default(), caps);
        let dst = post_window(&p, 0);
        window_is_held_by_its_sender(&p);

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
    /// receives until the sender's first write has re-armed its RNR timer
    /// twice, and check that nothing left the sender: no doorbell was
    /// notified, and every delivery attempt re-armed the timer (an attempt
    /// of a write behind the first would have sent it, or not re-armed).
    fn window_is_held_by_its_sender(p: &Pair) {
        let rx = p.host.as_ref().map_or(&p.fabric, |(rx, _)| rx);
        let (notified, deferrals) = (rx.data_records(), p.fabric.rnr_deferrals());
        poll_empty_until(&p.cqb, "the RNR timer to re-arm twice", || {
            p.fabric.rnr_deferrals() >= deferrals + 2
        });
        // This thread's polls are the only scans, so the counts agree.
        let wire = p.net.state().telemetry_snapshot().wire;
        assert_eq!(rx.data_records(), notified, "no doorbell was rung");
        assert_eq!(
            wire.delivery_attempts - wire.rnr_requeues,
            notified,
            "every attempt since the last notify re-armed the first write's timer"
        );
        assert!(p.cqa.poll_one().is_none(), "no send completed");
    }

    /// Host mode over mapped file segments, one direction: the sending
    /// fabric never notifies a doorbell, yet its occupancy gauge must show
    /// what it put on the ring (it is the side that stalls on a full one).
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
            (BELL..2 * BELL).contains(&mark),
            "the sender saw one doorbell on its ring and never two: {mark}"
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
    /// once, before its post: the bytes are read at placement, and the
    /// source belongs to the sender until its send completion.
    fn post_window(p: &Pair, round: u64) -> crate::memory::MemoryRegion {
        post_window_with(p, round, |_| true)
    }

    /// [`post_window`], message `i` a write-with-imm if `imm(i)`, else a
    /// bare write.
    fn post_window_with(
        p: &Pair,
        round: u64,
        imm: impl Fn(u64) -> bool,
    ) -> crate::memory::MemoryRegion {
        let src = p.a.reg_mr(p.pda, WINDOW as usize * LEN).unwrap();
        let dst = p.b.reg_mr(p.pdb, WINDOW as usize * LEN).unwrap();
        for i in 0..WINDOW {
            let payload: Vec<u8> = (0..LEN).map(|k| window_byte(round, i, k)).collect();
            src.write(i as usize * LEN, &payload).unwrap();
            let (opcode, imm) = match imm(i) {
                true => (Opcode::RdmaWriteWithImm, Some(i as u32)),
                false => (Opcode::RdmaWrite, None),
            };
            p.qa.post_send(SendWr {
                wr_id: i,
                opcode,
                sg_list: vec![Sge {
                    addr: src.addr_at(i as usize * LEN),
                    length: LEN as u32,
                    lkey: src.lkey(),
                }],
                remote_addr: dst.addr_at(i as usize * LEN),
                rkey: dst.rkey(),
                imm,
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

    /// A held window owns its bytes. A window posted ahead of its receives
    /// is held by its sender, placing nothing: its first write re-arms its
    /// RNR timer, and none behind it is attempted. When the receives come it
    /// lands in posting order, each message with the bytes it was posted
    /// with, on a ring that holds its doorbells and no more, with no stall.
    /// A second window then does the same through the ring slots the first
    /// one used: a doorbell that reused a slot before it was notified would
    /// notify the wrong message, or stall.
    fn deferred_deliveries_own_their_bytes(p: Pair) {
        let rx = p.host.as_ref().map_or(&p.fabric, |(rx, _)| rx);
        for round in 0..2 {
            let dst = post_window(&p, round);
            window_is_held_by_its_sender(&p);
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

    /// A ring that holds the doorbells of [`post_window`] and no more, on a
    /// 5 ms RNR timer.
    fn window_ring() -> (ShmConfig, QpCaps) {
        let cfg = ShmConfig {
            ring_capacity: WINDOW * BELL,
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
    /// twenty old budgets ahead of its receives is held back by its sender,
    /// re-arming the timer many more than seven times, and no send fails;
    /// when the receives come every message lands once, in posting order,
    /// with the bytes it was posted with.
    fn a_late_receiver_holds_the_sender_back(p: Pair) {
        let t0 = Instant::now();
        let dst = post_window(&p, 0);
        poll_empty_until(&p.cqb, "the RNR timer to re-arm", || {
            t0.elapsed() >= Duration::from_millis(14) && p.fabric.rnr_deferrals() > 7
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

    /// Indefinitely is still bounded: with no receive ever, every write the
    /// sender holds fails with `RnrRetryExceeded` once the first has waited
    /// the stall deadline — not after 0.7 ms, and not one deadline per
    /// message — the QP enters Error, nothing was placed, and `shutdown` has
    /// nothing left to wait for.
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

    /// Once a write runs out of RNR budget, the writes its sender held
    /// behind it fail at their first receiver-not-ready, as an RC QP
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

    /// A WR is not bounded by the ring: 1 MiB, sixteen times a 64 KiB ring,
    /// is placed whole and rings one doorbell, with one completion on each
    /// side.
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

    /// A doorbell is bytes another process wrote, and one that lies
    /// notifies nothing without taking the receiver down. Four writes are
    /// placed and complete while the receiver is paused; two of their
    /// doorbells are then rewritten through a second mapping of the ring
    /// file: one is given a kind that is no doorbell's, one a destination QP
    /// that does not exist. Each is counted and consumes no receive WR; the
    /// other two notify in order, and so does a write on a fresh QP pair.
    #[cfg(unix)]
    #[test]
    fn malformed_records_fail_their_delivery_and_the_receiver_survives() {
        let p = host_pair(ShmConfig::default(), QpCaps::default());
        let rx = &p.host.as_ref().unwrap().0;
        let src = p.a.reg_mr(p.pda, 4 * LEN).unwrap();
        let dst = p.b.reg_mr(p.pdb, 4 * LEN).unwrap();
        src.fill(0, 4 * LEN, 0x6b).unwrap();
        for i in 0..4 {
            p.qb.post_recv(RecvWr::bare(90 + i)).unwrap();
        }
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
            let wc = p.cqa.poll_one().expect("completed at placement");
            assert_eq!((wc.wr_id, wc.status), (i, WcStatus::Success));
        }
        let ring = sent_ring(&p);
        // Doorbell `i` starts `i` doorbells into the fresh ring: its ring
        // header's kind byte at 4, its body after the header.
        ring.data_write(4, &[9]);
        ring.data_write(BELL + RECORD_HEADER + 8, &999u32.to_le_bytes());
        drop(paused);

        for (wr_id, imm) in [(90, 2), (91, 3)] {
            let recv = poll_until(&p.cqb, "recv CQE of a sound doorbell");
            assert_eq!((recv.wr_id, recv.imm), (wr_id, Some(imm)));
        }
        assert!(p.cqb.poll_one().is_none(), "a lying doorbell notified");
        assert_eq!(rx.malformed_records(), 2);
        assert_eq!(p.qb.recv_queue_depth(), 2, "no receive WR consumed by one");
        assert_eq!(dst.read_vec(0, 4 * LEN).unwrap(), vec![0x6b; 4 * LEN]);

        let p = p.with_fresh_qps();
        p.qb.post_recv(RecvWr::bare(95)).unwrap();
        write_with_imm(&p, &src, &dst, 4, LEN as u32);
        assert_eq!(poll_until(&p.cqa, "send CQE").status, WcStatus::Success);
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 95);
        // The ledger holds two sends that completed and never notified,
        // which no law allows: the pair is closed unchecked.
        p.close();
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

    /// A ring slot is reused only once its doorbell is notified. On a ring
    /// of two doorbells, with the receiver's fabric scanned by another
    /// thread only after 10 ms, the third write of a window is placed and
    /// then waits for ring space (one stall), and every doorbell is
    /// notified once, in order: a doorbell written over one not yet
    /// notified would lose that message, or notify it twice.
    #[cfg(unix)]
    #[test]
    fn a_ring_slot_is_reused_only_after_its_doorbell_is_notified() {
        let cfg = ShmConfig {
            ring_capacity: 2 * BELL,
            ..ShmConfig::default()
        };
        let p = host_pair(cfg, QpCaps::default());
        let rx = &p.host.as_ref().unwrap().0;
        let src = p.a.reg_mr(p.pda, 3 * LEN).unwrap();
        let dst = p.b.reg_mr(p.pdb, 3 * LEN).unwrap();
        for i in 0..3 {
            src.fill(i * LEN, LEN, 0x40 + i as u8).unwrap();
            p.qb.post_recv(RecvWr::bare(600 + i as u64)).unwrap();
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                for i in 0..3u64 {
                    let wc = poll_until(&p.cqb, "recv CQE");
                    assert_eq!((wc.wr_id, wc.imm), (600 + i, Some(i as u32)));
                }
            });
            for i in 0..3u64 {
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
        });
        assert_eq!(p.fabric.ring_full_stalls(), 1, "the third write waited");
        assert_eq!(rx.data_records(), 3);
        for i in 0..3u64 {
            assert_eq!(poll_until(&p.cqa, "send CQE").wr_id, i);
            let want = vec![0x40 + i as u8; LEN];
            assert_eq!(dst.read_vec(i as usize * LEN, LEN).unwrap(), want);
        }
        p.finish();
    }

    /// A full ring nobody drains is a diagnostic within
    /// `full_ring_deadline`, not a hang: the receiver here attaches (so
    /// `open_tx` returns) and then never notifies a doorbell. The writes
    /// are bare, so no credit holds them back.
    #[cfg(unix)]
    #[test]
    fn full_data_ring_with_no_consumer_fails_within_the_stall_deadline() {
        let dir = std::env::temp_dir().join(format!("partix_shm_stall_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ShmConfig {
            ring_capacity: 2 * BELL + 16,
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
        p.qa.post_send(bare_write_wr(&src, &dst, 0, 64)).unwrap();
        p.qa.post_send(bare_write_wr(&src, &dst, 1, 64)).unwrap();
        let t0 = Instant::now();
        let third = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.qa.post_send(bare_write_wr(&src, &dst, 2, 64))
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
        // Nothing will ever notify the two doorbells on the ring, and this
        // side holds no WR: the final drain does not wait for them.
        let t0 = Instant::now();
        p.fabric.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The credit word is bytes another process wrote too. One forged past
    /// the receives really posted lets the sender place writes the receiver
    /// has no receive WR for, and they complete at the sender, which cannot
    /// tell; but notify completes nothing beyond what was posted: one
    /// receive, one receive completion, and the two doorbells that found
    /// none are counted.
    #[cfg(unix)]
    #[test]
    fn a_credit_word_past_what_was_posted_completes_nothing_beyond_it() {
        let p = host_pair(ShmConfig::default(), QpCaps::default());
        let rx = &p.host.as_ref().unwrap().0;
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        p.qb.post_recv(RecvWr::bare(1)).unwrap();
        let ring = sent_ring(&p);
        assert_eq!(ring.ctrl_load(Ctrl::Credits), 1, "the receive is published");
        ring.ctrl_store(Ctrl::Credits, 5);
        for wr_id in 0..3 {
            write_with_imm(&p, &src, &dst, wr_id, 64);
            let wc = p.cqa.poll_one().expect("completed at placement");
            assert_eq!((wc.wr_id, wc.status), (wr_id, WcStatus::Success));
        }
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 1);
        poll_empty_until(&p.cqb, "the other doorbells", || rx.data_records() == 3);
        assert_eq!(rx.malformed_records(), 2);
        let wire = p.net.state().telemetry_snapshot().wire;
        assert_eq!((wire.receiver_not_ready, wire.recv_cqes), (2, 1));
        // Two sends completed `Success` that no receive completion matches,
        // which no ledger law allows: the pair is closed unchecked.
        p.close();
    }

    /// `Head` is bytes another process wrote too, and so is `Polled`, the
    /// receiver's copy of it. A write with no credit is held while its
    /// receiver has doorbells to notify; a `Head` and a `Polled` forged past
    /// what the sender published read as a drained ring, so the RNR rule
    /// starts at once, and the forgery is counted. It completes nothing
    /// beyond what was posted: the two bare writes before the held one, and
    /// the held one once a receive's credit comes.
    #[cfg(unix)]
    #[test]
    fn a_head_past_what_was_posted_completes_nothing_beyond_it() {
        let p = host_pair(ShmConfig::default(), QpCaps::default());
        let (tx, rx) = (&p.fabric, &p.host.as_ref().unwrap().0);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        // Both sides paused: the doorbells stay on their ring.
        let rx_driver = rx.pause_progress();
        let mut tx_driver = tx.pause_progress();
        for wr_id in [7, 8] {
            p.qa.post_send(bare_write_wr(&src, &dst, wr_id, 64))
                .unwrap();
        }
        write_with_imm(&p, &src, &dst, 9, 64);
        assert_eq!(
            tx.rnr_deferrals(),
            0,
            "held: its receiver has two to notify"
        );
        let ring = sent_ring(&p);
        ring.ctrl_store(Ctrl::Head, 1000 * BELL);
        ring.ctrl_store(Ctrl::Polled, 1000 * BELL);

        assert!(!tx_driver.scan(), "the held write waits out its timer");
        assert_eq!((tx.rnr_deferrals(), tx.malformed_records()), (1, 1));
        p.qb.post_recv(RecvWr::bare(1)).unwrap();
        assert!(tx_driver.scan(), "the credit sends the held write");
        for wr_id in [7, 8, 9] {
            let wc = p.cqa.poll_one().expect("send CQE");
            assert_eq!((wc.wr_id, wc.status), (wr_id, WcStatus::Success));
        }
        assert!(p.cqa.poll_one().is_none(), "nothing beyond what was posted");
        assert!(!tx_driver.scan(), "a second look sends nothing more");
        drop((tx_driver, rx_driver));
        // The receiver's own cursor is forged: the pair is closed unchecked.
        p.close();
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

    /// A send completes on the posting thread, at placement, and
    /// `shutdown`'s final drain runs on the calling thread: a doorbell still
    /// on its ring when it is called — posted, and never polled for — is
    /// notified there, and a second call is a no-op.
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
            "the doorbell is still on its ring"
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
    /// 20 ms of polls nothing is notified, and then the holder's own scan
    /// notifies. The send needs no scan: it completes at placement.
    fn pause_progress_locks_out_pollers(p: Pair) {
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        p.qb.post_recv(RecvWr::bare(2)).unwrap();
        let rx = *fabrics(&p).last().unwrap();
        let mut paused: Vec<ProgressDriver<'_>> =
            fabrics(&p).iter().map(|f| f.pause_progress()).collect();
        write_with_imm(&p, &src, &dst, 4, 64);
        assert_eq!(p.cqa.poll_one().expect("send CQE").wr_id, 4);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(20) {
            assert!(p.cqb.poll_one().is_none(), "a poller notified");
            std::thread::yield_now();
        }
        assert_eq!(rx.data_records(), 0, "the doorbell is still on its ring");
        assert!(
            paused.last_mut().unwrap().scan(),
            "the holder's scan notifies"
        );
        assert_eq!(rx.data_records(), 1);
        drop(paused);
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 2);
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

    /// A receiver that stops polling holds no send. A host-mode receiver
    /// posts its receives, and then nobody scans its fabric for 20 ms: in
    /// that time the sender's window of bare writes and writes-with-imm
    /// completes `Success`, at once and with no scan of the receiver's, and
    /// the bytes are in the receiver's region. The receiver's first poll
    /// then yields the receive completions, in order.
    #[cfg(unix)]
    #[test]
    fn a_receiver_that_stops_polling_holds_no_send_over_two_mappings_of_a_file_segment() {
        // A send queue well beyond the window.
        let caps = QpCaps {
            max_send_wr: 32,
            ..QpCaps::default()
        };
        let p = host_pair(ShmConfig::default(), caps);
        let rx = &p.host.as_ref().unwrap().0;
        let imm = |i: u64| i % 2 == 0;
        for i in (0..WINDOW).filter(|&i| imm(i)) {
            p.qb.post_recv(RecvWr::bare(500 + i)).unwrap();
        }
        let dst = post_window_with(&p, 0, imm);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(20) {
            // Node 0's fabric alone: the scans the sending process makes.
            p.fabric.progress();
            std::thread::yield_now();
        }
        assert_eq!(
            (rx.data_records(), p.cqb.depth()),
            (0, 0),
            "nothing notified"
        );
        assert_eq!(p.cqa.depth(), WINDOW as usize, "every send completed");
        for i in 0..WINDOW {
            let send = p.cqa.poll_one().expect("completed");
            assert_eq!((send.wr_id, send.status), (i, WcStatus::Success));
        }
        window_holds_its_bytes(&dst, 0);

        let first = p
            .cqb
            .poll_one()
            .expect("the receiver's first poll notifies");
        assert_eq!((first.wr_id, first.imm), (500, Some(0)));
        assert_eq!(rx.data_records(), WINDOW, "the whole window, in one poll");
        for i in (2..WINDOW).step_by(2) {
            let wc = p.cqb.poll_one().expect("notified by the first poll");
            assert_eq!((wc.wr_id, wc.imm), (500 + i, Some(i as u32)), "in order");
        }
        assert!(p.cqb.poll_one().is_none(), "every message notified once");
        p.finish();
    }

    /// What [`LossyFabric`](crate::LossyFabric) hands the wire, with every
    /// ghost duplicate held back until [`release`](Self::release): a ghost
    /// that arrives late.
    struct LateGhosts {
        inner: Arc<ShmFabric>,
        ghosts: Mutex<Vec<(Arc<NetworkState>, TransferJob)>>,
    }

    impl LateGhosts {
        fn release(&self) {
            for (net, ghost) in self.ghosts.lock().drain(..) {
                self.inner.submit(net, ghost);
            }
        }
    }

    impl Fabric for LateGhosts {
        fn submit(&self, net: Arc<NetworkState>, job: TransferJob) {
            match job.ghost {
                true => self.ghosts.lock().push((net, job)),
                false => self.inner.submit(net, job),
            }
        }

        fn recv_posted(&self, node: NodeId, qp_num: u32, posted: u64) {
            self.inner.recv_posted(node, qp_num, posted);
        }

        fn progress(&self) -> bool {
            self.inner.progress()
        }
    }

    /// A duplicate writes nothing here either, however late it comes. Over
    /// a `LossyFabric` that duplicates every transfer, around a loopback
    /// fabric, a write-with-imm lands and its round completes on both sides;
    /// the receiver then rewrites the buffer, and only then does the ghost
    /// reach the fabric. The buffer keeps the receiver's bytes, the ghost
    /// is counted as a suppressed duplicate, and it completes nothing.
    #[test]
    fn a_late_ghost_writes_nothing_and_is_counted() {
        use crate::fabric_lossy::{LossyConfig, LossyFabric};
        let shm = ShmFabric::loopback();
        let late = Arc::new(LateGhosts {
            inner: shm.clone(),
            ghosts: Mutex::new(Vec::new()),
        });
        let dup_all = LossyConfig {
            dup_p: 1.0,
            ..LossyConfig::default()
        };
        let net = Network::new(2, LossyFabric::new(late.clone(), dup_all));
        let (a, b) = (net.open(0).unwrap(), net.open(1).unwrap());
        let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
        let (cqa, cqb) = (a.create_cq(), b.create_cq());
        let caps = QpCaps::default();
        let qa = a.create_qp(pda, cqa.clone(), a.create_cq(), caps).unwrap();
        let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), caps).unwrap();
        connect_pair(&qa, &qb).unwrap();
        let src = a.reg_mr(pda, 64).unwrap();
        let dst = b.reg_mr(pdb, 64).unwrap();
        src.fill(0, 64, 0x11).unwrap();
        qb.post_recv(RecvWr::bare(1)).unwrap();
        qa.post_send(SendWr {
            opcode: Opcode::RdmaWriteWithImm,
            imm: Some(5),
            ..bare_write_wr(&src, &dst, 3, 64)
        })
        .unwrap();
        assert_eq!(poll_until(&cqa, "send CQE").status, WcStatus::Success);
        assert_eq!(poll_until(&cqb, "recv CQE").imm, Some(5));
        assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0x11; 64]);
        dst.fill(0, 64, 0x22).unwrap();

        late.release();
        poll_empty_until(&cqb, "the ghost's doorbell", || shm.data_records() == 2);
        assert_eq!(
            dst.read_vec(0, 64).unwrap(),
            vec![0x22; 64],
            "the ghost wrote"
        );
        assert!(cqa.poll_one().is_none(), "the ghost completed");
        let wire = net.state().telemetry_snapshot().wire;
        assert_eq!(
            (wire.duplicates_injected, wire.duplicates_suppressed),
            (1, 1)
        );
        assert!(shm.quiesce(Duration::from_secs(10)));
        let report = invariants::check_strict(&net.state().telemetry_snapshot());
        assert!(report.is_clean(), "invariants violated: {report:?}");
        shm.shutdown();
    }
}
