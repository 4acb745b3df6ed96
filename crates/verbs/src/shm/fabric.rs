//! The real-time shared-memory fabric.
//!
//! [`ShmFabric`] runs the verbs object model on *wall-clock time and real
//! threads*: every posted WR becomes a DATA record in a per-QP-pair SPSC
//! [`SpscRing`], whoever polls a completion queue of the fabric drains rings
//! into deliveries and completions (with a progress thread standing by for
//! a process that does not poll), and the receive side acknowledges the
//! records on a paired ACK ring — the RDMA-write-with-immediate protocol of
//! Ibdxnet's messaging engine mapped onto shared memory (see DESIGN.md §11).
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
//! A payload is copied twice between the two registered regions, and no
//! syscall, allocation, hash look-up or clock read is made on the way:
//! `submit` gathers the source MR straight into the ring (72-byte header
//! first), and the scan delivers the record *in place* — inside
//! [`SpscRing::try_pop_with`], before `Head` moves, the shared
//! [`execute_delivery`] writes the (up to two) ring slices into the
//! destination MR. The sender keeps no copy: the ring loses nothing, so
//! nothing is ever re-sent.
//!
//! **Ownership rule.** Ring memory is borrowed for exactly as long as the
//! pop's closure runs; the slot goes back to the producer when it returns. A
//! delivery that must outlive its slot — receiver-not-ready and re-armed on
//! the RNR timer, or queued behind such a delivery for the same QP — copies
//! its payload into a buffer it owns before the closure returns
//! ([`Deferred`]); that is the only staging copy left. A PSN-suppressed
//! duplicate, a protection failure and an exhausted RNR budget copy nothing.
//!
//! On the way back an ACK is `(psn, status)`, coalesced as an InfiniBand RC
//! responder coalesces them: one ACK per drained batch names the last record
//! the batch delivered, and a failure, or a record deferred on the RNR
//! timer, first sends what the batch owes and then (a failure) its own. The
//! record that fills half the sender's window carries IB's AckReq: it is
//! acknowledged at once and ends the batch, so the sender refills its window
//! while the rest of it drains, and a drain never chases a sender its own
//! ACKs keep refilling (one that did would deliver past the receives its
//! poller has posted, and defer on RNR). The sending channel registers its
//! records in a window in ring order, so an ACK completes the window's front
//! through the record it names, each with [`complete_posted`] of what the
//! sender kept. The sending channel of a QP is resolved once, into a table
//! indexed by the local QP number.
//!
//! # Progress loop
//!
//! A scan ([`ShmFabric::scan`]) visits every channel (from a snapshot of the
//! channel list refreshed only when one is installed), then the RNR queue;
//! the clock is read only where a deadline is set or checked. One scanner
//! runs at a time, under the progress lock. Pollers scan: every completion
//! queue created on the fabric holds it ([`Fabric::progress`]), and a poll
//! that finds its queue empty try-locks and runs one scan on the polling
//! thread, so a record goes from the poster's ring to the poller's CQ with
//! no thread hop — the paper's caller-driven progress (§IV-A).
//!
//! The progress thread is the fallback. It takes the lock once per scan,
//! so pollers interleave with it; it stands down — parks for
//! [`ShmConfig::idle_park`], or until the nearest RNR timer — whenever
//! pollers have scanned since it last looked; and otherwise serves RNR
//! timers and a process that never polls. After a scan that found nothing
//! it backs off up a ladder: [`SPIN_ROUNDS`] scans separated by a spin hint,
//! [`YIELD_ROUNDS`] separated by `yield_now`, and then it parks for
//! `idle_park` — any work sends it back to the bottom. A submit does not
//! unpark it, so with nobody polling the first message after a quiet spell
//! waits at most `idle_park`. Yields are timed: one that returns later than
//! a park would have means a neighbour is busy-polling on a core this thread
//! needs, and the ladder then skips to parking for a while (see
//! [`MAX_STARVED_SPELLS`]), because a waking sleeper is scheduled ahead of
//! such a neighbour and a yielder is not.
//!
//! Receiver-not-ready deliveries wait in a FIFO the progress thread owns;
//! later records for the same destination QP queue behind the deferred one,
//! so a window posted ahead of its receives still lands in posting order.
//!
//! The ring transport is lossless, so what the fabric keeps above it is flow
//! control, on real [`Instant`] deadlines: receiver-not-ready re-arms after
//! the QP's `min_rnr_timer` (wall-clock), `rnr_retry` times for budgets 0–6
//! and, for InfiniBand's "retry indefinitely" 7, until the record has waited
//! [`ShmConfig::full_ring_deadline`] ([`RnrBudget`]): a receiver that is
//! merely slow holds its sender back, and only one that is gone fails it.
//! There is no ack timer and no retransmission: a slow ack is awaited. Loss
//! is not this fabric's to inject or to recover from — a
//! [`LossyFabric`](crate::LossyFabric) wrapped around it drops, duplicates
//! and re-sends, and what reaches this fabric from one is ordinary records
//! plus ghost duplicates, which the delivery engine's PSN check suppresses.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use partix_telemetry::{segments_for, FlowStage, Sampler};

use crate::fabric::{
    complete_posted, execute_delivery, outcome_status, DeliveryHeader, DeliveryOutcome, Fabric,
    Payload, PostedSend, TransferJob,
};
use crate::network::NetworkState;
use crate::qp::RetryProfile;
use crate::table::IndexTable;
use crate::types::WcStatus;

use super::ring::{RecordReader, RecordWriter, SpscRing, RECORD_HEADER};
use super::segment::{FileSegment, HeapSegment, Segment};

/// DATA record kind tag.
const KIND_DATA: u8 = 1;
/// ACK record kind tag.
const KIND_ACK: u8 = 2;

/// Serialized DATA header bytes (payload follows).
const DATA_HEADER: usize = 72;
/// Serialized ACK record bytes: `psn: u64` | `status: u8` | padding.
const ACK_LEN: usize = 16;

/// Configuration of a [`ShmFabric`].
#[derive(Clone, Copy, Debug)]
pub struct ShmConfig {
    /// Data-ring capacity per QP-pair channel, bytes. A single record
    /// (72-byte header + payload) must fit. See [`ShmConfig::default`] for
    /// how the default was chosen.
    pub ring_capacity: u64,
    /// ACK-ring capacity per channel, bytes.
    pub ack_capacity: u64,
    /// How long the progress thread parks: once the back-off ladder (spin,
    /// then yield; see the module docs) has run out, and each time it
    /// stands down because pollers scanned since it last looked (never past
    /// the nearest RNR timer). Pollers move every message while they poll,
    /// so this bounds only the latency of the first message after a quiet
    /// spell with nobody polling: a submit does not unpark the thread.
    pub idle_park: Duration,
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
    /// The data ring defaults to 512 KiB: seven 64 KiB records, about half
    /// of a 16-WR window of the largest message the benches send. Measured
    /// on the benchmark's `shm_exchange` (2 vCPUs, 64 KiB × 400 stream),
    /// throughput is flat from 256 KiB to 1 MiB (8.7–9.3 GB/s) because the
    /// consumer polls: a full ring costs the sender one `yield_now`, not a
    /// 100 µs park as it did when 1 MiB was chosen. What the size does
    /// change is memory — ring pages are mapped, so every touched page is
    /// resident in each process that maps it (peak RSS of that workload
    /// against the positioned-I/O transport: 1 MiB +16 %, 512 KiB +4–7 %,
    /// 256 KiB −1–+3 %) — and ring-full stalls per 400 messages (13 / 84 /
    /// 165). 512 KiB halves the memory for a count that costs nothing
    /// measurable. 256 KiB would buy the last few percent, but the ring also
    /// bounds the largest message a channel can carry (capacity − 80 bytes)
    /// and would pipeline only three of the largest records.
    fn default() -> Self {
        ShmConfig {
            ring_capacity: 1 << 19,
            ack_capacity: 1 << 16,
            idle_park: Duration::from_micros(100),
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

/// One directed QP-pair channel: DATA ring (sender → receiver) plus ACK
/// ring (receiver → sender).
struct Channel {
    key: PairKey,
    data: SpscRing,
    ack: SpscRing,
    /// This process produces DATA / consumes ACK.
    we_send: bool,
    /// This process consumes DATA / produces ACK.
    we_recv: bool,
    /// Serialises the DATA producer side (posts may come from any thread;
    /// the ring protocol wants one logical producer).
    tx_lock: Mutex<()>,
    /// Sender side: records awaiting their ACK, in ring order (each is
    /// registered under `tx_lock`, just before it is pushed). The receiver
    /// acks in ring order, so an ACK completes a prefix of the window.
    window: Mutex<VecDeque<Pending>>,
}

impl Channel {
    fn new(
        key: PairKey,
        data: Arc<dyn Segment>,
        ack: Arc<dyn Segment>,
        we_send: bool,
        we_recv: bool,
    ) -> Arc<Channel> {
        Arc::new(Channel {
            key,
            data: SpscRing::new(data),
            ack: SpscRing::new(ack),
            we_send,
            we_recv,
            tx_lock: Mutex::new(()),
            window: Mutex::new(VecDeque::new()),
        })
    }
}

/// Sender-side record awaiting its ACK.
struct Pending {
    /// What the completion needs.
    wr: PostedSend,
    /// The PSN its ACK will name.
    psn: u64,
    /// Flow-clock timestamp at submit: the `WireSubmit` event's time.
    submit_ns: u64,
}

/// Receiver-side delivery that outlived its ring slot, waiting in the
/// progress thread's RNR queue with its payload in a buffer of its own:
/// either deferred by a receiver-not-ready outcome (due when the wall-clock
/// RNR timer expires) or held, untried, behind such a delivery of the same
/// QP (due at once — order is what holds it).
struct Deferred {
    /// The channel the record arrived on, which carries its ACK.
    ch: Arc<Channel>,
    header: DeliveryHeader,
    payload: Vec<u8>,
    budget: RnrBudget,
    min_rnr_timer_ns: u64,
    /// When the RNR timer allows the next attempt; `None` while untried.
    due: Option<Instant>,
}

/// The `rnr_retry` value InfiniBand reserves for "retry indefinitely".
const RNR_RETRY_INFINITE: u8 = 7;

/// What is left of the sending QP's `rnr_retry` for one queued delivery.
enum RnrBudget {
    /// `rnr_retry` 0–6: receiver-not-ready may re-arm the timer this many
    /// more times.
    Rearms(u8),
    /// `rnr_retry = 7`: it may re-arm the timer until this instant,
    /// [`ShmConfig::full_ring_deadline`] after the record came off its ring.
    /// A wall-clock fabric cannot count this budget out: seven timers are a
    /// few milliseconds, which a receiver thread that merely lost its CPU
    /// outlasts, and the sender it fails cannot tell that from a dead peer.
    Until(Instant),
}

impl Deferred {
    /// The destination QP whose receive queue this delivery waits on.
    fn dst(&self) -> (u32, u32) {
        (self.header.dst_node, self.header.dst_qp)
    }
}

/// What the scanner keeps between scans. Whoever scans holds the lock
/// around it, so there is one scanner at a time.
#[derive(Default)]
struct ProgressState {
    /// Snapshot of the channel list, re-read only when one is installed.
    channels: Vec<Arc<Channel>>,
    /// Deliveries waiting on a receive queue, in arrival order.
    rnr: VecDeque<Deferred>,
    /// The window prefix an ACK covers, taken out of the window so that
    /// completions are pushed with no window lock held. Empty between ACKs;
    /// kept for its capacity.
    acked: Vec<Pending>,
}

/// What a drain of one data ring owes the channel's sender: the coalesced
/// ACK of the records it delivered since it last sent one.
#[derive(Default)]
struct OwedAck {
    /// PSN of the last record delivered.
    psn: u64,
    /// Records the ACK covers, 0 when nothing is owed. They stay counted in
    /// hand (see `ShmStats::in_hand`) until it is sent.
    records: u64,
    /// A record asked for its ACK (AckReq) and got it: the batch ends.
    answered: bool,
}

#[derive(Default)]
struct ShmStats {
    data_records: AtomicU64,
    ack_records: AtomicU64,
    rnr_deferrals: AtomicU64,
    stale_acks: AtomicU64,
    ring_full_stalls: AtomicU64,
    progress_iterations: AtomicU64,
    /// The progress thread's share of `progress_iterations`; the rest are
    /// pollers'.
    thread_scans: AtomicU64,
    progress_wakeups: AtomicU64,
    stand_downs: AtomicU64,
    ring_occupancy_high_water: AtomicU64,
    /// Records a scanner has taken off a ring and not finished with: being
    /// delivered or completed right now, delivered with their ACK still
    /// owed, or waiting in the RNR queue (which is the scanner's own; this
    /// is what `is_idle` can see of it). Raised *before* the ring's `Head`
    /// moves, so whoever sees the ring empty also sees the record counted
    /// here.
    in_hand: AtomicU64,
}

/// Real-time shared-memory fabric. See the module docs.
pub struct ShmFabric {
    cfg: ShmConfig,
    backing: Backing,
    channels: Mutex<Vec<Arc<Channel>>>,
    /// `channels.len()`, published after each install: the progress thread
    /// re-reads the list only when this differs from its snapshot.
    channels_installed: AtomicUsize,
    /// The sending channel of each local QP, at the index its number spells
    /// (a connected QP sends to one peer): what `submit` resolves instead of
    /// searching `channels`.
    tx_route: IndexTable<Arc<Channel>>,
    /// The scanner's state, and the progress lock; see [`ProgressState`].
    progress_state: Mutex<ProgressState>,
    net: OnceLock<Weak<NetworkState>>,
    shutdown: AtomicBool,
    progress: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Progress thread handle, unparked by `shutdown`.
    progress_thread: OnceLock<std::thread::Thread>,
    stats: ShmStats,
    /// Wall-clock sampler ticked by the progress thread at every turn of its
    /// loop (a scan or a stand-down), paired with the
    /// instant it was attached (its t = 0).
    sampler: OnceLock<(Arc<Sampler>, Instant)>,
    me: Weak<ShmFabric>,
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
            cfg.ring_capacity > DATA_HEADER as u64 && cfg.ack_capacity > ACK_LEN as u64,
            "ring capacities must hold at least one record"
        );
        let fabric = Arc::new_cyclic(|me| ShmFabric {
            cfg,
            backing,
            channels: Mutex::new(Vec::new()),
            channels_installed: AtomicUsize::new(0),
            tx_route: IndexTable::new(),
            progress_state: Mutex::new(ProgressState::default()),
            net: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            progress: Mutex::new(None),
            progress_thread: OnceLock::new(),
            stats: ShmStats::default(),
            sampler: OnceLock::new(),
            me: me.clone(),
        });
        let weak = fabric.me.clone();
        let handle = std::thread::Builder::new()
            .name("partix-shm-progress".into())
            .spawn(move || progress_loop(weak))
            .expect("spawn shm progress thread");
        let _ = fabric.progress_thread.set(handle.thread().clone());
        *fabric.progress.lock() = Some(handle);
        fabric
    }

    /// The configuration in force.
    pub fn config(&self) -> ShmConfig {
        self.cfg
    }

    /// Register the network this fabric delivers into. Implicit on first
    /// `submit`; a receive-only process (host mode) calls it explicitly so
    /// the progress thread can resolve destination QPs.
    pub fn attach_network(&self, net: &Arc<NetworkState>) {
        let weak = self.net.get_or_init(|| Arc::downgrade(net));
        debug_assert!(
            weak.upgrade().is_some_and(|n| Arc::ptr_eq(&n, net)),
            "a ShmFabric serves exactly one network"
        );
    }

    /// DATA records this process's scans consumed.
    pub fn data_records(&self) -> u64 {
        self.stats.data_records.load(Ordering::Relaxed)
    }

    /// ACK records this process's scans consumed (one per drained batch of
    /// the peer's, not one per record: see the module docs).
    pub fn ack_records(&self) -> u64 {
        self.stats.ack_records.load(Ordering::Relaxed)
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

    /// ACKs naming a PSN the sender's window does not hold — beyond the
    /// highest it posted, or already completed. This fabric's own ACKs name
    /// a record still in the window, so its own traffic never produces one;
    /// an ACK is bytes from another process, and one that matches nothing
    /// is counted and dropped rather than trusted.
    pub fn stale_acks(&self) -> u64 {
        self.stats.stale_acks.load(Ordering::Relaxed)
    }

    /// Times a submit had to wait for ring space (backpressure events).
    pub fn ring_full_stalls(&self) -> u64 {
        self.stats.ring_full_stalls.load(Ordering::Relaxed)
    }

    /// Scans, by pollers and the progress thread alike (each is one full
    /// scan of every channel plus the RNR queue).
    pub fn progress_iterations(&self) -> u64 {
        self.stats.progress_iterations.load(Ordering::Relaxed)
    }

    /// The progress thread's share of [`progress_iterations`](Self::progress_iterations).
    fn thread_scans(&self) -> u64 {
        self.stats.thread_scans.load(Ordering::Relaxed)
    }

    /// Times the progress thread woke from an idle park, the end of its
    /// back-off ladder (see the module docs). A park it took to stand down
    /// for pollers is counted apart, in
    /// [`progress_stand_downs`](Self::progress_stand_downs).
    pub fn progress_wakeups(&self) -> u64 {
        self.stats.progress_wakeups.load(Ordering::Relaxed)
    }

    /// Times the progress thread parked because pollers had scanned since
    /// it last looked: about one per `idle_park` while they poll.
    pub fn progress_stand_downs(&self) -> u64 {
        self.stats.stand_downs.load(Ordering::Relaxed)
    }

    /// High-water mark of DATA-ring occupancy in bytes, across every
    /// channel of this fabric: sampled by the sender after each enqueue (and
    /// at each ring-full stall) and by the receiver's progress thread at
    /// each record it takes, so whichever side sees the backlog reports it.
    pub fn ring_occupancy_high_water(&self) -> u64 {
        self.stats.ring_occupancy_high_water.load(Ordering::Relaxed)
    }

    /// Raise the occupancy gauge to `seen` bytes. Compared first: past
    /// warm-up the mark rarely moves, and a plain load leaves the counter's
    /// cache line shared between the posting and the progress thread.
    fn note_occupancy(&self, seen: u64) {
        let mark = &self.stats.ring_occupancy_high_water;
        if seen > mark.load(Ordering::Relaxed) {
            mark.fetch_max(seen, Ordering::Relaxed);
        }
    }

    /// Attach a wall-clock [`Sampler`]: the progress thread ticks it with
    /// nanoseconds elapsed since this call, so frames capture windows of
    /// real time. One sampler per fabric; later calls are ignored.
    pub fn attach_sampler(&self, sampler: Arc<Sampler>) {
        let _ = self.sampler.set((sampler, Instant::now()));
    }

    /// The fabric-level gauges a composed [`Sample`](partix_telemetry::Sample)
    /// source should carry: progress-loop activity and ring occupancy.
    pub fn sample_gauges(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("progress_iterations", self.progress_iterations()),
            ("progress_wakeups", self.progress_wakeups()),
            ("progress_stand_downs", self.progress_stand_downs()),
            (
                "ring_occupancy_high_water",
                self.ring_occupancy_high_water(),
            ),
            ("ring_full_stalls", self.ring_full_stalls()),
            ("rnr_deferrals", self.rnr_deferrals()),
            ("stale_acks", self.stale_acks()),
        ]
    }

    /// Whether nothing is in flight on this fabric: every consumable ring
    /// drained, no record being delivered, completed or RNR-deferred, none
    /// awaiting its ack.
    pub fn is_idle(&self) -> bool {
        // Rings first, `in_hand` second: a record leaves a ring only after
        // it is counted in hand (see `ShmStats::in_hand`).
        let channels = self.channels.lock();
        let drained = channels
            .iter()
            .all(|ch| (!ch.we_recv || ch.data.is_empty()) && (!ch.we_send || ch.ack.is_empty()));
        drained
            && self.stats.in_hand.load(Ordering::Acquire) == 0
            && channels.iter().all(|ch| ch.window.lock().is_empty())
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

    /// Stop the progress thread: close every producer ring, wait for the
    /// final drain, and join. Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for ch in self.channels.lock().iter() {
            if ch.we_send {
                ch.data.close();
            }
            if ch.we_recv {
                ch.ack.close();
            }
        }
        self.kick();
        if let Some(handle) = self.progress.lock().take() {
            // If the progress thread itself holds the last `Arc` (so `Drop`
            // — and thus this method — runs *on* that thread), a join would
            // self-deadlock (EDEADLK). The stop flag is already set, so the
            // loop exits on its own; just let the handle fall away.
            if handle.thread().id() == std::thread::current().id() {
                return;
            }
            let _ = handle.join();
        }
    }

    fn kick(&self) {
        if let Some(t) = self.progress_thread.get() {
            t.unpark();
        }
    }

    /// Open the sending side of the directed channel `src → dst` (host
    /// mode): creates the segment files and waits up to `timeout` for the
    /// receiver to attach.
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
            let ack =
                FileSegment::create(&dir.join(key.file_stem() + ".ack"), self.cfg.ack_capacity)?;
            let ch = Channel::new(key, Arc::new(data), Arc::new(ack), true, false);
            self.publish(&mut channels, &ch);
            let fresh = self.tx_route.set(src.1, ch.clone());
            assert!(fresh.is_ok(), "route checked empty under the list lock");
            ch
        };
        let deadline = Instant::now() + timeout;
        while !ch.data.is_attached() {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "peer did not attach to shm channel",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Open the receiving side of the directed channel `src → dst` (host
    /// mode): polls for the sender's segment files up to `timeout`, then
    /// acknowledges attachment.
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
        let deadline = Instant::now() + timeout;
        let (data, ack) = loop {
            let data = FileSegment::open(&dir.join(key.file_stem() + ".data"))?;
            let ack = FileSegment::open(&dir.join(key.file_stem() + ".ack"))?;
            if let (Some(d), Some(a)) = (data, ack) {
                break (d, a);
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "shm channel segments never appeared",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let ch = Channel::new(key, Arc::new(data), Arc::new(ack), false, true);
        self.publish(&mut self.channels.lock(), &ch);
        ch.data.mark_attached();
        Ok(())
    }

    /// Add `ch` to `channels`, the locked list the progress thread scans.
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
            let heap = |bytes: u64| Arc::new(HeapSegment::new(bytes as usize));
            let ch = Channel::new(
                key,
                heap(self.cfg.ring_capacity),
                heap(self.cfg.ack_capacity),
                true,
                true,
            );
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
    /// on `ch`'s ring, waiting out backpressure, and charge the wire ledger
    /// for a transfer entering the fabric. `pending` (none for a ghost) joins
    /// the window in the order its record joins the ring; `write` is told
    /// whether the record is the one that fills `half_window`, and asks for
    /// its ACK at once.
    fn enqueue_data(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        len: usize,
        write: &dyn Fn(&mut RecordWriter<'_>, bool),
        pending: Option<Pending>,
        half_window: usize,
    ) {
        let _tx = ch.tx_lock.lock();
        // Registered before the record can produce an ACK, so the ACK
        // handler always finds its entry.
        let ack_req = pending.is_some_and(|pending| {
            let mut window = ch.window.lock();
            window.push_back(pending);
            window.len() == half_window
        });
        let write = |w: &mut RecordWriter<'_>| write(w, ack_req);
        if !ch.data.try_push_with(KIND_DATA, len, write) {
            self.stats.ring_full_stalls.fetch_add(1, Ordering::Relaxed);
            self.note_occupancy(ch.data.len());
            let deadline = Instant::now() + self.cfg.full_ring_deadline;
            loop {
                // A loopback ring drains when its poster scans.
                self.progress();
                std::thread::yield_now();
                if ch.data.try_push_with(KIND_DATA, len, write) {
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
        let wire = &net.telemetry().wire;
        wire.inner_submissions.inc();
        wire.mtu_segments
            .add(segments_for((len - DATA_HEADER) as u64, self.cfg.mtu));
    }

    /// [`Fabric::submit`] once the sending channel is known.
    fn submit_on(&self, net: &Arc<NetworkState>, ch: &Channel, job: TransferJob) {
        let qp = net.qp(job.src_node, job.src_qp).ok();
        let profile = qp.map_or(
            RetryProfile {
                timeout: 5,
                retry_cnt: 0,
                rnr_retry: 0,
                min_rnr_timer_ns: 10_000,
            },
            |qp| qp.retry_profile(),
        );
        let half_window = qp.map_or(0, |qp| qp.caps().max_send_wr.div_ceil(2) as usize);
        let len = DATA_HEADER + job.total_len as usize;
        // One WR is one record, and a record the ring can never hold would
        // trip the ring's own assertion from inside `post_send`. The wire
        // took it and refused it for its length: counted as such, and the
        // poster gets IB's status for a message the port cannot carry.
        if len as u64 > ch.data.max_payload() {
            let wire = &net.telemetry().wire;
            wire.inner_submissions.inc();
            wire.delivery_attempts.inc();
            wire.length_errors.inc();
            if !job.ghost {
                complete_posted(net, &job.posted(), WcStatus::LocalLengthError);
            }
            return;
        }
        let header = data_header(&job, &profile);
        // Header, then the payload gathered *at post time* straight into
        // the ring (the wire must not chase source-region rewrites across a
        // process boundary; inline sends reuse their snapshot).
        let write = |w: &mut RecordWriter<'_>, ack_req: bool| {
            let mut header = header;
            if ack_req {
                header[FLAGS_AT] |= FLAG_ACK_REQ;
            }
            w.put(&header);
            gather_payload(net, &job, w);
        };
        // A ghost duplicate (a lossy decorator's) is fire-and-forget: no
        // ack, no completion.
        let pending = (!job.ghost).then(|| Pending {
            wr: job.posted(),
            psn: job.psn,
            submit_ns: net.telemetry().flows.now(),
        });
        self.enqueue_data(net, ch, len, &write, pending, half_window);
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

    /// One WR is one record, so the largest is what a record of the data
    /// ring holds less the DATA header.
    fn max_wr_bytes(&self) -> u64 {
        self.cfg
            .ring_capacity
            .saturating_sub(RECORD_HEADER + DATA_HEADER as u64)
    }

    /// One scan on the polling thread, unless another scanner (the progress
    /// thread, another poller) holds the progress lock: then that one is
    /// scanning, and the poller looks at its queue again all the same.
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
/// InfiniBand's AckReq: acknowledge this record at once rather than at the
/// end of the receiver's batch. The sender sets it on the record that fills
/// half its window, so the window is refilled while the rest of it drains.
const FLAG_ACK_REQ: u8 = 4;

fn status_to_wire(s: WcStatus) -> u8 {
    match s {
        WcStatus::Success => 0,
        WcStatus::RemoteAccessError => 1,
        WcStatus::RetryExceeded => 2,
        WcStatus::RnrRetryExceeded => 3,
        WcStatus::LocalLengthError => 4,
    }
}

fn status_from_wire(b: u8) -> WcStatus {
    match b {
        0 => WcStatus::Success,
        1 => WcStatus::RemoteAccessError,
        2 => WcStatus::RetryExceeded,
        3 => WcStatus::RnrRetryExceeded,
        _ => WcStatus::LocalLengthError,
    }
}

/// Offset of the flags byte in a DATA header.
const FLAGS_AT: usize = 60;

/// The fixed header of `job`'s DATA record (the payload follows it). The
/// receiver reads all of it but `src_node` and `wr_id`, which only say whose
/// record this is to someone reading a segment file: the ACK names the PSN,
/// and the sender's window has the rest.
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
    rec[62] = profile.rnr_retry;
    rec[64..72].copy_from_slice(&profile.min_rnr_timer_ns.to_le_bytes());
    rec
}

/// Write `job`'s `total_len` payload bytes through `w`: the inline snapshot,
/// or each gather segment read out of its source region — one copy, source
/// MR to wherever `w` points.
fn gather_payload(net: &NetworkState, job: &TransferJob, w: &mut RecordWriter<'_>) {
    match job.payload(net) {
        Payload::Bytes(pieces) => pieces.into_iter().for_each(|p| w.put(p)),
        Payload::Segments(src, segments) => {
            for seg in segments.iter() {
                let mr = src.mrs.by_lkey(seg.lkey).expect("lkey checked at post");
                let mut at = seg.offset;
                w.fill(seg.len, |dst| {
                    mr.read(at, dst).expect("segments validated at post time");
                    at += dst.len();
                });
            }
        }
    }
}

/// What a DATA record says besides its delivery header.
#[derive(Clone, Copy)]
struct RecordAttrs {
    /// The sending QP's `rnr_retry`.
    rnr_retry: u8,
    /// The sending QP's RNR timer.
    min_rnr_timer_ns: u64,
    /// AckReq ([`FLAG_ACK_REQ`]).
    ack_req: bool,
}

/// Read a DATA record's fixed header: what its delivery needs, plus the
/// sender's attributes. The payload stays where it is, in the ring, as what
/// is left of `r`.
fn parse_data_header(r: &mut RecordReader<'_>) -> (DeliveryHeader, RecordAttrs) {
    let mut rec = [0u8; DATA_HEADER];
    r.take(&mut rec);
    let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().expect("fixed"));
    let u64_at = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().expect("fixed"));
    let flags = rec[FLAGS_AT];
    let total_len = u32_at(52);
    assert_eq!(
        r.remaining(),
        total_len as usize,
        "shm DATA record length disagrees with its header"
    );
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
        ack_req: flags & FLAG_ACK_REQ != 0,
    };
    (header, attrs)
}

fn serialize_ack(psn: u64, status: WcStatus) -> [u8; ACK_LEN] {
    let mut rec = [0u8; ACK_LEN];
    rec[0..8].copy_from_slice(&psn.to_le_bytes());
    rec[8] = status_to_wire(status);
    rec
}

fn parse_ack(r: &mut RecordReader<'_>) -> (u64, WcStatus) {
    let mut rec = [0u8; ACK_LEN];
    r.take(&mut rec);
    let psn = u64::from_le_bytes(rec[0..8].try_into().expect("fixed"));
    (psn, status_from_wire(rec[8]))
}

// ---------------------------------------------------------------------------
// Progress engine
// ---------------------------------------------------------------------------

/// Back-off ladder of an idle progress thread: this many scans separated by
/// a `spin_loop` hint…
const SPIN_ROUNDS: u32 = 16;
/// …then this many separated by `yield_now`, and only then `idle_park`
/// parks. Short on purpose: hosts here have fewer cores than runnable
/// threads, and a progress loop that spins for long starves the very
/// drivers whose posts it is waiting for (they only ever `yield_now`). 256
/// scans outlast the gap between two messages of a ping-pong; a channel
/// quiet for longer is served at `idle_park` latency.
const YIELD_ROUNDS: u32 = 240;
/// After yields that took longer than `idle_park` (so parking would have
/// been no slower), at most this many idle spells go straight from spinning
/// to parking before a yield is tried again: one slow yield in 128 spells
/// is noise, one per spell is a sixfold collapse under a busy-polling
/// caller.
const MAX_STARVED_SPELLS: u32 = 128;

/// The fallback progress thread (Ibdxnet's receive thread): runs
/// [`ShmFabric::scan`] while nobody polls and there is something to do, then
/// backs off; stands down while pollers scan (see the module docs).
fn progress_loop(me: Weak<ShmFabric>) {
    // Consecutive scans that found nothing to do.
    let mut idle_rounds = 0u32;
    // Idle spells left that skip the yield phase, and how many were skipped
    // last time (see `MAX_STARVED_SPELLS`).
    let (mut skip_yields, mut starved_spells) = (0u32, 0u32);
    // Set when a final drain starts, pushed back by every scan that worked.
    let mut drain_deadline: Option<Instant> = None;
    // Pollers' scans when this thread last looked, and whether what
    // follows is a stand-down rather than an idle park.
    let (mut polled, mut standing_down) = (0u64, false);
    loop {
        // Held across scans and dropped only to park: `Drop` must be able
        // to join a parked thread, and the fabric may be gone by the time it
        // wakes. (If this handle turns out to be the last one, `shutdown`
        // runs here and knows not to join itself.)
        let Some(fab) = me.upgrade() else { return };
        loop {
            if let Some((sampler, epoch)) = fab.sampler.get() {
                sampler.tick(epoch.elapsed().as_nanos() as u64);
            }
            let shutting_down = fab.shutdown.load(Ordering::Acquire);
            let pollers = fab.progress_iterations() - fab.thread_scans();
            if !shutting_down && pollers != polled {
                // Pollers carry the fabric: stand down.
                (polled, standing_down) = (pollers, true);
                break;
            }
            // The progress lock is tried per scan, so pollers get it between
            // two of this thread's, and never wait on it: a lock that is
            // taken is another scanner at work, and this thread steps aside.
            let Some(mut st) = fab.progress_state.try_lock() else {
                if shutting_down {
                    std::thread::yield_now();
                    continue;
                }
                standing_down = true;
                break;
            };
            let did_work = fab.scan(&mut st);
            drop(st);
            fab.stats.thread_scans.fetch_add(1, Ordering::Relaxed);

            if shutting_down {
                // Final drain: leave once everything consumable is quiet, the
                // fabric is being torn down with the network gone, or nothing
                // has moved for a stall deadline (a peer that will never ack
                // must not turn `shutdown` into a hang).
                let now = Instant::now();
                if did_work || drain_deadline.is_none() {
                    drain_deadline = Some(now + fab.cfg.full_ring_deadline);
                }
                let network_gone = fab.net.get().is_none_or(|net| net.strong_count() == 0);
                if network_gone
                    || (!did_work && fab.is_idle())
                    || drain_deadline.is_some_and(|deadline| now >= deadline)
                {
                    return;
                }
                continue;
            }
            if did_work {
                idle_rounds = 0;
            } else if idle_rounds < SPIN_ROUNDS {
                idle_rounds += 1;
                std::hint::spin_loop();
            } else if idle_rounds < SPIN_ROUNDS + YIELD_ROUNDS && skip_yields == 0 {
                idle_rounds += 1;
                let before = Instant::now();
                std::thread::yield_now();
                // A yield that comes back later than a park would have:
                // some neighbour polls without yielding (a caller spinning
                // on its CQ, on a host with a core too few). Yielding to it
                // costs a time slice per idle spell, while a parked thread
                // is scheduled ahead of it when it wakes: park instead, for
                // twice as many spells each time the next yield is slow too
                // (a lone slow yield is the hypervisor, and costs one spell).
                if before.elapsed() > fab.cfg.idle_park {
                    starved_spells = (2 * starved_spells).clamp(1, MAX_STARVED_SPELLS);
                    skip_yields = starved_spells;
                } else {
                    starved_spells = 0;
                }
            } else {
                // The ladder restarts only after work: a timed-out park that
                // finds nothing parks again at once.
                skip_yields = skip_yields.saturating_sub(1);
                break;
            }
        }
        // A scanner holding the lock serves the RNR timers itself.
        let park = (fab.progress_state.try_lock())
            .map_or(fab.cfg.idle_park, |st| fab.next_deadline_in(&st));
        drop(fab);
        std::thread::park_timeout(park);
        if let Some(fab) = me.upgrade() {
            let stat = match std::mem::take(&mut standing_down) {
                true => &fab.stats.stand_downs,
                false => &fab.stats.progress_wakeups,
            };
            stat.fetch_add(1, Ordering::Relaxed);
        }
    }
}

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
    /// Test hook: lock the progress thread out (it blocks at its next spell
    /// and stays parked on the lock) and hand its job to the caller, one
    /// [`ProgressDriver::scan`] at a time — so a test can count what one scan
    /// does, on its own thread, or provoke a stall the thread would otherwise
    /// die of out of sight. Drop the driver before `shutdown`.
    #[doc(hidden)]
    pub fn pause_progress(&self) -> ProgressDriver<'_> {
        ProgressDriver {
            fab: self,
            st: self.progress_state.lock(),
        }
    }

    /// One progress scan: drain every DATA ring this process consumes into
    /// deliveries + ACKs and every ACK ring into send completions, then
    /// service the wall-clock RNR queue. Returns whether anything was there
    /// to do.
    fn scan(&self, st: &mut ProgressState) -> bool {
        self.stats
            .progress_iterations
            .fetch_add(1, Ordering::Relaxed);
        let Some(net) = self.net.get().and_then(Weak::upgrade) else {
            return false;
        };
        let ProgressState {
            channels,
            rnr,
            acked,
        } = st;
        if self.channels_installed.load(Ordering::Acquire) != channels.len() {
            channels.clone_from(&self.channels.lock());
        }
        let mut did_work = false;
        for ch in channels.iter() {
            if ch.we_recv {
                // One batch, acknowledged once: up to the ring's end, or to
                // a record that asks for its ACK at once.
                let mut owed = OwedAck::default();
                while !owed.answered && self.take_data(&net, ch, rnr, &mut owed) {
                    did_work = true;
                }
                self.send_owed(ch, &mut owed);
            }
            if ch.we_send {
                while self.take_ack(&net, ch, acked) {
                    did_work = true;
                }
            }
        }
        did_work | self.service_rnr(&net, rnr)
    }

    /// How long an idle progress thread may park: until the nearest armed
    /// RNR deadline, and never longer than `idle_park`.
    fn next_deadline_in(&self, st: &ProgressState) -> Duration {
        // A delivery queued untried waits on the one ahead of it, not on a
        // timer of its own.
        match st.rnr.iter().filter_map(|d| d.due).min() {
            Some(nearest) => nearest
                .saturating_duration_since(Instant::now())
                .min(self.cfg.idle_park),
            None => self.cfg.idle_park,
        }
    }

    /// Take one DATA record off `ch`, if one is there, and deliver it in
    /// place: the payload goes from the ring slices to wherever the delivery
    /// puts it, before the slot is handed back. Delivery order on a QP is
    /// posting order: while an earlier delivery for the same destination QP
    /// waits in the RNR queue, this one queues behind it untried. Only a
    /// record that queues — either way — copies its payload out of the ring.
    /// A delivered record that asks for its ACK (AckReq) sends what `owed`
    /// holds at once, and ends the batch.
    fn take_data(
        &self,
        net: &Arc<NetworkState>,
        ch: &Arc<Channel>,
        rnr: &mut VecDeque<Deferred>,
        owed: &mut OwedAck,
    ) -> bool {
        let taken = ch.data.try_pop_with(|kind, r| {
            debug_assert_eq!(kind, KIND_DATA);
            self.stats.in_hand.fetch_add(1, Ordering::Relaxed);
            self.note_occupancy(r.backlog());
            let (header, attrs) = parse_data_header(r);
            let payload = r.rest();
            let dst = (header.dst_node, header.dst_qp);
            let (rnr_retry, min_rnr_timer_ns) = (attrs.rnr_retry, attrs.min_rnr_timer_ns);
            let due = if rnr.iter().any(|d| d.dst() == dst) {
                None
            } else {
                let rearm = (rnr_retry > 0).then_some(min_rnr_timer_ns);
                let due = self.deliver(net, ch, &header, payload, rearm, owed);
                if due.is_none() && attrs.ack_req {
                    self.send_owed(ch, owed);
                    owed.answered = true;
                }
                Some(due?)
            };
            // A first attempt that re-armed the timer has spent one re-arm.
            let budget = if rnr_retry == RNR_RETRY_INFINITE {
                RnrBudget::Until(Instant::now() + self.cfg.full_ring_deadline)
            } else {
                RnrBudget::Rearms(rnr_retry - due.is_some() as u8)
            };
            Some(Deferred {
                ch: ch.clone(),
                header,
                payload: payload.concat(),
                budget,
                min_rnr_timer_ns,
                due,
            })
        });
        let Ok(deferred) = taken else { return false };
        self.stats.data_records.fetch_add(1, Ordering::Relaxed);
        rnr.extend(deferred);
        true
    }

    /// Attempt one delivery: run the destination-side effects and, for
    /// non-ghost records, acknowledge — a success by adding it to `owed`, a
    /// failure by sending what `owed` holds and then its own ACK. `None`
    /// means the record is done with, delivered or acknowledged as failed
    /// (and, unless its ACK is owed, out of hand); on receiver-not-ready
    /// with a re-arm left in the sender's RNR budget (`rearm`, the sender's
    /// RNR timer) it is instead the wall-clock deadline of the re-armed
    /// timer, for the caller to (re)queue by, and `owed` has been sent: the
    /// deferred record is acknowledged after everything delivered before it.
    fn deliver(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        header: &DeliveryHeader,
        payload: [&[u8]; 2],
        rearm: Option<u64>,
        owed: &mut OwedAck,
    ) -> Option<Instant> {
        let outcome = execute_delivery(net, header, Payload::Bytes(payload), true);
        if let (DeliveryOutcome::ReceiverNotReady, Some(min_rnr_timer_ns)) = (&outcome, rearm) {
            self.send_owed(ch, owed);
            let wire = &net.telemetry().wire;
            wire.rnr_requeues.inc();
            self.stats.rnr_deferrals.fetch_add(1, Ordering::Relaxed);
            net.telemetry().flows.event(
                header.flow,
                FlowStage::RnrWait,
                header.src_qp,
                0,
                min_rnr_timer_ns,
            );
            return Some(Instant::now() + Duration::from_nanos(min_rnr_timer_ns.max(1)));
        }
        match outcome_status(&outcome) {
            _ if header.ghost => {}
            WcStatus::Success => {
                owed.psn = header.psn;
                owed.records += 1;
                return None;
            }
            status => {
                self.send_owed(ch, owed);
                self.push_ack(ch, header.psn, status);
            }
        }
        self.stats.in_hand.fetch_sub(1, Ordering::Release);
        None
    }

    /// Send the coalesced ACK `owed` holds, if it holds one, and let the
    /// records it covers out of hand.
    fn send_owed(&self, ch: &Channel, owed: &mut OwedAck) {
        if owed.records == 0 {
            return;
        }
        self.push_ack(ch, owed.psn, WcStatus::Success);
        self.stats
            .in_hand
            .fetch_sub(std::mem::take(&mut owed.records), Ordering::Release);
    }

    /// Push one ACK record onto `ch`, waiting out a full ring for the stall
    /// deadline.
    fn push_ack(&self, ch: &Channel, psn: u64, status: WcStatus) {
        let ack = serialize_ack(psn, status);
        // The clock is read only once the ring has turned an ACK away.
        let mut deadline = None;
        while !ch.ack.try_push(KIND_ACK, &ack) {
            let deadline =
                *deadline.get_or_insert_with(|| Instant::now() + self.cfg.full_ring_deadline);
            assert!(
                Instant::now() < deadline,
                "shm ack ring {:?} full past the {:?} stall deadline — sender progress \
                 thread gone?",
                ch.key,
                self.cfg.full_ring_deadline
            );
            std::thread::yield_now();
        }
    }

    /// Take one ACK record off `ch`, if one is there, and complete the sends
    /// it covers (`acked` is scratch).
    fn take_ack(&self, net: &Arc<NetworkState>, ch: &Channel, acked: &mut Vec<Pending>) -> bool {
        let taken = ch.ack.try_pop_with(|kind, r| {
            debug_assert_eq!(kind, KIND_ACK);
            self.stats.in_hand.fetch_add(1, Ordering::Relaxed);
            parse_ack(r)
        });
        let Ok((psn, status)) = taken else {
            return false;
        };
        self.stats.ack_records.fetch_add(1, Ordering::Relaxed);
        self.handle_ack(net, ch, psn, status, acked);
        self.stats.in_hand.fetch_sub(1, Ordering::Release);
        true
    }

    /// Complete the sends an arriving ACK covers: the window's front through
    /// the record it names, that one with the ACK's status and every one
    /// before it `Success` (the responder sends what it owes before any
    /// failure, so those were delivered). An ACK that names no record in the
    /// window — beyond the highest PSN posted, or already completed —
    /// completes nothing (see [`ShmFabric::stale_acks`]).
    fn handle_ack(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        psn: u64,
        status: WcStatus,
        acked: &mut Vec<Pending>,
    ) {
        {
            let mut window = ch.window.lock();
            let Some(at) = window.iter().position(|p| p.psn == psn) else {
                self.stats.stale_acks.fetch_add(1, Ordering::Relaxed);
                return;
            };
            acked.extend(window.drain(..=at));
        }
        // The wire stage is known once it ends: stamped at submit, lasting
        // until this ACK. Recorded before the completion, which a traced
        // poller may be waiting on.
        let flows = &net.telemetry().flows;
        let now = flows.now();
        let last = acked.len() - 1;
        for (i, pending) in acked.drain(..).enumerate() {
            let wr = &pending.wr;
            let wire_ns = now.saturating_sub(pending.submit_ns);
            let stage = FlowStage::WireSubmit;
            flows.event_at(wr.flow, stage, pending.submit_ns, wr.src_qp, 0, wire_ns);
            let status = if i == last { status } else { WcStatus::Success };
            complete_posted(net, wr, status);
        }
    }

    /// Re-attempt queued deliveries, oldest first. A QP whose oldest queued
    /// delivery is not due yet (or hits receiver-not-ready again) keeps
    /// everything behind it waiting, so a deferred window is redelivered in
    /// posting order; other QPs pass it.
    fn service_rnr(&self, net: &Arc<NetworkState>, rnr: &mut VecDeque<Deferred>) -> bool {
        if rnr.is_empty() {
            return false;
        }
        let now = Instant::now();
        let mut blocked: Vec<(u32, u32)> = Vec::new();
        let mut worked = false;
        let mut i = 0;
        while i < rnr.len() {
            let d = &mut rnr[i];
            let dst = d.dst();
            if blocked.contains(&dst) {
                i += 1;
                continue;
            }
            if d.due.is_some_and(|due| due > now) {
                blocked.push(dst);
                i += 1;
                continue;
            }
            worked = true;
            let retry = match d.budget {
                RnrBudget::Rearms(left) => left > 0,
                RnrBudget::Until(give_up) => now < give_up,
            };
            let payload = [&d.payload[..], &[]];
            let rearm = retry.then_some(d.min_rnr_timer_ns);
            let mut owed = OwedAck::default();
            let due = self.deliver(net, &d.ch, &d.header, payload, rearm, &mut owed);
            self.send_owed(&d.ch, &mut owed);
            match due {
                Some(due) => {
                    if let RnrBudget::Rearms(left) = &mut d.budget {
                        *left -= 1;
                    }
                    d.due = Some(due);
                    blocked.push(dst);
                    i += 1;
                }
                None => {
                    rnr.remove(i);
                }
            }
        }
        worked
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
        static DIRS: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "partix_shm_host_{}_{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (tx, rx) = (ShmFabric::host(&dir, cfg), ShmFabric::host(&dir, cfg));
        let p = build_pair(tx, Some((rx, dir)), caps);
        p.open_channel();
        p
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
            let Some((rx, _)) = &self.host else { return };
            let (from, to) = ((0, self.qa.qp_num()), (1, self.qb.qp_num()));
            let tx = &self.fabric;
            std::thread::scope(|s| {
                s.spawn(|| tx.open_tx(from, to, Duration::from_secs(10)).unwrap());
                rx.open_rx(from, to, Duration::from_secs(10)).unwrap();
            });
        }

        /// The same nodes, fabrics and PDs with a fresh connected QP pair.
        fn with_fresh_qps(self) -> Pair {
            let (a, b, caps) = (&self.a, &self.b, QpCaps::default());
            let (cqa, cqb) = (a.create_cq(), b.create_cq());
            let qa = a.create_qp(self.pda, cqa.clone(), a.create_cq(), caps);
            let qb = b.create_qp(self.pdb, b.create_cq(), cqb.clone(), caps);
            let (qa, qb) = (qa.unwrap(), qb.unwrap());
            connect_pair(&qa, &qb).unwrap();
            let p = Pair {
                qa,
                qb,
                cqa,
                cqb,
                ..self
            };
            p.open_channel();
            p
        }

        /// Quiesce, check the ledger, stop the fabric(s) and remove the
        /// segment directory.
        fn finish(self) {
            assert_clean(&self);
            self.fabric.shutdown();
            if let Some((rx, dir)) = &self.host {
                rx.shutdown();
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }

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
        let deadline = Instant::now() + Duration::from_secs(10);
        while p.fabric.rnr_deferrals() == 0 {
            assert!(Instant::now() < deadline, "timed out waiting for the RNR");
            std::thread::yield_now();
        }
        p.qb.post_recv(RecvWr::bare(900)).unwrap();
        let wc = poll_until(&p.cqa, "send CQE");
        assert_eq!(wc.status, WcStatus::Success);
        let recv_wc = poll_until(&p.cqb, "recv CQE");
        assert_eq!(recv_wc.wr_id, 900);
        assert!(p.fabric.rnr_deferrals() >= 1, "at least one RNR deferral");
        assert_clean(&p);
        p.fabric.shutdown();
    }

    /// A window posted before any receive is deferred as a whole; once the
    /// receives arrive it must land in posting order (a receiver that
    /// reposts late would otherwise see its messages shuffled), while a QP
    /// with receives posted is not held up behind it.
    #[test]
    fn rnr_deferred_window_is_redelivered_in_posting_order() {
        // Default caps: the 2 ms timer re-arms until the receives are posted.
        let caps = QpCaps {
            min_rnr_timer_ns: 2_000_000,
            ..QpCaps::default()
        };
        let p = pair(ShmConfig::default(), caps);
        let dst = post_window_ahead_of_its_receives(&p);
        // Every record is off the ring: the first hit receiver-not-ready,
        // the rest are queued behind it (or deferred themselves, before the
        // fix — each with its own deadline, collected out of order).
        let deadline = Instant::now() + Duration::from_secs(10);
        while p.fabric.data_records() < WINDOW {
            assert!(Instant::now() < deadline, "window never left the ring");
            std::thread::yield_now();
        }
        assert!(p.fabric.rnr_deferrals() >= 1);
        assert!(
            p.cqb.poll_one().is_none(),
            "nothing can land without a receive"
        );

        // A second QP pair on the same nodes, receiver ready: passes.
        let (cq2a, cq2b) = (p.a.create_cq(), p.b.create_cq());
        let q2a =
            p.a.create_qp(p.pda, cq2a.clone(), p.a.create_cq(), caps)
                .unwrap();
        let q2b =
            p.b.create_qp(p.pdb, p.b.create_cq(), cq2b.clone(), caps)
                .unwrap();
        connect_pair(&q2a, &q2b).unwrap();
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
        assert!(p.cqb.poll_one().is_none(), "first QP still waits");

        // Acks follow deliveries, so the send CQEs show the delivery order.
        window_lands_once_in_order(&p, &dst);
        let _ = poll_until(&cq2a, "second QP's send CQE");
        assert_clean(&p);
        p.fabric.shutdown();
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
        assert_eq!((tx.ack_records(), rx.ack_records()), (32, 0));
        let mark = tx.ring_occupancy_high_water();
        assert!(
            (4096..8192).contains(&mark),
            "the sender saw one whole record on its ring and never two: {mark}"
        );
        p.finish();
    }

    /// Messages of the window the tests below post ahead of its receives,
    /// and the bytes of one.
    const WINDOW: u64 = 12;
    const LEN: usize = 64;

    fn window_byte(i: u64, k: usize) -> u8 {
        (i as u8).wrapping_mul(37) ^ (k as u8).wrapping_mul(11)
    }

    /// Post the window with no receive posted: message `i` carries its own
    /// bytes to slot `i` of the destination region, which is returned, with
    /// immediate `i`.
    fn post_window_ahead_of_its_receives(p: &Pair) -> crate::memory::MemoryRegion {
        let src = p.a.reg_mr(p.pda, LEN).unwrap();
        let dst = p.b.reg_mr(p.pdb, WINDOW as usize * LEN).unwrap();
        for i in 0..WINDOW {
            // Gathered at post time, so the one source region can be
            // rewritten between posts.
            let payload: Vec<u8> = (0..LEN).map(|k| window_byte(i, k)).collect();
            src.write(0, &payload).unwrap();
            p.qa.post_send(SendWr {
                wr_id: i,
                opcode: Opcode::RdmaWriteWithImm,
                sg_list: vec![Sge {
                    addr: src.addr(),
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
    fn window_lands_once_in_order(p: &Pair, dst: &crate::memory::MemoryRegion) {
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
        for i in 0..WINDOW {
            let got = dst.read_vec(i as usize * LEN, LEN).unwrap();
            let want: Vec<u8> = (0..LEN).map(|k| window_byte(i, k)).collect();
            assert_eq!(got, want, "message {i} holds the bytes it was posted with");
        }
    }

    /// The hazard in-place delivery adds: a delivery that outlives its ring
    /// slot must own its bytes. On a data ring that holds two records, a
    /// window is posted ahead of its receives — the first record is
    /// RNR-deferred, the rest queue behind it — and the producer laps the
    /// ring six times before a receive exists. Every message must still land
    /// exactly once, in posting order, with the bytes it was posted with; a
    /// deferred delivery that still read its (long since reused) slot would
    /// deliver a later message's bytes.
    fn deferred_deliveries_own_their_bytes(p: Pair) {
        let dst = post_window_ahead_of_its_receives(&p);
        // Every post returned, so all twelve records went through the
        // two-record ring — six laps of it, however the two sides interleaved.
        let rx = p.host.as_ref().map_or(&p.fabric, |(rx, _)| rx);
        let deadline = Instant::now() + Duration::from_secs(10);
        while rx.data_records() < WINDOW {
            assert!(Instant::now() < deadline, "window never left the ring");
            std::thread::yield_now();
        }
        assert!(rx.rnr_deferrals() >= 1);
        assert_eq!(
            dst.read_vec(0, WINDOW as usize * LEN).unwrap(),
            vec![0; 768]
        );
        window_lands_once_in_order(&p, &dst);
        p.finish();
    }

    /// Two 64-byte records (8 + 72 + 64 bytes each) and no third, on a 5 ms
    /// RNR timer.
    fn two_record_ring() -> (ShmConfig, QpCaps) {
        let cfg = ShmConfig {
            ring_capacity: 2 * (RECORD_HEADER as usize + DATA_HEADER + 64) as u64 + 16,
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
        let (cfg, caps) = two_record_ring();
        deferred_deliveries_own_their_bytes(pair(cfg, caps));
    }

    #[cfg(unix)]
    #[test]
    fn deferred_deliveries_own_their_bytes_over_two_mappings_of_a_file_segment() {
        let (cfg, caps) = two_record_ring();
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
        let dst = post_window_ahead_of_its_receives(&p);
        let rx = p.host.as_ref().map_or(&p.fabric, |(rx, _)| rx);
        let deadline = t0 + Duration::from_secs(10);
        while t0.elapsed() < Duration::from_millis(14) || rx.rnr_deferrals() <= 7 {
            assert!(Instant::now() < deadline, "the RNR timer stopped re-arming");
            std::thread::yield_now();
        }
        assert!(p.cqa.poll_one().is_none(), "no send may have failed yet");
        window_lands_once_in_order(&p, &dst);
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

    /// Indefinitely is still bounded: with no receive ever, everything the
    /// receiver holds fails with `RnrRetryExceeded` once it has waited the
    /// stall deadline — not after 0.7 ms, and not one deadline per message —
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

    /// A WR the data ring can never hold (128 KiB against a 64 KiB ring)
    /// fails its poster with `LocalLengthError` — one CQE, nothing delivered,
    /// no panic out of `post_send` — and leaves the fabric working: a 1 KiB
    /// write on a fresh QP pair arrives intact.
    fn a_wr_larger_than_the_ring_is_a_length_error(p: Pair) {
        const BIG: usize = 128 << 10;
        let src = p.a.reg_mr(p.pda, BIG).unwrap();
        let dst = p.b.reg_mr(p.pdb, BIG).unwrap();
        src.fill(0, BIG, 0x3c).unwrap();
        p.qb.post_recv(RecvWr::bare(70)).unwrap();
        write_with_imm(&p, &src, &dst, 1, BIG as u32);
        let wc = poll_until(&p.cqa, "send CQE of the over-size WR");
        assert_eq!((wc.wr_id, wc.status), (1, WcStatus::LocalLengthError));
        assert_eq!(p.qa.state(), QpState::Error);
        let qb1 = p.qb.clone();

        let p2 = p.with_fresh_qps();
        p2.qb.post_recv(RecvWr::bare(71)).unwrap();
        write_with_imm(&p2, &src, &dst, 2, 1024);
        let wc = poll_until(&p2.cqa, "send CQE of the 1 KiB write");
        assert_eq!((wc.wr_id, wc.status), (2, WcStatus::Success));
        assert_eq!(poll_until(&p2.cqb, "recv CQE").wr_id, 71);
        let landed = dst.read_vec(0, BIG).unwrap();
        assert_eq!(landed[..1024], [0x3c; 1024]);
        assert_eq!(landed[1024..], vec![0; BIG - 1024], "over-size WR landed");
        assert_eq!(qb1.recv_queue_depth(), 1, "over-size WR took a receive");
        p2.finish();
    }

    fn small_ring() -> ShmConfig {
        ShmConfig {
            ring_capacity: 64 << 10,
            ..ShmConfig::default()
        }
    }

    #[test]
    fn a_wr_larger_than_the_ring_is_a_length_error_over_a_heap_segment() {
        a_wr_larger_than_the_ring_is_a_length_error(pair(small_ring(), QpCaps::default()));
    }

    #[cfg(unix)]
    #[test]
    fn a_wr_larger_than_the_ring_is_a_length_error_over_two_mappings_of_a_file_segment() {
        a_wr_larger_than_the_ring_is_a_length_error(host_pair(small_ring(), QpCaps::default()));
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
        let (mut cfg, caps) = two_record_ring();
        cfg.full_ring_deadline = Duration::from_millis(50);
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
        // Nothing will ever ack the two records on the ring: the final drain
        // gives up after the same deadline instead of joining for ever.
        let t0 = Instant::now();
        p.fabric.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The same bound on the way back: an ack ring that holds two ACKs and a
    /// scan that owes three before it consumes one (loopback, where the
    /// delivering thread is also the one that would drain them). Successes
    /// would share one coalesced ACK, so the three records each fail the
    /// protection check (64 bytes into a 32-byte region): a failure is
    /// acknowledged on its own. The test drives the scan itself, so the
    /// stall is its own to catch.
    #[test]
    fn full_ack_ring_fails_within_the_stall_deadline() {
        let cfg = ShmConfig {
            ack_capacity: 2 * (RECORD_HEADER as usize + ACK_LEN) as u64,
            full_ring_deadline: Duration::from_millis(50),
            ..ShmConfig::default()
        };
        let p = pair(cfg, QpCaps::default());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 32).unwrap();
        let mut driver = p.fabric.pause_progress();
        for i in 0..3u64 {
            write_with_imm(&p, &src, &dst, i, 64);
        }
        let t0 = Instant::now();
        let scan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| driver.scan()));
        let waited = t0.elapsed();
        let text = panic_text(scan.expect_err("the third ACK cannot fit"));
        assert!(
            text.contains("ack ring") && text.contains("full past the 50ms stall deadline"),
            "diagnostic: {text}"
        );
        assert!(
            waited >= Duration::from_millis(50) && waited < Duration::from_secs(1),
            "bounded by the stall deadline, not a hang: {waited:?}"
        );
        drop(driver);
        p.fabric.shutdown();
    }

    /// An ACK is bytes another process wrote. One that is well formed but
    /// names a PSN the window does not hold completes nothing and breaks
    /// nothing: it is counted, the record that is in the window stays there,
    /// and its own ack still completes it.
    #[cfg(unix)]
    #[test]
    fn an_ack_for_a_psn_not_in_the_window_is_counted_and_ignored() {
        let p = host_pair(ShmConfig::default(), QpCaps::default());
        let (tx, rx) = (&p.fabric, &p.host.as_ref().unwrap().0);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        p.qb.post_recv(RecvWr::bare(1)).unwrap();
        // Both sides paused: the record stays on its ring un-acked, and this
        // thread is the ack ring's only producer.
        let rx_driver = rx.pause_progress();
        let mut tx_driver = tx.pause_progress();
        write_with_imm(&p, &src, &dst, 7, 64);
        let ch = tx.channels.lock()[0].clone();
        let forged = serialize_ack(ch.window.lock()[0].psn + 1000, WcStatus::Success);
        assert!(ch.ack.try_push(KIND_ACK, &forged));

        assert!(tx_driver.scan(), "the scan consumed the ACK");
        assert_eq!((tx.stale_acks(), tx.ack_records()), (1, 1));
        assert!(p.cqa.poll_one().is_none(), "a stale ACK completes nothing");
        assert_eq!(ch.window.lock().len(), 1, "the window is as it was");

        drop((tx_driver, rx_driver));
        let wc = poll_until(&p.cqa, "send CQE");
        assert_eq!((wc.wr_id, wc.status), (7, WcStatus::Success));
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 1);
        assert_eq!(tx.stale_acks(), 1);
        p.finish();
    }

    #[test]
    fn wall_clock_sampler_captures_frames_from_the_progress_thread() {
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
        let deadline = Instant::now() + Duration::from_secs(10);
        while sampler.frames_captured() == 0 {
            assert!(Instant::now() < deadline, "progress thread never sampled");
            std::thread::yield_now();
        }
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

    #[test]
    fn shutdown_is_idempotent_and_drains() {
        let p = pair(ShmConfig::default(), QpCaps::default());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        src.fill(0, 64, 0xEE).unwrap();
        p.qb.post_recv(RecvWr::bare(3)).unwrap();
        write_with_imm(&p, &src, &dst, 2, 64);
        let _ = poll_until(&p.cqa, "send CQE");
        p.fabric.shutdown();
        p.fabric.shutdown(); // second call is a no-op
        assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0xEE; 64]);
        let _ = &p.qa;
    }

    /// The fabrics of `p`: the one node 0 posts on, then node 1's if it has
    /// its own.
    fn fabrics(p: &Pair) -> Vec<&Arc<ShmFabric>> {
        std::iter::once(&p.fabric)
            .chain(p.host.iter().map(|(rx, _)| rx))
            .collect()
    }

    /// Poll `cq`, which finds nothing, until every progress thread of `p`
    /// has stood down: its scan count held still for 20 ms, which a thread
    /// that is not parked does not do for long. Returns the counts.
    fn stand_down(p: &Pair, cq: &CompletionQueue) -> Vec<u64> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let scans = || -> Vec<u64> { fabrics(p).iter().map(|f| f.thread_scans()).collect() };
        let (mut last, mut since) = (scans(), Instant::now());
        loop {
            assert!(cq.poll_one().is_none(), "nothing was posted yet");
            std::thread::sleep(Duration::from_millis(1));
            let now = scans();
            if now != last {
                (last, since) = (now, Instant::now());
            } else if since.elapsed() >= Duration::from_millis(20) {
                return now;
            }
            assert!(
                Instant::now() < deadline,
                "a progress thread never stood down"
            );
        }
    }

    /// A long park: a progress thread that stands down is out of the way
    /// for the rest of the test.
    fn long_park() -> ShmConfig {
        ShmConfig {
            idle_park: Duration::from_secs(10),
            ..ShmConfig::default()
        }
    }

    /// The poll is the progress engine: a receiver that does nothing but
    /// `poll_one` gets a write-with-immediate, and the sender its
    /// completion, while every progress thread stands down (parked for ten
    /// seconds), so the pollers' own scans moved the record and its ACK.
    fn a_poller_moves_the_wire_while_the_thread_stands_down(p: Pair) {
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        src.fill(0, 64, 0x42).unwrap();
        p.qb.post_recv(RecvWr::bare(5)).unwrap();
        let parked = stand_down(&p, &p.cqb);
        write_with_imm(&p, &src, &dst, 1, 64);
        let recv = poll_until(&p.cqb, "recv CQE");
        assert_eq!((recv.wr_id, recv.status), (5, WcStatus::Success));
        let send = poll_until(&p.cqa, "send CQE");
        assert_eq!((send.wr_id, send.status), (1, WcStatus::Success));
        assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0x42; 64]);
        let scans: Vec<u64> = fabrics(&p).iter().map(|f| f.thread_scans()).collect();
        assert_eq!(scans, parked, "a progress thread scanned");
        p.finish();
    }

    #[test]
    fn a_poller_moves_the_wire_while_the_thread_stands_down_over_a_heap_segment() {
        a_poller_moves_the_wire_while_the_thread_stands_down(pair(long_park(), QpCaps::default()));
    }

    #[cfg(unix)]
    #[test]
    fn a_poller_moves_the_wire_while_the_thread_stands_down_over_two_mappings_of_a_file_segment() {
        a_poller_moves_the_wire_while_the_thread_stands_down(host_pair(
            long_park(),
            QpCaps::default(),
        ));
    }

    /// Scheduling slack on a loaded host, beyond the parks a bound allows.
    const SLACK: Duration = Duration::from_millis(450);

    /// With nobody polling, the progress thread still serves: a WR posted
    /// while it is parked (a submit does not wake it) lands within one
    /// `idle_park` and its completion within two (the sender's thread may
    /// look just before the ACK arrives), each plus scheduling slack.
    fn with_no_poller_the_thread_completes_a_wr_within_idle_park(p: Pair) {
        let park = p.fabric.config().idle_park;
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        src.fill(0, 64, 0x24).unwrap();
        p.qb.post_recv(RecvWr::bare(8)).unwrap();
        // Quiet long enough that every thread has climbed its ladder to the
        // park.
        std::thread::sleep(3 * park);
        let t0 = Instant::now();
        write_with_imm(&p, &src, &dst, 3, 64);
        // Watched without polling: `depth` drives nothing.
        let landed = |cq: &CompletionQueue, bound: Duration| {
            while cq.depth() == 0 {
                assert!(t0.elapsed() < bound, "nothing within {bound:?}");
                std::thread::sleep(Duration::from_micros(200));
            }
        };
        landed(&p.cqb, park + SLACK);
        landed(&p.cqa, 2 * park + SLACK);
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 8);
        assert_eq!(poll_until(&p.cqa, "send CQE").status, WcStatus::Success);
        assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0x24; 64]);
        p.finish();
    }

    fn park_50ms() -> ShmConfig {
        ShmConfig {
            idle_park: Duration::from_millis(50),
            ..ShmConfig::default()
        }
    }

    #[test]
    fn with_no_poller_the_thread_completes_a_wr_within_idle_park_over_a_heap_segment() {
        with_no_poller_the_thread_completes_a_wr_within_idle_park(pair(
            park_50ms(),
            QpCaps::default(),
        ));
    }

    #[cfg(unix)]
    #[test]
    fn with_no_poller_the_thread_completes_a_wr_within_idle_park_over_two_mappings_of_a_file_segment(
    ) {
        with_no_poller_the_thread_completes_a_wr_within_idle_park(host_pair(
            park_50ms(),
            QpCaps::default(),
        ));
    }

    /// `pause_progress` holds the progress lock against everyone: for many
    /// parks' worth of polls and thread turns nothing moves, and then the
    /// holder's own scan does.
    fn pause_progress_locks_out_pollers_and_the_thread_alike(p: Pair) {
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

    fn park_1ms() -> ShmConfig {
        ShmConfig {
            idle_park: Duration::from_millis(1),
            ..ShmConfig::default()
        }
    }

    #[test]
    fn pause_progress_locks_out_pollers_and_the_thread_alike_over_a_heap_segment() {
        pause_progress_locks_out_pollers_and_the_thread_alike(pair(park_1ms(), QpCaps::default()));
    }

    #[cfg(unix)]
    #[test]
    fn pause_progress_locks_out_pollers_and_the_thread_alike_over_two_mappings_of_a_file_segment() {
        pause_progress_locks_out_pollers_and_the_thread_alike(host_pair(
            park_1ms(),
            QpCaps::default(),
        ));
    }
}
