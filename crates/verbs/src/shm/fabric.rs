//! The real-time shared-memory fabric.
//!
//! [`ShmFabric`] runs the verbs object model on *wall-clock time and real
//! threads*: every posted WR becomes a DATA record in a per-QP-pair SPSC
//! [`SpscRing`], a dedicated progress thread drains rings into deliveries
//! and completions, and the receive side acknowledges each record on a
//! paired ACK ring — the RDMA-write-with-immediate protocol of Ibdxnet's
//! messaging engine mapped onto shared memory (see DESIGN.md §12).
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
//! A payload is copied three times between the two registered regions, and
//! no syscall is made on the way: `submit` gathers the source MR straight
//! into the ring (72-byte header first), the progress thread copies the
//! record out of the ring into the one buffer the delivery owns, and the
//! delivery writes that into the destination MR. The sender keeps no copy:
//! the ring loses nothing, so only a record the chaos knob charged as
//! dropped is serialised aside for its retransmission.
//!
//! # Progress loop
//!
//! The progress thread polls. A scan visits every channel (from a snapshot
//! of the channel list refreshed only when one is installed), then the RNR
//! queue and the retransmission timers. After a scan that found nothing it
//! backs off up a ladder: [`SPIN_ROUNDS`] scans separated by a spin hint,
//! [`YIELD_ROUNDS`] separated by `yield_now`, and then it parks for
//! [`ShmConfig::idle_park`] (or until the nearest timer) — any work sends it
//! back to the bottom. So a stream or a ping-pong is served at polling
//! latency, an idle fabric costs a wake-up per `idle_park`, and the first
//! message after a quiet spell waits at most `idle_park` (a local submit
//! unparks the thread; a peer *process* cannot). Yields are timed: one that
//! returns later than a park would have means a neighbour is busy-polling
//! on a core this thread needs, and the ladder then skips to parking for a
//! while (see [`MAX_STARVED_SPELLS`]), because a waking sleeper is scheduled
//! ahead of such a neighbour and a yielder is not.
//!
//! Receiver-not-ready deliveries wait in a FIFO the progress thread owns;
//! later records for the same destination QP queue behind the deferred one,
//! so a window posted ahead of its receives still lands in posting order.
//!
//! Reliability is PR 2's RC state machine on real [`Instant`] deadlines:
//! receiver-not-ready re-arms after the QP's `min_rnr_timer` (wall-clock)
//! up to `rnr_retry` times; deterministic fault injection (`drop_nth` /
//! `dup_nth`) exercises ack-timeout retransmission with the IB exponential
//! backoff (`4.096 µs × 2^timeout`, doubling per attempt) and PSN
//! exactly-once suppression. The ring transport itself is lossless, so
//! ack timers arm only for records charged as dropped — a presumed-lost
//! record is retransmitted, a merely-slow ack is awaited (this keeps the
//! double-entry wire ledger exact; see the invariant laws in
//! `partix-telemetry`).

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use partix_telemetry::{segments_for, FlowStage, Sampler};

use crate::buf::{InlineVec, PooledBuf};
use crate::fabric::{
    complete_send, execute_delivery, outcome_status, sender_retry_profile, DeliveryOutcome, Fabric,
    PostOptions, TransferJob,
};
use crate::network::NetworkState;
use crate::qp::RetryProfile;
use crate::types::{Opcode, WcStatus};

use super::ring::{RecordReader, RecordWriter, SpscRing};
use super::segment::{FileSegment, HeapSegment, Segment};

/// DATA record kind tag.
const KIND_DATA: u8 = 1;
/// ACK record kind tag.
const KIND_ACK: u8 = 2;

/// Serialized DATA header bytes (payload follows).
const DATA_HEADER: usize = 72;
/// Serialized ACK record bytes.
const ACK_LEN: usize = 48;

/// Configuration of a [`ShmFabric`].
#[derive(Clone, Copy, Debug)]
pub struct ShmConfig {
    /// Data-ring capacity per QP-pair channel, bytes. A single record
    /// (72-byte header + payload) must fit. See [`ShmConfig::default`] for
    /// how the default was chosen.
    pub ring_capacity: u64,
    /// ACK-ring capacity per channel, bytes.
    pub ack_capacity: u64,
    /// Deterministic loss injection: every `n`-th DATA enqueue is dropped
    /// before it reaches the ring (1 = every one). Drops are charged to the
    /// wire ledger and recovered by ack-timeout retransmission.
    pub drop_nth: Option<u64>,
    /// Deterministic duplication: every `n`-th DATA enqueue is preceded by
    /// a ghost copy sharing its PSN, which the receive side must suppress.
    pub dup_nth: Option<u64>,
    /// How long the progress thread parks once the back-off ladder (spin,
    /// then yield; see the module docs) has run out. Local submissions
    /// unpark it and a message finds it still polling unless the channel
    /// has been quiet for a while, so this bounds RNR/timer latency and the
    /// latency of the first message after a quiet spell from another
    /// process, not steady-state message latency.
    pub idle_park: Duration,
    /// MTU used for `mtu_segments` accounting (the wire ledger's
    /// segmentation law), matching `FabricParams::mtu`.
    pub mtu: usize,
    /// Bound on waiting for ring space on submit before panicking (a ring
    /// sized far below the offered load is a deployment error, not a
    /// recoverable condition).
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
            drop_nth: None,
            dup_nth: None,
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
}

/// Sender-side record awaiting its ACK.
struct Pending {
    /// Completion identity (enough to rebuild the job for
    /// [`complete_send`]).
    echo: AckEcho,
    /// Retry attributes captured at post time.
    profile: RetryProfile,
    /// Wire attempts already charged as dropped; `retry_cnt` bounds this.
    attempts: u8,
    /// Present only for records charged as dropped (the ring itself loses
    /// nothing): the backoff deadline, and the serialized DATA record the
    /// timer re-offers to the ring when it expires.
    retry: Option<(Instant, Vec<u8>)>,
    /// Flow-clock timestamp at submit, for the wire-stage histogram.
    submit_ns: u64,
}

/// Receiver-side delivery waiting in the progress thread's RNR queue:
/// either deferred by a receiver-not-ready outcome (`attempts > 0`, due
/// when the wall-clock RNR timer expires) or held behind such a delivery
/// of the same QP (`attempts == 0`, due at once — order is what holds it).
struct RnrPending {
    job: TransferJob,
    rnr_budget: u8,
    min_rnr_timer_ns: u64,
    attempts: u8,
    deadline: Instant,
}

impl RnrPending {
    /// The destination QP whose receive queue this delivery waits on.
    fn dst(&self) -> (u32, u32) {
        (self.job.dst_node, self.job.dst_qp)
    }
}

/// The identity a receiver echoes back in an ACK.
#[derive(Clone, Copy)]
struct AckEcho {
    src_node: u32,
    src_qp: u32,
    dst_qp: u32,
    wr_id: u64,
    psn: u64,
    flow: u64,
    total_len: u32,
    opcode: Opcode,
}

#[derive(Default)]
struct ShmStats {
    submitted: AtomicU64,
    bytes: AtomicU64,
    data_records: AtomicU64,
    ack_records: AtomicU64,
    retransmits: AtomicU64,
    rnr_deferrals: AtomicU64,
    stale_acks: AtomicU64,
    ring_full_stalls: AtomicU64,
    progress_iterations: AtomicU64,
    progress_wakeups: AtomicU64,
    ring_occupancy_high_water: AtomicU64,
    /// Records the progress thread has taken off a ring and not finished
    /// with: being delivered or completed right now, or waiting in its RNR
    /// queue (which is that thread's own; this is what `is_idle` can see of
    /// it). Raised *before* the ring's `Head` moves, so whoever sees the
    /// ring empty also sees the record counted here.
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
    by_pair: Mutex<HashMap<PairKey, Arc<Channel>>>,
    /// Sender-side records awaiting their ACK, by `(src_qp, psn)`.
    outstanding: Mutex<HashMap<(u32, u64), Pending>>,
    net: OnceLock<Weak<NetworkState>>,
    shutdown: AtomicBool,
    progress: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Progress thread handle for unparking on submit.
    progress_thread: OnceLock<std::thread::Thread>,
    data_seq: AtomicU64,
    stats: ShmStats,
    /// Wall-clock sampler ticked by the progress thread, paired with the
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
            by_pair: Mutex::new(HashMap::new()),
            outstanding: Mutex::new(HashMap::new()),
            net: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            progress: Mutex::new(None),
            progress_thread: OnceLock::new(),
            data_seq: AtomicU64::new(0),
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

    /// Total WRs submitted.
    pub fn submitted(&self) -> u64 {
        self.stats.submitted.load(Ordering::Relaxed)
    }

    /// Total payload bytes submitted.
    pub fn total_bytes(&self) -> u64 {
        self.stats.bytes.load(Ordering::Relaxed)
    }

    /// DATA records consumed by this process's progress thread.
    pub fn data_records(&self) -> u64 {
        self.stats.data_records.load(Ordering::Relaxed)
    }

    /// ACK records consumed by this process's progress thread.
    pub fn ack_records(&self) -> u64 {
        self.stats.ack_records.load(Ordering::Relaxed)
    }

    /// Ack-timeout retransmissions performed.
    pub fn retransmits(&self) -> u64 {
        self.stats.retransmits.load(Ordering::Relaxed)
    }

    /// Deliveries re-armed by the wall-clock RNR timer.
    pub fn rnr_deferrals(&self) -> u64 {
        self.stats.rnr_deferrals.load(Ordering::Relaxed)
    }

    /// ACKs that arrived after their record had already completed (the
    /// duplicate-ack side effect of a timeout retransmission racing a slow
    /// original ack).
    pub fn stale_acks(&self) -> u64 {
        self.stats.stale_acks.load(Ordering::Relaxed)
    }

    /// Times a submit had to wait for ring space (backpressure events).
    pub fn ring_full_stalls(&self) -> u64 {
        self.stats.ring_full_stalls.load(Ordering::Relaxed)
    }

    /// Progress-thread loop iterations (each is one full scan of every
    /// channel plus timer service).
    pub fn progress_iterations(&self) -> u64 {
        self.stats.progress_iterations.load(Ordering::Relaxed)
    }

    /// Times the progress thread woke from an idle park (unparked by a
    /// submit or a timer deadline).
    pub fn progress_wakeups(&self) -> u64 {
        self.stats.progress_wakeups.load(Ordering::Relaxed)
    }

    /// High-water mark of DATA-ring occupancy in bytes, across every
    /// channel of this fabric: sampled by the sender after each enqueue (and
    /// at each ring-full stall) and by the receiver's progress thread before
    /// each drain, so whichever side sees the backlog reports it.
    pub fn ring_occupancy_high_water(&self) -> u64 {
        self.stats.ring_occupancy_high_water.load(Ordering::Relaxed)
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
        let drained =
            self.channels.lock().iter().all(|ch| {
                (!ch.we_recv || ch.data.is_empty()) && (!ch.we_send || ch.ack.is_empty())
            });
        drained
            && self.stats.in_hand.load(Ordering::Acquire) == 0
            && self.outstanding.lock().is_empty()
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
            self.kick();
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
        let data =
            FileSegment::create(&dir.join(key.file_stem() + ".data"), self.cfg.ring_capacity)?;
        let ack = FileSegment::create(&dir.join(key.file_stem() + ".ack"), self.cfg.ack_capacity)?;
        let ch = self.install(key, Arc::new(data), Arc::new(ack), true, false);
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
        let ch = self.install(key, Arc::new(data), Arc::new(ack), false, true);
        ch.data.mark_attached();
        Ok(())
    }

    fn install(
        &self,
        key: PairKey,
        data: Arc<dyn Segment>,
        ack: Arc<dyn Segment>,
        we_send: bool,
        we_recv: bool,
    ) -> Arc<Channel> {
        let ch = Arc::new(Channel {
            key,
            data: SpscRing::new(data),
            ack: SpscRing::new(ack),
            we_send,
            we_recv,
            tx_lock: Mutex::new(()),
        });
        self.by_pair.lock().insert(key, ch.clone());
        self.publish(&ch);
        ch
    }

    /// Add `ch` to the list the progress thread scans.
    fn publish(&self, ch: &Arc<Channel>) {
        let mut channels = self.channels.lock();
        channels.push(ch.clone());
        self.channels_installed
            .store(channels.len(), Ordering::Release);
    }

    /// Channel for `key`, creating it lazily in loopback mode.
    fn channel(&self, key: PairKey) -> Arc<Channel> {
        if let Some(ch) = self.by_pair.lock().get(&key) {
            return ch.clone();
        }
        match &self.backing {
            Backing::Loopback => {
                // Double-checked under the map lock to keep creation
                // single-shot under concurrent posts.
                let mut map = self.by_pair.lock();
                if let Some(ch) = map.get(&key) {
                    return ch.clone();
                }
                let ch = Arc::new(Channel {
                    key,
                    data: SpscRing::new(Arc::new(HeapSegment::new(
                        self.cfg.ring_capacity as usize,
                    ))),
                    ack: SpscRing::new(Arc::new(HeapSegment::new(self.cfg.ack_capacity as usize))),
                    we_send: true,
                    we_recv: true,
                    tx_lock: Mutex::new(()),
                });
                map.insert(key, ch.clone());
                self.publish(&ch);
                ch
            }
            Backing::Host(_) => panic!(
                "no shm channel open for QP pair {:?}; host mode requires open_tx before posting",
                key
            ),
        }
    }

    /// Publish one DATA record of `len` bytes, written in place by `write`,
    /// on `ch`'s ring, waiting out backpressure, and charge the wire ledger
    /// for a transfer entering the fabric.
    fn enqueue_data(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        len: usize,
        write: &dyn Fn(&mut RecordWriter<'_>),
    ) {
        let _tx = ch.tx_lock.lock();
        if !ch.data.try_push_with(KIND_DATA, len, write) {
            self.stats.ring_full_stalls.fetch_add(1, Ordering::Relaxed);
            self.stats
                .ring_occupancy_high_water
                .fetch_max(ch.data.len(), Ordering::Relaxed);
            let deadline = Instant::now() + self.cfg.full_ring_deadline;
            loop {
                self.kick();
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
        self.stats
            .ring_occupancy_high_water
            .fetch_max(ch.data.len(), Ordering::Relaxed);
        let wire = &net.telemetry().wire;
        wire.inner_submissions.inc();
        wire.mtu_segments
            .add(segments_for((len - DATA_HEADER) as u64, self.cfg.mtu));
        self.kick();
    }
}

impl Drop for ShmFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Fabric for ShmFabric {
    fn submit(&self, net: &Arc<NetworkState>, job: TransferJob) {
        assert!(
            !self.shutdown.load(Ordering::Acquire),
            "submit on a shut-down ShmFabric"
        );
        self.attach_network(net);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(job.total_len as u64, Ordering::Relaxed);

        let key = PairKey {
            src_node: job.src_node,
            src_qp: job.src_qp,
            dst_node: job.dst_node,
            dst_qp: job.dst_qp,
        };
        let ch = self.channel(key);
        let profile = sender_retry_profile(net, &job).unwrap_or(RetryProfile {
            timeout: 5,
            retry_cnt: 0,
            rnr_retry: 0,
            min_rnr_timer_ns: 10_000,
        });
        let header = data_header(&job, &profile);
        let len = DATA_HEADER + job.total_len as usize;
        // Header, then the payload gathered *at post time* straight into
        // the ring (the wire must not chase source-region rewrites across a
        // process boundary; inline sends reuse their snapshot).
        let write = |w: &mut RecordWriter<'_>| {
            w.put(&header);
            gather_payload(&job, w);
        };
        let flows = &net.telemetry().flows;
        let submit_ns = flows.now();
        flows.event(job.flow, FlowStage::WireSubmit, job.src_qp, 0, 0);

        // Ghost duplicates (ours or a lossy decorator's) are
        // fire-and-forget: no ack, no retransmission, no completion.
        if job.ghost {
            self.enqueue_data(net, &ch, len, &write);
            return;
        }

        // Deterministic chaos, drawn per DATA submission in submit order.
        let seq = self.data_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let wire = &net.telemetry().wire;
        if let Some(n) = self.cfg.dup_nth {
            if seq % n.max(1) == 0 {
                wire.duplicates_injected.inc();
                let mut ghost = header;
                ghost[FLAGS_AT] |= FLAG_GHOST;
                self.enqueue_data(net, &ch, len, &|w| {
                    w.put(&ghost);
                    gather_payload(&job, w);
                });
            }
        }
        let dropped = self.cfg.drop_nth.is_some_and(|n| seq % n.max(1) == 0);

        let echo = AckEcho {
            src_node: job.src_node,
            src_qp: job.src_qp,
            dst_qp: job.dst_qp,
            wr_id: job.wr_id,
            psn: job.psn,
            flow: job.flow,
            total_len: job.total_len,
            opcode: job.opcode,
        };
        // Only a record charged as dropped is ever re-sent, so only it
        // keeps a copy of itself.
        let retry = dropped.then(|| {
            let mut record = vec![0u8; len];
            write(&mut RecordWriter::new(&mut record, &mut []));
            let backoff = Duration::from_nanos(profile.backoff_ns(0));
            (Instant::now() + backoff, record)
        });
        // Registered before the record can produce an ack, so the ack
        // handler always finds its entry.
        self.outstanding.lock().insert(
            (job.src_qp, job.psn),
            Pending {
                echo,
                profile,
                attempts: 0,
                retry,
                submit_ns,
            },
        );
        if dropped {
            // Lost before the wire: charged now, recovered by the ack
            // timer. The progress thread owns the retransmission.
            wire.dropped.inc();
            self.kick();
            return;
        }
        self.enqueue_data(net, &ch, len, &write);
    }
}

// ---------------------------------------------------------------------------
// Wire records
// ---------------------------------------------------------------------------

const FLAG_IMM: u8 = 1;
const FLAG_GHOST: u8 = 2;

fn opcode_to_wire(op: Opcode) -> u8 {
    match op {
        Opcode::RdmaWrite => 0,
        Opcode::RdmaWriteWithImm => 1,
        Opcode::Send => 2,
        Opcode::SendWithImm => 3,
    }
}

fn opcode_from_wire(b: u8) -> Opcode {
    match b {
        0 => Opcode::RdmaWrite,
        1 => Opcode::RdmaWriteWithImm,
        2 => Opcode::Send,
        _ => Opcode::SendWithImm,
    }
}

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

/// The fixed header of `job`'s DATA record (the payload follows it).
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
    rec[61] = opcode_to_wire(job.opcode);
    rec[62] = profile.rnr_retry;
    rec[64..72].copy_from_slice(&profile.min_rnr_timer_ns.to_le_bytes());
    rec
}

/// Write `job`'s `total_len` payload bytes through `w`: the inline snapshot,
/// or each gather segment read out of its source region — one copy, source
/// MR to wherever `w` points.
fn gather_payload(job: &TransferJob, w: &mut RecordWriter<'_>) {
    match &job.inline_payload {
        Some(p) => w.put(p),
        None => {
            for seg in job.segments.iter() {
                let mut at = seg.offset;
                w.fill(seg.len, |dst| {
                    seg.mr
                        .read(at, dst)
                        .expect("segments validated at post time");
                    at += dst.len();
                });
            }
        }
    }
}

/// Read a DATA record back into a deliverable job plus the sender's RNR
/// attributes. The payload is copied once, ring to the buffer the job owns
/// (it rides as an inline snapshot).
fn parse_data(r: &mut RecordReader<'_>) -> (TransferJob, u8, u64) {
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
    let mut payload = Vec::with_capacity(total_len as usize);
    r.append_rest_to(&mut payload);
    let job = TransferJob {
        src_node: u32_at(0),
        dst_node: u32_at(4),
        src_qp: u32_at(8),
        dst_qp: u32_at(12),
        wr_id: u64_at(16),
        opcode: opcode_from_wire(rec[61]),
        segments: InlineVec::new(),
        remote_addr: u64_at(40),
        rkey: u32_at(48),
        imm: (flags & FLAG_IMM != 0).then(|| u32_at(56)),
        total_len,
        inline_payload: Some(PooledBuf::from_vec(payload)),
        psn: u64_at(24),
        ghost: flags & FLAG_GHOST != 0,
        flow: u64_at(32),
        opts: PostOptions::default(),
    };
    (job, rec[62], u64_at(64))
}

fn serialize_ack(echo: &AckEcho, status: WcStatus) -> [u8; ACK_LEN] {
    let mut rec = [0u8; ACK_LEN];
    rec[0..4].copy_from_slice(&echo.src_node.to_le_bytes());
    rec[4..8].copy_from_slice(&echo.src_qp.to_le_bytes());
    rec[8..12].copy_from_slice(&echo.dst_qp.to_le_bytes());
    rec[16..24].copy_from_slice(&echo.wr_id.to_le_bytes());
    rec[24..32].copy_from_slice(&echo.psn.to_le_bytes());
    rec[32..40].copy_from_slice(&echo.flow.to_le_bytes());
    rec[40..44].copy_from_slice(&echo.total_len.to_le_bytes());
    rec[44] = status_to_wire(status);
    rec[45] = opcode_to_wire(echo.opcode);
    rec
}

fn parse_ack(r: &mut RecordReader<'_>) -> (AckEcho, WcStatus) {
    let mut rec = [0u8; ACK_LEN];
    r.take(&mut rec);
    let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().expect("fixed"));
    let u64_at = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().expect("fixed"));
    (
        AckEcho {
            src_node: u32_at(0),
            src_qp: u32_at(4),
            dst_qp: u32_at(8),
            wr_id: u64_at(16),
            psn: u64_at(24),
            flow: u64_at(32),
            total_len: u32_at(40),
            opcode: opcode_from_wire(rec[45]),
        },
        status_from_wire(rec[44]),
    )
}

impl AckEcho {
    /// Rebuild the minimal job [`complete_send`] needs.
    fn to_job(self) -> TransferJob {
        TransferJob {
            src_node: self.src_node,
            dst_node: 0,
            src_qp: self.src_qp,
            dst_qp: self.dst_qp,
            wr_id: self.wr_id,
            opcode: self.opcode,
            segments: InlineVec::new(),
            remote_addr: 0,
            rkey: 0,
            imm: None,
            total_len: self.total_len,
            inline_payload: None,
            psn: self.psn,
            ghost: false,
            flow: self.flow,
            opts: PostOptions::default(),
        }
    }
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

/// The dedicated poll/progress thread (Ibdxnet's receive thread): drains
/// DATA rings into deliveries + ACKs, ACK rings into send completions,
/// and services the wall-clock RNR and retransmission timers.
fn progress_loop(me: Weak<ShmFabric>) {
    // Snapshot of the channel list, re-read only when one is installed.
    let mut channels: Vec<Arc<Channel>> = Vec::new();
    // Deliveries waiting on a receive queue, in arrival order. Only this
    // thread delivers, so the queue is its own.
    let mut rnr: VecDeque<RnrPending> = VecDeque::new();
    // Consecutive scans that found nothing to do.
    let mut idle_rounds = 0u32;
    // Idle spells left that skip the yield phase, and how many were skipped
    // last time (see `MAX_STARVED_SPELLS`).
    let (mut skip_yields, mut starved_spells) = (0u32, 0u32);
    loop {
        // Held across scans and dropped only to park: `Drop` must be able
        // to join a parked thread, and the fabric may be gone by the time it
        // wakes. (If this handle turns out to be the last one, `shutdown`
        // runs here and knows not to join itself.)
        let Some(fab) = me.upgrade() else { return };
        loop {
            let shutting_down = fab.shutdown.load(Ordering::Acquire);
            let net = fab.net.get().and_then(|w| w.upgrade());
            let mut did_work = false;
            fab.stats
                .progress_iterations
                .fetch_add(1, Ordering::Relaxed);

            if let Some(net) = &net {
                if fab.channels_installed.load(Ordering::Acquire) != channels.len() {
                    channels.clone_from(&fab.channels.lock());
                }
                for ch in &channels {
                    if ch.we_recv {
                        fab.stats
                            .ring_occupancy_high_water
                            .fetch_max(ch.data.len(), Ordering::Relaxed);
                        while let Ok((job, rnr_budget, rnr_timer_ns)) =
                            ch.data.try_pop_with(|kind, r| {
                                debug_assert_eq!(kind, KIND_DATA);
                                fab.stats.in_hand.fetch_add(1, Ordering::Relaxed);
                                parse_data(r)
                            })
                        {
                            fab.stats.data_records.fetch_add(1, Ordering::Relaxed);
                            fab.handle_data(net, ch, job, rnr_budget, rnr_timer_ns, &mut rnr);
                            did_work = true;
                        }
                    }
                    if ch.we_send {
                        while let Ok((echo, status)) = ch.ack.try_pop_with(|kind, r| {
                            debug_assert_eq!(kind, KIND_ACK);
                            fab.stats.in_hand.fetch_add(1, Ordering::Relaxed);
                            parse_ack(r)
                        }) {
                            fab.stats.ack_records.fetch_add(1, Ordering::Relaxed);
                            fab.handle_ack(net, echo, status);
                            fab.stats.in_hand.fetch_sub(1, Ordering::Release);
                            did_work = true;
                        }
                    }
                }
                did_work |= fab.service_rnr(net, &mut rnr);
                did_work |= fab.service_timeouts(net);
            }

            if let Some((sampler, epoch)) = fab.sampler.get() {
                sampler.tick(epoch.elapsed().as_nanos() as u64);
            }

            if shutting_down {
                // Final drain: leave only once everything consumable is
                // quiet (or the fabric is being torn down with the network
                // gone).
                if net.is_none() || (!did_work && fab.is_idle()) {
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
        let park = fab.next_deadline_in(&rnr);
        drop(fab);
        std::thread::park_timeout(park);
        if let Some(fab) = me.upgrade() {
            fab.stats.progress_wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl ShmFabric {
    /// How long an idle progress thread may park: until the nearest armed
    /// RNR/retransmission deadline, and never longer than `idle_park`.
    fn next_deadline_in(&self, rnr: &VecDeque<RnrPending>) -> Duration {
        let outstanding = self.outstanding.lock();
        let retries = outstanding
            .values()
            .filter_map(|p| p.retry.as_ref().map(|(deadline, _)| *deadline));
        match rnr.iter().map(|r| r.deadline).chain(retries).min() {
            Some(nearest) => nearest
                .saturating_duration_since(Instant::now())
                .min(self.cfg.idle_park),
            None => self.cfg.idle_park,
        }
    }

    /// Take one DATA record (already counted in hand) off the wire. Delivery
    /// order on a QP is posting order: while an earlier delivery for the
    /// same destination QP waits in the RNR queue, this one queues behind it
    /// untried.
    fn handle_data(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        job: TransferJob,
        rnr_budget: u8,
        min_rnr_timer_ns: u64,
        rnr: &mut VecDeque<RnrPending>,
    ) {
        let mut waiting = RnrPending {
            job,
            rnr_budget,
            min_rnr_timer_ns,
            attempts: 0,
            deadline: Instant::now(),
        };
        let dst = waiting.dst();
        if !rnr.iter().any(|r| r.dst() == dst) {
            match self.deliver(net, ch, waiting) {
                None => {
                    self.stats.in_hand.fetch_sub(1, Ordering::Release);
                    return;
                }
                Some(deferred) => waiting = deferred,
            }
        }
        rnr.push_back(waiting);
    }

    /// Attempt one delivery: run the destination-side effects and, for
    /// non-ghost records, acknowledge. On receiver-not-ready within the
    /// sender's RNR budget the delivery comes back, re-armed on the
    /// wall-clock RNR timer, for the caller to (re)queue; `None` means it is
    /// done with, delivered or acknowledged as failed.
    fn deliver(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        mut d: RnrPending,
    ) -> Option<RnrPending> {
        let job = &d.job;
        let outcome = execute_delivery(net, job);
        if matches!(outcome, DeliveryOutcome::ReceiverNotReady) && d.attempts < d.rnr_budget {
            let wire = &net.telemetry().wire;
            wire.rnr_requeues.inc();
            self.stats.rnr_deferrals.fetch_add(1, Ordering::Relaxed);
            let flows = &net.telemetry().flows;
            flows.event(
                job.flow,
                FlowStage::RnrWait,
                job.src_qp,
                0,
                d.min_rnr_timer_ns,
            );
            if job.flow != 0 {
                flows.stage_ns(|s| &s.rnr_wait, d.min_rnr_timer_ns);
            }
            d.attempts += 1;
            d.deadline = Instant::now() + Duration::from_nanos(d.min_rnr_timer_ns.max(1));
            return Some(d);
        }
        if job.ghost {
            return None;
        }
        let echo = AckEcho {
            src_node: job.src_node,
            src_qp: job.src_qp,
            dst_qp: job.dst_qp,
            wr_id: job.wr_id,
            psn: job.psn,
            flow: job.flow,
            total_len: job.total_len,
            opcode: job.opcode,
        };
        let ack = serialize_ack(&echo, outcome_status(&outcome));
        let deadline = Instant::now() + self.cfg.full_ring_deadline;
        while !ch.ack.try_push(KIND_ACK, &ack) {
            assert!(
                Instant::now() < deadline,
                "shm ack ring full past the stall deadline — sender progress thread gone?"
            );
            std::thread::yield_now();
        }
        None
    }

    /// Complete a send against an arriving ACK. Duplicate acks (the
    /// receiver acks every non-ghost record, so a timeout retransmission
    /// that raced a slow original produces two) fall out of the
    /// outstanding table: only the first completes.
    fn handle_ack(&self, net: &Arc<NetworkState>, echo: AckEcho, status: WcStatus) {
        let pending = self.outstanding.lock().remove(&(echo.src_qp, echo.psn));
        let Some(pending) = pending else {
            self.stats.stale_acks.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let flows = &net.telemetry().flows;
        if echo.flow != 0 {
            let wire_ns = flows.now().saturating_sub(pending.submit_ns);
            flows.stage_ns(|s| &s.wire, wire_ns);
        }
        complete_send(net, &echo.to_job(), status);
    }

    /// Re-attempt queued deliveries, oldest first. A QP whose oldest queued
    /// delivery is not due yet (or hits receiver-not-ready again) keeps
    /// everything behind it waiting, so a deferred window is redelivered in
    /// posting order; other QPs pass it.
    fn service_rnr(&self, net: &Arc<NetworkState>, rnr: &mut VecDeque<RnrPending>) -> bool {
        if rnr.is_empty() {
            return false;
        }
        let now = Instant::now();
        let mut blocked: Vec<(u32, u32)> = Vec::new();
        let mut worked = false;
        let mut i = 0;
        while i < rnr.len() {
            let dst = rnr[i].dst();
            if blocked.contains(&dst) {
                i += 1;
                continue;
            }
            if rnr[i].deadline > now {
                blocked.push(dst);
                i += 1;
                continue;
            }
            let due = rnr.remove(i).expect("index checked against len");
            worked = true;
            let key = PairKey {
                src_node: due.job.src_node,
                src_qp: due.job.src_qp,
                dst_node: due.job.dst_node,
                dst_qp: due.job.dst_qp,
            };
            // The record came off this channel's ring, so the channel is
            // installed (channels are never removed).
            let ch = self.by_pair.lock().get(&key).cloned();
            match ch.and_then(|ch| self.deliver(net, &ch, due)) {
                Some(deferred) => {
                    rnr.insert(i, deferred);
                    blocked.push(dst);
                    i += 1;
                }
                None => {
                    self.stats.in_hand.fetch_sub(1, Ordering::Release);
                }
            }
        }
        worked
    }

    /// Retransmit (or give up on) records charged as dropped whose ack
    /// timeout expired: the IB sender-side exponential backoff on real
    /// [`Instant`] deadlines.
    fn service_timeouts(&self, net: &Arc<NetworkState>) -> bool {
        let now = Instant::now();
        let mut retransmit: Vec<(AckEcho, Vec<u8>)> = Vec::new();
        let mut exhausted: Vec<AckEcho> = Vec::new();
        {
            let mut outstanding = self.outstanding.lock();
            let keys: Vec<(u32, u64)> = outstanding
                .iter()
                .filter(|(_, p)| p.retry.as_ref().is_some_and(|(d, _)| *d <= now))
                .map(|(k, _)| *k)
                .collect();
            for k in keys {
                let p = outstanding.get_mut(&k).expect("key just listed");
                if p.attempts >= p.profile.retry_cnt {
                    let p = outstanding.remove(&k).expect("present");
                    exhausted.push(p.echo);
                    continue;
                }
                p.attempts += 1;
                let backoff = Duration::from_nanos(p.profile.backoff_ns(p.attempts));
                let (deadline, record) = p.retry.as_mut().expect("filtered on retry above");
                // Re-armed pessimistically: if the chaos knob drops the
                // retransmitted record too, the next expiry doubles again.
                *deadline = now + backoff;
                retransmit.push((p.echo, record.clone()));
            }
        }
        let worked = !retransmit.is_empty() || !exhausted.is_empty();
        let wire = &net.telemetry().wire;
        for (echo, record) in retransmit {
            self.stats.retransmits.fetch_add(1, Ordering::Relaxed);
            wire.retransmits.inc();
            net.telemetry()
                .flows
                .event(echo.flow, FlowStage::Retransmit, echo.src_qp, 0, 0);
            // The retransmitted record re-enters the wire; whether it is
            // dropped again is the next submit-order chaos draw.
            let seq = self.data_seq.fetch_add(1, Ordering::Relaxed) + 1;
            if self.cfg.drop_nth.is_some_and(|n| seq % n.max(1) == 0) {
                wire.dropped.inc();
                continue;
            }
            let key = PairKey {
                src_node: echo.src_node,
                src_qp: echo.src_qp,
                // The echo carries no destination node; the record does.
                dst_node: u32::from_le_bytes(record[4..8].try_into().expect("fixed")),
                dst_qp: echo.dst_qp,
            };
            if let Some(ch) = self.by_pair.lock().get(&key).cloned() {
                if echo.flow != 0 {
                    net.telemetry().flows.stage_ns(|s| &s.retrans_wait, 0);
                }
                self.enqueue_data(net, &ch, record.len(), &|w| w.put(&record));
            }
        }
        for echo in exhausted {
            wire.exhausted.inc();
            complete_send(net, &echo.to_job(), WcStatus::RetryExceeded);
        }
        worked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::CompletionQueue;
    use crate::network::{connect_pair, Context, Network};
    use crate::qp::{QpCaps, QueuePair};
    use crate::types::{imm, Opcode, RecvWr, SendWr, Sge, WcOpcode, WorkCompletion};
    use partix_telemetry::invariants;

    struct Pair {
        net: Network,
        fabric: Arc<ShmFabric>,
        a: Context,
        b: Context,
        qa: Arc<QueuePair>,
        qb: Arc<QueuePair>,
        cqa: Arc<CompletionQueue>,
        cqb: Arc<CompletionQueue>,
        pda: crate::network::ProtectionDomain,
        pdb: crate::network::ProtectionDomain,
    }

    fn pair(cfg: ShmConfig, caps: QpCaps) -> Pair {
        let fabric = ShmFabric::loopback_with(cfg);
        let net = Network::new(2, fabric.clone());
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
        assert!(
            p.fabric.quiesce(Duration::from_secs(10)),
            "fabric must quiesce"
        );
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
    fn injected_drop_recovers_by_ack_timeout_retransmission() {
        let cfg = ShmConfig {
            drop_nth: Some(3),
            ..ShmConfig::default()
        };
        let p = pair(cfg, QpCaps::default());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        for i in 0..3u64 {
            src.fill(0, 64, i as u8 + 1).unwrap();
            p.qb.post_recv(RecvWr::bare(100 + i)).unwrap();
            write_with_imm(&p, &src, &dst, i, 64);
            let wc = poll_until(&p.cqa, "send CQE");
            assert_eq!(wc.status, WcStatus::Success);
            let _ = poll_until(&p.cqb, "recv CQE");
            assert_eq!(dst.read_vec(0, 64).unwrap(), vec![i as u8 + 1; 64]);
        }
        assert_eq!(p.fabric.retransmits(), 1, "third submit was dropped once");
        assert_clean(&p);
        let snap = p.net.state().telemetry_snapshot();
        assert_eq!(snap.wire.dropped, 1);
        assert_eq!(snap.wire.retransmits, 1);
        p.fabric.shutdown();
    }

    #[test]
    fn injected_duplicates_are_psn_suppressed() {
        let cfg = ShmConfig {
            dup_nth: Some(1),
            ..ShmConfig::default()
        };
        let p = pair(cfg, QpCaps::default());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        for i in 0..4u64 {
            src.fill(0, 64, 0x10 + i as u8).unwrap();
            p.qb.post_recv(RecvWr::bare(200 + i)).unwrap();
            write_with_imm(&p, &src, &dst, i, 64);
            let wc = poll_until(&p.cqa, "send CQE");
            assert_eq!(wc.status, WcStatus::Success);
            let _ = poll_until(&p.cqb, "recv CQE");
            assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0x10 + i as u8; 64]);
        }
        assert_clean(&p);
        let snap = p.net.state().telemetry_snapshot();
        assert_eq!(snap.wire.duplicates_injected, 4);
        assert_eq!(snap.wire.duplicates_suppressed, 4);
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
        const WINDOW: u64 = 12;
        let caps = QpCaps {
            min_rnr_timer_ns: 500_000,
            ..QpCaps::default()
        };
        let p = pair(ShmConfig::default(), caps);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        for i in 0..WINDOW {
            write_with_imm(&p, &src, &dst, i, 64);
        }
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
        q2b.post_recv(RecvWr::bare(1)).unwrap();
        q2a.post_send(SendWr {
            wr_id: 77,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: 64,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: Some(77),
            inline_data: false,
            flow: 0,
        })
        .unwrap();
        assert_eq!(poll_until(&cq2b, "second QP's recv CQE").imm, Some(77));
        assert!(p.cqb.poll_one().is_none(), "first QP still waits");

        for i in 0..WINDOW {
            p.qb.post_recv(RecvWr::bare(500 + i)).unwrap();
        }
        for i in 0..WINDOW {
            let wc = poll_until(&p.cqb, "recv CQE");
            assert_eq!(wc.wr_id, 500 + i, "receives are consumed in order");
            assert_eq!(
                wc.imm,
                Some(imm::encode(0, 4)),
                "write_with_imm's immediate"
            );
            let send = poll_until(&p.cqa, "send CQE");
            assert_eq!(
                (send.wr_id, send.status),
                (i, WcStatus::Success),
                "acks follow deliveries, so send CQEs show the delivery order"
            );
        }
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
        let dir = std::env::temp_dir().join(format!("partix_shm_host_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ShmConfig {
            ring_capacity: 1 << 16,
            ..ShmConfig::default()
        };
        let tx = ShmFabric::host(&dir, cfg);
        let rx = ShmFabric::host(&dir, cfg);
        // One network, so the test can see both ends; node 0 only sends, so
        // every submit goes to `tx`, and `rx` only ever delivers.
        let net = Network::new(2, tx.clone());
        rx.attach_network(net.state());
        let (a, b) = (net.open(0).unwrap(), net.open(1).unwrap());
        let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
        let (cqa, cqb) = (a.create_cq(), b.create_cq());
        let qa = a
            .create_qp(pda, cqa.clone(), a.create_cq(), QpCaps::default())
            .unwrap();
        let qb = b
            .create_qp(pdb, b.create_cq(), cqb.clone(), QpCaps::default())
            .unwrap();
        connect_pair(&qa, &qb).unwrap();
        let (from, to) = ((0, qa.qp_num()), (1, qb.qp_num()));
        std::thread::scope(|s| {
            s.spawn(|| tx.open_tx(from, to, Duration::from_secs(10)).unwrap());
            rx.open_rx(from, to, Duration::from_secs(10)).unwrap();
        });

        let src = a.reg_mr(pda, 4096).unwrap();
        let dst = b.reg_mr(pdb, 4096).unwrap();
        for i in 0..32u64 {
            src.fill(0, 4096, i as u8 + 1).unwrap();
            qb.post_recv(RecvWr::bare(i)).unwrap();
            qa.post_send(SendWr {
                wr_id: i,
                opcode: Opcode::RdmaWriteWithImm,
                sg_list: vec![Sge {
                    addr: src.addr(),
                    length: 4096,
                    lkey: src.lkey(),
                }],
                remote_addr: dst.addr(),
                rkey: dst.rkey(),
                imm: Some(i as u32),
                inline_data: false,
                flow: 0,
            })
            .unwrap();
            assert_eq!(poll_until(&cqa, "send CQE").status, WcStatus::Success);
            assert_eq!(poll_until(&cqb, "recv CQE").imm, Some(i as u32));
            assert_eq!(dst.read_vec(0, 4096).unwrap(), vec![i as u8 + 1; 4096]);
        }
        assert_eq!((tx.data_records(), rx.data_records()), (0, 32));
        assert_eq!((tx.ack_records(), rx.ack_records()), (32, 0));
        assert!(
            tx.ring_occupancy_high_water() >= 4096,
            "the sender saw at least one whole record on its ring"
        );
        assert!(tx.quiesce(Duration::from_secs(10)) && rx.quiesce(Duration::from_secs(10)));
        let report = invariants::check_strict(&net.state().telemetry_snapshot());
        assert!(report.is_clean(), "invariants violated: {report:?}");
        tx.shutdown();
        rx.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrecoverable_loss_exhausts_the_retry_budget() {
        let cfg = ShmConfig {
            drop_nth: Some(1), // every attempt lost, retransmissions included
            ..ShmConfig::default()
        };
        let caps = QpCaps {
            timeout: 1, // 8.2 us base backoff: fail fast
            retry_cnt: 3,
            ..QpCaps::default()
        };
        let p = pair(cfg, caps);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        p.qb.post_recv(RecvWr::bare(1)).unwrap();
        write_with_imm(&p, &src, &dst, 5, 64);
        let wc = poll_until(&p.cqa, "send CQE");
        assert_eq!(wc.status, WcStatus::RetryExceeded);
        assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0; 64], "nothing landed");
        assert!(p.fabric.quiesce(Duration::from_secs(10)));
        let snap = p.net.state().telemetry_snapshot();
        assert_eq!(snap.wire.exhausted, 1);
        assert_eq!(snap.wire.retransmits, 3);
        assert_eq!(snap.wire.dropped, 4, "original + three retransmissions");
        // Not `check_strict`: the receive WR is still legitimately posted.
        let report = invariants::check(&snap);
        assert!(report.is_clean(), "invariants violated: {report:?}");
        p.fabric.shutdown();
    }

    #[test]
    fn two_sided_send_lands_in_recv_scatter_space() {
        let p = pair(ShmConfig::default(), QpCaps::default());
        let src = p.a.reg_mr(p.pda, 256).unwrap();
        let dst = p.b.reg_mr(p.pdb, 256).unwrap();
        src.write(0, b"partitioned aggregation over shm").unwrap();
        p.qb.post_recv(RecvWr {
            wr_id: 11,
            sg_list: vec![Sge {
                addr: dst.addr(),
                length: 256,
                lkey: dst.lkey(),
            }],
        })
        .unwrap();
        p.qa.post_send(SendWr {
            wr_id: 12,
            opcode: Opcode::Send,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: 32,
                lkey: src.lkey(),
            }],
            remote_addr: 0,
            rkey: 0,
            imm: None,
            inline_data: false,
            flow: 0,
        })
        .unwrap();
        let wc = poll_until(&p.cqa, "send CQE");
        assert_eq!(wc.status, WcStatus::Success);
        let recv_wc = poll_until(&p.cqb, "recv CQE");
        assert_eq!(recv_wc.wr_id, 11);
        assert_eq!(recv_wc.byte_len, 32);
        assert_eq!(
            dst.read_vec(0, 32).unwrap(),
            b"partitioned aggregation over shm".to_vec()
        );
        assert_clean(&p);
        p.fabric.shutdown();
    }

    #[test]
    fn wall_clock_sampler_captures_frames_from_the_progress_thread() {
        use partix_telemetry::{Sample, SampleSource, SamplerConfig};
        let p = pair(ShmConfig::default(), QpCaps::default());
        let net = p.net.state().clone();
        let fab = p.fabric.clone();
        let source: SampleSource = Arc::new(move || Sample {
            snapshot: net.telemetry_snapshot(),
            stages: Vec::new(),
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
}
