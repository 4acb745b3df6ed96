//! `shm_exchange`: the real-time `ShmFabric` over file segments.
//!
//! Two ranks as two threads of this process, each with its own
//! `ShmFabric::host` and `Network`, bootstrapped over an in-process channel
//! and joined by `open_tx`/`open_rx` both ways: the `FileSegment` path the
//! two-process `shm_exchange` bin uses, with the bin's QP window (16) and
//! 2 ms RNR timer. This is loopback on one host, never a real link, and it
//! bypasses `partix-sim` entirely. Besides the two drivers the transport
//! runs one progress thread per fabric, four threads in all; drivers yield
//! on an empty poll. Three phases:
//!
//! - a: stream 64 B RDMA-write-with-imm messages (progress loop saturated,
//!   per-message cost);
//! - b: stream 64 KiB messages (progress loop saturated, per-byte cost);
//! - c: 64 B ping-pong (progress loops parked between messages, wake-up
//!   cost).
//!
//! Every completion's status, every message's arrival (once, whole), every
//! post and every destination slot of a stream is one counted check; B zeroes
//! its slots before a stream, so the slots verified afterwards hold bytes
//! that stream moved. Every poll loop has a deadline; one that passes is a
//! failed check and ends the run without hanging.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use partix_verbs::{
    CompletionQueue, Fabric, MemoryRegion, Network, Opcode, PeerId, QpCaps, QpState, QueuePair,
    RecvWr, SendWr, Sge, ShmConfig, ShmFabric, VerbsError, WcStatus,
};

use crate::harness::{repeat, secs, Ctx};
use crate::metrics::Tally;
use crate::probes;
use crate::stats::{median, percentile_sorted, tail};

/// Slots of the stream buffers: message `j` uses slot `j % SLOTS`, so with a
/// 16-WR window a slot is never rewritten while unverified.
const SLOTS: usize = 32;
/// Slot stride: the largest message.
const STRIDE: usize = 64 << 10;
/// Receive WRs kept posted ahead of the sender.
const RECV_DEPTH: u64 = 256;
/// Small message size (phases a and c).
const SMALL: usize = 64;
/// Messages per repetition of phase a / phase b, round trips of phase c.
const SMALL_MSGS: u64 = 1_000;
const LARGE_MSGS: u64 = 400;
const ROUND_TRIPS: u64 = 100;
/// Bound on the bootstrap and on any single phase.
const HANDSHAKE: Duration = Duration::from_secs(10);
const PHASE_DEADLINE: Duration = Duration::from_secs(30);

/// What one rank tells the other before connecting.
#[derive(Clone, Copy)]
struct Hello {
    qp: u32,
    rkey: u32,
    addr: u64,
    pong_rkey: u32,
    pong_addr: u64,
}

/// A's instructions to B.
enum Cmd {
    Stream { bytes: usize, messages: u64 },
    PingPong { round_trips: u64 },
    Quit,
}

/// B's answers to A.
enum Reply {
    /// Receives are posted; A may start sending.
    Ready,
    /// Phase over: the checks B made, and messages it received out of
    /// posting order.
    Done { tally: Tally, reordered: u64 },
}

/// One rank's verbs objects.
struct Endpoint {
    fabric: Arc<ShmFabric>,
    _net: Network,
    qp: Arc<QueuePair>,
    send_cq: Arc<CompletionQueue>,
    recv_cq: Arc<CompletionQueue>,
    /// Stream slots: A's source, B's destination.
    slots: MemoryRegion,
    /// 64 B the peer's ping or pong lands in.
    pong: MemoryRegion,
}

/// Payload byte `k` of slot `s` under `seed`.
fn slot_byte(seed: u64, s: usize, k: usize) -> u8 {
    (seed as usize)
        .wrapping_add(s.wrapping_mul(131))
        .wrapping_add(k.wrapping_mul(7)) as u8
}

fn io<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

impl Endpoint {
    /// Fabric, network, QP and buffers of rank `node`, not yet connected.
    fn create(dir: &Path, node: u32) -> Result<Endpoint, String> {
        let fabric = ShmFabric::host(dir.to_path_buf(), ShmConfig::default());
        let net = Network::new(2, fabric.clone() as Arc<dyn Fabric>);
        let ctx = net.open(node).map_err(io("open node"))?;
        let pd = ctx.alloc_pd();
        let (send_cq, recv_cq) = (ctx.create_cq(), ctx.create_cq());
        // The bin's caps: a 2 ms RNR timer rides out scheduling latency on a
        // host with fewer cores than threads.
        let caps = QpCaps {
            min_rnr_timer_ns: 2_000_000,
            ..QpCaps::default()
        };
        let qp = ctx
            .create_qp(pd, send_cq.clone(), recv_cq.clone(), caps)
            .map_err(io("create qp"))?;
        let slots = ctx.reg_mr(pd, SLOTS * STRIDE).map_err(io("reg slots"))?;
        let pong = ctx.reg_mr(pd, SMALL).map_err(io("reg pong"))?;
        // The progress thread needs its delivery target before any record
        // can arrive.
        fabric.attach_network(net.state());
        Ok(Endpoint {
            fabric,
            _net: net,
            qp,
            send_cq,
            recv_cq,
            slots,
            pong,
        })
    }

    fn hello(&self) -> Hello {
        Hello {
            qp: self.qp.qp_num(),
            rkey: self.slots.rkey(),
            addr: self.slots.addr(),
            pong_rkey: self.pong.rkey(),
            pong_addr: self.pong.addr(),
        }
    }

    /// RESET → RTS towards `peer`, then both directed channels. `first_tx`
    /// orders the two blocking opens so the ranks cannot wait on each other.
    fn connect(&self, me: u32, peer_node: u32, peer: Hello, first_tx: bool) -> Result<(), String> {
        self.qp.modify(QpState::Init).map_err(io("init"))?;
        self.qp
            .modify_to_rtr(PeerId {
                node: peer_node,
                qp_num: peer.qp,
            })
            .map_err(io("rtr"))?;
        self.qp.modify_to_rts().map_err(io("rts"))?;
        let (mine, theirs) = ((me, self.qp.qp_num()), (peer_node, peer.qp));
        let tx = || {
            self.fabric
                .open_tx(mine, theirs, HANDSHAKE)
                .map_err(io("open_tx"))
        };
        let rx = || {
            self.fabric
                .open_rx(theirs, mine, HANDSHAKE)
                .map_err(io("open_rx"))
        };
        if first_tx {
            tx()?;
            rx()
        } else {
            rx()?;
            tx()
        }
    }

    fn write_wr(
        &self,
        wr_id: u64,
        local: u64,
        lkey: u32,
        len: usize,
        remote: u64,
        rkey: u32,
    ) -> SendWr {
        SendWr {
            wr_id,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: local,
                length: len as u32,
                lkey,
            }],
            remote_addr: remote,
            rkey,
            imm: Some(wr_id as u32),
            inline_data: false,
            flow: 0,
        }
    }

    fn shut_down(&self) -> bool {
        let quiet = self.fabric.quiesce(Duration::from_secs(5));
        self.fabric.shutdown();
        quiet
    }
}

/// Poll `cq` until a completion arrives, the deadline passes or the run is
/// aborted. The completion's status is one check, a passed deadline a failed
/// one.
fn next_cqe(
    cq: &CompletionQueue,
    deadline: Instant,
    abort: &AtomicBool,
    tally: &mut Tally,
) -> Option<partix_verbs::WorkCompletion> {
    loop {
        if let Some(wc) = cq.poll_one() {
            tally.check(wc.status == WcStatus::Success);
            return Some(wc);
        }
        if Instant::now() >= deadline || abort.load(Ordering::Acquire) {
            tally.check(false);
            abort.store(true, Ordering::Release);
            return None;
        }
        std::thread::yield_now();
    }
}

/// Post the WR `make` builds, reaping send completions into `completed`
/// while the window is at the QP cap. `false` ends the phase.
fn post_windowed(
    ep: &Endpoint,
    make: impl Fn() -> SendWr,
    deadline: Instant,
    abort: &AtomicBool,
    tally: &mut Tally,
    completed: &mut u64,
) -> bool {
    loop {
        match ep.qp.post_send(make()) {
            Ok(()) => return tally.check(true),
            Err(VerbsError::SendQueueFull { .. }) => {
                if next_cqe(&ep.send_cq, deadline, abort, tally).is_none() {
                    return false;
                }
                *completed += 1;
            }
            Err(_) => {
                abort.store(true, Ordering::Release);
                return tally.check(false);
            }
        }
    }
}

/// Reap whatever send completions are there.
fn reap_sends(ep: &Endpoint, tally: &mut Tally, completed: &mut u64) {
    while let Some(wc) = ep.send_cq.poll_one() {
        tally.check(wc.status == WcStatus::Success);
        *completed += 1;
    }
}

/// Rank B: serve A's commands until `Quit` or an abort.
fn rank_b(
    ep: &Endpoint,
    peer: Hello,
    seed: u64,
    cmds: Receiver<Cmd>,
    replies: Sender<Reply>,
    abort: &AtomicBool,
) {
    while let Ok(cmd) = cmds.recv_timeout(PHASE_DEADLINE) {
        let mut tally = Tally::default();
        let mut reordered = 0u64;
        let post_recv = |tally: &mut Tally, wr_id: u64| {
            tally.check(ep.qp.post_recv(RecvWr::bare(wr_id)).is_ok());
        };
        match cmd {
            Cmd::Quit => return,
            Cmd::Stream { bytes, messages } => {
                // Zero the slots this stream lands in: what is verified
                // below is then what this stream wrote, not an earlier one.
                let slots = SLOTS.min(messages as usize);
                for slot in 0..slots {
                    tally.check(ep.slots.fill(slot * STRIDE, bytes, 0).is_ok());
                }
                let mut posted = 0u64;
                while posted < RECV_DEPTH.min(messages) {
                    post_recv(&mut tally, posted);
                    posted += 1;
                }
                let _ = replies.send(Reply::Ready);
                let deadline = Instant::now() + PHASE_DEADLINE;
                let mut received = 0u64;
                // Every message must arrive exactly once and whole. Arrival
                // order is only counted, as the two-process bin does: after
                // an RNR deferral the fabric redelivers a window out of
                // posting order.
                let mut seen = vec![false; messages as usize];
                while received < messages {
                    let Some(wc) = next_cqe(&ep.recv_cq, deadline, abort, &mut tally) else {
                        break;
                    };
                    let fresh = wc
                        .imm
                        .and_then(|imm| seen.get_mut(imm as usize))
                        .is_some_and(|slot| !std::mem::replace(slot, true));
                    tally.check(fresh && wc.byte_len == bytes as u32);
                    reordered += u64::from(wc.imm != Some(received as u32));
                    received += 1;
                    if posted < messages {
                        post_recv(&mut tally, posted);
                        posted += 1;
                    }
                }
                // The stream is quiet: every slot must hold the sender's
                // seeded fill. (A slot is written `messages / SLOTS` times
                // with the same bytes; that each write happened is what the
                // per-message checks above cover.)
                for slot in 0..slots {
                    let intact = ep.slots.read_vec(slot * STRIDE, bytes).is_ok_and(|got| {
                        got.iter()
                            .enumerate()
                            .all(|(k, b)| *b == slot_byte(seed, slot, k))
                    });
                    tally.check(intact);
                }
            }
            Cmd::PingPong { round_trips } => {
                post_recv(&mut tally, 0);
                let _ = replies.send(Reply::Ready);
                let deadline = Instant::now() + PHASE_DEADLINE;
                let mut acked = 0u64;
                for i in 0..round_trips {
                    if next_cqe(&ep.recv_cq, deadline, abort, &mut tally).is_none() {
                        break;
                    }
                    if i + 1 < round_trips {
                        post_recv(&mut tally, i + 1);
                    }
                    let pong = || {
                        ep.write_wr(
                            i,
                            ep.pong.addr(),
                            ep.pong.lkey(),
                            SMALL,
                            peer.pong_addr,
                            peer.pong_rkey,
                        )
                    };
                    if !post_windowed(ep, pong, deadline, abort, &mut tally, &mut acked) {
                        break;
                    }
                    reap_sends(ep, &mut tally, &mut acked);
                }
            }
        }
        if replies.send(Reply::Done { tally, reordered }).is_err() {
            return;
        }
    }
    abort.store(true, Ordering::Release);
}

/// Rank A's handle on a connected pair.
struct Session<'a> {
    a: &'a Endpoint,
    peer: Hello,
    cmds: Sender<Cmd>,
    replies: Receiver<Reply>,
    abort: &'a AtomicBool,
    /// Checks made on either side so far.
    tally: Tally,
    /// Messages B received out of posting order so far.
    reordered: u64,
}

impl Session<'_> {
    fn await_reply(&mut self) -> Option<Reply> {
        let reply = self.replies.recv_timeout(PHASE_DEADLINE).ok();
        if !self.tally.check(reply.is_some()) {
            self.abort.store(true, Ordering::Release);
        }
        reply
    }

    fn finish_phase(&mut self) {
        if let Some(Reply::Done { tally, reordered }) = self.await_reply() {
            self.tally.add(tally);
            self.reordered += reordered;
        }
    }

    /// Stream `messages` of `bytes`; seconds from first post to last
    /// send-side completion, i.e. including the ack round trip.
    fn stream(&mut self, bytes: usize, messages: u64) -> f64 {
        let _ = self.cmds.send(Cmd::Stream { bytes, messages });
        if !matches!(self.await_reply(), Some(Reply::Ready)) {
            return f64::NAN;
        }
        let (a, peer) = (self.a, self.peer);
        let deadline = Instant::now() + PHASE_DEADLINE;
        let mut completed = 0u64;
        let mut tally = Tally::default();
        let t0 = Instant::now();
        for j in 0..messages {
            let off = ((j % SLOTS as u64) as usize * STRIDE) as u64;
            let wr = || {
                a.write_wr(
                    j,
                    a.slots.addr() + off,
                    a.slots.lkey(),
                    bytes,
                    peer.addr + off,
                    peer.rkey,
                )
            };
            if !post_windowed(a, wr, deadline, self.abort, &mut tally, &mut completed) {
                break;
            }
            reap_sends(a, &mut tally, &mut completed);
        }
        while completed < messages {
            if next_cqe(&a.send_cq, deadline, self.abort, &mut tally).is_none() {
                break;
            }
            completed += 1;
        }
        let wall = t0.elapsed().as_secs_f64();
        self.tally.add(tally);
        self.finish_phase();
        wall
    }

    /// `round_trips` 64 B ping-pongs; each round trip's ns.
    fn ping_pong(&mut self, round_trips: u64) -> Vec<f64> {
        let _ = self.cmds.send(Cmd::PingPong { round_trips });
        if !matches!(self.await_reply(), Some(Reply::Ready)) {
            return Vec::new();
        }
        let (a, peer) = (self.a, self.peer);
        let deadline = Instant::now() + PHASE_DEADLINE;
        let mut tally = Tally::default();
        let mut rtts = Vec::with_capacity(round_trips as usize);
        let mut acked = 0u64;
        tally.check(a.qp.post_recv(RecvWr::bare(0)).is_ok());
        for i in 0..round_trips {
            let ping = || {
                a.write_wr(
                    i,
                    a.pong.addr(),
                    a.pong.lkey(),
                    SMALL,
                    peer.pong_addr,
                    peer.pong_rkey,
                )
            };
            let t0 = Instant::now();
            if !post_windowed(a, ping, deadline, self.abort, &mut tally, &mut acked)
                || next_cqe(&a.recv_cq, deadline, self.abort, &mut tally).is_none()
            {
                break;
            }
            rtts.push(t0.elapsed().as_nanos() as f64);
            if i + 1 < round_trips {
                tally.check(a.qp.post_recv(RecvWr::bare(i + 1)).is_ok());
            }
            reap_sends(a, &mut tally, &mut acked);
        }
        self.tally.add(tally);
        self.finish_phase();
        rtts
    }
}

/// Bring two ranks up in `dir`, hand rank A's session to `body`, and tear
/// everything down. Returns `body`'s result, the checks both ranks made, and
/// the seconds bring-up took up to the first completed round trip.
fn with_session<R>(
    dir: &Path,
    seed: u64,
    body: impl FnOnce(&mut Session, &Endpoint, &Endpoint) -> R,
) -> Result<(R, Tally, f64), String> {
    std::fs::create_dir_all(dir).map_err(io("create segment dir"))?;
    let t0 = Instant::now();
    let a = Endpoint::create(dir, 0)?;
    let b = Endpoint::create(dir, 1)?;
    // A's stream source is filled once and then frozen.
    for s in 0..SLOTS {
        let bytes: Vec<u8> = (0..STRIDE).map(|k| slot_byte(seed, s, k)).collect();
        a.slots.write(s * STRIDE, &bytes).map_err(io("fill slot"))?;
    }
    let abort = AtomicBool::new(false);
    let (cmd_tx, cmd_rx) = channel();
    let (reply_tx, reply_rx) = channel();
    let (hello_a, hello_b) = (a.hello(), b.hello());

    let out: Result<(R, Tally, f64), String> = std::thread::scope(|scope| {
        let b_thread = scope.spawn(|| {
            b.connect(1, 0, hello_a, false)?;
            rank_b(&b, hello_a, seed, cmd_rx, reply_tx, &abort);
            Ok::<(), String>(())
        });
        let connected = a.connect(0, 1, hello_b, true);
        let mut session = Session {
            a: &a,
            peer: hello_b,
            cmds: cmd_tx,
            replies: reply_rx,
            abort: &abort,
            tally: Tally::default(),
            reordered: 0,
        };
        let result = connected.map(|()| {
            // Bring-up ends with the first message each way.
            session.ping_pong(1);
            let setup_s = t0.elapsed().as_secs_f64();
            (body(&mut session, &a, &b), setup_s)
        });
        let _ = session.cmds.send(Cmd::Quit);
        if result.is_err() {
            abort.store(true, Ordering::Release);
        }
        let b_result = b_thread
            .join()
            .unwrap_or_else(|_| Err("rank B panicked".into()));
        let (r, setup_s) = result?;
        b_result?;
        Ok((r, session.tally, setup_s))
    });
    let quiet = a.shut_down() & b.shut_down();
    let _ = std::fs::remove_dir_all(dir);
    let (r, mut tally, setup_s) = out?;
    tally.check(quiet);
    Ok((r, tally, setup_s))
}

/// Fabric counters of both ranks, summed.
#[derive(Clone, Copy, Default)]
struct Counters {
    iterations: u64,
    wakeups: u64,
    stalls: u64,
    retransmits: u64,
    rnr: u64,
}

impl Counters {
    fn read(a: &Endpoint, b: &Endpoint) -> Counters {
        let sum = |f: fn(&ShmFabric) -> u64| f(&a.fabric) + f(&b.fabric);
        Counters {
            iterations: sum(ShmFabric::progress_iterations),
            wakeups: sum(ShmFabric::progress_wakeups),
            stalls: sum(ShmFabric::ring_full_stalls),
            retransmits: sum(ShmFabric::retransmits),
            rnr: sum(ShmFabric::rnr_deferrals),
        }
    }
}

/// Add what the counters grew by between `before` and `after` to `total`.
fn add_growth(total: &mut Counters, before: Counters, after: Counters) {
    total.iterations += after.iterations - before.iterations;
    total.wakeups += after.wakeups - before.wakeups;
    total.stalls += after.stalls - before.stalls;
    total.retransmits += after.retransmits - before.retransmits;
    total.rnr += after.rnr - before.rnr;
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let root: PathBuf = ctx.scratch.join("shm");
    ctx.report.note(
        "loopback on one host, never a real link: two driver threads + two progress threads".into(),
    );

    let small_msgs = ctx.scaled(SMALL_MSGS);
    let large_msgs = ctx.scaled(LARGE_MSGS);
    let round_trips = ctx.scaled(ROUND_TRIPS);
    let (mut p50_us, mut one_way_us) = (Vec::new(), Vec::new());
    // Counter deltas over phase a, over phase c, and over everything timed.
    let (mut stream, mut ping, mut all) = <(Counters, Counters, Counters)>::default();
    let measured = with_session(&root.join("run"), seed, |session, a, b| {
        // Warm-up: a short pass over each phase.
        session.stream(SMALL, small_msgs / 4 + 1);
        session.stream(STRIDE, large_msgs / 4 + 1);
        session.ping_pong(round_trips / 4 + 1);

        let reps = repeat(ctx, 5, |ctx| {
            let c0 = Counters::read(a, b);
            let small_s = ctx
                .tracer
                .span("shm.stream_small", |_| session.stream(SMALL, small_msgs));
            let c1 = Counters::read(a, b);
            let large_s = ctx
                .tracer
                .span("shm.stream_large", |_| session.stream(STRIDE, large_msgs));
            let c2 = Counters::read(a, b);
            let (rtts, ping_s) = ctx
                .tracer
                .span("shm.ping_pong", |_| secs(|| session.ping_pong(round_trips)));
            let c3 = Counters::read(a, b);
            add_growth(&mut stream, c0, c1);
            add_growth(&mut ping, c2, c3);
            add_growth(&mut all, c0, c3);
            if !rtts.is_empty() {
                let mut one_way: Vec<f64> = rtts.iter().map(|ns| ns / 2e3).collect();
                one_way.sort_by(f64::total_cmp);
                p50_us.push(percentile_sorted(&one_way, 5_000));
                one_way_us.extend(one_way);
            }
            [small_s, large_s, ping_s]
        });
        (reps, session.reordered)
    });
    let ((reps, reordered), tally, s) = match measured {
        Ok(x) => x,
        Err(e) => return ctx.report.check(false, &e),
    };
    ctx.report.tally(
        tally,
        "posts, completion statuses, arrivals (once and whole), slot payloads, deadlines",
    );

    // Set-up: a complete bring-up to the first round trip (tear-down
    // untimed) — the measured session's own, and eight more. These come
    // after it, not before: what an earlier session leaves in the allocator
    // moves the peak memory of the next by a tenth, and `peak_rss_mb` is
    // taken during the measured one.
    let mut setup_s = vec![s];
    for i in 0..if ctx.args.quick { 2 } else { 8 } {
        match with_session(&root.join(format!("setup{i}")), seed, |_, _, _| ()) {
            Ok(((), tally, s)) => {
                ctx.report.tally(tally, "bring-up and tear-down checks");
                setup_s.push(s);
            }
            Err(e) => return ctx.report.check(false, &e),
        }
    }
    ctx.report.set("setup_s", median(&setup_s));
    if reps.plain.iter().flatten().any(|s| !s.is_finite()) || p50_us.is_empty() {
        return ctx.report.check(false, "a phase did not start");
    }

    let n = reps.count();
    let msgs_per_s = small_msgs as f64 / reps.part_s(0);
    let gb_per_s = large_msgs as f64 * STRIDE as f64 / 1e9 / reps.part_s(1);
    let (tail_p, tail_us) = tail(&one_way_us);
    ctx.report.set("work_per_s", msgs_per_s);
    ctx.report.note(format!(
        "phase a 64 B x {}: {msgs_per_s:.0} msgs/s; phase b 64 KiB x {large_msgs}: {gb_per_s:.3} GB/s; \
         phase c ping-pong: one-way p50 {:.1} us (median of {} per-repetition p50s), \
         p{tail_p} {tail_us:.1} us over {} round trips",
        small_msgs,
        median(&p50_us),
        p50_us.len(),
        one_way_us.len(),
    ));

    if ctx.args.trace {
        ctx.report.set("verbs.shm.stream_msgs_per_s", msgs_per_s);
        ctx.report.set("verbs.shm.stream_gb_per_s", gb_per_s);
        ctx.report.set("verbs.shm.oneway_p50_us", median(&p50_us));
        ctx.report.set("verbs.shm.oneway_tail_us", tail_us);
        let timed = n as f64;
        ctx.report.set(
            "verbs.shm.progress_iters_per_msg",
            stream.iterations as f64 / (timed * small_msgs as f64),
        );
        ctx.report.set(
            "verbs.shm.wakeups_per_msg",
            ping.wakeups as f64 / (timed * 2.0 * round_trips as f64),
        );
        ctx.report
            .set("verbs.shm.ring_full_stalls", all.stalls as f64 / timed);
        ctx.report
            .set("verbs.shm.retransmits", all.retransmits as f64 / timed);
        ctx.report
            .set("verbs.shm.rnr_deferrals", all.rnr as f64 / timed);
        ctx.report
            .set("verbs.shm.out_of_order", reordered as f64 / timed);
        probes::shm_rings(ctx);
        probes::memory_copy(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_slot_payload() {
        let fill = |seed| -> Vec<u8> { (0..256).map(|k| slot_byte(seed, 3, k)).collect() };
        assert_eq!(fill(1), fill(1));
        assert_ne!(fill(1), fill(2));
        assert_ne!(slot_byte(1, 3, 0), slot_byte(1, 4, 0));
    }
}
