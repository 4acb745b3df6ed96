//! Two-process sustained-throughput benchmark over the real-time
//! shared-memory fabric. Writes `results/BENCH_shm.json`.
//!
//! ```text
//! shm_exchange [--smoke] [--out DIR]
//! ```
//!
//! The parent process is rank A (node 0); it re-executes itself as rank B
//! (node 1) with `--role b`. The two processes bootstrap exactly like a
//! real verbs deployment: each registers memory, creates a QP, publishes
//! its QP number / rkey / buffer address as an out-of-band blob in the
//! shared tmpfs directory, opens the directed shm channel
//! (`open_tx`/`open_rx` with the file-segment attach handshake), and then
//! A streams RDMA-write-with-immediate messages into B's slot buffer with
//! a 16-WR window while B consumes receive CQEs and verifies payload
//! bytes. Throughput is measured on A from first post to last send-side
//! completion — i.e. it includes B's release of each record and A's read of
//! it, not just enqueue rate. A rank's empty CQ poll runs one scan of its own
//! fabric, so each rank moves its own side of the wire, and then the rank
//! `yield_now()`s: the two ranks are the only threads, and share the host's
//! cores with each other.
//!
//! `connect_s` is the bring-up: from spawning rank B to rank A's first send
//! completion, which comes once the first message has landed in a receive B
//! posted and A has seen B release its record. It holds B's start-up, both
//! blob exchanges and both channel opens.
//!
//! The JSON names the host (CPU model, architecture, OS, CPU count). Per row
//! it records sustained msgs/s and GB/s plus what that row added to the
//! fabric's reliability counters on both sides (retransmits and ring-full
//! backpressure stalls on the sender; records consumed, RNR deferrals and
//! out-of-order arrivals on the receiver), so a "fast" run that silently
//! leaned on the retry machinery is visible as such.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use partix_verbs::shm::{await_blob, default_shm_dir, publish_blob, Endpoint};
use partix_verbs::telemetry::{write_json, Json};
use partix_verbs::{
    Network, Opcode, PeerId, QpCaps, QpState, RecvWr, SendWr, Sge, ShmConfig, ShmFabric,
    VerbsError, WcStatus, WorkCompletion,
};

/// Receive-window slots (and the sender's source slots): message `j` lands
/// in slot `j % SLOTS`, so with a 16-WR send window a slot is never
/// rewritten while its previous occupant could still be unverified.
const SLOTS: usize = 32;
/// Slot stride: the largest message size benchmarked.
const STRIDE: usize = 64 << 10;
/// Sender window (the QP's hardware cap).
const WINDOW: u64 = 16;
/// Receive WRs kept posted ahead of the sender.
const RECV_DEPTH: u64 = 256;

/// QP caps for both ends: the defaults, whose `rnr_retry = 7` `ShmFabric`
/// honours as "retry indefinitely" — a receiver that is late reposting (on a
/// host with fewer CPUs than this bench's two threads, one waiting its turn
/// to run) holds the sender back, and only one that stays away for the
/// fabric's stall deadline fails it — on a 2 ms RNR timer. The timer is no
/// budget, only how soon a delivery that found no receive WR looks again;
/// 2 ms is what `results/BENCH_shm.json` and the benchmark's `shm_exchange`
/// workload were recorded with.
fn bench_caps() -> QpCaps {
    QpCaps {
        min_rnr_timer_ns: 2_000_000,
        ..QpCaps::default()
    }
}

/// Deterministic payload byte `k` of slot `s`.
fn slot_byte(s: usize, k: usize) -> u8 {
    (s.wrapping_mul(131).wrapping_add(k.wrapping_mul(7)) & 0xff) as u8
}

fn rows(smoke: bool) -> Vec<(usize, u64)> {
    if smoke {
        vec![(64, 5_000), (4096, 1_000), (STRIDE, 200)]
    } else {
        vec![(64, 200_000), (4096, 50_000), (STRIDE, 5_000)]
    }
}

struct RowResult {
    msg_bytes: usize,
    messages: u64,
    wall_s: f64,
    msgs_per_sec: f64,
    gb_per_sec: f64,
    sender_retransmits: u64,
    sender_ring_full_stalls: u64,
    receiver_report: String,
}

fn parse_kv(report: &str, key: &str) -> Option<u64> {
    report.split_whitespace().find_map(|pair| {
        pair.strip_prefix(&format!("{key}="))
            .and_then(|v| v.parse().ok())
    })
}

/// Await the peer's endpoint blob. It is another process's output: a
/// malformed one ends this rank with the parser's diagnostic.
fn await_endpoint(dir: &Path, name: &str) -> Endpoint {
    let blob = await_blob(dir, name, Duration::from_secs(60)).expect("await peer endpoint");
    Endpoint::parse(&blob).unwrap_or_else(|e| {
        eprintln!("shm_exchange: {name}: {e}");
        std::process::exit(1);
    })
}

/// Count a send completion, which must be a success, and stamp the first.
fn reap(wc: &WorkCompletion, completed: &mut u64, first: &mut Option<Instant>) {
    assert_eq!(wc.status, WcStatus::Success, "send {}", wc.wr_id);
    *completed += 1;
    first.get_or_insert_with(Instant::now);
}

/// Rank A: the sender / orchestrator. `spawned` is when rank B was started.
fn role_a(dir: &Path, smoke: bool, out: &Path, spawned: Instant) {
    let fabric = ShmFabric::host(dir.to_path_buf(), ShmConfig::default());
    let net = Network::new(2, fabric.clone() as Arc<dyn partix_verbs::Fabric>);
    let a = net.open(0).expect("node 0");
    let pd = a.alloc_pd();
    let (send_cq, recv_cq) = (a.create_cq(), a.create_cq());
    let qa = a
        .create_qp(pd, send_cq.clone(), recv_cq, bench_caps())
        .expect("qp a");
    let src = a.reg_mr(pd, SLOTS * STRIDE).expect("source slots");
    for s in 0..SLOTS {
        let bytes: Vec<u8> = (0..STRIDE).map(|k| slot_byte(s, k)).collect();
        src.write(s * STRIDE, &bytes).expect("fill slot");
    }

    let ep_a = Endpoint {
        qp: qa.qp_num(),
        rkey: src.rkey(),
        addr: src.addr(),
    };
    publish_blob(dir, "ep_a", &ep_a.encode()).expect("publish ep_a");
    let Endpoint {
        qp: qb_num,
        rkey,
        addr: base_addr,
    } = await_endpoint(dir, "ep_b");

    qa.modify(QpState::Init).expect("init");
    qa.modify_to_rtr(PeerId {
        node: 1,
        qp_num: qb_num,
    })
    .expect("rtr");
    qa.modify_to_rts().expect("rts");
    fabric
        .open_tx((0, qa.qp_num()), (1, qb_num), Duration::from_secs(60))
        .expect("open data channel");

    let mut results: Vec<RowResult> = Vec::new();
    let mut first_completion = None;
    for (cfg_idx, (msg_bytes, messages)) in rows(smoke).iter().copied().enumerate() {
        // B pre-posts its receive window, then signals readiness.
        let rdy = format!("rdy_{cfg_idx}_b");
        await_blob(dir, &rdy, Duration::from_secs(60)).expect("await receiver ready");

        let stalls0 = fabric.ring_full_stalls();
        let retrans0 = fabric.retransmits();
        let mut completed = 0u64;
        let t0 = Instant::now();
        for j in 0..messages {
            let slot = (j % SLOTS as u64) as usize;
            let wr = SendWr {
                wr_id: j,
                opcode: Opcode::RdmaWriteWithImm,
                sg_list: vec![Sge {
                    addr: src.addr() + (slot * STRIDE) as u64,
                    length: msg_bytes as u32,
                    lkey: src.lkey(),
                }],
                remote_addr: base_addr + (slot * STRIDE) as u64,
                rkey,
                imm: Some(j as u32),
                inline_data: false,
                flow: 0,
            };
            // Window at the QP cap: on a full queue, reap completions.
            let mut wr = Some(wr);
            loop {
                match qa.post_send(wr.take().expect("wr")) {
                    Ok(()) => break,
                    Err(VerbsError::SendQueueFull { .. }) => {
                        loop {
                            if let Some(wc) = send_cq.poll_one() {
                                reap(&wc, &mut completed, &mut first_completion);
                                break;
                            }
                            std::thread::yield_now();
                        }
                        // post_send admitted nothing on a full queue but
                        // took the WR by value, so rebuild it.
                        wr = Some(SendWr {
                            wr_id: j,
                            opcode: Opcode::RdmaWriteWithImm,
                            sg_list: vec![Sge {
                                addr: src.addr() + (slot * STRIDE) as u64,
                                length: msg_bytes as u32,
                                lkey: src.lkey(),
                            }],
                            remote_addr: base_addr + (slot * STRIDE) as u64,
                            rkey,
                            imm: Some(j as u32),
                            inline_data: false,
                            flow: 0,
                        });
                    }
                    Err(e) => panic!("post {j}: {e}"),
                }
            }
            // Opportunistic reap keeps the queue from hard-filling.
            while let Some(wc) = send_cq.poll_one() {
                reap(&wc, &mut completed, &mut first_completion);
            }
        }
        while completed < messages {
            match send_cq.poll_one() {
                Some(wc) => reap(&wc, &mut completed, &mut first_completion),
                None => std::thread::yield_now(),
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();

        let done = format!("done_{cfg_idx}_b");
        let report = String::from_utf8(
            await_blob(dir, &done, Duration::from_secs(60)).expect("await receiver done"),
        )
        .expect("utf8 done");
        let received = parse_kv(&report, "received").unwrap_or(0);
        assert_eq!(received, messages, "receiver lost messages: {report}");
        assert_eq!(
            parse_kv(&report, "verify_failures").unwrap_or(u64::MAX),
            0,
            "receiver verification failed: {report}"
        );

        let row = RowResult {
            msg_bytes,
            messages,
            wall_s,
            msgs_per_sec: messages as f64 / wall_s,
            gb_per_sec: (messages as f64 * msg_bytes as f64) / wall_s / 1e9,
            sender_retransmits: fabric.retransmits() - retrans0,
            sender_ring_full_stalls: fabric.ring_full_stalls() - stalls0,
            receiver_report: report.trim().to_string(),
        };
        println!(
            "{:>7} B x {:>7}: {:>10.0} msgs/s {:>8.3} GB/s  (wall {:.3}s, stalls {}, retrans {})",
            row.msg_bytes,
            row.messages,
            row.msgs_per_sec,
            row.gb_per_sec,
            row.wall_s,
            row.sender_ring_full_stalls,
            row.sender_retransmits
        );
        results.push(row);
    }

    publish_blob(dir, "shutdown_a", b"bye").expect("publish shutdown");
    let connect_s = (first_completion.expect("a row completed a send") - spawned).as_secs_f64();
    println!("connect {:.3} ms", connect_s * 1e3);
    let path = out.join("BENCH_shm.json");
    let doc = bench_json(smoke, connect_s, &results, &fabric.sample_gauges());
    write_json(&path, &doc).expect("write BENCH_shm.json");
    println!("wrote {}", path.display());
    assert!(
        fabric.quiesce(Duration::from_secs(10)),
        "sender fabric failed to quiesce"
    );
    fabric.shutdown();
}

/// Rank B: the receiver.
fn role_b(dir: &Path, smoke: bool) {
    let fabric = ShmFabric::host(dir.to_path_buf(), ShmConfig::default());
    let net = Network::new(2, fabric.clone() as Arc<dyn partix_verbs::Fabric>);
    let b = net.open(1).expect("node 1");
    let pd = b.alloc_pd();
    let (send_cq, recv_cq) = (b.create_cq(), b.create_cq());
    let qb = b
        .create_qp(pd, send_cq, recv_cq.clone(), bench_caps())
        .expect("qp b");
    let dst = b.reg_mr(pd, SLOTS * STRIDE).expect("slot buffer");

    let ep_b = Endpoint {
        qp: qb.qp_num(),
        rkey: dst.rkey(),
        addr: dst.addr(),
    };
    publish_blob(dir, "ep_b", &ep_b.encode()).expect("publish ep_b");
    let qa_num = await_endpoint(dir, "ep_a").qp;

    qb.modify(QpState::Init).expect("init");
    qb.modify_to_rtr(PeerId {
        node: 0,
        qp_num: qa_num,
    })
    .expect("rtr");
    qb.modify_to_rts().expect("rts");
    // Receive-only process: give the fabric its delivery target
    // before any record can arrive.
    fabric.attach_network(net.state());
    fabric
        .open_rx((0, qa_num), (1, qb.qp_num()), Duration::from_secs(60))
        .expect("open data channel");

    for (cfg_idx, (msg_bytes, messages)) in rows(smoke).iter().copied().enumerate() {
        // The fabric's counters are cumulative; a row reports what it added.
        let (records0, rnr0) = (fabric.data_records(), fabric.rnr_deferrals());
        let mut posted = 0u64;
        while posted < RECV_DEPTH.min(messages) {
            qb.post_recv(RecvWr::bare(posted)).expect("pre-post recv");
            posted += 1;
        }
        publish_blob(dir, &format!("rdy_{cfg_idx}_b"), b"ready").expect("publish ready");

        let mut received = 0u64;
        let mut out_of_order = 0u64;
        while received < messages {
            match recv_cq.poll_one() {
                Some(wc) => {
                    if wc.imm != Some(received as u32) {
                        out_of_order += 1;
                    }
                    assert_eq!(wc.byte_len, msg_bytes as u32, "recv {}", received);
                    received += 1;
                    if posted < messages {
                        qb.post_recv(RecvWr::bare(posted)).expect("repost recv");
                        posted += 1;
                    }
                }
                None => std::thread::yield_now(),
            }
        }
        // The stream is quiet: spot-verify the final window's slots
        // against the sender's deterministic fill.
        let tail = messages.min(SLOTS as u64);
        let mut verify_failures = 0u64;
        for j in (messages - tail)..messages {
            let slot = (j % SLOTS as u64) as usize;
            let got = dst.read_vec(slot * STRIDE, msg_bytes).expect("read slot");
            if !(0..msg_bytes).all(|k| got[k] == slot_byte(slot, k)) {
                verify_failures += 1;
            }
        }
        publish_blob(
            dir,
            &format!("done_{cfg_idx}_b"),
            format!(
                "received={received} out_of_order={out_of_order} \
                 verify_failures={verify_failures} data_records={} \
                 rnr_deferrals={}",
                fabric.data_records() - records0,
                fabric.rnr_deferrals() - rnr0
            )
            .as_bytes(),
        )
        .expect("publish done");
    }

    await_blob(dir, "shutdown_a", Duration::from_secs(60)).expect("await shutdown");
    fabric.shutdown();
}

/// What this host is, for the record: the CPU model `/proc/cpuinfo` names
/// (where there is one), the architecture and the OS.
fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map_or("unknown CPU", |(_, name)| name.trim());
    let (arch, os) = (std::env::consts::ARCH, std::env::consts::OS);
    format!("{model}, {arch}-{os}")
}

/// The `BENCH_shm.json` document. `receiver_report` is text the peer process
/// published; the writer's escaping is what keeps the file parseable.
fn bench_json(
    smoke: bool,
    connect_s: f64,
    results: &[RowResult],
    fabric_gauges: &[(&'static str, u64)],
) -> Json {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let row = |r: &RowResult| {
        Json::obj([
            ("msg_bytes", r.msg_bytes.into()),
            ("messages", r.messages.into()),
            ("wall_s", r.wall_s.into()),
            ("msgs_per_sec", r.msgs_per_sec.into()),
            ("gb_per_sec", r.gb_per_sec.into()),
            ("sender_retransmits", r.sender_retransmits.into()),
            ("sender_ring_full_stalls", r.sender_ring_full_stalls.into()),
            ("receiver_report", r.receiver_report.as_str().into()),
        ])
    };
    let gauges = fabric_gauges.iter().map(|&(name, v)| (name, v.into()));
    Json::obj([
        ("bench", "shm_exchange".into()),
        ("smoke", smoke.into()),
        ("host", host().as_str().into()),
        ("host_cpus", host_cpus.into()),
        ("window", WINDOW.into()),
        ("slots", SLOTS.into()),
        ("connect_s", connect_s.into()),
        ("sender_fabric", Json::obj(gauges)),
        ("rows", Json::arr(results.iter().map(row))),
    ])
}

fn main() {
    let mut role = String::from("a");
    let mut smoke = false;
    let mut out = PathBuf::from("results");
    let mut dir: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--role" => role = it.next().expect("--role requires a value"),
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(it.next().expect("--out requires a value")),
            "--dir" => dir = Some(PathBuf::from(it.next().expect("--dir requires a value"))),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    match role.as_str() {
        "b" => {
            let dir = dir.expect("--dir is required for --role b");
            role_b(&dir, smoke);
        }
        "a" => {
            let dir = dir.unwrap_or_else(|| {
                default_shm_dir().join(format!("partix_shm_exchange_{}", std::process::id()))
            });
            std::fs::create_dir_all(&dir).expect("create work dir");
            let exe = std::env::current_exe().expect("own path");
            let mut cmd = Command::new(exe);
            cmd.arg("--role").arg("b").arg("--dir").arg(&dir);
            if smoke {
                cmd.arg("--smoke");
            }
            let spawned = Instant::now();
            let mut child = cmd.spawn().expect("spawn rank B");
            role_a(&dir, smoke, &out, spawned);
            let status = child.wait().expect("wait for rank B");
            assert!(status.success(), "rank B exited with {status:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        other => {
            eprintln!("unknown --role {other} (want a|b)");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_verbs::telemetry::parse_json;

    /// The peer's report is bytes from another process; at the parent a quote
    /// in it ended the string early and the file no longer parsed.
    #[test]
    fn a_hostile_receiver_report_round_trips() {
        let report = "received=\"1\" path=C:\\tmp\nverify_failures=0\t\u{1}";
        let row = RowResult {
            msg_bytes: 64,
            messages: 1,
            wall_s: 0.5,
            msgs_per_sec: 2.0,
            gb_per_sec: 1.28e-7,
            sender_retransmits: 0,
            sender_ring_full_stalls: u64::MAX,
            receiver_report: report.to_string(),
        };
        let doc = bench_json(true, 2.5e-3, &[row], &[("progress_iterations", 7)]);
        let back = parse_json(&doc.to_string()).expect("BENCH_shm.json parses");
        assert_eq!(back, doc);
        let row = &back.get("rows").and_then(Json::as_arr).expect("rows")[0];
        assert_eq!(
            row.get("receiver_report").and_then(Json::as_str),
            Some(report)
        );
        assert_eq!(
            row.get("sender_ring_full_stalls"),
            Some(&Json::Big(u64::MAX))
        );
    }
}
