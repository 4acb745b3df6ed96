//! Shared helpers for the cross-crate system tests (the tests themselves
//! live in `tests/tests/`).

use partix_core::{MemoryRegion, PartixConfig, PrecvRequest, Proc, PsendRequest, World};

pub mod alloc_count;

/// A matched send/receive pair over two ranks of a fresh instant world.
pub struct InstantPair {
    /// The world (kept alive for the requests).
    pub world: World,
    /// Sender process.
    pub p0: Proc,
    /// Receiver process.
    pub p1: Proc,
    /// Send request.
    pub send: PsendRequest,
    /// Receive request.
    pub recv: PrecvRequest,
    /// Sender buffer.
    pub sbuf: MemoryRegion,
    /// Receiver buffer.
    pub rbuf: MemoryRegion,
}

/// Build an instant-fabric pair with the given configuration and shape.
pub fn instant_pair(cfg: PartixConfig, partitions: u32, part_bytes: usize) -> InstantPair {
    let world = World::instant(2, cfg);
    let (sbuf, rbuf, send, recv) = pair(&world, partitions, part_bytes);
    let (p0, p1) = (world.proc(0), world.proc(1));
    InstantPair {
        world,
        p0,
        p1,
        send,
        recv,
        sbuf,
        rbuf,
    }
}

/// Send buffer, receive buffer, send request, receive request.
pub type Ends = (MemoryRegion, MemoryRegion, PsendRequest, PrecvRequest);

/// Join ranks 0 and 1 of `world` by a request pair of the given shape (tag 0).
pub fn pair(world: &World, partitions: u32, part_bytes: usize) -> Ends {
    let (p0, p1) = (world.proc(0), world.proc(1));
    let total = partitions as usize * part_bytes;
    let sbuf = p0.alloc_buffer(total).expect("send buffer");
    let rbuf = p1.alloc_buffer(total).expect("recv buffer");
    let send = p0.psend_init(&sbuf, partitions, part_bytes, 1, 0);
    let recv = p1.precv_init(&rbuf, partitions, part_bytes, 0, 0);
    (
        sbuf,
        rbuf,
        send.expect("psend_init"),
        recv.expect("precv_init"),
    )
}

/// Deterministic pattern byte for (round, partition).
pub fn pattern(round: u64, partition: u32) -> u8 {
    (round as u8).wrapping_mul(31) ^ (partition as u8).wrapping_mul(7) ^ 0x5A
}
