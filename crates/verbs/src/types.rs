//! Core verbs data types: opcodes, work requests, completions, QP states.

/// Node identifier within a [`Network`](crate::Network) (one per simulated
/// host/NIC pair).
pub type NodeId = u32;

/// Work-request opcodes: the two RDMA writes. `RdmaWriteWithImm` is the
/// paper's one operation (§IV-A); every transfer is a one-sided write into
/// the target's registered memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// One-sided RDMA write; no receive-side completion. An immediate on
    /// the WR is dropped at post time.
    RdmaWrite,
    /// One-sided RDMA write that consumes a posted receive WR on the target
    /// and delivers the 32-bit immediate in the receive completion.
    RdmaWriteWithImm,
}

/// QP state machine states (the subset of the IB spec the design exercises).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QpState {
    /// Freshly created.
    Reset,
    /// Initialised (receives may be posted).
    Init,
    /// Ready to receive.
    ReadyToReceive,
    /// Ready to send (fully connected).
    ReadyToSend,
    /// Error state.
    Error,
}

/// A scatter/gather element: a range of a locally registered memory region.
/// `addr` is the byte address within the node's NIC address space (as
/// returned by registration), not an offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sge {
    /// NIC-visible start address of the range.
    pub addr: u64,
    /// Length in bytes.
    pub length: u32,
    /// Local key of the containing memory region.
    pub lkey: u32,
}

/// A send work request.
#[derive(Clone, Debug)]
pub struct SendWr {
    /// Caller-chosen identifier echoed in the completion.
    pub wr_id: u64,
    /// Operation to perform.
    pub opcode: Opcode,
    /// Local data layout (gather list).
    pub sg_list: Vec<Sge>,
    /// NIC-visible destination address on the remote node.
    pub remote_addr: u64,
    /// Remote key authorising the write.
    pub rkey: u32,
    /// Immediate data (required for [`Opcode::RdmaWriteWithImm`]).
    pub imm: Option<u32>,
    /// `IBV_SEND_INLINE`: the payload is copied into the WQE at post time,
    /// so the source buffer may be reused immediately and the NIC skips
    /// the gather DMA (the small-message fast lane the paper's module
    /// deliberately does not use). Requires `total length <=
    /// QpCaps::max_inline_data`.
    pub inline_data: bool,
    /// Causal-trace flow identifier minted by the aggregation layer, or 0
    /// when tracing is off. Carried onto the wire and echoed in both the
    /// send- and receive-side completions; retransmissions and recovery
    /// re-posts keep the original flow.
    pub flow: u64,
}

impl Default for SendWr {
    fn default() -> Self {
        SendWr {
            wr_id: 0,
            opcode: Opcode::RdmaWrite,
            sg_list: Vec::new(),
            remote_addr: 0,
            rkey: 0,
            imm: None,
            inline_data: false,
            flow: 0,
        }
    }
}

/// A receive work request. A write-with-immediate consumes one for its
/// completion only (the payload lands where the write addressed it), so a
/// receive WR is its id.
#[derive(Clone, Debug, Default)]
pub struct RecvWr {
    /// Caller-chosen identifier echoed in the completion.
    pub wr_id: u64,
}

impl RecvWr {
    /// A receive WR carrying `wr_id`.
    pub fn bare(wr_id: u64) -> Self {
        RecvWr { wr_id }
    }
}

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WcStatus {
    /// The work request completed successfully.
    Success,
    /// The remote key/address validation failed on the target.
    RemoteAccessError,
    /// The transport retry limit was exhausted without an acknowledgement
    /// (`IBV_WC_RETRY_EXC_ERR`): the wire dropped the transfer more than
    /// `retry_cnt` times in a row.
    RetryExceeded,
    /// The target had no receive WR posted after `rnr_retry` RNR-timer
    /// waits (`IBV_WC_RNR_RETRY_EXC_ERR`).
    RnrRetryExceeded,
    /// The WR is longer than the wire carries in one message
    /// ([`MAX_WR_BYTES`](crate::MAX_WR_BYTES)). No fabric produces it:
    /// every one carries a WR of that length.
    LocalLengthError,
}

/// Which queue the completion came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WcOpcode {
    /// Completion of a send-queue WR (an RDMA write, with or without an
    /// immediate).
    RdmaWrite,
    /// Completion of a receive-queue WR consumed by a write-with-immediate.
    RecvRdmaWithImm,
}

/// A work completion.
#[derive(Clone, Copy, Debug)]
pub struct WorkCompletion {
    /// The `wr_id` of the completed work request.
    pub wr_id: u64,
    /// Completion status.
    pub status: WcStatus,
    /// Completed operation kind.
    pub opcode: WcOpcode,
    /// Bytes transferred.
    pub byte_len: u32,
    /// Immediate data, if the operation carried one.
    pub imm: Option<u32>,
    /// QP number the completion belongs to (local).
    pub qp_num: u32,
    /// Causal-trace flow identifier of the originating WR (0 = untraced).
    pub flow: u64,
    /// Nanosecond timestamp at which the CQE was pushed, stamped by the
    /// fabric from the flow recorder's clock (0 when tracing is off). Lets
    /// the progress engine compute CQ-poll lag without a side table.
    pub pushed_ns: u64,
}

/// Big-endian 32-bit immediate helpers. The paper encodes the starting user
/// partition and the contiguous run length as two `u16`s packed into the
/// `__be32` immediate (paper §IV-A).
pub mod imm {
    /// Pack `(start_partition, run_length)` into a big-endian u32 immediate.
    #[inline]
    pub fn encode(start: u16, count: u16) -> u32 {
        u32::from_be(((start as u32) << 16 | count as u32).to_be())
    }

    /// Unpack an immediate into `(start_partition, run_length)`.
    #[inline]
    pub fn decode(imm: u32) -> (u16, u16) {
        let host = u32::from_be(imm.to_be());
        ((host >> 16) as u16, (host & 0xFFFF) as u16)
    }
}

impl QpState {
    /// Whether `self -> to` is a legal transition in our (simplified) state
    /// machine: Reset -> Init -> RTR -> RTS, any state -> Error, Error/any ->
    /// Reset.
    pub fn can_transition_to(self, to: QpState) -> bool {
        use QpState::*;
        matches!(
            (self, to),
            (Reset, Init)
                | (Init, ReadyToReceive)
                | (ReadyToReceive, ReadyToSend)
                | (_, Error)
                | (_, Reset)
        )
    }

    /// Short conventional name, as used in telemetry snapshots.
    pub fn name(self) -> &'static str {
        match self {
            QpState::Reset => "RESET",
            QpState::Init => "INIT",
            QpState::ReadyToReceive => "RTR",
            QpState::ReadyToSend => "RTS",
            QpState::Error => "ERROR",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imm_round_trip() {
        for (s, c) in [(0u16, 1u16), (5, 3), (65535, 65535), (128, 0)] {
            assert_eq!(imm::decode(imm::encode(s, c)), (s, c));
        }
    }

    #[test]
    fn imm_layout_start_in_high_bits() {
        // start=1, count=2 must place start in the high half so contiguous
        // runs sort naturally.
        assert_eq!(imm::encode(1, 2), 0x0001_0002);
    }

    #[test]
    fn qp_transitions() {
        use QpState::*;
        assert!(Reset.can_transition_to(Init));
        assert!(Init.can_transition_to(ReadyToReceive));
        assert!(ReadyToReceive.can_transition_to(ReadyToSend));
        assert!(ReadyToSend.can_transition_to(Error));
        assert!(Error.can_transition_to(Reset));
        assert!(!Reset.can_transition_to(ReadyToSend));
        assert!(!Init.can_transition_to(ReadyToSend));
        assert!(!ReadyToSend.can_transition_to(Init));
    }
}
