//! Runtime error types.

use std::fmt;
use std::time::Duration;

use partix_verbs::VerbsError;

/// Errors surfaced by the partitioned-communication runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartixError {
    /// Operation requires an active (started, not yet completed) request.
    NotActive,
    /// `start` called while the previous round is still in flight.
    AlreadyActive,
    /// Partition index out of range.
    PartitionOutOfRange {
        /// Index supplied.
        index: u32,
        /// Partition count of the request.
        partitions: u32,
    },
    /// `pready` called twice for the same partition in one round.
    DoublePready {
        /// Offending partition.
        index: u32,
    },
    /// The channel to the peer has not finished asynchronous setup. In
    /// simulated mode, use `on_ready` to sequence; in instant mode this
    /// only occurs before the matching init was posted by the peer.
    ChannelNotReady,
    /// Partition count of zero, or above the immediate-encoding limit
    /// (u16::MAX, since the start index and run length are packed as two
    /// u16s into the 32-bit immediate).
    BadPartitionCount {
        /// Requested count.
        partitions: u32,
    },
    /// Partition size of zero bytes.
    ZeroPartitionSize,
    /// The registered buffer is smaller than `partitions * partition_bytes`.
    BufferTooSmall {
        /// Bytes required.
        required: usize,
        /// Bytes available.
        available: usize,
    },
    /// One partition is longer than the largest WR the world's fabric
    /// carries, so no transport plan can send it.
    PartitionTooLarge {
        /// Bytes per partition requested.
        part_bytes: usize,
        /// The fabric's largest WR.
        max_wr_bytes: u64,
    },
    /// The buffer belongs to a different node than the calling process.
    WrongNode,
    /// A `psend_init` and the `precv_init` it matched disagree on the
    /// partition count or size. The init that found the mismatch fails; the
    /// other stays queued for a partner that agrees with it.
    ShapeMismatch {
        /// The send's partitions and bytes per partition.
        send: (u32, usize),
        /// The receive's partitions and bytes per partition.
        recv: (u32, usize),
    },
    /// `wait` was called in simulated mode where blocking cannot advance
    /// virtual time.
    WouldBlockInSim,
    /// `wait_deadline` ran out of time; the request is still active.
    Timeout {
        /// The limit that ran out.
        limit: Duration,
        /// The request in one line: side, id, round, counts, QP states.
        state: String,
    },
    /// A work request completed with an error status.
    TransferFailed {
        /// Human-readable status.
        status: &'static str,
    },
    /// An underlying verbs call failed.
    Verbs(VerbsError),
}

impl fmt::Display for PartixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartixError::NotActive => write!(f, "request not active; call start() first"),
            PartixError::AlreadyActive => write!(f, "request already active"),
            PartixError::PartitionOutOfRange { index, partitions } => {
                write!(f, "partition {index} out of range (count {partitions})")
            }
            PartixError::DoublePready { index } => {
                write!(f, "pready called twice for partition {index}")
            }
            PartixError::ChannelNotReady => write!(f, "channel setup not complete"),
            PartixError::BadPartitionCount { partitions } => {
                write!(
                    f,
                    "invalid partition count {partitions} (must be 1..=65535)"
                )
            }
            PartixError::ZeroPartitionSize => write!(f, "partition size must be non-zero"),
            PartixError::BufferTooSmall {
                required,
                available,
            } => write!(
                f,
                "buffer too small: need {required} bytes, have {available}"
            ),
            PartixError::PartitionTooLarge {
                part_bytes,
                max_wr_bytes,
            } => write!(
                f,
                "partition of {part_bytes} bytes exceeds the fabric's largest WR of {max_wr_bytes} bytes"
            ),
            PartixError::WrongNode => write!(f, "buffer registered on a different node"),
            PartixError::ShapeMismatch { send, recv } => write!(
                f,
                "psend_init of {} x {} B does not match precv_init of {} x {} B",
                send.0, send.1, recv.0, recv.1
            ),
            PartixError::WouldBlockInSim => {
                write!(f, "wait() would block in simulated mode; use on_complete")
            }
            PartixError::Timeout { limit, state } => {
                write!(f, "wait timed out after {limit:?}: {state}")
            }
            PartixError::TransferFailed { status } => {
                write!(f, "transfer failed with status {status}")
            }
            PartixError::Verbs(e) => write!(f, "verbs error: {e}"),
        }
    }
}

impl std::error::Error for PartixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartixError::Verbs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VerbsError> for PartixError {
    fn from(e: VerbsError) -> Self {
        PartixError::Verbs(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, PartixError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    /// One instance of every variant, paired with a substring its `Display`
    /// output must carry.
    fn all_variants() -> Vec<(PartixError, &'static str)> {
        vec![
            (PartixError::NotActive, "not active"),
            (PartixError::AlreadyActive, "already active"),
            (
                PartixError::PartitionOutOfRange {
                    index: 9,
                    partitions: 8,
                },
                "partition 9 out of range (count 8)",
            ),
            (
                PartixError::DoublePready { index: 4 },
                "twice for partition 4",
            ),
            (PartixError::ChannelNotReady, "setup not complete"),
            (
                PartixError::BadPartitionCount { partitions: 0 },
                "invalid partition count 0",
            ),
            (PartixError::ZeroPartitionSize, "non-zero"),
            (
                PartixError::BufferTooSmall {
                    required: 1024,
                    available: 512,
                },
                "need 1024 bytes, have 512",
            ),
            (
                PartixError::PartitionTooLarge {
                    part_bytes: 600,
                    max_wr_bytes: 500,
                },
                "600 bytes exceeds the fabric's largest WR of 500 bytes",
            ),
            (PartixError::WrongNode, "different node"),
            (
                PartixError::ShapeMismatch {
                    send: (4, 64),
                    recv: (8, 64),
                },
                "psend_init of 4 x 64 B does not match precv_init of 8 x 64 B",
            ),
            (
                PartixError::WouldBlockInSim,
                "would block in simulated mode",
            ),
            (
                PartixError::Timeout {
                    limit: Duration::from_millis(50),
                    state: "recv request 1: round 1".into(),
                },
                "timed out after 50ms: recv request 1: round 1",
            ),
            (
                PartixError::TransferFailed {
                    status: "transport retries exhausted",
                },
                "transport retries exhausted",
            ),
            (
                PartixError::Verbs(VerbsError::RecvQueueFull),
                "verbs error: receive queue full",
            ),
        ]
    }

    #[test]
    fn display_carries_the_diagnostic_for_every_variant() {
        for (err, needle) in all_variants() {
            let text = err.to_string();
            assert!(
                text.contains(needle),
                "{err:?}: display {text:?} missing {needle:?}"
            );
        }
    }

    #[test]
    fn only_the_verbs_wrapper_has_a_source() {
        for (err, _) in all_variants() {
            match &err {
                PartixError::Verbs(inner) => {
                    let src = err.source().expect("Verbs must expose its cause");
                    assert_eq!(src.to_string(), inner.to_string());
                }
                _ => assert!(err.source().is_none(), "{err:?} should have no source"),
            }
        }
    }

    #[test]
    fn verbs_errors_convert_via_from() {
        let e: PartixError = VerbsError::PeerNotSet.into();
        assert_eq!(e, PartixError::Verbs(VerbsError::PeerNotSet));
    }
}
