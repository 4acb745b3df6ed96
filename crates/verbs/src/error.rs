//! Error types for the verbs layer.

use std::fmt;

use crate::types::QpState;

/// Errors returned by verbs operations. Mirrors the errno-style failures of
/// libibverbs, but as a typed enum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerbsError {
    /// Operation requires a different QP state (e.g. posting a send on a QP
    /// that is not Ready-to-Send).
    InvalidQpState {
        /// State the QP was in.
        actual: QpState,
        /// State the operation requires.
        required: QpState,
    },
    /// Illegal QP state transition.
    InvalidTransition {
        /// State the QP was in.
        from: QpState,
        /// Requested new state.
        to: QpState,
    },
    /// The send queue already holds the maximum number of outstanding work
    /// requests (the ConnectX-5 class hardware the paper targets allows 16
    /// concurrent RDMA WRs per QP).
    SendQueueFull {
        /// The configured cap.
        max_outstanding: u32,
    },
    /// The receive queue is at capacity.
    RecvQueueFull,
    /// An SGE references an unknown local key.
    InvalidLKey {
        /// Offending lkey.
        lkey: u32,
    },
    /// An SGE or remote write range falls outside its memory region.
    OutOfBounds {
        /// Key of the region.
        key: u32,
        /// Start offset requested.
        addr: u64,
        /// Length requested.
        len: u64,
        /// Region length.
        region_len: u64,
    },
    /// A work request carried no scatter/gather elements.
    EmptySgList,
    /// Too many scatter/gather elements for the QP's capability.
    TooManySges {
        /// Elements supplied.
        got: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// An inline send exceeded the QP's `max_inline_data`.
    InlineTooLarge {
        /// Payload length supplied.
        got: u32,
        /// QP inline capacity.
        max: u32,
    },
    /// The QP has not been connected to a peer yet.
    PeerNotSet,
    /// The opcode is not valid for this WR (a write-with-immediate that
    /// carries no immediate).
    BadOpcode,
    /// Object belongs to a different protection domain.
    ProtectionDomainMismatch,
    /// Referenced node does not exist in the network.
    UnknownNode(u32),
    /// Referenced QP number does not exist on the node.
    UnknownQp(u32),
    /// The fabric could not provide a region's storage (a host-mode
    /// `ShmFabric` maps each region from a file of its own); the text is the
    /// OS error.
    RegionStorage(String),
}

impl fmt::Display for VerbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbsError::InvalidQpState { actual, required } => {
                write!(f, "QP in state {actual:?}, operation requires {required:?}")
            }
            VerbsError::InvalidTransition { from, to } => {
                write!(f, "illegal QP transition {from:?} -> {to:?}")
            }
            VerbsError::SendQueueFull { max_outstanding } => {
                write!(f, "send queue full ({max_outstanding} WRs outstanding)")
            }
            VerbsError::RecvQueueFull => write!(f, "receive queue full"),
            VerbsError::InvalidLKey { lkey } => write!(f, "invalid lkey {lkey:#x}"),
            VerbsError::OutOfBounds {
                key,
                addr,
                len,
                region_len,
            } => write!(
                f,
                "access [{addr:#x}, +{len}) out of bounds for region {key:#x} of length {region_len}"
            ),
            VerbsError::EmptySgList => write!(f, "work request has no scatter/gather elements"),
            VerbsError::TooManySges { got, max } => {
                write!(f, "{got} scatter/gather elements exceed the maximum of {max}")
            }
            VerbsError::InlineTooLarge { got, max } => {
                write!(f, "inline payload of {got} bytes exceeds max_inline_data {max}")
            }
            VerbsError::PeerNotSet => write!(f, "QP not connected to a peer"),
            VerbsError::BadOpcode => write!(f, "opcode invalid for this operation"),
            VerbsError::ProtectionDomainMismatch => {
                write!(f, "object belongs to a different protection domain")
            }
            VerbsError::UnknownNode(n) => write!(f, "unknown node {n}"),
            VerbsError::UnknownQp(q) => write!(f, "unknown QP number {q}"),
            VerbsError::RegionStorage(e) => write!(f, "no storage for the region: {e}"),
        }
    }
}

impl std::error::Error for VerbsError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, VerbsError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    /// One instance of every variant, paired with a substring its `Display`
    /// output must carry (so diagnostics never degenerate into `Debug`
    /// dumps or lose the offending values).
    fn all_variants() -> Vec<(VerbsError, &'static str)> {
        vec![
            (
                VerbsError::InvalidQpState {
                    actual: QpState::Reset,
                    required: QpState::ReadyToSend,
                },
                "QP in state Reset",
            ),
            (
                VerbsError::InvalidTransition {
                    from: QpState::Init,
                    to: QpState::ReadyToSend,
                },
                "illegal QP transition Init -> ReadyToSend",
            ),
            (
                VerbsError::SendQueueFull {
                    max_outstanding: 16,
                },
                "send queue full (16",
            ),
            (VerbsError::RecvQueueFull, "receive queue full"),
            (VerbsError::InvalidLKey { lkey: 0xBEEF }, "0xbeef"),
            (
                VerbsError::OutOfBounds {
                    key: 0x10,
                    addr: 0x40,
                    len: 128,
                    region_len: 64,
                },
                "out of bounds",
            ),
            (VerbsError::EmptySgList, "no scatter/gather"),
            (VerbsError::TooManySges { got: 5, max: 4 }, "5 scatter"),
            (
                VerbsError::InlineTooLarge { got: 512, max: 220 },
                "512 bytes exceeds max_inline_data 220",
            ),
            (VerbsError::PeerNotSet, "not connected"),
            (VerbsError::BadOpcode, "opcode invalid"),
            (
                VerbsError::ProtectionDomainMismatch,
                "different protection domain",
            ),
            (VerbsError::UnknownNode(3), "unknown node 3"),
            (VerbsError::UnknownQp(9), "unknown QP number 9"),
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
    fn verbs_errors_are_leaf_errors() {
        // The verbs layer is the bottom of the stack: no variant wraps a
        // deeper cause.
        for (err, _) in all_variants() {
            assert!(err.source().is_none(), "{err:?} should have no source");
        }
    }
}
