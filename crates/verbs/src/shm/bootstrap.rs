//! File-based out-of-band bootstrap for the two-process deployment.
//!
//! Real verbs deployments exchange QP numbers, rkeys and buffer addresses
//! over a side channel (TCP, PMI, or — in Ibdxnet — ethernet sockets)
//! before the first RDMA operation. Here the side channel is the same
//! tmpfs directory the ring segments live in: each peer publishes a small
//! named blob with an atomic rename, and awaits the other's with the bounded
//! wait the channel opens use. The one blob with a format is the
//! [`Endpoint`] record; a peer's copy of it is outside input and goes
//! through [`Endpoint::parse`].

use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

use super::wait_until;

/// What one rank publishes for its peer before the first RDMA operation:
/// its QP number and the registered buffer the peer may write into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// QP number.
    pub qp: u32,
    /// Remote key of the published buffer.
    pub rkey: u32,
    /// Base address of the published buffer.
    pub addr: u64,
}

/// Why a peer's endpoint blob was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EndpointError {
    /// The blob is not UTF-8 text.
    NotUtf8,
    /// A token that is not `key=value` with a known key.
    UnknownToken(String),
    /// A key that appears more than once.
    Duplicate(&'static str),
    /// A key that does not appear.
    Missing(&'static str),
    /// A value that is not a decimal integer in the key's range.
    OutOfRange(&'static str, String),
}

impl fmt::Display for EndpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointError::NotUtf8 => write!(f, "endpoint blob is not UTF-8"),
            EndpointError::UnknownToken(t) => write!(f, "endpoint blob: unknown token {t:?}"),
            EndpointError::Duplicate(k) => write!(f, "endpoint blob: duplicate key {k}"),
            EndpointError::Missing(k) => write!(f, "endpoint blob: missing key {k}"),
            EndpointError::OutOfRange(k, v) => {
                write!(f, "endpoint blob: {k}={v} is not an integer in range")
            }
        }
    }
}

impl std::error::Error for EndpointError {}

impl Endpoint {
    /// The blob [`Endpoint::parse`] reads back.
    pub fn encode(&self) -> Vec<u8> {
        format!("qp={} rkey={} addr={}", self.qp, self.rkey, self.addr).into_bytes()
    }

    /// Parse a peer's blob: exactly the keys `qp`, `rkey` (both `u32`) and
    /// `addr` (`u64`), once each, in any order, separated by whitespace.
    /// The blob comes from another process, so every input is answered with
    /// a value or an error, never a panic or a silently truncated number.
    pub fn parse(blob: &[u8]) -> Result<Endpoint, EndpointError> {
        const KEYS: [&str; 3] = ["qp", "rkey", "addr"];
        let text = std::str::from_utf8(blob).map_err(|_| EndpointError::NotUtf8)?;
        let mut values: [Option<u64>; 3] = [None; 3];
        for token in text.split_whitespace() {
            let field = token
                .split_once('=')
                .and_then(|(k, v)| Some((KEYS.iter().position(|key| *key == k)?, v)));
            let Some((i, v)) = field else {
                return Err(EndpointError::UnknownToken(token.to_string()));
            };
            if values[i].is_some() {
                return Err(EndpointError::Duplicate(KEYS[i]));
            }
            let n = v
                .parse::<u64>()
                .ok()
                .filter(|n| i == 2 || u32::try_from(*n).is_ok());
            values[i] = Some(n.ok_or_else(|| EndpointError::OutOfRange(KEYS[i], v.to_string()))?);
        }
        let get = |i: usize| values[i].ok_or(EndpointError::Missing(KEYS[i]));
        Ok(Endpoint {
            qp: get(0)? as u32,
            rkey: get(1)? as u32,
            addr: get(2)?,
        })
    }
}

/// Atomically publish `bytes` as `<dir>/<name>.blob`: written to a
/// temporary file first and renamed into place, so a polling reader never
/// observes a partial blob.
pub fn publish_blob(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!(".{}.blob.tmp-{}", name, std::process::id()));
    let final_path = dir.join(format!("{name}.blob"));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, &final_path)
}

/// Wait up to `timeout` for `<dir>/<name>.blob` and return its contents, or
/// fail with `TimedOut`. The wait yields, and sleeps only after a
/// millisecond, never past `timeout`: a blob that is there is read within
/// µs.
pub fn await_blob(dir: &Path, name: &str, timeout: Duration) -> std::io::Result<Vec<u8>> {
    let path = dir.join(format!("{name}.blob"));
    let mut read = Err(std::io::ErrorKind::NotFound.into());
    wait_until(Instant::now() + timeout, || {
        read = std::fs::read(&path);
        !matches!(&read, Err(e) if e.kind() == std::io::ErrorKind::NotFound)
    });
    match read {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("bootstrap blob {name} never appeared"),
        )),
        read => read,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn publish_then_await_round_trips() {
        let dir = std::env::temp_dir();
        let name = format!("partix_bootstrap_test_{}", std::process::id());
        publish_blob(&dir, &name, b"qp=7 rkey=9").unwrap();
        let got = await_blob(&dir, &name, Duration::from_secs(1)).unwrap();
        assert_eq!(got, b"qp=7 rkey=9");
        std::fs::remove_file(dir.join(format!("{name}.blob"))).unwrap();
    }

    #[test]
    fn endpoint_parse_rejects_what_it_cannot_represent() {
        let ok = Endpoint {
            qp: 7,
            rkey: 9,
            addr: 1 << 40,
        };
        assert_eq!(Endpoint::parse(b"addr=1099511627776  qp=7\nrkey=9"), Ok(ok));
        let err = |blob: &[u8]| Endpoint::parse(blob).unwrap_err();
        assert_eq!(err(b"qp=\xff rkey=1 addr=2"), EndpointError::NotUtf8);
        assert_eq!(err(b"qp=1 rkey=2"), EndpointError::Missing("addr"));
        assert_eq!(err(b""), EndpointError::Missing("qp"));
        assert_eq!(
            err(b"qp=1 qp=1 rkey=2 addr=3"),
            EndpointError::Duplicate("qp")
        );
        // 2^32 + 1 used to be cast to QP 1.
        assert_eq!(
            err(b"qp=4294967297 rkey=2 addr=3"),
            EndpointError::OutOfRange("qp", "4294967297".into())
        );
        assert_eq!(
            err(b"qp=1 rkey=-2 addr=3"),
            EndpointError::OutOfRange("rkey", "-2".into())
        );
        assert_eq!(
            err(b"qp=1 rkey=2 addr=18446744073709551616"),
            EndpointError::OutOfRange("addr", "18446744073709551616".into())
        );
        assert_eq!(
            err(b"qp=1 rkey=2 addr=3 lkey=4"),
            EndpointError::UnknownToken("lkey=4".into())
        );
        assert_eq!(err(b"qp"), EndpointError::UnknownToken("qp".into()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and token soup over the format's own vocabulary
        /// (which gets past the first token).
        #[test]
        fn no_blob_panics_the_endpoint_parser(
            junk in prop::collection::vec(any::<u8>(), 0..48),
            soup in prop::collection::vec(
                prop::sample::select(vec![
                    "qp", "rkey", "addr", "=", " ", "\n", "0", "7", "-", "+",
                    "4294967295", "4294967296", "18446744073709551615",
                    "18446744073709551616", "x", "\u{e9}",
                ]),
                0..12,
            ),
        ) {
            let _ = Endpoint::parse(&junk);
            let _ = Endpoint::parse(soup.concat().as_bytes());
        }

        #[test]
        fn endpoint_round_trips(qp in any::<u32>(), rkey in any::<u32>(), addr in any::<u64>()) {
            let ep = Endpoint { qp, rkey, addr };
            prop_assert_eq!(Endpoint::parse(&ep.encode()), Ok(ep));
        }
    }
}
