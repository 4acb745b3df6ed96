//! Seedable randomness plumbing.
//!
//! Every stochastic element of an experiment (noise draws, laggard selection)
//! derives from one root seed through stable stream splitting, so a run is
//! reproducible from `(root_seed, experiment parameters)` alone.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a's offset basis and prime.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Mix `bytes` into an FNV-1a state.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// A named stream of child seeds under one root: the root and the label are
/// hashed once, at [`SeedStream::new`], and each [`SeedStream::at`] mixes in
/// only its index. `SeedStream::new(root, stream).at(index)` is
/// [`split_seed`]`(root, stream, index)`.
#[derive(Clone, Copy, Debug)]
pub struct SeedStream(u64);

impl SeedStream {
    /// The stream `stream` of `root`.
    pub fn new(root: u64, stream: &str) -> Self {
        SeedStream(fnv(fnv(FNV_BASIS, &root.to_le_bytes()), stream.as_bytes()))
    }

    /// The child seed at `index`.
    pub fn at(self, index: u64) -> u64 {
        // Final avalanche (splitmix64 finaliser).
        let mut z = fnv(self.0, &index.to_le_bytes());
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derive a child seed for a named stream. Uses an FNV-1a style mix so that
/// distinct `(seed, stream, index)` triples map to well-spread seeds without
/// pulling in a hashing dependency.
pub fn split_seed(root: u64, stream: &str, index: u64) -> u64 {
    SeedStream::new(root, stream).at(index)
}

/// A deterministic RNG for the given stream of an experiment.
pub fn stream_rng(root: u64, stream: &str, index: u64) -> StdRng {
    StdRng::seed_from_u64(split_seed(root, stream, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn split_is_deterministic() {
        assert_eq!(split_seed(1, "noise", 0), split_seed(1, "noise", 0));
    }

    #[test]
    fn split_separates_streams() {
        let a = split_seed(1, "noise", 0);
        let b = split_seed(1, "laggard", 0);
        let c = split_seed(1, "noise", 1);
        let d = split_seed(2, "noise", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    /// Pinned values of `split_seed`, the empty label included; a stream
    /// whose label is hashed once gives the same ones.
    #[test]
    fn split_seed_keeps_its_values() {
        let pinned = [
            (0, "", 0, 0x6875_2350_ae1d_483f),
            (1, "noise", 0, 0x164a_6fce_bbd9_339b),
            (
                42,
                "fullstack-pready",
                (3 << 40) ^ (5 << 20) ^ 7,
                0xf17a_9ac9_8b32_524b,
            ),
            (u64::MAX, "fault_sweep", u64::MAX, 0x28e4_56ba_9037_86dc),
        ];
        for (root, stream, index, want) in pinned {
            assert_eq!(
                split_seed(root, stream, index),
                want,
                "{root} {stream:?} {index}"
            );
            assert_eq!(SeedStream::new(root, stream).at(index), want);
        }
    }

    #[test]
    fn rngs_reproduce() {
        let mut r1 = stream_rng(42, "x", 7);
        let mut r2 = stream_rng(42, "x", 7);
        let a: [u64; 4] = std::array::from_fn(|_| r1.random());
        let b: [u64; 4] = std::array::from_fn(|_| r2.random());
        assert_eq!(a, b);
    }
}
