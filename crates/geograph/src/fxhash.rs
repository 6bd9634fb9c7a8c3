//! A small Fx-style hasher for hot integer-keyed maps.
//!
//! The default `std` hasher (SipHash 1-3) is DoS-resistant but slow for the
//! integer keys that dominate partitioning workloads (vertex and DC ids).
//! Rather than pull in `rustc-hash`, this is the same multiply-xor scheme in
//! ~40 lines, per the perf-guide recommendation.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fast, non-cryptographic hasher (the rustc Fx scheme).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// Stateless 64-bit mix, handy for hash-based partitioners (HashPL, RandPG)
/// that need a deterministic "random" DC per id without an RNG stream.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    // SplitMix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }

    #[test]
    fn deterministic() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn mix64_spreads_sequential_keys() {
        // Sequential ids must land in different low-order buckets.
        let buckets: FxHashSet<u64> = (0..64u64).map(|i| mix64(i) % 64).collect();
        assert!(buckets.len() > 32, "mix64 bucketed {} of 64", buckets.len());
    }

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(123456789), mix64(123456789));
    }
}
