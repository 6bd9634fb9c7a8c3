//! Vendored, dependency-free subset of the `rand` 0.8 API.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the exact surface it uses: [`rngs::SmallRng`] (xoshiro256++
//! seeded via SplitMix64, the same algorithm real `rand` 0.8 uses on
//! 64-bit targets), the [`Rng`] extension trait (`gen`, `gen_range`,
//! `gen_bool`), [`SeedableRng::seed_from_u64`], and
//! [`seq::SliceRandom::shuffle`] (Fisher–Yates).
//!
//! Everything is deterministic per seed and platform-independent, which is
//! all the reproduction relies on; no claim is made that the streams match
//! upstream `rand` bit-for-bit.

use std::ops::{Range, RangeInclusive};

/// A source of random 32/64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types seedable from a `u64` (the only constructor this workspace uses).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of `T` from its standard distribution
    /// (`f64` in `[0, 1)`, integers uniform over the full domain).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (`low..high` or `low..=high`).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p = {p} out of [0, 1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Standard-distribution sampling for the value types the workspace draws.
pub trait Standard: Sized {
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Uniform sampling over a range, unbiased via Lemire rejection.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

/// Draws a uniform value in `[0, n)` without modulo bias.
fn next_below<R: RngCore>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (n as u128);
        let lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            if lo < threshold {
                continue;
            }
        }
        return (m >> 64) as u64;
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + next_below(rng, span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64) - (lo as u64) + 1; // never full u64 here
                lo + next_below(rng, span) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, usize);

// `u64` ranges need overflow care for the inclusive span; exclusive is safe.
impl SampleRange<u64> for Range<u64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + next_below(rng, self.end - self.start)
    }
}

impl SampleRange<u64> for RangeInclusive<u64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        match hi.checked_sub(lo).and_then(|s| s.checked_add(1)) {
            Some(span) => lo + next_below(rng, span),
            None => rng.next_u64(), // 0..=u64::MAX
        }
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the algorithm `rand` 0.8 uses for `SmallRng` on
    /// 64-bit platforms. Fast, 256-bit state, fine statistical quality.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as upstream does for small seeds.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            SmallRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    /// Alias so `StdRng` call sites keep working; quality is adequate for
    /// simulation (nothing here is cryptographic).
    pub type StdRng = SmallRng;
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice helpers; only `shuffle` is used by the workspace.
    pub trait SliceRandom {
        type Item;

        /// In-place Fisher–Yates shuffle.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// Re-export mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::{SmallRng, StdRng};
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5u32..=9);
            assert!((5..=9).contains(&y));
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of U[0,1) over 10k draws is ~0.5 ± a few σ.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice ordered");
    }
}
