//! # gupster-rng
//!
//! Deterministic pseudo-randomness for experiments and tests.
//!
//! The repository runs in hermetic environments with no crate registry,
//! so this crate supplies the small slice of the `rand` API the
//! workspace actually uses — a seedable generator, ranges, Bernoulli
//! draws and uniform floats — backed by SplitMix64. Determinism is a
//! feature, not a compromise: every experiment seeds its generator so
//! runs are reproducible and diffable across PRs.
//!
//! The [`check`] module adds just enough machinery to express the
//! randomized property tests the crates ship (`cases`, string/vec
//! generators), again fully deterministic.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;
}

/// Seeding, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The default generator: SplitMix64 — tiny, fast, passes BigCrush for
/// the purposes of workload shaping (we are not doing cryptography;
/// tokens use HMAC-SHA256 in `gupster-core`).
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // Avoid the all-zero orbit degenerating the first few draws.
        StdRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Integer types that can be drawn uniformly from a range.
pub(crate) trait UniformInt: Copy + PartialOrd {
    /// Widens to u64 (order-preserving for the supported domains).
    fn to_u64(self) -> u64;
    /// Narrows back from u64.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

/// Ranges a generator can sample from (`gen_range` argument types).
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: UniformInt> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "gen_range: empty range");
        T::from_u64(lo + rng.next_u64() % (hi - lo))
    }
}

impl<T: UniformInt> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(lo <= hi, "gen_range: empty range");
        let width = hi - lo;
        if width == u64::MAX {
            return T::from_u64(rng.next_u64());
        }
        T::from_u64(lo + rng.next_u64() % (width + 1))
    }
}

/// Types `gen()` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// High-level draws, mirroring the used subset of `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform draw from a range (`0..n` or `0..=n`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::draw(self) < p
    }

    /// Draws a value of an inferred type (`let u: f64 = rng.gen()`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }

    /// Picks a uniformly random element of a non-empty slice.
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T
    where
        Self: Sized,
    {
        &items[self.gen_range(0..items.len())]
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

pub mod check;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_within_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: usize = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: u64 = r.gen_range(0..=5);
            assert!(w <= 5);
        }
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut r = StdRng::seed_from_u64(9);
        let mut seen = [false; 6];
        for _ in 0..300 {
            seen[r.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.2)).count();
        assert!((1_700..2_300).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.1)));
    }

    #[test]
    fn pick_covers_slice() {
        let mut r = StdRng::seed_from_u64(17);
        let items = ["a", "b", "c"];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(*r.pick(&items));
        }
        assert_eq!(seen.len(), 3);
    }
}
