//! Seedable pseudo-random numbers, replacing the `rand` crate.
//!
//! [`StdRng`] is **xoshiro256\*\*** (Blackman & Vigna) seeded through
//! **splitmix64**, the combination the `rand`/`rand_xoshiro` crates
//! recommend for seeding from a single `u64`. It is deterministic,
//! portable across platforms, and fast — exactly what the noise model
//! and the property-test harness need. It is *not* cryptographically
//! secure.
//!
//! ```
//! use collsel_support::rng::StdRng;
//!
//! let mut a = StdRng::seed_from_u64(42);
//! let mut b = StdRng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! let x: f64 = a.gen_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&x));
//! ```

use std::ops::Range;

/// Mixes a 64-bit state into a well-distributed output (splitmix64).
/// Advances `state` by the golden-ratio increment on every call.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `0..n` from a splitmix64 stream, without the
/// modulo bias of `splitmix64(state) % n`.
///
/// Uses rejection sampling over the smallest covering power-of-two
/// mask, so every value in `0..n` is exactly equally likely. Advances
/// `state` once per rejection round (power-of-two `n` never rejects).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn splitmix64_below(state: &mut u64, n: u64) -> u64 {
    assert!(n > 0, "splitmix64_below: empty range");
    if n.is_power_of_two() {
        return splitmix64(state) & (n - 1);
    }
    let mask = n.next_power_of_two() - 1;
    loop {
        let x = splitmix64(state) & mask;
        if x < n {
            return x;
        }
    }
}

/// Seeding interface mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a single 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The workspace's standard generator: xoshiro256\*\*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let s = [
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
        ];
        StdRng { s }
    }
}

impl StdRng {
    /// Builds a generator from a single 64-bit seed (inherent alias of
    /// [`SeedableRng::seed_from_u64`]).
    pub fn seed_from_u64(seed: u64) -> Self {
        <Self as SeedableRng>::seed_from_u64(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`, built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from the half-open range `low..high`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: UniformSample>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }
}

/// Types that can be sampled uniformly from a half-open range.
pub trait UniformSample: PartialOrd + Copy {
    /// Draws one sample from `range` using `rng`.
    fn sample(rng: &mut StdRng, range: Range<Self>) -> Self;
}

impl UniformSample for f64 {
    fn sample(rng: &mut StdRng, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range in gen_range");
        let span = range.end - range.start;
        let x = range.start + rng.next_f64() * span;
        // Floating-point rounding can land exactly on `end`; clamp back
        // into the half-open interval.
        if x >= range.end {
            range.end - range.end * f64::EPSILON
        } else {
            x
        }
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample(rng: &mut StdRng, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "empty range in gen_range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                // Multiply-shift bounded sampling (Lemire); the slight
                // modulo bias of the naive approach is avoided without
                // rejection loops.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (range.start as u64).wrapping_add(hi) as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for state 0, from the public-domain reference
        // implementation.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn below_always_in_range() {
        let mut s = 99u64;
        for n in [1u64, 2, 3, 7, 13, 14, 16, 1000] {
            for _ in 0..1_000 {
                assert!(splitmix64_below(&mut s, n) < n);
            }
        }
    }

    #[test]
    fn below_is_unbiased_across_buckets() {
        // n = 14 is the size-grid exponent count that motivated the
        // helper: `% 14` over-represents 0..4. With rejection sampling
        // every bucket should sit within a few percent of uniform.
        let mut s = 0x00C0_FFEE_u64;
        let n = 14u64;
        let per_bucket = 10_000u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..n * per_bucket {
            counts[splitmix64_below(&mut s, n) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - per_bucket as f64).abs() / per_bucket as f64;
            assert!(dev < 0.05, "bucket {i}: {c} draws, deviation {dev:.3}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
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
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_range(10usize..17);
            assert!((10..17).contains(&x));
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn integer_samples_cover_the_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_floats_look_uniform() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
