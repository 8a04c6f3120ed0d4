//! Self-contained deterministic PRNG (xoshiro256++ seeded via SplitMix64).
//!
//! The workspace builds in hermetic environments with no access to
//! crates.io, so random data generation cannot lean on the `rand` crate.
//! This module provides the small slice of functionality the workspace
//! needs: a seedable, portable, high-quality 64-bit generator with
//! uniform floats and bounded integers. Streams are stable across
//! platforms and releases — experiment outputs seeded through
//! [`crate::DataGen`] are bit-reproducible.

/// xoshiro256++ generator (Blackman & Vigna), seeded from a single `u64`
/// through SplitMix64 so that nearby seeds give unrelated streams.
///
/// # Examples
///
/// ```
/// use wmpt_tensor::Rng64;
///
/// let mut a = Rng64::new(7);
/// let mut b = Rng64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

/// One step of SplitMix64 — used for seeding only.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let v = lo + (hi - lo) * self.next_f64() as f32;
        // Guard against `lo + (hi-lo)*x` rounding up to exactly `hi`.
        if v >= hi {
            hi - (hi - lo) * f32::EPSILON
        } else {
            v
        }
    }

    /// Uniform integer in `[0, n)` (Lemire's unbiased multiply-shift).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        let n = n as u64;
        // Rejection-free for our purposes: 128-bit multiply keeps the
        // modulo bias below 2^-64, far beneath any statistical test the
        // workspace runs.
        (((self.next_u64() as u128 * n as u128) >> 64) as u64) as usize
    }

    /// Uniform `u64` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample from an empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng64::new(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::new(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng64::new(43);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn floats_stay_in_unit_interval() {
        let mut r = Rng64::new(1);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn float_mean_is_near_half() {
        let mut r = Rng64::new(2);
        let n = 50_000;
        let mean = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn index_covers_range_uniformly() {
        let mut r = Rng64::new(3);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[r.index(8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng64::new(4);
        for _ in 0..1000 {
            let v = r.range_f32(-0.5, 0.5);
            assert!((-0.5..0.5).contains(&v), "{v}");
            let w = r.range_f64(3.0, 9.0);
            assert!((3.0..9.0).contains(&w), "{w}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = Rng64::new(0).range_f64(1.0, 1.0);
    }
}
