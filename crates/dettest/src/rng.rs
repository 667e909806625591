//! A seeded, splittable PRNG: SplitMix64 state advance with an xorshift-style
//! output mix. Not cryptographic; chosen for two properties that matter in a
//! test harness: a 64-bit seed fully determines the stream, and any `u64` is
//! a valid seed (no bad states).

/// Deterministic pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// Uniform value in `[0, n)`. `n` must be nonzero.
    ///
    /// Uses multiply-high rejection-free mapping; the bias is < 2^-32 for the
    /// small `n` a test generator draws, which is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `i64` in the inclusive range `[lo, hi]`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi as i128 - lo as i128) as u128 + 1;
        let off = ((self.next_u64() as u128 * span) >> 64) as i128;
        (lo as i128 + off) as i64
    }

    /// Uniform `u64` in the inclusive range `[lo, hi]`.
    pub(crate) fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u128 + 1;
        let off = ((self.next_u64() as u128 * span) >> 64) as u64;
        lo + off
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Derive an independent stream for `index` under `base` — the per-case
    /// seeds the runner hands out (and prints on failure).
    pub fn derive(base: u64, index: u64) -> u64 {
        mix(base.wrapping_add(GOLDEN.wrapping_mul(index.wrapping_add(1))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        // All residues reachable.
        let mut seen = [false; 13];
        for _ in 0..2000 {
            seen[r.below(13) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ranges_inclusive() {
        let mut r = Rng::new(3);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..5000 {
            let v = r.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
        assert_eq!(r.range_i64(5, 5), 5);
        assert_eq!(r.range_u64(9, 9), 9);
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = Rng::new(11);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn derive_is_stable_and_spread() {
        assert_eq!(Rng::derive(1, 0), Rng::derive(1, 0));
        assert_ne!(Rng::derive(1, 0), Rng::derive(1, 1));
        assert_ne!(Rng::derive(1, 0), Rng::derive(2, 0));
    }
}
