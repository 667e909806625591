//! A small deterministic PRNG and the samplers the simulator needs.
//!
//! Hand-rolled instead of pulling `rand`/`rand_distr`: the generator must
//! reproduce datasets bit-for-bit across crate-version bumps (benchmark
//! comparability), and the three distributions used — uniform, Zipf,
//! Poisson — are a few dozen lines.

/// xoshiro256++ seeded via SplitMix64. Fast, well-tested constants, and
/// deterministic across platforms.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed the generator; any u64 (including 0) is fine.
    pub fn new(seed: u64) -> Rng {
        // SplitMix64 expansion, per Vigna's recommendation.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, bound)`; bound 0 returns 0. Debiased via Lemire's
    /// method simplified to rejection-free modulo (bias is < 2⁻³² for the
    /// bounds used here, fine for simulation).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // 128-bit multiply-shift keeps the distribution uniform enough.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo) as u64 + 1) as i64
    }

    /// Uniform in `[lo, hi]` for i32.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.range_i64(lo as i64, hi as i64) as i32
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    ///
    /// Panics on an empty slice.
    #[expect(clippy::indexing_slicing, reason = "asserted non-empty, and below(len) < len")]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Poisson sample via Knuth's product method — fine for the small λ
    /// (≤ ~50) used for per-session edit counts.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        debug_assert!(lambda >= 0.0);
        if lambda == 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // guard against λ misuse
            }
        }
    }
}

/// A Zipf(s) sampler over ranks `0..n` with a precomputed CDF — used for
/// country activity weights (few countries dominate OSM editing).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build for `n` ranks with exponent `s` (s = 1.0 ≈ classic Zipf).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there are no ranks (never, per the constructor assert).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Sample a rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The probability mass of rank `k` (0 past the last rank).
    pub fn mass(&self, k: usize) -> f64 {
        let below = k.checked_sub(1).and_then(|j| self.cdf.get(j)).copied().unwrap_or(0.0);
        self.cdf.get(k).map_or(0.0, |cdf| cdf - below)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(Rng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::new(7);
        for bound in [1u64, 2, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut rng = Rng::new(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            let v = rng.range_i32(-2, 2);
            assert!((-2..=2).contains(&v));
            lo_seen |= v == -2;
            hi_seen |= v == 2;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(11);
        for _ in 0..1000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = Rng::new(13);
        let lambda = 8.0;
        let n = 5000;
        let sum: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.3, "mean {mean}");
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn zipf_is_skewed_and_normalized() {
        let z = Zipf::new(50, 1.0);
        assert_eq!(z.len(), 50);
        // Masses sum to ~1.
        let total: f64 = (0..50).map(|k| z.mass(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Rank 0 beats rank 10 by about 11x.
        assert!(z.mass(0) / z.mass(10) > 8.0);

        // Empirical skew.
        let mut rng = Rng::new(17);
        let mut counts = vec![0u64; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] * 5, "rank 0: {}, rank 10: {}", counts[0], counts[10]);
        assert!(counts[0] > counts[49]);
    }

    #[test]
    fn zipf_samples_cover_all_ranks_eventually() {
        let z = Zipf::new(5, 0.5);
        let mut rng = Rng::new(23);
        let mut seen = [false; 5];
        for _ in 0..5000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
