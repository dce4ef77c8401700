//! Deterministic random-number generation.
//!
//! Experiments must be bit-reproducible across runs and platforms, so the
//! generator is implemented here rather than delegated to `rand`'s default
//! (whose algorithm choice may change between releases). The generator is
//! xoshiro256++ seeded through SplitMix64, the reference construction of
//! Blackman & Vigna. It implements [`rand_core::RngCore`] so all `rand`
//! combinators work on top of it.

use rand::RngCore;

/// SplitMix64 step: used to expand a single `u64` seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ pseudo-random generator.
///
/// ```
/// use simstats::DetRng;
///
/// let master = DetRng::seed_from_u64(1996);
/// let mut requests = master.derive_stream("requests");
/// let mut sizes = master.derive_stream("sizes");
/// // Streams are independent but fully reproducible.
/// assert_eq!(
///     master.derive_stream("requests").below(100),
///     requests.below(100),
/// );
/// let _ = sizes.unit_f64();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; SplitMix64 expansion guarantees a non-zero internal state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent stream for a named sub-purpose. Mixing the
    /// label keeps, e.g., the request stream and the modification stream of
    /// one experiment statistically independent while still fully
    /// determined by the master seed.
    pub fn derive_stream(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Combine with this generator's current state without advancing it.
        let mixed = h ^ self.s[0].rotate_left(17) ^ self.s[2];
        DetRng::seed_from_u64(mixed)
    }

    #[inline]
    fn next(&mut self) -> u64 {
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

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in the open interval `(0, 1]`, safe as an argument
    /// to `ln()`.
    #[inline]
    pub fn unit_open_f64(&mut self) -> f64 {
        1.0 - self.unit_f64()
    }

    /// A uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let threshold = bound.wrapping_neg() % bound;
            while l < threshold {
                x = self.next();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            self.next()
        } else {
            lo + self.below(span + 1)
        }
    }

    /// A Bernoulli draw with probability `p` of `true`. `p` outside
    /// `[0, 1]` is clamped.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = DetRng::seed_from_u64(0);
        let mut any_nonzero = false;
        for _ in 0..16 {
            if r.next_u64() != 0 {
                any_nonzero = true;
            }
        }
        assert!(any_nonzero);
    }

    #[test]
    fn derived_streams_are_independent_and_deterministic() {
        let master = DetRng::seed_from_u64(7);
        let mut req1 = master.derive_stream("requests");
        let mut req2 = master.derive_stream("requests");
        let mut mods = master.derive_stream("modifications");
        assert_eq!(req1.next_u64(), req2.next_u64());
        // Overwhelmingly unlikely to collide if streams are independent.
        assert_ne!(req1.next_u64(), mods.next_u64());
    }

    #[test]
    fn unit_f64_is_in_half_open_interval() {
        let mut r = DetRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.unit_open_f64();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn unit_f64_mean_is_near_half() {
        let mut r = DetRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_respects_bound_and_covers_values() {
        let mut r = DetRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_is_unbiased_for_awkward_bound() {
        // bound = 3 exercises the rejection path.
        let mut r = DetRng::seed_from_u64(9);
        let mut counts = [0u64; 3];
        let n = 300_000;
        for _ in 0..n {
            counts[r.below(3) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.01, "frac {frac}");
        }
    }

    #[test]
    fn range_inclusive_hits_both_endpoints() {
        let mut r = DetRng::seed_from_u64(13);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            match r.range_inclusive(5, 8) {
                5 => lo_seen = true,
                8 => hi_seen = true,
                v => assert!((5..=8).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from_u64(17);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
        assert!((0..100).all(|_| r.chance(2.0))); // clamped
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut r = DetRng::seed_from_u64(19);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_bound_panics() {
        DetRng::seed_from_u64(1).below(0);
    }
}
