//! Continuous and discrete samplers used by the workload generators.
//!
//! The paper's workloads need: a *flat* (uniform) lifetime distribution for
//! the Worrell-style base simulator; *bimodal* lifetimes for the
//! trace-informed model ("either a file will remain unmodified for a long
//! period of time or it will be modified frequently within a short time
//! period", §3 — the generators mix two of these samplers themselves);
//! exponential inter-arrival times for request and modification
//! processes; heavy-tailed file sizes; and Zipf-like popularity. All
//! samplers draw from [`DetRng`] and are implemented from first principles
//! so their behaviour is fixed for the lifetime of the reproduction.

use crate::rng::DetRng;

/// A distribution over `f64` values sampled with a [`DetRng`].
pub trait Sampler {
    /// Draw one value.
    fn sample(&self, rng: &mut DetRng) -> f64;

    /// The theoretical mean, if finite and known in closed form.
    fn mean(&self) -> Option<f64>;
}

/// Uniform distribution on `[lo, hi)` — the "flat distribution between the
/// minimum and maximum observed lifetimes" of Worrell's workload model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformDist {
    lo: f64,
    hi: f64,
}

impl UniformDist {
    /// Uniform on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo <= hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform bounds"
        );
        UniformDist { lo, hi }
    }
}

impl Sampler for UniformDist {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.unit_f64()
    }

    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Exponential distribution with the given mean — memoryless inter-arrival
/// and inter-modification gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialDist {
    mean: f64,
}

impl ExponentialDist {
    /// Exponential with mean `mean` (rate `1/mean`).
    ///
    /// # Panics
    /// Panics unless `mean` is finite and positive.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        ExponentialDist { mean }
    }

    /// Exponential with rate `rate` (events per unit time).
    pub fn with_rate(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive"
        );
        ExponentialDist { mean: 1.0 / rate }
    }
}

impl Sampler for ExponentialDist {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        -self.mean * rng.unit_open_f64().ln()
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha` — the
/// standard heavy-tailed model for Web file sizes (most objects small, a
/// long tail of large ones).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedParetoDist {
    lo: f64,
    hi: f64,
    alpha: f64,
    /// `lo.powf(alpha)` and `hi.powf(alpha)`, which every draw needs.
    la: f64,
    ha: f64,
}

impl BoundedParetoDist {
    /// Bounded Pareto on `[lo, hi]` with tail index `alpha`.
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "bounded Pareto requires 0 < lo < hi");
        assert!(alpha > 0.0, "bounded Pareto requires alpha > 0");
        BoundedParetoDist {
            lo,
            hi,
            alpha,
            la: lo.powf(alpha),
            ha: hi.powf(alpha),
        }
    }
}

impl Sampler for BoundedParetoDist {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        // Inverse-CDF for the bounded Pareto.
        let u = rng.unit_f64();
        let (la, ha) = (self.la, self.ha);
        let x = (-(u * (ha - la) - ha) / (ha * la)).powf(-1.0 / self.alpha);
        x.clamp(self.lo, self.hi)
    }

    fn mean(&self) -> Option<f64> {
        let (l, h, a) = (self.lo, self.hi, self.alpha);
        if (a - 1.0).abs() < 1e-12 {
            // alpha == 1 has the special logarithmic form.
            let num = h * l * (h / l).ln();
            let den = h - l;
            Some(num / den)
        } else {
            let num = l.powf(a) * a / (a - 1.0) * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0));
            let den = 1.0 - (l / h).powf(a);
            Some(num / den)
        }
    }
}

/// Log-normal distribution parameterised by the mean and sigma of the
/// underlying normal. Used for file-lifetime spread around per-type medians
/// (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalDist {
    mu: f64,
    sigma: f64,
}

impl LogNormalDist {
    /// Log-normal with underlying normal `N(mu, sigma^2)`.
    ///
    /// # Panics
    /// Panics unless `sigma >= 0` and both parameters are finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "invalid log-normal"
        );
        LogNormalDist { mu, sigma }
    }

    /// Log-normal with the given *median* (`exp(mu)`) and shape `sigma`.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "log-normal median must be positive");
        LogNormalDist::new(median.ln(), sigma)
    }

    /// One standard-normal draw via Box–Muller.
    fn standard_normal(rng: &mut DetRng) -> f64 {
        let u1 = rng.unit_open_f64();
        let u2 = rng.unit_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }
}

impl Sampler for LogNormalDist {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean<S: Sampler>(dist: &S, seed: u64, n: usize) -> f64 {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_stays_in_bounds_and_matches_mean() {
        let d = UniformDist::new(10.0, 20.0);
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((10.0..20.0).contains(&x));
        }
        let m = sample_mean(&d, 2, 50_000);
        assert!((m - 15.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn exponential_mean_converges() {
        let d = ExponentialDist::with_mean(7.0);
        let m = sample_mean(&d, 3, 200_000);
        assert!((m - 7.0).abs() < 0.1, "mean {m}");
        assert_eq!(d.mean(), Some(7.0));
        let r = ExponentialDist::with_rate(0.5);
        assert_eq!(r.mean(), Some(2.0));
    }

    #[test]
    fn exponential_is_positive() {
        let d = ExponentialDist::with_mean(1.0);
        let mut rng = DetRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedParetoDist::new(100.0, 1_000_000.0, 1.2);
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((100.0..=1_000_000.0).contains(&x), "x = {x}");
        }
    }

    #[test]
    fn bounded_pareto_draws_match_the_per_draw_formula() {
        // The model: the inverse CDF with both powers taken on every draw.
        fn per_draw(lo: f64, hi: f64, alpha: f64, u: f64) -> f64 {
            let la = lo.powf(alpha);
            let ha = hi.powf(alpha);
            let x = (-(u * (ha - la) - ha) / (ha * la)).powf(-1.0 / alpha);
            x.clamp(lo, hi)
        }
        for (lo, hi, alpha) in [
            (256.0, 1_000_000.0, 1.3),
            (1.0, 10_000.0, 1.0),
            (3.5, 7.25, 0.4),
        ] {
            let d = BoundedParetoDist::new(lo, hi, alpha);
            let (mut rng, mut model_rng) = (DetRng::seed_from_u64(11), DetRng::seed_from_u64(11));
            for _ in 0..10_000 {
                let want = per_draw(lo, hi, alpha, model_rng.unit_f64());
                assert_eq!(d.sample(&mut rng).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn bounded_pareto_mean_converges() {
        let d = BoundedParetoDist::new(1.0, 1000.0, 1.5);
        let expect = d.mean().unwrap();
        let m = sample_mean(&d, 6, 400_000);
        assert!(
            (m - expect).abs() / expect < 0.05,
            "sample mean {m}, analytic {expect}"
        );
    }

    #[test]
    fn bounded_pareto_is_right_skewed() {
        // Median far below mean is the heavy-tail signature.
        let d = BoundedParetoDist::new(1.0, 10_000.0, 1.0);
        let mut rng = DetRng::seed_from_u64(7);
        let mut xs: Vec<f64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean > 2.0 * median, "mean {mean} median {median}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let d = LogNormalDist::with_median(146.0, 1.0);
        let mut rng = DetRng::seed_from_u64(8);
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 146.0).abs() / 146.0 < 0.05, "median {median}");
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = LogNormalDist::new(0.0, 0.5);
        let expect = d.mean().unwrap();
        let m = sample_mean(&d, 9, 400_000);
        assert!((m - expect).abs() / expect < 0.02, "m {m} expect {expect}");
    }

    #[test]
    #[should_panic(expected = "invalid uniform bounds")]
    fn uniform_rejects_inverted_bounds() {
        UniformDist::new(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn exponential_rejects_nonpositive_mean() {
        ExponentialDist::with_mean(0.0);
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn pareto_rejects_bad_bounds() {
        BoundedParetoDist::new(10.0, 10.0, 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn uniform_always_in_bounds(lo in -1e6f64..1e6, span in 0.0f64..1e6, seed in any::<u64>()) {
            let d = UniformDist::new(lo, lo + span);
            let mut rng = DetRng::seed_from_u64(seed);
            for _ in 0..100 {
                let x = d.sample(&mut rng);
                prop_assert!(x >= lo && x <= lo + span);
            }
        }

        #[test]
        fn pareto_always_in_bounds(
            lo in 1.0f64..1e3,
            factor in 1.001f64..1e4,
            alpha in 0.1f64..5.0,
            seed in any::<u64>(),
        ) {
            let hi = lo * factor;
            let d = BoundedParetoDist::new(lo, hi, alpha);
            let mut rng = DetRng::seed_from_u64(seed);
            for _ in 0..100 {
                let x = d.sample(&mut rng);
                prop_assert!(x >= lo && x <= hi, "x={} lo={} hi={}", x, lo, hi);
            }
        }

        #[test]
        fn exponential_nonnegative(mean in 1e-3f64..1e6, seed in any::<u64>()) {
            let d = ExponentialDist::with_mean(mean);
            let mut rng = DetRng::seed_from_u64(seed);
            for _ in 0..100 {
                prop_assert!(d.sample(&mut rng) >= 0.0);
            }
        }

        #[test]
        fn lognormal_positive(mu in -5.0f64..5.0, sigma in 0.0f64..3.0, seed in any::<u64>()) {
            let d = LogNormalDist::new(mu, sigma);
            let mut rng = DetRng::seed_from_u64(seed);
            for _ in 0..100 {
                prop_assert!(d.sample(&mut rng) > 0.0);
            }
        }
    }
}
