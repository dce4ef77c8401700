//! Discrete popularity models: Zipf ranks and general weighted choice.
//!
//! Web request streams are famously Zipf-like: a handful of objects draw
//! most of the traffic. The base (Worrell) simulator used a *uniform*
//! request distribution; the modified-workload simulator needs a skewed
//! one, plus the Bestavros twist that the most popular files are the least
//! mutable. [`ZipfDist`] provides ranked popularity, drawn in expected
//! O(1) through a guide table over its CDF; [`AliasTable`] provides O(1)
//! sampling from arbitrary weights (used when popularity is permuted
//! against mutability).

use crate::rng::DetRng;

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank k) ∝ 1 / (k+1)^s`.
///
/// Sampling inverts the CDF: a draw `u` in `[0, 1)` names the first rank
/// whose cumulative weight exceeds `u`. Exact for every exponent; no
/// rejection step.
///
/// # The guide table
///
/// A binary search over all `n` cumulative weights costs `log₂ n`
/// data-dependent branches a draw. Beside `cumulative` the sampler keeps
/// a *guide table* (a cut-point table: Chen & Asau 1974; Devroye 1986
/// §III.2.4) that names, for each of `m` equal slices of `[0, 1)`, the
/// ranks a draw in that slice can land on, so a draw reads one guide pair
/// and searches only between them — usually one rank or none.
///
/// * `m` is the power of two at or above `2n` (at most 16 B of guide a
///   rank: 16 KB at 2 000 ranks, 256 KB at 20 000). Because `m` is a
///   power of two, `bucket(x) = (x · m) as usize` is exactly `⌊x·m⌋`:
///   scaling by `m` only moves the exponent.
/// * `guide[j]`, for `j` in `0..=m`, is the first rank `i` with
///   `bucket(cumulative[i]) ≥ j`, clamped to `n − 1`.
///
/// **Claim.** For `u` in `[0, 1)` and `j = bucket(u)`, the answer of the
/// full search, `A = min(first i with cumulative[i] > u, n − 1)`, lies in
/// `guide[j] ..= guide[j + 1]`, so searching only that range returns `A`,
/// bit for bit.
///
/// *Lower bound.* For `i < guide[j]`, `⌊cumulative[i]·m⌋ < j`, so
/// `cumulative[i]·m < j ≤ u·m` and `cumulative[i] ≤ u`: rank `i` is not
/// `A`'s. So `A ≥ guide[j]` (and `guide[j] ≤ n − 1`).
///
/// *Upper bound.* Let `g = guide[j + 1]`. If `bucket(cumulative[g]) ≥
/// j + 1`, then `cumulative[g]·m ≥ j + 1 > u·m` (as `⌊u·m⌋ = j`), so
/// `cumulative[g] > u` and `A ≤ g`. Otherwise the clamp made `g = n − 1`,
/// and `A ≤ n − 1` by definition. (`cumulative[n − 1]` is exactly `1.0`,
/// so the clamp only guards.)
///
/// Within `lo..hi = guide[j]..guide[j + 1]` the answer is therefore `lo`
/// plus the count of `cumulative[lo..hi]` at or below `u`, which never
/// exceeds `n − 1`. A range one rank wide is one compare, and so is an
/// empty one: there `lo = g` and `cumulative[g] > u` by the upper bound,
/// so comparing `cumulative[lo]` adds nothing and needs no guard.
#[derive(Debug, Clone)]
pub struct ZipfDist {
    cumulative: Vec<f64>,
    guide: Vec<u32>,
}

impl ZipfDist {
    /// Zipf over `n` ranks with exponent `s`. `s = 0` degenerates to the
    /// uniform distribution (the base simulator's model).
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > u32::MAX`, or if `s` is negative or
    /// non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf requires at least one rank");
        assert!(u32::try_from(n).is_ok(), "Zipf ranks must fit in u32");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        // Normalise; the final entry becomes exactly 1.0.
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        // `m` slices, the power of two at or above `2n` (type docs).
        let m = (2 * n).next_power_of_two();
        let mut guide = Vec::with_capacity(m + 1);
        let mut rank = 0;
        for j in 0..=m {
            while rank < n - 1 && Self::bucket(cumulative[rank], m) < j {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        ZipfDist { cumulative, guide }
    }

    /// `⌊x·m⌋`, exact because `m` is a power of two.
    #[inline]
    fn bucket(x: f64, m: usize) -> usize {
        (x * m as f64) as usize
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draw a rank in `0..n`; rank 0 is the most popular.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        self.rank_of(rng.unit_f64())
    }

    /// The rank a draw `u` in `[0, 1)` inverts to: the first whose
    /// cumulative weight exceeds `u` (the last rank if none does), found
    /// between the two guide entries of `u`'s slice (see the type docs).
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let j = Self::bucket(u, self.guide.len() - 1);
        let lo = self.guide[j] as usize;
        let hi = self.guide[j + 1] as usize;
        if hi - lo <= 1 {
            lo + usize::from(self.cumulative[lo] <= u)
        } else {
            lo + self.cumulative[lo..hi].partition_point(|&c| c <= u)
        }
    }
}

/// Walker alias table: O(1) sampling from an arbitrary finite weight
/// vector.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build from non-negative weights (not necessarily normalised).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table requires weights");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Residuals are 1.0 up to floating-point noise.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw a category index.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let i = rng.below(self.len() as u64) as usize;
        if rng.unit_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `P(rank k) = (1/(k+1)^s) / Σⱼ 1/(j+1)^s`, written out from the
    /// definition rather than read off the sampler's table.
    pub(super) fn closed_form(n: usize, s: f64) -> Vec<f64> {
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// The mass the sampler's table gives each rank.
    pub(super) fn masses(d: &ZipfDist) -> Vec<f64> {
        let c = &d.cumulative;
        std::iter::once(c[0])
            .chain(c.windows(2).map(|w| w[1] - w[0]))
            .collect()
    }

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let d = ZipfDist::new(100, 1.0);
        let mut rng = DetRng::seed_from_u64(1);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_frequency_matches_closed_form() {
        let d = ZipfDist::new(20, 0.8);
        let mut rng = DetRng::seed_from_u64(2);
        let n = 400_000;
        let mut counts = [0u64; 20];
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        for (k, (&count, theo)) in counts.iter().zip(closed_form(20, 0.8)).enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - theo).abs() < 0.01,
                "rank {k}: empirical {emp}, theoretical {theo}"
            );
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let d = ZipfDist::new(10, 0.0);
        for (k, p) in masses(&d).into_iter().enumerate() {
            assert!((p - 0.1).abs() < 1e-12, "rank {k}: {p}");
        }
    }

    #[test]
    fn zipf_single_rank() {
        let d = ZipfDist::new(1, 2.0);
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 0);
        }
        assert_eq!(d.cumulative, [1.0]);
    }

    /// What the guide table replaces: the binary search over every rank.
    pub(super) fn full_search(d: &ZipfDist, u: f64) -> usize {
        d.cumulative.partition_point(|&c| c <= u).min(d.len() - 1)
    }

    /// `x` and its two `f64` neighbours, those that lie in `[0, 1)`.
    fn with_neighbours(x: f64, out: &mut Vec<f64>) {
        let bits = x.to_bits();
        let below = (x > 0.0).then(|| f64::from_bits(bits - 1));
        for v in [below, Some(x), Some(f64::from_bits(bits + 1))]
            .into_iter()
            .flatten()
        {
            if (0.0..1.0).contains(&v) {
                out.push(v);
            }
        }
    }

    #[test]
    fn guided_lookup_is_the_full_binary_search() {
        for n in [1, 2, 3, 63, 64, 65, 2_000, 20_000] {
            for s in [0.0, 0.5, 1.0, 1.3, 2.0, 5.0] {
                let d = ZipfDist::new(n, s);
                let m = d.guide.len() - 1;
                assert_eq!(m, (2 * n).next_power_of_two(), "n = {n}");
                let mut probes = vec![0.0, 1.0 - f64::EPSILON / 2.0];
                for j in 0..m {
                    with_neighbours(j as f64 / m as f64, &mut probes);
                }
                for &c in &d.cumulative {
                    with_neighbours(c, &mut probes);
                }
                for u in probes {
                    assert_eq!(
                        d.rank_of(u),
                        full_search(&d, u),
                        "n = {n}, s = {s}, u = {u:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipf_samples_in_range() {
        let d = ZipfDist::new(7, 1.5);
        let mut rng = DetRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn alias_matches_weights() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&w);
        let mut rng = DetRng::seed_from_u64(5);
        let n = 400_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &wi) in w.iter().enumerate() {
            let emp = counts[i] as f64 / n as f64;
            let theo = wi / 10.0;
            assert!((emp - theo).abs() < 0.01, "cat {i}: {emp} vs {theo}");
        }
    }

    #[test]
    fn alias_handles_zero_weight_categories() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut rng = DetRng::seed_from_u64(6);
        for _ in 0..1000 {
            assert_eq!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn alias_single_category() {
        let t = AliasTable::new(&[5.0]);
        let mut rng = DetRng::seed_from_u64(7);
        assert_eq!(t.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_empty_panics() {
        ZipfDist::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn alias_all_zero_panics() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn alias_negative_weight_panics() {
        AliasTable::new(&[1.0, -1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{closed_form, full_search, masses};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn zipf_table_is_the_closed_form(n in 1usize..500, s in 0.0f64..3.0) {
            let d = ZipfDist::new(n, s);
            prop_assert_eq!(d.cumulative[n - 1], 1.0);
            for (k, (p, q)) in masses(&d).into_iter().zip(closed_form(n, s)).enumerate() {
                prop_assert!(p >= 0.0, "rank {}: negative mass {}", k, p);
                prop_assert!((p - q).abs() < 1e-12, "rank {}: {} vs {}", k, p, q);
            }
        }

        #[test]
        fn guided_lookup_is_the_full_binary_search_at_random_draws(
            n in 1usize..5_000,
            s in 0.0f64..6.0,
            draws in proptest::collection::vec(0.0f64..1.0, 256),
        ) {
            let d = ZipfDist::new(n, s);
            for u in draws {
                prop_assert_eq!(d.rank_of(u), full_search(&d, u), "u = {:e}", u);
            }
        }

        #[test]
        fn alias_samples_valid_indices(
            weights in proptest::collection::vec(0.0f64..100.0, 1..64),
            seed in any::<u64>(),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let t = AliasTable::new(&weights);
            let mut rng = DetRng::seed_from_u64(seed);
            for _ in 0..64 {
                let i = t.sample(&mut rng);
                prop_assert!(i < weights.len());
                // A zero-weight category must never be drawn.
                prop_assert!(weights[i] > 0.0);
            }
        }
    }
}
