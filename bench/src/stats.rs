//! Order statistics the reports are built from.
//!
//! Two different rules are used on purpose. Within an epoch a latency
//! percentile is the **nearest-rank** sample (as
//! `simcore::LatencyStats::quantile_ns` does), so it is a latency that
//! was really observed. Across epochs and across reps the quartiles are
//! the **interpolated** ones Python's `statistics.quantiles(v, n=4)`
//! gives (exclusive method), because that is what the driver computes
//! over a set of runs and the numbers printed here should match its.

/// Sort a copy of `values` ascending. NaN never occurs in a
/// measurement; if one slips in it sorts last instead of panicking.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The three quartiles of `values` by the exclusive method
/// (`statistics.quantiles(values, n=4)`): position `i * (n + 1) / 4`
/// in the 1-based sorted sample, linearly interpolated between its two
/// neighbours. Python needs at least two values and extrapolates beyond
/// the sample when given exactly two; here the result is clamped to the
/// sample's range (a two-epoch smoke run must not report a negative
/// latency), one value yields itself three times, and none yields zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j = floor(i * (n + 1) / 4), clamped to [1, n - 1]; the
        // remainder is the interpolation weight in quarters.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[n - 1]);
    }
    out
}

/// The median (middle value, or the mean of the two middle ones).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range as a percentage of the median: the spread
/// measure the driver applies to a set of runs.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let q = quartiles(values);
    if q[1] == 0.0 {
        0.0
    } else {
        100.0 * (q[2] - q[0]) / q[1].abs()
    }
}

/// The nearest-rank `q`-quantile of an already sorted sample.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// FNV-1a over a stream of counters: the digest that pins a simulation
/// epoch's results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Mix in one counter, byte by byte.
    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped
        // here to the sample's range.
        assert_eq!(quartiles(&[1.0, 2.0]), [1.0, 1.5, 2.0]);
        // statistics.quantiles([1..16], n=4) == [4.25, 8.5, 12.75]
        let q16: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(quartiles(&q16), [4.25, 8.5, 12.75]);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        let s = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(nearest_rank(&s, 0.5), 50);
        assert_eq!(nearest_rank(&s, 0.99), 100);
        assert_eq!(nearest_rank(&s, 0.0), 10);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv1a::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv1a::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
