//! Batch summary statistics for trace analysis and experiment reporting:
//! [`percentile`] / [`median`] and the [`pearson`] correlation.

/// The `p`-th percentile (0–100) of a batch, by linear interpolation
/// between closest ranks. Returns `None` on an empty batch.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of a batch; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Pearson correlation coefficient of two equal-length batches; `None`
/// when fewer than two points or either batch is constant. Used to
/// *measure* (not just assert) the Bestavros popularity↔mutability
/// anticorrelation in generated traces.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "pearson requires equal-length batches");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mx, my) = (mean(xs), mean(ys));
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "in [0, 100]")]
    fn percentile_rejects_out_of_range_p() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn pearson_recognises_perfect_relationships() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let down: Vec<f64> = xs.iter().map(|x| -x + 10.0).collect();
        assert!((pearson(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_near_zero_for_independent_data() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let ys: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1000)).collect();
        assert!(pearson(&xs, &ys).unwrap().abs() < 0.1);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[], &[]), None);
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None); // constant x
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn pearson_rejects_mismatched_lengths() {
        pearson(&[1.0], &[1.0, 2.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn percentile_is_monotone_in_p(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let p25 = percentile(&xs, 25.0).unwrap();
            let p50 = percentile(&xs, 50.0).unwrap();
            let p75 = percentile(&xs, 75.0).unwrap();
            prop_assert!(p25 <= p50 && p50 <= p75);
        }
    }
}
