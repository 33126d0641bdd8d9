//! The arithmetic every reported number goes through: medians, nearest-rank
//! percentiles, quartiles as Python's `statistics.quantiles(n=4)` gives them
//! (the A/A verdict must agree with the driver's), and the geometric mean.

/// Median of unsorted values (mean of the two middle ones for even counts).
/// `NaN` for an empty slice: a metric nobody measured must not read as 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of **sorted** values: the smallest value with at
/// least `p` of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(q1, q2, q3)` exactly as `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // 1 000 samples leave exactly ten beyond the 99th percentile.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(v.iter().filter(|x| **x > percentile(&v, 0.99)).count(), 10);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        // [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // >>> statistics.quantiles([10, 2, 38, 23, 38], n=4)
        // [6.0, 23.0, 38.0]
        assert_eq!(quartiles(&[10.0, 2.0, 38.0, 23.0, 38.0]), (6.0, 23.0, 38.0));
        // >>> statistics.quantiles([1, 2], n=4)
        // [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn geomean_weighs_every_template_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // One template 1000× slower moves the geomean far less than the mean.
        let g = geomean(&[10.0, 10.0, 10.0, 10_000.0]);
        assert!(g > 50.0 && g < 60.0, "{g}");
    }
}
