//! Order statistics used for every reported number.

/// Sorts a copy of `v` ascending (NaN-free input).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `v`; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The three quartile cut points of `v`, computed as Python's
/// `statistics.quantiles(v, n=4)` does (method "exclusive"), because the
/// acceptance rule for this benchmark is stated in those terms.
///
/// # Panics
/// Panics if `v` has fewer than two values (as Python does).
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need at least two values");
    let s = sorted(v);
    let n = s.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (0–100) of an ascending slice, nearest-rank.
pub fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n`; 50 when even p90 has not.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Per mille, so that "ten beyond p90 of a hundred" is exact.
    [999, 990, 950, 900]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Values checked against CPython 3: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), [15.0, 30.0, 45.0]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(9_999), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }
}
