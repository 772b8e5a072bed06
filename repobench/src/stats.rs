//! Raw-sample statistics: quantiles over kept samples (no bucketed
//! histogram), the tail percentile a sample count can support, and the
//! quartile spread the calibration table reports.

/// Sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0..=1) of raw samples, linearly interpolated between
/// the two nearest order statistics. Empty input gives 0.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of raw samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of the percentiles 99.9, 99, 95, 90 that still has at least
/// ten samples beyond it, falling back to the median for small samples.
pub fn tail_percentile(n: usize) -> f64 {
    // In per-mille, so that "ten beyond" is exact integer arithmetic.
    [999, 990, 950, 900]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map_or(50.0, |p| p as f64 / 10.0)
}

/// `(percentile, value)` of the highest percentile the sample supports.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let p = tail_percentile(xs.len());
    (p, quantile(xs, p / 100.0))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) gives them — the acceptance check uses that
/// function, so the calibration table must too. Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_come_from_raw_samples() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        // Interpolated, not snapped to a bucket edge.
        assert!((quantile(&[1.0, 2.0], 0.3) - 1.3).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(p, 99.0);
        assert!((v - 990.01).abs() < 1e-9, "{v}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12, "{q1} {q3}");
    }
}
