//! Order statistics used for every reported number, on top of
//! `rupcxx_util::Summary`.

use rupcxx_util::Summary;

/// Sorted copy of `xs` (NaNs sort last and are never produced here).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).map_or(0.0, |s| s.median)
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them — the benchmark driver judges spread with that
/// function, so the ledger must agree with it digit for digit.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a percentage of the median (0 with fewer than
/// two samples or a zero median).
pub fn iqr_pct(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs() * 100.0,
        _ => 0.0,
    }
}

/// The `p`-th percentile (0–100), linear interpolation between closest
/// ranks; 0 if empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile of the usual ladder that still has at least
/// ten of `n` samples beyond it (the choosing-metrics rule for a tail
/// figure); `None` when even p75 is unsupported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per-mille integers: 100 samples have exactly ten beyond p90, which
    // floating point would round down to 9.999….
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Range (max − min) as a percentage of the median.
pub fn range_pct(xs: &[f64]) -> f64 {
    match Summary::of(xs) {
        Some(s) if s.median != 0.0 => (s.max - s.min) / s.median.abs() * 100.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_selection_follows_the_ten_beyond_rule() {
        // 45 reps: 45 * 0.25 = 11.25 >= 10 but 45 * 0.10 = 4.5 < 10.
        assert_eq!(highest_supported_percentile(45), Some(75.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(5), None);
    }

    #[test]
    fn median_percentile_and_spreads() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 75.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(iqr_pct(&[1.0]), 0.0);
        assert!((iqr_pct(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 100.0).abs() < 1e-12);
        assert!((range_pct(&[9.0, 10.0, 11.0]) - 20.0).abs() < 1e-12);
    }
}
