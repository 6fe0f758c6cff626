//! Order statistics: medians, quartiles and the percentile picker.

/// Percentiles the picker may report, lowest first.
const CANDIDATES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: f64 = 10.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an already sorted slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The highest candidate percentile with at least ten samples beyond it
/// (`n * (1 - p/100) >= 10`), so a reported tail is never one outlier.
/// Falls back to the median when even p50 has fewer than ten beyond it.
pub fn highest_supported_percentile(n: usize) -> f64 {
    CANDIDATES
        .iter()
        .copied()
        // The tolerance keeps 10 000 * (1 - 0.999) from reading 9.999….
        .filter(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9)
        .fold(CANDIDATES[0], f64::max)
}

/// Value at percentile `wanted`, demoted to the highest percentile the
/// sample count supports. Returns `(value, percentile actually used)`.
pub fn percentile(values: &[f64], wanted: f64) -> (f64, f64) {
    let used = wanted.min(highest_supported_percentile(values.len()));
    (quantile_sorted(&sorted(values), used / 100.0), used)
}

/// Distance between the first and third quartile as a share of the median
/// — the spread `compare` holds against a metric's bound. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), the
/// rule the benchmark contract names.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let exclusive = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = quantile_sorted(&v, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    ((exclusive(3) - exclusive(1)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond_the_percentile() {
        // 1 000 samples leave exactly 10 beyond p99 and 1 beyond p99.9.
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(100_000), 99.99);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        // Too few for any tail: the median is all that can be said.
        assert_eq!(highest_supported_percentile(7), 50.0);
    }

    #[test]
    fn percentile_is_demoted_when_the_sample_is_small() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let (v, used) = percentile(&values, 99.0);
        assert_eq!(used, 90.0);
        assert!((v - 180.1).abs() < 1e-9, "{v}");
        let many: Vec<f64> = (1..=2_000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0).1, 99.0);
        assert_eq!(percentile(&many, 50.0).1, 50.0);
    }

    #[test]
    fn median_and_quartile_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
