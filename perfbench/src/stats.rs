//! Medians and histogram quantiles.

use brisk_metrics::Histogram;

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile `q` (0..1) of a log-bucketed histogram, interpolated linearly
/// inside the bucket that holds it instead of reading the bucket's upper
/// edge, so the value moves smoothly with the data. 0 if empty.
pub fn quantile(h: &Histogram, q: f64) -> f64 {
    let points = h.cdf_points();
    let mut below = 0.0;
    let mut lower_edge = h.min();
    for (upper, cumulative) in points {
        if cumulative >= q {
            let lower = (upper / GROWTH).max(lower_edge).min(upper);
            let share = (q - below) / (cumulative - below);
            return lower + share * (upper - lower);
        }
        below = cumulative;
        lower_edge = upper;
    }
    h.max()
}

/// Bucket growth of `Histogram::new()`.
const GROWTH: f64 = 1.03;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_track_uniform_data_closely() {
        let mut h = Histogram::new();
        for v in 1000..=2000 {
            h.record(v as f64);
        }
        for (q, want) in [(0.5, 1500.0), (0.9, 1900.0), (0.1, 1100.0)] {
            let got = quantile(&h, q);
            assert!((got / want - 1.0).abs() < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(quantile(&Histogram::new(), 0.5), 0.0);
    }
}
