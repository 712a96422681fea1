//! Order statistics over measured samples.

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// `[0, 1]`: the smallest sample with at least `q · n` samples at or below
/// it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The sample-count rule: a percentile is reported only when at least ten
/// samples lie beyond it (so p99 needs 1,000 samples).
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= 10
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The lower quartile (nearest rank) of a run's repetitions of one timed
/// step; 0 for none. The benchmark's CPUs are shared with other tenants
/// whose load comes in bursts, and a burst only ever slows a repetition
/// down, so the lower quartile tracks the program's own cost where the
/// median also tracks the neighbours.
pub fn low_quartile(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.25).unwrap_or(0.0)
}

/// Sorts in place and returns the slice, for percentile calls.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn low_quartile_is_a_nearest_rank() {
        assert_eq!(low_quartile(&[5.0, 1.0, 3.0]), 1.0);
        let nine: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(low_quartile(&nine), 3.0);
        assert_eq!(low_quartile(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
