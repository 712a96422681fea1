//! Basic summary statistics: mean, median, mode.
//!
//! §9 of the paper reports achievement counts via mode / mean / median
//! together, precisely because heavy-tailed data make any single summary
//! misleading.

/// Arithmetic mean; `None` for empty input.
pub fn mean(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    Some(data.iter().sum::<f64>() / data.len() as f64)
}

/// Median (averaging the two middle elements for even lengths).
/// Sorts a copy; `None` for empty input.
pub fn median(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Mode of integer-valued data (smallest value on ties); `None` when empty.
pub fn mode_u32(data: &[u32]) -> Option<u32> {
    if data.is_empty() {
        return None;
    }
    let mut counts = std::collections::HashMap::new();
    for &x in data {
        *counts.entry(x).or_insert(0u64) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(v, _)| v)
}

/// Weighted share: what fraction of `total` the given values represent.
pub fn share(part: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        part / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_data_and_of_none() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&d), Some(5.0));
        assert!(mean(&[]).is_none());
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert!(median(&[]).is_none());
    }

    #[test]
    fn mode_picks_most_frequent() {
        assert_eq!(mode_u32(&[1, 2, 2, 3, 3, 3]), Some(3));
        // Tie → smallest.
        assert_eq!(mode_u32(&[5, 5, 9, 9]), Some(5));
        assert_eq!(mode_u32(&[]), None);
    }

    #[test]
    fn share_handles_zero_total() {
        assert_eq!(share(1.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
    }
}
