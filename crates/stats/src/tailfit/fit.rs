//! Maximum-likelihood fitting of the tail models, Kolmogorov–Smirnov
//! distances, and the KS-minimizing `x_min` scan of Clauset et al.

use super::dist::{Exponential, Lognormal, PowerLaw, TailModel, TruncatedPowerLaw};
use super::neldermead::minimize;

/// Fits a power law to tail data (all values ≥ `xmin`) via the closed-form
/// continuous MLE: α = 1 + n / Σ ln(x/x_min).
pub fn fit_power_law(tail: &[f64], xmin: f64) -> PowerLaw {
    debug_assert!(tail.iter().all(|&x| x >= xmin));
    let n = tail.len() as f64;
    let sum_ln: f64 = tail.iter().map(|&x| (x / xmin).ln()).sum();
    // Guard against all-equal tails (sum_ln = 0): return a steep alpha.
    let alpha = if sum_ln > 0.0 { 1.0 + n / sum_ln } else { f64::INFINITY };
    PowerLaw { alpha: alpha.min(50.0), xmin }
}

/// Fits an exponential to tail data via the shifted-exponential MLE:
/// λ = 1 / (mean − x_min).
pub fn fit_exponential(tail: &[f64], xmin: f64) -> Exponential {
    let n = tail.len() as f64;
    let mean: f64 = tail.iter().sum::<f64>() / n;
    let excess = (mean - xmin).max(1e-12);
    Exponential { lambda: 1.0 / excess, xmin }
}

/// Fits a truncated lognormal by numerical MLE (Nelder–Mead over (μ, ln σ)),
/// seeded from the sample moments of ln x.
pub fn fit_lognormal(tail: &[f64], xmin: f64) -> Lognormal {
    let lnx: Vec<f64> = tail.iter().map(|&x| x.max(1e-300).ln()).collect();
    let n = lnx.len() as f64;
    let m = lnx.iter().sum::<f64>() / n;
    let var = lnx.iter().map(|l| (l - m) * (l - m)).sum::<f64>() / n;
    let s0 = var.sqrt().max(1e-3);

    let objective = |p: &[f64]| {
        let model = Lognormal { mu: p[0], sigma: p[1].exp(), xmin };
        let ll = model.log_likelihood(tail);
        if ll.is_finite() {
            -ll
        } else {
            f64::INFINITY
        }
    };
    let (best, _) = minimize(objective, &[m, s0.ln()], 0.25, 1e-10, 400);
    Lognormal { mu: best[0], sigma: best[1].exp(), xmin }
}

/// Fits a truncated power law by numerical MLE over (ln(α−1), ln λ), seeded
/// from the pure power-law α and λ = 1/mean.
pub fn fit_truncated_power_law(tail: &[f64], xmin: f64) -> TruncatedPowerLaw {
    let pl = fit_power_law(tail, xmin);
    let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
    let a0 = (pl.alpha - 1.0).clamp(1e-3, 20.0).ln();
    let l0 = (1.0 / mean).max(1e-12).ln();

    let objective = |p: &[f64]| {
        let alpha = 1.0 + p[0].exp();
        let lambda = p[1].exp();
        if !alpha.is_finite() || !lambda.is_finite() || lambda > 1e6 {
            return f64::INFINITY;
        }
        let model = TruncatedPowerLaw { alpha, lambda, xmin };
        let ll = model.log_likelihood(tail);
        if ll.is_finite() {
            -ll
        } else {
            f64::INFINITY
        }
    };
    let (best, _) = minimize(objective, &[a0, l0], 0.4, 1e-10, 600);
    TruncatedPowerLaw { alpha: 1.0 + best[0].exp(), lambda: best[1].exp(), xmin }
}

/// Kolmogorov–Smirnov distance between the empirical CDF of `tail` (must be
/// sorted ascending) and a model CDF.
pub fn ks_distance<M: TailModel>(sorted_tail: &[f64], model: &M) -> f64 {
    let n = sorted_tail.len();
    if n == 0 {
        return f64::NAN;
    }
    let mut d: f64 = 0.0;
    for (i, &x) in sorted_tail.iter().enumerate() {
        let m = model.cdf(x);
        // Compare against the empirical CDF just below and at the step.
        let lo = i as f64 / n as f64;
        let hi = (i + 1) as f64 / n as f64;
        d = d.max((m - lo).abs()).max((m - hi).abs());
    }
    d
}

/// Result of the `x_min` scan.
#[derive(Clone, Debug)]
pub struct XminScan {
    pub xmin: f64,
    /// Power-law fit at the chosen x_min.
    pub power_law: PowerLaw,
    /// KS distance of that fit.
    pub ks: f64,
    /// Number of tail points at the chosen x_min.
    pub n_tail: usize,
}

/// Distinct candidate cut points, quantile-thinned to `max_candidates` and
/// prefiltered so every candidate keeps at least `min_tail` survivors.
fn xmin_candidates(data: &[f64], min_tail: usize, max_candidates: usize) -> Vec<f64> {
    let mut uniq: Vec<f64> = Vec::new();
    let mut prev = f64::NAN;
    for &x in data {
        if x != prev {
            uniq.push(x);
            prev = x;
        }
    }
    // Never cut so deep that fewer than `min_tail` points survive.
    let last_ok = uniq.partition_point(|&u| {
        let start = data.partition_point(|&x| x < u);
        data.len() - start >= min_tail
    });
    let uniq = &uniq[..last_ok];
    if uniq.len() <= max_candidates {
        return uniq.to_vec();
    }
    let mut candidates = Vec::with_capacity(max_candidates);
    for i in 0..max_candidates {
        let idx = i * (uniq.len() - 1) / (max_candidates - 1);
        if candidates.last() != Some(&uniq[idx]) {
            candidates.push(uniq[idx]);
        }
    }
    candidates
}

/// Fits and scores one candidate cut point; `None` when the tail is too
/// small or the power-law MLE is degenerate.
fn eval_candidate(data: &[f64], xmin: f64, min_tail: usize) -> Option<XminScan> {
    let start = data.partition_point(|&x| x < xmin);
    let tail = &data[start..];
    if tail.len() < min_tail {
        return None;
    }
    let pl = fit_power_law(tail, xmin);
    if !pl.alpha.is_finite() || pl.alpha <= 1.0 {
        return None;
    }
    let ks = ks_distance(tail, &pl);
    Some(XminScan { xmin, power_law: pl, ks, n_tail: tail.len() })
}

/// Selects `x_min` by minimizing the power-law KS distance over candidate
/// cut points (Clauset et al. §3.3), as the `powerlaw` package does.
///
/// `data` must be sorted ascending and strictly positive values are the only
/// candidates. `min_tail` bounds how small the surviving tail may be, and at
/// most `max_candidates` distinct values (quantile-spaced) are tried to keep
/// the scan cheap on multi-million-point samples.
pub fn scan_xmin(sorted_data: &[f64], min_tail: usize, max_candidates: usize) -> Option<XminScan> {
    scan_xmin_jobs(sorted_data, min_tail, max_candidates, 1)
}

/// [`scan_xmin`] with the candidate fits spread over `jobs` scoped threads.
///
/// Each candidate fit is independent, and the chunked results are reduced in
/// candidate order with the serial strictly-better rule (`ks < best.ks`, so
/// the earliest candidate wins ties); the selected cut point is therefore
/// identical for every `jobs` value.
pub fn scan_xmin_jobs(
    sorted_data: &[f64],
    min_tail: usize,
    max_candidates: usize,
    jobs: usize,
) -> Option<XminScan> {
    let positive_start = sorted_data.partition_point(|&x| x <= 0.0);
    let data = &sorted_data[positive_start..];
    if data.len() < min_tail.max(2) {
        return None;
    }
    let candidates = xmin_candidates(data, min_tail, max_candidates);
    if candidates.is_empty() {
        return None;
    }

    let per_chunk = steam_par::map(jobs, steam_par::split(candidates.len(), jobs), |range| {
        candidates[range]
            .iter()
            .map(|&xmin| eval_candidate(data, xmin, min_tail))
            .collect::<Vec<_>>()
    });

    let mut best: Option<XminScan> = None;
    for scan in per_chunk.into_iter().flatten().flatten() {
        if best.as_ref().is_none_or(|b| scan.ks < b.ks) {
            best = Some(scan);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn sample_power_law(rng: &mut StdRng, alpha: f64, xmin: f64, n: usize) -> Vec<f64> {
        // Inverse-CDF sampling: x = xmin (1-u)^{-1/(α-1)}
        (0..n)
            .map(|_| xmin * (1.0 - rng.gen::<f64>()).powf(-1.0 / (alpha - 1.0)))
            .collect()
    }

    fn sample_lognormal(rng: &mut StdRng, mu: f64, sigma: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                // Box–Muller.
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (mu + sigma * z).exp()
            })
            .collect()
    }

    #[test]
    fn power_law_mle_recovers_alpha() {
        let mut rng = StdRng::seed_from_u64(1);
        for alpha in [1.8, 2.5, 3.2] {
            let data = sample_power_law(&mut rng, alpha, 1.0, 20_000);
            let fit = fit_power_law(&data, 1.0);
            assert!(
                (fit.alpha - alpha).abs() < 0.06,
                "alpha {alpha} fitted as {}",
                fit.alpha
            );
        }
    }

    #[test]
    fn exponential_mle_recovers_lambda() {
        let mut rng = StdRng::seed_from_u64(2);
        let lambda = 0.35;
        let xmin = 2.0;
        let data: Vec<f64> = (0..20_000)
            .map(|_| xmin - (1.0 - rng.gen::<f64>()).ln() / lambda)
            .collect();
        let fit = fit_exponential(&data, xmin);
        assert!((fit.lambda - lambda).abs() < 0.01, "λ = {}", fit.lambda);
    }

    #[test]
    fn lognormal_mle_recovers_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = sample_lognormal(&mut rng, 1.5, 0.8, 30_000);
        // Untruncated case: xmin below essentially all mass.
        let fit = fit_lognormal(&data, 1e-6);
        assert!((fit.mu - 1.5).abs() < 0.05, "mu = {}", fit.mu);
        assert!((fit.sigma - 0.8).abs() < 0.05, "sigma = {}", fit.sigma);
    }

    #[test]
    fn lognormal_mle_with_truncation() {
        let mut rng = StdRng::seed_from_u64(4);
        let raw = sample_lognormal(&mut rng, 0.0, 1.0, 120_000);
        let xmin = 1.0; // cuts ~half the mass
        let tail: Vec<f64> = raw.into_iter().filter(|&x| x >= xmin).collect();
        let fit = fit_lognormal(&tail, xmin);
        assert!(fit.mu.abs() < 0.12, "mu = {}", fit.mu);
        assert!((fit.sigma - 1.0).abs() < 0.1, "sigma = {}", fit.sigma);
    }

    #[test]
    fn tpl_fit_finds_cutoff() {
        let mut rng = StdRng::seed_from_u64(5);
        // Sample TPL via rejection from a power law envelope.
        let alpha = 1.7;
        let lambda = 0.02;
        let mut data = Vec::with_capacity(20_000);
        while data.len() < 20_000 {
            let x = 1.0 * (1.0 - rng.gen::<f64>()).powf(-1.0 / (alpha - 1.0));
            if rng.gen::<f64>() < (-lambda * (x - 1.0)).exp() {
                data.push(x);
            }
        }
        let fit = fit_truncated_power_law(&data, 1.0);
        assert!((fit.alpha - alpha).abs() < 0.2, "alpha = {}", fit.alpha);
        assert!(
            (fit.lambda / lambda).ln().abs() < 0.8,
            "lambda = {} (want ~{lambda})",
            fit.lambda
        );
    }

    #[test]
    fn ks_distance_small_for_true_model() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut data = sample_power_law(&mut rng, 2.5, 1.0, 10_000);
        data.sort_by(f64::total_cmp);
        let fit = fit_power_law(&data, 1.0);
        let d = ks_distance(&data, &fit);
        assert!(d < 0.02, "KS = {d}");
        // A badly wrong model has a large distance.
        let bad = PowerLaw { alpha: 6.0, xmin: 1.0 };
        assert!(ks_distance(&data, &bad) > 0.2);
    }

    #[test]
    fn xmin_scan_finds_transition() {
        let mut rng = StdRng::seed_from_u64(7);
        // Uniform noise below 5.0, clean power law above.
        let mut data: Vec<f64> = (0..4000).map(|_| rng.gen::<f64>() * 5.0).collect();
        data.extend(sample_power_law(&mut rng, 2.2, 5.0, 8000));
        data.sort_by(f64::total_cmp);
        let scan = scan_xmin(&data, 100, 80).unwrap();
        assert!(
            (3.0..8.0).contains(&scan.xmin),
            "xmin = {} (want ≈5)",
            scan.xmin
        );
        assert!((scan.power_law.alpha - 2.2).abs() < 0.2, "alpha = {}", scan.power_law.alpha);
    }

    #[test]
    fn xmin_scan_is_job_count_invariant() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut data: Vec<f64> = (0..3000).map(|_| rng.gen::<f64>() * 5.0).collect();
        data.extend(sample_power_law(&mut rng, 2.0, 5.0, 6000));
        data.sort_by(f64::total_cmp);
        let serial = scan_xmin(&data, 100, 80).unwrap();
        for jobs in [2, 3, 8, 64] {
            let par = scan_xmin_jobs(&data, 100, 80, jobs).unwrap();
            assert_eq!(par.xmin.to_bits(), serial.xmin.to_bits(), "jobs={jobs}");
            assert_eq!(par.ks.to_bits(), serial.ks.to_bits(), "jobs={jobs}");
            assert_eq!(par.n_tail, serial.n_tail, "jobs={jobs}");
            assert_eq!(
                par.power_law.alpha.to_bits(),
                serial.power_law.alpha.to_bits(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn xmin_scan_ignores_zeros_and_negatives() {
        let mut data = vec![0.0; 500];
        data.extend((1..=1000).map(f64::from));
        data.sort_by(f64::total_cmp);
        let scan = scan_xmin(&data, 50, 40).unwrap();
        assert!(scan.xmin > 0.0);
    }

    #[test]
    fn xmin_scan_rejects_tiny_samples() {
        assert!(scan_xmin(&[1.0, 2.0, 3.0], 50, 40).is_none());
        assert!(scan_xmin(&[], 10, 40).is_none());
    }

    #[test]
    fn all_equal_tail_is_degenerate_not_panicking() {
        let data = vec![5.0; 100];
        let pl = fit_power_law(&data, 5.0);
        assert!(pl.alpha >= 49.0); // capped steep alpha
        let e = fit_exponential(&data, 5.0);
        assert!(e.lambda > 1e6);
    }
}
