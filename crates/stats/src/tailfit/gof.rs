//! Goodness-of-fit by parametric bootstrap (Clauset, Shalizi & Newman §4).
//!
//! The likelihood-ratio tests in [`llr`](super::llr) only say which of two
//! models fits *better*; this module answers whether the power law is a
//! plausible fit at all: simulate many synthetic datasets from the fitted
//! model, re-fit each, and report the fraction whose KS distance exceeds the
//! empirical one. `p ≥ 0.1` is the conventional "plausible" threshold.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::dist::PowerLaw;
use super::fit::{fit_power_law, ks_distance};
use super::sample::SampleTail;

/// Result of the bootstrap.
#[derive(Clone, Copy, Debug)]
pub struct GofResult {
    /// Empirical KS distance of the fit.
    pub ks: f64,
    /// Bootstrap p-value: fraction of synthetic datasets fitting worse.
    pub p_value: f64,
    /// Number of bootstrap rounds run.
    pub rounds: usize,
}

impl GofResult {
    /// Clauset et al.'s convention: the hypothesis is plausible at p ≥ 0.1.
    pub fn plausible(&self) -> bool {
        self.p_value >= 0.1
    }
}

/// Derives the RNG seed for one bootstrap round from the master seed: a
/// SplitMix64 finalizer over `master + round·φ`. Each round gets its own
/// stream, so no round's draws depend on how many values an earlier round
/// took.
fn round_seed(master: u64, round: u64) -> u64 {
    let mut z = master.wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bootstraps the power-law fit on a tail sample (all values ≥ `fit.xmin`).
///
/// Deterministic given `seed`. Each round draws `tail.len()` samples from
/// the fitted model (from a per-round RNG stream derived from `seed`),
/// re-fits α by MLE, and records the KS distance; the p-value is the share
/// of rounds at least as distant as the data.
pub fn bootstrap_power_law(tail: &[f64], fit: &PowerLaw, rounds: usize, seed: u64) -> GofResult {
    assert!(rounds > 0, "need at least one bootstrap round");
    let mut sorted = tail.to_vec();
    sorted.sort_by(f64::total_cmp);
    let empirical = ks_distance(&sorted, fit);

    let mut synth = vec![0.0f64; tail.len()];
    let mut worse = 0usize;
    for round in 0..rounds {
        let mut rng = StdRng::seed_from_u64(round_seed(seed, round as u64));
        for x in synth.iter_mut() {
            *x = fit.sample(&mut rng);
        }
        synth.sort_by(f64::total_cmp);
        let refit = fit_power_law(&synth, fit.xmin);
        if ks_distance(&synth, &refit) >= empirical {
            worse += 1;
        }
    }
    GofResult { ks: empirical, p_value: worse as f64 / rounds as f64, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn true_power_law_is_plausible() {
        let mut rng = StdRng::seed_from_u64(31);
        let data: Vec<f64> = (0..3_000)
            .map(|_| (1.0 - rng.gen::<f64>()).powf(-1.0 / 1.5))
            .collect();
        let fit = fit_power_law(&data, 1.0);
        let gof = bootstrap_power_law(&data, &fit, 100, 7);
        assert!(gof.plausible(), "p = {} (ks = {})", gof.p_value, gof.ks);
    }

    #[test]
    fn exponential_data_is_implausible() {
        let mut rng = StdRng::seed_from_u64(32);
        let data: Vec<f64> = (0..3_000)
            .map(|_| 1.0 - (1.0 - rng.gen::<f64>()).ln() / 0.9)
            .collect();
        let fit = fit_power_law(&data, 1.0);
        let gof = bootstrap_power_law(&data, &fit, 100, 7);
        assert!(!gof.plausible(), "p = {} (ks = {})", gof.p_value, gof.ks);
        assert!(gof.p_value < 0.05);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(33);
        let data: Vec<f64> = (0..500)
            .map(|_| (1.0 - rng.gen::<f64>()).powf(-1.0 / 1.2))
            .collect();
        let fit = fit_power_law(&data, 1.0);
        let a = bootstrap_power_law(&data, &fit, 50, 9);
        let b = bootstrap_power_law(&data, &fit, 50, 9);
        assert_eq!(a.p_value, b.p_value);
        assert_eq!(a.ks, b.ks);
        assert_eq!(a.rounds, 50);
    }
}
