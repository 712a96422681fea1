//! Random samplers for the generative population model.
//!
//! Everything is built on `rand`'s uniform source: Box–Muller normals,
//! lognormals, Pareto/power-law tails, discrete Zipf weights, and an alias
//! table for O(1) weighted choice over the game catalog.

use rand::Rng;

/// Standard normal via Box–Muller (one value per call; simple beats caching
/// the second value here).
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Lognormal: `exp(N(mu, sigma))`.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * normal(rng)).exp()
}

/// Pareto (continuous power law): density ∝ x^{-(alpha+1)} on `x ≥ xmin`
/// (so the *survival* exponent is `alpha`).
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, xmin: f64, alpha: f64) -> f64 {
    debug_assert!(alpha > 0.0 && xmin > 0.0);
    xmin * (1.0 - rng.gen::<f64>()).powf(-1.0 / alpha)
}

/// Power law with exponential cutoff, sampled by rejection from a Pareto
/// envelope: density ∝ x^{-alpha} e^{-x/scale} on `x ≥ xmin`.
pub fn truncated_power_law<R: Rng + ?Sized>(
    rng: &mut R,
    xmin: f64,
    alpha: f64,
    scale: f64,
) -> f64 {
    debug_assert!(alpha > 1.0 && scale > 0.0);
    loop {
        let x = xmin * (1.0 - rng.gen::<f64>()).powf(-1.0 / (alpha - 1.0));
        if rng.gen::<f64>() < (-(x - xmin) / scale).exp() {
            return x;
        }
    }
}

/// Bounded Pareto on `[xmin, xmax]` with survival exponent `alpha - 1`
/// (density ∝ x^{-alpha}), sampled by inverse CDF. Valid for any
/// `alpha > 0`, `alpha != 1` — including the near-1 exponents where
/// rejection from an unbounded envelope would never terminate.
pub fn bounded_pareto<R: Rng + ?Sized>(rng: &mut R, xmin: f64, xmax: f64, alpha: f64) -> f64 {
    debug_assert!(xmax > xmin && xmin > 0.0 && alpha > 0.0);
    let s = 1.0 - alpha;
    let u: f64 = rng.gen();
    if s.abs() < 1e-9 {
        // α = 1: log-uniform.
        (xmin.ln() + u * (xmax.ln() - xmin.ln())).exp()
    } else {
        let a = xmin.powf(s);
        let b = xmax.powf(s);
        (a + u * (b - a)).powf(1.0 / s)
    }
}

/// Power law with exponential cutoff on a bounded support: density
/// ∝ x^{-alpha} e^{-x/scale} on `[xmin, xmax]`, by rejection from a bounded
/// Pareto envelope. Works for α arbitrarily close to (or below) 1, unlike
/// [`truncated_power_law`].
pub fn truncated_power_law_bounded<R: Rng + ?Sized>(
    rng: &mut R,
    xmin: f64,
    xmax: f64,
    alpha: f64,
    scale: f64,
) -> f64 {
    loop {
        let x = bounded_pareto(rng, xmin, xmax, alpha);
        if rng.gen::<f64>() < (-(x - xmin) / scale).exp() {
            return x;
        }
    }
}

/// Logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Bernoulli draw.
pub fn chance<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p
}

/// Zipf weights `1/(i+1)^s` for `n` ranks (unnormalized).
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

/// Walker's alias method: O(n) build, O(1) sampling from a fixed discrete
/// distribution. Used for popularity-weighted game and group choice.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds from non-negative weights (at least one must be positive).
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "alias table needs at least one weight");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && weights.iter().all(|w| *w >= 0.0 && w.is_finite()),
            "weights must be non-negative, finite, with a positive sum"
        );
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, p) in prob.iter().enumerate() {
            if *p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers pin to probability 1.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    pub fn len(&self) -> usize {
        self.prob.len()
    }

    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// Picks an index from cumulative shares summing to 1 (for small categorical
/// tables like Table 1 country shares).
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, shares: &[f64]) -> usize {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, s) in shares.iter().enumerate() {
        acc += s;
        if x < acc {
            return i;
        }
    }
    shares.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = rng();
        let mut xs: Vec<f64> = (0..100_001).map(|_| lognormal(&mut r, 2.0, 0.7)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[50_000];
        assert!((median.ln() - 2.0).abs() < 0.02, "median = {median}");
    }

    #[test]
    fn pareto_respects_xmin_and_tail() {
        let mut r = rng();
        let xs: Vec<f64> = (0..100_000).map(|_| pareto(&mut r, 5.0, 2.0)).collect();
        assert!(xs.iter().all(|&x| x >= 5.0));
        // P(X > 10) = (10/5)^-2 = 0.25
        let frac = xs.iter().filter(|&&x| x > 10.0).count() as f64 / xs.len() as f64;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn tpl_has_bounded_tail() {
        let mut r = rng();
        let xs: Vec<f64> =
            (0..50_000).map(|_| truncated_power_law(&mut r, 1.0, 1.5, 50.0)).collect();
        assert!(xs.iter().all(|&x| x >= 1.0));
        // With scale 50, essentially nothing lands beyond 50·20.
        assert!(xs.iter().filter(|&&x| x > 1000.0).count() < 5);
    }

    #[test]
    fn alias_table_matches_weights() {
        let mut r = rng();
        let weights = [1.0, 0.0, 3.0, 6.0];
        let table = AliasTable::new(&weights);
        let mut counts = [0u32; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[table.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0);
        let f0 = f64::from(counts[0]) / n as f64;
        let f2 = f64::from(counts[2]) / n as f64;
        let f3 = f64::from(counts[3]) / n as f64;
        assert!((f0 - 0.1).abs() < 0.01, "{f0}");
        assert!((f2 - 0.3).abs() < 0.01, "{f2}");
        assert!((f3 - 0.6).abs() < 0.01, "{f3}");
    }

    #[test]
    fn alias_table_single_weight() {
        let mut r = rng();
        let table = AliasTable::new(&[7.0]);
        assert_eq!(table.sample(&mut r), 0);
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn alias_rejects_zero_weights() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn zipf_weights_decay() {
        let w = zipf_weights(5, 1.0);
        assert_eq!(w[0], 1.0);
        assert!((w[4] - 0.2).abs() < 1e-12);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
    }

    #[test]
    fn categorical_hits_all_buckets() {
        let mut r = rng();
        let shares = [0.5, 0.3, 0.2];
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[categorical(&mut r, &shares)] += 1;
        }
        assert!((f64::from(counts[0]) / 30_000.0 - 0.5).abs() < 0.02);
        assert!((f64::from(counts[2]) / 30_000.0 - 0.2).abs() < 0.02);
    }

    #[test]
    fn chance_extremes() {
        let mut r = rng();
        assert!(!chance(&mut r, 0.0));
        assert!(chance(&mut r, 1.0));
    }
}
