//! §7 — correlations and homophily, and Figure 11.

use steam_graph::homophily_pairs;
use steam_stats::{spearman, CorrelationStrength};

use crate::context::Ctx;

/// One correlation with the paper's interpretation scale.
#[derive(Clone, Debug)]
pub struct Correlation {
    pub label: String,
    pub rho: f64,
    pub strength: CorrelationStrength,
    /// The paper's measured value, for side-by-side reporting.
    pub paper_rho: f64,
}

fn corr(label: &str, x: &[f64], y: &[f64], paper_rho: f64) -> Correlation {
    let rho = spearman(x, y).unwrap_or(0.0);
    Correlation {
        label: label.to_string(),
        rho,
        strength: CorrelationStrength::from_rho(rho),
        paper_rho,
    }
}

/// The six §7 pairwise behavior correlations.
pub fn behavior_correlations(ctx: &Ctx) -> Vec<Correlation> {
    let n = ctx.n_users();
    // Restrict to engaged users (own a game or have a friend) — computing
    // rank correlations over the all-zero mass says nothing.
    let active: Vec<usize> =
        (0..n).filter(|&u| ctx.owned[u] > 0 && ctx.degrees[u] > 0).collect();
    let owned: Vec<f64> = active.iter().map(|&u| f64::from(ctx.owned[u])).collect();
    let friends: Vec<f64> = active.iter().map(|&u| f64::from(ctx.degrees[u])).collect();
    let two_week: Vec<f64> =
        active.iter().map(|&u| ctx.two_week_minutes[u] as f64).collect();
    let total: Vec<f64> = active.iter().map(|&u| ctx.total_minutes[u] as f64).collect();

    vec![
        corr("games owned vs friends", &owned, &friends, 0.34),
        corr("games owned vs two-week playtime", &owned, &two_week, 0.28),
        corr("games owned vs total playtime", &owned, &total, 0.21),
        corr("friends vs two-week playtime", &friends, &two_week, 0.09),
        corr("friends vs total playtime", &friends, &total, 0.17),
    ]
}

/// One §7 homophily correlation: a user attribute vs. the mean of their
/// friends' attribute. The attribute column lives only inside this call.
fn homophily(ctx: &Ctx, label: &str, attr: impl Fn(usize) -> f64, paper_rho: f64) -> Correlation {
    let column: Vec<f64> = (0..ctx.n_users()).map(attr).collect();
    let (own, friends) = homophily_pairs(&ctx.graph, &column);
    drop(column);
    corr(label, &own, &friends, paper_rho)
}

/// Market-value homophily, the correlation Figure 11 quotes.
pub fn value_homophily(ctx: &Ctx) -> Correlation {
    homophily(ctx, "market value vs friends' market value", |u| ctx.value_cents[u] as f64, 0.77)
}

/// The four §7 homophily correlations (user attribute vs. mean of their
/// friends' attribute), computed one after another so only one attribute
/// column is resident at a time.
pub fn homophily_correlations(ctx: &Ctx) -> Vec<Correlation> {
    vec![
        value_homophily(ctx),
        homophily(
            ctx,
            "friend count vs friends' friend count",
            |u| f64::from(ctx.degrees[u]),
            0.62,
        ),
        homophily(
            ctx,
            "total playtime vs friends' total playtime",
            |u| ctx.total_minutes[u] as f64,
            0.61,
        ),
        homophily(ctx, "games owned vs friends' games owned", |u| f64::from(ctx.owned[u]), 0.45),
    ]
}

/// Figure 11's scatter: `(user market value, mean friend market value)` in
/// dollars, for users with at least one friend.
pub fn figure11_scatter(ctx: &Ctx) -> (Vec<f64>, Vec<f64>) {
    let value: Vec<f64> = (0..ctx.n_users()).map(|u| ctx.value_dollars(u)).collect();
    homophily_pairs(&ctx.graph, &value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testworld;

    fn ctx() -> Ctx<'static> {
        Ctx::new(&testworld::world().snapshot)
    }

    #[test]
    fn behavior_correlations_positive_and_ordered() {
        let ctx = ctx();
        let c = behavior_correlations(&ctx);
        assert_eq!(c.len(), 5);
        // All §7 behavior correlations are positive in the paper.
        for corr in &c {
            assert!(corr.rho > -0.05, "{} = {}", corr.label, corr.rho);
            assert!(corr.rho < 0.75, "{} = {} suspiciously strong", corr.label, corr.rho);
        }
        // games-vs-playtime couplings are present (paper: 0.21-0.28).
        let games_total = c.iter().find(|c| c.label.contains("total")).unwrap();
        assert!(games_total.rho > 0.05, "{}", games_total.rho);
    }

    #[test]
    fn homophily_is_strong() {
        let ctx = ctx();
        let c = homophily_correlations(&ctx);
        assert_eq!(c.len(), 4);
        for corr in &c {
            assert!(
                corr.rho > 0.20,
                "{} = {} (expected clear homophily)",
                corr.label,
                corr.rho
            );
        }
        // Paper ordering: value homophily (0.77) strongest of the four is
        // not guaranteed in-sample, but all should be ≥ moderate-ish.
        let value = &c[0];
        assert!(value.rho > 0.35, "value homophily = {}", value.rho);
    }

    #[test]
    fn figure11_scatter_parallel_arrays() {
        let ctx = ctx();
        let (own, friends) = figure11_scatter(&ctx);
        assert_eq!(own.len(), friends.len());
        assert!(!own.is_empty());
        // Scatter contains only users with friends.
        let with_friends = ctx.degrees.iter().filter(|&&d| d > 0).count();
        assert_eq!(own.len(), with_friends);
    }
}
