//! §6.1 — time expenditure: Figures 6, 7 and 10.

use steam_model::MAX_TWO_WEEK_MINUTES;
use steam_stats::{top_share, Ecdf};

use crate::context::Ctx;

/// Figure 6: CDFs of total and two-week playtime plus the concentration
/// numbers the paper quotes.
#[derive(Clone, Debug)]
pub struct PlaytimeCdf {
    /// `(hours, cumulative fraction of users)` for total playtime.
    pub total_cdf: Vec<(f64, f64)>,
    /// Same for two-week playtime.
    pub two_week_cdf: Vec<(f64, f64)>,
    /// Share of users with zero two-week playtime (paper: > 80%).
    pub two_week_zero_share: f64,
    /// Top-20% share of total playtime (paper: 82.4%).
    pub top20_total_share: f64,
    /// Top-10% share of two-week playtime (paper: 93.0%).
    pub top10_two_week_share: f64,
}

/// Computes Figure 6 over users who own at least one game (the paper's
/// "Steam gamers").
pub fn playtime_cdf(ctx: &Ctx) -> PlaytimeCdf {
    let owners: Vec<usize> = (0..ctx.n_users()).filter(|&u| ctx.owned[u] > 0).collect();
    let total: Vec<f64> = owners
        .iter()
        .map(|&u| ctx.total_minutes[u] as f64 / 60.0)
        .collect();
    let two_week: Vec<f64> = owners
        .iter()
        .map(|&u| ctx.two_week_minutes[u] as f64 / 60.0)
        .collect();
    let zero_share =
        two_week.iter().filter(|&&h| h == 0.0).count() as f64 / two_week.len().max(1) as f64;
    let cdf_points = |data: &[f64]| {
        let e = Ecdf::new(data.to_vec());
        e.ccdf_points()
            .into_iter()
            .map(|(x, ccdf)| (x, 1.0 - ccdf))
            .collect()
    };
    PlaytimeCdf {
        total_cdf: cdf_points(&total),
        two_week_cdf: cdf_points(&two_week),
        two_week_zero_share: zero_share,
        top20_total_share: top_share(&total, 0.2).unwrap_or(0.0),
        top10_two_week_share: top_share(&two_week, 0.1).unwrap_or(0.0),
    }
}

/// Figure 7: distribution of non-zero two-week playtimes.
#[derive(Clone, Debug)]
pub struct NonZeroTwoWeek {
    /// The sorted non-zero values, hours.
    pub hours: Vec<f64>,
    /// 80th percentile (paper: 32.05 h).
    pub p80_hours: f64,
    /// Fraction of the *overall* two-week distribution this 80th percentile
    /// corresponds to (paper: the 95th).
    pub overall_percentile_of_p80: f64,
    /// Users within 80–100% of the 336 h ceiling (paper: ~0.01% of users —
    /// the idle farmers).
    pub near_ceiling_users: u64,
    pub near_ceiling_share: f64,
    /// The hard maximum observed.
    pub max_hours: f64,
}

pub fn non_zero_two_week(ctx: &Ctx) -> NonZeroTwoWeek {
    let owners: Vec<f64> = (0..ctx.n_users())
        .filter(|&u| ctx.owned[u] > 0)
        .map(|u| ctx.two_week_minutes[u] as f64 / 60.0)
        .collect();
    let mut nonzero: Vec<f64> = owners.iter().copied().filter(|&h| h > 0.0).collect();
    nonzero.sort_by(f64::total_cmp);
    let e = Ecdf::new(nonzero.clone());
    let p80 = e.percentile(80.0);
    let overall = Ecdf::new(owners.clone());
    let ceiling_hours = f64::from(MAX_TWO_WEEK_MINUTES) / 60.0;
    // A user can run several games at once, so per-user two-week totals may
    // slightly exceed one game's ceiling; count against the single-game cap.
    let near = nonzero.iter().filter(|&&h| h >= 0.8 * ceiling_hours).count() as u64;
    NonZeroTwoWeek {
        p80_hours: p80,
        overall_percentile_of_p80: overall.cdf(p80),
        near_ceiling_users: near,
        near_ceiling_share: near as f64 / ctx.n_users() as f64,
        max_hours: nonzero.last().copied().unwrap_or(0.0),
        hours: nonzero,
    }
}

/// Figure 10: multiplayer share of playtime.
#[derive(Clone, Copy, Debug)]
pub struct MultiplayerShares {
    /// Share of catalog games with a multiplayer component (paper: 48.7%).
    pub catalog_share: f64,
    /// Share of total playtime spent in multiplayer games (paper: 57.7%).
    pub total_playtime_share: f64,
    /// Share of two-week playtime in multiplayer games (paper: 67.7%).
    pub two_week_share: f64,
}

pub fn multiplayer_shares(ctx: &Ctx) -> MultiplayerShares {
    let catalog = ctx.world.catalog();
    let mut games = 0u64;
    let mut mp_games = 0u64;
    for g in catalog {
        if g.app_type == steam_model::AppType::Game {
            games += 1;
            if g.multiplayer {
                mp_games += 1;
            }
        }
    }
    let mut total = 0u64;
    let mut total_mp = 0u64;
    let mut recent = 0u64;
    let mut recent_mp = 0u64;
    ctx.visit_libraries(&mut |_, lib| {
        for o in lib {
            let Some(&gi) = ctx.app_index.get(&o.app_id) else { continue };
            let mp = catalog[gi as usize].multiplayer;
            total += u64::from(o.playtime_forever_min);
            recent += u64::from(o.playtime_2weeks_min);
            if mp {
                total_mp += u64::from(o.playtime_forever_min);
                recent_mp += u64::from(o.playtime_2weeks_min);
            }
        }
    });
    MultiplayerShares {
        catalog_share: mp_games as f64 / games.max(1) as f64,
        total_playtime_share: total_mp as f64 / total.max(1) as f64,
        two_week_share: recent_mp as f64 / recent.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testworld;

    fn ctx() -> Ctx<'static> {
        Ctx::new(&testworld::world().snapshot)
    }

    #[test]
    fn figure6_concentration() {
        let ctx = ctx();
        let f = playtime_cdf(&ctx);
        // Paper: >80% of gamers idle over two weeks; top 20% hold 82.4% of
        // playtime; top 10% hold 93% of two-week playtime.
        assert!((0.70..0.95).contains(&f.two_week_zero_share), "{}", f.two_week_zero_share);
        assert!((0.65..0.98).contains(&f.top20_total_share), "{}", f.top20_total_share);
        assert!(f.top10_two_week_share > 0.85, "{}", f.top10_two_week_share);
        // CDFs are monotone and end at 1.
        for cdf in [&f.total_cdf, &f.two_week_cdf] {
            for w in cdf.windows(2) {
                assert!(w[1].1 >= w[0].1);
                assert!(w[1].0 > w[0].0);
            }
            assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn figure7_tail_shape() {
        let ctx = ctx();
        let f = non_zero_two_week(&ctx);
        // Paper: 80th percentile of the non-zero distribution is 32.05 h and
        // corresponds to ≈ the 95th percentile overall.
        assert!((10.0..70.0).contains(&f.p80_hours), "p80 = {}", f.p80_hours);
        assert!(f.overall_percentile_of_p80 > 0.90, "{}", f.overall_percentile_of_p80);
        // The ceiling (336 h) is approached by a tiny idle-farmer fraction.
        assert!(f.max_hours <= 336.0 * 1.05, "max = {}", f.max_hours);
        assert!(f.near_ceiling_share < 0.01, "{}", f.near_ceiling_share);
    }

    #[test]
    fn figure10_multiplayer_overrepresentation() {
        let ctx = ctx();
        let m = multiplayer_shares(&ctx);
        assert!((0.40..0.58).contains(&m.catalog_share), "catalog = {}", m.catalog_share);
        assert!(
            m.total_playtime_share > m.catalog_share,
            "total {} vs catalog {}",
            m.total_playtime_share,
            m.catalog_share
        );
        assert!(
            m.two_week_share > m.catalog_share,
            "two-week {} vs catalog {}",
            m.two_week_share,
            m.catalog_share
        );
    }
}
