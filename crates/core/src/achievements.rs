//! §9 — achievements: counts, playtime coupling, completion rates.

use steam_model::{AppType, Genre};
use steam_stats::summary::{mean, median, mode_u32};
use steam_stats::spearman;

use crate::context::Ctx;

/// Summary of how many achievements games offer (§9: range 0–1,629, mode 12,
/// mean 33.1, median 24).
#[derive(Clone, Copy, Debug)]
pub struct AchievementCountStats {
    pub min: u32,
    pub max: u32,
    pub mode: u32,
    pub mean: f64,
    pub median: f64,
}

/// Per-game cumulative playtime joined with achievement counts.
fn game_playtime_and_achievements(ctx: &Ctx) -> Vec<(u32, f64)> {
    let catalog = ctx.world.catalog();
    let mut playtime = vec![0u64; catalog.len()];
    ctx.visit_libraries(&mut |_, lib| {
        for o in lib {
            if let Some(&gi) = ctx.app_index.get(&o.app_id) {
                playtime[gi as usize] += u64::from(o.playtime_forever_min);
            }
        }
    });
    catalog
        .iter()
        .enumerate()
        .filter(|(_, g)| g.app_type == AppType::Game)
        .map(|(gi, g)| (g.achievement_count() as u32, playtime[gi] as f64))
        .collect()
}

pub fn achievement_count_stats(ctx: &Ctx) -> AchievementCountStats {
    let counts: Vec<u32> = ctx
        .world
        .catalog()
        .iter()
        .filter(|g| g.app_type == AppType::Game)
        .map(|g| g.achievement_count() as u32)
        .collect();
    let nonzero: Vec<u32> = counts.iter().copied().filter(|&c| c > 0).collect();
    let as_f64: Vec<f64> = nonzero.iter().map(|&c| f64::from(c)).collect();
    AchievementCountStats {
        min: counts.iter().copied().min().unwrap_or(0),
        max: counts.iter().copied().max().unwrap_or(0),
        mode: mode_u32(&nonzero).unwrap_or(0),
        mean: mean(&as_f64).unwrap_or(0.0),
        median: median(&as_f64).unwrap_or(0.0),
    }
}

/// §9's banded correlation between achievements offered and cumulative
/// playtime: R = 0.16 overall, 0.53 on games offering 1–90 achievements,
/// −0.02 beyond 90.
#[derive(Clone, Copy, Debug)]
pub struct PlaytimeAchievementCorrelation {
    pub overall: f64,
    pub band_1_to_90: f64,
    pub beyond_90: f64,
}

pub fn playtime_achievement_correlation(ctx: &Ctx) -> PlaytimeAchievementCorrelation {
    let joined = game_playtime_and_achievements(ctx);
    let corr = |filter: &dyn Fn(u32) -> bool| -> f64 {
        let (ach, pt): (Vec<f64>, Vec<f64>) = joined
            .iter()
            .filter(|(a, _)| filter(*a))
            .map(|&(a, p)| (f64::from(a), p))
            .unzip();
        spearman(&ach, &pt).unwrap_or(0.0)
    };
    PlaytimeAchievementCorrelation {
        overall: corr(&|_| true),
        band_1_to_90: corr(&|a| (1..=90).contains(&a)),
        beyond_90: corr(&|a| a > 90),
    }
}

/// Mean-completion statistics for a class of games (§9 reports mode/median/
/// mean for single-player and multiplayer separately).
#[derive(Clone, Copy, Debug)]
pub struct CompletionStats {
    /// Mode of the per-game mean completion rate, rounded to whole percents
    /// (paper: 5% for both classes).
    pub mode_pct: u32,
    pub median_pct: f64,
    pub mean_pct: f64,
    /// Median achievements offered by these games.
    pub median_offered: f64,
}

fn completion_stats(rates: &[f64], offered: &[f64]) -> CompletionStats {
    let rounded: Vec<u32> = rates.iter().map(|&r| r.round() as u32).collect();
    CompletionStats {
        mode_pct: mode_u32(&rounded).unwrap_or(0),
        median_pct: median(rates).unwrap_or(0.0),
        mean_pct: mean(rates).unwrap_or(0.0),
        median_offered: median(offered).unwrap_or(0.0),
    }
}

/// §9's single-player vs multiplayer completion comparison.
pub fn completion_by_mode(ctx: &Ctx) -> (CompletionStats, CompletionStats) {
    let mut sp_rates = Vec::new();
    let mut sp_offered = Vec::new();
    let mut mp_rates = Vec::new();
    let mut mp_offered = Vec::new();
    for g in ctx.world.catalog() {
        if g.app_type != AppType::Game {
            continue;
        }
        if let Some(rate) = g.mean_completion_pct() {
            if g.multiplayer {
                mp_rates.push(rate);
                mp_offered.push(g.achievement_count() as f64);
            } else {
                sp_rates.push(rate);
                sp_offered.push(g.achievement_count() as f64);
            }
        }
    }
    (
        completion_stats(&sp_rates, &sp_offered),
        completion_stats(&mp_rates, &mp_offered),
    )
}

/// §9's per-genre average completion rates (Adventure 19%, Strategy 11%).
pub fn completion_by_genre(ctx: &Ctx) -> Vec<(Genre, f64, f64)> {
    Genre::ALL
        .into_iter()
        .map(|genre| {
            let rates: Vec<f64> = ctx
                .world
                .catalog()
                .iter()
                .filter(|g| g.app_type == AppType::Game && g.genres.contains(genre))
                .filter_map(|g| g.mean_completion_pct())
                .collect();
            let offered: Vec<f64> = ctx
                .world
                .catalog()
                .iter()
                .filter(|g| g.app_type == AppType::Game && g.genres.contains(genre))
                .map(|g| g.achievement_count() as f64)
                .collect();
            (genre, mean(&rates).unwrap_or(0.0), mean(&offered).unwrap_or(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testworld;

    fn ctx() -> Ctx<'static> {
        Ctx::new(&testworld::world().snapshot)
    }

    #[test]
    fn count_stats_match_paper_shape() {
        let ctx = ctx();
        let s = achievement_count_stats(&ctx);
        assert_eq!(s.min, 0);
        assert!(s.max <= 1_650, "max = {}", s.max);
        assert!((8..=35).contains(&s.mode), "mode = {}", s.mode);
        assert!((15.0..40.0).contains(&s.median), "median = {}", s.median);
        assert!(s.mean > s.median, "mean {} should exceed median {}", s.mean, s.median);
    }

    #[test]
    fn banded_correlation_shape() {
        let ctx = ctx();
        let c = playtime_achievement_correlation(&ctx);
        // Paper: 0.53 in the 1–90 band, far weaker beyond.
        assert!(c.band_1_to_90 > 0.25, "band = {}", c.band_1_to_90);
        assert!(
            c.band_1_to_90 > c.beyond_90 + 0.15,
            "band {} vs beyond {}",
            c.band_1_to_90,
            c.beyond_90
        );
        assert!(c.overall > 0.0, "overall = {}", c.overall);
    }

    #[test]
    fn completion_mode_stats() {
        let ctx = ctx();
        let (sp, mp) = completion_by_mode(&ctx);
        for s in [&sp, &mp] {
            // Right-skew: mean above median (paper: 14-15% vs 11-12%).
            assert!(s.mean_pct > s.median_pct, "{s:?}");
            assert!((2.0..30.0).contains(&s.median_pct), "{s:?}");
            assert!(s.median_offered > 5.0, "{s:?}");
        }
    }

    #[test]
    fn adventure_tops_strategy() {
        let ctx = ctx();
        let rows = completion_by_genre(&ctx);
        let rate = |g: Genre| rows.iter().find(|(genre, _, _)| *genre == g).unwrap().1;
        assert!(
            rate(Genre::Adventure) > rate(Genre::Strategy),
            "adventure {} vs strategy {}",
            rate(Genre::Adventure),
            rate(Genre::Strategy)
        );
    }
}
