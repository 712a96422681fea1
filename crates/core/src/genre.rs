//! §5/§6.2 — genre breakdowns: Figures 5 and 9.

use steam_model::Genre;

use crate::context::Ctx;

/// One genre's row across Figures 5 and 9.
#[derive(Clone, Copy, Debug, Default)]
pub struct GenreRow {
    /// Copies owned across all accounts (Figure 5, light bars).
    pub copies_owned: u64,
    /// Of those, copies never played (Figure 5, dark bars).
    pub copies_unplayed: u64,
    /// Cumulative playtime, minutes (Figure 9, foreground bars).
    pub playtime_minutes: u64,
    /// Cumulative market value, cents (Figure 9, background bars).
    pub value_cents: u64,
    /// Games of this genre in the catalog.
    pub catalog_games: u64,
}

impl GenreRow {
    pub fn unplayed_share(&self) -> f64 {
        if self.copies_owned == 0 {
            0.0
        } else {
            self.copies_unplayed as f64 / self.copies_owned as f64
        }
    }
}

/// Figures 5 and 9, one row per genre (a game with several genres counts in
/// each, as the paper notes).
#[derive(Clone, Debug)]
pub struct GenreBreakdown {
    pub rows: Vec<(Genre, GenreRow)>,
    /// Totals across the catalog for share computations.
    pub total_playtime_minutes: u64,
    pub total_value_cents: u64,
    pub total_catalog_games: u64,
}

impl GenreBreakdown {
    pub fn row(&self, g: Genre) -> &GenreRow {
        &self.rows.iter().find(|(genre, _)| *genre == g).unwrap().1
    }

    /// Share of total playtime attributed to a genre (overlapping, §6.2).
    pub fn playtime_share(&self, g: Genre) -> f64 {
        self.row(g).playtime_minutes as f64 / self.total_playtime_minutes.max(1) as f64
    }

    pub fn value_share(&self, g: Genre) -> f64 {
        self.row(g).value_cents as f64 / self.total_value_cents.max(1) as f64
    }

    pub fn catalog_share(&self, g: Genre) -> f64 {
        self.row(g).catalog_games as f64 / self.total_catalog_games.max(1) as f64
    }
}

pub fn genre_breakdown(ctx: &Ctx) -> GenreBreakdown {
    let mut rows: Vec<(Genre, GenreRow)> =
        Genre::ALL.into_iter().map(|g| (g, GenreRow::default())).collect();
    let catalog = ctx.world.catalog();

    let mut total_catalog_games = 0u64;
    for g in catalog {
        if g.app_type == steam_model::AppType::Game {
            total_catalog_games += 1;
            for genre in g.genres.iter() {
                rows[genre as usize].1.catalog_games += 1;
            }
        }
    }

    let mut total_playtime = 0u64;
    let mut total_value = 0u64;
    ctx.visit_libraries(&mut |_, lib| {
        for o in lib {
            let Some(&gi) = ctx.app_index.get(&o.app_id) else { continue };
            let game = &catalog[gi as usize];
            total_playtime += u64::from(o.playtime_forever_min);
            total_value += u64::from(game.price_cents);
            for genre in game.genres.iter() {
                let row = &mut rows[genre as usize].1;
                row.copies_owned += 1;
                if !o.played() {
                    row.copies_unplayed += 1;
                }
                row.playtime_minutes += u64::from(o.playtime_forever_min);
                row.value_cents += u64::from(game.price_cents);
            }
        }
    });

    GenreBreakdown {
        rows,
        total_playtime_minutes: total_playtime,
        total_value_cents: total_value,
        total_catalog_games,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testworld;

    fn breakdown() -> GenreBreakdown {
        let ctx = Ctx::new(&testworld::world().snapshot);
        genre_breakdown(&ctx)
    }

    #[test]
    fn action_dominates_ownership_and_playtime() {
        let b = breakdown();
        let action = b.row(Genre::Action);
        for (g, row) in &b.rows {
            if *g != Genre::Action {
                assert!(
                    action.copies_owned >= row.copies_owned,
                    "{g:?} out-owns Action"
                );
            }
        }
        // §6.2: Action ≈ 49.2% of playtime vs ≈ 38% of the catalog —
        // overrepresented.
        let pt_share = b.playtime_share(Genre::Action);
        let cat_share = b.catalog_share(Genre::Action);
        assert!((0.30..0.65).contains(&pt_share), "action playtime share = {pt_share}");
        assert!((0.30..0.50).contains(&cat_share), "action catalog share = {cat_share}");
        assert!(pt_share > cat_share, "playtime {pt_share} ≤ catalog {cat_share}");
    }

    #[test]
    fn unplayed_shares_ordered_like_figure5() {
        let b = breakdown();
        // Figure 5: Action 41.5% unplayed > RPG 24.3%.
        let action = b.row(Genre::Action).unplayed_share();
        let rpg = b.row(Genre::Rpg).unplayed_share();
        assert!((0.25..0.55).contains(&action), "action unplayed = {action}");
        assert!((0.10..0.40).contains(&rpg), "rpg unplayed = {rpg}");
        assert!(action > rpg, "action {action} vs rpg {rpg}");
    }

    #[test]
    fn totals_consistent() {
        let b = breakdown();
        let world = testworld::world();
        assert_eq!(b.total_playtime_minutes, world.snapshot.total_playtime_minutes());
        // Overlapping genre rows each ≤ total.
        for (_, row) in &b.rows {
            assert!(row.playtime_minutes <= b.total_playtime_minutes);
            assert!(row.copies_unplayed <= row.copies_owned);
        }
    }
}
