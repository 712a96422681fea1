//! §8 — evolution across snapshots, and Figure 12's week panel.

use steam_model::WeekPanel;
use steam_stats::Ecdf;

use crate::context::Ctx;

/// §8's tail-vs-body comparison for one attribute across two snapshots.
#[derive(Clone, Debug)]
pub struct TailBodyGrowth {
    pub attribute: String,
    pub max_first: f64,
    pub max_second: f64,
    pub p80_first: f64,
    pub p80_second: f64,
}

impl TailBodyGrowth {
    pub fn tail_factor(&self) -> f64 {
        self.max_second / self.max_first.max(1e-9)
    }

    pub fn body_factor(&self) -> f64 {
        self.p80_second / self.p80_first.max(1e-9)
    }
}

fn growth(attribute: &str, first: Vec<f64>, second: Vec<f64>) -> TailBodyGrowth {
    let e1 = Ecdf::new(first);
    let e2 = Ecdf::new(second);
    TailBodyGrowth {
        attribute: attribute.to_string(),
        max_first: e1.max().unwrap_or(0.0),
        max_second: e2.max().unwrap_or(0.0),
        p80_first: e1.percentile(80.0),
        p80_second: e2.percentile(80.0),
    }
}

/// Computes §8's comparisons (ownership and market value) for a snapshot
/// pair.
pub fn snapshot_growth(first: &Ctx, second: &Ctx) -> Vec<TailBodyGrowth> {
    let owned = |ctx: &Ctx| Ctx::nonzero_f64(&ctx.owned);
    let value =
        |ctx: &Ctx| -> Vec<f64> { ctx.value_cents.iter().map(|&c| c as f64 / 100.0).filter(|&v| v > 0.0).collect() };
    let total = |ctx: &Ctx| -> Vec<f64> {
        ctx.total_minutes.iter().map(|&m| m as f64 / 60.0).filter(|&v| v > 0.0).collect()
    };
    vec![
        growth("games owned", owned(first), owned(second)),
        growth("account market value ($)", value(first), value(second)),
        growth("total playtime (h)", total(first), total(second)),
    ]
}

/// Figure 12's rendering data: users ordered by day-one playtime, each with
/// seven daily values.
#[derive(Clone, Debug)]
pub struct PanelView {
    /// Daily minutes, rows ordered by day-one playtime ascending.
    pub rows: Vec<[u32; 7]>,
}

impl PanelView {
    /// Share of users with zero day-one playtime who play on a later day —
    /// the §8 observation that playtime is bursty.
    pub fn late_bloomer_share(&self) -> f64 {
        let idle_day_one: Vec<&[u32; 7]> =
            self.rows.iter().filter(|r| r[0] == 0).collect();
        if idle_day_one.is_empty() {
            return 0.0;
        }
        idle_day_one.iter().filter(|r| r[1..].iter().any(|&m| m > 0)).count() as f64
            / idle_day_one.len() as f64
    }

    /// Mean playtime on days 2–7 of the top and bottom day-one halves — the
    /// persistent-ordering observation ("the left half of the graph stays
    /// lighter").
    pub fn half_means(&self) -> (f64, f64) {
        let n = self.rows.len();
        let rest_mean = |rows: &[[u32; 7]]| {
            let total: u64 = rows
                .iter()
                .flat_map(|r| r[1..].iter().map(|&m| u64::from(m)))
                .sum();
            total as f64 / (rows.len().max(1) * 6) as f64
        };
        (rest_mean(&self.rows[..n / 2]), rest_mean(&self.rows[n / 2..]))
    }
}

/// Builds Figure 12's view from a panel.
pub fn panel_view(panel: &WeekPanel) -> PanelView {
    let mut rows = panel.daily_minutes.clone();
    rows.sort_by_key(|r| r[0]);
    PanelView { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testworld;

    #[test]
    fn tail_outgrows_body() {
        let world = testworld::world();
        let c1 = Ctx::new(&world.snapshot);
        let c2 = Ctx::new(&world.second_snapshot);
        let rows = snapshot_growth(&c1, &c2);
        assert_eq!(rows.len(), 3);
        let games = &rows[0];
        assert!(games.tail_factor() > 1.0, "tail grew {}", games.tail_factor());
        assert!(
            games.tail_factor() > games.body_factor(),
            "tail ×{:.2} vs body ×{:.2}",
            games.tail_factor(),
            games.body_factor()
        );
        let value = &rows[1];
        assert!(value.tail_factor() >= value.body_factor() * 0.9);
    }

    #[test]
    fn panel_view_ordered_and_bursty() {
        let world = testworld::world();
        let view = panel_view(&world.panel);
        for w in view.rows.windows(2) {
            assert!(w[0][0] <= w[1][0]);
        }
        assert!(view.late_bloomer_share() > 0.0, "no burstiness in panel");
        let (light, heavy) = view.half_means();
        assert!(
            heavy >= light,
            "heavy day-one half should stay heavier: {light} vs {heavy}"
        );
    }
}
