//! §3.3 / Appendix / Table 4 — heavy-tail classification of every major
//! distribution.

use steam_stats::tailfit::{
    classify_tail_jobs, fit_discrete_power_law, ClassifyOptions, TailReport,
};

use crate::context::Ctx;
use crate::groups::group_sizes;

/// One Table 4 row: the attribute, its fitted report, and (when a second
/// snapshot is supplied) the second snapshot's report.
pub struct ClassifiedRow {
    pub attribute: String,
    /// Sample size the first-snapshot fit ran on.
    pub n_sample: usize,
    pub first: Option<TailReport>,
    pub second: Option<Option<TailReport>>,
    /// Exact discrete power-law α at the continuous fit's x_min, for
    /// integer-valued attributes — a cross-check on the continuous MLE's
    /// discreteness bias (see `steam_stats::tailfit::discrete`).
    pub discrete_alpha: Option<f64>,
}

/// Table 4's re-crawled game-data attributes: the only rows that get a
/// second-snapshot fit, exactly as in the paper's Table 4 (friendships and
/// groups were not collected again). None of them walks a section.
pub fn game_data_attributes(ctx: &Ctx) -> Vec<(String, Vec<f64>)> {
    vec![
        (
            "Account market values".into(),
            ctx.value_cents.iter().map(|&c| c as f64 / 100.0).filter(|&v| v > 0.0).collect(),
        ),
        ("Total playtime".into(), Ctx::nonzero_f64(&ctx.total_minutes)),
        ("Two-week playtime".into(), Ctx::nonzero_f64(&ctx.two_week_minutes)),
        ("Game ownership".into(), Ctx::nonzero_f64(&ctx.owned)),
        ("Played game ownership".into(), Ctx::nonzero_f64(&ctx.played)),
    ]
}

/// The attribute vectors Table 4 classifies, from one snapshot's context.
pub fn table4_attributes(ctx: &Ctx) -> Vec<(String, Vec<f64>)> {
    let mut out = game_data_attributes(ctx);
    out.push(("Group size".into(), Ctx::nonzero_f64(&group_sizes(ctx))));
    out.push(("Group membership per user".into(), Ctx::nonzero_f64(&ctx.group_count)));
    // Friendship degree distributions, cumulative and per-year (Figure 2's
    // series, classified like the paper's appendix), from one edge pass.
    let yearly = ctx.yearly_degrees(2009, 2013);
    for year in 2009..=2013 {
        out.push((format!("Friendship (through {year})"), Ctx::nonzero_f64(&yearly.through(year))));
    }
    for year in 2009..=2013 {
        out.push((format!("Friendship ({year} only)"), Ctx::nonzero_f64(yearly.year_only(year))));
    }
    out
}

/// Classifies all Table 4 distributions for one snapshot, with the rows
/// fanned out over `jobs` workers; when `second` is given, the five §8
/// attributes get second-snapshot rows too.
///
/// Rows differ in cost by an order of magnitude (the yearly friendship
/// sub-samples are tiny; account market values are not), so workers pull the
/// next row from `steam_par::map`'s shared cursor instead of being dealt
/// fixed chunks. Each row also passes `jobs` down to the tail-fit kernels,
/// which keeps the cores busy when one expensive row is left. Rows come back
/// in row order, and every kernel is thread-count deterministic, so the
/// output is identical for any `jobs` value.
pub fn classify_all_jobs(
    ctx: &Ctx,
    second: Option<&Ctx>,
    opts: &ClassifyOptions,
    jobs: usize,
) -> Vec<ClassifiedRow> {
    let jobs = jobs.max(1);
    let attrs = table4_attributes(ctx);
    let second_attrs = second.map(game_data_attributes);
    // Rows borrow their data, which is freed only after the last row: freeing
    // each row's vectors as it finishes raised the streamed report's peak RSS
    // by about 3 MiB at 300k users (glibc's dynamic mmap threshold).
    steam_par::map(jobs, &attrs, |(attribute, data)| {
        classify_row(attribute.clone(), data, second_attrs.as_ref(), opts, jobs)
    })
}

/// Builds one Table 4 row: first-snapshot fit, discrete cross-check, and
/// (when eligible) the second-snapshot fit.
fn classify_row(
    attribute: String,
    data: &[f64],
    second_attrs: Option<&Vec<(String, Vec<f64>)>>,
    opts: &ClassifyOptions,
    jobs: usize,
) -> ClassifiedRow {
    let n_sample = data.len();
    let first = classify_tail_jobs(data, opts, jobs);
    let discrete_alpha = first.as_ref().and_then(|report| {
        let integral = data.iter().take(64).all(|x| x.fract() == 0.0);
        if !integral || report.xmin < 1.0 {
            return None;
        }
        let kmin = report.xmin.round().max(1.0) as u64;
        let tail: Vec<u64> = data
            .iter()
            .filter(|&&x| x >= kmin as f64)
            .map(|&x| x as u64)
            .collect();
        (tail.len() >= opts.min_tail).then(|| fit_discrete_power_law(&tail, kmin).alpha)
    });
    // The second snapshot carries only the game-data attributes, so every
    // other row gets `Some(None)`.
    let second = second_attrs.map(|sa| {
        sa.iter()
            .find(|(name, _)| *name == attribute)
            .and_then(|(_, data)| classify_tail_jobs(data, opts, jobs))
    });
    ClassifiedRow { attribute, n_sample, first, second, discrete_alpha }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testworld;
    use steam_stats::TailClass;

    fn rows() -> Vec<ClassifiedRow> {
        let world = testworld::world();
        let ctx = Ctx::new(&world.snapshot);
        // Cheap options: the test world is 30k users.
        let opts = ClassifyOptions { min_tail: 150, max_xmin_candidates: 25, max_tail_points: 30_000 };
        classify_all_jobs(&ctx, None, &opts, 1)
    }

    #[test]
    fn all_major_distributions_are_heavy_tailed() {
        let rows = rows();
        assert_eq!(rows.len(), 17);
        // Every distribution the paper classifies lands in a heavy-tailed
        // class (Table 4 contains no "not heavy-tailed" rows). The paper ran
        // on 108.7M users; at the 30k test scale the earliest yearly
        // friendship sub-samples are a few hundred points and underpowered,
        // so only rows with a usable sample are asserted.
        for row in &rows {
            if row.n_sample < 5_000 {
                continue;
            }
            if let Some(report) = &row.first {
                if report.n_tail < 2_000 {
                    // The KS-optimal x_min can cut deep on a 30k-user world,
                    // leaving an underpowered tail; the medium-scale
                    // experiment run exercises the decisive case.
                    continue;
                }
                assert!(
                    report.class.is_heavy(),
                    "{} (n={}, tail={}) classified {:?}",
                    row.attribute,
                    row.n_sample,
                    report.n_tail,
                    report.class
                );
            }
        }
        // The big aggregate rows must actually fit (not be skipped).
        for name in ["Account market values", "Game ownership", "Two-week playtime"] {
            let row = rows.iter().find(|r| r.attribute == name).unwrap();
            assert!(row.first.is_some(), "{name} had no fit");
        }
    }

    #[test]
    fn two_week_playtime_is_cutoff_class() {
        // The two-week distribution has a hard 336 h ceiling; it must land
        // in a class acknowledging the cutoff (truncated power law or
        // narrowed long-tail), matching Table 4.
        let rows = rows();
        let row = rows.iter().find(|r| r.attribute == "Two-week playtime").unwrap();
        let class = row.first.as_ref().unwrap().class;
        assert!(
            matches!(
                class,
                TailClass::TruncatedPowerLaw | TailClass::LongTailed | TailClass::Lognormal
            ),
            "two-week playtime classified {class:?}"
        );
    }

    #[test]
    fn game_data_attributes_nonempty_in_both_snapshots() {
        let world = testworld::world();
        for snapshot in [&world.snapshot, &world.second_snapshot] {
            let attrs = game_data_attributes(&Ctx::new(snapshot));
            assert_eq!(attrs.len(), 5);
            for (label, data) in &attrs {
                assert!(!data.is_empty(), "{label} empty");
            }
        }
    }

    #[test]
    fn second_snapshot_classes_are_stable() {
        let world = testworld::world();
        let c1 = Ctx::new(&world.snapshot);
        let c2 = Ctx::new(&world.second_snapshot);
        let opts = ClassifyOptions { min_tail: 150, max_xmin_candidates: 25, max_tail_points: 30_000 };
        let rows = classify_all_jobs(&c1, Some(&c2), &opts, 1);
        let mut compared = 0;
        for row in rows {
            if row.attribute.starts_with("Friendship") {
                // No second-snapshot rows for friendships.
                if let Some(second) = &row.second {
                    assert!(second.is_none(), "{}", row.attribute);
                }
                continue;
            }
            if let (Some(first), Some(Some(second))) = (&row.first, &row.second) {
                if first.n_tail < 1_500 || second.n_tail < 1_500 {
                    continue; // underpowered at test scale (see above)
                }
                compared += 1;
                // §8: classifications remain heavy across snapshots.
                assert!(first.class.is_heavy(), "{}", row.attribute);
                assert!(second.class.is_heavy(), "{}", row.attribute);
            }
        }
        // At the 30k test scale the KS-optimal cuts can leave every row
        // underpowered in one snapshot or the other; in that case settle for
        // the structural property that every attribute produced fits at all.
        // The medium-scale repro run exercises the decisive comparisons.
        if compared == 0 {
            let rows = classify_all_jobs(&c1, Some(&c2), &opts, 1);
            for row in rows.iter().filter(|r| {
                !r.attribute.starts_with("Friendship") && !r.attribute.starts_with("Group")
            }) {
                assert!(row.first.is_some(), "{} missing first fit", row.attribute);
                assert!(
                    matches!(row.second, Some(Some(_))),
                    "{} missing second fit",
                    row.attribute
                );
            }
        }
    }
}
