//! Text renderers: one per table/figure, printing the same rows/series the
//! paper reports. These are what the bench harness and the CLI emit.

use std::fmt::Write as _;

use steam_model::Genre;
use steam_stats::tailfit::ClassifyOptions;
use steam_stats::LogHistogram;

use crate::achievements;
use crate::classify;
use crate::context::Ctx;
use crate::evolution;
use crate::genre::genre_breakdown;
use crate::groups;
use crate::homophily;
use crate::money::market_value_distribution;
use crate::ownership;
use crate::playtime;
use crate::social;
use crate::summary;

/// Identifier for every experiment the paper reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Experiment {
    Table1,
    Table2,
    Table3,
    Table4,
    Figure1,
    Figure2,
    Figure3,
    Figure4,
    Figure5,
    Figure6,
    Figure7,
    Figure8,
    Figure9,
    Figure10,
    Figure11,
    Figure12,
    Correlations,
    Evolution,
    Achievements,
    Locality,
    Aggregates,
    /// §2.2 census-vs-crawl bias (methodology experiment).
    SamplingBias,
    /// Small-world metrics (Becker et al.'s findings, §2.2).
    NetworkStructure,
}

impl Experiment {
    pub const ALL: [Experiment; 23] = [
        Experiment::Table1,
        Experiment::Table2,
        Experiment::Table3,
        Experiment::Table4,
        Experiment::Figure1,
        Experiment::Figure2,
        Experiment::Figure3,
        Experiment::Figure4,
        Experiment::Figure5,
        Experiment::Figure6,
        Experiment::Figure7,
        Experiment::Figure8,
        Experiment::Figure9,
        Experiment::Figure10,
        Experiment::Figure11,
        Experiment::Figure12,
        Experiment::Correlations,
        Experiment::Evolution,
        Experiment::Achievements,
        Experiment::Locality,
        Experiment::Aggregates,
        Experiment::SamplingBias,
        Experiment::NetworkStructure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Table3 => "table3",
            Experiment::Table4 => "table4",
            Experiment::Figure1 => "figure1",
            Experiment::Figure2 => "figure2",
            Experiment::Figure3 => "figure3",
            Experiment::Figure4 => "figure4",
            Experiment::Figure5 => "figure5",
            Experiment::Figure6 => "figure6",
            Experiment::Figure7 => "figure7",
            Experiment::Figure8 => "figure8",
            Experiment::Figure9 => "figure9",
            Experiment::Figure10 => "figure10",
            Experiment::Figure11 => "figure11",
            Experiment::Figure12 => "figure12",
            Experiment::Correlations => "correlations",
            Experiment::Evolution => "evolution",
            Experiment::Achievements => "achievements",
            Experiment::Locality => "locality",
            Experiment::Aggregates => "aggregates",
            Experiment::SamplingBias => "sampling-bias",
            Experiment::NetworkStructure => "network-structure",
        }
    }

    pub fn from_name(name: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.name() == name)
    }
}

/// Everything a render call may need.
pub struct ReportInput<'a> {
    pub ctx: &'a Ctx<'a>,
    /// Second snapshot (for Table 4's second rows and §8).
    pub second: Option<&'a Ctx<'a>>,
    /// Week panel (Figure 12).
    pub panel: Option<&'a steam_model::WeekPanel>,
}

/// Renders one experiment as text.
pub fn render(input: &ReportInput, experiment: Experiment) -> String {
    render_with_jobs(input, experiment, 1)
}

/// [`render`] with `jobs` worker threads available to the experiment.
///
/// Only the experiments with parallel kernels (currently Table 4's
/// classification pipeline) fan out; the rest ignore `jobs`. Every kernel is
/// thread-count deterministic, so the rendered text is identical for any
/// `jobs` value.
pub fn render_with_jobs(input: &ReportInput, experiment: Experiment, jobs: usize) -> String {
    match experiment {
        Experiment::Table1 => table1(input.ctx),
        Experiment::Table2 => table2(input.ctx),
        Experiment::Table3 => summary::percentile_table_ctx(input.ctx).to_string(),
        Experiment::Table4 => table4(input.ctx, input.second, jobs),
        Experiment::Figure1 => figure1(input.ctx),
        Experiment::Figure2 => figure2(input.ctx),
        Experiment::Figure3 => figure3(input.ctx),
        Experiment::Figure4 => figure4(input.ctx),
        Experiment::Figure5 => figure5(input.ctx),
        Experiment::Figure6 => figure6(input.ctx),
        Experiment::Figure7 => figure7(input.ctx),
        Experiment::Figure8 => figure8(input.ctx),
        Experiment::Figure9 => figure9(input.ctx),
        Experiment::Figure10 => figure10(input.ctx),
        Experiment::Figure11 => figure11(input.ctx),
        Experiment::Figure12 => figure12(input.panel),
        Experiment::Correlations => correlations(input.ctx),
        Experiment::Evolution => evolution_report(input.ctx, input.second),
        Experiment::Achievements => achievements_report(input.ctx),
        Experiment::Locality => locality(input.ctx),
        Experiment::Aggregates => aggregates(input.ctx),
        Experiment::SamplingBias => sampling_bias_report(input.ctx),
        Experiment::NetworkStructure => network_structure_report(input.ctx),
    }
}

fn sampling_bias_report(ctx: &Ctx) -> String {
    let budget = (ctx.n_users() / 10).clamp(100, 50_000);
    let b = crate::sampling_bias::sampling_bias(ctx, budget);
    format!(
        "§2.2 sampling bias: census vs BFS crawl ({} users each)\n  mean friends:    census {:.2} vs crawl {:.2}\n  median friends:  census {:.1} vs crawl {:.1}\n  isolated share:  census {:.1}% vs crawl {:.1}%\n  a friend-list crawl can reach at most {:.1}% of all accounts\n  (the paper's point: crawled samples of Steam over-represent connected users)\n",
        b.budget,
        b.census_mean_degree,
        b.crawl_mean_degree,
        b.census_median_degree,
        b.crawl_median_degree,
        b.census_isolated_share * 100.0,
        b.crawl_isolated_share * 100.0,
        b.crawl_reachable_fraction * 100.0
    )
}

fn network_structure_report(ctx: &Ctx) -> String {
    match crate::sampling_bias::network_structure(ctx, 16) {
        Some(sw) => {
            let er = ctx.graph.mean_degree() / ctx.n_users().max(1) as f64;
            format!(
                "network structure (small-world metrics, cf. Becker et al.)\n  mean clustering coefficient: {:.4} ({}x the Erdős–Rényi baseline)\n  mean shortest path (giant component, sampled): {:.2}\n  diameter (lower bound): {}\n  giant component: {:.1}% of users\n",
                sw.clustering,
                if er > 0.0 { (sw.clustering / er).round() as i64 } else { 0 },
                sw.mean_path,
                sw.diameter_lb,
                sw.giant_fraction * 100.0
            )
        }
        None => "network structure: (graph empty)".into(),
    }
}

fn table1(ctx: &Ctx) -> String {
    let t = social::country_breakdown(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: users' reported country ({:.1}% report)", t.report_rate * 100.0);
    let _ = writeln!(out, "{:<4} {:<16} {:>8} {:>8}", "Rank", "Country", "Users", "Percent");
    for (i, (name, count, share)) in t.rows.iter().enumerate() {
        let _ = writeln!(out, "{:<4} {:<16} {:>8} {:>7.2}%", i + 1, name, count, share * 100.0);
    }
    let _ = writeln!(out, "Distinct countries observed: {}", t.distinct);
    out
}

fn table2(ctx: &Ctx) -> String {
    let t = groups::group_type_breakdown(ctx, 250);
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: breakdown of {} largest groups by type", t.top_n);
    let _ = writeln!(out, "{:<18} {:>6} {:>8}", "Group Type", "Count", "Percent");
    for (kind, count, share) in &t.rows {
        let _ = writeln!(out, "{:<18} {:>6} {:>7.1}%", kind.as_str(), count, share * 100.0);
    }
    out
}

fn table4(ctx: &Ctx, second: Option<&Ctx>, jobs: usize) -> String {
    let opts = ClassifyOptions::default();
    let rows = classify::classify_all_jobs(ctx, second, &opts, jobs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: distribution classification (R, p for PLvExp | PLvLN | TPLvPL | TPLvLN)"
    );
    for row in rows {
        let render_one = |report: &steam_stats::TailReport| {
            format!(
                "xmin={:<8.3} α={:<5.2} [{:>9.1} {:7.1e} | {:>8.1} {:7.1e} | {:>7.1} {:7.1e} | {:>7.1} {:7.1e}] {}",
                report.xmin,
                report.power_law.alpha,
                report.pl_vs_exp.r,
                report.pl_vs_exp.p,
                report.pl_vs_ln.r,
                report.pl_vs_ln.p,
                report.tpl_vs_pl.r,
                report.tpl_vs_pl.p,
                report.tpl_vs_ln.r,
                report.tpl_vs_ln.p,
                report.class.as_str()
            )
        };
        match &row.first {
            Some(r) => {
                let discrete = row
                    .discrete_alpha
                    .map(|a| format!(" αd={a:.2}"))
                    .unwrap_or_default();
                let _ = writeln!(out, "{:<34} {}{}", row.attribute, render_one(r), discrete);
            }
            None => {
                let _ = writeln!(out, "{:<34} (insufficient data)", row.attribute);
            }
        }
        if let Some(Some(r)) = &row.second {
            let _ = writeln!(out, "{:<34} {}", format!("{} (2nd snapshot)", row.attribute), render_one(r));
        }
    }
    out
}

fn figure1(ctx: &Ctx) -> String {
    let ev = social::friendship_evolution(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1: evolution of the Steam friendship graph");
    let _ = writeln!(out, "{:<6} {:>14} {:>18} {:>14}", "Year", "Users", "Friendships", "New edges");
    for p in ev {
        let _ = writeln!(
            out,
            "{:<6} {:>14} {:>18} {:>14}",
            p.year, p.cumulative_users, p.cumulative_friendships, p.new_friendships
        );
    }
    out
}

fn figure2(ctx: &Ctx) -> String {
    let series = social::degree_distributions(ctx);
    let anomalies = social::cap_anomalies(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 2: friend-degree distributions (users at probe degrees)");
    for s in series {
        let probe = [1u32, 2, 5, 10, 20, 50, 100, 200, 250, 300];
        let mut cells = Vec::new();
        for d in probe {
            let count = s
                .points
                .iter()
                .find(|&&(deg, _)| deg == d)
                .map_or(0, |&(_, c)| c);
            cells.push(format!("{d}:{count}"));
        }
        let _ = writeln!(out, "  {:<16} {}", s.label, cells.join(" "));
    }
    for a in anomalies {
        let _ = writeln!(
            out,
            "  cap {}: {} users within 10 below vs {} within 10 above",
            a.cap, a.at_or_below, a.above
        );
    }
    out
}

fn figure3(ctx: &Ctx) -> String {
    let d = groups::group_game_diversity(ctx, 100);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: distinct games played by members of groups with ≥{} members ({} groups)",
        d.min_members,
        d.rows.len()
    );
    // Histogram of distinct-game counts in log bins.
    let mut hist = LogHistogram::new(1.0, 10_000.0, 3);
    for &(_, _, distinct) in &d.rows {
        hist.add(f64::from(distinct));
    }
    for (center, count) in hist.centers().iter().zip(&hist.counts) {
        if *count > 0 {
            let _ = writeln!(out, "  ~{:>8.0} distinct games: {:>6} groups", center, count);
        }
    }
    let _ = writeln!(
        out,
        "  groups ≥90% focused on one game: {:.2}% (paper: 4.97%)",
        d.single_game_focus_share * 100.0
    );
    out
}

fn figure4(ctx: &Ctx) -> String {
    let d = ownership::ownership_distribution(ctx);
    let c = ownership::collector_report(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 4: distribution of game ownership");
    let _ = writeln!(
        out,
        "  80th percentile: {:.0} owned / {:.0} played (paper: 10 / 7)",
        d.owned_p80, d.played_p80
    );
    let _ = writeln!(
        out,
        "  owners below 20 games: {:.2}% (paper: 89.78%)",
        d.under_20_share * 100.0
    );
    let probe = [1u32, 2, 5, 10, 20, 50, 100, 500, 1000];
    for p in probe {
        let owned = d.owned_freq.iter().filter(|&&(o, _)| o >= p).map(|&(_, c)| c).sum::<u64>();
        let played = d.played_freq.iter().filter(|&&(o, _)| o >= p).map(|&(_, c)| c).sum::<u64>();
        let _ = writeln!(out, "  ≥{:>5} games: {:>8} owners, {:>8} players", p, owned, played);
    }
    let _ = writeln!(
        out,
        "  collectors: {} libraries ≥{} games never played; largest library {} games ({:.1}% of catalog, {:.1}% played)",
        c.large_unplayed_libraries,
        c.large_threshold,
        c.max_library,
        c.max_library_catalog_share * 100.0,
        c.max_library_played_share * 100.0
    );
    let _ = writeln!(
        out,
        "  uptick band 1268–1290: {} users (bands beside it: {} / {})",
        c.uptick_band_users, c.band_below_users, c.band_above_users
    );
    out
}

fn figure5(ctx: &Ctx) -> String {
    let b = genre_breakdown(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 5: game ownership by genre (copies owned / unplayed share)");
    let mut rows = b.rows.clone();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.copies_owned));
    for (genre, row) in rows {
        let _ = writeln!(
            out,
            "  {:<22} {:>10} copies, {:>5.1}% unplayed, {:>5.1}% of catalog",
            genre.as_str(),
            row.copies_owned,
            row.unplayed_share() * 100.0,
            row.catalog_games as f64 / b.total_catalog_games.max(1) as f64 * 100.0
        );
    }
    out
}

fn figure6(ctx: &Ctx) -> String {
    let f = playtime::playtime_cdf(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 6: CDF of total and two-week playtime (hours)");
    let probe = [0.0f64, 1.0, 10.0, 34.0, 100.0, 336.0, 1000.0];
    let interp = |cdf: &[(f64, f64)], x: f64| -> f64 {
        let i = cdf.partition_point(|&(v, _)| v <= x);
        if i == 0 {
            0.0
        } else {
            cdf[i - 1].1
        }
    };
    for x in probe {
        let _ = writeln!(
            out,
            "  ≤{:>6.0} h: total {:>6.2}%, two-week {:>6.2}%",
            x,
            interp(&f.total_cdf, x) * 100.0,
            interp(&f.two_week_cdf, x) * 100.0
        );
    }
    let _ = writeln!(
        out,
        "  zero two-week playtime: {:.1}% of gamers (paper: >80%)",
        f.two_week_zero_share * 100.0
    );
    let _ = writeln!(
        out,
        "  top 20% hold {:.1}% of total playtime (paper: 82.4%); top 10% hold {:.1}% of two-week (paper: 93.0%)",
        f.top20_total_share * 100.0,
        f.top10_two_week_share * 100.0
    );
    out
}

fn figure7(ctx: &Ctx) -> String {
    let f = playtime::non_zero_two_week(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 7: non-zero two-week playtimes");
    let mut hist = LogHistogram::new(0.01, 400.0, 2);
    for &h in &f.hours {
        hist.add(h);
    }
    for (center, count) in hist.centers().iter().zip(&hist.counts) {
        if *count > 0 {
            let _ = writeln!(out, "  ~{:>8.2} h: {:>7} users", center, count);
        }
    }
    let _ = writeln!(out, "  80th percentile: {:.2} h (paper: 32.05 h)", f.p80_hours);
    let _ = writeln!(
        out,
        "  …which is the {:.1}th percentile of the overall distribution (paper: 95th)",
        f.overall_percentile_of_p80 * 100.0
    );
    let _ = writeln!(
        out,
        "  max {:.1} h (ceiling 336 h); within 80% of ceiling: {} users ({:.3}%)",
        f.max_hours,
        f.near_ceiling_users,
        f.near_ceiling_share * 100.0
    );
    out
}

fn figure8(ctx: &Ctx) -> String {
    let d = market_value_distribution(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 8: distribution of account market values");
    let mut hist = LogHistogram::new(1.0, 100_000.0, 2);
    for &v in &d.dollars {
        hist.add(v);
    }
    for (center, count) in hist.centers().iter().zip(&hist.counts) {
        if *count > 0 {
            let _ = writeln!(out, "  ~${:>9.0}: {:>8} users", center, count);
        }
    }
    let _ = writeln!(out, "  80th percentile: ${:.2} (paper: $150.88)", d.p80);
    let _ = writeln!(out, "  max: ${:.2} (paper: $24,315.40)", d.max);
    let _ = writeln!(out, "  top 20% hold {:.1}% of value (paper: 73%)", d.top20_share * 100.0);
    let _ = writeln!(
        out,
        "  collector bump $14,710–$15,250: {} users (bands beside it: {} / {})",
        d.bump_band_users, d.band_below_users, d.band_above_users
    );
    out
}

fn figure9(ctx: &Ctx) -> String {
    let b = genre_breakdown(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9: cumulative playtime and market value by genre");
    let mut rows = b.rows.clone();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.playtime_minutes));
    for (genre, row) in &rows {
        let _ = writeln!(
            out,
            "  {:<22} {:>6.2}% of playtime, {:>6.2}% of value, {:>5.1}% of catalog",
            genre.as_str(),
            row.playtime_minutes as f64 / b.total_playtime_minutes.max(1) as f64 * 100.0,
            row.value_cents as f64 / b.total_value_cents.max(1) as f64 * 100.0,
            row.catalog_games as f64 / b.total_catalog_games.max(1) as f64 * 100.0
        );
    }
    let _ = writeln!(
        out,
        "  Action: {:.1}% of playtime, {:.1}% of value vs {:.1}% of catalog (paper: 49.2% / 51.9% / 38.3%)",
        b.playtime_share(Genre::Action) * 100.0,
        b.value_share(Genre::Action) * 100.0,
        b.catalog_share(Genre::Action) * 100.0
    );
    out
}

fn figure10(ctx: &Ctx) -> String {
    let m = playtime::multiplayer_shares(ctx);
    format!(
        "Figure 10: multiplayer playtime share\n  catalog: {:.1}% of games multiplayer (paper: 48.7%)\n  total playtime in multiplayer games: {:.1}% (paper: 57.7%)\n  two-week playtime in multiplayer games: {:.1}% (paper: 67.7%)\n",
        m.catalog_share * 100.0,
        m.total_playtime_share * 100.0,
        m.two_week_share * 100.0
    )
}

fn figure11(ctx: &Ctx) -> String {
    let value = homophily::value_homophily(ctx);
    let (own, friends) = homophily::figure11_scatter(ctx);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 11: market value vs friends' mean market value (ρ={:.2}, paper: 0.77)",
        value.rho
    );
    // Binned scatter: mean friend value by own-value decade.
    let mut bins: Vec<(f64, f64, u64)> = Vec::new();
    for (o, f) in own.iter().zip(&friends) {
        let bin = if *o <= 0.0 { 0 } else { (o.log10().floor() as i32 + 1).max(0) as usize };
        if bins.len() <= bin {
            bins.resize(bin + 1, (0.0, 0.0, 0));
        }
        bins[bin].0 += o;
        bins[bin].1 += f;
        bins[bin].2 += 1;
    }
    for (i, (so, sf, n)) in bins.iter().enumerate() {
        if *n > 0 {
            let _ = writeln!(
                out,
                "  own ~1e{:<2}$: mean own ${:>10.2}, mean friends' ${:>10.2} ({} users)",
                i as i32 - 1,
                so / *n as f64,
                sf / *n as f64,
                n
            );
        }
    }
    out
}

fn figure12(panel: Option<&steam_model::WeekPanel>) -> String {
    let Some(panel) = panel else {
        return "Figure 12: (no week panel supplied)".into();
    };
    let view = evolution::panel_view(panel);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 12: week-long playtime panel ({} users, 0.5% sample)",
        view.rows.len()
    );
    let (light, heavy) = view.half_means();
    let _ = writeln!(
        out,
        "  mean minutes/day on days 2-7: lighter day-one half {:.1}, heavier half {:.1}",
        light, heavy
    );
    let _ = writeln!(
        out,
        "  of users idle on day one, {:.1}% played later in the week",
        view.late_bloomer_share() * 100.0
    );
    // Render deciles of the day-one ordering across the week.
    let _ = writeln!(out, "  decile mean minutes per day (rows = day-one deciles):");
    let n = view.rows.len();
    for d in 0..10 {
        let lo = n * d / 10;
        let hi = n * (d + 1) / 10;
        let mut cells = Vec::new();
        for day in 0..7 {
            let total: u64 = view.rows[lo..hi].iter().map(|r| u64::from(r[day])).sum();
            cells.push(format!("{:>5.0}", total as f64 / (hi - lo).max(1) as f64));
        }
        let _ = writeln!(out, "    decile {d}: {}", cells.join(" "));
    }
    out
}

fn correlations(ctx: &Ctx) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "§7 correlations (Spearman ρ, ours vs paper)");
    for c in homophily::behavior_correlations(ctx) {
        let _ = writeln!(
            out,
            "  {:<44} ρ={:>5.2} (paper {:>5.2}, {})",
            c.label,
            c.rho,
            c.paper_rho,
            c.strength.as_str()
        );
    }
    let _ = writeln!(out, "homophily:");
    for c in homophily::homophily_correlations(ctx) {
        let _ = writeln!(
            out,
            "  {:<44} ρ={:>5.2} (paper {:>5.2}, {})",
            c.label,
            c.rho,
            c.paper_rho,
            c.strength.as_str()
        );
    }
    out
}

fn evolution_report(ctx: &Ctx, second: Option<&Ctx>) -> String {
    let Some(second) = second else {
        return "§8 evolution: (no second snapshot supplied)".into();
    };
    let rows = evolution::snapshot_growth(ctx, second);
    let mut out = String::new();
    let _ = writeln!(out, "§8: second-snapshot growth (tail vs body)");
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<26} max {:>10.1} → {:>10.1} (×{:.2});  p80 {:>8.1} → {:>8.1} (×{:.2})",
            r.attribute,
            r.max_first,
            r.max_second,
            r.tail_factor(),
            r.p80_first,
            r.p80_second,
            r.body_factor()
        );
    }
    let _ = writeln!(
        out,
        "  (paper: max value $24,315→$46,634 ×1.92 vs p80 $150.88→$224.93 ×1.49; max games 2,148→3,919 ×1.82 vs p80 10→15 ×1.5)"
    );
    out
}

fn achievements_report(ctx: &Ctx) -> String {
    let stats = achievements::achievement_count_stats(ctx);
    let corr = achievements::playtime_achievement_correlation(ctx);
    let (sp, mp) = achievements::completion_by_mode(ctx);
    let by_genre = achievements::completion_by_genre(ctx);
    let mut out = String::new();
    let _ = writeln!(out, "§9 achievements");
    let _ = writeln!(
        out,
        "  offered: range {}–{}, mode {}, mean {:.1}, median {:.0} (paper: 0–1629, 12, 33.1, 24)",
        stats.min, stats.max, stats.mode, stats.mean, stats.median
    );
    let _ = writeln!(
        out,
        "  playtime correlation: overall R={:.2} (paper 0.16), 1–90 band R={:.2} (paper 0.53), >90 R={:.2} (paper −0.02)",
        corr.overall, corr.band_1_to_90, corr.beyond_90
    );
    let _ = writeln!(
        out,
        "  single-player completion: mode {}%, median {:.0}%, mean {:.0}% ({} achievements median)",
        sp.mode_pct, sp.median_pct, sp.mean_pct, sp.median_offered
    );
    let _ = writeln!(
        out,
        "  multiplayer completion:  mode {}%, median {:.0}%, mean {:.0}% ({} achievements median)",
        mp.mode_pct, mp.median_pct, mp.mean_pct, mp.median_offered
    );
    let _ = writeln!(out, "  completion by genre (mean %, mean offered):");
    for (genre, rate, offered) in by_genre {
        let _ = writeln!(out, "    {:<22} {:>5.1}% {:>6.1}", genre.as_str(), rate, offered);
    }
    out
}

fn locality(ctx: &Ctx) -> String {
    let l = social::locality(ctx);
    let m = social::mean_vs_mode(ctx);
    format!(
        "§4.1 locality & mean-vs-typical\n  international friendships (both report country): {:.2}% (paper: 30.34%)\n  inter-city friendships (both report city): {:.2}% (paper: 79.84%)\n  mean friends/user: {:.2}; share of users with exactly that count: {:.2}% (paper: 4 and 1.85%)\n",
        l.international_share() * 100.0,
        l.intercity_share() * 100.0,
        m.mean,
        m.users_with_mean_count * 100.0
    )
}

fn aggregates(ctx: &Ctx) -> String {
    let a = summary::aggregates(ctx);
    format!(
        "§6 aggregates (absolute numbers scale with the configured population)\n  users: {}\n  friendships: {}\n  owned games: {}\n  group memberships: {}\n  total playtime: {:.1} years\n  total market value: ${:.2}\n",
        a.users,
        a.friendships,
        a.owned_games,
        a.group_memberships,
        a.total_playtime_years,
        a.total_market_value_dollars
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testworld;

    #[test]
    fn every_experiment_renders() {
        let world = testworld::world();
        let ctx = Ctx::new(&world.snapshot);
        let second = Ctx::new(&world.second_snapshot);
        let input = ReportInput { ctx: &ctx, second: Some(&second), panel: Some(&world.panel) };
        for e in Experiment::ALL {
            if e == Experiment::Table4 {
                continue; // exercised separately (slow path)
            }
            let text = render(&input, e);
            assert!(!text.is_empty(), "{e:?} rendered empty");
            assert!(text.len() > 30, "{e:?} suspiciously short: {text}");
        }
    }

    #[test]
    fn experiment_names_round_trip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::from_name(e.name()), Some(e));
        }
        assert_eq!(Experiment::from_name("nonsense"), None);
    }

    #[test]
    fn figure12_without_panel_degrades() {
        let world = testworld::world();
        let ctx = Ctx::new(&world.snapshot);
        let input = ReportInput { ctx: &ctx, second: None, panel: None };
        let text = render(&input, Experiment::Figure12);
        assert!(text.contains("no week panel"));
        let text = render(&input, Experiment::Evolution);
        assert!(text.contains("no second snapshot"));
    }

    #[test]
    fn key_figures_quote_paper_targets() {
        let world = testworld::world();
        let ctx = Ctx::new(&world.snapshot);
        let input = ReportInput { ctx: &ctx, second: None, panel: None };
        assert!(render(&input, Experiment::Figure4).contains("paper: 10 / 7"));
        assert!(render(&input, Experiment::Figure6).contains("82.4%"));
        assert!(render(&input, Experiment::Figure8).contains("$150.88"));
        assert!(render(&input, Experiment::Figure10).contains("48.7%"));
    }
}
