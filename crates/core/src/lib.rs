//! # steam-analysis
//!
//! The paper's analysis pipeline — the primary contribution of *Condensing
//! Steam* (IMC 2016) — implemented as one module per section, each exposing
//! typed results plus a text renderer that prints the same rows/series the
//! paper reports:
//!
//! | Module | Paper content |
//! |---|---|
//! | [`social`] | §4.1: Table 1, Figures 1–2, locality, friend caps |
//! | [`groups`] | §4.2: Table 2, Figure 3 |
//! | [`ownership`] | §5: Figure 4, collectors |
//! | [`genre`] | §5/§6.2: Figures 5 and 9 |
//! | [`playtime`] | §6.1: Figures 6, 7, 10 |
//! | [`money`] | §6: Figure 8, aggregates |
//! | [`homophily`] | §7: correlations, Figure 11 |
//! | [`evolution`] | §8: snapshot growth, Figure 12 |
//! | [`achievements`] | §9 |
//! | [`summary`] | §10: Table 3, §6 aggregates |
//! | [`classify`] | §3.3 + Appendix: Table 4 |
//! | [`sampling_bias`] | §2.2: census-vs-crawl bias, small-world metrics |
//! | [`report`] | renderers + the [`report::Experiment`] registry |
//! | [`engine`] | work-stealing parallel report scheduler (byte-identical output for any thread count) |
//!
//! Everything consumes a [`context::Ctx`] built once from a
//! [`steam_model::Snapshot`].

pub mod achievements;
pub mod classify;
pub mod context;
pub mod engine;
pub mod evolution;
pub mod export;
pub mod genre;
pub mod groups;
pub mod homophily;
pub mod money;
pub mod ownership;
pub mod playtime;
pub mod report;
pub mod sampling_bias;
pub mod social;
pub mod summary;

#[cfg(test)]
mod testworld;

pub use context::Ctx;
pub use engine::{
    render_experiments, render_experiments_timed, render_full_report, render_full_report_timed,
    ExperimentTiming, ReportTimings,
};
pub use report::{render, render_with_jobs, Experiment, ReportInput};
