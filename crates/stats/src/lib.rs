//! # steam-stats
//!
//! Statistics substrate for the *Condensing Steam* (IMC 2016) reproduction:
//!
//! * [`ecdf`] — empirical CDFs, CCDF plot points, percentiles (Table 3);
//! * [`hist`] — linear and log-binned histograms (the figures' axes);
//! * [`spearman`](mod@spearman) — Spearman rank correlation with ties (§7);
//! * [`pareto`] — concentration shares, Lorenz curves, Gini (§6.1's 80-20);
//! * [`tailfit`] — the heavy-tail classification pipeline reimplementing the
//!   Python `powerlaw` package's fits and likelihood-ratio tests (§3.3,
//!   Appendix, Table 4);
//! * [`summary`] — means/medians/modes (§9's achievement statistics);
//! * [`special`] — the special functions the fitters need.
//!
//! The `_jobs` kernel variants fan out through `steam_par::map` and reduce
//! per-range results in index order, so they match the serial kernels.
//!
//! All of it is deterministic, std-only apart from `rand` (the bootstrap and
//! the tail-model samplers) and `steam-par`, and tested against closed-form
//! cases and synthetic samples with known parameters.

pub mod ecdf;
pub mod hist;
pub mod pareto;
pub mod special;
pub mod spearman;
pub mod summary;
pub mod tailfit;

pub use ecdf::{table3_percentiles, Ecdf};
pub use hist::{frequency_u32, LinearHistogram, LogHistogram};
pub use pareto::{gini, lorenz_curve, top_share};
pub use spearman::{pearson, spearman, CorrelationStrength};
pub use tailfit::{classify_tail, classify_tail_jobs, ClassifyOptions, TailClass, TailReport};
