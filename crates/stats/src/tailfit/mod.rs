//! Heavy-tail analysis: a from-scratch Rust reimplementation of the parts of
//! the Python `powerlaw 1.3` package (Alstott, Bullmore & Plenz 2014) the
//! paper relies on.
//!
//! The pipeline is the methodology of Clauset, Shalizi & Newman (2009):
//!
//! 1. choose `x_min` by minimizing the power-law KS distance over candidate
//!    cut points ([`fit::scan_xmin`]);
//! 2. fit power law, exponential, lognormal and truncated power law to the
//!    surviving tail by maximum likelihood ([`fit`]);
//! 3. compare model pairs by (Vuong-normalized) log-likelihood-ratio tests
//!    ([`llr`]);
//! 4. map the test outcomes onto the paper's taxonomy — heavy-tailed,
//!    long-tailed, lognormal, truncated power law ([`classify`]).
//!
//! **Discreteness caveat.** The empirical quantities are integers (friend
//! counts, minutes, cents). Like the paper (and the `powerlaw` package's
//! default), we fit continuous densities; for tails with `x_min` of a few
//! units or more the continuous MLE's bias is negligible relative to the
//! distinctions the classification draws.

pub mod classify;
pub mod discrete;
pub mod dist;
pub mod fit;
pub mod gof;
pub mod llr;
mod neldermead;
pub mod sample;

pub use classify::{
    classify_tail, classify_tail_jobs, decide, ClassifyOptions, TailClass, TailReport,
};
pub use dist::{Exponential, Lognormal, PowerLaw, TailModel, TruncatedPowerLaw};
pub use fit::{
    fit_exponential, fit_lognormal, fit_power_law, fit_truncated_power_law, ks_distance,
    scan_xmin, scan_xmin_jobs, XminScan,
};
pub use discrete::{fit_discrete_power_law, hurwitz_zeta, DiscretePowerLaw};
pub use gof::{bootstrap_power_law, GofResult};
pub use llr::{compare_nested, compare_non_nested, Comparison};
pub use sample::SampleTail;
