//! # steam-graph
//!
//! Friendship-graph analytics for the *Condensing Steam* (IMC 2016)
//! reproduction:
//!
//! * [`csr`] — compressed sparse row adjacency (the paper's graph has
//!   ~196 M undirected edges; neighbor scans must be flat-array walks);
//! * [`components`] — connected components by iterative BFS (§2.2's
//!   crawler-bias discussion concerns the giant component);
//! * [`neighbors`] — neighbor-average attributes and degree assortativity
//!   (the §7 homophily correlations and Figure 11);
//! * [`evolution`] — time-resolved user/friendship growth and per-year
//!   degree distributions (Figures 1 and 2);
//! * [`smallworld`] — clustering/path-length estimates (the small-world
//!   structure Becker et al. reported, §2.2);
//! * [`sampling`] — BFS-crawl vs census sampling models (the §2.2
//!   crawler-bias argument, made measurable).

pub mod components;
pub mod csr;
pub mod evolution;
pub mod neighbors;
pub mod sampling;
pub mod smallworld;

pub use components::{connected_components, Components};
pub use csr::Csr;
pub use evolution::{
    degrees_in_years, yearly_degrees_with, yearly_evolution_with, YearPoint,
    YearlyDegrees,
};
pub use neighbors::{degree_assortativity, homophily_pairs, neighbor_mean};
pub use sampling::{bfs_crawl, census_sample, sample_degree_stats};
pub use smallworld::{local_clustering, mean_clustering, small_world, SmallWorld};
