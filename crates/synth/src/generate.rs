//! The generator facade: orchestrates catalog → accounts → friendships →
//! ownership → groups → second snapshot → week panel, all from one seed.
//!
//! Every stage draws from its own [`crate::seed`] stream, so stages no
//! longer share a threaded-through RNG: the catalog and the population are
//! generated concurrently, the per-user stages fan out over fixed chunks
//! (see [`crate::par`]), and the output is byte-identical for every
//! `jobs >= 1`.

use std::time::{Duration, Instant};

use steam_model::{Snapshot, WeekPanel};

use crate::accounts::{generate_population, Latents};
use crate::catalog::generate_catalog;
use crate::config::SynthConfig;
use crate::evolve::evolve_snapshot;
use crate::friends::generate_friendships;
use crate::groups::generate_groups;
use crate::ownership::generate_ownership;
use crate::panel::generate_panel;

/// The latent catalog state the snapshots don't carry: which products are
/// games, and their popularity weights (both parallel to the *first*
/// snapshot's catalog).
#[derive(Clone, Debug)]
pub struct CatalogLatents {
    /// Indices into `snapshot.catalog` of the playable games.
    pub game_indices: Vec<u32>,
    /// Unnormalized ownership propensity, parallel to `game_indices`.
    pub popularity: Vec<f64>,
}

/// Everything the experiments need: both snapshots, the week panel, and the
/// latent state (useful for validation and the examples). The snapshots own
/// the accounts and the catalog — the latents hold only what the snapshots
/// don't record.
#[derive(Clone, Debug)]
pub struct World {
    pub snapshot: Snapshot,
    pub second_snapshot: Snapshot,
    pub panel: WeekPanel,
    /// Per-user hidden state, parallel to `snapshot.accounts`.
    pub latents: Latents,
    pub catalog_latents: CatalogLatents,
    pub config: SynthConfig,
}

/// Wall time of one synthesis stage.
#[derive(Clone, Debug)]
pub struct StageTiming {
    pub stage: &'static str,
    pub wall: Duration,
}

/// Per-stage timing report for one `generate_world` run — what
/// `steam-cli generate --timings` prints to stderr.
#[derive(Clone, Debug)]
pub struct GenTimings {
    /// Worker count the run was scheduled on.
    pub jobs: usize,
    /// End-to-end wall time (less than the stage sum when the catalog and
    /// population stages overlap).
    pub wall: Duration,
    /// Per-stage wall times, in pipeline order.
    pub stages: Vec<StageTiming>,
}

impl GenTimings {
    /// Sum of stage wall times.
    pub fn busy(&self) -> Duration {
        self.stages.iter().map(|t| t.wall).sum()
    }

    /// Human-readable timing table, slowest stage first.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<&StageTiming> = self.stages.iter().collect();
        rows.sort_by_key(|t| std::cmp::Reverse(t.wall));
        let name_w =
            rows.iter().map(|t| t.stage.len()).max().unwrap_or(5).max("stage".len());
        let mut out = String::new();
        out.push_str(&format!("{:<name_w$}  {:>10}  {:>6}\n", "stage", "wall", "share"));
        let busy = self.busy().as_secs_f64();
        for t in rows {
            let share = if busy > 0.0 { t.wall.as_secs_f64() / busy * 100.0 } else { 0.0 };
            out.push_str(&format!("{:<name_w$}  {:>10.3?}  {:>5.1}%\n", t.stage, t.wall, share));
        }
        out.push_str(&format!("total {:.3?} on {} workers\n", self.wall, self.jobs));
        out
    }
}

/// Deterministic population generator.
pub struct Generator {
    config: SynthConfig,
}

impl Generator {
    /// Panics if the configuration fails validation — a config bug, not a
    /// runtime condition.
    pub fn new(config: SynthConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SynthConfig: {e}");
        }
        Generator { config }
    }

    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Generates only the first snapshot (cheapest path; most experiments
    /// need nothing else).
    pub fn generate(&self) -> Snapshot {
        self.generate_world().snapshot
    }

    /// Generates the full world single-threaded. Parallel runs via
    /// [`generate_world_jobs`](Self::generate_world_jobs) produce the
    /// byte-identical world.
    pub fn generate_world(&self) -> World {
        self.generate_world_jobs(1)
    }

    /// Generates the full world on up to `jobs` worker threads.
    pub fn generate_world_jobs(&self, jobs: usize) -> World {
        self.generate_world_timed(jobs).0
    }

    /// Generates the full world and reports per-stage wall times.
    pub fn generate_world_timed(&self, jobs: usize) -> (World, GenTimings) {
        let cfg = &self.config;
        let jobs = jobs.max(1);
        let run_start = Instant::now();
        let mut stages: Vec<StageTiming> = Vec::with_capacity(7);
        let mut stage = |name: &'static str, wall: Duration| {
            stages.push(StageTiming { stage: name, wall });
        };

        // The catalog and the population share no state, so with spare
        // workers they run concurrently; each stage still fans out
        // internally over its own chunk streams.
        let (catalog_model, population, t_cat, t_pop) = if jobs > 1 {
            std::thread::scope(|s| {
                let handle = s.spawn(|| {
                    let t = Instant::now();
                    let c = generate_catalog(cfg, jobs);
                    (c, t.elapsed())
                });
                let t = Instant::now();
                let population = generate_population(cfg, jobs);
                let t_pop = t.elapsed();
                let (catalog_model, t_cat) = handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                (catalog_model, population, t_cat, t_pop)
            })
        } else {
            let t = Instant::now();
            let catalog_model = generate_catalog(cfg, jobs);
            let t_cat = t.elapsed();
            let t = Instant::now();
            let population = generate_population(cfg, jobs);
            (catalog_model, population, t_cat, t.elapsed())
        };
        stage("catalog", t_cat);
        stage("accounts", t_pop);

        let t = Instant::now();
        let friendships = generate_friendships(cfg, &population, jobs);
        stage("friendships", t.elapsed());

        let t = Instant::now();
        let ownerships = generate_ownership(cfg, &population, &catalog_model, jobs);
        stage("ownership", t.elapsed());

        let t = Instant::now();
        let groups = generate_groups(cfg, &ownerships, &catalog_model, jobs);
        stage("groups", t.elapsed());

        // The snapshot takes ownership of the accounts and the product
        // catalog; only the latent vectors stay behind on the World.
        let crate::accounts::Population { accounts, scanned_id_space, latents } = population;
        let crate::catalog::CatalogModel { products, game_indices, popularity } = catalog_model;
        let snapshot = Snapshot {
            collected_at: steam_model::SimTime::from_ymd(2013, 11, 5),
            scanned_id_space,
            accounts,
            friendships,
            ownerships,
            groups: groups.groups,
            memberships: groups.memberships,
            catalog: products,
        };

        let t = Instant::now();
        let second_snapshot =
            evolve_snapshot(cfg, &snapshot, &latents, &game_indices, &popularity, jobs);
        stage("evolve", t.elapsed());

        let t = Instant::now();
        let panel = generate_panel(cfg.seed, &second_snapshot, jobs);
        stage("panel", t.elapsed());

        let timings = GenTimings { jobs, wall: run_start.elapsed(), stages };
        let world = World {
            snapshot,
            second_snapshot,
            panel,
            latents,
            catalog_latents: CatalogLatents { game_indices, popularity },
            config: cfg.clone(),
        };
        (world, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_structurally_valid() {
        let world = Generator::new(SynthConfig::small(1)).generate_world();
        world.snapshot.validate().unwrap();
        world.second_snapshot.validate().unwrap();
        assert_eq!(world.snapshot.n_users(), world.config.n_users);
        assert!(world.snapshot.n_friendships() > 0);
        assert!(world.snapshot.n_owned_games() > 0);
        assert!(world.snapshot.n_memberships() > 0);
        assert!(!world.panel.is_empty());
        assert_eq!(world.latents.engagement.len(), world.snapshot.n_users());
        assert_eq!(
            world.catalog_latents.game_indices.len(),
            world.catalog_latents.popularity.len()
        );
    }

    #[test]
    fn fully_deterministic() {
        let a = Generator::new(SynthConfig::small(77)).generate_world();
        let b = Generator::new(SynthConfig::small(77)).generate_world();
        assert_eq!(a.snapshot.friendships, b.snapshot.friendships);
        assert_eq!(a.snapshot.ownerships, b.snapshot.ownerships);
        assert_eq!(a.second_snapshot.ownerships, b.second_snapshot.ownerships);
        assert_eq!(a.panel.users, b.panel.users);
        assert_eq!(a.panel.daily_minutes, b.panel.daily_minutes);
    }

    #[test]
    fn jobs_do_not_change_the_world() {
        let a = Generator::new(SynthConfig::small(77)).generate_world_jobs(1);
        let b = Generator::new(SynthConfig::small(77)).generate_world_jobs(4);
        assert_eq!(a.snapshot.accounts, b.snapshot.accounts);
        assert_eq!(a.snapshot.friendships, b.snapshot.friendships);
        assert_eq!(a.snapshot.ownerships, b.snapshot.ownerships);
        assert_eq!(a.snapshot.memberships, b.snapshot.memberships);
        assert_eq!(a.snapshot.catalog, b.snapshot.catalog);
        assert_eq!(a.second_snapshot.ownerships, b.second_snapshot.ownerships);
        assert_eq!(a.panel.users, b.panel.users);
        assert_eq!(a.panel.daily_minutes, b.panel.daily_minutes);
    }

    #[test]
    fn timings_cover_every_stage() {
        let (_, timings) = Generator::new(SynthConfig::small(5)).generate_world_timed(2);
        let names: Vec<&str> = timings.stages.iter().map(|t| t.stage).collect();
        assert_eq!(
            names,
            ["catalog", "accounts", "friendships", "ownership", "groups", "evolve", "panel"]
        );
        assert_eq!(timings.jobs, 2);
        let table = timings.render_table();
        assert!(table.contains("stage") && table.contains("total"));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Generator::new(SynthConfig::small(1)).generate_world();
        let b = Generator::new(SynthConfig::small(2)).generate_world();
        assert_ne!(a.snapshot.friendships, b.snapshot.friendships);
    }

    #[test]
    #[should_panic(expected = "invalid SynthConfig")]
    fn invalid_config_panics() {
        let mut cfg = SynthConfig::small(1);
        cfg.owner_rate = 2.0;
        Generator::new(cfg);
    }

    #[test]
    fn aggregate_scale_matches_paper_ratios() {
        // The paper: 108.7M users, 384.3M owned games (3.54/user), 196.4M
        // friendships (1.81/user), 81.3M memberships (0.75/user).
        let world = Generator::new(SynthConfig::small(3)).generate_world();
        let n = world.snapshot.n_users() as f64;
        let games_per_user = world.snapshot.n_owned_games() as f64 / n;
        let edges_per_user = world.snapshot.n_friendships() as f64 / n;
        let memberships_per_user = world.snapshot.n_memberships() as f64 / n;
        assert!((2.0..6.5).contains(&games_per_user), "games/user = {games_per_user}");
        assert!((1.1..2.6).contains(&edges_per_user), "edges/user = {edges_per_user}");
        assert!(
            (0.4..2.2).contains(&memberships_per_user),
            "memberships/user = {memberships_per_user}"
        );
    }
}
