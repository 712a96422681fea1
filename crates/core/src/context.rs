//! Shared, precomputed per-user aggregates every analysis consumes.

use std::collections::HashMap;

use steam_graph::{yearly_degrees_with, Csr, YearlyDegrees};
use steam_model::{
    AppId, CountryCode, Friendship, ModelError, OwnedGame, SimTime, Snapshot, SnapshotReader,
    WorldView,
};

/// Visitor for [`Ctx::visit_membership_libs`]: receives the user index, that
/// user's group indices, and their library.
pub type MembershipLibVisitor<'a> = dyn FnMut(usize, &[u32], &[OwnedGame]) + 'a;

/// Precomputed view over a world: per-user degree, library sizes, playtimes
/// and market value, plus the friendship graph in CSR form and the resident
/// account columns the analyses index at random.
///
/// Building it is one linear pass over the data; every table/figure function
/// then works from these vectors. The backing [`WorldView`] may be a fully
/// decoded snapshot or a chunk-streaming reader over a v3 file — the
/// resulting context is identical either way, and all per-record data
/// (individual libraries, membership lists, edges) stays behind the world's
/// visitors so streaming mode never materializes a whole section.
pub struct Ctx<'a> {
    pub world: WorldView<'a>,
    /// Friend count per user.
    pub degrees: Vec<u32>,
    /// Games owned per user.
    pub owned: Vec<u32>,
    /// Games owned and ever played per user.
    pub played: Vec<u32>,
    /// Lifetime playtime per user, minutes.
    pub total_minutes: Vec<u64>,
    /// Two-week playtime per user, minutes.
    pub two_week_minutes: Vec<u64>,
    /// Market value of the library per user, cents (2014 storefront prices).
    pub value_cents: Vec<u64>,
    /// Group memberships per user.
    pub group_count: Vec<u32>,
    /// Account creation time per user.
    pub created_at: Vec<SimTime>,
    /// Self-reported country per user.
    pub country: Vec<Option<CountryCode>>,
    /// Self-reported city per user.
    pub city: Vec<Option<u16>>,
    /// `AppId -> catalog index`.
    pub app_index: HashMap<AppId, u32>,
    /// Friendship graph.
    pub graph: Csr,
}

impl<'a> Ctx<'a> {
    pub fn new(snapshot: &'a Snapshot) -> Self {
        Self::new_with_jobs(snapshot, 1)
    }

    /// [`Ctx::new`] with the CSR rows sorted on `jobs` threads. The
    /// resulting context is identical for any `jobs` value.
    ///
    /// # Panics
    ///
    /// On a friendship or membership that names no account or group, which
    /// a world generated in this process never holds; a world read from a
    /// file goes through [`Ctx::from_world`] or [`Ctx::from_reader`], which
    /// return that as an error.
    pub fn new_with_jobs(snapshot: &'a Snapshot, jobs: usize) -> Self {
        Self::from_world(WorldView::mem(snapshot), jobs)
            .unwrap_or_else(|e| panic!("an in-process world is consistent: {e}"))
    }

    /// Builds a context directly from a chunked-snapshot reader without ever
    /// materializing the full world: the CSR is assembled by a two-pass walk
    /// over the friendship chunks, and the per-user columns by one pass over
    /// the account/library/membership chunks.
    pub fn from_reader(reader: &'a SnapshotReader, jobs: usize) -> Result<Self, ModelError> {
        Self::from_world(WorldView::stream(reader)?, jobs)
    }

    /// The shared build: identical aggregation loops for both world
    /// backings, so a streamed context is byte-for-byte the same as an
    /// in-memory one. It reads every chunk of all six sections, the
    /// friendships twice.
    ///
    /// A friendship endpoint past the accounts or a membership past the
    /// groups is a [`ModelError::DanglingReference`]; a chunk that fails
    /// its checksum or decode returns the reader's error.
    pub fn from_world(world: WorldView<'a>, jobs: usize) -> Result<Self, ModelError> {
        let n = world.n_users();
        let catalog = world.catalog();
        let mut app_index = HashMap::with_capacity(catalog.len());
        for (gi, g) in catalog.iter().enumerate() {
            app_index.insert(g.app_id, gi as u32);
        }
        let price_cents: Vec<u32> = catalog.iter().map(|g| g.price_cents).collect();

        let graph = Csr::from_walk(n, |f| world.for_each_friendship(|e| f(e.a, e.b)), jobs)?;
        let degrees = graph.degrees();

        let mut created_at = Vec::with_capacity(n);
        let mut country = Vec::with_capacity(n);
        let mut city = Vec::with_capacity(n);
        world.for_each_account(|_, a| {
            created_at.push(a.created_at);
            country.push(a.country);
            city.push(a.city);
        })?;

        let mut owned = vec![0u32; n];
        let mut played = vec![0u32; n];
        let mut total_minutes = vec![0u64; n];
        let mut two_week_minutes = vec![0u64; n];
        let mut value_cents = vec![0u64; n];
        world.for_each_library(|u, lib| {
            owned[u] = lib.len() as u32;
            for o in lib {
                if o.played() {
                    played[u] += 1;
                }
                total_minutes[u] += u64::from(o.playtime_forever_min);
                two_week_minutes[u] += u64::from(o.playtime_2weeks_min);
                if let Some(&gi) = app_index.get(&o.app_id) {
                    value_cents[u] += u64::from(price_cents[gi as usize]);
                }
            }
        })?;

        let n_groups = world.groups().len();
        let mut group_count = vec![0u32; n];
        let mut dangling = None;
        world.for_each_memberships(|u, ms| {
            group_count[u] = ms.len() as u32;
            if let Some(&g) = ms.iter().find(|&&g| g as usize >= n_groups) {
                dangling.get_or_insert((u, g));
            }
        })?;
        if let Some((u, g)) = dangling {
            return Err(ModelError::DanglingReference(format!(
                "user {u} is a member of group {g}, past the {n_groups} in the snapshot"
            )));
        }

        Ok(Ctx {
            world,
            degrees,
            owned,
            played,
            total_minutes,
            two_week_minutes,
            value_cents,
            group_count,
            created_at,
            country,
            city,
            app_index,
            graph,
        })
    }

    pub fn n_users(&self) -> usize {
        self.degrees.len()
    }

    /// Total friendship edges (from the edge list or the chunk directory —
    /// no pass either way).
    pub fn n_friendships(&self) -> u64 {
        self.world.n_friendships()
    }

    /// Total owned-game records across all libraries.
    pub fn n_owned_games(&self) -> u64 {
        self.owned.iter().map(|&o| u64::from(o)).sum()
    }

    /// Total group-membership records across all users.
    pub fn n_memberships(&self) -> u64 {
        self.group_count.iter().map(|&g| u64::from(g)).sum()
    }

    /// Calls `f` for every friendship edge, streaming chunks in stream mode.
    pub fn visit_friendships(&self, f: &mut dyn FnMut(&Friendship)) {
        intact(self.world.for_each_friendship(f));
    }

    /// Calls `f(u, &library)` for every user in index order.
    pub fn visit_libraries(&self, f: &mut dyn FnMut(usize, &[OwnedGame])) {
        intact(self.world.for_each_library(f));
    }

    /// Calls `f(u, &group_indices)` for every user in index order.
    pub fn visit_memberships(&self, f: &mut dyn FnMut(usize, &[u32])) {
        intact(self.world.for_each_memberships(f));
    }

    /// Calls `f(u, &group_indices, &library)` for every user in index order.
    pub fn visit_membership_libs(&self, f: &mut MembershipLibVisitor<'_>) {
        intact(self.world.for_each_membership_lib(f));
    }

    /// Per-user friendship counts before `first` and in each calendar year
    /// `first..=last`, via one pass over the edges: every "Y only" and
    /// "through Y" degree vector of Figure 2 and Table 4.
    pub fn yearly_degrees(&self, first: i32, last: i32) -> YearlyDegrees {
        yearly_degrees_with(self.n_users(), |f| self.visit_friendships(f), first, last)
    }

    /// Dollars from cents.
    pub fn value_dollars(&self, u: usize) -> f64 {
        self.value_cents[u] as f64 / 100.0
    }

    /// Values of an attribute restricted to users where it is non-zero,
    /// as f64 — the paper's percentile ladders are computed among holders
    /// of the attribute (see DESIGN.md).
    pub fn nonzero_f64<T: Copy + Into<u64>>(attr: &[T]) -> Vec<f64> {
        attr.iter()
            .map(|&x| x.into() as f64)
            .filter(|&x| x > 0.0)
            .collect()
    }
}

/// Ends an experiment's pass over a chunk that failed to read. The context
/// build read every chunk of the world without error, so only a file changed
/// under a running analysis gets here, and no partial result is worth
/// salvaging.
fn intact(pass: Result<(), ModelError>) {
    if let Err(e) = pass {
        panic!("a pass over the world failed after the context build read it whole: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testworld;

    #[test]
    fn aggregates_are_consistent() {
        let world = testworld::world();
        let ctx = Ctx::new(&world.snapshot);
        let n = ctx.n_users();
        assert_eq!(ctx.degrees.len(), n);
        // Degrees agree between snapshot and CSR.
        assert_eq!(ctx.graph.degrees(), ctx.degrees);
        assert_eq!(world.snapshot.degrees(), ctx.degrees);
        // Owned/played/identity checks.
        for u in 0..n {
            assert!(ctx.played[u] <= ctx.owned[u]);
            assert!(ctx.two_week_minutes[u] <= ctx.total_minutes[u] * 2);
        }
        // Totals match the snapshot-level helpers.
        let total: u64 = ctx.total_minutes.iter().sum();
        assert_eq!(total, world.snapshot.total_playtime_minutes());
        let value0 = world.snapshot.account_value_cents(0, &ctx.app_index);
        assert_eq!(value0, ctx.value_cents[0]);
        assert_eq!(ctx.n_friendships(), world.snapshot.n_friendships() as u64);
        assert_eq!(ctx.n_owned_games(), world.snapshot.n_owned_games() as u64);
        assert_eq!(ctx.n_memberships(), world.snapshot.n_memberships() as u64);
        // Resident columns mirror the accounts section.
        for (u, a) in world.snapshot.accounts.iter().enumerate().step_by(97) {
            assert_eq!(ctx.created_at[u], a.created_at);
            assert_eq!(ctx.country[u], a.country);
            assert_eq!(ctx.city[u], a.city);
        }
    }

    #[test]
    fn parallel_context_build_matches_serial() {
        let world = testworld::world();
        let serial = Ctx::new(&world.snapshot);
        let parallel = Ctx::new_with_jobs(&world.snapshot, 8);
        assert_eq!(serial.degrees, parallel.degrees);
        assert_eq!(serial.graph.degrees(), parallel.graph.degrees());
        for u in (0..serial.n_users() as u32).step_by(97) {
            assert_eq!(serial.graph.neighbors(u), parallel.graph.neighbors(u), "node {u}");
        }
    }

    #[test]
    fn streamed_context_matches_in_memory() {
        let world = testworld::world();
        let dir = std::env::temp_dir().join(format!("ctx-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");
        steam_model::codec::write_snapshot_v3(&path, &world.snapshot, 2).unwrap();
        let reader = SnapshotReader::open(&path).unwrap();

        let mem = Ctx::new_with_jobs(&world.snapshot, 2);
        for jobs in [1usize, 4] {
            let streamed = Ctx::from_reader(&reader, jobs).unwrap();
            assert_eq!(streamed.degrees, mem.degrees, "jobs={jobs}");
            assert_eq!(streamed.owned, mem.owned);
            assert_eq!(streamed.played, mem.played);
            assert_eq!(streamed.total_minutes, mem.total_minutes);
            assert_eq!(streamed.two_week_minutes, mem.two_week_minutes);
            assert_eq!(streamed.value_cents, mem.value_cents);
            assert_eq!(streamed.group_count, mem.group_count);
            assert_eq!(streamed.created_at, mem.created_at);
            assert_eq!(streamed.country, mem.country);
            assert_eq!(streamed.city, mem.city);
            assert_eq!(streamed.app_index, mem.app_index);
            assert_eq!(streamed.graph.degrees(), mem.graph.degrees());
            for u in (0..mem.n_users() as u32).step_by(53) {
                assert_eq!(streamed.graph.neighbors(u), mem.graph.neighbors(u), "node {u}");
            }
            assert_eq!(streamed.n_friendships(), mem.n_friendships());
            assert_eq!(streamed.n_owned_games(), mem.n_owned_games());
            assert_eq!(streamed.n_memberships(), mem.n_memberships());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn yearly_degrees_match_every_window_in_memory_and_streamed() {
        let world = testworld::world();
        let s = &world.snapshot;
        let dir = std::env::temp_dir().join(format!("ctx-yearly-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");
        steam_model::codec::write_snapshot_v3(&path, s, 2).unwrap();
        let reader = SnapshotReader::open(&path).unwrap();
        let mem = Ctx::new(s);
        let streamed = Ctx::from_reader(&reader, 2).unwrap();
        for ctx in [&mem, &streamed] {
            let yearly = ctx.yearly_degrees(2009, 2013);
            for year in 2009..=2013 {
                let only = steam_graph::degrees_in_years(s.n_users(), &s.friendships, year, year);
                assert_eq!(yearly.year_only(year), only, "{year} only");
                let through =
                    steam_graph::degrees_in_years(s.n_users(), &s.friendships, i32::MIN, year);
                assert_eq!(yearly.through(year), through, "through {year}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A 60-user world: small enough to flip every byte of its v3 file.
    fn tiny_snapshot() -> Snapshot {
        let mut cfg = steam_synth::SynthConfig::small(3);
        cfg.n_users = 60;
        cfg.n_products = 30;
        cfg.n_groups = 8;
        steam_synth::Generator::new(cfg).generate()
    }

    #[test]
    fn every_byte_flip_fails_the_open_or_the_build() {
        use std::os::unix::fs::FileExt;
        let clean = steam_model::codec::encode_snapshot_v3(&tiny_snapshot(), 1);
        let dir = std::env::temp_dir().join(format!("ctx-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");
        // The clean file is written once; each flip is made, and undone,
        // in place.
        std::fs::write(&path, &clean).unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        for (at, &byte) in clean.iter().enumerate() {
            file.write_all_at(&[byte ^ 0x01], at as u64).unwrap();
            let built =
                SnapshotReader::open(&path).and_then(|r| Ctx::from_reader(&r, 2).map(|_| ()));
            assert!(built.is_err(), "flip at {at} of {} built a context", clean.len());
            file.write_all_at(&[byte], at as u64).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dangling_references_are_errors_through_both_backings() {
        let clean = tiny_snapshot();
        let mut edge = clean.clone();
        edge.friendships.push(Friendship::new(1, clean.n_users() as u32 + 3, clean.collected_at));
        let mut membership = clean.clone();
        membership.memberships[0] = vec![clean.groups.len() as u32 + 5];
        let dir = std::env::temp_dir().join(format!("ctx-dangling-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (tag, s) in [("edge", &edge), ("membership", &membership)] {
            let mem = Ctx::from_world(WorldView::mem(s), 2).err();
            assert!(matches!(mem, Some(ModelError::DanglingReference(_))), "{tag}: {mem:?}");
            let path = dir.join(format!("{tag}.snap"));
            steam_model::codec::write_snapshot_v3(&path, s, 1).unwrap();
            let reader = SnapshotReader::open(&path).unwrap();
            let streamed = Ctx::from_reader(&reader, 2).err();
            assert!(
                matches!(streamed, Some(ModelError::DanglingReference(_))),
                "{tag} streamed: {streamed:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nonzero_filter() {
        let v = Ctx::nonzero_f64(&[0u32, 3, 0, 5]);
        assert_eq!(v, vec![3.0, 5.0]);
    }
}
