//! Shard stores: what the API service serves, cut from a world one or N
//! ways.
//!
//! A [`Snapshot`] cannot be served piece by piece as it stands: its
//! friendship edges are *account-index* pairs, and an edge endpoint usually
//! lives on another shard. A split therefore resolves every cross-account
//! reference while it can still see the whole world — each account's friend
//! list becomes `(SteamId, since)` pairs in serve order — and yields one
//! self-contained [`ShardStore`] per shard. Two builders make stores:
//! [`StreamSplitter`] cuts a world N ways through [`WorldView`]'s passes,
//! streamed from a v3 file or over a decoded v1/v2 world, and
//! [`ShardStore::try_from`] moves a decoded snapshot's records into the one
//! store an unsharded server serves, shard 0 of 1.
//!
//! Assignment is residue-class by SteamID: account `id` lives on shard
//! `id.index() % n`, groups on `gid % n`, apps on `app_id % n` (the catalog
//! is small and replicated to every shard, so any shard *can* answer any
//! app; the router spreads the load by residue). Residue classes — rather
//! than contiguous index ranges — keep every shard's census workable: a
//! range split would give every shard but the first an enormous prefix of
//! ids it does not own, tripping the crawler's consecutive-empty-batch stop
//! rule long before the shard's own accounts begin.
//!
//! The on-disk format follows the v2 snapshot container idiom: magic +
//! version + header, then per-section checksummed blocks, so a torn or
//! bit-rotten shard file fails loudly at load time instead of serving
//! silently wrong bytes.

use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use steam_model::codec::{
    checksum32, get_account, get_friends, get_game, get_group, get_group_ids, get_len, get_library,
    get_list, get_u32, get_vari64, get_varu64, put_account, put_friends, put_game, put_group,
    put_group_ids, put_library, put_list, put_vari64, put_varu64, write_atomic, GAME_MIN_LEN,
};
use steam_model::{
    Account, AppId, Friendship, Game, Group, GroupId, ModelError, OwnedGame, SimTime, Snapshot,
    SnapshotReader, SteamId, WorldView,
};

/// Magic prefix of a shard store file.
pub const SHARD_MAGIC: &[u8; 4] = b"CSHD";
/// Version byte following [`SHARD_MAGIC`].
pub const SHARD_VERSION: u8 = 1;

/// The shard that owns account `id` in an `n_shards`-way split.
pub fn shard_of(id: SteamId, n_shards: usize) -> usize {
    (id.index() % n_shards as u64) as usize
}

/// The shard that owns group `gid` in an `n_shards`-way split.
pub fn shard_of_group(gid: GroupId, n_shards: usize) -> usize {
    gid.0 as usize % n_shards
}

/// The shard that answers for app `app_id`. Every shard holds the full
/// catalog; this just spreads catalog traffic across the fleet.
pub fn shard_of_app(app_id: AppId, n_shards: usize) -> usize {
    app_id.0 as usize % n_shards
}

/// One shard's self-contained slice of a snapshot: the accounts it owns
/// with every cross-account reference pre-resolved, the groups it owns, and
/// a replicated catalog.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardStore {
    pub shard_index: u32,
    pub shard_count: u32,
    pub collected_at: SimTime,
    pub scanned_id_space: u64,
    /// Accounts owned by this shard, sorted by id.
    pub accounts: Vec<Account>,
    /// Per owned account: friend `(id, since)` pairs in serve order
    /// (ascending global account index).
    pub friends: Vec<Vec<(SteamId, SimTime)>>,
    /// Per owned account: owned games, snapshot order.
    pub games: Vec<Vec<OwnedGame>>,
    /// Per owned account: member group ids, in membership order.
    pub member_gids: Vec<Vec<GroupId>>,
    /// Groups owned by this shard (`gid % n == shard_index`).
    pub groups: Vec<Group>,
    /// Full catalog, replicated to every shard.
    pub catalog: Vec<Game>,
}

/// The 1-of-1 store of a decoded world: what an unsharded server serves.
/// Accounts, libraries, groups and the catalog move in; only the friend and
/// member lists are built, in the order [`StreamSplitter`] gives them, so
/// this store equals the splitter's shard 0 of 1.
///
/// A friendship or membership that names no account or group is a
/// [`ModelError::DanglingReference`]: a snapshot file can carry one, and
/// nothing short of [`Snapshot::validate`] rejects it on read.
impl TryFrom<Snapshot> for ShardStore {
    type Error = ModelError;

    fn try_from(snap: Snapshot) -> Result<Self, ModelError> {
        let Snapshot {
            collected_at,
            scanned_id_space,
            accounts,
            friendships,
            ownerships,
            groups,
            memberships,
            catalog,
        } = snap;
        let n = accounts.len();
        // Every decoder checks this; the store indexes all four by account.
        assert!(
            ownerships.len() == n && memberships.len() == n,
            "snapshot's per-account arrays differ in length"
        );
        // Every list sized before it is filled: at 30k users this builds the
        // friend lists in half the time that growing them push by push takes.
        let mut degree = vec![0; n];
        for e in &friendships {
            check_edge(e, n)?;
            degree[e.a as usize] += 1;
            degree[e.b as usize] += 1;
        }
        let mut adjacency: Vec<Vec<(u32, SimTime)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for e in &friendships {
            adjacency[e.a as usize].push((e.b, e.created_at));
            adjacency[e.b as usize].push((e.a, e.created_at));
        }
        drop(friendships);
        let ids: Vec<SteamId> = accounts.iter().map(|a| a.id).collect();
        // Each membership list is freed as soon as it is resolved: holding
        // them all to the end left the next snapshot read in the same
        // process about 2 ms slower at 30k users.
        let mut member_gids = Vec::with_capacity(n);
        for ms in memberships {
            member_gids.push(resolve_groups(&ms, &groups)?);
        }
        Ok(ShardStore {
            shard_index: 0,
            shard_count: 1,
            collected_at,
            scanned_id_space,
            friends: resolve_friends(adjacency, &ids),
            member_gids,
            accounts,
            games: ownerships,
            groups,
            catalog,
        })
    }
}

/// The 1-of-1 store of an in-process world. Handing over the only `Arc`
/// moves the records; otherwise they are cloned first.
///
/// # Panics
///
/// On a dangling friend or group reference. A world read from a file goes
/// through [`ShardStore::try_from`] instead, which returns that as an error.
impl From<Arc<Snapshot>> for ShardStore {
    fn from(snap: Arc<Snapshot>) -> Self {
        ShardStore::try_from(Arc::unwrap_or_clone(snap))
            .expect("an in-process world has no dangling reference")
    }
}

fn check_edge(e: &Friendship, n_users: usize) -> Result<(), ModelError> {
    if e.a as usize >= n_users || e.b as usize >= n_users {
        return Err(ModelError::DanglingReference(format!(
            "friendship ({}, {}) names an account past the {n_users} in the snapshot",
            e.a, e.b
        )));
    }
    Ok(())
}

/// Puts each adjacency list in serve order — a stable sort by the friend's
/// global index, so repeated friends keep edge order — and resolves each
/// friend to its SteamId in the list's own allocation.
fn resolve_friends(
    adjacency: Vec<Vec<(u32, SimTime)>>,
    ids: &[SteamId],
) -> Vec<Vec<(SteamId, SimTime)>> {
    adjacency
        .into_iter()
        .map(|mut list| {
            list.sort_by_key(|&(v, _)| v);
            list.into_iter().map(|(v, since)| (ids[v as usize], since)).collect()
        })
        .collect()
}

/// Resolves one account's group indices to group ids, in membership order.
fn resolve_groups(memberships: &[u32], groups: &[Group]) -> Result<Vec<GroupId>, ModelError> {
    memberships
        .iter()
        .map(|&g| {
            groups.get(g as usize).map(|group| group.id).ok_or_else(|| {
                ModelError::DanglingReference(format!(
                    "membership in group {g} of the {} in the snapshot",
                    groups.len()
                ))
            })
        })
        .collect()
}

/// Marks a global account index whose account another shard owns.
const NOT_OWNED: u32 = u32::MAX;

/// The one builder that cuts a world into `n_shards` stores: a v3 file
/// streamed chunk by chunk ([`new`](Self::new)), or a decoded v1/v2 world
/// ([`from_world`](Self::from_world)). It builds one [`ShardStore`] per
/// [`shard`](Self::shard) call, from one pass each over the world's
/// accounts, friendships, libraries and memberships, and clones only the
/// records that shard owns.
///
/// Resident between calls: the SteamId column, 8 bytes per user, plus the
/// groups and catalog the streamed view caches. A call adds a 4-byte slot
/// per user and the shard's own store.
///
/// Accounts are kept in global index order; each adjacency list gathers
/// both directions of its edges in edge order and is then stably sorted by
/// the friend's global index; member ids keep membership order. That is the
/// order [`ShardStore::try_from`] gives a whole snapshot, so shard 0 of 1
/// equals the 1-of-1 store, and both backings give byte-identical stores.
pub struct StreamSplitter<'a> {
    world: WorldView<'a>,
    n_shards: usize,
    /// SteamId per global account index (friend lists reference these).
    ids: Vec<SteamId>,
}

impl<'a> StreamSplitter<'a> {
    /// Splits the v3 file behind `reader`, streaming its chunks.
    pub fn new(reader: &'a SnapshotReader, n_shards: usize) -> Result<Self, ModelError> {
        Self::from_world(WorldView::stream(reader)?, n_shards)
    }

    /// Splits any world: decoded in memory, or streamed.
    pub fn from_world(world: WorldView<'a>, n_shards: usize) -> Result<Self, ModelError> {
        assert!(n_shards >= 1, "need at least one shard");
        let mut ids = Vec::with_capacity(world.n_users());
        world.for_each_account(|_, a| ids.push(a.id))?;
        Ok(StreamSplitter { world, n_shards, ids })
    }

    /// Builds shard `index`. A dangling friend or group reference is a
    /// [`ModelError::DanglingReference`], as from [`ShardStore::try_from`].
    pub fn shard(&self, index: usize) -> Result<ShardStore, ModelError> {
        assert!(index < self.n_shards);
        let w = &self.world;
        let mut slot = vec![NOT_OWNED; self.ids.len()];
        let mut accounts = Vec::new();
        w.for_each_account(|u, a| {
            if shard_of(a.id, self.n_shards) == index {
                slot[u] = accounts.len() as u32;
                accounts.push(a.clone());
            }
        })?;

        // Both edge directions in edge order, restricted to owned endpoints.
        // A pass cannot stop early, so it keeps the first dangling reference
        // and skips the rest; that fault wins over a later chunk's read error.
        let mut adjacency: Vec<Vec<(u32, SimTime)>> = vec![Vec::new(); accounts.len()];
        let mut fault = None;
        let walked = w.for_each_friendship(|e| {
            if fault.is_some() {
                return;
            }
            if let Err(err) = check_edge(e, slot.len()) {
                fault = Some(err);
                return;
            }
            for (me, friend) in [(e.a, e.b), (e.b, e.a)] {
                let s = slot[me as usize];
                if s != NOT_OWNED {
                    adjacency[s as usize].push((friend, e.created_at));
                }
            }
        });
        fault.map_or(walked, Err)?;

        // Libraries and membership lists come in account order, so the
        // owned ones line up with `accounts`.
        let mut games = Vec::with_capacity(accounts.len());
        w.for_each_library(|u, lib| {
            if slot[u] != NOT_OWNED {
                games.push(lib.to_vec());
            }
        })?;
        let mut member_gids = Vec::with_capacity(accounts.len());
        let mut fault = None;
        let walked = w.for_each_memberships(|u, ms| {
            if slot[u] != NOT_OWNED && fault.is_none() {
                match resolve_groups(ms, w.groups()) {
                    Ok(gids) => member_gids.push(gids),
                    Err(err) => fault = Some(err),
                }
            }
        });
        fault.map_or(walked, Err)?;

        Ok(ShardStore {
            shard_index: index as u32,
            shard_count: self.n_shards as u32,
            collected_at: w.collected_at(),
            scanned_id_space: w.scanned_id_space(),
            accounts,
            friends: resolve_friends(adjacency, &self.ids),
            games,
            member_gids,
            groups: w
                .groups()
                .iter()
                .filter(|g| shard_of_group(g.id, self.n_shards) == index)
                .cloned()
                .collect(),
            catalog: w.catalog().to_vec(),
        })
    }
}

// --- codec ------------------------------------------------------------------

const SECTION_ACCOUNTS: u8 = 1;
const SECTION_GROUPS: u8 = 2;
const SECTION_CATALOG: u8 = 3;

fn put_section(buf: &mut BytesMut, id: u8, payload: &BytesMut) {
    buf.put_u8(id);
    put_varu64(buf, payload.len() as u64);
    buf.put_u32_le(checksum32(payload));
    buf.put_slice(payload);
}

fn get_section(buf: &mut Bytes, want: u8) -> Result<Bytes, ModelError> {
    if !buf.has_remaining() {
        return Err(ModelError::Codec(format!("missing shard section {want}")));
    }
    let id = buf.get_u8();
    if id != want {
        return Err(ModelError::Codec(format!("expected shard section {want}, found {id}")));
    }
    // `len` comes from the file: compare it without computing `4 + len`.
    let len = get_varu64(buf)?;
    if buf.remaining().checked_sub(4).is_none_or(|left| len > left as u64) {
        return Err(ModelError::Codec(format!("truncated shard section {want}")));
    }
    let want_sum = buf.get_u32_le();
    let payload = buf.split_to(len as usize);
    if checksum32(&payload) != want_sum {
        return Err(ModelError::Codec(format!("shard section {want} checksum mismatch")));
    }
    Ok(payload)
}

fn no_trailing_bytes(buf: &Bytes, place: &str) -> Result<(), ModelError> {
    match buf.remaining() {
        0 => Ok(()),
        n => Err(ModelError::Codec(format!("{n} trailing bytes {place}"))),
    }
}

/// Serializes a shard store.
pub fn encode_shard(s: &ShardStore) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + s.accounts.len() * 48 + s.catalog.len() * 64);
    buf.put_slice(SHARD_MAGIC);
    buf.put_u8(SHARD_VERSION);
    put_varu64(&mut buf, u64::from(s.shard_index));
    put_varu64(&mut buf, u64::from(s.shard_count));
    put_vari64(&mut buf, s.collected_at.unix());
    put_varu64(&mut buf, s.scanned_id_space);

    let mut accounts = BytesMut::new();
    put_varu64(&mut accounts, s.accounts.len() as u64);
    for (u, a) in s.accounts.iter().enumerate() {
        put_account(&mut accounts, a);
        put_friends(&mut accounts, &s.friends[u]);
        put_library(&mut accounts, &s.games[u]);
        put_group_ids(&mut accounts, &s.member_gids[u]);
    }
    put_section(&mut buf, SECTION_ACCOUNTS, &accounts);

    let mut groups = BytesMut::new();
    put_list(&mut groups, &s.groups, put_group);
    put_section(&mut buf, SECTION_GROUPS, &groups);

    let mut catalog = BytesMut::new();
    put_list(&mut catalog, &s.catalog, put_game);
    put_section(&mut buf, SECTION_CATALOG, &catalog);

    buf.freeze()
}

/// Deserializes a shard store written by [`encode_shard`].
pub fn decode_shard(mut buf: Bytes) -> Result<ShardStore, ModelError> {
    if buf.remaining() < 5 || &buf.split_to(4)[..] != SHARD_MAGIC {
        return Err(ModelError::Codec("not a shard store (bad magic)".into()));
    }
    let version = buf.get_u8();
    if version != SHARD_VERSION {
        return Err(ModelError::Codec(format!("unsupported shard version {version}")));
    }
    let shard_index = get_u32(&mut buf, "shard index overflow")?;
    let shard_count = get_u32(&mut buf, "shard count overflow")?;
    if shard_count == 0 || shard_index >= shard_count {
        return Err(ModelError::Codec(format!(
            "invalid shard header {shard_index}/{shard_count}"
        )));
    }
    let collected_at = SimTime::from_unix(get_vari64(&mut buf)?);
    let scanned_id_space = get_varu64(&mut buf)?;

    let mut accounts_buf = get_section(&mut buf, SECTION_ACCOUNTS)?;
    // An account entry is a record of at least 7 bytes and three counts.
    let n = get_len(&mut accounts_buf, 10, "shard account")?;
    let mut accounts = Vec::with_capacity(n);
    let mut friends = Vec::with_capacity(n);
    let mut games = Vec::with_capacity(n);
    let mut member_gids = Vec::with_capacity(n);
    for _ in 0..n {
        accounts.push(get_account(&mut accounts_buf)?);
        friends.push(get_friends(&mut accounts_buf)?);
        games.push(get_library(&mut accounts_buf)?);
        member_gids.push(get_group_ids(&mut accounts_buf)?);
    }
    no_trailing_bytes(&accounts_buf, "in the shard accounts section")?;
    let mut groups_buf = get_section(&mut buf, SECTION_GROUPS)?;
    let groups = get_list(&mut groups_buf, 3, "group", get_group)?;
    no_trailing_bytes(&groups_buf, "in the shard groups section")?;
    let mut catalog_buf = get_section(&mut buf, SECTION_CATALOG)?;
    let catalog = get_list(&mut catalog_buf, GAME_MIN_LEN, "catalog", get_game)?;
    no_trailing_bytes(&catalog_buf, "in the shard catalog section")?;
    no_trailing_bytes(&buf, "after the shard catalog section")?;

    Ok(ShardStore {
        shard_index,
        shard_count,
        collected_at,
        scanned_id_space,
        accounts,
        friends,
        games,
        member_gids,
        groups,
        catalog,
    })
}

/// Atomically writes a shard store to `path`.
pub fn write_shard(path: &Path, s: &ShardStore) -> Result<(), ModelError> {
    write_atomic(path, &encode_shard(s))
}

/// Reads a shard store from `path`.
pub fn read_shard(path: &Path) -> Result<ShardStore, ModelError> {
    decode_shard(Bytes::from(std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ApiService, RateLimit};
    use crate::wire;
    use steam_model::codec::{read_snapshot, write_snapshot_v3};
    use steam_model::id::STEAM_ID_BASE;
    use steam_model::{AppType, GenreSet};
    use steam_net::http::Request;
    use steam_net::server::Handler;
    use steam_synth::{Generator, SynthConfig};

    fn world(n_users: usize, n_products: usize, n_groups: usize) -> Snapshot {
        let mut cfg = SynthConfig::small(77);
        cfg.n_users = n_users;
        cfg.n_products = n_products;
        cfg.n_groups = n_groups;
        Generator::new(cfg).generate()
    }

    fn tiny_snapshot() -> Snapshot {
        world(400, 120, 30)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("shard-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every store of an `n`-way split of a decoded world.
    fn split(snap: &Snapshot, n: usize) -> Vec<ShardStore> {
        let splitter = StreamSplitter::from_world(WorldView::mem(snap), n).unwrap();
        (0..n).map(|i| splitter.shard(i).unwrap()).collect()
    }

    #[test]
    fn split_covers_every_account_group_exactly_once() {
        let snap = tiny_snapshot();
        let shards = split(&snap, 4);
        assert_eq!(shards.iter().map(|s| s.accounts.len()).sum::<usize>(), snap.n_users());
        assert_eq!(
            shards.iter().map(|s| s.groups.len()).sum::<usize>(),
            snap.groups.len()
        );
        for shard in &shards {
            for a in &shard.accounts {
                assert_eq!(shard_of(a.id, 4), shard.shard_index as usize);
            }
            assert!(shard.accounts.windows(2).all(|w| w[0].id < w[1].id), "sorted by id");
            assert_eq!(shard.catalog, snap.catalog, "catalog is replicated verbatim");
            assert_eq!(shard.scanned_id_space, snap.scanned_id_space);
        }
    }

    /// The splitter over the decoded world and over the v3 file gives equal
    /// stores and bytes; split 1 way, both equal the 1-of-1 move.
    #[test]
    fn streamed_split_matches_in_memory_split_byte_for_byte() {
        let snap = tiny_snapshot();
        let dir = temp_dir("stream");
        let path = dir.join("world.snap");
        write_snapshot_v3(&path, &snap, 2).unwrap();
        let reader = SnapshotReader::open(&path).unwrap();
        for n in [1usize, 3] {
            let in_memory = split(&snap, n);
            let splitter = StreamSplitter::new(&reader, n).unwrap();
            for (i, expected) in in_memory.iter().enumerate() {
                let streamed = splitter.shard(i).unwrap();
                assert_eq!(&streamed, expected, "shard {i}/{n}");
                assert_eq!(
                    encode_shard(&streamed),
                    encode_shard(expected),
                    "shard {i}/{n} encoded bytes"
                );
            }
            if n == 1 {
                let moved = ShardStore::try_from(snap.clone()).unwrap();
                assert_eq!(moved, in_memory[0], "1-of-1 move");
                assert_eq!(encode_shard(&moved), encode_shard(&in_memory[0]), "1-of-1 move bytes");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pass budget of a split: the id column reads the accounts once, each
    /// shard reads the accounts, the edges, the libraries and the
    /// memberships once, and the streamed view reads groups and catalog
    /// once.
    #[test]
    fn a_split_reads_each_section_a_pinned_number_of_times() {
        let snap = world(5000, 120, 30);
        let dir = temp_dir("passes");
        let path = dir.join("world.snap");
        write_snapshot_v3(&path, &snap, 2).unwrap();
        for n in [1usize, 3] {
            let reader = SnapshotReader::open(&path).unwrap();
            let splitter = StreamSplitter::new(&reader, n).unwrap();
            for i in 0..n {
                splitter.shard(i).unwrap();
            }
            let reads = reader.section_reads();
            assert!(reads[0].chunks > 1, "accounts span {} chunks", reads[0].chunks);
            let passes: Vec<(&str, f64)> = reads.iter().map(|r| (r.section, r.passes())).collect();
            let n = n as f64;
            let budget = [
                ("accounts", 1.0 + n),
                ("friendships", n),
                ("ownerships", n),
                ("groups", 1.0),
                ("memberships", n),
                ("catalog", 1.0),
            ];
            assert_eq!(passes, budget, "{n} shards");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dangling_references_are_typed_errors_in_both_builders() {
        // `read_snapshot` accepts both files; only `validate` would object.
        let good = world(60, 30, 8);
        let mut bad_group = good.clone();
        bad_group.memberships[0] = vec![good.groups.len() as u32 + 5];
        let mut bad_edge = good.clone();
        let past_end = good.n_users() as u32 + 3;
        bad_edge.friendships.push(Friendship { a: 1, b: past_end, created_at: good.collected_at });
        let dir = temp_dir("dangling");
        // Each file with the account whose records hold the bad reference.
        for (tag, snap, account) in [("group", bad_group, 0), ("edge", bad_edge, 1)] {
            let path = dir.join(format!("{tag}.snap"));
            write_snapshot_v3(&path, &snap, 1).unwrap();
            let read = read_snapshot(&path).unwrap();
            let moved = ShardStore::try_from(read.clone());
            assert!(matches!(moved, Err(ModelError::DanglingReference(_))), "{tag}: {moved:?}");
            let reader = SnapshotReader::open(&path).unwrap();
            let splitters = [
                ("decoded", StreamSplitter::from_world(WorldView::mem(&read), 2).unwrap()),
                ("streamed", StreamSplitter::new(&reader, 2).unwrap()),
            ];
            for (how, splitter) in splitters {
                let shard = splitter.shard(shard_of(good.accounts[account].id, 2));
                assert!(
                    matches!(shard, Err(ModelError::DanglingReference(_))),
                    "{tag} {how}: {shard:?}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_first_dangling_reference_wins_over_a_later_unreadable_chunk() {
        // Enough users for two friendship chunks and three membership chunks.
        let good = world(12_000, 120, 30);
        let mut edge = good.clone();
        let past_end = good.n_users() as u32 + 3;
        edge.friendships.insert(0, Friendship { a: 1, b: past_end, created_at: good.collected_at });
        let mut group = good.clone();
        group.memberships[0] = vec![good.groups.len() as u32 + 5];
        let dir = temp_dir("first-fault");
        // Each file holds its fault in the section's first chunk; a byte of
        // the section's last chunk is then flipped. A twin file that differs
        // only in the section's last record locates that chunk: the two files
        // first differ inside it.
        for (tag, bad, section) in [("edge", edge, 1), ("group", group, 4)] {
            let mut twin = bad.clone();
            if tag == "edge" {
                let last = twin.friendships.last_mut().unwrap();
                last.created_at = SimTime::from_unix(last.created_at.unix() - 1);
            } else {
                twin.memberships.last_mut().unwrap().push(0);
            }
            let path = dir.join(format!("{tag}.snap"));
            let twin_path = dir.join(format!("{tag}-twin.snap"));
            write_snapshot_v3(&path, &bad, 1).unwrap();
            write_snapshot_v3(&twin_path, &twin, 1).unwrap();
            let mut raw = std::fs::read(&path).unwrap();
            let other = std::fs::read(&twin_path).unwrap();
            let at = raw.iter().zip(&other).position(|(a, b)| a != b).unwrap();
            raw[at] ^= 0x01;
            std::fs::write(&path, &raw).unwrap();

            let reader = SnapshotReader::open(&path).unwrap();
            assert!(reader.section_reads()[section].chunks > 1, "{tag}");
            let view = WorldView::stream(&reader).unwrap();
            let walked = if tag == "edge" {
                view.for_each_friendship(|_| {})
            } else {
                view.for_each_memberships(|_, _| {})
            };
            assert!(matches!(walked, Err(ModelError::Codec(_))), "{tag}: {walked:?}");
            let shard = StreamSplitter::new(&reader, 1).unwrap().shard(0);
            assert!(matches!(shard, Err(ModelError::DanglingReference(_))), "{tag}: {shard:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_store_roundtrips_through_the_codec() {
        let snap = tiny_snapshot();
        for store in split(&snap, 3) {
            let decoded = decode_shard(encode_shard(&store)).unwrap();
            assert_eq!(decoded, store);
        }
    }

    #[test]
    fn shortest_catalog_entries_round_trip() {
        // Nine one-byte fields: the shortest game the codec writes.
        let game = Game {
            app_id: AppId(0),
            name: String::new(),
            app_type: AppType::Game,
            genres: GenreSet::EMPTY,
            price_cents: 0,
            multiplayer: false,
            release_date: SimTime::from_unix(0),
            metacritic: None,
            achievements: Vec::new(),
        };
        let mut store = ShardStore::try_from(world(30, 20, 5)).unwrap();
        store.catalog = vec![game; 3];
        assert_eq!(decode_shard(encode_shard(&store)).unwrap(), store);
    }

    #[test]
    fn corrupt_shard_bytes_fail_loudly() {
        let snap = world(30, 20, 5);
        let store = &split(&snap, 2)[0];
        let bytes = encode_shard(store);
        // Flip one byte mid-payload: a section checksum must catch it.
        let mut corrupt = bytes.to_vec();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        assert!(decode_shard(Bytes::from(corrupt)).is_err());
        // No flipped byte anywhere may panic (a header flip can still decode).
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0xff;
            let _ = decode_shard(Bytes::from(flipped));
        }
        // Every truncation fails.
        for len in 0..bytes.len() {
            assert!(decode_shard(bytes.slice(0..len)).is_err(), "truncated at {len}");
        }
    }

    // Crafted shard files. The checksum is not keyed, so anyone can write a
    // file whose sections check out whatever they hold.
    fn crafted_header() -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_slice(SHARD_MAGIC);
        buf.put_u8(SHARD_VERSION);
        put_varu64(&mut buf, 0); // shard index
        put_varu64(&mut buf, 1); // shard count
        put_vari64(&mut buf, 0); // collected at
        put_varu64(&mut buf, 0); // scanned id space
        buf
    }

    fn crafted_file(sections: [&BytesMut; 3]) -> Bytes {
        let mut buf = crafted_header();
        let ids = [SECTION_ACCOUNTS, SECTION_GROUPS, SECTION_CATALOG];
        for (id, payload) in ids.into_iter().zip(sections) {
            put_section(&mut buf, id, payload);
        }
        buf.freeze()
    }

    fn varints(values: &[u64]) -> BytesMut {
        let mut buf = BytesMut::new();
        for &v in values {
            put_varu64(&mut buf, v);
        }
        buf
    }

    #[test]
    fn crafted_lengths_with_valid_checksums_fail_without_allocating() {
        let snap = world(30, 20, 5);
        // One account followed by its friend, game and member counts.
        let account = |counts: &[u64]| {
            let mut buf = varints(&[1]);
            put_account(&mut buf, &snap.accounts[0]);
            buf.put_slice(&varints(counts));
            buf
        };
        let none = varints(&[0]);
        assert!(decode_shard(crafted_file([&account(&[0, 0, 0]), &none, &none])).is_ok());

        let huge = 1u64 << 40;
        let cases = [
            ("accounts", crafted_file([&varints(&[1 << 58]), &none, &none])),
            ("friends", crafted_file([&account(&[huge]), &none, &none])),
            ("games", crafted_file([&account(&[0, huge]), &none, &none])),
            ("members", crafted_file([&account(&[0, 0, huge]), &none, &none])),
            ("groups", crafted_file([&none, &varints(&[huge]), &none])),
            ("catalog", crafted_file([&none, &none, &varints(&[huge])])),
        ];
        for (what, bytes) in cases {
            assert!(decode_shard(bytes).is_err(), "{what} count");
        }

        // A section length of u64::MAX must not overflow the bounds check.
        let mut buf = crafted_header();
        buf.put_u8(SECTION_ACCOUNTS);
        put_varu64(&mut buf, u64::MAX);
        buf.put_u32_le(0);
        assert!(decode_shard(buf.freeze()).is_err());
    }

    #[test]
    fn trailing_bytes_in_a_section_or_after_the_file_fail() {
        let none = varints(&[0]);
        // An empty record list, then one byte no record claims.
        let extra = varints(&[0, 0]);
        for (section, bytes) in [
            ("accounts", crafted_file([&extra, &none, &none])),
            ("groups", crafted_file([&none, &extra, &none])),
            ("catalog", crafted_file([&none, &none, &extra])),
        ] {
            let err = decode_shard(bytes).expect_err(section).to_string();
            assert!(
                err.contains(&format!("1 trailing bytes in the shard {section}")),
                "{err}"
            );
        }

        let dir = temp_dir("trailing");
        let path = dir.join("shard.bin");
        write_shard(&path, &split(&world(30, 20, 5), 2)[0]).unwrap();
        assert!(read_shard(&path).is_ok());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"garbage");
        std::fs::write(&path, bytes).unwrap();
        let err = read_shard(&path).expect_err("7 bytes appended").to_string();
        assert!(
            err.contains("7 trailing bytes after the shard catalog section"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crafted_ids_decode_up_to_u64_max_and_fail_past_it() {
        let snap = world(30, 20, 5);
        // One account and its one friend, each written as a raw index.
        let accounts = |account: u64, friend: u64| {
            let mut record = BytesMut::new();
            // Index 0 is a one-byte varint, so the rest of the record is `[1..]`.
            put_account(&mut record, &Account { id: SteamId::from_index(0), ..snap.accounts[0] });
            let mut buf = varints(&[1, account]);
            buf.put_slice(&record[1..]);
            buf.put_slice(&varints(&[1, friend]));
            put_vari64(&mut buf, 0);
            buf.put_slice(&varints(&[0, 0])); // games, memberships
            buf
        };
        let none = varints(&[0]);
        let last = u64::MAX - STEAM_ID_BASE;
        let store = decode_shard(crafted_file([&accounts(last, last), &none, &none])).unwrap();
        assert_eq!(store.accounts[0].id.as_u64(), u64::MAX);
        assert_eq!(store.friends[0][0].0.as_u64(), u64::MAX);
        for (account, friend) in [(last + 1, 0), (0, last + 1), (u64::MAX, 0), (0, u64::MAX)] {
            let decoded = decode_shard(crafted_file([&accounts(account, friend), &none, &none]));
            assert!(
                matches!(decoded, Err(ModelError::InvalidSteamId(_))),
                "account {account}, friend {friend}"
            );
        }
    }

    /// The served bytes, rebuilt from the snapshot with the wire writers
    /// alone: friend lists in ascending friend index, group lists in
    /// membership order, summaries in first-occurrence order. The service
    /// over the 1-of-1 store and over each of 4 split shards must serve
    /// exactly these for every account, group and app.
    #[test]
    fn every_store_serves_the_bytes_rebuilt_from_the_snapshot() {
        let snap = tiny_snapshot();
        let friends_of = |u: u32| -> Vec<(SteamId, SimTime)> {
            let mut list: Vec<(u32, SimTime)> = snap
                .friendships
                .iter()
                .filter_map(|e| match (e.a == u, e.b == u) {
                    (true, _) => Some((e.b, e.created_at)),
                    (_, true) => Some((e.a, e.created_at)),
                    _ => None,
                })
                .collect();
            list.sort_by_key(|&(v, _)| v);
            list.into_iter().map(|(v, since)| (snap.accounts[v as usize].id, since)).collect()
        };
        let bogus = SteamId::from_index(snap.scanned_id_space + 7);
        let stores = [vec![ShardStore::try_from(snap.clone()).unwrap()], split(&snap, 4)];
        for stores in stores {
            let n = stores.len();
            // Thousands of requests on one key: the limiter is not under test.
            let unlimited = RateLimit { per_key_rps: 1e12, burst: 1e12 };
            let services: Vec<ApiService> =
                stores.into_iter().map(|s| ApiService::new(s, unlimited)).collect();
            let check = |shard: usize, target: &str, expected: String| {
                let resp = services[shard].handle(Request::get(target));
                assert_eq!(resp.status, 200, "{target} on shard {shard}/{n}");
                assert_eq!(resp.body_text(), expected, "{target} on shard {shard}/{n}");
            };
            for (u, acct) in snap.accounts.iter().enumerate() {
                let owner = shard_of(acct.id, n);
                let id = acct.id;
                check(
                    owner,
                    &format!("/ISteamUser/GetPlayerSummaries/v2?steamids={id}"),
                    wire::player_summaries_response(&[acct]),
                );
                check(
                    owner,
                    &format!("/ISteamUser/GetFriendList/v1?steamid={id}"),
                    wire::friend_list_response(&friends_of(u as u32)),
                );
                check(
                    owner,
                    &format!("/IPlayerService/GetOwnedGames/v1?steamid={id}"),
                    wire::owned_games_response(&snap.ownerships[u]),
                );
                let gids: Vec<GroupId> =
                    snap.memberships[u].iter().map(|&g| snap.groups[g as usize].id).collect();
                check(
                    owner,
                    &format!("/ISteamUser/GetUserGroupList/v1?steamid={id}"),
                    wire::group_list_response(&gids),
                );
            }
            // Batches in reverse id order with a repeat and a miss: each
            // store answers its own accounts, first occurrence first.
            for chunk in snap.accounts.rchunks(10) {
                let mut batch: Vec<SteamId> = chunk.iter().rev().map(|a| a.id).collect();
                batch.extend([chunk[chunk.len() / 2].id, bogus]);
                let list: Vec<String> = batch.iter().map(|id| id.to_string()).collect();
                let target =
                    format!("/ISteamUser/GetPlayerSummaries/v2?steamids={}", list.join(","));
                for shard in 0..n {
                    let owned: Vec<&Account> =
                        chunk.iter().rev().filter(|a| shard_of(a.id, n) == shard).collect();
                    check(shard, &target, wire::player_summaries_response(&owned));
                }
            }
            for g in &snap.groups {
                let target = format!("/community/group/{}", g.id.0);
                check(shard_of_group(g.id, n), &target, wire::group_page_response(g));
            }
            for game in &snap.catalog {
                let shard = shard_of_app(game.app_id, n);
                let app = game.app_id.0;
                check(
                    shard,
                    &format!("/api/appdetails?appids={app}"),
                    wire::app_details_response(game),
                );
                check(
                    shard,
                    &format!(
                        "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2?gameid={app}"
                    ),
                    wire::achievement_percentages_response(&game.achievements),
                );
            }
            // Any shard serves the full app list.
            for shard in 0..n {
                check(shard, "/ISteamApps/GetAppList/v2", wire::app_list_response(&snap.catalog));
            }
        }
    }
}
