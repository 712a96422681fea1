//! Shard stores: what the API service serves, cut from a snapshot one or
//! N ways.
//!
//! A [`Snapshot`] cannot be served piece by piece as it stands: its
//! friendship edges are *account-index* pairs, and an edge endpoint usually
//! lives on another shard. The split therefore resolves every cross-account
//! reference while the whole snapshot is still in one piece — each
//! account's friend list becomes `(SteamId, since)` pairs in serve order —
//! and yields one self-contained [`ShardStore`] per shard. An unsharded
//! server serves shard 0 of 1.
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

use std::collections::HashMap;
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
    SteamId,
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

/// The 1-of-1 split of an in-process world: what an unsharded server
/// serves. Handing over the only `Arc` moves the records; otherwise they
/// are cloned first.
///
/// # Panics
///
/// On a dangling friend or group reference. A world read from a file goes
/// through [`split_snapshot`] instead, which returns that as an error.
impl From<Arc<Snapshot>> for ShardStore {
    fn from(snap: Arc<Snapshot>) -> Self {
        split_snapshot(Arc::unwrap_or_clone(snap), 1)
            .expect("an in-process world has no dangling reference")
            .pop()
            .expect("a 1-way split yields one store")
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
fn resolve_groups(memberships: Vec<u32>, groups: &[Group]) -> Result<Vec<GroupId>, ModelError> {
    memberships
        .into_iter()
        .map(|g| {
            groups.get(g as usize).map(|group| group.id).ok_or_else(|| {
                ModelError::DanglingReference(format!(
                    "membership in group {g} of the {} in the snapshot",
                    groups.len()
                ))
            })
        })
        .collect()
}

/// Cuts a snapshot into `n_shards` self-contained stores. Each account's
/// records move into the store that owns it; only the catalog is copied,
/// once per extra shard. Every account, group, and catalog byte the service
/// emits is reachable from exactly the shard the router would ask.
///
/// A friendship or membership that names no account or group is a
/// [`ModelError::DanglingReference`]: a snapshot file can carry one, and
/// nothing short of [`Snapshot::validate`] rejects it on read.
pub fn split_snapshot(snap: Snapshot, n_shards: usize) -> Result<Vec<ShardStore>, ModelError> {
    assert!(n_shards >= 1, "need at least one shard");
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
    // Every decoder checks this; the zip below would silently drop accounts.
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
    let friends = resolve_friends(adjacency, &ids);
    // Exact capacities here too; growing the store vectors by doubling left
    // the allocator slower for the next snapshot read in the same process.
    let mut owned = vec![0; n_shards];
    for id in &ids {
        owned[shard_of(*id, n_shards)] += 1;
    }
    let mut shards: Vec<ShardStore> = (0..n_shards)
        .map(|i| ShardStore {
            shard_index: i as u32,
            shard_count: n_shards as u32,
            collected_at,
            scanned_id_space,
            accounts: Vec::with_capacity(owned[i]),
            friends: Vec::with_capacity(owned[i]),
            games: Vec::with_capacity(owned[i]),
            member_gids: Vec::with_capacity(owned[i]),
            groups: Vec::new(),
            catalog: Vec::new(),
        })
        .collect();
    let records = accounts.into_iter().zip(friends).zip(ownerships).zip(memberships);
    for (((account, friends), games), memberships) in records {
        let member_gids = resolve_groups(memberships, &groups)?;
        let shard = &mut shards[shard_of(account.id, n_shards)];
        shard.accounts.push(account);
        shard.friends.push(friends);
        shard.games.push(games);
        shard.member_gids.push(member_gids);
    }
    for g in groups {
        shards[shard_of_group(g.id, n_shards)].groups.push(g);
    }
    for shard in &mut shards[1..] {
        shard.catalog = catalog.clone();
    }
    shards[0].catalog = catalog;
    Ok(shards)
}

/// Streaming shard-split over a chunked (v3) snapshot file: builds one
/// [`ShardStore`] at a time from a [`SnapshotReader`] without ever decoding
/// the full snapshot. Resident state between shards is only the SteamId
/// column (8 bytes/user) plus the small replicated sections (groups,
/// catalog); each `shard()` call streams the account, friendship, library
/// and membership chunks once and keeps just the records the shard owns.
///
/// Every store is byte-identical (through [`encode_shard`]) to the
/// corresponding element of [`split_snapshot`]: accounts are visited in
/// global index order, adjacency is accumulated in edge order and stably
/// sorted by the friend's global index — the same order the in-memory split
/// produces.
pub struct StreamSplitter<'a> {
    reader: &'a steam_model::SnapshotReader,
    n_shards: usize,
    /// SteamId per global account index (friend lists reference these).
    ids: Vec<SteamId>,
    groups: Vec<Group>,
    catalog: Vec<Game>,
}

impl<'a> StreamSplitter<'a> {
    pub fn new(
        reader: &'a steam_model::SnapshotReader,
        n_shards: usize,
    ) -> Result<Self, ModelError> {
        assert!(n_shards >= 1, "need at least one shard");
        let mut ids = Vec::with_capacity(reader.n_users());
        for k in 0..reader.n_account_chunks() {
            for a in reader.account_chunk(k)? {
                ids.push(a.id);
            }
        }
        Ok(StreamSplitter {
            reader,
            n_shards,
            ids,
            groups: reader.groups()?,
            catalog: reader.catalog()?,
        })
    }

    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Builds shard `index` with four chunk passes (accounts, friendships,
    /// libraries, memberships). A dangling friend or group reference is a
    /// [`ModelError::DanglingReference`], as in [`split_snapshot`].
    pub fn shard(&self, index: usize) -> Result<ShardStore, ModelError> {
        assert!(index < self.n_shards);
        let r = self.reader;
        let mut accounts = Vec::new();
        // Slot of each owned account, keyed by global index.
        let mut slot_of: HashMap<u32, u32> = HashMap::new();
        for k in 0..r.n_account_chunks() {
            let base = r.account_chunk_start(k);
            for (i, a) in r.account_chunk(k)?.into_iter().enumerate() {
                if shard_of(a.id, self.n_shards) == index {
                    slot_of.insert((base + i) as u32, accounts.len() as u32);
                    accounts.push(a);
                }
            }
        }

        // Both edge directions in edge order, restricted to owned
        // endpoints; `resolve_friends` then sorts exactly as
        // `split_snapshot` does.
        let mut adjacency: Vec<Vec<(u32, SimTime)>> = vec![Vec::new(); accounts.len()];
        for k in 0..r.n_friendship_chunks() {
            for e in r.friendship_chunk(k)? {
                check_edge(&e, self.ids.len())?;
                if let Some(&s) = slot_of.get(&e.a) {
                    adjacency[s as usize].push((e.b, e.created_at));
                }
                if let Some(&s) = slot_of.get(&e.b) {
                    adjacency[s as usize].push((e.a, e.created_at));
                }
            }
        }
        let friends = resolve_friends(adjacency, &self.ids);

        let mut games: Vec<Vec<OwnedGame>> = vec![Vec::new(); accounts.len()];
        for k in 0..r.n_library_chunks() {
            let base = r.library_chunk_start(k);
            for (i, lib) in r.library_chunk(k)?.into_iter().enumerate() {
                if let Some(&s) = slot_of.get(&((base + i) as u32)) {
                    games[s as usize] = lib;
                }
            }
        }

        let mut member_gids: Vec<Vec<GroupId>> = vec![Vec::new(); accounts.len()];
        for k in 0..r.n_membership_chunks() {
            let base = r.membership_chunk_start(k);
            for (i, ms) in r.membership_chunk(k)?.into_iter().enumerate() {
                if let Some(&s) = slot_of.get(&((base + i) as u32)) {
                    member_gids[s as usize] = resolve_groups(ms, &self.groups)?;
                }
            }
        }

        Ok(ShardStore {
            shard_index: index as u32,
            shard_count: self.n_shards as u32,
            collected_at: r.collected_at(),
            scanned_id_space: r.scanned_id_space(),
            accounts,
            friends,
            games,
            member_gids,
            groups: self
                .groups
                .iter()
                .filter(|g| shard_of_group(g.id, self.n_shards) == index)
                .cloned()
                .collect(),
            catalog: self.catalog.clone(),
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
    use steam_model::{AppType, GenreSet, SnapshotReader};
    use steam_net::http::Request;
    use steam_net::json::Json;
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

    #[test]
    fn split_covers_every_account_group_exactly_once() {
        let snap = tiny_snapshot();
        let shards = split_snapshot(snap.clone(), 4).unwrap();
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

    #[test]
    fn streamed_split_matches_in_memory_split_byte_for_byte() {
        let snap = tiny_snapshot();
        let dir = temp_dir("stream");
        let path = dir.join("world.snap");
        write_snapshot_v3(&path, &snap, 2).unwrap();
        let reader = SnapshotReader::open(&path).unwrap();
        for n in [1usize, 3] {
            let in_memory = split_snapshot(snap.clone(), n).unwrap();
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
            let split = split_snapshot(read, 2);
            assert!(matches!(split, Err(ModelError::DanglingReference(_))), "{tag}: {split:?}");
            let reader = SnapshotReader::open(&path).unwrap();
            let splitter = StreamSplitter::new(&reader, 2).unwrap();
            let shard = splitter.shard(shard_of(good.accounts[account].id, 2));
            assert!(matches!(shard, Err(ModelError::DanglingReference(_))), "{tag}: {shard:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_store_roundtrips_through_the_codec() {
        let snap = tiny_snapshot();
        for store in split_snapshot(snap, 3).unwrap() {
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
        let mut store = split_snapshot(world(30, 20, 5), 1).unwrap().remove(0);
        store.catalog = vec![game; 3];
        assert_eq!(decode_shard(encode_shard(&store)).unwrap(), store);
    }

    #[test]
    fn corrupt_shard_bytes_fail_loudly() {
        let snap = world(30, 20, 5);
        let store = &split_snapshot(snap, 2).unwrap()[0];
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
        write_shard(&path, &split_snapshot(world(30, 20, 5), 2).unwrap()[0]).unwrap();
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

    /// The served bytes, rebuilt from the snapshot with the wire builders
    /// alone: friend lists in ascending friend index, group lists in
    /// membership order, summaries in first-occurrence order. The service
    /// over the 1-of-1 store and over each of 4 shards must serve exactly
    /// these for every account, group and app.
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
        for n in [1, 4] {
            // Thousands of requests on one key: the limiter is not under test.
            let unlimited = RateLimit { per_key_rps: 1e12, burst: 1e12 };
            let services: Vec<ApiService> = split_snapshot(snap.clone(), n)
                .unwrap()
                .into_iter()
                .map(|s| ApiService::new(s, unlimited))
                .collect();
            let check = |shard: usize, target: &str, expected: Json| {
                let resp = services[shard].handle(Request::get(target));
                assert_eq!(resp.status, 200, "{target} on shard {shard}/{n}");
                assert_eq!(
                    resp.body_text(),
                    expected.to_text(),
                    "{target} on shard {shard}/{n}"
                );
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
