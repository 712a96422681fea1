//! Compact binary codec for snapshots.
//!
//! The paper's dataset is hundreds of millions of records; persisting and
//! reloading snapshots must not dominate experiment time. This module defines
//! a simple length-prefixed, varint-based format (no self-description, no
//! compression) with a magic header and version byte.
//!
//! **One record codec.** Each record kind has one encoder and one decoder,
//! and every format calls them: [`put_account`], [`put_game`],
//! [`put_group`], [`put_friendship`], and the per-account lists
//! [`put_library`] (owned games), [`put_group_indices`] (memberships),
//! [`put_friends`] (`(SteamId, since)` pairs) and [`put_group_ids`], each
//! with its `get_` twin. The three snapshot containers, `steam-api`'s CSHD
//! shard files and its checkpoint journal differ only in how they frame
//! and count these records.
//!
//! Snapshot and shard files are written through [`write_atomic`] (sibling
//! temp file + fsync + rename, so a crash can never leave a half-written
//! file under the target name), and [`checksum32`] (FNV-1a) guards v2
//! sections, v3 chunks and shard files. The crawler's checkpoint journal is
//! an append-only file whose framing `steam-api`'s `checkpoint` module owns.
//!
//! The program writes only version 3. Versions 1 and 2 are read-only: older
//! files stay readable through [`decode_snapshot`], which dispatches on the
//! version byte, and golden files under `tests/fixtures/` pin their layout.
//! All three hold the same six sections, and one section-records decoder
//! serves them all: v1 calls it with its own counts and section order, v2
//! with each section's leading count, v3 with the count in its directory.
//!
//! Layout of version 1 (read-only; all integers varint-encoded unless noted):
//!
//! ```text
//! "CSTM" u8(1)
//! collected_at:i64(zigzag) scanned_id_space
//! n_accounts  { id_index, created_at, vis, country(+1 or 0), city(+1 or 0),
//!               level, facebook }
//! n_edges     { a, b, created_at }
//! n_catalog   { app_id, name, type, genre_bits, price, mp, release,
//!               metacritic(+1 or 0), n_ach { name, pct(f32 le) } }
//! per-account library { n { app_id, forever, 2weeks } }
//! n_groups    { id, kind, name }
//! per-account memberships { n { group_index } }
//! ```
//!
//! Version 2 (read-only) is the *sectioned* container: the same records,
//! grouped into six independent, checksummed blocks so a damaged section is
//! pinpointed instead of scrambling the whole decode:
//!
//! ```text
//! "CSTM" u8(2)
//! collected_at:i64(zigzag) scanned_id_space
//! 6 × block:  u8(section_id) payload_len u32le(fnv1a(payload)) payload
//! trailer:    6  6 × { u8(section_id) block_offset payload_len u32le(sum) }
//!             u32le(fnv1a(header))
//! u64le(trailer_offset)                                   -- final 8 bytes
//! ```
//!
//! Section ids, in file order: 0 accounts, 1 friendships, 2 ownerships,
//! 3 groups, 4 memberships, 5 catalog. Every section payload carries its
//! own leading count, so each decodes independently of the others. The
//! trailer mirrors the block headers; [`decode_snapshot`] cross-checks the
//! two, which makes truncation at *any* byte detectable.
//!
//! Version 3 is the *chunked columnar* container for out-of-core work: the
//! same records and section ids, but each section is split into
//! fixed-record-count chunks, every chunk independently framed and
//! checksummed, with a seekable chunk directory in the trailer:
//!
//! ```text
//! "CSTM" u8(3)
//! collected_at:i64(zigzag) scanned_id_space
//! chunks, sections in id order, chunks in record order:
//!     u8(section_id) n_records payload_len u32le(fnv1a(payload)) payload
//! trailer:    6  6 × { u8(section_id) chunk_cap total_records n_chunks
//!                      n_chunks × { offset payload_len n_records u32le(sum) } }
//!             u32le(fnv1a(header))            -- checksum of bytes before the first chunk
//!             u32le(fnv1a(trailer))           -- checksum of the trailer itself
//! u64le(trailer_offset)                       -- final 8 bytes
//! ```
//!
//! Chunk payloads carry records back-to-back with *no* leading count — counts
//! live in the frame header and the directory, which the decoder cross-checks
//! so corruption is pinned to a section *and* chunk. Every chunk except a
//! section's last holds exactly `chunk_cap` records, so record `i` lives in
//! chunk `i / cap` without scanning. [`encode_snapshot_v3`] and
//! [`write_snapshot_v3`] run one chunk loop, into memory or into a file. A
//! [`SnapshotReader`] opens v3 files for positional reads and serves
//! individual chunks without materializing the world; [`decode_snapshot`] of
//! v3 bytes is the same reader over the bytes, decoding every chunk.

use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::account::{Account, Visibility};
use crate::country::CountryCode;
use crate::error::ModelError;
use crate::game::{Achievement, AppId, AppType, Game, GenreSet};
use crate::group::{Group, GroupId, GroupKind};
use crate::id::{SteamId, STEAM_ID_BASE};
use crate::ownership::OwnedGame;
use crate::reader::SnapshotReader;
use crate::snapshot::{Friendship, Snapshot, WeekPanel};
use crate::time::SimTime;

const MAGIC: &[u8; 4] = b"CSTM";
const VERSION: u8 = 1;
/// Version byte of the sectioned (parallel) snapshot container.
pub const VERSION_SECTIONED: u8 = 2;

/// Section ids of the v2/v3 containers, in file order.
pub(crate) const SECTION_IDS: [u8; 6] = [0, 1, 2, 3, 4, 5];
pub(crate) const SECTION_ACCOUNTS: u8 = 0;
pub(crate) const SECTION_FRIENDSHIPS: u8 = 1;
pub(crate) const SECTION_OWNERSHIPS: u8 = 2;
pub(crate) const SECTION_GROUPS: u8 = 3;
pub(crate) const SECTION_MEMBERSHIPS: u8 = 4;
pub(crate) const SECTION_CATALOG: u8 = 5;

pub(crate) fn section_name(id: u8) -> &'static str {
    match id {
        SECTION_ACCOUNTS => "accounts",
        SECTION_FRIENDSHIPS => "friendships",
        SECTION_OWNERSHIPS => "ownerships",
        SECTION_GROUPS => "groups",
        SECTION_MEMBERSHIPS => "memberships",
        SECTION_CATALOG => "catalog",
        _ => "unknown",
    }
}

pub(crate) fn err(msg: impl Into<String>) -> ModelError {
    ModelError::Codec(msg.into())
}

// --- varint primitives ----------------------------------------------------
//
// Public: the crawler's checkpoint journal encodes its records with the same
// primitives the snapshot format uses, so both stay in one place.

/// Appends a LEB128-style varint.
pub fn put_varu64(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Reads a varint written by [`put_varu64`].
///
/// Scans [`Buf::chunk`] directly and advances once per value, so decoding a
/// `&[u8]` is a plain slice walk, not a cursor round trip per byte. A value
/// that straddles chunks of a segmented buffer continues in the next chunk.
#[inline]
pub fn get_varu64<B: Buf>(buf: &mut B) -> Result<u64, ModelError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let chunk = buf.chunk();
        if chunk.is_empty() {
            return Err(cold_err("truncated varint"));
        }
        // A u64 takes at most 10 bytes; `shift` counts the 7-bit groups read.
        let room = chunk.len().min(((70 - shift) / 7) as usize);
        for (i, &b) in chunk[..room].iter().enumerate() {
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                if shift == 63 && b > 1 {
                    return Err(cold_err("varint overflow"));
                }
                buf.advance(i + 1);
                return Ok(v);
            }
            shift += 7;
        }
        if shift >= 70 {
            return Err(cold_err("varint overflow"));
        }
        buf.advance(room);
    }
}

/// [`err`] kept out of the decoders' hot loops.
#[cold]
#[inline(never)]
fn cold_err(msg: &'static str) -> ModelError {
    err(msg)
}

/// Reads a varint that must fit in a `u32`; `what` is the error when it
/// does not.
#[inline]
pub fn get_u32<B: Buf>(buf: &mut B, what: &'static str) -> Result<u32, ModelError> {
    u32::try_from(get_varu64(buf)?).map_err(|_| cold_err(what))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a zigzag-encoded signed varint.
pub fn put_vari64(buf: &mut BytesMut, v: i64) {
    put_varu64(buf, zigzag(v));
}

/// Reads a signed varint written by [`put_vari64`].
pub fn get_vari64<B: Buf>(buf: &mut B) -> Result<i64, ModelError> {
    Ok(unzigzag(get_varu64(buf)?))
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    put_varu64(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Reads a string written by [`put_str`].
pub fn get_str<B: Buf>(buf: &mut B) -> Result<String, ModelError> {
    let len = get_varu64(buf)? as usize;
    if buf.remaining() < len {
        return Err(err("truncated string"));
    }
    // Not `vec![0; len]`: that allocates through calloc, which glibc serves
    // outside its per-thread cache, and a shard's thousands of small names
    // then fragment the heap (2 MB more peak RSS when serving shards).
    let mut raw = Vec::with_capacity(len);
    while raw.len() < len {
        let chunk = buf.chunk();
        let n = chunk.len().min(len - raw.len());
        raw.extend_from_slice(&chunk[..n]);
        buf.advance(n);
    }
    String::from_utf8(raw).map_err(|_| err("invalid utf-8 in string"))
}

/// Reads an item count, rejecting one that cannot fit in the bytes left
/// when every item takes at least `per_item_min` bytes. Read counts with
/// this before allocating for them: a corrupt or crafted count then fails
/// as a typed error instead of a huge allocation.
pub fn get_len<B: Buf>(buf: &mut B, per_item_min: usize, what: &str) -> Result<usize, ModelError> {
    let n = get_varu64(buf)? as usize;
    check_len(buf.remaining(), n, per_item_min, what)?;
    Ok(n)
}

/// Rejects `n` items of at least `per_item_min` bytes each in `left` bytes.
fn check_len(left: usize, n: usize, per_item_min: usize, what: &str) -> Result<(), ModelError> {
    if per_item_min > 0 && n > left / per_item_min {
        return Err(err(format!("implausible {what} count {n}")));
    }
    Ok(())
}

/// Reads one raw byte; `what` names the record in the truncation error.
fn get_byte<B: Buf>(buf: &mut B, what: &str) -> Result<u8, ModelError> {
    let b = *buf.chunk().first().ok_or_else(|| err(format!("truncated {what}")))?;
    buf.advance(1);
    Ok(b)
}

/// Appends a count, then each item with `put`.
pub fn put_list<T>(buf: &mut BytesMut, items: &[T], mut put: impl FnMut(&mut BytesMut, &T)) {
    put_varu64(buf, items.len() as u64);
    for item in items {
        put(buf, item);
    }
}

/// Reads a list written by [`put_list`], each item with `get`. The count
/// goes through [`get_len`]: every item takes at least `per_item_min` bytes.
#[inline]
pub fn get_list<B: Buf, T>(
    buf: &mut B,
    per_item_min: usize,
    what: &str,
    get: impl FnMut(&mut B) -> Result<T, ModelError>,
) -> Result<Vec<T>, ModelError> {
    let n = get_len(buf, per_item_min, what)?;
    get_n(buf, n, get)
}

/// Reads `n` items with `get`, allocating for them once.
#[inline]
fn get_n<B: Buf, T>(
    buf: &mut B,
    n: usize,
    mut get: impl FnMut(&mut B) -> Result<T, ModelError>,
) -> Result<Vec<T>, ModelError> {
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(get(buf)?);
    }
    Ok(items)
}

// --- record codecs ----------------------------------------------------------
//
// One encoder and one decoder per record kind; every container calls these.

/// Appends one account record.
pub fn put_account(buf: &mut BytesMut, a: &Account) {
    put_varu64(buf, a.id.index());
    put_vari64(buf, a.created_at.unix());
    buf.put_u8(a.visibility.tag());
    match a.country {
        None => put_varu64(buf, 0),
        Some(c) => put_varu64(buf, c.dense_index() as u64 + 1),
    }
    match a.city {
        None => put_varu64(buf, 0),
        Some(c) => put_varu64(buf, u64::from(c) + 1),
    }
    put_varu64(buf, u64::from(a.level));
    buf.put_u8(u8::from(a.facebook_linked));
}

/// Reads a Steam id written as its account index (`put_varu64(id.index())`).
/// An index whose id would pass `u64::MAX` is
/// [`ModelError::InvalidSteamId`], carrying the wrapped value below the base.
pub fn get_steam_id<B: Buf>(buf: &mut B) -> Result<SteamId, ModelError> {
    let index = get_varu64(buf)?;
    let raw = STEAM_ID_BASE
        .checked_add(index)
        .ok_or(ModelError::InvalidSteamId(STEAM_ID_BASE.wrapping_add(index)))?;
    SteamId::from_u64(raw)
}

/// Reads an account written by [`put_account`].
pub fn get_account<B: Buf>(buf: &mut B) -> Result<Account, ModelError> {
    let id = get_steam_id(buf)?;
    let created_at = SimTime::from_unix(get_vari64(buf)?);
    let visibility =
        Visibility::from_tag(get_byte(buf, "account")?).ok_or_else(|| err("bad visibility tag"))?;
    let country = match get_varu64(buf)? {
        0 => None,
        c => Some(
            CountryCode::from_dense_index(c as usize - 1)
                .ok_or_else(|| err("bad country index"))?,
        ),
    };
    let city = match get_varu64(buf)? {
        0 => None,
        c => Some(
            u16::try_from(c - 1).map_err(|_| err("city index out of range"))?,
        ),
    };
    let level = u16::try_from(get_varu64(buf)?).map_err(|_| err("level out of range"))?;
    let facebook_linked = get_byte(buf, "account")? != 0;
    Ok(Account { id, created_at, visibility, country, city, level, facebook_linked })
}

/// Appends one catalog entry.
pub fn put_game(buf: &mut BytesMut, g: &Game) {
    put_varu64(buf, u64::from(g.app_id.0));
    put_str(buf, &g.name);
    buf.put_u8(g.app_type.tag());
    put_varu64(buf, u64::from(g.genres.bits()));
    put_varu64(buf, u64::from(g.price_cents));
    buf.put_u8(u8::from(g.multiplayer));
    put_vari64(buf, g.release_date.unix());
    match g.metacritic {
        None => buf.put_u8(0),
        Some(m) => {
            buf.put_u8(1);
            buf.put_u8(m);
        }
    }
    put_varu64(buf, g.achievements.len() as u64);
    for a in &g.achievements {
        put_str(buf, &a.name);
        buf.put_f32_le(a.global_completion_pct);
    }
}

/// Fewest bytes a [`put_game`] entry takes: nine one-byte fields (an empty
/// name, no metacritic score, no achievements).
pub const GAME_MIN_LEN: usize = 9;

/// Reads a catalog entry written by [`put_game`].
pub fn get_game<B: Buf>(buf: &mut B) -> Result<Game, ModelError> {
    let app_id = AppId(get_u32(buf, "app id overflow")?);
    let name = get_str(buf)?;
    let app_type = AppType::from_tag(get_byte(buf, "game")?).ok_or_else(|| err("bad app type"))?;
    let genres =
        GenreSet::from_bits(u16::try_from(get_varu64(buf)?).map_err(|_| err("genre bits"))?);
    let price_cents = get_u32(buf, "price overflow")?;
    let multiplayer = get_byte(buf, "game")? != 0;
    let release_date = SimTime::from_unix(get_vari64(buf)?);
    let metacritic = match get_byte(buf, "game")? {
        0 => None,
        _ => Some(get_byte(buf, "metacritic")?),
    };
    let n_ach = get_len(buf, 5, "achievement")?;
    let mut achievements = Vec::with_capacity(n_ach);
    for _ in 0..n_ach {
        let name = get_str(buf)?;
        if buf.remaining() < 4 {
            return Err(err("truncated achievement pct"));
        }
        achievements.push(Achievement { name, global_completion_pct: buf.get_f32_le() });
    }
    Ok(Game {
        app_id,
        name,
        app_type,
        genres,
        price_cents,
        multiplayer,
        release_date,
        metacritic,
        achievements,
    })
}

/// Appends one group record.
pub fn put_group(buf: &mut BytesMut, g: &Group) {
    put_varu64(buf, u64::from(g.id.0));
    buf.put_u8(g.kind.tag());
    put_str(buf, &g.name);
}

/// Reads a group written by [`put_group`].
pub fn get_group<B: Buf>(buf: &mut B) -> Result<Group, ModelError> {
    let id = GroupId(get_u32(buf, "group id")?);
    let kind = GroupKind::from_tag(get_byte(buf, "group")?).ok_or_else(|| err("bad group kind"))?;
    let name = get_str(buf)?;
    Ok(Group { id, kind, name })
}

/// Appends one friendship edge: both account indices, then the date.
pub fn put_friendship(buf: &mut BytesMut, e: &Friendship) {
    put_varu64(buf, u64::from(e.a));
    put_varu64(buf, u64::from(e.b));
    put_vari64(buf, e.created_at.unix());
}

/// Reads an edge written by [`put_friendship`].
pub fn get_friendship<B: Buf>(buf: &mut B) -> Result<Friendship, ModelError> {
    let a = get_u32(buf, "edge endpoint")?;
    let b = get_u32(buf, "edge endpoint")?;
    let created_at = SimTime::from_unix(get_vari64(buf)?);
    Ok(Friendship { a, b, created_at })
}

/// Appends one account's owned-game list.
pub fn put_library(buf: &mut BytesMut, games: &[OwnedGame]) {
    put_list(buf, games, |buf, g| {
        put_varu64(buf, u64::from(g.app_id.0));
        put_varu64(buf, u64::from(g.playtime_forever_min));
        put_varu64(buf, u64::from(g.playtime_2weeks_min));
    });
}

/// Reads an owned-game list written by [`put_library`].
pub fn get_library<B: Buf>(buf: &mut B) -> Result<Vec<OwnedGame>, ModelError> {
    get_list(buf, 3, "owned game", |buf| {
        Ok(OwnedGame {
            app_id: AppId(get_u32(buf, "app id")?),
            playtime_forever_min: get_u32(buf, "playtime")?,
            playtime_2weeks_min: get_u32(buf, "playtime")?,
        })
    })
}

/// Appends one account's memberships, as indices into the snapshot's groups.
pub fn put_group_indices(buf: &mut BytesMut, groups: &[u32]) {
    put_list(buf, groups, |buf, &g| put_varu64(buf, u64::from(g)));
}

/// Reads a membership list written by [`put_group_indices`].
pub fn get_group_indices<B: Buf>(buf: &mut B) -> Result<Vec<u32>, ModelError> {
    get_list(buf, 1, "membership", |buf| get_u32(buf, "group index"))
}

/// Appends one account's friend list: `(friend id, friends since)` pairs.
pub fn put_friends(buf: &mut BytesMut, friends: &[(SteamId, SimTime)]) {
    put_list(buf, friends, |buf, (id, since)| {
        put_varu64(buf, id.index());
        put_vari64(buf, since.unix());
    });
}

/// Reads a friend list written by [`put_friends`].
pub fn get_friends<B: Buf>(buf: &mut B) -> Result<Vec<(SteamId, SimTime)>, ModelError> {
    get_list(buf, 2, "friend", |buf| Ok((get_steam_id(buf)?, SimTime::from_unix(get_vari64(buf)?))))
}

/// Appends a list of group ids.
pub fn put_group_ids(buf: &mut BytesMut, ids: &[GroupId]) {
    put_list(buf, ids, |buf, g| put_varu64(buf, u64::from(g.0)));
}

/// Reads a group-id list written by [`put_group_ids`].
pub fn get_group_ids<B: Buf>(buf: &mut B) -> Result<Vec<GroupId>, ModelError> {
    get_list(buf, 1, "membership", |buf| Ok(GroupId(get_u32(buf, "group id")?)))
}

// --- snapshot sections ------------------------------------------------------

/// One decoded section's typed contents: the whole section, or one chunk.
pub(crate) enum Section {
    Accounts(Vec<Account>),
    Friendships(Vec<Friendship>),
    Ownerships(Vec<Vec<OwnedGame>>),
    Groups(Vec<Group>),
    Memberships(Vec<Vec<u32>>),
    Catalog(Vec<Game>),
}

/// Appends records `range` of section `id`, back to back.
fn encode_records(buf: &mut BytesMut, s: &Snapshot, id: u8, range: Range<usize>) {
    match id {
        SECTION_ACCOUNTS => s.accounts[range].iter().for_each(|a| put_account(buf, a)),
        SECTION_FRIENDSHIPS => s.friendships[range].iter().for_each(|e| put_friendship(buf, e)),
        SECTION_OWNERSHIPS => s.ownerships[range].iter().for_each(|l| put_library(buf, l)),
        SECTION_GROUPS => s.groups[range].iter().for_each(|g| put_group(buf, g)),
        SECTION_MEMBERSHIPS => s.memberships[range].iter().for_each(|m| put_group_indices(buf, m)),
        SECTION_CATALOG => s.catalog[range].iter().for_each(|g| put_game(buf, g)),
        _ => unreachable!("unknown section id {id}"),
    }
}

/// Rejects `n` records of section `id` in `left` bytes when they cannot
/// fit: each takes at least a known number of bytes.
fn check_records(left: usize, n: usize, id: u8) -> Result<(), ModelError> {
    let (min, what) = match id {
        SECTION_ACCOUNTS => (7, "account"),
        SECTION_FRIENDSHIPS => (3, "edge"),
        SECTION_OWNERSHIPS => (1, "library"),
        SECTION_GROUPS => (3, "group"),
        SECTION_MEMBERSHIPS => (1, "membership list"),
        SECTION_CATALOG => (GAME_MIN_LEN, "catalog"),
        _ => return Err(err(format!("unknown section id {id}"))),
    };
    check_len(left, n, min, what)
}

/// Decodes `n` records of section `id` from the front of `buf`. A count
/// the bytes left cannot hold is an error before anything is allocated.
pub(crate) fn decode_records(buf: &mut &[u8], id: u8, n: usize) -> Result<Section, ModelError> {
    check_records(buf.len(), n, id)?;
    Ok(match id {
        SECTION_ACCOUNTS => Section::Accounts(get_n(buf, n, get_account)?),
        SECTION_FRIENDSHIPS => Section::Friendships(get_n(buf, n, get_friendship)?),
        SECTION_OWNERSHIPS => Section::Ownerships(get_n(buf, n, get_library)?),
        SECTION_GROUPS => Section::Groups(get_n(buf, n, get_group)?),
        SECTION_MEMBERSHIPS => Section::Memberships(get_n(buf, n, get_group_indices)?),
        _ => Section::Catalog(get_n(buf, n, get_game)?),
    })
}

/// Decodes a v1/v2 section: a leading count, then that many records.
fn decode_counted(buf: &mut &[u8], id: u8) -> Result<Section, ModelError> {
    let n = get_varu64(buf)?;
    decode_records(buf, id, usize::try_from(n).unwrap_or(usize::MAX))
}

/// Appends decoded sections — each whole, or chunk by chunk in record
/// order — to `s`, then checks that the per-account sections line up.
pub(crate) fn assemble(mut s: Snapshot, sections: Vec<Section>) -> Result<Snapshot, ModelError> {
    for section in sections {
        match section {
            Section::Accounts(v) => s.accounts.extend(v),
            Section::Friendships(v) => s.friendships.extend(v),
            Section::Ownerships(v) => s.ownerships.extend(v),
            Section::Groups(v) => s.groups.extend(v),
            Section::Memberships(v) => s.memberships.extend(v),
            Section::Catalog(v) => s.catalog.extend(v),
        }
    }
    if s.ownerships.len() != s.accounts.len() || s.memberships.len() != s.accounts.len() {
        return Err(err(format!(
            "per-account sections disagree: {} accounts, {} libraries, {} membership lists",
            s.accounts.len(),
            s.ownerships.len(),
            s.memberships.len()
        )));
    }
    Ok(s)
}

/// 32-bit FNV-1a: the checksum of v2 sections, v3 chunks and CSHD shard
/// files, and of each record in `steam-api`'s checkpoint journal. Not
/// cryptographic: it guards against torn writes and bit rot, not malice.
pub fn checksum32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Writes `bytes` to `path` atomically: sibling temp file, fsync, rename.
///
/// A crash at any point leaves either the old file (or no file) or the
/// complete new one under `path` — never a truncated hybrid. The parent
/// directory is fsynced best-effort so the rename itself is durable.
///
/// The temp name carries the pid plus a process-wide counter, so concurrent
/// writers to the same target never share a temp file: each rename installs
/// one writer's complete bytes (last rename wins), never an interleaving.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), ModelError> {
    write_atomic_with(path, |f| f.write_all(bytes))
}

/// [`write_atomic`] for contents that `fill` streams into the temp file.
/// On any error the temp file is removed and `path` is left as it was.
fn write_atomic_with(
    path: &std::path::Path,
    fill: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), ModelError> {
    let tmp = temp_sibling(path);
    let written = (|| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        fill(&mut f)?;
        f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = written {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    fsync_parent(path);
    Ok(())
}

/// Temp-file path next to `path`, unique per writer (pid + process-wide
/// counter), so concurrent writers to one target never share a temp file.
fn temp_sibling(path: &std::path::Path) -> std::path::PathBuf {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::path::PathBuf::from(tmp)
}

/// Best-effort fsync of `path`'s parent directory so a rename is durable.
fn fsync_parent(path: &std::path::Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().ok();
        }
    }
}

// --- snapshot ---------------------------------------------------------------

/// Deserializes a snapshot in any container version — dispatches on the
/// version byte.
pub fn decode_snapshot(buf: Bytes) -> Result<Snapshot, ModelError> {
    decode_snapshot_jobs(buf, 1)
}

/// Like [`decode_snapshot`], decoding v3 chunks on up to `jobs` worker
/// threads. v1 and v2 inputs decode on the calling thread regardless of
/// `jobs`.
pub fn decode_snapshot_jobs(buf: Bytes, jobs: usize) -> Result<Snapshot, ModelError> {
    if buf.len() < 5 || &buf[..4] != MAGIC {
        return Err(err("bad magic"));
    }
    match buf[4] {
        VERSION => decode_snapshot_v1(&buf[5..]),
        VERSION_SECTIONED => decode_snapshot_v2(&buf),
        VERSION_CHUNKED => SnapshotReader::from_bytes(buf)?.snapshot(jobs),
        version => Err(err(format!("unsupported snapshot version {version}"))),
    }
}

/// Decodes the v1 body (everything after magic + version).
fn decode_snapshot_v1(mut buf: &[u8]) -> Result<Snapshot, ModelError> {
    let collected_at = SimTime::from_unix(get_vari64(&mut buf)?);
    let scanned_id_space = get_varu64(&mut buf)?;
    // v1 lays the sections out in its own order, and the per-account ones
    // carry no count of their own.
    let order = [
        SECTION_ACCOUNTS,
        SECTION_FRIENDSHIPS,
        SECTION_CATALOG,
        SECTION_OWNERSHIPS,
        SECTION_GROUPS,
        SECTION_MEMBERSHIPS,
    ];
    let mut sections = Vec::with_capacity(order.len());
    let mut n_accounts = 0;
    for id in order {
        let section = match id {
            SECTION_OWNERSHIPS | SECTION_MEMBERSHIPS => decode_records(&mut buf, id, n_accounts)?,
            _ => decode_counted(&mut buf, id)?,
        };
        if let Section::Accounts(accounts) = &section {
            n_accounts = accounts.len();
        }
        sections.push(section);
    }
    if buf.has_remaining() {
        return Err(err(format!("{} trailing bytes", buf.remaining())));
    }
    assemble(Snapshot { collected_at, scanned_id_space, ..Snapshot::default() }, sections)
}

// --- sectioned snapshot container (v2, read-only) ---------------------------

struct SectionEntry {
    id: u8,
    offset: usize,
    len: usize,
    sum: u32,
}

/// Decodes a v2 container from the *full* buffer (magic included).
fn decode_snapshot_v2(full: &[u8]) -> Result<Snapshot, ModelError> {
    let total = full.len();
    if total < 5 + 8 {
        return Err(err("sectioned snapshot too short"));
    }

    // Shared header.
    let mut head = &full[5..total - 8];
    let head_len = head.remaining();
    let collected_at = SimTime::from_unix(get_vari64(&mut head)?);
    let scanned_id_space = get_varu64(&mut head)?;
    let first_block = 5 + (head_len - head.remaining());

    // Trailer pointer (final 8 bytes) and trailer index.
    let trailer_offset = {
        let mut tail = &full[total - 8..];
        usize::try_from(tail.get_u64_le()).map_err(|_| err("trailer offset overflow"))?
    };
    if trailer_offset < first_block || trailer_offset > total - 8 {
        return Err(err("trailer offset out of bounds"));
    }
    let mut trailer = &full[trailer_offset..total - 8];
    let n_sections = get_varu64(&mut trailer)? as usize;
    if n_sections != SECTION_IDS.len() {
        return Err(err(format!("expected {} sections, got {n_sections}", SECTION_IDS.len())));
    }
    let mut entries: Vec<SectionEntry> = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        if !trailer.has_remaining() {
            return Err(err("truncated trailer"));
        }
        let id = trailer.get_u8();
        let offset = usize::try_from(get_varu64(&mut trailer)?)
            .map_err(|_| err("section offset overflow"))?;
        let len =
            usize::try_from(get_varu64(&mut trailer)?).map_err(|_| err("section len overflow"))?;
        if trailer.remaining() < 4 {
            return Err(err("truncated trailer"));
        }
        let sum = trailer.get_u32_le();
        entries.push(SectionEntry { id, offset, len, sum });
    }
    if trailer.remaining() < 4 {
        return Err(err("truncated trailer"));
    }
    let header_sum = trailer.get_u32_le();
    if trailer.has_remaining() {
        return Err(err(format!("{} trailing bytes in trailer", trailer.remaining())));
    }
    if checksum32(&full[..first_block]) != header_sum {
        return Err(err("checksum mismatch in snapshot header"));
    }

    // Walk the blocks sequentially and cross-check against the trailer:
    // framing and index must agree byte-for-byte, so truncation or a
    // spliced block is caught before any payload is parsed.
    let mut payloads: Vec<&[u8]> = Vec::with_capacity(n_sections);
    let mut pos = first_block;
    for (i, e) in entries.iter().enumerate() {
        if e.id != SECTION_IDS[i] {
            return Err(err(format!("section {i} has id {} in trailer", e.id)));
        }
        if e.offset != pos {
            return Err(err(format!(
                "section {} at offset {pos}, trailer says {}",
                section_name(e.id),
                e.offset
            )));
        }
        let mut blk = &full[pos..trailer_offset];
        let blk_len = blk.remaining();
        if !blk.has_remaining() {
            return Err(err("truncated section header"));
        }
        let id = blk.get_u8();
        let len = usize::try_from(get_varu64(&mut blk)?)
            .map_err(|_| err("section len overflow"))?;
        if id != e.id || len != e.len {
            return Err(err(format!(
                "block header for {} disagrees with trailer",
                section_name(e.id)
            )));
        }
        if blk.remaining() < 4 {
            return Err(err("truncated section header"));
        }
        let sum = blk.get_u32_le();
        if sum != e.sum {
            return Err(err(format!(
                "block checksum for {} disagrees with trailer",
                section_name(e.id)
            )));
        }
        if blk.remaining() < len {
            return Err(err(format!("truncated {} section", section_name(e.id))));
        }
        let payload_start = pos + (blk_len - blk.remaining());
        payloads.push(&full[payload_start..payload_start + len]);
        pos = payload_start + len;
    }
    if pos != trailer_offset {
        return Err(err(format!("{} unindexed bytes before trailer", trailer_offset - pos)));
    }

    let mut sections = Vec::with_capacity(n_sections);
    for (e, mut payload) in entries.iter().zip(payloads) {
        if checksum32(payload) != e.sum {
            return Err(err(format!("checksum mismatch in {} section", section_name(e.id))));
        }
        sections.push(decode_counted(&mut payload, e.id)?);
        if payload.has_remaining() {
            return Err(err(format!(
                "{} trailing bytes in {} section",
                payload.remaining(),
                section_name(e.id)
            )));
        }
    }
    assemble(Snapshot { collected_at, scanned_id_space, ..Snapshot::default() }, sections)
}

// --- chunked columnar snapshot container (v3) --------------------------------

/// Version byte of the chunked columnar (out-of-core) snapshot container.
pub const VERSION_CHUNKED: u8 = 3;

/// Records per chunk by section, as chosen by this writer. The caps are
/// recorded in the directory, so readers never assume these exact values.
pub(crate) fn default_chunk_cap(id: u8) -> u64 {
    match id {
        // Friendship records are small (three varints); catalog entries carry
        // names + achievement lists and are by far the fattest.
        SECTION_FRIENDSHIPS => 16 * 1024,
        SECTION_CATALOG => 1024,
        _ => 4 * 1024,
    }
}

/// Directory entry for one chunk of a v3 section.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChunkEntry {
    /// File offset of the chunk's frame header.
    pub offset: u64,
    /// Payload bytes, excluding the frame header.
    pub len: u64,
    pub n_records: u64,
    /// FNV-1a of the payload.
    pub sum: u32,
}

/// Directory for one v3 section.
#[derive(Clone, Debug)]
pub(crate) struct SectionDir {
    pub id: u8,
    /// Records per chunk; every chunk but the last holds exactly this many.
    pub cap: u64,
    pub total_records: u64,
    pub chunks: Vec<ChunkEntry>,
}

/// The parsed, checksum-verified v3 trailer.
pub(crate) struct V3Directory {
    /// One entry per section, in id order.
    pub sections: Vec<SectionDir>,
    /// Stored checksum of the bytes before the first chunk.
    pub header_sum: u32,
}

/// Encoded byte length of a varint.
fn varu64_len(mut v: u64) -> u64 {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn section_records(s: &Snapshot, id: u8) -> usize {
    match id {
        SECTION_ACCOUNTS => s.accounts.len(),
        SECTION_FRIENDSHIPS => s.friendships.len(),
        SECTION_OWNERSHIPS => s.ownerships.len(),
        SECTION_GROUPS => s.groups.len(),
        SECTION_MEMBERSHIPS => s.memberships.len(),
        SECTION_CATALOG => s.catalog.len(),
        _ => unreachable!("unknown section id {id}"),
    }
}

/// `(section_id, records)` for every chunk, in file order.
fn v3_chunk_specs(s: &Snapshot, cap: fn(u8) -> u64) -> Vec<(u8, Range<usize>)> {
    let mut specs = Vec::new();
    for &id in &SECTION_IDS {
        let total = section_records(s, id);
        let cap = cap(id).max(1) as usize;
        let mut start = 0;
        while start < total {
            let end = (start + cap).min(total);
            specs.push((id, start..end));
            start = end;
        }
    }
    specs
}

/// Appends the v3 trailer (directory + header/trailer checksums + offset
/// pointer) to `buf`, which must currently end exactly at `trailer_offset`
/// relative to the file start.
fn append_v3_trailer(buf: &mut BytesMut, dirs: &[SectionDir], header_sum: u32, trailer_offset: u64) {
    let tstart = buf.len();
    put_varu64(buf, dirs.len() as u64);
    for d in dirs {
        buf.put_u8(d.id);
        put_varu64(buf, d.cap);
        put_varu64(buf, d.total_records);
        put_varu64(buf, d.chunks.len() as u64);
        for c in &d.chunks {
            put_varu64(buf, c.offset);
            put_varu64(buf, c.len);
            put_varu64(buf, c.n_records);
            buf.put_u32_le(c.sum);
        }
    }
    buf.put_u32_le(header_sum);
    let trailer_sum = checksum32(&buf[tstart..]);
    buf.put_u32_le(trailer_sum);
    buf.put_u64_le(trailer_offset);
}

/// Streams a snapshot into `out` as a v3 container. Chunks are encoded in
/// windows of `4 × jobs` on up to `jobs` workers and written in file order,
/// so peak transient memory is one window of encoded chunks, not the file.
/// The bytes do not depend on `jobs`.
fn write_v3(
    out: &mut impl Write,
    s: &Snapshot,
    jobs: usize,
    cap: fn(u8) -> u64,
) -> std::io::Result<()> {
    let mut header = BytesMut::with_capacity(32);
    header.put_slice(MAGIC);
    header.put_u8(VERSION_CHUNKED);
    put_vari64(&mut header, s.collected_at.unix());
    put_varu64(&mut header, s.scanned_id_space);
    out.write_all(&header)?;
    let mut offset = header.len() as u64;

    let specs = v3_chunk_specs(s, cap);
    let mut dirs: Vec<SectionDir> = SECTION_IDS
        .iter()
        .map(|&id| SectionDir {
            id,
            cap: cap(id).max(1),
            total_records: section_records(s, id) as u64,
            chunks: Vec::new(),
        })
        .collect();
    for window in specs.chunks(jobs.max(1) * 4) {
        let payloads = steam_par::map(jobs, window, |(id, records)| {
            let mut payload = BytesMut::with_capacity(records.len() * 12 + 16);
            encode_records(&mut payload, s, *id, records.clone());
            let sum = checksum32(&payload);
            (payload, sum)
        });
        for ((id, records), (payload, sum)) in window.iter().zip(payloads) {
            let e = ChunkEntry {
                offset,
                len: payload.len() as u64,
                n_records: records.len() as u64,
                sum,
            };
            let mut frame = BytesMut::with_capacity(24);
            frame.put_u8(*id);
            put_varu64(&mut frame, e.n_records);
            put_varu64(&mut frame, e.len);
            frame.put_u32_le(e.sum);
            out.write_all(&frame)?;
            out.write_all(&payload)?;
            offset += (frame.len() + payload.len()) as u64;
            dirs[*id as usize].chunks.push(e);
        }
    }

    let mut trailer = BytesMut::with_capacity(64 + specs.len() * 24);
    append_v3_trailer(&mut trailer, &dirs, checksum32(&header), offset);
    out.write_all(&trailer)
}

/// Serializes a snapshot into the chunked v3 container in memory, encoding
/// chunks on up to `jobs` workers. Byte-identical for every `jobs >= 1`, and
/// to what [`write_snapshot_v3`] streams to disk.
pub fn encode_snapshot_v3(s: &Snapshot, jobs: usize) -> Bytes {
    encode_snapshot_v3_caps(s, jobs, default_chunk_cap)
}

pub(crate) fn encode_snapshot_v3_caps(s: &Snapshot, jobs: usize, cap: fn(u8) -> u64) -> Bytes {
    let mut out = Vec::with_capacity(
        64 + s.accounts.len() * 12 + s.friendships.len() * 10 + s.n_owned_games() * 8,
    );
    write_v3(&mut out, s, jobs, cap).expect("writing to a Vec cannot fail");
    Bytes::from(out)
}

/// Writes a snapshot in the chunked v3 container without ever materializing
/// the full encoding: the chunk loop of [`encode_snapshot_v3`] streams to a
/// sibling temp file, then fsync + rename as in [`write_atomic`]. Output
/// bytes are identical to [`encode_snapshot_v3`] for any `jobs`.
pub fn write_snapshot_v3(
    path: &std::path::Path,
    s: &Snapshot,
    jobs: usize,
) -> Result<(), ModelError> {
    write_atomic_with(path, |f| write_v3(f, s, jobs, default_chunk_cap))
}

/// Parses the v3 shared header from a prefix of the file; returns collected
/// at, scanned id space, and the offset of the first chunk.
pub(crate) fn parse_v3_header(prefix: Bytes) -> Result<(SimTime, u64, usize), ModelError> {
    let total = prefix.len();
    let mut buf = prefix;
    if buf.remaining() < 5 || &buf.split_to(4)[..] != MAGIC {
        return Err(err("bad magic"));
    }
    let version = buf.get_u8();
    if version != VERSION_CHUNKED {
        return Err(err(format!("not a chunked (v3) snapshot: version {version}")));
    }
    let collected_at = SimTime::from_unix(get_vari64(&mut buf)?);
    let scanned = get_varu64(&mut buf)?;
    Ok((collected_at, scanned, total - buf.remaining()))
}

/// Parses and verifies the v3 trailer region (`[trailer_offset, len - 8)`):
/// the trailer checksum, section order, per-section chunk-count/cap
/// arithmetic, and the contiguity invariant — chunks tile the byte range
/// `[first_chunk, trailer_offset)` exactly, in section order.
pub(crate) fn parse_v3_directory(
    region: Bytes,
    first_chunk: u64,
    trailer_offset: u64,
) -> Result<V3Directory, ModelError> {
    if region.len() < 9 {
        return Err(err("truncated v3 trailer"));
    }
    let sum_at = region.len() - 4;
    let stored = u32::from_le_bytes(region[sum_at..].try_into().expect("4 bytes"));
    if checksum32(&region[..sum_at]) != stored {
        return Err(err("checksum mismatch in v3 trailer"));
    }

    let mut t = region.slice(..sum_at);
    let n_sections = get_varu64(&mut t)? as usize;
    if n_sections != SECTION_IDS.len() {
        return Err(err(format!("expected {} sections, got {n_sections}", SECTION_IDS.len())));
    }
    let mut pos = first_chunk;
    let mut sections = Vec::with_capacity(n_sections);
    for (i, &expected_id) in SECTION_IDS.iter().enumerate() {
        if !t.has_remaining() {
            return Err(err("truncated v3 trailer"));
        }
        let id = t.get_u8();
        if id != expected_id {
            return Err(err(format!("section {i} has id {id} in trailer")));
        }
        let cap = get_varu64(&mut t)?;
        if cap == 0 {
            return Err(err(format!("zero chunk capacity for {} section", section_name(id))));
        }
        let total_records = get_varu64(&mut t)?;
        let n_chunks = usize::try_from(get_varu64(&mut t)?).map_err(|_| err("chunk count"))?;
        if n_chunks as u64 != total_records.div_ceil(cap) {
            return Err(err(format!(
                "{} section: {n_chunks} chunks for {total_records} records at cap {cap}",
                section_name(id)
            )));
        }
        // Each directory entry is at least 3 one-byte varints + 4 checksum
        // bytes; reject counts that cannot fit before allocating.
        if n_chunks > t.remaining() / 7 {
            return Err(err(format!("implausible chunk count {n_chunks}")));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut records_left = total_records;
        for k in 0..n_chunks {
            let offset = get_varu64(&mut t)?;
            let len = get_varu64(&mut t)?;
            let n_records = get_varu64(&mut t)?;
            if t.remaining() < 4 {
                return Err(err("truncated v3 trailer"));
            }
            let sum = t.get_u32_le();
            let expect = if k + 1 < n_chunks { cap } else { records_left };
            if n_records != expect {
                return Err(err(format!(
                    "{} section chunk {k}: {n_records} records, expected {expect}",
                    section_name(id)
                )));
            }
            records_left -= n_records;
            // Counts bounded by the bytes that hold them, so nothing sized
            // from the directory outgrows the file.
            check_records(usize::try_from(len).unwrap_or(usize::MAX), n_records as usize, id)
                .map_err(|e| err(format!("{} section chunk {k}: {e}", section_name(id))))?;
            if offset != pos {
                return Err(err(format!(
                    "{} section chunk {k} at offset {pos}, directory says {offset}",
                    section_name(id)
                )));
            }
            // `len` comes from the file: the frame's end is checked, never
            // wrapped, before it becomes the next chunk's offset.
            let frame = 1 + varu64_len(n_records) + varu64_len(len) + 4;
            pos = pos
                .checked_add(frame)
                .and_then(|p| p.checked_add(len))
                .filter(|&end| end <= trailer_offset)
                .ok_or_else(|| {
                    err(format!("{} section chunk {k} overruns the trailer", section_name(id)))
                })?;
            chunks.push(ChunkEntry { offset, len, n_records, sum });
        }
        sections.push(SectionDir { id, cap, total_records, chunks });
    }
    if t.remaining() < 4 {
        return Err(err("truncated v3 trailer"));
    }
    let header_sum = t.get_u32_le();
    if t.has_remaining() {
        return Err(err(format!("{} trailing bytes in v3 trailer", t.remaining())));
    }
    if pos != trailer_offset {
        return Err(err(format!("{} unindexed bytes before v3 trailer", trailer_offset - pos)));
    }
    Ok(V3Directory { sections, header_sum })
}

/// Cross-checks one chunk's inline frame header against its directory entry;
/// returns the header's byte length. The frame header itself is covered by no
/// checksum — this cross-check (id, count, length, payload sum all mirrored
/// in the checksummed directory) is what detects damage to it.
pub(crate) fn parse_v3_chunk_header(
    mut hdr: &[u8],
    id: u8,
    k: usize,
    e: &ChunkEntry,
) -> Result<usize, ModelError> {
    let start_len = hdr.remaining();
    if !hdr.has_remaining() {
        return Err(err(format!("truncated {} section chunk {k}", section_name(id))));
    }
    let got_id = hdr.get_u8();
    let n_records = get_varu64(&mut hdr)?;
    let len = get_varu64(&mut hdr)?;
    if hdr.remaining() < 4 {
        return Err(err(format!("truncated {} section chunk {k}", section_name(id))));
    }
    let sum = hdr.get_u32_le();
    if got_id != id || n_records != e.n_records || len != e.len || sum != e.sum {
        return Err(err(format!(
            "chunk header for {} section chunk {k} disagrees with directory",
            section_name(id)
        )));
    }
    Ok(start_len - hdr.remaining())
}

/// Decodes one v3 chunk payload: exactly `n` records, full consumption
/// required. Errors name the section and chunk.
pub(crate) fn decode_v3_chunk(
    id: u8,
    k: usize,
    n: usize,
    mut buf: &[u8],
) -> Result<Section, ModelError> {
    let out = decode_records(&mut buf, id, n)
        .map_err(|e| err(format!("{} section chunk {k}: {e}", section_name(id))))?;
    if buf.has_remaining() {
        return Err(err(format!(
            "{} trailing bytes in {} section chunk {k}",
            buf.remaining(),
            section_name(id)
        )));
    }
    Ok(out)
}

/// Reads just the magic + version byte of a snapshot file, without loading
/// or validating the body — how callers decide between the streaming
/// [`SnapshotReader`] (v3) and a full decode (v1/v2).
pub fn snapshot_file_version(path: &std::path::Path) -> Result<u8, ModelError> {
    use std::io::Read;
    let mut head = [0u8; 5];
    let mut f = std::fs::File::open(path)?;
    f.read_exact(&mut head).map_err(|_| err("snapshot file too short"))?;
    if &head[..4] != MAGIC {
        return Err(err("bad magic"));
    }
    Ok(head[4])
}

/// Serializes a week panel (Figure 12 sample).
pub fn encode_panel(p: &WeekPanel) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + p.users.len() * 16);
    buf.put_slice(b"CSWP");
    buf.put_u8(VERSION);
    put_varu64(&mut buf, p.users.len() as u64);
    for (u, days) in p.users.iter().zip(&p.daily_minutes) {
        put_varu64(&mut buf, u64::from(*u));
        for &m in days {
            put_varu64(&mut buf, u64::from(m));
        }
    }
    buf.freeze()
}

/// Deserializes a week panel; the inverse of [`encode_panel`].
pub fn decode_panel(mut buf: Bytes) -> Result<WeekPanel, ModelError> {
    if buf.remaining() < 5 || &buf.split_to(4)[..] != b"CSWP" {
        return Err(err("bad panel magic"));
    }
    if buf.get_u8() != VERSION {
        return Err(err("unsupported panel version"));
    }
    let n = get_len(&mut buf, 8, "panel user")?;
    let mut panel = WeekPanel { users: Vec::with_capacity(n), daily_minutes: Vec::with_capacity(n) };
    for _ in 0..n {
        panel
            .users
            .push(u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("panel user"))?);
        let mut days = [0u32; 7];
        for d in &mut days {
            *d = u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("panel minutes"))?;
        }
        panel.daily_minutes.push(days);
    }
    if buf.has_remaining() {
        return Err(err("trailing bytes after panel"));
    }
    Ok(panel)
}

/// Reads a snapshot from a file (any container version).
pub fn read_snapshot(path: &std::path::Path) -> Result<Snapshot, ModelError> {
    read_snapshot_jobs(path, 1)
}

/// Reads a snapshot from a file (any container version), decoding v3
/// chunks on up to `jobs` workers.
pub fn read_snapshot_jobs(path: &std::path::Path, jobs: usize) -> Result<Snapshot, ModelError> {
    let raw = std::fs::read(path)?;
    decode_snapshot_jobs(Bytes::from(raw), jobs)
}

/// Deterministic synthetic snapshot used by codec and reader tests: `n`
/// users with edges, libraries, groups, and a catalog, all invariants valid.
#[cfg(test)]
pub(crate) fn synthetic_snapshot(n: usize) -> Snapshot {
    let n_games = (n / 4).max(3);
    let n_groups = (n / 8).max(2);
    let accounts: Vec<Account> = (0..n)
        .map(|i| Account {
            id: SteamId::from_index(i as u64 * 2),
            created_at: SimTime::from_ymd(2005 + (i % 8) as i32, 1 + (i % 12) as u32, 1 + (i % 28) as u32),
            visibility: if i % 3 == 0 { Visibility::Private } else { Visibility::Public },
            country: if i % 2 == 0 { Some(CountryCode::UnitedStates) } else { None },
            city: if i % 5 == 0 { Some((i % 300) as u16) } else { None },
            level: (i % 20) as u16,
            facebook_linked: i % 7 == 0,
        })
        .collect();
    let mut friendships = Vec::new();
    for i in 0..n.saturating_sub(1) {
        friendships.push(Friendship::new(
            i as u32,
            (i + 1) as u32,
            SimTime::from_ymd(2009 + (i % 5) as i32, 6, 15),
        ));
        if i + 7 < n && i % 3 == 0 {
            friendships.push(Friendship::new(
                i as u32,
                (i + 7) as u32,
                SimTime::from_ymd(2008 + (i % 6) as i32, 3, 3),
            ));
        }
    }
    let catalog: Vec<Game> = (0..n_games)
        .map(|g| Game {
            app_id: AppId(10 + 10 * g as u32),
            name: format!("game-{g}"),
            app_type: AppType::Game,
            genres: GenreSet::EMPTY,
            price_cents: (g as u32 % 7) * 499,
            multiplayer: g % 2 == 0,
            release_date: SimTime::from_ymd(2007, 1, 1),
            metacritic: if g % 3 == 0 { Some(60 + (g % 40) as u8) } else { None },
            achievements: if g % 4 == 0 {
                vec![Achievement { name: format!("ach-{g}"), global_completion_pct: 12.5 }]
            } else {
                Vec::new()
            },
        })
        .collect();
    let ownerships: Vec<Vec<OwnedGame>> = (0..n)
        .map(|i| {
            (0..n_games)
                .filter(|g| (i + g) % 3 == 0)
                .map(|g| OwnedGame {
                    app_id: AppId(10 + 10 * g as u32),
                    playtime_forever_min: ((i * 31 + g * 7) % 9000) as u32,
                    playtime_2weeks_min: ((i * 31 + g * 7) % 9000 / 10) as u32,
                })
                .collect()
        })
        .collect();
    let groups: Vec<Group> = (0..n_groups)
        .map(|g| Group {
            id: GroupId(100 + g as u32),
            kind: if g % 2 == 0 { GroupKind::SingleGame } else { GroupKind::GameServer },
            name: format!("group-{g}"),
        })
        .collect();
    let memberships: Vec<Vec<u32>> = (0..n)
        .map(|i| (0..n_groups as u32).filter(|g| (i as u32 + g).is_multiple_of(4)).collect())
        .collect();
    Snapshot {
        collected_at: SimTime::from_ymd(2013, 11, 5),
        scanned_id_space: (n as u64 * 2).max(1),
        accounts,
        friendships,
        ownerships,
        groups,
        memberships,
        catalog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Genre;

    fn sample_snapshot() -> Snapshot {
        let accounts = vec![
            Account {
                id: SteamId::from_index(0),
                created_at: SimTime::from_ymd(2004, 2, 2),
                visibility: Visibility::Public,
                country: Some(CountryCode::UnitedStates),
                city: Some(12),
                level: 3,
                facebook_linked: true,
            },
            Account {
                id: SteamId::from_index(5),
                created_at: SimTime::from_ymd(2012, 7, 9),
                visibility: Visibility::Private,
                country: None,
                city: None,
                level: 0,
                facebook_linked: false,
            },
        ];
        let catalog = vec![Game {
            app_id: AppId(440),
            name: "Team Fortress 2".into(),
            app_type: AppType::Game,
            genres: GenreSet::new().with(Genre::Action).with(Genre::FreeToPlay),
            price_cents: 0,
            multiplayer: true,
            release_date: SimTime::from_ymd(2007, 10, 10),
            metacritic: Some(92),
            achievements: vec![Achievement { name: "first_blood".into(), global_completion_pct: 43.5 }],
        }];
        Snapshot {
            collected_at: SimTime::from_ymd(2013, 11, 5),
            scanned_id_space: 10,
            accounts,
            friendships: vec![Friendship::new(0, 1, SimTime::from_ymd(2012, 8, 1))],
            ownerships: vec![
                vec![OwnedGame { app_id: AppId(440), playtime_forever_min: 6000, playtime_2weeks_min: 90 }],
                vec![],
            ],
            groups: vec![Group { id: GroupId(9), kind: GroupKind::GameServer, name: "srv".into() }],
            memberships: vec![vec![0], vec![]],
            catalog,
        }
    }

    /// Golden v1 and v2 files of `sample_snapshot()` and
    /// `synthetic_snapshot(17)`, written by the v1 and v2 encoders before
    /// the program stopped writing those versions. Only readers remain.
    fn fixture(name: &str) -> Bytes {
        Bytes::from_static(match name {
            "sample.v1" => include_bytes!("../tests/fixtures/sample.v1"),
            "sample.v2" => include_bytes!("../tests/fixtures/sample.v2"),
            "synthetic17.v1" => include_bytes!("../tests/fixtures/synthetic17.v1"),
            "synthetic17.v2" => include_bytes!("../tests/fixtures/synthetic17.v2"),
            _ => panic!("no fixture {name}"),
        })
    }

    const FIXTURES: [&str; 4] = ["sample.v1", "sample.v2", "synthetic17.v1", "synthetic17.v2"];

    /// The world a fixture was written from.
    fn fixture_world(name: &str) -> Snapshot {
        if name.starts_with("sample") {
            sample_snapshot()
        } else {
            synthetic_snapshot(17)
        }
    }

    fn assert_same_world(d: &Snapshot, s: &Snapshot) {
        assert_eq!(d.collected_at, s.collected_at);
        assert_eq!(d.scanned_id_space, s.scanned_id_space);
        assert_eq!(d.accounts, s.accounts);
        assert_eq!(d.friendships, s.friendships);
        assert_eq!(d.ownerships, s.ownerships);
        assert_eq!(d.groups, s.groups);
        assert_eq!(d.memberships, s.memberships);
        assert_eq!(d.catalog, s.catalog);
    }

    #[test]
    fn fixtures_decode_to_the_worlds_they_were_written_from() {
        for name in FIXTURES {
            let raw = fixture(name);
            let version = if name.ends_with("v1") { VERSION } else { VERSION_SECTIONED };
            assert_eq!(raw[4], version, "{name}");
            let d = decode_snapshot(raw).unwrap();
            assert_same_world(&d, &fixture_world(name));
            d.validate().unwrap();
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = sample_snapshot();
        let bytes = fixture("sample.v1");
        let d = decode_snapshot(bytes).unwrap();
        assert_eq!(d.collected_at, s.collected_at);
        assert_eq!(d.scanned_id_space, s.scanned_id_space);
        assert_eq!(d.accounts.len(), 2);
        assert_eq!(d.accounts[0].id, s.accounts[0].id);
        assert_eq!(d.accounts[0].country, s.accounts[0].country);
        assert_eq!(d.accounts[0].friend_cap(), s.accounts[0].friend_cap());
        assert_eq!(d.friendships, s.friendships);
        assert_eq!(d.ownerships, s.ownerships);
        assert_eq!(d.catalog[0].name, "Team Fortress 2");
        assert_eq!(d.catalog[0].achievements, s.catalog[0].achievements);
        assert_eq!(d.groups[0].kind, GroupKind::GameServer);
        assert_eq!(d.memberships, s.memberships);
        d.validate().unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(decode_snapshot(Bytes::from_static(b"NOPE\x01")).is_err());
        assert!(decode_snapshot(Bytes::new()).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        for clean in [fixture("sample.v1"), encode_snapshot_v3(&sample_snapshot(), 1)] {
            let mut raw = clean.to_vec();
            raw[4] = 99;
            assert!(decode_snapshot(Bytes::from(raw)).is_err());
        }
    }

    #[test]
    fn rejects_truncation_anywhere() {
        for name in ["sample.v1", "synthetic17.v1"] {
            let raw = fixture(name);
            // Chopping the buffer at any point must produce an error, not a
            // panic or a silently-wrong snapshot.
            for cut in 0..raw.len() {
                let r = decode_snapshot(raw.slice(..cut));
                assert!(r.is_err(), "{name}: cut at {cut} decoded successfully");
            }
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        for name in FIXTURES {
            let mut raw = fixture(name).to_vec();
            raw.push(0);
            assert!(decode_snapshot(Bytes::from(raw)).is_err(), "{name}");
        }
        let mut raw = encode_snapshot_v3(&sample_snapshot(), 1).to_vec();
        raw.push(0);
        assert!(decode_snapshot(Bytes::from(raw)).is_err());
    }

    #[test]
    fn panel_round_trips() {
        let p = WeekPanel {
            users: vec![3, 9],
            daily_minutes: vec![[0, 10, 20, 30, 40, 50, 60], [5; 7]],
        };
        let d = decode_panel(encode_panel(&p)).unwrap();
        assert_eq!(d.users, p.users);
        assert_eq!(d.daily_minutes, p.daily_minutes);
    }

    #[test]
    fn varint_extremes_round_trip() {
        let mut buf = BytesMut::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            put_varu64(&mut buf, v);
        }
        let mut b = buf.freeze();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(get_varu64(&mut b).unwrap(), v);
        }
        let mut buf = BytesMut::new();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            put_vari64(&mut buf, v);
        }
        let mut b = buf.freeze();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(get_vari64(&mut b).unwrap(), v);
        }
    }

    /// Reads `$raw` with `$read` from a `Bytes` and from a `&[u8]`: both
    /// must give the same result, error text included, and consume the
    /// same bytes. Evaluates to the result and the bytes left.
    macro_rules! on_both {
        ($raw:expr, $read:ident) => {{
            let raw: &[u8] = $raw;
            let mut bytes = Bytes::from(raw.to_vec());
            let mut slice = raw;
            let a = $read(&mut bytes).map_err(|e| e.to_string());
            let b = $read(&mut slice).map_err(|e| e.to_string());
            assert_eq!(a, b, "Bytes and &[u8] disagree on {raw:?}");
            assert_eq!(bytes.remaining(), slice.remaining(), "{raw:?}");
            (a, slice.remaining())
        }};
    }

    #[test]
    fn varint_edges_on_bytes_and_slices() {
        let mut buf = BytesMut::new();
        put_varu64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        buf.put_u8(7);
        assert_eq!(on_both!(&buf, get_varu64), (Ok(u64::MAX), 1));

        let overflow = "snapshot codec error: varint overflow";
        // A 10th byte above 1 would set bits past 64.
        let mut tenth_too_big = vec![0xffu8; 9];
        tenth_too_big.push(0x02);
        assert_eq!(on_both!(&tenth_too_big, get_varu64).0.unwrap_err(), overflow);
        // So does any 11-byte varint: its 10th byte carries a continuation bit.
        let mut eleven = vec![0x80u8; 10];
        eleven.push(0x00);
        assert_eq!(on_both!(&eleven, get_varu64).0.unwrap_err(), overflow);

        let truncated = "snapshot codec error: truncated varint";
        assert_eq!(on_both!(&[], get_varu64).0.unwrap_err(), truncated);
        assert_eq!(on_both!(&[0x80, 0x80], get_varu64).0.unwrap_err(), truncated);
        assert_eq!(on_both!(&[0xff; 9], get_vari64).0.unwrap_err(), truncated);
    }

    #[test]
    fn string_edges_on_bytes_and_slices() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "héllo");
        buf.put_u8(1);
        assert_eq!(on_both!(&buf, get_str), (Ok("héllo".to_string()), 1));
        // Length 5, three bytes present.
        assert_eq!(
            on_both!(&[5, b'a', b'b', b'c'], get_str).0.unwrap_err(),
            "snapshot codec error: truncated string"
        );
        assert_eq!(
            on_both!(&[2, 0xff, 0xfe], get_str).0.unwrap_err(),
            "snapshot codec error: invalid utf-8 in string"
        );
        assert_eq!(
            on_both!(&[0x80], get_str).0.unwrap_err(),
            "snapshot codec error: truncated varint"
        );
    }

    /// An account record whose id is written as the raw account index
    /// `index`, which may lie past the last representable id.
    fn account_with_index(index: u64) -> BytesMut {
        let mut record = BytesMut::new();
        // Index 0 is a one-byte varint, so the rest of the record is `[1..]`.
        put_account(&mut record, &sample_snapshot().accounts[0]);
        let mut buf = BytesMut::new();
        put_varu64(&mut buf, index);
        buf.put_slice(&record[1..]);
        buf
    }

    #[test]
    fn account_ids_decode_up_to_u64_max_and_fail_past_it() {
        let last = u64::MAX - STEAM_ID_BASE;
        let (top, rest) = on_both!(&account_with_index(last), get_account);
        assert_eq!(top.unwrap().id.as_u64(), u64::MAX);
        assert_eq!(rest, 0);
        // Past the top the id would wrap below the base.
        for (index, wrapped) in [(last + 1, 0), (u64::MAX, STEAM_ID_BASE - 1)] {
            assert_eq!(
                on_both!(&account_with_index(index), get_account).0.unwrap_err(),
                ModelError::InvalidSteamId(wrapped).to_string()
            );
        }
    }

    /// A buffer that shows at most `step` bytes per chunk, so values
    /// straddle chunk boundaries.
    struct Segmented<'a> {
        rest: &'a [u8],
        step: usize,
    }

    impl Buf for Segmented<'_> {
        fn remaining(&self) -> usize {
            self.rest.len()
        }

        fn chunk(&self) -> &[u8] {
            &self.rest[..self.rest.len().min(self.step)]
        }

        fn advance(&mut self, n: usize) {
            self.rest = &self.rest[n..];
        }
    }

    #[test]
    fn readers_cross_chunk_boundaries() {
        let s = sample_snapshot();
        let mut buf = BytesMut::new();
        for v in [0u64, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            put_varu64(&mut buf, v);
        }
        put_vari64(&mut buf, i64::MIN);
        put_str(&mut buf, "Team Fortress 2");
        put_account(&mut buf, &s.accounts[0]);
        put_game(&mut buf, &s.catalog[0]);
        put_group(&mut buf, &s.groups[0]);
        for step in [1, 2, 3, 7] {
            let mut b = Segmented { rest: &buf, step };
            for v in [0u64, 127, 128, 300, u32::MAX as u64, u64::MAX] {
                assert_eq!(get_varu64(&mut b).unwrap(), v, "step {step}");
            }
            assert_eq!(get_vari64(&mut b).unwrap(), i64::MIN);
            assert_eq!(get_str(&mut b).unwrap(), "Team Fortress 2");
            assert_eq!(get_account(&mut b).unwrap(), s.accounts[0]);
            assert_eq!(get_game(&mut b).unwrap(), s.catalog[0]);
            assert_eq!(get_group(&mut b).unwrap(), s.groups[0]);
            assert!(!b.has_remaining());
        }
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("steam-codec-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_concurrent_writers_never_interleave() {
        // Regression test: the temp-file suffix used to be a fixed ".tmp",
        // so two concurrent writers shared one temp file and the rename
        // could install an interleaving of their bytes.
        use std::sync::Arc;
        let dir = std::env::temp_dir()
            .join(format!("steam-codec-concurrent-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = Arc::new(dir.join("contended.bin"));
        let mut handles = Vec::new();
        for w in 0..8u8 {
            let path = Arc::clone(&path);
            handles.push(std::thread::spawn(move || {
                let body = vec![w; 64 * 1024];
                for _ in 0..20 {
                    write_atomic(&path, &body).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_bytes = std::fs::read(&*path).unwrap();
        assert_eq!(final_bytes.len(), 64 * 1024);
        assert!(
            final_bytes.iter().all(|&b| b == final_bytes[0]),
            "file mixes bytes from different writers"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sectioned_snapshot_round_trips() {
        let s = sample_snapshot();
        let bytes = fixture("sample.v2");
        assert_eq!(bytes[4], VERSION_SECTIONED);
        for decode_jobs in [1, 4] {
            let d = decode_snapshot_jobs(bytes.clone(), decode_jobs).unwrap();
            assert_same_world(&d, &s);
            d.validate().unwrap();
        }
    }

    #[test]
    fn v1_remains_readable_through_the_dispatcher() {
        let s = sample_snapshot();
        let v1 = fixture("sample.v1");
        let d = decode_snapshot_jobs(v1, 4).unwrap();
        assert_eq!(d.accounts, s.accounts);
        assert_eq!(d.ownerships, s.ownerships);
    }

    #[test]
    fn sectioned_rejects_truncation_anywhere() {
        for name in ["sample.v2", "synthetic17.v2"] {
            let raw = fixture(name);
            for cut in 0..raw.len() {
                let r = decode_snapshot(raw.slice(..cut));
                assert!(r.is_err(), "{name}: cut at {cut} decoded successfully");
            }
        }
    }

    #[test]
    fn sectioned_rejects_corrupt_section_byte() {
        for name in ["sample.v2", "synthetic17.v2"] {
            let clean = fixture(name);
            // Flip every byte in turn; decode must error (never panic)
            // except when the flip lands somewhere genuinely immaterial —
            // there is no such place in this format, so all flips must fail.
            for at in 0..clean.len() {
                let mut raw = clean.to_vec();
                raw[at] ^= 0x01;
                let r = decode_snapshot(Bytes::from(raw));
                assert!(r.is_err(), "{name}: flip at {at} decoded successfully");
            }
        }
    }

    #[test]
    fn sectioned_names_the_corrupt_section() {
        let clean = fixture("sample.v2");
        // Corrupt the last payload byte of the catalog section (the last
        // section, right before the trailer) while keeping its framing
        // intact: the stored checksum no longer matches.
        let trailer_offset = (&clean[clean.len() - 8..]).get_u64_le() as usize;
        let mut raw = clean.to_vec();
        raw[trailer_offset - 1] ^= 0xff;
        let e = decode_snapshot(Bytes::from(raw)).unwrap_err();
        assert!(
            e.to_string().contains("catalog"),
            "error should name the damaged section: {e}"
        );
    }

    /// Writes `bytes` to a fresh file named `name` in a per-test directory.
    fn temp_file(tag: &str, name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("steam-model-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn file_round_trip_sectioned() {
        let path = temp_file("test-v2", "snap.bin", &fixture("sample.v2"));
        let s = sample_snapshot();
        let d = read_snapshot_jobs(&path, 4).unwrap();
        assert_eq!(d.n_users(), s.n_users());
        // The generic reader handles v2 files too.
        let d2 = read_snapshot(&path).unwrap();
        assert_eq!(d2.n_users(), s.n_users());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let path = temp_file("test-v1", "snap.bin", &fixture("sample.v1"));
        let s = sample_snapshot();
        let d = read_snapshot(&path).unwrap();
        assert_eq!(d.n_users(), s.n_users());
        std::fs::remove_file(&path).ok();
    }

    // --- v3 (chunked columnar) ----------------------------------------------

    fn cap3(_: u8) -> u64 {
        3
    }

    #[test]
    fn chunked_round_trips_multi_chunk() {
        let s = synthetic_snapshot(17);
        for jobs in [1, 4] {
            let bytes = encode_snapshot_v3_caps(&s, jobs, cap3);
            assert_eq!(bytes[4], VERSION_CHUNKED);
            for decode_jobs in [1, 4] {
                let d = decode_snapshot_jobs(bytes.clone(), decode_jobs).unwrap();
                assert_eq!(d.collected_at, s.collected_at);
                assert_eq!(d.scanned_id_space, s.scanned_id_space);
                assert_eq!(d.accounts, s.accounts);
                assert_eq!(d.friendships, s.friendships);
                assert_eq!(d.ownerships, s.ownerships);
                assert_eq!(d.groups, s.groups);
                assert_eq!(d.memberships, s.memberships);
                assert_eq!(d.catalog, s.catalog);
                d.validate().unwrap();
            }
        }
    }

    #[test]
    fn chunked_round_trips_default_caps() {
        let s = sample_snapshot();
        let d = decode_snapshot(encode_snapshot_v3(&s, 2)).unwrap();
        assert_eq!(d.accounts, s.accounts);
        assert_eq!(d.ownerships, s.ownerships);
        assert_eq!(d.catalog, s.catalog);
    }

    #[test]
    fn chunked_handles_empty_sections() {
        let s = Snapshot { scanned_id_space: 1, ..Snapshot::default() };
        let d = decode_snapshot(encode_snapshot_v3(&s, 1)).unwrap();
        assert_eq!(d.n_users(), 0);
        assert!(d.catalog.is_empty());
    }

    #[test]
    fn chunked_encode_is_jobs_invariant() {
        let s = synthetic_snapshot(17);
        let serial = encode_snapshot_v3_caps(&s, 1, cap3);
        let parallel = encode_snapshot_v3_caps(&s, 6, cap3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn streamed_writer_matches_in_memory_encoder() {
        let dir = std::env::temp_dir().join(format!("steam-model-v3w-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.v3");
        let s = synthetic_snapshot(23);
        write_snapshot_v3(&path, &s, 3).unwrap();
        let streamed = std::fs::read(&path).unwrap();
        assert_eq!(Bytes::from(streamed), encode_snapshot_v3(&s, 1));
        let d = read_snapshot(&path).unwrap();
        assert_eq!(d.accounts, s.accounts);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_rejects_truncation_anywhere() {
        let raw = encode_snapshot_v3_caps(&synthetic_snapshot(8), 1, cap3);
        for cut in 0..raw.len() {
            let r = decode_snapshot(raw.slice(..cut));
            assert!(r.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn chunked_rejects_corrupt_byte_everywhere() {
        let clean = encode_snapshot_v3_caps(&synthetic_snapshot(8), 1, cap3);
        for at in 0..clean.len() {
            let mut raw = clean.to_vec();
            raw[at] ^= 0x01;
            let r = decode_snapshot(Bytes::from(raw));
            assert!(r.is_err(), "flip at {at} decoded successfully");
        }
    }

    #[test]
    fn chunked_names_section_and_chunk() {
        let s = synthetic_snapshot(12);
        let clean = encode_snapshot_v3_caps(&s, 1, cap3);
        // Locate chunk 1 of the accounts section via the directory, then
        // corrupt one payload byte so only its checksum can notice.
        let total = clean.len();
        let (_, _, first_chunk) = parse_v3_header(clean.slice(..64.min(total))).unwrap();
        let trailer_offset = {
            let mut tail = clean.slice(total - 8..);
            tail.get_u64_le() as usize
        };
        let dir = parse_v3_directory(
            clean.slice(trailer_offset..total - 8),
            first_chunk as u64,
            trailer_offset as u64,
        )
        .unwrap();
        let e = dir.sections[SECTION_ACCOUNTS as usize].chunks[1];
        let hdr_len = 1 + varu64_len(e.n_records) + varu64_len(e.len) + 4;
        let mut raw = clean.to_vec();
        raw[(e.offset + hdr_len) as usize] ^= 0xff;
        let msg = decode_snapshot(Bytes::from(raw)).unwrap_err().to_string();
        assert!(
            msg.contains("accounts") && msg.contains("chunk 1"),
            "error should name section and chunk: {msg}"
        );
    }

    #[test]
    fn file_version_probe() {
        let dir = std::env::temp_dir().join(format!("steam-model-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = sample_snapshot();
        let p1 = temp_file("ver", "v1.bin", &fixture("sample.v1"));
        let p2 = temp_file("ver", "v2.bin", &fixture("sample.v2"));
        let p3 = dir.join("v3.bin");
        write_snapshot_v3(&p3, &s, 1).unwrap();
        assert_eq!(snapshot_file_version(&p1).unwrap(), VERSION);
        assert_eq!(snapshot_file_version(&p2).unwrap(), VERSION_SECTIONED);
        assert_eq!(snapshot_file_version(&p3).unwrap(), VERSION_CHUNKED);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A v3 file that holds `body` between its header and its trailer, with
    /// `accounts` as the accounts section's chunks of `cap` records and
    /// every other section empty. Header and trailer checksums are valid:
    /// they are not keyed, so a crafted file passes them whatever its
    /// directory says.
    fn crafted_v3(body: &[u8], cap: u64, accounts: Vec<ChunkEntry>) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION_CHUNKED);
        put_vari64(&mut buf, 0); // collected at
        put_varu64(&mut buf, 0); // scanned id space
        let header_sum = checksum32(&buf);
        buf.put_slice(body);
        let trailer_offset = buf.len() as u64;
        let dirs: Vec<SectionDir> = SECTION_IDS
            .iter()
            .map(|&id| {
                let chunks = if id == SECTION_ACCOUNTS { accounts.clone() } else { Vec::new() };
                let total_records = chunks.iter().map(|c| c.n_records).sum();
                SectionDir { id, cap, total_records, chunks }
            })
            .collect();
        append_v3_trailer(&mut buf, &dirs, header_sum, trailer_offset);
        buf.freeze()
    }

    #[test]
    fn crafted_chunk_length_is_an_error_in_both_v3_decoders() {
        // One 16-byte accounts frame whose length runs the offset past
        // u64::MAX, back to 0, where a second accounts chunk lands the
        // offset on the trailer again.
        let first_chunk = 7;
        let trailer_offset = first_chunk + 16;
        let len = 0u64.wrapping_sub(trailer_offset);
        let mut frame = BytesMut::new();
        frame.put_u8(SECTION_ACCOUNTS);
        put_varu64(&mut frame, 1);
        put_varu64(&mut frame, len);
        frame.put_u32_le(0);
        assert_eq!(frame.len() as u64, 16);
        let raw = crafted_v3(
            &frame,
            1,
            vec![
                ChunkEntry { offset: first_chunk, len, n_records: 1, sum: 0 },
                ChunkEntry { offset: 0, len: trailer_offset - 7, n_records: 1, sum: 0 },
            ],
        );
        // The frame sits right after the 7-byte header.
        let (_, _, header_len) = parse_v3_header(raw.clone()).unwrap();
        assert_eq!(header_len as u64, first_chunk);

        assert!(decode_snapshot(raw.clone()).is_err());
        let path = temp_file("crafted-v3", "snap.v3", &raw);
        assert!(SnapshotReader::open(&path).is_err());
        assert!(SnapshotReader::from_bytes(raw.clone()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crafted_record_counts_are_an_error_at_open() {
        // One empty accounts chunk whose directory claims 2^40 records: a
        // reader that sized a buffer from the directory would abort.
        let n_records = 1u64 << 40;
        let sum = checksum32(&[]);
        let mut frame = BytesMut::new();
        frame.put_u8(SECTION_ACCOUNTS);
        put_varu64(&mut frame, n_records);
        put_varu64(&mut frame, 0);
        frame.put_u32_le(sum);
        let chunk = ChunkEntry { offset: 7, len: 0, n_records, sum };
        let raw = crafted_v3(&frame, n_records, vec![chunk]);
        let msg = decode_snapshot(raw.clone()).unwrap_err().to_string();
        assert!(msg.contains("implausible account count"), "{msg}");
        let path = temp_file("crafted-count", "snap.v3", &raw);
        assert!(SnapshotReader::open(&path).is_err());
        assert!(SnapshotReader::from_bytes(raw.clone()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn smallest_records_decode_in_every_section() {
        // Every record at its shortest encoding: a game of nine one-byte
        // fields, a group with an empty name, an account of seven bytes.
        let s = Snapshot {
            accounts: vec![Account {
                id: SteamId::from_index(0),
                created_at: SimTime::from_unix(0),
                visibility: Visibility::Public,
                country: None,
                city: None,
                level: 0,
                facebook_linked: false,
            }],
            ownerships: vec![vec![]],
            memberships: vec![vec![]],
            groups: vec![Group {
                id: GroupId(0),
                kind: GroupKind::GameServer,
                name: String::new(),
            }],
            catalog: (0..3)
                .map(|i| Game {
                    app_id: AppId(i),
                    name: String::new(),
                    app_type: AppType::Game,
                    genres: GenreSet::EMPTY,
                    price_cents: 0,
                    multiplayer: false,
                    release_date: SimTime::from_unix(0),
                    metacritic: None,
                    achievements: Vec::new(),
                })
                .collect(),
            ..Snapshot::default()
        };
        let mut game = BytesMut::new();
        put_game(&mut game, &s.catalog[0]);
        assert_eq!(game.len(), GAME_MIN_LEN);
        let d = decode_snapshot(encode_snapshot_v3(&s, 1)).unwrap();
        assert_same_world(&d, &s);
    }
}
