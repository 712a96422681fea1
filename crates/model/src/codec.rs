//! Compact binary codec for snapshots, plus the checkpoint segment codec.
//!
//! The paper's dataset is hundreds of millions of records; persisting and
//! reloading snapshots must not dominate experiment time. This module defines
//! a simple length-prefixed, varint-based format (no self-description, no
//! compression) with a magic header and version byte.
//!
//! Beyond the snapshot format, the module provides the building blocks the
//! crawler's checkpoint journal is made of (see `steam-api`'s `checkpoint`
//! module): [`write_atomic`] (sibling temp file + fsync + rename, so a crash
//! can never leave a half-written file under the target name) and a segment
//! codec — append-only files of length-prefixed records, each guarded by a
//! [FNV-1a checksum](checksum32), decoded tolerantly so a torn tail loses
//! only the damaged records, never the segment.
//!
//! Layout of version 1 (all integers varint-encoded unless noted):
//!
//! ```text
//! "CSTM" u8(1)
//! collected_at:i64(zigzag) scanned_id_space
//! n_accounts  { id_index, created_at, vis, country(+1 or 0), city(+1 or 0),
//!               level, facebook }
//! n_edges     { a_delta-encoded?, no — a, b, created_at }   (a,b varint)
//! n_catalog   { app_id, name, type, genre_bits, price, mp, release,
//!               metacritic(+1 or 0), n_ach { name, pct(f32 le) } }
//! per-account library { n { app_id, forever, 2weeks } }
//! n_groups    { id, kind, name }
//! per-account memberships { n { group_index } }
//! ```
//!
//! Version 2 is the *sectioned* container: the same record encodings, but
//! grouped into six independent, checksummed blocks so encode and decode
//! fan out over worker threads and a damaged section is pinpointed instead
//! of scrambling the whole decode:
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
//! two, which makes truncation at *any* byte detectable. Version-1 inputs
//! remain fully readable — [`decode_snapshot`] dispatches on the version
//! byte.
//!
//! Version 3 is the *chunked columnar* container for out-of-core work: the
//! same record encodings and section ids, but each section is split into
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
//! chunk `i / cap` without scanning. A [`SnapshotReader`](crate::reader)
//! opens v3 files via mmap/pread and serves individual chunks without
//! materializing the world; [`decode_snapshot`] still fully materializes any
//! version.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::account::{Account, Visibility};
use crate::country::CountryCode;
use crate::error::ModelError;
use crate::game::{Achievement, AppId, AppType, Game, GenreSet};
use crate::group::{Group, GroupId, GroupKind};
use crate::id::SteamId;
use crate::ownership::OwnedGame;
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
    if per_item_min > 0 && n > buf.remaining() / per_item_min {
        return Err(err(format!("implausible {what} count {n}")));
    }
    Ok(n)
}

/// Reads one raw byte; `what` names the record in the truncation error.
fn get_byte<B: Buf>(buf: &mut B, what: &str) -> Result<u8, ModelError> {
    let b = *buf.chunk().first().ok_or_else(|| err(format!("truncated {what}")))?;
    buf.advance(1);
    Ok(b)
}

// --- entity encoders --------------------------------------------------------

/// Appends one account record (the same encoding the snapshot body uses).
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

/// Reads an account written by [`put_account`].
pub fn get_account<B: Buf>(buf: &mut B) -> Result<Account, ModelError> {
    let id = SteamId::from_index(get_varu64(buf)?);
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

/// Appends one catalog entry (the same encoding the snapshot body uses).
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

/// Reads a catalog entry written by [`put_game`].
pub fn get_game<B: Buf>(buf: &mut B) -> Result<Game, ModelError> {
    let app_id = AppId(u32::try_from(get_varu64(buf)?).map_err(|_| err("app id overflow"))?);
    let name = get_str(buf)?;
    let app_type = AppType::from_tag(get_byte(buf, "game")?).ok_or_else(|| err("bad app type"))?;
    let genres =
        GenreSet::from_bits(u16::try_from(get_varu64(buf)?).map_err(|_| err("genre bits"))?);
    let price_cents = u32::try_from(get_varu64(buf)?).map_err(|_| err("price overflow"))?;
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

/// Appends one group record (the same encoding the snapshot body uses).
pub fn put_group(buf: &mut BytesMut, g: &Group) {
    put_varu64(buf, u64::from(g.id.0));
    buf.put_u8(g.kind.tag());
    put_str(buf, &g.name);
}

/// Reads a group written by [`put_group`].
pub fn get_group<B: Buf>(buf: &mut B) -> Result<Group, ModelError> {
    let id = GroupId(u32::try_from(get_varu64(buf)?).map_err(|_| err("group id"))?);
    let kind = GroupKind::from_tag(get_byte(buf, "group")?).ok_or_else(|| err("bad group kind"))?;
    let name = get_str(buf)?;
    Ok(Group { id, kind, name })
}

// --- checkpoint segments ----------------------------------------------------
//
// A segment is an append-only file of length-prefixed records, each guarded by
// a checksum. The crawler's checkpoint journal is a directory of these;
// every flush rewrites one bounded segment atomically, so the failure mode of
// a crash is losing at most the unflushed tail, never corrupting history.

/// Magic prefix of a checkpoint segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"CSEG";
/// Version byte following [`SEGMENT_MAGIC`].
pub const SEGMENT_VERSION: u8 = 1;

/// 32-bit FNV-1a, used as the per-record checksum in checkpoint segments.
/// Not cryptographic: it guards against torn writes and bit rot, not malice.
pub fn checksum32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Starts a new, empty segment buffer (magic + version header).
pub fn new_segment() -> BytesMut {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_slice(SEGMENT_MAGIC);
    buf.put_u8(SEGMENT_VERSION);
    buf
}

/// Appends one record to a segment: varint payload length, `u32` LE FNV-1a
/// checksum of the payload, then the payload bytes.
pub fn append_record(seg: &mut BytesMut, payload: &[u8]) {
    put_varu64(seg, payload.len() as u64);
    seg.put_u32_le(checksum32(payload));
    seg.put_slice(payload);
}

/// Decodes a segment into its record payloads.
///
/// Returns the records that decode cleanly plus a flag that is `true` when
/// the whole segment was consumed without damage. A truncated or corrupt tail
/// stops the scan at the last good record instead of failing the segment —
/// crash recovery must salvage everything before the tear. A bad header is a
/// hard error: nothing in the file can be trusted.
pub fn decode_segment(mut seg: Bytes) -> Result<(Vec<Bytes>, bool), ModelError> {
    if seg.remaining() < 5 || &seg.split_to(4)[..] != SEGMENT_MAGIC {
        return Err(err("bad segment magic"));
    }
    let version = seg.get_u8();
    if version != SEGMENT_VERSION {
        return Err(err(format!("unsupported segment version {version}")));
    }
    let mut records = Vec::new();
    while seg.has_remaining() {
        // Probe on a clone: a torn record must not consume bytes from `seg`
        // before we know it is whole.
        let mut probe = seg.clone();
        let Ok(len) = get_varu64(&mut probe) else { return Ok((records, false)) };
        let Ok(len) = usize::try_from(len) else { return Ok((records, false)) };
        if probe.remaining() < 4 + len {
            return Ok((records, false));
        }
        let sum = probe.get_u32_le();
        let payload = probe.split_to(len);
        if checksum32(&payload) != sum {
            return Ok((records, false));
        }
        records.push(payload);
        seg = probe;
    }
    Ok((records, true))
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
    use std::io::Write;
    let tmp = temp_sibling(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
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

/// Serializes a snapshot into a byte buffer.
pub fn encode_snapshot(s: &Snapshot) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        64 + s.accounts.len() * 12 + s.friendships.len() * 10 + s.n_owned_games() * 8,
    );
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    put_vari64(&mut buf, s.collected_at.unix());
    put_varu64(&mut buf, s.scanned_id_space);

    put_varu64(&mut buf, s.accounts.len() as u64);
    for a in &s.accounts {
        put_account(&mut buf, a);
    }

    put_varu64(&mut buf, s.friendships.len() as u64);
    for e in &s.friendships {
        put_varu64(&mut buf, u64::from(e.a));
        put_varu64(&mut buf, u64::from(e.b));
        put_vari64(&mut buf, e.created_at.unix());
    }

    put_varu64(&mut buf, s.catalog.len() as u64);
    for g in &s.catalog {
        put_game(&mut buf, g);
    }

    for lib in &s.ownerships {
        put_varu64(&mut buf, lib.len() as u64);
        for o in lib {
            put_varu64(&mut buf, u64::from(o.app_id.0));
            put_varu64(&mut buf, u64::from(o.playtime_forever_min));
            put_varu64(&mut buf, u64::from(o.playtime_2weeks_min));
        }
    }

    put_varu64(&mut buf, s.groups.len() as u64);
    for g in &s.groups {
        put_group(&mut buf, g);
    }

    for ms in &s.memberships {
        put_varu64(&mut buf, ms.len() as u64);
        for &g in ms {
            put_varu64(&mut buf, u64::from(g));
        }
    }

    buf.freeze()
}

/// Deserializes a snapshot written by [`encode_snapshot`] (v1) or
/// [`encode_snapshot_jobs`] (v2) — dispatches on the version byte.
pub fn decode_snapshot(buf: Bytes) -> Result<Snapshot, ModelError> {
    decode_snapshot_jobs(buf, 1)
}

/// Like [`decode_snapshot`], decoding v2 sections on up to `jobs` worker
/// threads. v1 inputs decode on the calling thread regardless of `jobs`.
pub fn decode_snapshot_jobs(mut buf: Bytes, jobs: usize) -> Result<Snapshot, ModelError> {
    let full = buf.clone();
    if buf.remaining() < 5 || &buf.split_to(4)[..] != MAGIC {
        return Err(err("bad magic"));
    }
    match buf.get_u8() {
        VERSION => decode_snapshot_v1(buf),
        VERSION_SECTIONED => decode_snapshot_v2(full, jobs),
        VERSION_CHUNKED => decode_snapshot_v3(full, jobs),
        version => Err(err(format!("unsupported snapshot version {version}"))),
    }
}

/// Decodes the v1 body (everything after magic + version).
fn decode_snapshot_v1(mut buf: Bytes) -> Result<Snapshot, ModelError> {
    let collected_at = SimTime::from_unix(get_vari64(&mut buf)?);
    let scanned_id_space = get_varu64(&mut buf)?;

    let n_accounts = get_len(&mut buf, 7, "account")?;
    let mut accounts = Vec::with_capacity(n_accounts);
    for _ in 0..n_accounts {
        accounts.push(get_account(&mut buf)?);
    }

    let n_edges = get_len(&mut buf, 3, "edge")?;
    let mut friendships = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let a = u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("edge endpoint"))?;
        let b = u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("edge endpoint"))?;
        let created_at = SimTime::from_unix(get_vari64(&mut buf)?);
        friendships.push(Friendship { a, b, created_at });
    }

    let n_catalog = get_len(&mut buf, 10, "catalog")?;
    let mut catalog = Vec::with_capacity(n_catalog);
    for _ in 0..n_catalog {
        catalog.push(get_game(&mut buf)?);
    }

    let mut ownerships = Vec::with_capacity(n_accounts);
    for _ in 0..n_accounts {
        let n = get_len(&mut buf, 3, "owned game")?;
        let mut lib = Vec::with_capacity(n);
        for _ in 0..n {
            let app_id =
                AppId(u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("app id"))?);
            let forever =
                u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("playtime"))?;
            let two_weeks =
                u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("playtime"))?;
            lib.push(OwnedGame {
                app_id,
                playtime_forever_min: forever,
                playtime_2weeks_min: two_weeks,
            });
        }
        ownerships.push(lib);
    }

    let n_groups = get_len(&mut buf, 3, "group")?;
    let mut groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        groups.push(get_group(&mut buf)?);
    }

    let mut memberships = Vec::with_capacity(n_accounts);
    for _ in 0..n_accounts {
        let n = get_len(&mut buf, 1, "membership")?;
        let mut ms = Vec::with_capacity(n);
        for _ in 0..n {
            ms.push(u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("group index"))?);
        }
        memberships.push(ms);
    }

    if buf.has_remaining() {
        return Err(err(format!("{} trailing bytes", buf.remaining())));
    }

    Ok(Snapshot {
        collected_at,
        scanned_id_space,
        accounts,
        friendships,
        ownerships,
        groups,
        memberships,
        catalog,
    })
}

// --- sectioned snapshot container (v2) --------------------------------------

/// Runs `f(0..n)` on up to `jobs` scoped workers, returning results in
/// index order. The codec's local copy of the synth crate's chunk runner
/// (the dependency points the other way).
fn map_parallel<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
        }
    })
    .expect("codec worker panicked");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every index claimed exactly once")
        })
        .collect()
}

/// Encodes one section's payload (leading count + records).
fn encode_section_payload(s: &Snapshot, id: u8) -> BytesMut {
    match id {
        SECTION_ACCOUNTS => {
            let mut buf = BytesMut::with_capacity(8 + s.accounts.len() * 12);
            put_varu64(&mut buf, s.accounts.len() as u64);
            for a in &s.accounts {
                put_account(&mut buf, a);
            }
            buf
        }
        SECTION_FRIENDSHIPS => {
            let mut buf = BytesMut::with_capacity(8 + s.friendships.len() * 10);
            put_varu64(&mut buf, s.friendships.len() as u64);
            for e in &s.friendships {
                put_varu64(&mut buf, u64::from(e.a));
                put_varu64(&mut buf, u64::from(e.b));
                put_vari64(&mut buf, e.created_at.unix());
            }
            buf
        }
        SECTION_OWNERSHIPS => {
            let mut buf = BytesMut::with_capacity(8 + s.n_owned_games() * 8);
            put_varu64(&mut buf, s.ownerships.len() as u64);
            for lib in &s.ownerships {
                put_varu64(&mut buf, lib.len() as u64);
                for o in lib {
                    put_varu64(&mut buf, u64::from(o.app_id.0));
                    put_varu64(&mut buf, u64::from(o.playtime_forever_min));
                    put_varu64(&mut buf, u64::from(o.playtime_2weeks_min));
                }
            }
            buf
        }
        SECTION_GROUPS => {
            let mut buf = BytesMut::with_capacity(8 + s.groups.len() * 24);
            put_varu64(&mut buf, s.groups.len() as u64);
            for g in &s.groups {
                put_group(&mut buf, g);
            }
            buf
        }
        SECTION_MEMBERSHIPS => {
            let mut buf = BytesMut::with_capacity(8 + s.n_memberships() * 2);
            put_varu64(&mut buf, s.memberships.len() as u64);
            for ms in &s.memberships {
                put_varu64(&mut buf, ms.len() as u64);
                for &g in ms {
                    put_varu64(&mut buf, u64::from(g));
                }
            }
            buf
        }
        SECTION_CATALOG => {
            let mut buf = BytesMut::with_capacity(8 + s.catalog.len() * 64);
            put_varu64(&mut buf, s.catalog.len() as u64);
            for g in &s.catalog {
                put_game(&mut buf, g);
            }
            buf
        }
        _ => unreachable!("unknown section id {id}"),
    }
}

/// One decoded section's typed contents.
pub(crate) enum Section {
    Accounts(Vec<Account>),
    Friendships(Vec<Friendship>),
    Ownerships(Vec<Vec<OwnedGame>>),
    Groups(Vec<Group>),
    Memberships(Vec<Vec<u32>>),
    Catalog(Vec<Game>),
}

/// Decodes one section payload; requires full consumption.
fn decode_section(id: u8, mut buf: Bytes) -> Result<Section, ModelError> {
    let out = match id {
        SECTION_ACCOUNTS => {
            let n = get_len(&mut buf, 7, "account")?;
            let mut accounts = Vec::with_capacity(n);
            for _ in 0..n {
                accounts.push(get_account(&mut buf)?);
            }
            Section::Accounts(accounts)
        }
        SECTION_FRIENDSHIPS => {
            let n = get_len(&mut buf, 3, "edge")?;
            let mut friendships = Vec::with_capacity(n);
            for _ in 0..n {
                let a = u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("edge endpoint"))?;
                let b = u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("edge endpoint"))?;
                let created_at = SimTime::from_unix(get_vari64(&mut buf)?);
                friendships.push(Friendship { a, b, created_at });
            }
            Section::Friendships(friendships)
        }
        SECTION_OWNERSHIPS => {
            let n_users = get_len(&mut buf, 1, "library")?;
            let mut ownerships = Vec::with_capacity(n_users);
            for _ in 0..n_users {
                let n = get_len(&mut buf, 3, "owned game")?;
                let mut lib = Vec::with_capacity(n);
                for _ in 0..n {
                    let app_id =
                        AppId(u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("app id"))?);
                    let forever =
                        u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("playtime"))?;
                    let two_weeks =
                        u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("playtime"))?;
                    lib.push(OwnedGame {
                        app_id,
                        playtime_forever_min: forever,
                        playtime_2weeks_min: two_weeks,
                    });
                }
                ownerships.push(lib);
            }
            Section::Ownerships(ownerships)
        }
        SECTION_GROUPS => {
            let n = get_len(&mut buf, 3, "group")?;
            let mut groups = Vec::with_capacity(n);
            for _ in 0..n {
                groups.push(get_group(&mut buf)?);
            }
            Section::Groups(groups)
        }
        SECTION_MEMBERSHIPS => {
            let n_users = get_len(&mut buf, 1, "membership list")?;
            let mut memberships = Vec::with_capacity(n_users);
            for _ in 0..n_users {
                let n = get_len(&mut buf, 1, "membership")?;
                let mut ms = Vec::with_capacity(n);
                for _ in 0..n {
                    ms.push(
                        u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("group index"))?,
                    );
                }
                memberships.push(ms);
            }
            Section::Memberships(memberships)
        }
        SECTION_CATALOG => {
            let n = get_len(&mut buf, 10, "catalog")?;
            let mut catalog = Vec::with_capacity(n);
            for _ in 0..n {
                catalog.push(get_game(&mut buf)?);
            }
            Section::Catalog(catalog)
        }
        _ => return Err(err(format!("unknown section id {id}"))),
    };
    if buf.has_remaining() {
        return Err(err(format!(
            "{} trailing bytes in {} section",
            buf.remaining(),
            section_name(id)
        )));
    }
    Ok(out)
}

/// Serializes a snapshot into the sectioned v2 container, encoding the six
/// sections on up to `jobs` worker threads. Output is byte-identical for
/// every `jobs >= 1`.
pub fn encode_snapshot_jobs(s: &Snapshot, jobs: usize) -> Bytes {
    let payloads = map_parallel(jobs, SECTION_IDS.len(), |i| {
        let payload = encode_section_payload(s, SECTION_IDS[i]);
        let sum = checksum32(&payload);
        (payload, sum)
    });

    let body: usize = payloads.iter().map(|(p, _)| p.len() + 16).sum();
    let mut buf = BytesMut::with_capacity(64 + body);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION_SECTIONED);
    put_vari64(&mut buf, s.collected_at.unix());
    put_varu64(&mut buf, s.scanned_id_space);
    let header_sum = checksum32(&buf);

    let mut index: Vec<(u8, u64, u64, u32)> = Vec::with_capacity(SECTION_IDS.len());
    for (i, (payload, sum)) in payloads.iter().enumerate() {
        index.push((SECTION_IDS[i], buf.len() as u64, payload.len() as u64, *sum));
        buf.put_u8(SECTION_IDS[i]);
        put_varu64(&mut buf, payload.len() as u64);
        buf.put_u32_le(*sum);
        buf.put_slice(payload);
    }

    let trailer_offset = buf.len() as u64;
    put_varu64(&mut buf, index.len() as u64);
    for (id, offset, len, sum) in index {
        buf.put_u8(id);
        put_varu64(&mut buf, offset);
        put_varu64(&mut buf, len);
        buf.put_u32_le(sum);
    }
    // Checksum of everything before the first block (magic, version, shared
    // header) — the only bytes no section checksum covers.
    buf.put_u32_le(header_sum);
    buf.put_u64_le(trailer_offset);
    buf.freeze()
}

struct SectionEntry {
    id: u8,
    offset: usize,
    len: usize,
    sum: u32,
}

/// Decodes a v2 container from the *full* buffer (magic included), fanning
/// section verification + decoding out over up to `jobs` workers.
fn decode_snapshot_v2(full: Bytes, jobs: usize) -> Result<Snapshot, ModelError> {
    let total = full.len();
    if total < 5 + 8 {
        return Err(err("sectioned snapshot too short"));
    }

    // Shared header.
    let mut head = full.slice(5..total - 8);
    let head_len = head.remaining();
    let collected_at = SimTime::from_unix(get_vari64(&mut head)?);
    let scanned_id_space = get_varu64(&mut head)?;
    let first_block = 5 + (head_len - head.remaining());

    // Trailer pointer (final 8 bytes) and trailer index.
    let trailer_offset = {
        let mut tail = full.slice(total - 8..);
        usize::try_from(tail.get_u64_le()).map_err(|_| err("trailer offset overflow"))?
    };
    if trailer_offset < first_block || trailer_offset > total - 8 {
        return Err(err("trailer offset out of bounds"));
    }
    let mut trailer = full.slice(trailer_offset..total - 8);
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
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n_sections);
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
        let mut blk = full.slice(pos..trailer_offset);
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
        payloads.push(full.slice(payload_start..payload_start + len));
        pos = payload_start + len;
    }
    if pos != trailer_offset {
        return Err(err(format!("{} unindexed bytes before trailer", trailer_offset - pos)));
    }

    // Verify checksums and parse payloads, section-parallel.
    let decoded = map_parallel(jobs, n_sections, |i| {
        let e = &entries[i];
        if checksum32(&payloads[i]) != e.sum {
            return Err(err(format!("checksum mismatch in {} section", section_name(e.id))));
        }
        decode_section(e.id, payloads[i].clone())
    });

    let mut accounts = Vec::new();
    let mut friendships = Vec::new();
    let mut ownerships = Vec::new();
    let mut groups = Vec::new();
    let mut memberships = Vec::new();
    let mut catalog = Vec::new();
    for section in decoded {
        match section? {
            Section::Accounts(v) => accounts = v,
            Section::Friendships(v) => friendships = v,
            Section::Ownerships(v) => ownerships = v,
            Section::Groups(v) => groups = v,
            Section::Memberships(v) => memberships = v,
            Section::Catalog(v) => catalog = v,
        }
    }
    if ownerships.len() != accounts.len() || memberships.len() != accounts.len() {
        return Err(err(format!(
            "per-account sections disagree: {} accounts, {} libraries, {} membership lists",
            accounts.len(),
            ownerships.len(),
            memberships.len()
        )));
    }

    Ok(Snapshot {
        collected_at,
        scanned_id_space,
        accounts,
        friendships,
        ownerships,
        groups,
        memberships,
        catalog,
    })
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

/// `(section_id, first_record, one_past_last)` for every chunk, in file order.
fn v3_chunk_specs(s: &Snapshot, cap: fn(u8) -> u64) -> Vec<(u8, usize, usize)> {
    let mut specs = Vec::new();
    for &id in &SECTION_IDS {
        let total = section_records(s, id);
        let cap = cap(id).max(1) as usize;
        let mut start = 0;
        while start < total {
            let end = (start + cap).min(total);
            specs.push((id, start, end));
            start = end;
        }
    }
    specs
}

/// Encodes records `[start, end)` of one section as a v3 chunk payload:
/// records back-to-back, no leading count (counts live in the directory).
fn encode_v3_chunk_payload(s: &Snapshot, id: u8, start: usize, end: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity((end - start) * 12 + 16);
    match id {
        SECTION_ACCOUNTS => {
            for a in &s.accounts[start..end] {
                put_account(&mut buf, a);
            }
        }
        SECTION_FRIENDSHIPS => {
            for e in &s.friendships[start..end] {
                put_varu64(&mut buf, u64::from(e.a));
                put_varu64(&mut buf, u64::from(e.b));
                put_vari64(&mut buf, e.created_at.unix());
            }
        }
        SECTION_OWNERSHIPS => {
            for lib in &s.ownerships[start..end] {
                put_varu64(&mut buf, lib.len() as u64);
                for o in lib {
                    put_varu64(&mut buf, u64::from(o.app_id.0));
                    put_varu64(&mut buf, u64::from(o.playtime_forever_min));
                    put_varu64(&mut buf, u64::from(o.playtime_2weeks_min));
                }
            }
        }
        SECTION_GROUPS => {
            for g in &s.groups[start..end] {
                put_group(&mut buf, g);
            }
        }
        SECTION_MEMBERSHIPS => {
            for ms in &s.memberships[start..end] {
                put_varu64(&mut buf, ms.len() as u64);
                for &g in ms {
                    put_varu64(&mut buf, u64::from(g));
                }
            }
        }
        SECTION_CATALOG => {
            for g in &s.catalog[start..end] {
                put_game(&mut buf, g);
            }
        }
        _ => unreachable!("unknown section id {id}"),
    }
    buf
}

/// Magic, version, and shared header of a v3 file.
fn encode_v3_header(s: &Snapshot) -> BytesMut {
    let mut buf = BytesMut::with_capacity(32);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION_CHUNKED);
    put_vari64(&mut buf, s.collected_at.unix());
    put_varu64(&mut buf, s.scanned_id_space);
    buf
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

/// Serializes a snapshot into the chunked v3 container in memory, encoding
/// chunks on up to `jobs` workers. Byte-identical for every `jobs >= 1`, and
/// to what [`write_snapshot_v3`] streams to disk.
pub fn encode_snapshot_v3(s: &Snapshot, jobs: usize) -> Bytes {
    encode_snapshot_v3_caps(s, jobs, default_chunk_cap)
}

pub(crate) fn encode_snapshot_v3_caps(s: &Snapshot, jobs: usize, cap: fn(u8) -> u64) -> Bytes {
    let specs = v3_chunk_specs(s, cap);
    let payloads = map_parallel(jobs, specs.len(), |i| {
        let (id, start, end) = specs[i];
        let payload = encode_v3_chunk_payload(s, id, start, end);
        let sum = checksum32(&payload);
        (payload, sum)
    });

    let body: usize = payloads.iter().map(|(p, _)| p.len() + 24).sum();
    let mut buf = BytesMut::with_capacity(body + 64);
    buf.put_slice(&encode_v3_header(s));
    let header_sum = checksum32(&buf);

    let mut dirs: Vec<SectionDir> = SECTION_IDS
        .iter()
        .map(|&id| SectionDir {
            id,
            cap: cap(id).max(1),
            total_records: section_records(s, id) as u64,
            chunks: Vec::new(),
        })
        .collect();
    for (i, (payload, sum)) in payloads.iter().enumerate() {
        let (id, start, end) = specs[i];
        dirs[id as usize].chunks.push(ChunkEntry {
            offset: buf.len() as u64,
            len: payload.len() as u64,
            n_records: (end - start) as u64,
            sum: *sum,
        });
        buf.put_u8(id);
        put_varu64(&mut buf, (end - start) as u64);
        put_varu64(&mut buf, payload.len() as u64);
        buf.put_u32_le(*sum);
        buf.put_slice(payload);
    }

    let trailer_offset = buf.len() as u64;
    append_v3_trailer(&mut buf, &dirs, header_sum, trailer_offset);
    buf.freeze()
}

/// Writes a snapshot in the chunked v3 container without ever materializing
/// the full encoding: chunks are encoded in bounded parallel windows and
/// streamed to a sibling temp file, then fsync + rename as in
/// [`write_atomic`]. Output bytes are identical to [`encode_snapshot_v3`]
/// for any `jobs`.
pub fn write_snapshot_v3(
    path: &std::path::Path,
    s: &Snapshot,
    jobs: usize,
) -> Result<(), ModelError> {
    use std::io::Write;
    let tmp = temp_sibling(path);
    let written = (|| -> Result<(), ModelError> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        let header = encode_v3_header(s);
        let header_sum = checksum32(&header);
        f.write_all(&header)?;
        let mut offset = header.len() as u64;

        let specs = v3_chunk_specs(s, default_chunk_cap);
        let mut dirs: Vec<SectionDir> = SECTION_IDS
            .iter()
            .map(|&id| SectionDir {
                id,
                cap: default_chunk_cap(id),
                total_records: section_records(s, id) as u64,
                chunks: Vec::new(),
            })
            .collect();

        // Encode a window of chunks in parallel, drain it to disk, repeat —
        // peak transient memory is one window of encoded chunks, not the file.
        let window = jobs.max(1) * 4;
        let mut i = 0;
        while i < specs.len() {
            let end = (i + window).min(specs.len());
            let encoded = map_parallel(jobs, end - i, |j| {
                let (id, start, stop) = specs[i + j];
                let payload = encode_v3_chunk_payload(s, id, start, stop);
                let sum = checksum32(&payload);
                (payload, sum)
            });
            for (j, (payload, sum)) in encoded.iter().enumerate() {
                let (id, start, stop) = specs[i + j];
                let mut hdr = BytesMut::with_capacity(24);
                hdr.put_u8(id);
                put_varu64(&mut hdr, (stop - start) as u64);
                put_varu64(&mut hdr, payload.len() as u64);
                hdr.put_u32_le(*sum);
                f.write_all(&hdr)?;
                f.write_all(payload)?;
                dirs[id as usize].chunks.push(ChunkEntry {
                    offset,
                    len: payload.len() as u64,
                    n_records: (stop - start) as u64,
                    sum: *sum,
                });
                offset += hdr.len() as u64 + payload.len() as u64;
            }
            i = end;
        }

        let mut trailer = BytesMut::with_capacity(64 + specs.len() * 24);
        append_v3_trailer(&mut trailer, &dirs, header_sum, offset);
        f.write_all(&trailer)?;
        let f = f.into_inner().map_err(|e| err(format!("snapshot flush failed: {e}")))?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = written {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    fsync_parent(path);
    Ok(())
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
            if offset != pos {
                return Err(err(format!(
                    "{} section chunk {k} at offset {pos}, directory says {offset}",
                    section_name(id)
                )));
            }
            pos += 1 + varu64_len(n_records) + varu64_len(len) + 4 + len;
            if pos > trailer_offset {
                return Err(err(format!(
                    "{} section chunk {k} overruns the trailer",
                    section_name(id)
                )));
            }
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
    let out = (|| -> Result<Section, ModelError> {
        Ok(match id {
            SECTION_ACCOUNTS => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(get_account(&mut buf)?);
                }
                Section::Accounts(v)
            }
            SECTION_FRIENDSHIPS => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    let a = u32::try_from(get_varu64(&mut buf)?)
                        .map_err(|_| err("edge endpoint"))?;
                    let b = u32::try_from(get_varu64(&mut buf)?)
                        .map_err(|_| err("edge endpoint"))?;
                    let created_at = SimTime::from_unix(get_vari64(&mut buf)?);
                    v.push(Friendship { a, b, created_at });
                }
                Section::Friendships(v)
            }
            SECTION_OWNERSHIPS => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    let m = get_len(&mut buf, 3, "owned game")?;
                    let mut lib = Vec::with_capacity(m);
                    for _ in 0..m {
                        let app_id = AppId(
                            u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("app id"))?,
                        );
                        let forever =
                            u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("playtime"))?;
                        let two_weeks =
                            u32::try_from(get_varu64(&mut buf)?).map_err(|_| err("playtime"))?;
                        lib.push(OwnedGame {
                            app_id,
                            playtime_forever_min: forever,
                            playtime_2weeks_min: two_weeks,
                        });
                    }
                    v.push(lib);
                }
                Section::Ownerships(v)
            }
            SECTION_GROUPS => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(get_group(&mut buf)?);
                }
                Section::Groups(v)
            }
            SECTION_MEMBERSHIPS => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    let m = get_len(&mut buf, 1, "membership")?;
                    let mut ms = Vec::with_capacity(m);
                    for _ in 0..m {
                        ms.push(
                            u32::try_from(get_varu64(&mut buf)?)
                                .map_err(|_| err("group index"))?,
                        );
                    }
                    v.push(ms);
                }
                Section::Memberships(v)
            }
            SECTION_CATALOG => {
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(get_game(&mut buf)?);
                }
                Section::Catalog(v)
            }
            _ => return Err(err(format!("unknown section id {id}"))),
        })
    })();
    let out = out.map_err(|e| err(format!("{} section chunk {k}: {e}", section_name(id))))?;
    if buf.has_remaining() {
        return Err(err(format!(
            "{} trailing bytes in {} section chunk {k}",
            buf.remaining(),
            section_name(id)
        )));
    }
    Ok(out)
}

/// Decodes a v3 container from the *full* buffer (magic included), fanning
/// chunk verification + decoding out over up to `jobs` workers.
fn decode_snapshot_v3(full: Bytes, jobs: usize) -> Result<Snapshot, ModelError> {
    let total = full.len();
    if total < 5 + 8 + 9 {
        return Err(err("chunked snapshot too short"));
    }
    let (collected_at, scanned_id_space, first_chunk) =
        parse_v3_header(full.slice(..total.min(64)))?;
    let trailer_offset = {
        let mut tail = full.slice(total - 8..);
        usize::try_from(tail.get_u64_le()).map_err(|_| err("trailer offset overflow"))?
    };
    if trailer_offset < first_chunk || trailer_offset > total - 8 {
        return Err(err("trailer offset out of bounds"));
    }
    let dir = parse_v3_directory(
        full.slice(trailer_offset..total - 8),
        first_chunk as u64,
        trailer_offset as u64,
    )?;
    if checksum32(&full[..first_chunk]) != dir.header_sum {
        return Err(err("checksum mismatch in snapshot header"));
    }

    let chunks: Vec<(u8, usize, ChunkEntry)> = dir
        .sections
        .iter()
        .flat_map(|d| d.chunks.iter().enumerate().map(|(k, &c)| (d.id, k, c)))
        .collect();
    let decoded = map_parallel(jobs, chunks.len(), |i| {
        let (id, k, e) = chunks[i];
        let frame_start = e.offset as usize;
        let hdr_len = parse_v3_chunk_header(
            &full[frame_start..trailer_offset.min(frame_start + 32)],
            id,
            k,
            &e,
        )?;
        let payload = &full[frame_start + hdr_len..frame_start + hdr_len + e.len as usize];
        if checksum32(payload) != e.sum {
            return Err(err(format!(
                "checksum mismatch in {} section chunk {k}",
                section_name(id)
            )));
        }
        decode_v3_chunk(id, k, e.n_records as usize, payload)
    });

    let mut accounts = Vec::with_capacity(dir.sections[0].total_records as usize);
    let mut friendships = Vec::with_capacity(dir.sections[1].total_records as usize);
    let mut ownerships = Vec::with_capacity(dir.sections[2].total_records as usize);
    let mut groups = Vec::with_capacity(dir.sections[3].total_records as usize);
    let mut memberships = Vec::with_capacity(dir.sections[4].total_records as usize);
    let mut catalog = Vec::with_capacity(dir.sections[5].total_records as usize);
    for chunk in decoded {
        match chunk? {
            Section::Accounts(v) => accounts.extend(v),
            Section::Friendships(v) => friendships.extend(v),
            Section::Ownerships(v) => ownerships.extend(v),
            Section::Groups(v) => groups.extend(v),
            Section::Memberships(v) => memberships.extend(v),
            Section::Catalog(v) => catalog.extend(v),
        }
    }
    if ownerships.len() != accounts.len() || memberships.len() != accounts.len() {
        return Err(err(format!(
            "per-account sections disagree: {} accounts, {} libraries, {} membership lists",
            accounts.len(),
            ownerships.len(),
            memberships.len()
        )));
    }

    Ok(Snapshot {
        collected_at,
        scanned_id_space,
        accounts,
        friendships,
        ownerships,
        groups,
        memberships,
        catalog,
    })
}

/// Reads just the magic + version byte of a snapshot file, without loading
/// or validating the body — how callers decide between the streaming
/// [`SnapshotReader`](crate::reader) (v3) and a full decode (v1/v2).
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

/// Writes a snapshot to a file atomically (temp + fsync + rename), so a
/// crash mid-write can never leave a truncated snapshot under `path`.
pub fn write_snapshot(path: &std::path::Path, s: &Snapshot) -> Result<(), ModelError> {
    write_atomic(path, &encode_snapshot(s))
}

/// Reads a snapshot from a file (either container version).
pub fn read_snapshot(path: &std::path::Path) -> Result<Snapshot, ModelError> {
    let raw = std::fs::read(path)?;
    decode_snapshot(Bytes::from(raw))
}

/// Writes a snapshot in the sectioned v2 container, encoding sections on up
/// to `jobs` workers; atomic like [`write_snapshot`].
pub fn write_snapshot_jobs(
    path: &std::path::Path,
    s: &Snapshot,
    jobs: usize,
) -> Result<(), ModelError> {
    write_atomic(path, &encode_snapshot_jobs(s, jobs))
}

/// Reads a snapshot from a file (either container version), decoding v2
/// sections on up to `jobs` workers.
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

    #[test]
    fn snapshot_round_trips() {
        let s = sample_snapshot();
        let bytes = encode_snapshot(&s);
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
        let mut raw = encode_snapshot(&sample_snapshot()).to_vec();
        raw[4] = 99;
        assert!(decode_snapshot(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let raw = encode_snapshot(&sample_snapshot());
        // Chopping the buffer at any point must produce an error, not a panic
        // or a silently-wrong snapshot.
        for cut in 0..raw.len() {
            let r = decode_snapshot(raw.slice(..cut));
            assert!(r.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut raw = encode_snapshot(&sample_snapshot()).to_vec();
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
    fn segment_round_trips() {
        let mut seg = new_segment();
        let payloads: Vec<&[u8]> = vec![b"", b"a", b"hello world", &[0xff; 300]];
        for p in &payloads {
            append_record(&mut seg, p);
        }
        let (records, clean) = decode_segment(seg.freeze()).unwrap();
        assert!(clean);
        assert_eq!(records.len(), payloads.len());
        for (r, p) in records.iter().zip(&payloads) {
            assert_eq!(&r[..], *p);
        }
    }

    #[test]
    fn empty_segment_is_clean() {
        let (records, clean) = decode_segment(new_segment().freeze()).unwrap();
        assert!(clean);
        assert!(records.is_empty());
    }

    #[test]
    fn segment_rejects_bad_header() {
        assert!(decode_segment(Bytes::from_static(b"NOPE\x01")).is_err());
        assert!(decode_segment(Bytes::from_static(b"CSE")).is_err());
        let mut seg = BytesMut::new();
        seg.put_slice(SEGMENT_MAGIC);
        seg.put_u8(99);
        assert!(decode_segment(seg.freeze()).is_err());
    }

    #[test]
    fn truncated_tail_salvages_whole_records() {
        let mut seg = new_segment();
        append_record(&mut seg, b"first");
        append_record(&mut seg, b"second");
        let full = seg.freeze();
        // Chopping anywhere inside the second record must still yield the
        // first, flagged unclean; never a panic or a hard error.
        let second_start = 5 + 1 + 4 + 5; // header + len + sum + "first"
        for cut in second_start + 1..full.len() {
            let (records, clean) = decode_segment(full.slice(..cut)).unwrap();
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(&records[0][..], b"first");
            assert!(!clean, "cut at {cut}");
        }
        let (records, clean) = decode_segment(full.clone()).unwrap();
        assert_eq!(records.len(), 2);
        assert!(clean);
    }

    #[test]
    fn checksum_mismatch_stops_decode() {
        let mut seg = new_segment();
        append_record(&mut seg, b"good");
        let flip_at = seg.len() - 1; // last payload byte of "good"
        append_record(&mut seg, b"tail");
        let mut raw = seg.freeze().to_vec();
        raw[flip_at] ^= 0x40;
        let (records, clean) = decode_segment(Bytes::from(raw)).unwrap();
        // The corrupted record and everything after it are dropped.
        assert!(records.is_empty());
        assert!(!clean);
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
        for jobs in [1, 4] {
            let bytes = encode_snapshot_jobs(&s, jobs);
            assert_eq!(bytes[4], VERSION_SECTIONED);
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
    fn sectioned_encode_is_jobs_invariant() {
        let s = sample_snapshot();
        let serial = encode_snapshot_jobs(&s, 1);
        let parallel = encode_snapshot_jobs(&s, 6);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn v1_remains_readable_through_the_dispatcher() {
        let s = sample_snapshot();
        let v1 = encode_snapshot(&s);
        let d = decode_snapshot_jobs(v1, 4).unwrap();
        assert_eq!(d.accounts, s.accounts);
        assert_eq!(d.ownerships, s.ownerships);
    }

    #[test]
    fn sectioned_rejects_truncation_anywhere() {
        let raw = encode_snapshot_jobs(&sample_snapshot(), 1);
        for cut in 0..raw.len() {
            let r = decode_snapshot(raw.slice(..cut));
            assert!(r.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn sectioned_rejects_corrupt_section_byte() {
        let clean = encode_snapshot_jobs(&sample_snapshot(), 1);
        // Flip every byte in turn; decode must error (never panic) except
        // when the flip lands somewhere genuinely immaterial — there is no
        // such place in this format, so all flips must fail.
        for at in 0..clean.len() {
            let mut raw = clean.to_vec();
            raw[at] ^= 0x01;
            let r = decode_snapshot(Bytes::from(raw));
            assert!(r.is_err(), "flip at {at} decoded successfully");
        }
    }

    #[test]
    fn sectioned_names_the_corrupt_section() {
        let s = sample_snapshot();
        let clean = encode_snapshot_jobs(&s, 1);
        // Corrupt one payload byte inside the catalog section (the last
        // section before the trailer) while keeping its framing intact:
        // recompute nothing, so the stored checksum no longer matches.
        let catalog_payload = encode_section_payload(&s, SECTION_CATALOG);
        let pos = clean
            .windows(catalog_payload.len())
            .position(|w| w == &catalog_payload[..])
            .expect("catalog payload not found");
        let mut raw = clean.to_vec();
        raw[pos + catalog_payload.len() - 1] ^= 0xff;
        let e = decode_snapshot(Bytes::from(raw)).unwrap_err();
        assert!(
            e.to_string().contains("catalog"),
            "error should name the damaged section: {e}"
        );
    }

    #[test]
    fn file_round_trip_sectioned() {
        let dir = std::env::temp_dir().join("steam-model-test-v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let s = sample_snapshot();
        write_snapshot_jobs(&path, &s, 4).unwrap();
        let d = read_snapshot_jobs(&path, 4).unwrap();
        assert_eq!(d.n_users(), s.n_users());
        // The generic reader handles v2 files too.
        let d2 = read_snapshot(&path).unwrap();
        assert_eq!(d2.n_users(), s.n_users());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("steam-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let s = sample_snapshot();
        write_snapshot(&path, &s).unwrap();
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
        let p1 = dir.join("v1.bin");
        let p2 = dir.join("v2.bin");
        let p3 = dir.join("v3.bin");
        write_snapshot(&p1, &s).unwrap();
        write_snapshot_jobs(&p2, &s, 1).unwrap();
        write_snapshot_v3(&p3, &s, 1).unwrap();
        assert_eq!(snapshot_file_version(&p1).unwrap(), VERSION);
        assert_eq!(snapshot_file_version(&p2).unwrap(), VERSION_SECTIONED);
        assert_eq!(snapshot_file_version(&p3).unwrap(), VERSION_CHUNKED);
        std::fs::remove_dir_all(&dir).ok();
    }
}
