//! Crash-safe checkpoint journal for the crawler.
//!
//! The paper's phase-2 harvest ran for six months; a crawl that long WILL be
//! interrupted, and restarting from scratch is not an option. This module
//! journals every unit of completed crawl work — phase-1 census batches,
//! per-user phase-2 harvests, group pages, the phase-3 app list and per-app
//! details — as tagged records in append-only segment files (the segment
//! codec lives in `steam_model::codec`: length-prefixed records with FNV-1a
//! per-record checksums).
//!
//! Each [`CheckpointStore`] session ([`create`](CheckpointStore::create) or
//! [`resume`](CheckpointStore::resume)) writes one segment, kept open from
//! its first flush to the end of the session. A flush appends the buffered
//! records after the last acknowledged byte with one write and one
//! `fdatasync`; acknowledged bytes are never rewritten, so a crash can leave
//! only a torn tail on the open segment.
//!
//! A resumed crawl replays the journal first ([`CheckpointStore::resume`]),
//! turns it into a [`Replay`] index, and re-fetches only what is missing.
//! Damage tolerance is strictly tail-shaped: a torn or corrupt record drops
//! itself and everything after it (progress lost, correctness kept), never
//! anything before it.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/seg-00000000.log     "CSEG" u8(version) record*   (session 0)
//! <dir>/seg-00000001.log     record = varu64(len) u32le(fnv1a) payload
//! ...                        (one segment per session)
//! ```
//!
//! Each record payload is a tag byte followed by tag-specific fields encoded
//! with the snapshot codec's varint primitives.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use steam_model::codec::{
    append_record, decode_segment, get_account, get_friends, get_game, get_group, get_group_ids,
    get_library, get_list, get_u32, get_varu64, new_segment, put_account, put_friends, put_game,
    put_group, put_group_ids, put_library, put_list, put_varu64, write_atomic,
};
use steam_model::{Account, AppId, Game, Group, GroupId, ModelError, OwnedGame, SimTime, SteamId};
use steam_net::NetError;
use steam_obs::{obs_warn, Counter, Histogram};

/// Records appended to the journal after a fsync would survive the number of
/// in-memory records below; a crash loses at most this tail.
const DEFAULT_FLUSH_EVERY: usize = 32;

const TAG_CENSUS_BATCH: u8 = 1;
const TAG_CENSUS_COMPLETE: u8 = 2;
const TAG_USER: u8 = 3;
const TAG_GROUP_PAGE: u8 = 4;
const TAG_APP_LIST: u8 = 5;
const TAG_APP: u8 = 6;

/// The phase-2 outputs for one account, exactly as fetched (friends are kept
/// raw — filtering against the census index happens at assembly time, so a
/// replayed user and a freshly fetched one take the same code path).
#[derive(Clone, Debug, PartialEq)]
pub struct UserRecord {
    /// Dense index of the account in the census ordering.
    pub index: u32,
    /// Raw friend list: `(friend steam id, friends-since)`.
    pub friends: Vec<(SteamId, SimTime)>,
    pub games: Vec<OwnedGame>,
    pub groups: Vec<GroupId>,
}

/// One unit of completed crawl work, as journaled. The crawler journals
/// what it fetched by reference ([`Cow::Borrowed`]); a decoded record owns
/// its data.
#[derive(Clone, Debug, PartialEq)]
pub enum Record<'a> {
    /// A phase-1 census batch (possibly empty — empty batches drive the
    /// stop condition, so they are progress too).
    CensusBatch { start_index: u64, accounts: Cow<'a, [Account]> },
    /// The census finished; `scanned_id_space` is its result.
    CensusComplete { scanned_id_space: u64 },
    /// One account fully harvested (friends + games + groups all fetched).
    User(Cow<'a, UserRecord>),
    /// One group's community page.
    GroupPage(Cow<'a, Group>),
    /// The phase-3 app list.
    AppList(Cow<'a, [AppId]>),
    /// One app's details + achievement percentages.
    App(Cow<'a, Game>),
}

fn err(msg: impl Into<String>) -> ModelError {
    ModelError::Codec(msg.into())
}

impl Record<'_> {
    /// Appends the record's segment payload to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Record::CensusBatch { start_index, accounts } => {
                buf.put_u8(TAG_CENSUS_BATCH);
                put_varu64(buf, *start_index);
                put_list(buf, accounts, put_account);
            }
            Record::CensusComplete { scanned_id_space } => {
                buf.put_u8(TAG_CENSUS_COMPLETE);
                put_varu64(buf, *scanned_id_space);
            }
            Record::User(u) => {
                buf.put_u8(TAG_USER);
                put_varu64(buf, u64::from(u.index));
                put_friends(buf, &u.friends);
                put_library(buf, &u.games);
                put_group_ids(buf, &u.groups);
            }
            Record::GroupPage(g) => {
                buf.put_u8(TAG_GROUP_PAGE);
                put_group(buf, g);
            }
            Record::AppList(apps) => {
                buf.put_u8(TAG_APP_LIST);
                put_list(buf, apps, |buf, a| put_varu64(buf, u64::from(a.0)));
            }
            Record::App(game) => {
                buf.put_u8(TAG_APP);
                put_game(buf, game);
            }
        }
    }

    /// Decodes a segment payload written by [`encode_into`](Self::encode_into).
    pub fn decode(mut payload: Bytes) -> Result<Record<'static>, ModelError> {
        if !payload.has_remaining() {
            return Err(err("empty checkpoint record"));
        }
        let tag = payload.get_u8();
        let rec = match tag {
            TAG_CENSUS_BATCH => {
                let start_index = get_varu64(&mut payload)?;
                let accounts = get_list(&mut payload, 7, "account", get_account)?.into();
                Record::CensusBatch { start_index, accounts }
            }
            TAG_CENSUS_COMPLETE => {
                Record::CensusComplete { scanned_id_space: get_varu64(&mut payload)? }
            }
            TAG_USER => Record::User(Cow::Owned(UserRecord {
                index: get_u32(&mut payload, "user index overflow")?,
                friends: get_friends(&mut payload)?,
                games: get_library(&mut payload)?,
                groups: get_group_ids(&mut payload)?,
            })),
            TAG_GROUP_PAGE => Record::GroupPage(Cow::Owned(get_group(&mut payload)?)),
            TAG_APP_LIST => Record::AppList(
                get_list(&mut payload, 1, "app", |buf| Ok(AppId(get_u32(buf, "app id")?)))?
                    .into(),
            ),
            TAG_APP => Record::App(Cow::Owned(get_game(&mut payload)?)),
            other => return Err(err(format!("unknown checkpoint record tag {other}"))),
        };
        if payload.has_remaining() {
            return Err(err("trailing bytes in checkpoint record"));
        }
        Ok(rec)
    }
}

/// Everything a resumed crawl already knows, indexed for O(1) "is this unit
/// of work done?" lookups.
#[derive(Default)]
pub struct Replay {
    /// Census batches by starting ID index.
    pub census_batches: BTreeMap<u64, Vec<Account>>,
    /// `Some(scanned_id_space)` when the census ran to completion.
    pub census_complete: Option<u64>,
    /// Fully harvested users by census index.
    pub users: HashMap<u32, UserRecord>,
    pub groups: HashMap<GroupId, Group>,
    pub app_list: Option<Vec<AppId>>,
    pub apps: HashMap<AppId, Game>,
}

impl Replay {
    fn absorb(&mut self, rec: Record<'_>) {
        match rec {
            Record::CensusBatch { start_index, accounts } => {
                self.census_batches.insert(start_index, accounts.into_owned());
            }
            Record::CensusComplete { scanned_id_space } => {
                self.census_complete = Some(scanned_id_space);
            }
            Record::User(u) => {
                self.users.insert(u.index, u.into_owned());
            }
            Record::GroupPage(g) => {
                self.groups.insert(g.id, g.into_owned());
            }
            Record::AppList(apps) => self.app_list = Some(apps.into_owned()),
            Record::App(game) => {
                self.apps.insert(game.app_id, game.into_owned());
            }
        }
    }

    /// Total replayed records (drives `crawl_resume_skipped_total`).
    pub fn len(&self) -> usize {
        self.census_batches.len()
            + usize::from(self.census_complete.is_some())
            + self.users.len()
            + self.groups.len()
            + usize::from(self.app_list.is_some())
            + self.apps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn storage_err(context: &str, e: impl std::fmt::Display) -> NetError {
    NetError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("checkpoint {context}: {e}"),
    ))
}

/// The journal writer for one session. It encodes each appended record
/// into a reused buffer and flushes the buffer every 32 records
/// ([`with_flush_every`](Self::with_flush_every)) and on
/// [`flush`](Self::flush), which the crawler calls on every exit path,
/// success or error.
///
/// A session writes one segment, the next in the sequence. Its first flush
/// creates the file with `create_new` and syncs the directory, so the new
/// entry is durable before that flush returns; the file then stays open.
/// Every flush is one write at the last acknowledged byte plus one
/// `sync_data`, and when it returns `Ok` every appended record is on disk.
/// A failed write or sync cuts the segment back to the acknowledged length
/// and keeps the records buffered, so the next flush writes them again at
/// that offset.
pub struct CheckpointStore {
    dir: PathBuf,
    /// Sequence number of this session's segment.
    seq: u64,
    /// The session's segment, open from its first flush on.
    file: Option<File>,
    /// Length of the segment acknowledged by the last successful flush.
    acked: u64,
    /// Bytes not yet acknowledged: the segment header until the first
    /// flush succeeds, then framed records.
    buf: BytesMut,
    /// One record's payload, encoded here before it is framed into `buf`.
    payload: BytesMut,
    pending: usize,
    flush_every: usize,
    records_total: Option<Arc<Counter>>,
    flush_duration: Option<Arc<Histogram>>,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.log"))
}

/// Sorted sequence numbers of the segment files present in `dir`.
fn segment_seqs(dir: &Path) -> Result<Vec<u64>, NetError> {
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name.strip_prefix("seg-").and_then(|r| r.strip_suffix(".log")) {
            if let Ok(seq) = seq.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// Creates segment `seq` in `dir` and syncs the directory, so the new entry
/// survives a crash. If the sync fails the file is removed again, and the
/// next flush creates it afresh.
fn create_segment(dir: &Path, seq: u64) -> std::io::Result<File> {
    let path = segment_path(dir, seq);
    let file = OpenOptions::new().write(true).create_new(true).open(&path)?;
    if let Err(e) = File::open(dir).and_then(|d| d.sync_all()) {
        std::fs::remove_file(&path).ok();
        return Err(e);
    }
    Ok(file)
}

impl CheckpointStore {
    /// A session that writes segment `seq` of the journal in `dir`.
    fn session(dir: &Path, seq: u64) -> CheckpointStore {
        CheckpointStore {
            dir: dir.to_path_buf(),
            seq,
            file: None,
            acked: 0,
            buf: new_segment(),
            payload: BytesMut::with_capacity(64),
            pending: 0,
            flush_every: DEFAULT_FLUSH_EVERY,
            records_total: None,
            flush_duration: None,
        }
    }

    /// Starts a fresh journal in `dir`, deleting any previous segments.
    pub fn create(dir: &Path) -> Result<CheckpointStore, NetError> {
        std::fs::create_dir_all(dir)?;
        for seq in segment_seqs(dir)? {
            std::fs::remove_file(segment_path(dir, seq))?;
        }
        Ok(CheckpointStore::session(dir, 0))
    }

    /// Opens an existing journal in `dir` and replays it. Replay stops at
    /// the first damaged record or segment (tail-tolerance): the records
    /// before the damage are rewritten as that segment, segments after it
    /// are discarded, and this session's segment continues the sequence.
    pub fn resume(dir: &Path) -> Result<(CheckpointStore, Replay), NetError> {
        std::fs::create_dir_all(dir)?;
        let mut replay = Replay::default();
        let seqs = segment_seqs(dir)?;
        let mut next_seq = 0;
        let mut damaged = false;
        for &seq in &seqs {
            if damaged || seq != next_seq {
                // Tail past damage (or a gap in the sequence, which can only
                // mean damage): discard, it may reference lost state.
                obs_warn!("checkpoint", "discarding orphaned segment {seq:08}");
                std::fs::remove_file(segment_path(dir, seq))?;
                continue;
            }
            let raw = std::fs::read(segment_path(dir, seq))?;
            match decode_segment(Bytes::from(raw)) {
                Ok((payloads, clean)) => {
                    let mut good = 0;
                    for payload in &payloads {
                        match Record::decode(payload.clone()) {
                            Ok(rec) => replay.absorb(rec),
                            Err(e) => {
                                obs_warn!(
                                    "checkpoint",
                                    "segment {seq:08}: undecodable record ({e}); dropping tail"
                                );
                                break;
                            }
                        }
                        good += 1;
                    }
                    if !clean || good < payloads.len() {
                        obs_warn!("checkpoint", "segment {seq:08} has a damaged tail");
                        damaged = true;
                        if good == 0 {
                            std::fs::remove_file(segment_path(dir, seq))?;
                            continue;
                        }
                        // Rewrite the records before the damage as segment
                        // `seq`, so a second interruption cannot lose them.
                        let mut salvaged = new_segment();
                        for payload in &payloads[..good] {
                            append_record(&mut salvaged, payload);
                        }
                        write_atomic(&segment_path(dir, seq), &salvaged)
                            .map_err(|e| storage_err("salvage", e))?;
                    }
                }
                Err(e) => {
                    obs_warn!("checkpoint", "segment {seq:08} unreadable ({e}); dropping");
                    damaged = true;
                    std::fs::remove_file(segment_path(dir, seq))?;
                    continue;
                }
            }
            next_seq = seq + 1;
        }
        Ok((CheckpointStore::session(dir, next_seq), replay))
    }

    /// Attaches the `crawl_checkpoint_records_total` counter (one per
    /// appended record) and the `crawl_checkpoint_flush_duration_seconds`
    /// histogram (one sample per flush that writes).
    pub fn with_metrics(
        mut self,
        records_total: Arc<Counter>,
        flush_duration: Arc<Histogram>,
    ) -> CheckpointStore {
        self.records_total = Some(records_total);
        self.flush_duration = Some(flush_duration);
        self
    }

    /// Overrides how many buffered records trigger an automatic flush.
    pub fn with_flush_every(mut self, n: usize) -> CheckpointStore {
        self.flush_every = n.max(1);
        self
    }

    /// Appends a record; flushes automatically every `flush_every` records.
    pub fn append(&mut self, rec: &Record<'_>) -> Result<(), NetError> {
        self.payload.clear();
        rec.encode_into(&mut self.payload);
        append_record(&mut self.buf, &self.payload);
        self.pending += 1;
        if let Some(c) = &self.records_total {
            c.inc();
        }
        if self.pending >= self.flush_every {
            self.flush()?;
        }
        Ok(())
    }

    /// Appends the buffered records to the session's segment and syncs
    /// them. No-op when nothing is buffered.
    pub fn flush(&mut self) -> Result<(), NetError> {
        if self.pending == 0 {
            return Ok(());
        }
        let started = Instant::now();
        let written = self.write_buffered();
        if let Some(h) = &self.flush_duration {
            h.record_duration(started.elapsed());
        }
        written.map_err(|e| storage_err("flush", e))?;
        self.acked += self.buf.len() as u64;
        self.buf.clear();
        self.pending = 0;
        Ok(())
    }

    /// One write of `buf` at the last acknowledged byte, then one
    /// `sync_data`. The write goes to that offset, not to the file cursor:
    /// after a failure the records stay buffered, and the next flush writes
    /// them (and any appended since) over whatever part of them landed. A
    /// failed flush also cuts the segment back to the acknowledged length;
    /// if that cut fails as well, the segment holds what a crash mid-flush
    /// would leave, whole records that resume replays and a torn tail it
    /// drops.
    fn write_buffered(&mut self) -> std::io::Result<()> {
        if self.file.is_none() {
            self.file = Some(create_segment(&self.dir, self.seq)?);
        }
        let file = self.file.as_ref().expect("segment opened above");
        let written = file
            .write_all_at(&self.buf, self.acked)
            .and_then(|()| file.sync_data());
        if written.is_err() {
            file.set_len(self.acked).ok();
        }
        written
    }

    /// Records buffered in memory, not yet flushed to the segment.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steam_model::account::Visibility;
    use steam_model::codec::put_vari64;
    use steam_model::game::{Achievement, AppType, GenreSet};
    use steam_model::group::GroupKind;
    use steam_model::id::STEAM_ID_BASE;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("steam-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn encode(rec: &Record<'_>) -> Bytes {
        let mut buf = BytesMut::new();
        rec.encode_into(&mut buf);
        buf.freeze()
    }

    /// A segment holding `records`, as one session writes them.
    fn segment_of(records: &[Record<'_>]) -> Vec<u8> {
        let mut seg = new_segment();
        for rec in records {
            append_record(&mut seg, &encode(rec));
        }
        seg.to_vec()
    }

    /// The names of the files in `dir`, sorted.
    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn sample_account(i: u64) -> Account {
        Account {
            id: SteamId::from_index(i),
            created_at: SimTime::from_ymd(2010, 1, 1),
            visibility: Visibility::Public,
            country: None,
            city: None,
            level: 7,
            facebook_linked: false,
        }
    }

    fn sample_group(id: u32) -> Record<'static> {
        Record::GroupPage(Cow::Owned(Group {
            id: GroupId(id),
            kind: GroupKind::GameServer,
            name: "g".into(),
        }))
    }

    fn sample_records() -> Vec<Record<'static>> {
        vec![
            Record::CensusBatch {
                start_index: 0,
                accounts: vec![sample_account(0), sample_account(3)].into(),
            },
            Record::CensusBatch { start_index: 100, accounts: Vec::new().into() },
            Record::CensusComplete { scanned_id_space: 4 },
            Record::User(Cow::Owned(UserRecord {
                index: 1,
                friends: vec![(SteamId::from_index(0), SimTime::from_ymd(2012, 3, 4))],
                games: vec![OwnedGame {
                    app_id: AppId(10),
                    playtime_forever_min: 500,
                    playtime_2weeks_min: 20,
                }],
                groups: vec![GroupId(9)],
            })),
            sample_group(9),
            Record::AppList(vec![AppId(10), AppId(20)].into()),
            Record::App(Cow::Owned(Game {
                app_id: AppId(10),
                name: "A Game".into(),
                app_type: AppType::Game,
                genres: GenreSet::new(),
                price_cents: 999,
                multiplayer: true,
                release_date: SimTime::from_ymd(2009, 9, 9),
                metacritic: None,
                achievements: vec![Achievement {
                    name: "ach".into(),
                    global_completion_pct: 12.5,
                }],
            })),
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let back = Record::decode(encode(&rec)).unwrap();
            assert_eq!(back, rec, "round trip failed");
        }
    }

    #[test]
    fn record_decode_rejects_garbage() {
        assert!(Record::decode(Bytes::new()).is_err());
        assert!(Record::decode(Bytes::from_static(&[99, 1, 2, 3])).is_err());
        // Truncations of a real record error out rather than panic.
        let full = encode(&sample_records().pop().unwrap());
        for cut in 0..full.len() {
            assert!(Record::decode(full.slice(..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn journaled_friend_ids_decode_up_to_u64_max_and_fail_past_it() {
        // A user record with one friend, written as the raw index `friend`.
        let user = |friend: u64| {
            let mut buf = BytesMut::new();
            buf.put_u8(TAG_USER);
            put_varu64(&mut buf, 3); // user index
            put_varu64(&mut buf, 1); // friends
            put_varu64(&mut buf, friend);
            put_vari64(&mut buf, 0);
            put_varu64(&mut buf, 0); // games
            put_varu64(&mut buf, 0); // groups
            buf.freeze()
        };
        let last = u64::MAX - STEAM_ID_BASE;
        match Record::decode(user(last)).unwrap() {
            Record::User(u) => assert_eq!(u.friends[0].0.as_u64(), u64::MAX),
            other => panic!("decoded {other:?}"),
        }
        for friend in [last + 1, u64::MAX] {
            let decoded = Record::decode(user(friend));
            assert!(matches!(decoded, Err(ModelError::InvalidSteamId(_))), "{decoded:?}");
        }
    }

    #[test]
    fn crafted_record_length_ends_replay_at_the_records_before_it() {
        for len in [u64::MAX, u64::MAX - 1, u64::MAX - 3] {
            let d = dir("crafted");
            let mut store = CheckpointStore::create(&d).unwrap().with_flush_every(3);
            for rec in sample_records() {
                store.append(&rec).unwrap();
            }
            store.flush().unwrap();
            // The session's segment (holding all 7 records) ends in a
            // record whose length runs past the end of any file.
            let path = segment_path(&d, 0);
            let mut raw = BytesMut::new();
            raw.put_slice(&std::fs::read(&path).unwrap());
            put_varu64(&mut raw, len);
            raw.put_u32_le(0);
            raw.put_slice(b"tail");
            std::fs::write(&path, &raw[..]).unwrap();

            let (_store, replay) = CheckpointStore::resume(&d).unwrap();
            assert_eq!(replay.len(), 7, "length {len}");
            assert!(replay.apps.contains_key(&AppId(10)), "length {len}");
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn store_round_trips_through_segments() {
        let d = dir("roundtrip");
        let records_total = Arc::new(Counter::new());
        let flushes = Arc::new(Histogram::new());
        let mut store = CheckpointStore::create(&d)
            .unwrap()
            .with_flush_every(3)
            .with_metrics(Arc::clone(&records_total), Arc::clone(&flushes));
        let records = sample_records();
        for rec in &records {
            store.append(rec).unwrap();
        }
        store.flush().unwrap();
        // An empty buffer writes nothing and records no flush.
        store.flush().unwrap();
        assert_eq!(store.pending(), 0);
        // 7 records at flush-every-3 → 3 flushes into the session's one
        // segment file, which holds the header and every record once.
        assert_eq!(records_total.get(), 7);
        assert_eq!(flushes.count(), 3);
        assert_eq!(file_names(&d), ["seg-00000000.log"]);
        assert_eq!(std::fs::read(segment_path(&d, 0)).unwrap(), segment_of(&records));

        let (_store2, replay) = CheckpointStore::resume(&d).unwrap();
        assert_eq!(replay.len(), 7);
        assert_eq!(replay.census_complete, Some(4));
        assert_eq!(replay.census_batches.len(), 2);
        assert_eq!(replay.users[&1].games.len(), 1);
        assert_eq!(replay.groups[&GroupId(9)].name, "g");
        assert_eq!(replay.app_list.as_deref(), Some(&[AppId(10), AppId(20)][..]));
        assert!(replay.apps.contains_key(&AppId(10)));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn resume_continues_the_sequence() {
        let d = dir("continue");
        let mut store = CheckpointStore::create(&d).unwrap();
        store.append(&Record::CensusComplete { scanned_id_space: 1 }).unwrap();
        store.flush().unwrap();
        let (mut store2, replay) = CheckpointStore::resume(&d).unwrap();
        assert_eq!(replay.len(), 1);
        store2.append(&Record::AppList(vec![AppId(1)].into())).unwrap();
        store2.flush().unwrap();
        assert_eq!(segment_seqs(&d).unwrap(), vec![0, 1]);
        let (_store3, replay) = CheckpointStore::resume(&d).unwrap();
        assert_eq!(replay.len(), 2);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_tail_loses_only_the_tail() {
        // What a crash can leave at the end of the open segment: its last
        // record cut short, or after the acknowledged bytes a record cut
        // mid-payload or a run of zeros (a size update that reached the disk
        // before the data did).
        let mut cut_record = BytesMut::new();
        append_record(&mut cut_record, &encode(&sample_group(77)));
        let cut_record = cut_record[..cut_record.len() - 2].to_vec();
        // (tear, flushes, bytes cut from the end, bytes appended, records kept)
        let tears = [
            ("last 3 bytes cut", 1, 3, Vec::new(), 6),
            ("last 3 bytes cut after two flushes", 2, 3, Vec::new(), 6),
            ("record cut mid-payload", 2, 0, cut_record, 7),
            ("run of zeros", 2, 0, vec![0u8; 64], 7),
        ];
        let records = sample_records();
        for (tear, flushes, cut, tail, kept) in tears {
            let d = dir("torn");
            let mut store = CheckpointStore::create(&d).unwrap();
            for (i, rec) in records.iter().enumerate() {
                store.append(rec).unwrap();
                if flushes == 2 && i == 2 {
                    store.flush().unwrap();
                }
            }
            store.flush().unwrap();
            let path = segment_path(&d, 0);
            let mut raw = std::fs::read(&path).unwrap();
            raw.truncate(raw.len() - cut);
            raw.extend_from_slice(&tail);
            std::fs::write(&path, &raw).unwrap();

            let (mut store2, replay) = CheckpointStore::resume(&d).unwrap();
            // Everything before the tear survives; the App is the last
            // record, so a cut into it loses it.
            assert_eq!(replay.len(), kept, "{tear}");
            assert_eq!(replay.census_complete, Some(4), "{tear}");
            assert_eq!(replay.apps.contains_key(&AppId(10)), kept == 7, "{tear}");
            // The damaged segment was rewritten as exactly the records kept.
            assert_eq!(std::fs::read(&path).unwrap(), segment_of(&records[..kept]), "{tear}");
            // The re-fetched records land in the next segment, and a second
            // resume replays all of them.
            for rec in records[kept..].iter().chain([&sample_group(78)]) {
                store2.append(rec).unwrap();
            }
            store2.flush().unwrap();
            assert_eq!(file_names(&d), ["seg-00000000.log", "seg-00000001.log"], "{tear}");
            let (_store3, replay) = CheckpointStore::resume(&d).unwrap();
            assert_eq!(replay.len(), 8, "{tear}");
            assert!(replay.apps.contains_key(&AppId(10)), "{tear}");
            assert!(replay.groups.contains_key(&GroupId(78)), "{tear}");
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn damaged_middle_segment_discards_later_ones() {
        let d = dir("middle");
        // Three sessions, one segment each.
        let mut store = CheckpointStore::create(&d).unwrap();
        store.append(&Record::CensusComplete { scanned_id_space: 1 }).unwrap();
        store.flush().unwrap();
        for rec in [Record::AppList(vec![AppId(1)].into()), sample_group(2)] {
            let (mut store, _replay) = CheckpointStore::resume(&d).unwrap();
            store.append(&rec).unwrap();
            store.flush().unwrap();
        }
        assert_eq!(segment_seqs(&d).unwrap(), vec![0, 1, 2]);
        // Corrupt the middle segment's body.
        let path = segment_path(&d, 1);
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();

        let (_store2, replay) = CheckpointStore::resume(&d).unwrap();
        // Only the first segment survives; seg 1 (corrupt) and seg 2
        // (after the damage) are discarded.
        assert_eq!(replay.len(), 1);
        assert_eq!(replay.census_complete, Some(1));
        assert!(replay.app_list.is_none());
        assert!(replay.groups.is_empty());
        assert_eq!(segment_seqs(&d).unwrap(), vec![0]);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn create_wipes_previous_journal() {
        let d = dir("wipe");
        let mut store = CheckpointStore::create(&d).unwrap();
        store.append(&Record::CensusComplete { scanned_id_space: 1 }).unwrap();
        store.flush().unwrap();
        let _store = CheckpointStore::create(&d).unwrap();
        assert!(segment_seqs(&d).unwrap().is_empty());
        let (_s, replay) = CheckpointStore::resume(&d).unwrap();
        assert!(replay.is_empty());
        std::fs::remove_dir_all(&d).ok();
    }
}
