//! Crash-safe checkpoint journal for the crawler.
//!
//! The paper's phase-2 harvest ran for six months; a crawl that long WILL be
//! interrupted, and restarting from scratch is not an option. This module
//! journals every unit of completed crawl work — phase-1 census batches,
//! per-user phase-2 harvests, group pages, the phase-3 app list and per-app
//! details — as tagged records in one append-only file, and it owns that
//! file's format: length-prefixed records, each guarded by an FNV-1a
//! checksum.
//!
//! Every [`CheckpointStore`] session appends to the journal's one file.
//! [`create`](CheckpointStore::create) starts it empty;
//! [`resume`](CheckpointStore::resume) replays it into a [`Replay`] index,
//! cuts a torn or damaged tail off in place, and appends after the last good
//! record, so the crawl re-fetches only what is missing. A flush appends the
//! buffered records after the last acknowledged byte with one write and one
//! `fdatasync`; acknowledged bytes are never rewritten, so a crash can leave
//! only a torn tail, which the next resume cuts. A session holds an advisory
//! lock on the file for its whole life, so a second session on the same
//! directory fails instead of interleaving its records with the first's.
//!
//! Damage tolerance is strictly tail-shaped: a torn or corrupt record drops
//! itself and everything after it (progress lost, correctness kept), never
//! anything before it.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/seg-00000000.log     "CSEG" u8(version) record*
//!                            record = varu64(len) u32le(fnv1a) payload
//! ```
//!
//! Each record payload is a tag byte followed by tag-specific fields encoded
//! with the snapshot codec's varint primitives.
//!
//! The file's name is kept for compatibility. Earlier builds wrote one file
//! per session (`seg-00000000.log`, then `seg-00000001.log` for the first
//! resumed session, and so on), so a journal such a build wrote in one
//! session is exactly this file and resumes unchanged. Files past the first
//! are neither read nor deleted: their records are fetched again, with the
//! same bytes.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{ErrorKind, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use steam_model::codec::{
    checksum32, get_account, get_friends, get_game, get_group, get_group_ids, get_library,
    get_list, get_u32, get_varu64, put_account, put_friends, put_game, put_group, put_group_ids,
    put_library, put_list, put_varu64,
};
use steam_model::{Account, AppId, Game, Group, GroupId, ModelError, OwnedGame, SimTime, SteamId};
use steam_net::NetError;
use steam_obs::{obs_warn, Counter, Histogram};

/// Records appended to the journal after a fsync would survive the number of
/// in-memory records below; a crash loses at most this tail.
const FLUSH_EVERY: usize = 32;

/// The journal's one file; the module doc gives the reason for its name.
const JOURNAL_FILE: &str = "seg-00000000.log";
/// Magic prefix of the journal file.
const SEGMENT_MAGIC: &[u8; 4] = b"CSEG";
/// Version byte following [`SEGMENT_MAGIC`].
const SEGMENT_VERSION: u8 = 1;

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
    CensusBatch {
        start_index: u64,
        accounts: Cow<'a, [Account]>,
    },
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
    ModelError::Journal(msg.into())
}

impl Record<'_> {
    /// Appends the record's segment payload to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Record::CensusBatch {
                start_index,
                accounts,
            } => {
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
    pub fn decode(payload: Bytes) -> Result<Record<'static>, ModelError> {
        // The fields are read with the snapshot codec's primitives, but a
        // record that does not decode is damage to the journal.
        Self::decode_fields(payload).map_err(|e| match e {
            ModelError::Codec(msg) => err(msg),
            e => e,
        })
    }

    fn decode_fields(mut payload: Bytes) -> Result<Record<'static>, ModelError> {
        if !payload.has_remaining() {
            return Err(err("empty checkpoint record"));
        }
        let tag = payload.get_u8();
        let rec = match tag {
            TAG_CENSUS_BATCH => {
                let start_index = get_varu64(&mut payload)?;
                let accounts = get_list(&mut payload, 7, "account", get_account)?.into();
                Record::CensusBatch {
                    start_index,
                    accounts,
                }
            }
            TAG_CENSUS_COMPLETE => Record::CensusComplete {
                scanned_id_space: get_varu64(&mut payload)?,
            },
            TAG_USER => Record::User(Cow::Owned(UserRecord {
                index: get_u32(&mut payload, "user index overflow")?,
                friends: get_friends(&mut payload)?,
                games: get_library(&mut payload)?,
                groups: get_group_ids(&mut payload)?,
            })),
            TAG_GROUP_PAGE => Record::GroupPage(Cow::Owned(get_group(&mut payload)?)),
            TAG_APP_LIST => Record::AppList(
                get_list(&mut payload, 1, "app", |buf| {
                    Ok(AppId(get_u32(buf, "app id")?))
                })?
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
            Record::CensusBatch {
                start_index,
                accounts,
            } => {
                self.census_batches
                    .insert(start_index, accounts.into_owned());
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
}

/// Starts a new, empty segment buffer (magic + version header).
fn new_segment() -> BytesMut {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_slice(SEGMENT_MAGIC);
    buf.put_u8(SEGMENT_VERSION);
    buf
}

/// Appends one record to a segment: varint payload length, `u32` LE FNV-1a
/// checksum of the payload, then the payload bytes.
fn append_record(seg: &mut BytesMut, payload: &[u8]) {
    put_varu64(seg, payload.len() as u64);
    seg.put_u32_le(checksum32(payload));
    seg.put_slice(payload);
}

/// Decodes a segment, handing each record's payload to `each` in file
/// order, and returns the byte length of its clean prefix: the header and
/// every record before the first whose length or checksum does not hold or
/// that `each` rejects.
///
/// A truncated or corrupt tail ends the scan instead of failing it — crash
/// recovery must keep everything before the tear. A bad header is a hard
/// error: nothing in the file can be trusted.
fn decode_segment(
    mut seg: Bytes,
    mut each: impl FnMut(Bytes) -> Result<(), ModelError>,
) -> Result<usize, ModelError> {
    let total = seg.len();
    if seg.remaining() < 5 || &seg.split_to(4)[..] != SEGMENT_MAGIC {
        return Err(err("bad segment magic"));
    }
    let version = seg.get_u8();
    if version != SEGMENT_VERSION {
        return Err(err(format!("unsupported segment version {version}")));
    }
    while seg.has_remaining() {
        // Probe on a clone: a torn record must not consume bytes from `seg`
        // before we know it is whole.
        let mut probe = seg.clone();
        let Ok(len) = get_varu64(&mut probe) else {
            break;
        };
        // `len` comes from the file: compare it without computing `4 + len`.
        if probe
            .remaining()
            .checked_sub(4)
            .is_none_or(|left| len > left as u64)
        {
            break;
        }
        let sum = probe.get_u32_le();
        let payload = probe.split_to(len as usize);
        if checksum32(&payload) != sum || each(payload).is_err() {
            break;
        }
        seg = probe;
    }
    Ok(total - seg.remaining())
}

fn storage_err(context: &str, e: impl std::fmt::Display) -> NetError {
    NetError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("checkpoint {context}: {e}"),
    ))
}

/// The journal writer for one session. It encodes each appended record
/// into a reused buffer and flushes the buffer every 32 records and on
/// [`flush`](Self::flush), which the crawler calls on every exit path,
/// success or error.
///
/// The session opens the journal's file when it starts and holds it open
/// and locked until it is dropped. Every flush is one write at the last
/// acknowledged byte plus one `sync_data`, and when it returns `Ok` every
/// appended record is on disk. A failed write or sync cuts the file back to
/// the acknowledged length and keeps the records buffered, so the next
/// flush writes them again at that offset.
pub struct CheckpointStore {
    /// The journal's file, locked for the session's life.
    file: File,
    /// Length of the file acknowledged by the last successful flush, or
    /// kept by resume.
    acked: u64,
    /// Bytes not yet acknowledged: in an empty file, the segment header
    /// until the first flush succeeds; then framed records.
    buf: BytesMut,
    /// One record's payload, encoded here before it is framed into `buf`.
    payload: BytesMut,
    pending: usize,
    records_total: Option<Arc<Counter>>,
    flush_duration: Option<Arc<Histogram>>,
}

/// Opens the journal's file in `dir`, creating both if absent, and locks it
/// for the session. The lock is an advisory `flock`, held until the file is
/// closed; while another session holds it, the open fails with
/// [`ErrorKind::WouldBlock`] and touches nothing. The directory is then
/// synced, so a new file's entry survives a crash.
fn open_locked(dir: &Path) -> Result<File, NetError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(JOURNAL_FILE);
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)?;
    file.try_lock().map_err(|e| match e {
        TryLockError::WouldBlock => NetError::Io(std::io::Error::new(
            ErrorKind::WouldBlock,
            format!(
                "checkpoint journal {} is in use by another session",
                path.display()
            ),
        )),
        TryLockError::Error(e) => e.into(),
    })?;
    File::open(dir)?.sync_all()?;
    Ok(file)
}

impl CheckpointStore {
    /// A session that appends to `file` after its first `keep` bytes. A
    /// longer file is cut to `keep` first, and the cut synced.
    fn session(file: File, keep: u64) -> Result<CheckpointStore, NetError> {
        if file.metadata()?.len() != keep {
            file.set_len(keep)?;
            file.sync_data()?;
        }
        Ok(CheckpointStore {
            file,
            acked: keep,
            buf: if keep == 0 {
                new_segment()
            } else {
                BytesMut::new()
            },
            payload: BytesMut::with_capacity(64),
            pending: 0,
            records_total: None,
            flush_duration: None,
        })
    }

    /// Starts a fresh journal in `dir`: its file, emptied.
    pub fn create(dir: &Path) -> Result<CheckpointStore, NetError> {
        CheckpointStore::session(open_locked(dir)?, 0)
    }

    /// Opens the journal in `dir` (an empty one if there is none) and
    /// replays it. Replay stops at the first record whose length, checksum
    /// or decode fails (tail tolerance): the file is cut in place to the
    /// records before it, and this session appends after them. A file whose
    /// header is damaged holds nothing to trust, so the journal starts
    /// afresh.
    pub fn resume(dir: &Path) -> Result<(CheckpointStore, Replay), NetError> {
        let mut file = open_locked(dir)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let len = raw.len();
        let mut replay = Replay::default();
        let scanned = decode_segment(Bytes::from(raw), |payload| {
            replay.absorb(Record::decode(payload)?);
            Ok(())
        });
        let keep = match scanned {
            Ok(clean) => {
                if clean < len {
                    obs_warn!(
                        "checkpoint",
                        "{JOURNAL_FILE} has a damaged tail; cutting its last {} bytes",
                        len - clean
                    );
                }
                clean
            }
            // No session has flushed to this journal yet.
            Err(_) if len == 0 => 0,
            Err(e) => {
                obs_warn!(
                    "checkpoint",
                    "{JOURNAL_FILE} unreadable ({e}); starting afresh"
                );
                0
            }
        };
        Ok((CheckpointStore::session(file, keep as u64)?, replay))
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

    /// Appends a record; flushes automatically every 32 records.
    pub fn append(&mut self, rec: &Record<'_>) -> Result<(), NetError> {
        self.payload.clear();
        rec.encode_into(&mut self.payload);
        append_record(&mut self.buf, &self.payload);
        self.pending += 1;
        if let Some(c) = &self.records_total {
            c.inc();
        }
        if self.pending >= FLUSH_EVERY {
            self.flush()?;
        }
        Ok(())
    }

    /// Appends the buffered records to the journal's file and syncs them.
    /// No-op when nothing is buffered.
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
    /// failed flush also cuts the file back to the acknowledged length; if
    /// that cut fails as well, the file holds what a crash mid-flush would
    /// leave, whole records that resume replays and a torn tail it cuts.
    fn write_buffered(&self) -> std::io::Result<()> {
        let written = self
            .file
            .write_all_at(&self.buf, self.acked)
            .and_then(|()| self.file.sync_data());
        if written.is_err() {
            self.file.set_len(self.acked).ok();
        }
        written
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

    impl Replay {
        /// Units of work replayed: one per census batch, harvested user,
        /// group page and app, plus one each for the census result and the
        /// app list. A unit journaled more than once counts once.
        fn len(&self) -> usize {
            self.census_batches.len()
                + usize::from(self.census_complete.is_some())
                + self.users.len()
                + self.groups.len()
                + usize::from(self.app_list.is_some())
                + self.apps.len()
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl CheckpointStore {
        /// Records buffered in memory, not yet flushed to the file.
        fn pending(&self) -> usize {
            self.pending
        }
    }

    fn dir(tag: &str) -> std::path::PathBuf {
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

    /// Decodes `seg`, collecting every record's payload, and returns them
    /// with the length of the clean prefix.
    fn decode_all(seg: Bytes) -> Result<(Vec<Bytes>, usize), ModelError> {
        let mut records = Vec::new();
        let clean = decode_segment(seg, |payload| {
            records.push(payload);
            Ok(())
        })?;
        Ok((records, clean))
    }

    /// The bytes of the journal's file in `dir`.
    fn journal(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join(JOURNAL_FILE)).unwrap()
    }

    /// Writes `records` to the journal in `dir`, each in a session of its
    /// own: a fresh one for the first record, a resumed one for the rest.
    fn one_session_each(dir: &Path, records: &[Record<'_>]) {
        for (i, rec) in records.iter().enumerate() {
            let mut store = if i == 0 {
                CheckpointStore::create(dir).unwrap()
            } else {
                let (store, replay) = CheckpointStore::resume(dir).unwrap();
                assert_eq!(replay.len(), i, "session {i} replays every earlier one");
                store
            };
            store.append(rec).unwrap();
            store.flush().unwrap();
        }
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
            Record::CensusBatch {
                start_index: 100,
                accounts: Vec::new().into(),
            },
            Record::CensusComplete {
                scanned_id_space: 4,
            },
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
            assert!(
                matches!(decoded, Err(ModelError::InvalidSteamId(_))),
                "{decoded:?}"
            );
        }
    }

    #[test]
    fn segment_round_trips() {
        let mut seg = new_segment();
        let payloads: Vec<&[u8]> = vec![b"", b"a", b"hello world", &[0xff; 300]];
        for p in &payloads {
            append_record(&mut seg, p);
        }
        let len = seg.len();
        let (records, clean) = decode_all(seg.freeze()).unwrap();
        assert_eq!(clean, len);
        assert_eq!(records.len(), payloads.len());
        for (r, p) in records.iter().zip(&payloads) {
            assert_eq!(&r[..], *p);
        }
    }

    #[test]
    fn empty_segment_is_clean() {
        let seg = new_segment();
        assert_eq!(&seg[..], b"CSEG\x01");
        let (records, clean) = decode_all(seg.freeze()).unwrap();
        assert_eq!(clean, 5);
        assert!(records.is_empty());
    }

    #[test]
    fn segment_rejects_bad_header() {
        assert!(decode_all(Bytes::from_static(b"NOPE\x01")).is_err());
        assert!(decode_all(Bytes::from_static(b"CSE")).is_err());
        assert!(decode_all(Bytes::new()).is_err());
        let mut seg = BytesMut::new();
        seg.put_slice(SEGMENT_MAGIC);
        seg.put_u8(99);
        assert!(decode_all(seg.freeze()).is_err());
    }

    #[test]
    fn journal_errors_name_the_journal() {
        // A bad header, and a user record cut off inside the snapshot codec's
        // varint reader.
        let header = decode_all(Bytes::from_static(b"NOPE\x01")).unwrap_err();
        let record = Record::decode(Bytes::from_static(&[TAG_USER])).unwrap_err();
        for e in [header, record] {
            let text = e.to_string();
            assert!(text.starts_with("checkpoint journal error: "), "{text}");
            assert!(!text.contains("snapshot"), "{text}");
        }
    }

    #[test]
    fn truncated_tail_salvages_whole_records() {
        let mut seg = new_segment();
        append_record(&mut seg, b"first");
        append_record(&mut seg, b"second");
        let full = seg.freeze();
        // Chopping anywhere inside the second record must still yield the
        // first, with the clean prefix ending where the second starts; never
        // a panic or a hard error.
        let second_start = 5 + 1 + 4 + 5; // header + len + sum + "first"
        for cut in second_start + 1..full.len() {
            let (records, clean) = decode_all(full.slice(..cut)).unwrap();
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(&records[0][..], b"first");
            assert_eq!(clean, second_start, "cut at {cut}");
        }
        let (records, clean) = decode_all(full.clone()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(clean, full.len());
    }

    #[test]
    fn checksum_mismatch_stops_decode() {
        let mut seg = new_segment();
        append_record(&mut seg, b"good");
        let flip_at = seg.len() - 1; // last payload byte of "good"
        append_record(&mut seg, b"tail");
        let mut raw = seg.freeze().to_vec();
        raw[flip_at] ^= 0x40;
        let (records, clean) = decode_all(Bytes::from(raw)).unwrap();
        // The corrupted record and everything after it are dropped.
        assert!(records.is_empty());
        assert_eq!(clean, 5);
    }

    #[test]
    fn crafted_record_lengths_end_the_segment() {
        for len in [u64::MAX, u64::MAX - 1, u64::MAX - 3] {
            let mut seg = new_segment();
            append_record(&mut seg, b"good");
            let good_end = seg.len();
            put_varu64(&mut seg, len);
            seg.put_u32_le(0);
            seg.put_slice(b"tail");
            let (records, clean) = decode_all(seg.freeze()).unwrap();
            assert_eq!(records.len(), 1, "length {len}");
            assert_eq!(&records[0][..], b"good");
            assert_eq!(clean, good_end, "length {len}");
        }
    }

    #[test]
    fn crafted_record_length_ends_replay_at_the_records_before_it() {
        let records = sample_records();
        for len in [u64::MAX, u64::MAX - 1, u64::MAX - 3] {
            let d = dir("crafted");
            let mut store = CheckpointStore::create(&d).unwrap();
            for rec in &records {
                store.append(rec).unwrap();
            }
            store.flush().unwrap();
            drop(store);
            // The journal (holding all 7 records) ends in a record whose
            // length runs past the end of any file.
            let mut raw = BytesMut::new();
            raw.put_slice(&journal(&d));
            put_varu64(&mut raw, len);
            raw.put_u32_le(0);
            raw.put_slice(b"tail");
            std::fs::write(d.join(JOURNAL_FILE), &raw[..]).unwrap();

            let (_store, replay) = CheckpointStore::resume(&d).unwrap();
            assert_eq!(replay.len(), 7, "length {len}");
            assert!(replay.apps.contains_key(&AppId(10)), "length {len}");
            assert_eq!(journal(&d), segment_of(&records), "length {len}");
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn store_round_trips_through_the_file() {
        let d = dir("roundtrip");
        let records_total = Arc::new(Counter::new());
        let flushes = Arc::new(Histogram::new());
        let mut store = CheckpointStore::create(&d)
            .unwrap()
            .with_metrics(Arc::clone(&records_total), Arc::clone(&flushes));
        let records = sample_records();
        for (i, rec) in records.iter().enumerate() {
            store.append(rec).unwrap();
            if i % 3 == 2 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        // An empty buffer writes nothing and records no flush.
        store.flush().unwrap();
        assert_eq!(store.pending(), 0);
        // 7 records flushed after the 3rd, the 6th and the 7th → 3 flushes
        // into the journal's one file, which holds the header and every
        // record once.
        assert_eq!(records_total.get(), 7);
        assert_eq!(flushes.count(), 3);
        assert_eq!(file_names(&d), ["seg-00000000.log"]);
        assert_eq!(journal(&d), segment_of(&records));
        drop(store);

        let (_store2, replay) = CheckpointStore::resume(&d).unwrap();
        assert_eq!(replay.len(), 7);
        assert_eq!(replay.census_complete, Some(4));
        assert_eq!(replay.census_batches.len(), 2);
        assert_eq!(replay.users[&1].games.len(), 1);
        assert_eq!(replay.groups[&GroupId(9)].name, "g");
        assert_eq!(
            replay.app_list.as_deref(),
            Some(&[AppId(10), AppId(20)][..])
        );
        assert!(replay.apps.contains_key(&AppId(10)));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn every_session_appends_to_the_one_file() {
        let d = dir("sessions");
        let records: Vec<Record<'static>> = (0..6).map(sample_group).collect();
        one_session_each(&d, &records);
        // Six sessions leave one file, byte for byte what one session
        // appending all six records writes.
        assert_eq!(file_names(&d), ["seg-00000000.log"]);
        assert_eq!(journal(&d), segment_of(&records));
        let (_store, replay) = CheckpointStore::resume(&d).unwrap();
        assert_eq!(replay.len(), 6);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_tail_loses_only_the_tail() {
        // What a crash can leave at the end of the file: its last record cut
        // short, or after the acknowledged bytes a record cut mid-payload or
        // a run of zeros (a size update that reached the disk before the
        // data did). A whole record that does not decode is damage too.
        let mut cut_record = BytesMut::new();
        append_record(&mut cut_record, &encode(&sample_group(77)));
        let cut_record = cut_record[..cut_record.len() - 2].to_vec();
        let mut unknown_tag = BytesMut::new();
        append_record(&mut unknown_tag, &[99]);
        // (tear, flushes, bytes cut from the end, bytes appended, records kept)
        let tears = [
            ("last 3 bytes cut", 1, 3, Vec::new(), 6),
            ("last 3 bytes cut after two flushes", 2, 3, Vec::new(), 6),
            ("record cut mid-payload", 2, 0, cut_record, 7),
            ("run of zeros", 2, 0, vec![0u8; 64], 7),
            ("record with an unknown tag", 2, 0, unknown_tag.to_vec(), 7),
        ];
        let records = sample_records();
        let mut refetched = records.clone();
        refetched.push(sample_group(78));
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
            drop(store);
            let path = d.join(JOURNAL_FILE);
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
            // The tail was cut in place, to exactly the records kept.
            assert_eq!(journal(&d), segment_of(&records[..kept]), "{tear}");
            // The re-fetched records land in the same file after them, and
            // a second resume replays all of them.
            for rec in &refetched[kept..] {
                store2.append(rec).unwrap();
            }
            store2.flush().unwrap();
            drop(store2);
            assert_eq!(file_names(&d), ["seg-00000000.log"], "{tear}");
            assert_eq!(journal(&d), segment_of(&refetched), "{tear}");
            let (_store3, replay) = CheckpointStore::resume(&d).unwrap();
            assert_eq!(replay.len(), 8, "{tear}");
            assert!(replay.apps.contains_key(&AppId(10)), "{tear}");
            assert!(replay.groups.contains_key(&GroupId(78)), "{tear}");
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn damage_in_a_middle_session_drops_it_and_later_ones() {
        let d = dir("middle");
        let records = [
            Record::CensusComplete {
                scanned_id_space: 1,
            },
            Record::AppList(vec![AppId(1)].into()),
            sample_group(2),
        ];
        one_session_each(&d, &records);
        // Flip the last byte of the second session's record.
        let mut raw = journal(&d);
        raw[segment_of(&records[..2]).len() - 1] ^= 0xff;
        std::fs::write(d.join(JOURNAL_FILE), &raw).unwrap();

        let (_store, replay) = CheckpointStore::resume(&d).unwrap();
        // Only the first session's record survives; the second (corrupt)
        // and the third (after the damage) are cut off.
        assert_eq!(replay.len(), 1);
        assert_eq!(replay.census_complete, Some(1));
        assert!(replay.app_list.is_none());
        assert!(replay.groups.is_empty());
        assert_eq!(journal(&d), segment_of(&records[..1]));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn create_wipes_previous_journal() {
        let d = dir("wipe");
        one_session_each(
            &d,
            &[Record::CensusComplete {
                scanned_id_space: 1,
            }],
        );
        let store = CheckpointStore::create(&d).unwrap();
        // A fresh journal's header goes out with its first flush.
        assert_eq!(file_names(&d), ["seg-00000000.log"]);
        assert!(journal(&d).is_empty());
        drop(store);
        let (_s, replay) = CheckpointStore::resume(&d).unwrap();
        assert!(replay.is_empty());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_second_live_session_is_refused_and_leaves_the_file_alone() {
        let d = dir("lock");
        let mut first = CheckpointStore::create(&d).unwrap();
        first
            .append(&Record::CensusComplete {
                scanned_id_space: 1,
            })
            .unwrap();
        first.flush().unwrap();
        let before = journal(&d);
        for second in [
            CheckpointStore::create(&d).err(),
            CheckpointStore::resume(&d).err(),
        ] {
            match second {
                Some(NetError::Io(e)) => assert_eq!(e.kind(), ErrorKind::WouldBlock, "{e}"),
                other => panic!("a second session opened the journal: {other:?}"),
            }
        }
        assert_eq!(journal(&d), before);
        // The first session goes on appending, and once it has ended the
        // next session replays both records.
        first.append(&sample_group(5)).unwrap();
        first.flush().unwrap();
        drop(first);
        let (_store, replay) = CheckpointStore::resume(&d).unwrap();
        assert_eq!(replay.len(), 2);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_one_session_journal_of_an_older_build_resumes_whole() {
        // Older builds wrote one file per session. A journal written in one
        // session is this module's file, byte for byte; the files a resumed
        // one has past it are neither read nor deleted.
        let d = dir("older");
        std::fs::create_dir_all(&d).unwrap();
        let records = sample_records();
        std::fs::write(d.join("seg-00000000.log"), segment_of(&records)).unwrap();
        std::fs::write(d.join("seg-00000001.log"), segment_of(&[sample_group(3)])).unwrap();
        let (_store, replay) = CheckpointStore::resume(&d).unwrap();
        assert_eq!(replay.len(), 7);
        assert!(!replay.groups.contains_key(&GroupId(3)));
        assert_eq!(journal(&d), segment_of(&records));
        assert_eq!(file_names(&d), ["seg-00000000.log", "seg-00000001.log"]);
        std::fs::remove_dir_all(&d).ok();
    }
}
