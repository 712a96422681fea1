//! Streaming access to chunked (v3) snapshot files — the out-of-core path.
//!
//! [`SnapshotReader::open`] reads the file with positional reads (`pread`).
//! Opening verifies the header and trailer checksums plus the full chunk
//! directory (section order, chunk counts, byte-range contiguity), so a torn
//! or spliced file is rejected before any payload is touched. Each chunk's
//! payload checksum is then verified lazily at access time: a pass over one
//! section reads only that section's bytes, and resident memory stays
//! bounded by one chunk per worker instead of the whole world.
//!
//! Chunk payloads are read into a private buffer taken from a small pool the
//! reader owns; the checksum is computed over that buffer and the decoder
//! reads the same buffer, so a byte that changes in the file after the check
//! can never reach a decoded record, and a file that shrinks under an open
//! reader fails the next read of the missing bytes with an error. The copy
//! is bounded by one chunk, and the buffers go back to the pool for the next
//! chunk instead of being reallocated.
//!
//! The per-user and edge sections are walked only through
//! [`WorldView`](crate::WorldView)'s passes, which take their chunks from
//! the reader inside this crate; the reader itself exposes the counts, the
//! small sections (groups, catalog) and how often each section was read.
//!
//! A reader can also sit on bytes already in memory, which cannot change:
//! their payloads decode in place, without the copy. That is how
//! [`codec::decode_snapshot`] decodes v3 — the same header, directory and
//! chunk checks, every chunk fanned out over worker threads.

use std::fs::File;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use bytes::{Buf, Bytes};

use crate::codec::{self, ChunkEntry, Section, SectionDir};
use crate::error::ModelError;
use crate::game::Game;
use crate::group::Group;
use crate::snapshot::Snapshot;
use crate::time::SimTime;

/// Where the bytes come from: positional reads of a file, or bytes already
/// in memory.
enum Backing {
    File(File),
    Bytes(Bytes),
}

impl Backing {
    /// Reads `len` bytes at `offset` into an owned buffer.
    fn read(&self, offset: u64, len: usize) -> Result<Bytes, ModelError> {
        let mut v = vec![0u8; len];
        self.read_at(offset, &mut v)?;
        Ok(Bytes::from(v))
    }

    /// Fills `dst` with the bytes at `offset`.
    fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<(), ModelError> {
        match self {
            Backing::File(f) => read_exact_at(f, dst, offset),
            Backing::Bytes(b) => {
                dst.copy_from_slice(&b[span(offset, dst.len(), b.len())?]);
                Ok(())
            }
        }
    }

    /// The `len` bytes at `offset`, to verify and decode. Bytes in memory
    /// cannot change, so they are lent in place. A file is read into `buf`
    /// first, so a byte that changes in the file after the checksum cannot
    /// reach a decoded record.
    fn payload<'a>(
        &'a self,
        offset: u64,
        len: usize,
        buf: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], ModelError> {
        if let Backing::Bytes(b) = self {
            return Ok(&b[span(offset, len, b.len())?]);
        }
        buf.resize(len, 0);
        self.read_at(offset, buf)?;
        Ok(buf)
    }
}

/// `offset..offset + len`, checked to lie within `total` bytes.
fn span(offset: u64, len: usize, total: usize) -> Result<Range<usize>, ModelError> {
    let start = usize::try_from(offset).map_err(|_| codec::err("offset overflow"))?;
    let end = start.checked_add(len).ok_or_else(|| codec::err("offset overflow"))?;
    if end > total {
        return Err(codec::err("read past end of snapshot"));
    }
    Ok(start..end)
}

#[cfg(unix)]
fn read_exact_at(f: &File, buf: &mut [u8], offset: u64) -> Result<(), ModelError> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, offset).map_err(ModelError::from)
}

#[cfg(not(unix))]
fn read_exact_at(_f: &File, _buf: &mut [u8], _offset: u64) -> Result<(), ModelError> {
    Err(codec::err("positional reads unsupported on this platform"))
}

/// Payload buffers a reader keeps for reuse; more than this many concurrent
/// chunk reads allocate the extra buffers afresh and drop them after.
const POOL_MAX: usize = 8;

/// How often one section has been read since the reader was opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionReads {
    pub section: &'static str,
    /// Chunks in the section.
    pub chunks: u64,
    /// Chunks decoded so far.
    pub decoded: u64,
}

impl SectionReads {
    /// Full passes over the section: decoded chunks ÷ chunks (0 when the
    /// section is empty).
    pub fn passes(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.decoded as f64 / self.chunks as f64
        }
    }
}

/// A v3 snapshot opened for streaming chunk access.
///
/// `Sync`: chunk reads are positional, so worker threads can claim and
/// decode chunks concurrently (the atomic-cursor pattern the rest of the
/// codebase uses). The only shared mutable state is the buffer pool, locked
/// just to take or return a buffer, and the relaxed decode counters.
pub struct SnapshotReader {
    backing: Backing,
    trailer_offset: u64,
    collected_at: SimTime,
    scanned_id_space: u64,
    /// One directory per section, indexed by section id.
    sections: Vec<SectionDir>,
    /// Chunks decoded so far, indexed by section id.
    decoded: [AtomicU64; 6],
    /// Reusable payload buffers (see [`SnapshotReader::chunk`]).
    pool: Mutex<Vec<Vec<u8>>>,
}

impl SnapshotReader {
    /// Opens a v3 snapshot file for positional reads.
    pub fn open(path: &Path) -> Result<Self, ModelError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        Self::new(Backing::File(file), file_len)
    }

    /// Opens v3 bytes already in memory.
    pub(crate) fn from_bytes(bytes: Bytes) -> Result<Self, ModelError> {
        let len = bytes.len() as u64;
        Self::new(Backing::Bytes(bytes), len)
    }

    /// Verifies the header, the trailer and the chunk directory of the
    /// `file_len` bytes behind `backing`.
    fn new(backing: Backing, file_len: u64) -> Result<Self, ModelError> {
        if file_len < 5 + 8 + 9 {
            return Err(codec::err("chunked snapshot too short"));
        }
        let head = backing.read(0, file_len.min(64) as usize)?;
        let (collected_at, scanned_id_space, first_chunk) = codec::parse_v3_header(head)?;
        let trailer_offset = {
            let mut tail = backing.read(file_len - 8, 8)?;
            tail.get_u64_le()
        };
        if trailer_offset < first_chunk as u64 || trailer_offset > file_len - 8 {
            return Err(codec::err("trailer offset out of bounds"));
        }
        let region = backing.read(trailer_offset, (file_len - 8 - trailer_offset) as usize)?;
        let dir = codec::parse_v3_directory(region, first_chunk as u64, trailer_offset)?;
        let header = backing.read(0, first_chunk)?;
        if codec::checksum32(&header) != dir.header_sum {
            return Err(codec::err("checksum mismatch in snapshot header"));
        }
        let total = |id: u8| dir.sections[id as usize].total_records;
        let (users, libraries, lists) = (
            total(codec::SECTION_ACCOUNTS),
            total(codec::SECTION_OWNERSHIPS),
            total(codec::SECTION_MEMBERSHIPS),
        );
        if libraries != users || lists != users {
            return Err(codec::err(format!(
                "per-account sections disagree: {users} accounts, {libraries} libraries, \
                 {lists} membership lists"
            )));
        }
        Ok(SnapshotReader {
            backing,
            trailer_offset,
            collected_at,
            scanned_id_space,
            sections: dir.sections,
            decoded: Default::default(),
            pool: Mutex::new(Vec::new()),
        })
    }

    pub fn collected_at(&self) -> SimTime {
        self.collected_at
    }

    pub fn scanned_id_space(&self) -> u64 {
        self.scanned_id_space
    }

    pub(crate) fn dir(&self, id: u8) -> &SectionDir {
        &self.sections[id as usize]
    }

    /// Number of accounts (== number of libraries and membership lists).
    pub fn n_users(&self) -> usize {
        self.dir(codec::SECTION_ACCOUNTS).total_records as usize
    }

    /// Number of friendship edges, from the directory — no scan needed.
    pub fn n_friendships(&self) -> u64 {
        self.dir(codec::SECTION_FRIENDSHIPS).total_records
    }

    /// Decode counts of every section since open, in section order.
    pub fn section_reads(&self) -> Vec<SectionReads> {
        self.sections
            .iter()
            .map(|d| SectionReads {
                section: codec::section_name(d.id),
                chunks: d.chunks.len() as u64,
                decoded: self.decoded[d.id as usize].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Reads, verifies, and decodes one chunk of one section.
    ///
    /// The payload is copied into a buffer taken from the reader's pool, the
    /// checksum is computed over that buffer, and the decoder reads that same
    /// buffer, which then goes back to the pool. Each concurrent caller holds
    /// its own buffer, so passes never wait on each other's decoding.
    pub(crate) fn chunk(&self, id: u8, k: usize) -> Result<Section, ModelError> {
        let d = self.dir(id);
        let e: ChunkEntry = *d.chunks.get(k).ok_or_else(|| {
            codec::err(format!("{} section has no chunk {k}", codec::section_name(id)))
        })?;
        let mut hdr = [0u8; 32];
        let hdr = &mut hdr[..(self.trailer_offset - e.offset).min(32) as usize];
        self.backing.read_at(e.offset, hdr)?;
        let hdr_len = codec::parse_v3_chunk_header(hdr, id, k, &e)? as u64;

        let mut buf = self.pool().pop().unwrap_or_default();
        let payload = self.backing.payload(e.offset + hdr_len, e.len as usize, &mut buf);
        let decoded = payload.and_then(|payload| {
            if codec::checksum32(payload) != e.sum {
                return Err(codec::err(format!(
                    "checksum mismatch in {} section chunk {k}",
                    codec::section_name(id)
                )));
            }
            codec::decode_v3_chunk(id, k, e.n_records as usize, payload)
        });
        {
            let mut pool = self.pool();
            if pool.len() < POOL_MAX {
                pool.push(buf);
            }
        }
        if decoded.is_ok() {
            self.decoded[id as usize].fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }

    fn pool(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        // A poisoned pool is still a valid list of buffers: every update is
        // a single push or pop.
        self.pool.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Decodes the whole group universe (small next to the per-user data).
    pub fn groups(&self) -> Result<Vec<Group>, ModelError> {
        let n_chunks = self.dir(codec::SECTION_GROUPS).chunks.len();
        let mut out = Vec::with_capacity(self.dir(codec::SECTION_GROUPS).total_records as usize);
        for k in 0..n_chunks {
            match self.chunk(codec::SECTION_GROUPS, k)? {
                Section::Groups(v) => out.extend(v),
                _ => unreachable!("groups chunk decoded to wrong section"),
            }
        }
        Ok(out)
    }

    /// Decodes every chunk, on up to `jobs` workers, into the whole snapshot.
    pub(crate) fn snapshot(&self, jobs: usize) -> Result<Snapshot, ModelError> {
        let chunks: Vec<(u8, usize)> = self
            .sections
            .iter()
            .flat_map(|d| (0..d.chunks.len()).map(move |k| (d.id, k)))
            .collect();
        let sections = steam_par::map(jobs, &chunks, |&(id, k)| self.chunk(id, k))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let len = |id: u8| self.dir(id).total_records as usize;
        let s = Snapshot {
            collected_at: self.collected_at,
            scanned_id_space: self.scanned_id_space,
            accounts: Vec::with_capacity(len(codec::SECTION_ACCOUNTS)),
            friendships: Vec::with_capacity(len(codec::SECTION_FRIENDSHIPS)),
            ownerships: Vec::with_capacity(len(codec::SECTION_OWNERSHIPS)),
            groups: Vec::with_capacity(len(codec::SECTION_GROUPS)),
            memberships: Vec::with_capacity(len(codec::SECTION_MEMBERSHIPS)),
            catalog: Vec::with_capacity(len(codec::SECTION_CATALOG)),
        };
        codec::assemble(s, sections)
    }

    /// Decodes the whole catalog (small next to the per-user data).
    pub fn catalog(&self) -> Result<Vec<Game>, ModelError> {
        let n_chunks = self.dir(codec::SECTION_CATALOG).chunks.len();
        let mut out = Vec::with_capacity(self.dir(codec::SECTION_CATALOG).total_records as usize);
        for k in 0..n_chunks {
            match self.chunk(codec::SECTION_CATALOG, k)? {
                Section::Catalog(v) => out.extend(v),
                _ => unreachable!("catalog chunk decoded to wrong section"),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{synthetic_snapshot, write_snapshot_v3};
    use crate::WorldView;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("steam-model-reader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The file at `path` behind both backings: positional reads of the
    /// file, and its bytes in memory.
    fn both_backings(path: &Path) -> [SnapshotReader; 2] {
        let bytes = Bytes::from(std::fs::read(path).unwrap());
        [SnapshotReader::open(path).unwrap(), SnapshotReader::from_bytes(bytes).unwrap()]
    }

    /// The whole snapshot, read back through the world's passes; each
    /// per-user pass must hand out users in index order.
    fn reassemble(r: &SnapshotReader) -> Snapshot {
        let w = WorldView::stream(r).unwrap();
        let mut s = Snapshot {
            collected_at: w.collected_at(),
            scanned_id_space: w.scanned_id_space(),
            groups: w.groups().to_vec(),
            catalog: w.catalog().to_vec(),
            ..Default::default()
        };
        w.for_each_account(|u, a| {
            assert_eq!(u, s.accounts.len());
            s.accounts.push(a.clone());
        })
        .unwrap();
        w.for_each_friendship(|e| s.friendships.push(*e)).unwrap();
        w.for_each_library(|u, lib| {
            assert_eq!(u, s.ownerships.len());
            s.ownerships.push(lib.to_vec());
        })
        .unwrap();
        w.for_each_memberships(|u, ms| {
            assert_eq!(u, s.memberships.len());
            s.memberships.push(ms.to_vec());
        })
        .unwrap();
        s
    }

    #[test]
    fn reader_matches_full_decode_on_both_backings() {
        let s = synthetic_snapshot(100);
        let path = temp_path("stream.v3");
        write_snapshot_v3(&path, &s, 2).unwrap();
        for reader in both_backings(&path) {
            assert_eq!(reader.n_users(), s.n_users());
            assert_eq!(reader.n_friendships(), s.n_friendships() as u64);
            let d = reassemble(&reader);
            assert_eq!(d.accounts, s.accounts);
            assert_eq!(d.friendships, s.friendships);
            assert_eq!(d.ownerships, s.ownerships);
            assert_eq!(d.groups, s.groups);
            assert_eq!(d.memberships, s.memberships);
            assert_eq!(d.catalog, s.catalog);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_rejects_non_v3_files() {
        // A v2 file written by the v2 encoder before it was removed.
        let path = temp_path("old.v2");
        std::fs::write(&path, include_bytes!("../tests/fixtures/synthetic17.v2")).unwrap();
        let e = match SnapshotReader::open(&path) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("v2 file opened as v3"),
        };
        assert!(e.contains("v3"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_rejects_truncated_files() {
        let s = synthetic_snapshot(30);
        let path = temp_path("trunc.v3");
        write_snapshot_v3(&path, &s, 1).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cut = temp_path("trunc-cut.v3");
        for frac in [1usize, 2, 3, 7] {
            std::fs::write(&cut, &full[..full.len() * frac / 8]).unwrap();
            assert!(SnapshotReader::open(&cut).is_err(), "cut to {frac}/8 opened");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut).ok();
    }

    /// Per-user passes index their columns by account: a file whose library
    /// or membership count differs from its account count is refused at
    /// open, as the full decode refuses it.
    #[test]
    fn reader_rejects_per_account_sections_that_disagree() {
        for extra_library in [true, false] {
            let mut s = synthetic_snapshot(30);
            if extra_library {
                s.ownerships.push(Vec::new());
            } else {
                s.memberships.pop();
            }
            let path = temp_path("disagree.v3");
            write_snapshot_v3(&path, &s, 1).unwrap();
            let e = SnapshotReader::open(&path).err().expect("opened");
            assert!(e.to_string().contains("per-account sections disagree"), "{e}");
            assert!(codec::read_snapshot(&path).is_err());
            std::fs::remove_file(&path).ok();
        }
    }

    /// A file that shrinks under an open reader fails the next chunk read
    /// with an error; the process goes on.
    #[test]
    fn a_file_truncated_under_an_open_reader_fails_the_next_read() {
        let s = synthetic_snapshot(60);
        let path = temp_path("shrink.v3");
        write_snapshot_v3(&path, &s, 1).unwrap();
        let r = SnapshotReader::open(&path).unwrap();
        let w = WorldView::stream(&r).unwrap();
        let mut first = None;
        w.for_each_account(|u, a| {
            if u == 0 {
                first = Some(a.clone());
            }
        })
        .unwrap();
        assert_eq!(first.as_ref(), Some(&s.accounts[0]));
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
        let e = w.for_each_account(|_, _| {}).unwrap_err();
        assert!(matches!(e, ModelError::Io(_)), "{e}");
        assert!(w.for_each_friendship(|_| {}).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_corruption_detected_lazily_and_named() {
        let s = synthetic_snapshot(60);
        let path = temp_path("corrupt.v3");
        write_snapshot_v3(&path, &s, 1).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // Flip one byte in the middle of the friendships payload area. Locate
        // it via an intact reader's directory.
        let clean = SnapshotReader::open(&path).unwrap();
        let e = clean.dir(codec::SECTION_FRIENDSHIPS).chunks[0];
        raw[e.offset as usize + 10] ^= 0x01;
        drop(clean);
        std::fs::write(&path, &raw).unwrap();
        // Directory still verifies, so open succeeds on both backings...
        for r in both_backings(&path) {
            assert_eq!(r.n_users(), s.n_users());
            let w = WorldView::stream(&r).unwrap();
            // ...and the damaged chunk is caught at access time, by name,
            // every time (the pooled buffer it was read into is reused).
            for _ in 0..2 {
                let msg = w.for_each_friendship(|_| {}).unwrap_err().to_string();
                assert!(msg.contains("friendships") && msg.contains("chunk 0"), "{msg}");
            }
            // Other sections remain readable through the same reader and its
            // pool; failed reads are not counted (the view read the catalog
            // once before the failures, and this is the second read).
            assert_eq!(r.catalog().unwrap(), s.catalog);
            let reads = r.section_reads();
            assert_eq!(reads[codec::SECTION_FRIENDSHIPS as usize].decoded, 0);
            assert_eq!(reads[codec::SECTION_CATALOG as usize].decoded, 2);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn section_reads_count_passes_and_the_pool_reuses_buffers() {
        let s = synthetic_snapshot(100);
        let path = temp_path("counts.v3");
        write_snapshot_v3(&path, &s, 1).unwrap();
        for reader in both_backings(&path) {
            assert!(reader.section_reads().iter().all(|r| r.decoded == 0));
            reassemble(&reader);
            reassemble(&reader);
            let reads = reader.section_reads();
            assert_eq!(reads.len(), 6);
            assert_eq!(reads[1].section, "friendships");
            for r in reads {
                assert!(r.chunks > 0, "{}", r.section);
                assert_eq!(r.decoded, 2 * r.chunks, "{}", r.section);
                assert_eq!(r.passes(), 2.0, "{}", r.section);
            }
            // One reader at a time: every chunk went through the same buffer.
            assert_eq!(reader.pool().len(), 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_chunk_claims_see_consistent_data() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = synthetic_snapshot(200);
        let path = temp_path("par.v3");
        write_snapshot_v3(&path, &s, 2).unwrap();
        let r = SnapshotReader::open(&path).unwrap();
        let dir = r.dir(codec::SECTION_ACCOUNTS);
        let n = dir.chunks.len();
        let cursor = AtomicUsize::new(0);
        let counted = std::sync::Mutex::new(0usize);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let Section::Accounts(chunk) = r.chunk(codec::SECTION_ACCOUNTS, k).unwrap()
                    else {
                        unreachable!("accounts chunk decoded to wrong section")
                    };
                    assert_eq!(chunk[0], s.accounts[k * dir.cap as usize]);
                    *counted.lock().unwrap() += chunk.len();
                });
            }
        });
        assert_eq!(*counted.lock().unwrap(), s.n_users());
        assert_eq!(r.section_reads()[0].decoded, n as u64);
        assert!(r.pool().len() <= POOL_MAX.min(4));
        std::fs::remove_file(&path).ok();
    }
}
