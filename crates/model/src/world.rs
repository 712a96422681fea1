//! A uniform view over a snapshot's six sections: fully materialized in
//! memory, or streamed chunk by chunk from a chunked (v3) container file.
//!
//! Every walk over a whole per-user or edge section — the analysis
//! context's build and its experiments, and the shard split — is a pass on
//! [`WorldView`], and each pass is written once, over per-section chunk
//! accessors: a decoded snapshot is one borrowed chunk per section, and a
//! streamed section decodes one chunk at a time and drops it. In streaming
//! mode only the small shared sections (catalog, groups) are cached, which
//! bounds resident memory by one chunk per concurrent pass instead of the
//! whole section, and both backings visit the same records in the same
//! order.
//!
//! The passes are the only public way to walk a file's per-user and edge
//! sections: [`SnapshotReader`] lends them its chunks inside this crate. A
//! pass returns a chunk that fails to read or decode as an error, and stops
//! there.

use std::borrow::Cow;

use crate::codec::{
    Section, SECTION_ACCOUNTS, SECTION_FRIENDSHIPS, SECTION_MEMBERSHIPS, SECTION_OWNERSHIPS,
};
use crate::{
    Account, Friendship, Game, Group, ModelError, OwnedGame, SimTime, Snapshot, SnapshotReader,
};

/// One chunk of a per-user or edge section: the index of its first record,
/// and its records, borrowed from a decoded snapshot or decoded from the file.
type Chunk<'w, T> = (usize, Cow<'w, [T]>);

/// A borrowed world: either a fully decoded [`Snapshot`] or a chunk-streaming
/// [`SnapshotReader`] over a v3 file.
pub enum WorldView<'a> {
    Mem(&'a Snapshot),
    Stream(StreamView<'a>),
}

/// The streaming side of [`WorldView`]: the open reader plus the cached
/// small sections.
pub struct StreamView<'a> {
    reader: &'a SnapshotReader,
    catalog: Vec<Game>,
    groups: Vec<Group>,
}

impl StreamView<'_> {
    /// Chunk `k` of section `id`, with the index of its first record.
    fn chunk(&self, id: u8, k: usize) -> Result<(usize, Section), ModelError> {
        Ok((self.reader.dir(id).cap as usize * k, self.reader.chunk(id, k)?))
    }
}

/// Calls `f(i, &record)` for every record of a section in index order,
/// reading chunks `0..n_chunks` through `chunk`.
fn walk<'w, T: Clone + 'w>(
    n_chunks: usize,
    chunk: impl Fn(usize) -> Result<Chunk<'w, T>, ModelError>,
    mut f: impl FnMut(usize, &T),
) -> Result<(), ModelError> {
    for k in 0..n_chunks {
        let (base, records) = chunk(k)?;
        for (i, r) in records.iter().enumerate() {
            f(base + i, r);
        }
    }
    Ok(())
}

impl<'a> WorldView<'a> {
    pub fn mem(snapshot: &'a Snapshot) -> Self {
        WorldView::Mem(snapshot)
    }

    /// Builds a streaming view, eagerly decoding (and verifying) the catalog
    /// and groups sections, which every report pass consults at random.
    pub fn stream(reader: &'a SnapshotReader) -> Result<Self, ModelError> {
        Ok(WorldView::Stream(StreamView {
            catalog: reader.catalog()?,
            groups: reader.groups()?,
            reader,
        }))
    }

    pub fn collected_at(&self) -> SimTime {
        match self {
            WorldView::Mem(s) => s.collected_at,
            WorldView::Stream(v) => v.reader.collected_at(),
        }
    }

    pub fn scanned_id_space(&self) -> u64 {
        match self {
            WorldView::Mem(s) => s.scanned_id_space,
            WorldView::Stream(v) => v.reader.scanned_id_space(),
        }
    }

    pub fn n_users(&self) -> usize {
        match self {
            WorldView::Mem(s) => s.n_users(),
            WorldView::Stream(v) => v.reader.n_users(),
        }
    }

    /// Total friendship edges, from the edge list (mem) or the chunk
    /// directory (stream) — no edge decode either way.
    pub fn n_friendships(&self) -> u64 {
        match self {
            WorldView::Mem(s) => s.n_friendships() as u64,
            WorldView::Stream(v) => v.reader.n_friendships(),
        }
    }

    pub fn catalog(&self) -> &[Game] {
        match self {
            WorldView::Mem(s) => &s.catalog,
            WorldView::Stream(v) => &v.catalog,
        }
    }

    pub fn groups(&self) -> &[Group] {
        match self {
            WorldView::Mem(s) => &s.groups,
            WorldView::Stream(v) => &v.groups,
        }
    }

    /// Chunks in section `id`; a decoded snapshot holds each section as one
    /// chunk.
    fn n_chunks(&self, id: u8) -> usize {
        match self {
            WorldView::Mem(_) => 1,
            WorldView::Stream(v) => v.reader.dir(id).chunks.len(),
        }
    }

    fn accounts(&self, k: usize) -> Result<Chunk<'_, Account>, ModelError> {
        Ok(match self {
            WorldView::Mem(s) => (0, s.accounts.as_slice().into()),
            WorldView::Stream(v) => match v.chunk(SECTION_ACCOUNTS, k)? {
                (base, Section::Accounts(c)) => (base, c.into()),
                _ => unreachable!("accounts chunk decoded to wrong section"),
            },
        })
    }

    fn friendships(&self, k: usize) -> Result<Chunk<'_, Friendship>, ModelError> {
        Ok(match self {
            WorldView::Mem(s) => (0, s.friendships.as_slice().into()),
            WorldView::Stream(v) => match v.chunk(SECTION_FRIENDSHIPS, k)? {
                (base, Section::Friendships(c)) => (base, c.into()),
                _ => unreachable!("friendships chunk decoded to wrong section"),
            },
        })
    }

    fn libraries(&self, k: usize) -> Result<Chunk<'_, Vec<OwnedGame>>, ModelError> {
        Ok(match self {
            WorldView::Mem(s) => (0, s.ownerships.as_slice().into()),
            WorldView::Stream(v) => match v.chunk(SECTION_OWNERSHIPS, k)? {
                (base, Section::Ownerships(c)) => (base, c.into()),
                _ => unreachable!("ownerships chunk decoded to wrong section"),
            },
        })
    }

    fn memberships(&self, k: usize) -> Result<Chunk<'_, Vec<u32>>, ModelError> {
        Ok(match self {
            WorldView::Mem(s) => (0, s.memberships.as_slice().into()),
            WorldView::Stream(v) => match v.chunk(SECTION_MEMBERSHIPS, k)? {
                (base, Section::Memberships(c)) => (base, c.into()),
                _ => unreachable!("memberships chunk decoded to wrong section"),
            },
        })
    }

    /// Calls `f(u, &account)` for every user in index order.
    pub fn for_each_account(&self, f: impl FnMut(usize, &Account)) -> Result<(), ModelError> {
        walk(self.n_chunks(SECTION_ACCOUNTS), |k| self.accounts(k), f)
    }

    /// Calls `f(&edge)` for every friendship in file order.
    pub fn for_each_friendship(&self, mut f: impl FnMut(&Friendship)) -> Result<(), ModelError> {
        walk(self.n_chunks(SECTION_FRIENDSHIPS), |k| self.friendships(k), |_, e| f(e))
    }

    /// Calls `f(u, &library)` for every user in index order.
    pub fn for_each_library(
        &self,
        mut f: impl FnMut(usize, &[OwnedGame]),
    ) -> Result<(), ModelError> {
        walk(self.n_chunks(SECTION_OWNERSHIPS), |k| self.libraries(k), |u, lib| f(u, lib))
    }

    /// Calls `f(u, &group_indices)` for every user in index order.
    pub fn for_each_memberships(
        &self,
        mut f: impl FnMut(usize, &[u32]),
    ) -> Result<(), ModelError> {
        walk(self.n_chunks(SECTION_MEMBERSHIPS), |k| self.memberships(k), |u, ms| f(u, ms))
    }

    /// Calls `f(u, &group_indices, &library)` for every user in index order.
    /// The memberships and ownerships sections may be chunked on different
    /// boundaries, so the library chunk advances whenever the next user lies
    /// past it: at most one chunk of each section is resident.
    pub fn for_each_membership_lib(
        &self,
        mut f: impl FnMut(usize, &[u32], &[OwnedGame]),
    ) -> Result<(), ModelError> {
        let mut libs: Chunk<'_, Vec<OwnedGame>> = (0, Cow::Borrowed(&[]));
        let mut next_lib = 0;
        for k in 0..self.n_chunks(SECTION_MEMBERSHIPS) {
            let (base, chunk) = self.memberships(k)?;
            for (i, ms) in chunk.iter().enumerate() {
                let u = base + i;
                if u >= libs.0 + libs.1.len() {
                    libs = self.libraries(next_lib)?;
                    next_lib += 1;
                }
                f(u, ms, &libs.1[u - libs.0]);
            }
        }
        Ok(())
    }
}
