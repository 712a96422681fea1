//! Compressed sparse row adjacency for the friendship graph.
//!
//! The paper's graph has 108.7 M nodes and 196.4 M undirected edges; CSR
//! keeps neighbor iteration cache-friendly with two flat arrays.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A source of undirected edges grouped into independently readable chunks —
/// the shape in which the streaming snapshot reader exposes the friendships
/// section. `Sync` so worker threads can claim chunks concurrently.
pub trait EdgeChunks: Sync {
    fn n_chunks(&self) -> usize;
    /// Calls `f(a, b)` for every edge in chunk `k`, in chunk order. A chunk
    /// must yield the same edges every time it is visited (the CSR build
    /// reads the source twice).
    fn for_each(&self, k: usize, f: &mut dyn FnMut(u32, u32));
}

/// An undirected graph in CSR form. Each undirected edge appears in both
/// endpoints' neighbor lists.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
    n_edges: usize,
}

impl Csr {
    /// Builds from an undirected edge list over nodes `0..n_nodes`.
    /// Edges may be in any order; endpoints must be `< n_nodes`.
    pub fn from_edges(n_nodes: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut deg = vec![0u64; n_nodes];
        let mut n_edges = 0usize;
        for (a, b) in edges.clone() {
            assert!((a as usize) < n_nodes && (b as usize) < n_nodes, "edge out of range");
            deg[a as usize] += 1;
            deg[b as usize] += 1;
            n_edges += 1;
        }
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        offsets.push(0u64);
        let mut acc = 0u64;
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u64> = offsets[..n_nodes].to_vec();
        let mut neighbors = vec![0u32; acc as usize];
        for (a, b) in edges {
            neighbors[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        // Sort each adjacency list for deterministic iteration + binary search.
        for u in 0..n_nodes {
            let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
            neighbors[s..e].sort_unstable();
        }
        Csr { offsets, neighbors, n_edges }
    }

    /// [`Csr::from_edges`] over an edge slice, with both construction passes
    /// (degree counting and adjacency fill) plus the per-row sort chunked
    /// over `jobs` scoped threads.
    ///
    /// The result is identical to the serial build for any `jobs`: per-chunk
    /// degree counts merge by integer summation, fill order within a row is
    /// arbitrary but the canonical ascending sort erases it, and offsets are
    /// a prefix sum of the merged counts either way.
    pub fn from_edge_list(n_nodes: usize, edges: &[(u32, u32)], jobs: usize) -> Self {
        // Below a few thousand edges the scoped-thread setup dwarfs the work.
        if jobs <= 1 || edges.len() < 4096 {
            return Self::from_edges(n_nodes, edges.iter().copied());
        }

        // Pass 1: per-chunk degree counts.
        let chunk_counts = steam_par::map(jobs, steam_par::split(edges.len(), jobs), |range| {
            let mut deg = vec![0u64; n_nodes];
            for &(a, b) in &edges[range] {
                assert!((a as usize) < n_nodes && (b as usize) < n_nodes, "edge out of range");
                deg[a as usize] += 1;
                deg[b as usize] += 1;
            }
            deg
        });
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        offsets.push(0u64);
        let mut acc = 0u64;
        for u in 0..n_nodes {
            acc += chunk_counts.iter().map(|c| c[u]).sum::<u64>();
            offsets.push(acc);
        }

        // Pass 2: fill through per-node atomic cursors. Slot assignment
        // within a row races, but the sort below restores canonical order.
        let cursors: Vec<AtomicU64> =
            offsets[..n_nodes].iter().map(|&o| AtomicU64::new(o)).collect();
        let slots: Vec<AtomicU32> = (0..acc as usize).map(|_| AtomicU32::new(0)).collect();
        steam_par::map(jobs, steam_par::split(edges.len(), jobs), |range| {
            for &(a, b) in &edges[range] {
                let ia = cursors[a as usize].fetch_add(1, Ordering::Relaxed) as usize;
                slots[ia].store(b, Ordering::Relaxed);
                let ib = cursors[b as usize].fetch_add(1, Ordering::Relaxed) as usize;
                slots[ib].store(a, Ordering::Relaxed);
            }
        });
        let mut neighbors: Vec<u32> = slots.into_iter().map(AtomicU32::into_inner).collect();

        // Pass 3: sort each adjacency list.
        sort_rows(&offsets, &mut neighbors, jobs);

        Csr { offsets, neighbors, n_edges: edges.len() }
    }

    /// Builds CSR from chunked edges in two passes — shared atomic degree
    /// counting, then fill through per-node atomic cursors — with chunks
    /// claimed by up to `jobs` workers through `steam_par::map`. Reads the
    /// source twice and never materializes the full edge list, so resident
    /// memory is the CSR itself plus `O(n_nodes)` counters, independent of
    /// how the chunks are stored. The result is identical to [`Csr::from_edges`]
    /// over the same edges, for any `jobs`: degree sums are order-independent,
    /// and the canonical per-row sort erases fill-order races.
    pub fn from_edge_chunks(n_nodes: usize, src: &dyn EdgeChunks, jobs: usize) -> Self {
        let chunks = 0..src.n_chunks();

        // Pass 1: degree counts (u32: degrees are capped far below 2^32).
        let deg: Vec<AtomicU32> = (0..n_nodes).map(|_| AtomicU32::new(0)).collect();
        let chunk_edges = steam_par::map(jobs, chunks.clone(), |k| {
            let mut in_chunk = 0usize;
            src.for_each(k, &mut |a, b| {
                assert!((a as usize) < n_nodes && (b as usize) < n_nodes, "edge out of range");
                deg[a as usize].fetch_add(1, Ordering::Relaxed);
                deg[b as usize].fetch_add(1, Ordering::Relaxed);
                in_chunk += 1;
            });
            in_chunk
        });
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        offsets.push(0u64);
        let mut acc = 0u64;
        for d in &deg {
            acc += u64::from(d.load(Ordering::Relaxed));
            offsets.push(acc);
        }
        drop(deg);

        // Pass 2: fill through per-node atomic cursors, re-reading the
        // chunks. Slot assignment within a row races; the sort restores
        // canonical order.
        let cursors: Vec<AtomicU64> =
            offsets[..n_nodes].iter().map(|&o| AtomicU64::new(o)).collect();
        let slots: Vec<AtomicU32> = (0..acc as usize).map(|_| AtomicU32::new(0)).collect();
        steam_par::map(jobs, chunks, |k| {
            src.for_each(k, &mut |a, b| {
                let ia = cursors[a as usize].fetch_add(1, Ordering::Relaxed) as usize;
                slots[ia].store(b, Ordering::Relaxed);
                let ib = cursors[b as usize].fetch_add(1, Ordering::Relaxed) as usize;
                slots[ib].store(a, Ordering::Relaxed);
            });
        });
        let mut neighbors: Vec<u32> = slots.into_iter().map(AtomicU32::into_inner).collect();

        sort_rows(&offsets, &mut neighbors, jobs);

        Csr { offsets, neighbors, n_edges: chunk_edges.iter().sum() }
    }

    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each counted once).
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Neighbors of `u`, sorted ascending.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let s = self.offsets[u as usize] as usize;
        let e = self.offsets[u as usize + 1] as usize;
        &self.neighbors[s..e]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: u32) -> u32 {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as u32
    }

    /// All degrees.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.n_nodes() as u32).map(|u| self.degree(u)).collect()
    }

    /// Whether `a` and `b` are adjacent (binary search).
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Mean degree (2·E / N); zero for an empty graph.
    pub fn mean_degree(&self) -> f64 {
        if self.n_nodes() == 0 {
            0.0
        } else {
            2.0 * self.n_edges as f64 / self.n_nodes() as f64
        }
    }
}

/// Sorts every adjacency row ascending, each of up to `jobs` workers owning
/// the rows of one contiguous node range (rows are contiguous in node order).
fn sort_rows(offsets: &[u64], neighbors: &mut [u32], jobs: usize) {
    let mut rest = neighbors;
    let parts = steam_par::split(offsets.len() - 1, jobs).map(move |nodes| {
        let len = (offsets[nodes.end] - offsets[nodes.start]) as usize;
        let (rows, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        (nodes, rows)
    });
    steam_par::map(jobs, parts, |(nodes, rows)| {
        let base = offsets[nodes.start];
        for u in nodes {
            rows[(offsets[u] - base) as usize..(offsets[u + 1] - base) as usize].sort_unstable();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Csr {
        // 0 - 1 - 2 - 3
        Csr::from_edges(4, [(0, 1), (1, 2), (2, 3)].into_iter())
    }

    #[test]
    fn basic_structure() {
        let g = path_graph();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degrees(), vec![1, 2, 2, 1]);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = path_graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn isolated_nodes() {
        let g = Csr::from_edges(5, [(0, 1)].into_iter());
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, std::iter::empty());
        assert_eq!(g.n_nodes(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    fn edge_order_does_not_matter() {
        let a = Csr::from_edges(4, [(0, 1), (1, 2), (2, 3)].into_iter());
        let b = Csr::from_edges(4, [(2, 3), (0, 1), (1, 2)].into_iter());
        for u in 0..4 {
            assert_eq!(a.neighbors(u), b.neighbors(u));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Csr::from_edges(2, [(0, 5)].into_iter());
    }

    #[test]
    fn parallel_build_matches_serial() {
        use rand::prelude::*;
        let n_nodes = 2_000u32;
        let mut rng = StdRng::seed_from_u64(42);
        // Well above the small-input cutoff so the threaded path runs.
        let edges: Vec<(u32, u32)> = (0..10_000)
            .map(|_| (rng.gen_range(0..n_nodes), rng.gen_range(0..n_nodes)))
            .collect();
        let serial = Csr::from_edges(n_nodes as usize, edges.iter().copied());
        for jobs in [1, 2, 3, 8] {
            let par = Csr::from_edge_list(n_nodes as usize, &edges, jobs);
            assert_eq!(par.offsets, serial.offsets, "jobs={jobs}");
            assert_eq!(par.neighbors, serial.neighbors, "jobs={jobs}");
            assert_eq!(par.n_edges(), serial.n_edges(), "jobs={jobs}");
        }
    }

    struct SliceChunks<'a> {
        edges: &'a [(u32, u32)],
        cap: usize,
    }

    impl EdgeChunks for SliceChunks<'_> {
        fn n_chunks(&self) -> usize {
            self.edges.len().div_ceil(self.cap)
        }

        fn for_each(&self, k: usize, f: &mut dyn FnMut(u32, u32)) {
            let lo = k * self.cap;
            let hi = (lo + self.cap).min(self.edges.len());
            for &(a, b) in &self.edges[lo..hi] {
                f(a, b);
            }
        }
    }

    #[test]
    fn chunked_build_matches_serial() {
        use rand::prelude::*;
        let n_nodes = 500u32;
        let mut rng = StdRng::seed_from_u64(7);
        let edges: Vec<(u32, u32)> = (0..3_000)
            .map(|_| (rng.gen_range(0..n_nodes), rng.gen_range(0..n_nodes)))
            .collect();
        let serial = Csr::from_edges(n_nodes as usize, edges.iter().copied());
        for cap in [1, 17, 4096] {
            for jobs in [1, 2, 8] {
                let src = SliceChunks { edges: &edges, cap };
                let chunked = Csr::from_edge_chunks(n_nodes as usize, &src, jobs);
                assert_eq!(chunked.offsets, serial.offsets, "cap={cap} jobs={jobs}");
                assert_eq!(chunked.neighbors, serial.neighbors, "cap={cap} jobs={jobs}");
                assert_eq!(chunked.n_edges(), serial.n_edges(), "cap={cap} jobs={jobs}");
            }
        }
    }

    #[test]
    fn chunked_build_handles_empty_source() {
        let src = SliceChunks { edges: &[], cap: 8 };
        let g = Csr::from_edge_chunks(3, &src, 4);
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn small_edge_lists_take_the_serial_path() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3)];
        let a = Csr::from_edge_list(4, &edges, 8);
        let b = Csr::from_edges(4, edges.iter().copied());
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.neighbors, b.neighbors);
    }
}
