//! Compressed sparse row adjacency for the friendship graph.
//!
//! The paper's graph has 108.7 M nodes and 196.4 M undirected edges; CSR
//! keeps neighbor iteration cache-friendly with two flat arrays.

use steam_model::ModelError;

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
    /// Edges may be in any order.
    ///
    /// # Panics
    ///
    /// On an endpoint `>= n_nodes`, which [`Csr::from_walk`] returns as an
    /// error instead.
    pub fn from_edges(n_nodes: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let walk = |f: &mut dyn FnMut(u32, u32)| {
            edges.clone().for_each(|(a, b)| f(a, b));
            Ok(())
        };
        Self::from_walk(n_nodes, walk, 1).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds from an edge walk over nodes `0..n_nodes`: `walk(f)` calls
    /// `f(a, b)` once per undirected edge, in any order. The build walks
    /// twice, counting degrees and then filling rows, so both walks must
    /// yield the same edges; no edge list is ever held. Rows are then
    /// sorted ascending on up to `jobs` workers, so the result depends on
    /// neither the edge order nor `jobs`.
    ///
    /// An endpoint `>= n_nodes` is a [`ModelError::DanglingReference`]; an
    /// error from `walk` is returned as it is.
    pub fn from_walk(
        n_nodes: usize,
        mut walk: impl FnMut(&mut dyn FnMut(u32, u32)) -> Result<(), ModelError>,
        jobs: usize,
    ) -> Result<Self, ModelError> {
        // Degrees count into `offsets[u + 1]`; the prefix sum turns them
        // into row starts.
        let mut offsets = vec![0u64; n_nodes + 1];
        let mut n_edges = 0usize;
        let mut dangling = None;
        walk(&mut |a, b| {
            if a as usize >= n_nodes || b as usize >= n_nodes {
                dangling.get_or_insert((a, b));
                return;
            }
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
            n_edges += 1;
        })?;
        if let Some((a, b)) = dangling {
            return Err(ModelError::DanglingReference(format!(
                "edge ({a}, {b}) out of range of the {n_nodes} nodes"
            )));
        }
        for u in 0..n_nodes {
            offsets[u + 1] += offsets[u];
        }

        let mut cursor = offsets[..n_nodes].to_vec();
        let mut neighbors = vec![0u32; offsets[n_nodes] as usize];
        walk(&mut |a, b| {
            neighbors[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        })?;
        sort_rows(&offsets, &mut neighbors, jobs);
        Ok(Csr { offsets, neighbors, n_edges })
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
    fn walk_build_matches_sorted_rows_for_any_jobs_and_edge_order() {
        use rand::prelude::*;
        let n_nodes = 2_000usize;
        let mut rng = StdRng::seed_from_u64(42);
        let edges: Vec<(u32, u32)> = (0..10_000)
            .map(|_| (rng.gen_range(0..n_nodes as u32), rng.gen_range(0..n_nodes as u32)))
            .collect();
        let mut rows = vec![Vec::new(); n_nodes];
        for &(a, b) in &edges {
            rows[a as usize].push(b);
            rows[b as usize].push(a);
        }
        rows.iter_mut().for_each(|r| r.sort_unstable());
        for jobs in [1, 2, 3, 8] {
            // The fill walk visits the edges in the reverse of the count
            // walk's order.
            let mut walks = 0;
            let g = Csr::from_walk(
                n_nodes,
                |f| {
                    walks += 1;
                    if walks == 1 {
                        edges.iter().for_each(|&(a, b)| f(a, b));
                    } else {
                        edges.iter().rev().for_each(|&(a, b)| f(a, b));
                    }
                    Ok(())
                },
                jobs,
            )
            .unwrap();
            assert_eq!(walks, 2, "jobs={jobs}");
            assert_eq!(g.n_edges(), edges.len(), "jobs={jobs}");
            for (u, row) in rows.iter().enumerate() {
                assert_eq!(g.neighbors(u as u32), &row[..], "jobs={jobs} node {u}");
            }
        }
        let empty = Csr::from_walk(3, |_| Ok(()), 4).unwrap();
        assert_eq!((empty.n_nodes(), empty.n_edges()), (3, 0));
    }

    #[test]
    fn walk_build_returns_dangling_edges_and_walk_errors() {
        let dangling = Csr::from_walk(
            3,
            |f| {
                f(0, 1);
                f(1, 3);
                Ok(())
            },
            2,
        );
        assert!(matches!(dangling, Err(ModelError::DanglingReference(_))), "{dangling:?}");
        let failed =
            Csr::from_walk(3, |_| Err(ModelError::Codec("chunk 4 unreadable".into())), 2);
        assert!(matches!(failed, Err(ModelError::Codec(m)) if m == "chunk 4 unreadable"));
    }
}
