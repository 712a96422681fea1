//! Neighbor-average attributes and assortativity — the machinery behind the
//! paper's homophily findings (§7, Figure 11).

use crate::csr::Csr;

/// For every node with at least one neighbor, the mean of `attr` over its
/// neighbors; isolated nodes get `None`.
///
/// §7 correlates a user's market value / playtime / degree / library size
/// against exactly this quantity.
pub fn neighbor_mean(g: &Csr, attr: &[f64]) -> Vec<Option<f64>> {
    assert_eq!(attr.len(), g.n_nodes(), "attribute vector must be parallel");
    (0..g.n_nodes() as u32)
        .map(|u| {
            let ns = g.neighbors(u);
            if ns.is_empty() {
                None
            } else {
                Some(ns.iter().map(|&v| attr[v as usize]).sum::<f64>() / ns.len() as f64)
            }
        })
        .collect()
}

/// Pairs `(attr[u], mean attr of u's friends)` for all non-isolated nodes —
/// the scatter Figure 11 plots and the input to the §7 Spearman correlations.
pub fn homophily_pairs(g: &Csr, attr: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let means = neighbor_mean(g, attr);
    let mut own = Vec::new();
    let mut friends = Vec::new();
    for (u, m) in means.into_iter().enumerate() {
        if let Some(m) = m {
            own.push(attr[u]);
            friends.push(m);
        }
    }
    (own, friends)
}

/// Degree assortativity: Pearson correlation of the degrees at either end of
/// each edge (Newman 2002). Positive values mean highly connected users
/// befriend other highly connected users.
pub fn degree_assortativity(g: &Csr) -> Option<f64> {
    let mut n = 0u64;
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for u in 0..g.n_nodes() as u32 {
        let du = f64::from(g.degree(u));
        for &v in g.neighbors(u) {
            // Each undirected edge contributes both (du,dv) and (dv,du),
            // which symmetrizes the correlation.
            let dv = f64::from(g.degree(v));
            n += 1;
            sx += du;
            sy += dv;
            sxx += du * du;
            syy += dv * dv;
            sxy += du * dv;
        }
    }
    if n == 0 {
        return None;
    }
    let nf = n as f64;
    let cov = sxy / nf - (sx / nf) * (sy / nf);
    let vx = sxx / nf - (sx / nf) * (sx / nf);
    let vy = syy / nf - (sy / nf) * (sy / nf);
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_mean_simple() {
        // 0-1, 1-2; attr = [10, 20, 30]
        let g = Csr::from_edges(3, [(0, 1), (1, 2)].into_iter());
        let m = neighbor_mean(&g, &[10.0, 20.0, 30.0]);
        assert_eq!(m[0], Some(20.0));
        assert_eq!(m[1], Some(20.0)); // (10+30)/2
        assert_eq!(m[2], Some(20.0));
    }

    #[test]
    fn isolated_nodes_excluded() {
        let g = Csr::from_edges(3, [(0, 1)].into_iter());
        let m = neighbor_mean(&g, &[1.0, 2.0, 3.0]);
        assert_eq!(m[2], None);
        let (own, friends) = homophily_pairs(&g, &[1.0, 2.0, 3.0]);
        assert_eq!(own, vec![1.0, 2.0]);
        assert_eq!(friends, vec![2.0, 1.0]);
    }

    #[test]
    fn star_graph_is_disassortative() {
        // A star: hub degree n-1, leaves degree 1 → strongly negative.
        let edges: Vec<(u32, u32)> = (1..10u32).map(|i| (0, i)).collect();
        let g = Csr::from_edges(10, edges.into_iter());
        let r = degree_assortativity(&g).unwrap();
        assert!(r < -0.9, "assortativity = {r}");
    }

    #[test]
    fn regular_graph_assortativity_undefined() {
        // Cycle: every degree equal → zero variance → None.
        let g = Csr::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)].into_iter());
        assert!(degree_assortativity(&g).is_none());
    }

    #[test]
    fn two_cliques_bridged_is_assortative() {
        // Two 4-cliques joined by one edge: high-degree nodes mostly connect
        // to high-degree nodes.
        let mut edges = Vec::new();
        for c in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((c + i, c + j));
                }
            }
        }
        edges.push((0, 4));
        let g = Csr::from_edges(8, edges.into_iter());
        let r = degree_assortativity(&g).unwrap();
        assert!(r < 0.0, "bridge nodes have higher degree than their clique peers: {r}");
    }

    #[test]
    fn empty_graph_returns_none() {
        let g = Csr::from_edges(3, std::iter::empty());
        assert!(degree_assortativity(&g).is_none());
        let g = Csr::from_edges(0, std::iter::empty());
        assert!(degree_assortativity(&g).is_none());
        assert!(neighbor_mean(&g, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_attr_length_panics() {
        let g = Csr::from_edges(3, [(0, 1)].into_iter());
        neighbor_mean(&g, &[1.0]);
    }
}
