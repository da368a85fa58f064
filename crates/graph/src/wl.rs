//! 1-dimensional Weisfeiler–Lehman (WL) color refinement.
//!
//! The paper's expressiveness analysis (§5.7, Theorem 5.3) states that the
//! WEst estimation network distinguishes any pair of graphs that 1-WL
//! distinguishes within K rounds. This module provides the reference 1-WL
//! implementation that the GNN tests compare against.

use crate::graph::Graph;
use std::collections::HashMap;

/// The color histogram of a graph after `rounds` iterations of 1-WL
/// refinement, starting from vertex labels.
///
/// Two graphs are *1-WL-distinguishable within k rounds* iff their
/// histograms differ after some round `≤ k`; [`wl_distinguishes`] implements
/// that test. Colors are canonicalized per call, so histograms are only
/// comparable when computed by one joint refinement of both graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WlHistogram {
    /// Sorted `(color, multiplicity)` pairs.
    pub counts: Vec<(u64, usize)>,
}

/// Runs `rounds` iterations of joint 1-WL refinement over both graphs (so
/// color ids are shared) and returns the per-round histograms of each.
///
/// `result.0[r]` / `result.1[r]` are the histograms of `g1` / `g2` after
/// round `r` (round 0 = initial labels).
fn wl_histograms(g1: &Graph, g2: &Graph, rounds: usize) -> (Vec<WlHistogram>, Vec<WlHistogram>) {
    let mut colors1: Vec<u64> = g1.vertices().map(|v| g1.label(v) as u64).collect();
    let mut colors2: Vec<u64> = g2.vertices().map(|v| g2.label(v) as u64).collect();
    let mut hist1 = vec![histogram(&colors1)];
    let mut hist2 = vec![histogram(&colors2)];

    for _ in 0..rounds {
        // Build signatures and re-number them jointly so colors stay aligned.
        let sig1 = signatures(g1, &colors1);
        let sig2 = signatures(g2, &colors2);
        let mut palette: HashMap<(u64, Vec<u64>), u64> = HashMap::new();
        let mut next = 0u64;
        let mut recolor = |sigs: Vec<(u64, Vec<u64>)>| -> Vec<u64> {
            sigs.into_iter()
                .map(|s| {
                    *palette.entry(s).or_insert_with(|| {
                        let c = next;
                        next += 1;
                        c
                    })
                })
                .collect()
        };
        colors1 = recolor(sig1);
        colors2 = recolor(sig2);
        hist1.push(histogram(&colors1));
        hist2.push(histogram(&colors2));
    }
    (hist1, hist2)
}

fn signatures(g: &Graph, colors: &[u64]) -> Vec<(u64, Vec<u64>)> {
    g.vertices()
        .map(|v| {
            let mut ns: Vec<u64> = g.neighbors(v).iter().map(|&u| colors[u as usize]).collect();
            ns.sort_unstable();
            (colors[v as usize], ns)
        })
        .collect()
}

fn histogram(colors: &[u64]) -> WlHistogram {
    let mut map: HashMap<u64, usize> = HashMap::new();
    for &c in colors {
        *map.entry(c).or_insert(0) += 1;
    }
    let mut counts: Vec<_> = map.into_iter().collect();
    counts.sort_unstable();
    WlHistogram { counts }
}

/// Whether 1-WL declares `g1` and `g2` non-isomorphic within `rounds`
/// refinement rounds (i.e. some round's color histograms differ).
pub fn wl_distinguishes(g1: &Graph, g2: &Graph, rounds: usize) -> bool {
    if g1.n_vertices() != g2.n_vertices() || g1.n_edges() != g2.n_edges() {
        return true;
    }
    let (h1, h2) = wl_histograms(g1, g2, rounds);
    h1.iter().zip(h2.iter()).any(|(a, b)| a != b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<_> = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
        Graph::from_edges(n, &vec![0; n], &edges).unwrap()
    }

    #[test]
    fn distinguishes_different_sizes_trivially() {
        assert!(wl_distinguishes(&cycle(4), &cycle(5), 0));
    }

    #[test]
    fn distinguishes_triangle_from_path() {
        let tri = cycle(3);
        let path = Graph::from_edges(3, &[0; 3], &[(0, 1), (1, 2)]).unwrap();
        assert!(wl_distinguishes(&tri, &path, 1));
    }

    #[test]
    fn cannot_distinguish_c6_from_two_triangles() {
        // The classic 1-WL failure case: C6 vs. 2×C3 (both 2-regular,
        // same size, same label). 1-WL must NOT distinguish them.
        let c6 = cycle(6);
        let two_triangles = Graph::from_edges(
            6,
            &[0; 6],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
        .unwrap();
        assert!(!wl_distinguishes(&c6, &two_triangles, 10));
    }

    #[test]
    fn labels_break_symmetry() {
        let a = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let b = Graph::from_edges(2, &[0, 0], &[(0, 1)]).unwrap();
        assert!(wl_distinguishes(&a, &b, 0));
    }

    #[test]
    fn isomorphic_graphs_never_distinguished() {
        // Same path relabeled (vertex order permuted).
        let p1 = Graph::from_edges(4, &[1, 0, 0, 1], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let p2 = Graph::from_edges(4, &[0, 1, 1, 0], &[(1, 0), (0, 3), (3, 2)]).unwrap();
        assert!(!wl_distinguishes(&p1, &p2, 10));
    }

    #[test]
    fn star_vs_path_distinguished_after_refinement() {
        let star = Graph::from_edges(4, &[0; 4], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let path = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(wl_distinguishes(&star, &path, 1));
    }
}
