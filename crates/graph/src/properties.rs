//! Graph property metrics used by the paper's evaluation.
//!
//! Figure 9 buckets Yeast queries by *label entropy*, *degree entropy*,
//! *density* and *diameter*; Table 2 reports `|V|`, `|E|`, `|L|` and average
//! degree `d` per dataset; all but the diameter ([`crate::traversal`]) are here.

use crate::graph::Graph;

/// Shannon entropy (natural log) of a discrete empirical distribution given
/// by raw counts. Zero-count entries are ignored; an empty or single-class
/// histogram has entropy 0.
pub fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    -counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            p * p.ln()
        })
        .sum::<f64>()
}

/// Label entropy `−Σ_l p(l)·ln p(l)` where `p(l)` is the fraction of
/// vertices carrying label `l` (paper §6.2).
pub fn label_entropy(g: &Graph) -> f64 {
    entropy(&g.label_frequencies())
}

/// Degree entropy `−Σ_d p(d)·ln p(d)` where `p(d)` is the fraction of
/// vertices with degree `d` (paper §6.2).
pub fn degree_entropy(g: &Graph) -> f64 {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.vertices() {
        hist[g.degree(v)] += 1;
    }
    entropy(&hist)
}

/// Graph density `2|E| / (|V|·(|V|−1))`; 0.0 for graphs with < 2 vertices.
pub fn density(g: &Graph) -> f64 {
    let n = g.n_vertices() as f64;
    if n < 2.0 {
        0.0
    } else {
        2.0 * g.n_edges() as f64 / (n * (n - 1.0))
    }
}

/// One-line statistics record for a data graph, mirroring a Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// `|V|`
    pub n_vertices: usize,
    /// `|E|`
    pub n_edges: usize,
    /// `|L|` — number of distinct labels actually present.
    pub n_labels: usize,
    /// Average degree `2|E|/|V|`.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
}

/// Computes the Table 2 row for a graph.
pub fn stats(g: &Graph) -> GraphStats {
    // |L| counts labels present (Table 2 semantics), not the alphabet bound.
    let present = g.label_frequencies().iter().filter(|&&c| c > 0).count();
    GraphStats {
        n_vertices: g.n_vertices(),
        n_edges: g.n_edges(),
        n_labels: present,
        avg_degree: g.avg_degree(),
        max_degree: g.max_degree(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn entropy_of_uniform_and_degenerate() {
        assert!((entropy(&[1, 1, 1, 1]) - (4.0f64).ln()).abs() < 1e-12);
        assert_eq!(entropy(&[10]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0, 0, 5, 0]), 0.0);
    }

    #[test]
    fn entropy_is_maximal_for_uniform() {
        let uniform = entropy(&[3, 3, 3]);
        let skewed = entropy(&[7, 1, 1]);
        assert!(uniform > skewed);
    }

    #[test]
    fn label_entropy_on_mixed_labels() {
        let g = Graph::from_edges(4, &[0, 0, 1, 1], &[(0, 1), (2, 3)]).unwrap();
        assert!((label_entropy(&g) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn degree_entropy_zero_for_regular_graph() {
        // 4-cycle: all degrees equal 2.
        let g = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(degree_entropy(&g), 0.0);
    }

    #[test]
    fn degree_entropy_positive_for_star() {
        let g = Graph::from_edges(4, &[0; 4], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert!(degree_entropy(&g) > 0.0);
    }

    #[test]
    fn density_bounds() {
        let k4 = Graph::from_edges(
            4,
            &[0; 4],
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        assert!((density(&k4) - 1.0).abs() < 1e-12);
        let empty = Graph::from_edges(4, &[0; 4], &[]).unwrap();
        assert_eq!(density(&empty), 0.0);
        let single = Graph::from_edges(1, &[0], &[]).unwrap();
        assert_eq!(density(&single), 0.0);
    }

    #[test]
    fn stats_counts_present_labels_only() {
        // Labels 0 and 5 present; alphabet bound is 6 but |L| = 2.
        let g = Graph::from_edges(2, &[0, 5], &[(0, 1)]).unwrap();
        let s = stats(&g);
        assert_eq!(s.n_labels, 2);
        assert_eq!(s.n_vertices, 2);
        assert_eq!(s.n_edges, 1);
        assert!((s.avg_degree - 1.0).abs() < 1e-12);
        assert_eq!(s.max_degree, 1);
    }
}
