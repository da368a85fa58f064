//! Exact triangle count by adjacency intersection.
//!
//! A triangle count needs no search: every edge `{u, v}` closes one
//! triangle per common neighbour. This is the independent oracle for the
//! backtracking counter in tests (a triangle count from intersection
//! merging must match `count_embeddings` on the unlabeled triangle).
//!
//! The count is over *unlabeled, unordered* occurrences; multiply by 6
//! (the triangle's automorphisms) to compare with embedding counts.

use crate::graph::Graph;
use crate::types::VertexId;

/// Total number of triangles (unordered), by sorted-adjacency
/// intersection merging — `O(Σ_e (d(u)+d(v)))`.
pub fn triangle_count(g: &Graph) -> u64 {
    let mut total = 0u64;
    for e in g.edges() {
        total += sorted_intersection_count(g.neighbors(e.u), g.neighbors(e.v));
    }
    total / 3
}

fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::erdos_renyi;
    use crate::graph::Graph;

    #[test]
    fn triangle_counts_of_small_shapes() {
        let k4 = Graph::from_edges(
            4,
            &[0; 4],
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        assert_eq!(triangle_count(&k4), 4);
        let c4 = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(triangle_count(&c4), 0);
        let p4 = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(triangle_count(&p4), 0);
        assert_eq!(triangle_count(&Graph::from_edges(0, &[], &[]).unwrap()), 0);
        assert_eq!(triangle_count(&Graph::from_edges(1, &[0], &[]).unwrap()), 0);
    }

    #[test]
    fn triangle_count_matches_backtracking_counter() {
        // Cross-validate against an unlabeled-triangle occurrence count
        // derived from permutation counting: occurrences = embeddings / 6.
        // (The exact counter lives in neursc-match; here we brute-force.)
        for seed in 0..4u64 {
            let g = erdos_renyi(18, 50, 1, seed);
            let mut brute = 0u64;
            for a in 0..18u32 {
                for b in (a + 1)..18 {
                    for c in (b + 1)..18 {
                        if g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c) {
                            brute += 1;
                        }
                    }
                }
            }
            assert_eq!(triangle_count(&g), brute, "seed {seed}");
        }
    }
}
