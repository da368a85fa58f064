//! Subgraph *homomorphism* counting.
//!
//! The paper (§2.2) notes subgraph counting can also be defined over
//! homomorphisms — the same mapping conditions minus injectivity — and that
//! NeurSC naturally handles that semantics. This module provides the exact
//! homomorphism counter so workloads can be generated under either
//! semantics.

use crate::candidates::CandidateSets;
use crate::enumerate::{CountOutcome, CountResult};
use crate::ordering::build_order;
use neursc_graph::types::VertexId;
use neursc_graph::Graph;

/// Counts label-preserving, edge-preserving (not necessarily injective)
/// mappings of `q` into `g` with the given expansion budget.
///
/// Candidates come from the label partition alone: the local pruning
/// conditions of the isomorphism filter (degree, profile subsumption) are
/// *not* necessary for homomorphisms — a homomorphism can fold query
/// vertices together, so `d(v) ≥ d(u)` need not hold.
pub fn count_homomorphisms(q: &Graph, g: &Graph, budget: u64) -> CountResult {
    if q.n_vertices() == 0 {
        return CountResult {
            count: 1,
            outcome: CountOutcome::Complete,
            expansions: 0,
        };
    }
    let n_labels = g.n_labels().max(q.n_labels());
    let mut by_label: Vec<Vec<VertexId>> = vec![Vec::new(); n_labels];
    for v in g.vertices() {
        by_label[g.label(v) as usize].push(v);
    }
    let sets: Vec<Vec<VertexId>> = q
        .vertices()
        .map(|u| {
            by_label
                .get(q.label(u) as usize)
                .cloned()
                .unwrap_or_default()
        })
        .collect();
    let cs = CandidateSets { sets };
    if cs.any_empty() {
        return CountResult {
            count: 0,
            outcome: CountOutcome::Complete,
            expansions: 0,
        };
    }
    let order = build_order(q, &cs);

    struct St<'a> {
        g: &'a Graph,
        cs: &'a CandidateSets,
        order: &'a crate::ordering::MatchingOrder,
        mapping: Vec<VertexId>,
        count: u64,
        expansions: u64,
        budget: u64,
        exhausted: bool,
    }
    impl St<'_> {
        fn recurse(&mut self, depth: usize) {
            if depth == self.order.order.len() {
                self.count += 1;
                return;
            }
            let u = self.order.order[depth];
            let backward = &self.order.backward[depth];
            for idx in 0..self.cs.get(u).len() {
                if self.exhausted {
                    return;
                }
                self.expansions += 1;
                if self.expansions > self.budget {
                    self.exhausted = true;
                    return;
                }
                let v = self.cs.get(u)[idx];
                let ok = backward
                    .iter()
                    .all(|&j| self.g.has_edge(v, self.mapping[j]));
                if !ok {
                    continue;
                }
                self.mapping[depth] = v;
                self.recurse(depth + 1);
            }
        }
    }
    let mut st = St {
        g,
        cs: &cs,
        order: &order,
        mapping: vec![0; q.n_vertices()],
        count: 0,
        expansions: 0,
        budget,
        exhausted: false,
    };
    st.recurse(0);
    CountResult {
        count: st.count,
        outcome: if st.exhausted {
            CountOutcome::BudgetExhausted
        } else {
            CountOutcome::Complete
        },
        expansions: st.expansions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::count_embeddings;
    use neursc_graph::Graph;

    #[test]
    fn homomorphisms_at_least_embeddings() {
        let g = crate::profile::paper_data_graph();
        let q = crate::profile::paper_query_graph();
        let hom = count_homomorphisms(&q, &g, 1_000_000).exact().unwrap();
        let emb = count_embeddings(&q, &g, 1_000_000).exact().unwrap();
        assert!(hom >= emb);
    }

    #[test]
    fn single_edge_hom_count_is_directed_edge_count() {
        // Unlabeled single-edge query: homomorphisms = 2|E| (each edge in
        // both orientations; no folding since adjacent copies need an edge
        // and the graph is loopless).
        let g = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let q = Graph::from_edges(2, &[0, 0], &[(0, 1)]).unwrap();
        let hom = count_homomorphisms(&q, &g, 100_000).exact().unwrap();
        assert_eq!(hom, 6);
    }

    #[test]
    fn path2_homs_can_fold() {
        // Query path u0-u1-u2 (all label 0) in a single edge a-b:
        // homomorphisms map u0,u2 to the same vertex: a-b-a and b-a-b → 2.
        // Embeddings: 0 (needs 3 distinct vertices).
        let g = Graph::from_edges(2, &[0, 0], &[(0, 1)]).unwrap();
        let q = Graph::from_edges(3, &[0, 0, 0], &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(count_homomorphisms(&q, &g, 1000).exact(), Some(2));
        assert_eq!(count_embeddings(&q, &g, 1000).exact(), Some(0));
    }

    #[test]
    fn triangle_has_no_homomorphism_into_bipartite() {
        let g = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let tri = Graph::from_edges(3, &[0; 3], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(count_homomorphisms(&tri, &g, 10_000).exact(), Some(0));
    }

    #[test]
    fn budget_applies_to_homomorphisms() {
        let n = 10;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(n, &vec![0; n], &edges).unwrap();
        let q = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = count_homomorphisms(&q, &g, 20);
        assert_eq!(r.outcome, CountOutcome::BudgetExhausted);
    }
}
