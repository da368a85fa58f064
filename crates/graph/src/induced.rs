//! Induced subgraphs and connected-component decomposition.
//!
//! These implement Definition 3 of the paper (the candidate substructure
//! `G_sub` is the subgraph of `G` induced by the candidate set `CS(q)`) and
//! the follow-up rule that a disconnected `G_sub` is split into connected
//! candidate substructures.

use crate::graph::{Graph, GraphBuilder};
use crate::types::VertexId;

/// An induced subgraph along with its mapping back to the parent graph.
///
/// `origin[i]` is the parent-graph id of local vertex `i`; labels are
/// inherited from the parent (same `f_l`, per Definition 3).
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The extracted graph with local dense ids `0..k`.
    pub graph: Graph,
    /// Local id → parent id.
    pub origin: Vec<VertexId>,
}

/// Extracts the subgraph of `g` induced by `vertices` (Definition 3).
///
/// `vertices` may be in any order and contain duplicates; the result's local
/// ids follow ascending parent-id order, so a binary search of
/// [`InducedSubgraph::origin`] maps a parent id to its local id.
pub fn induced_subgraph(g: &Graph, vertices: &[VertexId]) -> InducedSubgraph {
    let mut origin: Vec<VertexId> = vertices.to_vec();
    origin.sort_unstable();
    origin.dedup();

    let mut b = GraphBuilder::new(origin.len());
    for (i, &p) in origin.iter().enumerate() {
        b.set_label(i as VertexId, g.label(p));
    }
    // For each kept vertex, intersect its adjacency with the kept set by
    // merging two sorted sequences (both sorted ascending).
    for (i, &p) in origin.iter().enumerate() {
        for &q in g.neighbors(p) {
            if q > p {
                if let Ok(j) = origin.binary_search(&q) {
                    b.add_edge(i as VertexId, j as VertexId)
                        .unwrap_or_else(|_| unreachable!("indices are in range by construction"));
                }
            }
        }
    }
    InducedSubgraph {
        graph: b.build(),
        origin,
    }
}

/// Splits a graph into connected components, each returned as an induced
/// subgraph over the parent. Components are ordered by their smallest
/// parent-vertex id.
pub fn connected_components(g: &Graph) -> Vec<InducedSubgraph> {
    let n = g.n_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut n_comp = 0usize;
    let mut stack = Vec::new();
    for s in g.vertices() {
        if comp[s as usize] != usize::MAX {
            continue;
        }
        comp[s as usize] = n_comp;
        stack.push(s);
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == usize::MAX {
                    comp[v as usize] = n_comp;
                    stack.push(v);
                }
            }
        }
        n_comp += 1;
    }
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); n_comp];
    for v in g.vertices() {
        members[comp[v as usize]].push(v);
    }
    members.iter().map(|vs| induced_subgraph(g, vs)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        // Two components: triangle {0,1,2} and edge {3,4}; labels 0..=4.
        Graph::from_edges(5, &[0, 1, 2, 3, 4], &[(0, 1), (1, 2), (0, 2), (3, 4)]).unwrap()
    }

    #[test]
    fn induced_keeps_only_internal_edges() {
        let g = sample();
        let sub = induced_subgraph(&g, &[0, 2, 3]);
        assert_eq!(sub.graph.n_vertices(), 3);
        assert_eq!(sub.graph.n_edges(), 1); // only (0,2) survives
        assert_eq!(sub.origin, vec![0, 2, 3]);
        // labels inherited
        assert_eq!(sub.graph.label(0), 0);
        assert_eq!(sub.graph.label(1), 2);
        assert_eq!(sub.graph.label(2), 3);
    }

    #[test]
    fn induced_handles_duplicates_and_order() {
        let g = sample();
        let sub = induced_subgraph(&g, &[2, 0, 2, 1]);
        assert_eq!(sub.graph.n_vertices(), 3);
        assert_eq!(sub.graph.n_edges(), 3); // whole triangle
        assert_eq!(sub.origin, vec![0, 1, 2]);
    }

    #[test]
    fn components_partition_the_graph() {
        let g = sample();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].origin, vec![0, 1, 2]);
        assert_eq!(comps[0].graph.n_edges(), 3);
        assert_eq!(comps[1].origin, vec![3, 4]);
        assert_eq!(comps[1].graph.n_edges(), 1);
    }

    #[test]
    fn components_of_connected_graph_is_identity() {
        let g = Graph::from_edges(3, &[5, 6, 7], &[(0, 1), (1, 2)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].origin, vec![0, 1, 2]);
        assert_eq!(comps[0].graph, g);
    }

    #[test]
    fn isolated_vertices_become_singleton_components() {
        let g = Graph::from_edges(3, &[0, 0, 0], &[]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.graph.n_vertices() == 1));
    }

    #[test]
    fn empty_selection_gives_empty_graph() {
        let g = sample();
        let sub = induced_subgraph(&g, &[]);
        assert_eq!(sub.graph.n_vertices(), 0);
        assert_eq!(sub.graph.n_edges(), 0);
    }
}
