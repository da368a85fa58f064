//! r-hop label profiles (GraphQL local pruning, paper §4(1)).
//!
//! The *profile* of a vertex `u` within radius `r` is the lexicographically
//! ordered multiset of labels of `u` and of every vertex within `r` hops.
//! Local pruning keeps `v ∈ CS(u)` iff the profile of `u` is a sub-multiset
//! (equivalently: a subsequence of the sorted sequence) of the profile of
//! `v` — a necessary condition for `(u, v)` to appear in any match, because
//! a subgraph-isomorphism embedding maps the r-ball of `u` injectively and
//! label-preservingly into the r-ball of `v`.

use neursc_graph::traversal::khop_ball;
use neursc_graph::types::{Label, VertexId};
use neursc_graph::Graph;

/// The sorted label multiset of a vertex's r-ball.
pub type Profile = Vec<Label>;

/// Shared `(graph, radius) → all_profiles` cache: [`all_profiles`] is by far
/// the most expensive graph-wide precomputation of the filtering pipeline
/// (a BFS per vertex for `r > 1`) and depends only on `(G, r)`, so across a
/// query batch it is computed once — `cache.get_or_build(g, &r, ||
/// all_profiles(g, r))` — and shared.
pub type ProfileCache = neursc_graph::cache::GraphCache<u32, Vec<Profile>>;

/// Computes the radius-`r` profile of one vertex.
pub fn vertex_profile(g: &Graph, v: VertexId, r: u32) -> Profile {
    let mut labels: Vec<Label> = khop_ball(g, v, r).into_iter().map(|u| g.label(u)).collect();
    labels.sort_unstable();
    labels
}

/// Computes the radius-1 profiles of **all** vertices in one pass — the
/// common case (`r = 1` is GraphQL's default and what NeurSC uses), done
/// without per-vertex BFS: `O(n + m)` label gathering plus sorting.
pub fn all_profiles_r1(g: &Graph) -> Vec<Profile> {
    g.vertices()
        .map(|v| {
            let mut labels: Vec<Label> = Vec::with_capacity(g.degree(v) + 1);
            profile_r1_into(
                g.label(v),
                g.neighbors(v).iter().map(|&u| g.label(u)),
                &mut labels,
            );
            labels
        })
        .collect()
}

/// Fills `out` with the radius-1 profile of a vertex given its own label
/// and its neighbors' labels — the row-streamed analogue of
/// [`all_profiles_r1`], shared with the out-of-core store so the resident
/// and streamed filtering paths use one profile definition.
pub fn profile_r1_into(
    own: Label,
    neighbor_labels: impl IntoIterator<Item = Label>,
    out: &mut Vec<Label>,
) {
    out.clear();
    out.push(own);
    out.extend(neighbor_labels);
    out.sort_unstable();
}

/// Computes all radius-`r` profiles. `r = 1` uses the one-pass gather;
/// `r > 1` runs a BFS per vertex but reuses one queue and one stamp-based
/// visited array across all of them — per-vertex BFS allocation was the
/// dominant cost of this path on large data graphs.
pub fn all_profiles(g: &Graph, r: u32) -> Vec<Profile> {
    if r == 1 {
        return all_profiles_r1(g);
    }
    let n = g.n_vertices();
    // `visited[u] == stamp` ⇔ u reached in the BFS from vertex `stamp`.
    let mut visited: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut queue: Vec<VertexId> = Vec::new();
    g.vertices()
        .map(|v| {
            queue.clear();
            queue.push(v);
            visited[v as usize] = v;
            let mut head = 0;
            let mut frontier_end = queue.len();
            let mut depth = 0;
            while depth < r && head < queue.len() {
                while head < frontier_end {
                    let u = queue[head];
                    head += 1;
                    for &w in g.neighbors(u) {
                        if visited[w as usize] != v {
                            visited[w as usize] = v;
                            queue.push(w);
                        }
                    }
                }
                frontier_end = queue.len();
                depth += 1;
            }
            let mut labels: Vec<Label> = queue.iter().map(|&u| g.label(u)).collect();
            labels.sort_unstable();
            labels
        })
        .collect()
}

/// Multiset-inclusion test on two sorted label sequences: does `needle`
/// subsume into `haystack`? Linear two-pointer merge.
pub fn subsumes(haystack: &[Label], needle: &[Label]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    let mut i = 0; // haystack cursor
    for &x in needle {
        // advance haystack until we find x
        while i < haystack.len() && haystack[i] < x {
            i += 1;
        }
        if i >= haystack.len() || haystack[i] != x {
            return false;
        }
        i += 1;
    }
    true
}

/// Test fixture: a data graph reproducing the paper's Figure 1b / Example 1
/// semantics. Labels: `A = 0, B = 1, C = 2, D = 3`; vertex `v{i}` of the
/// figure is id `i − 1`.
///
/// The graph is constructed so that, exactly as in Example 1, local pruning
/// yields `CS(u2) = {v2, v3, v4}` and global refinement shrinks it to
/// `{v4}`, the final candidate sets are `CS(u1) = {v1}`, `CS(u3) = {v5,
/// v6}`, `CS(u4) = {v10, v11}`, and the query has exactly **3** embeddings.
pub fn paper_data_graph() -> Graph {
    let labels = [0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3];
    let edges = [
        (0, 1),  // v1-v2
        (0, 2),  // v1-v3
        (0, 3),  // v1-v4
        (1, 12), // v2-v13
        (2, 12), // v3-v13
        (3, 4),  // v4-v5
        (3, 5),  // v4-v6
        (3, 9),  // v4-v10
        (3, 10), // v4-v11
        (4, 9),  // v5-v10
        (4, 10), // v5-v11
        (5, 10), // v6-v11
        (6, 11), // v7-v12
        (7, 11), // v8-v12
        (8, 11), // v9-v12
    ];
    Graph::from_edges(13, &labels, &edges).unwrap_or_else(|_| unreachable!("static fixture"))
}

/// Test fixture: the Figure 1a query graph — `u1(A)−u2(B)`, `u2−u4(D)`,
/// `u3(C)−u4` (profiles match Example 1: profile(u2) = {A, B, D}).
pub fn paper_query_graph() -> Graph {
    Graph::from_edges(4, &[0, 1, 2, 3], &[(0, 1), (1, 3), (2, 3)])
        .unwrap_or_else(|_| unreachable!("static fixture"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_graph_fingerprints_are_pinned() {
        // Golden values: every cache key and request digest derives from
        // `content_fingerprint`, so it must never move.
        assert_eq!(
            paper_data_graph().content_fingerprint(),
            0x907b_1c70_c410_5cef
        );
        assert_eq!(
            paper_query_graph().content_fingerprint(),
            0x96e5_68f1_ce1a_e223
        );
    }

    #[test]
    fn profile_contains_self_and_neighbors() {
        let g = paper_data_graph();
        // v4 (id 3): label B, neighbors v1(A), v5(C), v6(C), v10(D), v11(D)
        let p = vertex_profile(&g, 3, 1);
        assert_eq!(p, vec![0, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn all_profiles_r1_matches_per_vertex() {
        let g = paper_data_graph();
        let all = all_profiles_r1(&g);
        for v in g.vertices() {
            assert_eq!(all[v as usize], vertex_profile(&g, v, 1));
        }
    }

    #[test]
    fn all_profiles_scratch_bfs_matches_per_vertex() {
        let g = paper_data_graph();
        for r in [2u32, 3, 4] {
            let all = all_profiles(&g, r);
            for v in g.vertices() {
                assert_eq!(all[v as usize], vertex_profile(&g, v, r), "r={r} v={v}");
            }
        }
    }

    #[test]
    fn radius2_profile_is_superset_of_radius1() {
        let g = paper_data_graph();
        for v in g.vertices() {
            let p1 = vertex_profile(&g, v, 1);
            let p2 = vertex_profile(&g, v, 2);
            assert!(subsumes(&p2, &p1));
        }
    }

    #[test]
    fn subsumes_multiset_semantics() {
        assert!(subsumes(&[0, 1, 1, 2], &[1, 2]));
        assert!(subsumes(&[0, 1, 1, 2], &[1, 1]));
        assert!(!subsumes(&[0, 1, 2], &[1, 1])); // multiplicity matters
        assert!(!subsumes(&[0, 1], &[3]));
        assert!(subsumes(&[5], &[]));
        assert!(!subsumes(&[], &[0]));
        assert!(subsumes(&[], &[]));
    }

    #[test]
    fn paper_example_profiles() {
        // Example 1: profile(u2) = {A, B, D}; the profiles of v2, v3 are
        // also {A, B, D} and v4's is {A, B, C, C, D, D}; all subsume u2's.
        let q = paper_query_graph();
        let g = paper_data_graph();
        let pu2 = vertex_profile(&q, 1, 1);
        assert_eq!(pu2, vec![0, 1, 3]);
        for data_v in [1u32, 2, 3] {
            assert!(subsumes(&vertex_profile(&g, data_v, 1), &pu2));
        }
        // v10 (D-labeled) must not subsume a B-rooted profile.
        assert!(!subsumes(&vertex_profile(&g, 9, 1), &pu2));
    }

    #[test]
    fn paper_example_u3_candidates_after_local_pruning() {
        // profile(u3) = {C, D}; every C vertex adjacent to a D vertex passes.
        let q = paper_query_graph();
        let g = paper_data_graph();
        let pu3 = vertex_profile(&q, 2, 1);
        assert_eq!(pu3, vec![2, 3]);
        let passing: Vec<u32> = g
            .vertices_with_label(2)
            .filter(|&v| subsumes(&vertex_profile(&g, v, 1), &pu3))
            .collect();
        // v5..v9 (ids 4..=8) all pass local pruning; refinement later
        // removes v7, v8, v9 (their D neighbor v12 is not in CS(u4)).
        assert_eq!(passing, vec![4, 5, 6, 7, 8]);
    }
}
