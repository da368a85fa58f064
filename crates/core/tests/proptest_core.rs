//! Property tests for NeurSC's extraction and bipartite-graph stages.
//!
//! The load-bearing invariant: extraction must preserve Definition 2's
//! completeness — every data vertex used by any true embedding must land
//! in some retained substructure, inside the right local candidate set.

use neursc_core::config::NeurScConfig;
use neursc_core::extraction::extract_substructures_with;
use neursc_core::train::prepare_query_with;
use neursc_core::GraphContext;
use neursc_graph::{Graph, GraphBuilder};
use proptest::prelude::*;

/// Enumerates all embeddings by brute force (tiny inputs only).
fn all_embeddings(q: &Graph, g: &Graph) -> Vec<Vec<u32>> {
    fn rec(
        q: &Graph,
        g: &Graph,
        depth: usize,
        used: &mut [bool],
        map: &mut Vec<u32>,
        out: &mut Vec<Vec<u32>>,
    ) {
        if depth == q.n_vertices() {
            out.push(map.clone());
            return;
        }
        let u = depth as u32;
        for v in g.vertices() {
            if used[v as usize] || g.label(v) != q.label(u) {
                continue;
            }
            let ok = q
                .neighbors(u)
                .iter()
                .filter(|&&w| (w as usize) < depth)
                .all(|&w| g.has_edge(v, map[w as usize]));
            if !ok {
                continue;
            }
            used[v as usize] = true;
            map.push(v);
            rec(q, g, depth + 1, used, map, out);
            map.pop();
            used[v as usize] = false;
        }
    }
    let mut out = Vec::new();
    rec(
        q,
        g,
        0,
        &mut vec![false; g.n_vertices()],
        &mut Vec::new(),
        &mut out,
    );
    out
}

fn arb_graph(n_min: usize, n_max: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (n_min..=n_max).prop_flat_map(move |n| {
        let label_vec = proptest::collection::vec(0u32..labels, n);
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), n..(3 * n));
        (label_vec, edges).prop_map(move |(ls, es)| {
            let mut b = GraphBuilder::new(n);
            for (v, &l) in ls.iter().enumerate() {
                b.set_label(v as u32, l);
            }
            for (u, v) in es {
                if u != v {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build()
        })
    })
}

/// A connected query built from a path plus extra edges (guaranteed
/// connected, as the paper's workloads require).
fn arb_connected_query(labels: u32) -> impl Strategy<Value = Graph> {
    (2usize..=4).prop_flat_map(move |n| {
        let label_vec = proptest::collection::vec(0u32..labels, n);
        let extra = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n);
        (label_vec, extra).prop_map(move |(ls, es)| {
            let mut b = GraphBuilder::new(n);
            for (v, &l) in ls.iter().enumerate() {
                b.set_label(v as u32, l);
            }
            for v in 1..n as u32 {
                b.add_edge(v - 1, v).unwrap();
            }
            for (u, v) in es {
                if u != v {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every embedding lies entirely within one retained substructure, and
    /// every matched pair appears in that substructure's local candidates.
    #[test]
    fn extraction_preserves_every_embedding(
        g in arb_graph(6, 14, 3),
        q in arb_connected_query(3),
    ) {
        let cfg = NeurScConfig::small();
        let embeddings = all_embeddings(&q, &g);
        let ex = extract_substructures_with(&q, &g, &cfg, &GraphContext::new());
        if !embeddings.is_empty() {
            prop_assert!(!ex.trivially_zero, "nonzero count marked trivially zero");
        }
        for emb in &embeddings {
            // Find the substructure containing the embedding's vertex set.
            let hosted = ex.substructures.iter().any(|sub| {
                emb.iter().enumerate().all(|(u, &v)| {
                    sub.origin.binary_search(&v).is_ok_and(|local| {
                        sub.local_cs[u].contains(&(local as u32))
                    })
                })
            });
            prop_assert!(hosted, "embedding {emb:?} not hosted by any substructure");
        }
    }

    /// Substructure graphs are faithful induced subgraphs: edges map back
    /// to data edges and labels are inherited.
    #[test]
    fn substructures_are_induced_subgraphs(
        g in arb_graph(6, 14, 3),
        q in arb_connected_query(3),
    ) {
        let ex = extract_substructures_with(&q, &g, &NeurScConfig::small(), &GraphContext::new());
        for sub in &ex.substructures {
            for e in sub.graph.edges() {
                prop_assert!(g.has_edge(sub.origin[e.u as usize], sub.origin[e.v as usize]));
            }
            for v in sub.graph.vertices() {
                prop_assert_eq!(sub.graph.label(v), g.label(sub.origin[v as usize]));
            }
            // Size filters were applied.
            prop_assert!(sub.graph.n_vertices() >= q.n_vertices());
            prop_assert!(sub.graph.n_edges() >= q.n_edges());
        }
    }

    /// Prepared queries are internally consistent: bipartite edges stay in
    /// range and every candidate pair has its edge.
    #[test]
    fn prepared_queries_are_consistent(
        g in arb_graph(6, 14, 3),
        q in arb_connected_query(3),
    ) {
        let cfg = NeurScConfig::small();
        let pq = prepare_query_with(&q, &g, &cfg, 0, &GraphContext::new()).unwrap();
        let nq = q.n_vertices();
        for sub in &pq.subs {
            let n = nq + sub.x.rows();
            prop_assert_eq!(sub.gb.n_vertices, n);
            for (&s, &d) in sub.gb.src.iter().zip(&sub.gb.dst) {
                prop_assert!((s as usize) < n && (d as usize) < n);
                // Bipartite: one endpoint on each side.
                prop_assert!(((s as usize) < nq) != ((d as usize) < nq));
            }
            for (u, cands) in sub.local_cs.iter().enumerate() {
                for &v in cands {
                    let vd = (nq + v as usize) as u32;
                    let has = sub
                        .gb
                        .src
                        .iter()
                        .zip(&sub.gb.dst)
                        .any(|(&s, &d)| s == u as u32 && d == vd);
                    prop_assert!(has, "candidate edge ({u},{v}) missing from G_B");
                }
            }
        }
    }
}
