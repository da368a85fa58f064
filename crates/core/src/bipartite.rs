//! Construction of the query–candidate bipartite graph `G_B` (paper §5.3).
//!
//! `V(G_B) = V(q) ∪ V(G_sub)`; there is an edge `(u, v)` iff `v ∈ CS(u)`.
//! In the combined index space, query vertex `u` keeps id `u` and
//! substructure vertex `v` gets id `|V(q)| + v`. If `G_B` is disconnected,
//! random query–data edges are added to link the components ("we would
//! randomly add edges between V(q) and V(G_sub)"), so attention messages
//! can reach every vertex.

use crate::extraction::Substructure;
use neursc_gnn::EdgeList;
use neursc_graph::Graph;
use rand::rngs::StdRng;

/// Builds the directed message edges of `G_B` for one `(q, G_sub)` pair.
///
/// Every candidate edge contributes both directions. Returns the edge list
/// over `|V(q)| + |V(G_sub)|` combined vertices.
pub fn build_bipartite_edges(q: &Graph, sub: &Substructure, rng: &mut StdRng) -> EdgeList {
    let nq = q.n_vertices();
    let ns = sub.graph.n_vertices();
    let n = nq + ns;
    // Room for every candidate pair and the connectors of the usual case,
    // where every component holds a query vertex.
    let pairs: usize = sub.local_cs.iter().map(Vec::len).sum();
    let mut src = Vec::with_capacity(2 * (pairs + nq));
    let mut dst = Vec::with_capacity(2 * (pairs + nq));
    for u in q.vertices() {
        for &v in &sub.local_cs[u as usize] {
            let vd = nq as u32 + v;
            src.push(u);
            dst.push(vd);
            src.push(vd);
            dst.push(u);
        }
    }
    let mut edges = EdgeList {
        src,
        dst,
        n_vertices: n,
    };
    connect_components(&mut edges, nq, ns, rng);
    edges
}

/// Adds random `(query, data)` edges until `G_B` is connected.
///
/// Union-find over the candidate edges names each component by its root.
/// Every component but query vertex 0's ("main") is then linked to main,
/// in ascending root order: an orphan holding query vertices links a random
/// one of them to a random data vertex of main; a data-only orphan links a
/// random data member to a random query vertex of main. Each component
/// keeps its members as one ascending list — query ids (`< nq`) first,
/// then data ids — so a draw is an index into a prefix or a suffix of it,
/// and a link merges two lists.
fn connect_components(edges: &mut EdgeList, nq: usize, ns: usize, rng: &mut StdRng) {
    let n = nq + ns;
    if n == 0 || nq == 0 || ns == 0 {
        return;
    }
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut r = x;
        while parent[r as usize] != r {
            r = parent[r as usize];
        }
        // path compression
        let mut c = x;
        while parent[c as usize] != r {
            let next = parent[c as usize];
            parent[c as usize] = r;
            c = next;
        }
        r
    }
    for i in 0..edges.src.len() {
        let (a, b) = (edges.src[i], edges.dst[i]);
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra as usize] = rb;
        }
    }
    // `comp[v]`: the rank of `v`'s root among all roots, so components are
    // numbered in ascending root order.
    let mut comp = vec![0u32; n];
    let mut n_comp = 0;
    for v in 0..n {
        if parent[v] == v as u32 {
            comp[v] = n_comp;
            n_comp += 1;
        }
    }
    if n_comp == 1 {
        return;
    }
    for v in 0..n as u32 {
        comp[v as usize] = comp[find(&mut parent, v) as usize];
    }
    let mut members = vec![Vec::new(); n_comp as usize];
    for v in 0..n as u32 {
        members[comp[v as usize] as usize].push(v);
    }
    let main = comp[0] as usize;
    let mut merged = Vec::new();
    for orphan in 0..n_comp as usize {
        if orphan == main {
            continue;
        }
        let in_orphan = &members[orphan];
        let in_main = &members[main];
        let orphan_q = in_orphan.partition_point(|&v| (v as usize) < nq);
        let main_q = in_main.partition_point(|&v| (v as usize) < nq);
        let (a, b) = if orphan_q > 0 {
            // orphan has a query vertex → connect it to a random data vertex
            // of the main component
            let qv = in_orphan[rng.gen_range(0..orphan_q)];
            let main_data = &in_main[main_q..];
            let dv = if main_data.is_empty() {
                nq as u32
            } else {
                main_data[rng.gen_range(0..main_data.len())]
            };
            (qv, dv)
        } else {
            // orphan is data-only → connect to a random query vertex of the
            // main component (it holds query vertex 0)
            let dv = in_orphan[rng.gen_range(0..in_orphan.len())];
            let qv = in_main[rng.gen_range(0..main_q)];
            (dv, qv)
        };
        edges.src.push(a);
        edges.dst.push(b);
        edges.src.push(b);
        edges.dst.push(a);
        // `a`'s component joins `b`'s, as the union-find view would have it.
        let (ca, cb) = (comp[a as usize] as usize, comp[b as usize] as usize);
        if ca != cb {
            let from = std::mem::take(&mut members[ca]);
            for &v in &from {
                comp[v as usize] = cb as u32;
            }
            merge_sorted(&members[cb], &from, &mut merged);
            std::mem::swap(&mut members[cb], &mut merged);
        }
    }
}

/// `out` = the ascending merge of two ascending lists.
fn merge_sorted(x: &[u32], y: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(x.len() + y.len());
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        if x[i] < y[j] {
            out.push(x[i]);
            i += 1;
        } else {
            out.push(y[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&x[i..]);
    out.extend_from_slice(&y[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeurScConfig;
    use crate::context::GraphContext;
    use crate::extraction::extract_substructures_with;
    use neursc_match::profile::{paper_data_graph, paper_query_graph};
    use rand::SeedableRng;

    fn connected(edges: &EdgeList) -> bool {
        let n = edges.n_vertices;
        if n == 0 {
            return true;
        }
        let mut adj = vec![Vec::new(); n];
        for (&s, &d) in edges.src.iter().zip(&edges.dst) {
            adj[s as usize].push(d);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &w in &adj[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        seen.into_iter().all(|b| b)
    }

    #[test]
    fn paper_example_bipartite_edges() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let ex = extract_substructures_with(&q, &g, &NeurScConfig::small(), &GraphContext::new());
        let sub = &ex.substructures[0];
        let mut rng = StdRng::seed_from_u64(1);
        let e = build_bipartite_edges(&q, sub, &mut rng);
        // Candidates: u1→{v1}, u2→{v4}, u3→{v5,v6}, u4→{v10,v11} = 6 pairs,
        // each in both directions = 12 directed edges. Candidate edges
        // alone leave G_B in 4 components ({u1,v1}, {u2,v4}, {u3,v5,v6},
        // {u4,v10,v11}), so 3 random connector edges (6 directed) are
        // added, exactly as §5.3 prescribes.
        assert_eq!(e.len(), 18);
        assert_eq!(e.n_vertices, 4 + 6);
        assert!(connected(&e));
    }

    #[test]
    fn every_candidate_pair_becomes_an_edge() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let ex = extract_substructures_with(&q, &g, &NeurScConfig::small(), &GraphContext::new());
        let sub = &ex.substructures[0];
        let mut rng = StdRng::seed_from_u64(2);
        let e = build_bipartite_edges(&q, sub, &mut rng);
        let nq = q.n_vertices() as u32;
        for u in q.vertices() {
            for &v in &sub.local_cs[u as usize] {
                let has = e
                    .src
                    .iter()
                    .zip(&e.dst)
                    .any(|(&s, &d)| s == u && d == nq + v);
                assert!(has, "missing edge ({u}, {})", nq + v);
            }
        }
    }

    #[test]
    fn disconnected_gb_gets_connector_edges() {
        // Two disjoint query vertices with disjoint candidates: q has two
        // components in G_B unless connectors are added.
        let q = neursc_graph::Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let sub = Substructure {
            graph: neursc_graph::Graph::from_edges(4, &[0, 0, 1, 1], &[(0, 1), (2, 3)]).unwrap(),
            origin: vec![10, 11, 12, 13],
            local_cs: vec![vec![0, 1], vec![2, 3]],
        };
        let mut rng = StdRng::seed_from_u64(3);
        let e = build_bipartite_edges(&q, &sub, &mut rng);
        assert!(connected(&e), "connector edges must make G_B connected");
        assert!(
            e.len() > 8,
            "extra edges beyond the 8 candidate-directed ones"
        );
    }

    /// The connector as it was before it kept member lists: an O(n) member
    /// scan and a full root recomputation per orphan component. Kept
    /// verbatim as the reference the list-merging version must reproduce,
    /// edges and random draws alike.
    /// Union-find over the combined vertex set; adds random `(query, data)`
    /// edges until `G_B` is connected.
    fn connect_components_reference(edges: &mut EdgeList, nq: usize, ns: usize, rng: &mut StdRng) {
        let n = nq + ns;
        if n == 0 || nq == 0 || ns == 0 {
            return;
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut r = x;
            while parent[r as usize] != r {
                r = parent[r as usize];
            }
            // path compression
            let mut c = x;
            while parent[c as usize] != r {
                let next = parent[c as usize];
                parent[c as usize] = r;
                c = next;
            }
            r
        }
        for i in 0..edges.src.len() {
            let (a, b) = (edges.src[i], edges.dst[i]);
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra as usize] = rb;
            }
        }
        // Link every component to the component of query vertex 0 by a random
        // cross edge (query side from the orphan component if it has one,
        // otherwise a random query vertex).
        let root0 = find(&mut parent, 0);
        // Gather members per component lazily.
        let mut comp_of: Vec<u32> = (0..n as u32).map(|v| find(&mut parent, v)).collect();
        let mut roots: Vec<u32> = comp_of.clone();
        roots.sort_unstable();
        roots.dedup();
        for &r in &roots {
            if r == root0 {
                continue;
            }
            let members: Vec<u32> = (0..n as u32)
                .filter(|&v| comp_of[v as usize] == r)
                .collect();
            // Choose a query-side endpoint and a data-side endpoint spanning
            // the two components.
            let q_in: Vec<u32> = members
                .iter()
                .copied()
                .filter(|&v| (v as usize) < nq)
                .collect();
            let d_in: Vec<u32> = members
                .iter()
                .copied()
                .filter(|&v| (v as usize) >= nq)
                .collect();
            let (a, b) = if !q_in.is_empty() {
                // orphan has a query vertex → connect it to a random data vertex
                // of the main component
                let qv = q_in[rng.gen_range(0..q_in.len())];
                let dv = pick_from_component_reference(&comp_of, root0, nq, n, true, rng)
                    .unwrap_or(nq as u32);
                (qv, dv)
            } else {
                // orphan is data-only → connect to a random query vertex of the
                // main component
                let dv = d_in[rng.gen_range(0..d_in.len())];
                let qv =
                    pick_from_component_reference(&comp_of, root0, nq, n, false, rng).unwrap_or(0);
                (dv, qv)
            };
            edges.src.push(a);
            edges.dst.push(b);
            edges.src.push(b);
            edges.dst.push(a);
            // Merge in the union-find view.
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            if ra != rb {
                parent[ra as usize] = rb;
            }
            for v in 0..n as u32 {
                comp_of[v as usize] = find(&mut parent, v);
            }
        }
    }

    /// Picks a random member of component `root`; `data_side` selects ids
    /// `≥ nq` (data) or `< nq` (query).
    fn pick_from_component_reference(
        comp_of: &[u32],
        root: u32,
        nq: usize,
        n: usize,
        data_side: bool,
        rng: &mut StdRng,
    ) -> Option<u32> {
        let members: Vec<u32> = (0..n as u32)
            .filter(|&v| {
                comp_of[v as usize] == root
                    && if data_side {
                        v as usize >= nq
                    } else {
                        (v as usize) < nq
                    }
            })
            .collect();
        if members.is_empty() {
            None
        } else {
            Some(members[rng.gen_range(0..members.len())])
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        #[test]
        fn connector_matches_the_rescanning_reference(seed in proptest::prelude::any::<u64>()) {
            // Random candidate sets over 1–16 query vertices in which every
            // query vertex has a candidate (extraction's `covers_all`);
            // sparse, so G_B falls into many components, data-only ones
            // included (data vertices nobody lists).
            let mut gen = StdRng::seed_from_u64(seed);
            let nq = gen.gen_range(1..=16usize);
            let ns = gen.gen_range(1..=48usize);
            let density = gen.gen_range(0.0..0.3f64);
            let local_cs: Vec<Vec<u32>> = (0..nq)
                .map(|_| {
                    let mut set: Vec<u32> =
                        (0..ns as u32).filter(|_| gen.gen_bool(density)).collect();
                    if set.is_empty() {
                        set.push(gen.gen_range(0..ns as u32));
                    }
                    set
                })
                .collect();
            let q = neursc_graph::Graph::from_edges(nq, &vec![0; nq], &[]).unwrap();
            let sub = Substructure {
                graph: neursc_graph::Graph::from_edges(ns, &vec![0; ns], &[]).unwrap(),
                origin: (0..ns as u32).collect(),
                local_cs,
            };
            let rng_seed = gen.next_u64();
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let got = build_bipartite_edges(&q, &sub, &mut rng);

            let mut want = EdgeList { src: Vec::new(), dst: Vec::new(), n_vertices: nq + ns };
            for (u, set) in sub.local_cs.iter().enumerate() {
                for &v in set {
                    let vd = (nq + v as usize) as u32;
                    want.src.extend([u as u32, vd]);
                    want.dst.extend([vd, u as u32]);
                }
            }
            let mut ref_rng = StdRng::seed_from_u64(rng_seed);
            connect_components_reference(&mut want, nq, ns, &mut ref_rng);

            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(rng.next_u64(), ref_rng.next_u64());
            proptest::prop_assert!(connected(&got));
        }
    }

    #[test]
    fn connector_edges_are_deterministic_in_seed() {
        let q = neursc_graph::Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let sub = Substructure {
            graph: neursc_graph::Graph::from_edges(4, &[0, 0, 1, 1], &[(0, 1), (2, 3)]).unwrap(),
            origin: vec![10, 11, 12, 13],
            local_cs: vec![vec![0, 1], vec![2, 3]],
        };
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(
            build_bipartite_edges(&q, &sub, &mut r1),
            build_bipartite_edges(&q, &sub, &mut r2)
        );
    }
}
