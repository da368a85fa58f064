//! Property-based tests for the graph substrate: CSR invariants, induced
//! subgraphs, components, traversal and WL refinement under arbitrary
//! random graphs.

use neursc_graph::generate::erdos_renyi;
use neursc_graph::induced::{connected_components, induced_subgraph};
use neursc_graph::traversal::{bfs, diameter, is_connected, UNREACHABLE};
use neursc_graph::wl::wl_distinguishes;
use neursc_graph::{Graph, GraphBuilder};
use proptest::prelude::*;

/// Strategy: an arbitrary labeled simple graph with up to `max_n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u32..4, n);
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(3 * n));
        (labels, edges).prop_map(move |(labels, edges)| {
            let mut b = GraphBuilder::new(n);
            for (v, &l) in labels.iter().enumerate() {
                b.set_label(v as u32, l);
            }
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn csr_invariants_always_hold(g in arb_graph(40)) {
        prop_assert!(g.check_invariants());
    }

    #[test]
    fn degree_sum_equals_twice_edges(g in arb_graph(40)) {
        let sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.n_edges());
    }

    #[test]
    fn has_edge_agrees_with_neighbor_lists(g in arb_graph(25)) {
        for u in g.vertices() {
            for v in g.vertices() {
                let listed = g.neighbors(u).contains(&v);
                prop_assert_eq!(g.has_edge(u, v), listed);
            }
        }
    }

    #[test]
    fn induced_subgraph_edges_are_exactly_internal(g in arb_graph(30), mask in proptest::collection::vec(any::<bool>(), 30)) {
        let keep: Vec<u32> = g.vertices().filter(|&v| mask[v as usize % mask.len()]).collect();
        let sub = induced_subgraph(&g, &keep);
        // every subgraph edge maps to a parent edge
        for e in sub.graph.edges() {
            prop_assert!(g.has_edge(sub.origin[e.u as usize], sub.origin[e.v as usize]));
        }
        // every internal parent edge survives
        let expected = g
            .edges()
            .filter(|e| keep.contains(&e.u) && keep.contains(&e.v))
            .count();
        prop_assert_eq!(sub.graph.n_edges(), expected);
        // labels preserved
        for (i, &p) in sub.origin.iter().enumerate() {
            prop_assert_eq!(sub.graph.label(i as u32), g.label(p));
        }
    }

    #[test]
    fn components_partition_vertices(g in arb_graph(40)) {
        let comps = connected_components(&g);
        let mut all: Vec<u32> = comps.iter().flat_map(|c| c.origin.iter().copied()).collect();
        all.sort_unstable();
        let expect: Vec<u32> = g.vertices().collect();
        prop_assert_eq!(all, expect);
        for c in &comps {
            prop_assert!(is_connected(&c.graph));
        }
    }

    #[test]
    fn component_edges_sum_to_total(g in arb_graph(40)) {
        let comps = connected_components(&g);
        let sum: usize = comps.iter().map(|c| c.graph.n_edges()).sum();
        prop_assert_eq!(sum, g.n_edges());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(g in arb_graph(30)) {
        if g.n_vertices() == 0 { return Ok(()); }
        let r = bfs(&g, 0);
        for e in g.edges() {
            let (du, dv) = (r.dist[e.u as usize], r.dist[e.v as usize]);
            if du != UNREACHABLE && dv != UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // endpoints of one edge are in the same component
                prop_assert_eq!(du, dv);
            }
        }
    }

    #[test]
    fn diameter_defined_iff_connected(g in arb_graph(25)) {
        prop_assert_eq!(diameter(&g).is_some(), g.n_vertices() > 0 && is_connected(&g));
    }

    #[test]
    fn wl_never_distinguishes_graph_from_relabeled_self(g in arb_graph(20), perm_seed in any::<u64>()) {
        // Build an isomorphic copy by permuting vertex ids.
        use rand::{Rng, SeedableRng};
        let n = g.n_vertices();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut b = GraphBuilder::new(n);
        for v in g.vertices() {
            b.set_label(perm[v as usize], g.label(v));
        }
        for e in g.edges() {
            b.add_edge(perm[e.u as usize], perm[e.v as usize]).unwrap();
        }
        let h = b.build();
        prop_assert!(!wl_distinguishes(&g, &h, 5));
    }
}

#[test]
fn er_generator_respects_invariants_at_scale() {
    let g = erdos_renyi(2000, 8000, 12, 123);
    assert!(g.check_invariants());
    assert_eq!(g.n_edges(), 8000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The counting-sort build equals one global sort + dedup of the
    /// canonical edges: few vertices and many draws, so edges repeat in
    /// both orientations.
    #[test]
    fn build_equals_a_global_sort_and_dedup(
        n in 1usize..12,
        labels in proptest::collection::vec(0u32..6, 12),
        draws in proptest::collection::vec((0u32..12, 0u32..12), 0..80),
    ) {
        let edges: Vec<(u32, u32)> = draws
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .filter(|(u, v)| u != v)
            .collect();
        let mut b = GraphBuilder::new(n);
        for (v, &l) in labels[..n].iter().enumerate() {
            b.set_label(v as u32, l);
        }
        for &(u, v) in &edges {
            b.add_edge(u, v).unwrap();
        }
        let built = b.build();

        let mut canonical: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        canonical.sort_unstable();
        canonical.dedup();
        let mut rows = vec![Vec::new(); n];
        for &(u, v) in &canonical {
            rows[u as usize].push(v);
            rows[v as usize].push(u);
        }
        let mut offsets = vec![0];
        let mut neighbors = Vec::new();
        for row in &mut rows {
            row.sort_unstable();
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len());
        }
        let want = Graph::from_csr_parts(labels[..n].to_vec(), offsets, neighbors).unwrap();
        prop_assert_eq!(&built, &want);
        prop_assert_eq!(built.n_edges(), canonical.len());
        prop_assert_eq!(built.max_degree(), want.max_degree());
        prop_assert_eq!(built.n_labels(), want.n_labels());
    }
}
