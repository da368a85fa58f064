//! Theorem 5.3 integration check: WEst's estimation network is bounded by
//! — and with random weights empirically achieves — the discriminating
//! power of the 1-WL test. We test both directions across crates: the
//! graph crate's reference WL implementation vs. actual WEst forward
//! passes.

use neursc::core::train::prepare_query_with;
use neursc::core::{NeurSc, NeurScConfig, Variant};
use neursc::graph::wl::wl_distinguishes;
use neursc::prelude::*;

/// Runs WEst (intra-only, extraction off) on `q` against itself as the
/// substructure, returning the scalar log-count output — a graph-level
/// embedding readout through the whole network.
fn west_signature(model: &NeurSc, g: &Graph) -> f64 {
    // Use the graph as both query and data so the network sees it fully.
    let pq = prepare_query_with(g, g, &model.config, 0, &GraphContext::new()).unwrap();
    model.estimate_prepared(&pq).count
}

fn model() -> NeurSc {
    let mut cfg = NeurScConfig::small().with_variant(Variant::NoExtraction);
    cfg.pretrain_epochs = 0;
    cfg.adversarial_epochs = 0;
    NeurSc::new(cfg, 99)
}

#[test]
fn wl_distinguishable_graphs_get_distinct_west_outputs() {
    let m = model();
    // Triangle-with-tail vs. path: separated by 1-WL in ≤ 2 rounds.
    let a = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
    let b = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3)]).unwrap();
    assert!(wl_distinguishes(&a, &b, 2));
    let sa = west_signature(&m, &a);
    let sb = west_signature(&m, &b);
    assert!(
        (sa - sb).abs() > 1e-9 * sa.abs().max(1.0),
        "WEst failed to separate WL-distinguishable graphs: {sa} vs {sb}"
    );
}

#[test]
fn wl_equivalent_graphs_get_equal_west_outputs() {
    let m = model();
    // C6 vs. two triangles: 1-WL-equivalent → WEst must agree (its
    // message passing cannot exceed 1-WL).
    let c6 = Graph::from_edges(
        6,
        &[0; 6],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
    )
    .unwrap();
    let tt = Graph::from_edges(
        6,
        &[0; 6],
        &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    )
    .unwrap();
    assert!(!wl_distinguishes(&c6, &tt, 8));
    let s1 = west_signature(&m, &c6);
    let s2 = west_signature(&m, &tt);
    let rel = (s1 - s2).abs() / s1.abs().max(1e-12);
    assert!(
        rel < 1e-4,
        "WEst separated 1-WL-equivalent graphs: {s1} vs {s2}"
    );
}

#[test]
fn isomorphic_graphs_always_get_equal_outputs() {
    let m = model();
    let a = Graph::from_edges(
        5,
        &[0, 1, 2, 1, 0],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
    )
    .unwrap();
    // Relabeled copy: vertex i of `a` maps to (i+2) mod 5, labels follow
    // (b[(i+2)%5] = a[i] → b = [1, 0, 0, 1, 2]); the 5-cycle maps to itself.
    let b = Graph::from_edges(
        5,
        &[1, 0, 0, 1, 2],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
    )
    .unwrap();
    let sa = west_signature(&m, &a);
    let sb = west_signature(&m, &b);
    let rel = (sa - sb).abs() / sa.abs().max(1e-12);
    assert!(rel < 1e-4, "permutation variance detected: {sa} vs {sb}");
}
