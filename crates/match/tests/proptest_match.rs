//! Property tests for the matching substrate.
//!
//! The load-bearing property is *candidate completeness* (Definition 2): no
//! filtering stage may drop a data vertex that participates in a true
//! match. We verify it by enumerating all embeddings by brute force on
//! random graphs and checking every matched pair survives the full
//! filter pipeline. We also cross-check the backtracking counter against
//! brute force.

use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::types::VertexId;
use neursc_graph::{Graph, GraphBuilder};
use neursc_match::budget::{FilterBudget, FilterError, FilterPhase};
use neursc_match::candidates::{local_pruning, local_pruning_metered, CandidateSets};
use neursc_match::enumerate::{brute_force_count, count_embeddings};
use neursc_match::filter::{filter_candidates, FilterConfig};
use neursc_match::profile::{all_profiles, subsumes};
use neursc_match::refinement::global_refinement_metered;
use proptest::prelude::*;
use rand::SeedableRng;

/// Enumerates all embeddings (query vertex → data vertex maps) brute-force.
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

fn arb_small_graph(n_min: usize, n_max: usize, n_labels: u32) -> impl Strategy<Value = Graph> {
    (n_min..=n_max).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0u32..n_labels, n);
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(2 * n));
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

/// `g` with each label `l < 12` moved: onto 0..6 and 64..70 when `wide`, so
/// that every label shares its signature bit (`l mod 64`) with another one;
/// onto 0..2 otherwise, so that every label has a bit of its own and
/// profiles repeat labels two, three and more times.
fn relabel(g: &Graph, wide: bool) -> Graph {
    let labels: Vec<u32> = g
        .labels()
        .iter()
        .map(|&l| match (wide, l < 6) {
            (true, true) => l,
            (true, false) => l + 58,
            (false, _) => l % 2,
        })
        .collect();
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
    Graph::from_edges(g.n_vertices(), &labels, &edges).unwrap()
}

/// Local pruning as it was before the label-bucket index: buckets rebuilt
/// from all of `V(G)` on every call, one step per same-label vertex, the
/// multiset merge alone deciding admission. Returns the sets (or the
/// exhaustion error) and the steps spent.
fn reference_local_pruning(
    q: &Graph,
    g: &Graph,
    r: u32,
    max_steps: u64,
) -> (Result<CandidateSets, FilterError>, u64) {
    let g_profiles = all_profiles(g, r);
    let q_profiles = all_profiles(q, r);
    let mut meter = FilterBudget::steps(max_steps).meter();
    let n_labels = g.n_labels().max(q.n_labels());
    let mut by_label: Vec<Vec<VertexId>> = vec![Vec::new(); n_labels];
    for v in g.vertices() {
        by_label[g.label(v) as usize].push(v);
    }
    let mut sets = Vec::with_capacity(q.n_vertices());
    for u in q.vertices() {
        let mut set = Vec::new();
        for &v in &by_label[q.label(u) as usize] {
            if meter.charge(1).is_err() {
                let err = FilterError::BudgetExhausted {
                    phase: FilterPhase::LocalPruning,
                    spent: meter.spent(),
                };
                return (Err(err), meter.spent());
            }
            if g.degree(v) >= q.degree(u)
                && subsumes(&g_profiles[v as usize], &q_profiles[u as usize])
            {
                set.push(v);
            }
        }
        sets.push(set);
    }
    (Ok(CandidateSets { sets }), meter.spent())
}

/// Whether the bipartite graph with left rows `adj` over right vertices
/// `0..n_right` has a matching saturating its left side: Kuhn's augmenting
/// paths, one search per left vertex. It shares no code with refinement's
/// Hopcroft–Karp, so the reference below is independent of it.
fn kuhn_saturates(adj: &[Vec<usize>], n_right: usize) -> bool {
    fn try_augment(l: usize, adj: &[Vec<usize>], seen: &mut [bool], owner: &mut [usize]) -> bool {
        for &r in &adj[l] {
            if !seen[r] {
                seen[r] = true;
                if owner[r] == usize::MAX || try_augment(owner[r], adj, seen, owner) {
                    owner[r] = l;
                    return true;
                }
            }
        }
        false
    }
    let mut owner = vec![usize::MAX; n_right];
    (0..adj.len()).all(|l| try_augment(l, adj, &mut vec![false; n_right], &mut owner))
}

/// Global refinement as the paper states it, with no label test in the
/// pair loop: `B_v^u` has an edge `(u', v')` iff `v' ∈ CS(u')`. One step per
/// pair test against `max_steps`; returns `(rounds, exhausted, spent)`.
fn reference_refinement(
    q: &Graph,
    g: &Graph,
    cs: &mut CandidateSets,
    max_rounds: usize,
    max_steps: u64,
) -> (usize, bool, u64) {
    let mut spent = 0u64;
    for round in 0..max_rounds {
        let mut changed = false;
        for u in q.vertices() {
            let mut survivors = Vec::new();
            for &v in cs.get(u) {
                spent += 1;
                if spent > max_steps {
                    return (round, true, spent);
                }
                let (nu, nv) = (q.neighbors(u), g.neighbors(v));
                let adj: Vec<Vec<usize>> = nu
                    .iter()
                    .map(|&u2| (0..nv.len()).filter(|&j| cs.contains(u2, nv[j])).collect())
                    .collect();
                if kuhn_saturates(&adj, nv.len()) {
                    survivors.push(v);
                }
            }
            if survivors.len() != cs.get(u).len() {
                changed = true;
                cs.sets[u as usize] = survivors;
            }
        }
        if !changed {
            return (round + 1, false, spent);
        }
    }
    (max_rounds, false, spent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The label test ahead of the membership probe in refinement's pair
    /// loop changes nothing observable: candidate sets, rounds, the
    /// `exhausted` flag and the steps charged equal the reference's, with
    /// and without a budget that cuts a round short.
    #[test]
    fn refinement_equals_the_reference_without_a_label_test(
        g in arb_small_graph(6, 14, 3),
        q in arb_small_graph(2, 4, 3),
        max_rounds in 1usize..=4,
        tight in 0u64..40,
    ) {
        let local = local_pruning(&q, &g, 1);
        for max_steps in [u64::MAX, tight] {
            let mut want = local.clone();
            let (rounds, exhausted, spent) =
                reference_refinement(&q, &g, &mut want, max_rounds, max_steps);
            let mut got = local.clone();
            let mut meter = FilterBudget::steps(max_steps).meter();
            let out = global_refinement_metered(&q, &g, &mut got, max_rounds, &mut meter);
            prop_assert_eq!(out, (rounds, exhausted));
            prop_assert_eq!(meter.spent(), spent);
            prop_assert_eq!(&got, &want);
        }
    }

    /// Definition 2 safety: every (u, v) pair used by any true embedding
    /// survives local pruning AND the full refined pipeline.
    #[test]
    fn filtering_never_drops_a_true_match(
        g in arb_small_graph(6, 14, 3),
        q in arb_small_graph(2, 4, 3),
    ) {
        let embeddings = all_embeddings(&q, &g);
        let local = local_pruning(&q, &g, 1);
        let full = filter_candidates(&q, &g, &FilterConfig { profile_radius: 1, refinement_rounds: 4 });
        for emb in &embeddings {
            for (u, &v) in emb.iter().enumerate() {
                prop_assert!(local.contains(u as u32, v),
                    "local pruning dropped true pair ({u},{v})");
                prop_assert!(full.contains(u as u32, v),
                    "refinement dropped true pair ({u},{v})");
            }
        }
    }

    /// The backtracking counter agrees with brute force.
    #[test]
    fn counter_matches_brute_force(
        g in arb_small_graph(5, 12, 3),
        q in arb_small_graph(1, 4, 3),
    ) {
        let fast = count_embeddings(&q, &g, 100_000_000).exact().unwrap();
        let slow = brute_force_count(&q, &g);
        prop_assert_eq!(fast, slow);
    }

    /// Filtering with a larger radius or more refinement can only shrink
    /// candidate sets (monotone pruning power).
    #[test]
    fn refinement_monotone(
        g in arb_small_graph(6, 14, 3),
        q in arb_small_graph(2, 4, 3),
    ) {
        let weak = filter_candidates(&q, &g, &FilterConfig { profile_radius: 1, refinement_rounds: 0 });
        let strong = filter_candidates(&q, &g, &FilterConfig { profile_radius: 1, refinement_rounds: 4 });
        for u in q.vertices() {
            for &v in strong.get(u) {
                prop_assert!(weak.contains(u, v));
            }
        }
    }
}

proptest! {
    // Local pruning on graphs this small costs microseconds; the extra
    // cases reach the rarer label mixes (a query label above 63 that
    // aliases one of the data graph's, a label three times in a profile).
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Walking the cached label bucket with the degree and signature tests
    /// ahead of the merge — and in place of it where the signature decides
    /// — changes nothing observable: candidate sets, the steps charged and
    /// the exhaustion point equal the reference's, with aliasing labels on
    /// either side or none, at r = 1 and 2, unbudgeted and under a budget
    /// that runs out mid-scan.
    #[test]
    fn indexed_local_pruning_equals_the_reference(
        g in arb_small_graph(6, 16, 12),
        q in arb_small_graph(2, 5, 12),
        wide in 0u8..4,
        r in 1u32..=2,
        tight in 0u64..40,
    ) {
        let (g, q) = (relabel(&g, wide & 1 != 0), relabel(&q, wide & 2 != 0));
        let profiles = all_profiles(&g, r);
        for max_steps in [u64::MAX, tight] {
            let (want, spent) = reference_local_pruning(&q, &g, r, max_steps);
            let mut meter = FilterBudget::steps(max_steps).meter();
            let got = local_pruning_metered(&q, &g, r, &profiles, &mut meter);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(meter.spent(), spent);
        }
    }
}

#[test]
fn sampled_queries_always_have_matches_and_counts_agree() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for seed in 0..8u64 {
        let g = erdos_renyi(25, 60, 3, seed);
        if let Some(q) = sample_query(&g, &QuerySampler::induced(5), &mut rng) {
            let fast = count_embeddings(&q, &g, 100_000_000).exact().unwrap();
            assert!(fast >= 1, "induced sampled query must embed at least once");
            assert_eq!(fast, brute_force_count(&q, &g), "seed {seed}");
        }
    }
}

#[test]
fn triangle_embeddings_are_six_times_motif_occurrences() {
    // Cross-oracle check: the backtracking counter on the unlabeled
    // triangle must equal 6 × the closed-form triangle count.
    use neursc_graph::motifs::triangle_count;
    for seed in 0..5u64 {
        let g = erdos_renyi(40, 160, 1, seed);
        let tri = Graph::from_edges(3, &[0; 3], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let embeddings = count_embeddings(&tri, &g, 1_000_000_000).exact().unwrap();
        assert_eq!(embeddings, 6 * triangle_count(&g), "seed {seed}");
    }
}

/// Refinement's precondition is checked where debug assertions are on: a
/// candidate of the wrong label is a caller bug, not an input.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "label-consistent")]
fn refinement_rejects_label_inconsistent_candidate_sets() {
    let g = Graph::from_edges(3, &[0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
    let q = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
    let mut cs = local_pruning(&q, &g, 1);
    cs.sets[0].push(1); // label 1 among the candidates of a label-0 vertex
    cs.sets[0].sort_unstable();
    let mut meter = FilterBudget::UNBOUNDED.meter();
    global_refinement_metered(&q, &g, &mut cs, 1, &mut meter);
}
