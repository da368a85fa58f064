//! Global refinement of candidate sets (paper §4(1), after GraphQL).
//!
//! For each surviving pair `v ∈ CS(u)`, build the bipartite graph `B_v^u`
//! between `N(u)` and `N(v)` with an edge `(u', v')` iff `v' ∈ CS(u')`, and
//! keep `v` only if `B_v^u` has a semi-perfect matching (one saturating
//! `N(u)`). The procedure is safe: if `(u, v)` is part of a real embedding
//! `f`, then `u' ↦ f(u')` is itself such a matching. Rounds repeat until a
//! fixed point or the round budget is hit (the paper: "could be conducted
//! multiple times to obtain a more compact candidate set").

use crate::bipartite::PairGraph;
use crate::candidates::CandidateSets;
use neursc_graph::types::VertexId;
use neursc_graph::Graph;

/// Runs up to `max_rounds` refinement passes; returns the number of rounds
/// actually performed (stops early at a fixed point).
pub fn global_refinement(q: &Graph, g: &Graph, cs: &mut CandidateSets, max_rounds: usize) -> usize {
    let mut meter = crate::budget::FilterBudget::UNBOUNDED.meter();
    let (rounds, exhausted) = global_refinement_metered(q, g, cs, max_rounds, &mut meter);
    debug_assert!(!exhausted, "unbounded meter cannot trip");
    rounds
}

/// [`global_refinement`] charging one step per candidate-pair test to the
/// supplied meter. Returns `(rounds completed, budget exhausted)`.
///
/// Every pair test of the call writes its `B_v^u` into one scratch graph
/// and matches it in that graph's buffers, so past the first few tests the
/// only allocation is each round's survivor list per query vertex.
///
/// Exhaustion here degrades gracefully instead of erroring: refinement only
/// removes provably-impossible candidates, so stopping at any point leaves
/// `cs` complete (Definition 2) — merely less tight. A query vertex whose
/// pass was cut short keeps its pre-round candidate list.
///
/// Precondition: `cs` is label-consistent — every `v ∈ CS(u)` has
/// `f_l(v) = f_l(u)`, which every `local_pruning*` door guarantees (it fills
/// `CS(u)` from the data vertices of `u`'s label). The pair test compares
/// labels before it probes `CS(u')`, which under the precondition is the
/// same answer for a fraction of the work. On a label-inconsistent `cs` the
/// result would only be tighter, never unsound: a vertex of the wrong label
/// is in no embedding.
pub fn global_refinement_metered(
    q: &Graph,
    g: &Graph,
    cs: &mut CandidateSets,
    max_rounds: usize,
    meter: &mut crate::budget::WorkMeter,
) -> (usize, bool) {
    debug_assert!(
        q.vertices()
            .all(|u| cs.get(u).iter().all(|&v| g.label(v) == q.label(u))),
        "candidate sets must be label-consistent"
    );
    let mut b = PairGraph::default();
    for round in 0..max_rounds {
        let mut changed = false;
        for u in q.vertices() {
            let mut survivors: Vec<VertexId> = Vec::with_capacity(cs.sets[u as usize].len());
            for &v in &cs.sets[u as usize] {
                if meter.charge(1).is_err() {
                    // Abandon the partial survivor list: the untested tail
                    // must be retained, so leave CS(u) as-is and stop.
                    return (round, true);
                }
                if pair_passes(q, g, cs, u, v, &mut b) {
                    survivors.push(v);
                }
            }
            if survivors.len() != cs.sets[u as usize].len() {
                changed = true;
                cs.sets[u as usize] = survivors;
            }
        }
        if !changed {
            return (round + 1, false);
        }
    }
    (max_rounds, false)
}

/// The semi-perfect-matching test for one candidate pair `(u, v)`, with
/// `B_v^u` written into `b`.
fn pair_passes(
    q: &Graph,
    g: &Graph,
    cs: &CandidateSets,
    u: VertexId,
    v: VertexId,
    b: &mut PairGraph,
) -> bool {
    let nu = q.neighbors(u);
    let nv = g.neighbors(v);
    if nv.len() < nu.len() {
        return false;
    }
    b.reset(nv.len());
    for &u2 in nu {
        let lu2 = q.label(u2);
        for (j, &v2) in nv.iter().enumerate() {
            if g.label(v2) == lu2 && cs.contains(u2, v2) {
                b.push_edge(j);
            }
        }
        b.end_row();
    }
    b.left_saturated()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::local_pruning;
    use crate::profile::{paper_data_graph, paper_query_graph};

    #[test]
    fn paper_example_refinement_reaches_final_sets() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let mut cs = local_pruning(&q, &g, 1);
        global_refinement(&q, &g, &mut cs, 4);
        // Example 1's final candidate sets.
        assert_eq!(cs.get(0), &[0]); // CS(u1) = {v1}
        assert_eq!(cs.get(1), &[3]); // CS(u2) = {v4}
        assert_eq!(cs.get(2), &[4, 5]); // CS(u3) = {v5, v6}
        assert_eq!(cs.get(3), &[9, 10]); // CS(u4) = {v10, v11}
    }

    #[test]
    fn refinement_is_monotone_shrinking() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cs0 = local_pruning(&q, &g, 1);
        let mut cs1 = cs0.clone();
        global_refinement(&q, &g, &mut cs1, 1);
        let mut cs2 = cs0.clone();
        global_refinement(&q, &g, &mut cs2, 2);
        for u in q.vertices() {
            for &v in cs2.get(u) {
                assert!(cs1.contains(u, v));
            }
            for &v in cs1.get(u) {
                assert!(cs0.contains(u, v));
            }
        }
    }

    #[test]
    fn refinement_preserves_known_match() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let mut cs = local_pruning(&q, &g, 1);
        global_refinement(&q, &g, &mut cs, 8);
        for (u, v) in [(0u32, 0u32), (1, 3), (2, 4), (3, 9)] {
            assert!(
                cs.contains(u, v),
                "refinement dropped true match pair ({u},{v})"
            );
        }
    }

    #[test]
    fn fixed_point_stops_early() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let mut cs = local_pruning(&q, &g, 1);
        let rounds = global_refinement(&q, &g, &mut cs, 100);
        assert!(
            rounds < 100,
            "should reach a fixed point quickly, ran {rounds}"
        );
        // Re-running changes nothing.
        let before = cs.clone();
        global_refinement(&q, &g, &mut cs, 1);
        assert_eq!(before, cs);
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let mut cs = local_pruning(&q, &g, 1);
        let before = cs.clone();
        let rounds = global_refinement(&q, &g, &mut cs, 0);
        assert_eq!(rounds, 0);
        assert_eq!(before, cs);
    }
}
