//! Candidate vertex sets `CS(u)` (Definition 2) and local pruning.
//!
//! A *complete candidate vertex set* must contain every data vertex that
//! participates in any match — filtering may over-approximate but never
//! under-approximate. Local pruning admits `v` into `CS(u)` iff
//! `f_l(v) = f_l(u)`, `d(v) ≥ d(u)`, and profile(u) ⊑ profile(v).
//!
//! **Admission order.** [`local_pruning_metered`] holds the one admission
//! loop behind every `local_pruning*` door. For each query vertex `u` in
//! id order, it walks the label bucket `f_l(u)` of the data graph's
//! [`Profiles`] — built once per `(G, r)` with the profiles, never per
//! query — in ascending vertex id, charges one meter step per vertex it looks at, and tests,
//! cheapest first, `d(v) ≥ d(u)`, the label signatures (every bit of
//! `sig(u)` set in `sig(v)`) and `subsumes(profile(v), profile(u))`. The
//! signature test is a necessary condition of the multiset test, and where
//! `Profiles::signature_decides` it is the multiset test, so the merge is
//! skipped there ([`crate::profile`] has both arguments). Either way no
//! pair is decided differently from the merge: `CS(u)`, its order, the
//! steps charged and the point where a budget runs out are those of
//! testing every pair with the merge alone.

use crate::budget::{FilterBudget, FilterError, FilterPhase, WorkMeter};
use crate::profile::{all_profiles, profile_lists, subsumes, Profiles, Signature};
use neursc_graph::types::VertexId;
use neursc_graph::Graph;

/// Candidate sets for every query vertex: `sets[u]` is the sorted `CS(u)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSets {
    /// Per-query-vertex sorted candidate lists.
    pub sets: Vec<Vec<VertexId>>,
}

impl CandidateSets {
    /// `CS(u)` for query vertex `u`.
    pub fn get(&self, u: VertexId) -> &[VertexId] {
        &self.sets[u as usize]
    }

    /// Membership test (`O(log |CS(u)|)`).
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.sets[u as usize].binary_search(&v).is_ok()
    }

    /// `CS(q) = ∪_u CS(u)`, sorted and deduplicated.
    pub fn union(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.total_size());
        out.extend(self.sets.iter().flatten().copied());
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Σ_u |CS(u)| — the filtering-power metric of \[89\].
    pub fn total_size(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Whether any query vertex has an empty candidate set (then the count
    /// is exactly 0 and NeurSC short-circuits — Algorithm 1).
    pub fn any_empty(&self) -> bool {
        self.sets.iter().any(|s| s.is_empty())
    }

    /// NeurSC's early-termination test (paper §4): estimation can stop when
    /// some `CS(u)` is empty or `|∪ CS(u)| < |V(q)|`.
    pub fn is_trivially_zero(&self) -> bool {
        self.union_unless_trivially_zero().is_none()
    }

    /// [`CandidateSets::union`], or `None` where
    /// [`CandidateSets::is_trivially_zero`] holds: the test needs the union
    /// built, so a caller that goes on to use it builds it once.
    pub fn union_unless_trivially_zero(&self) -> Option<Vec<VertexId>> {
        if self.any_empty() {
            return None;
        }
        let union = self.union();
        (union.len() >= self.sets.len()).then_some(union)
    }
}

/// Local pruning: builds `CS(u)` for all query vertices from label, degree
/// and radius-`r` profile tests. `O(Σ_u |bucket(f_l(u))|)` pair tests, each
/// cheap.
pub fn local_pruning(q: &Graph, g: &Graph, r: u32) -> CandidateSets {
    local_pruning_with(q, g, r, &all_profiles(g, r))
}

/// [`local_pruning`] with the data-graph profiles supplied by the caller —
/// the entry point used with a [`crate::ProfileCache`], which makes
/// the `all_profiles(G, r)` term (the only `O(|G|)` precomputation here,
/// label buckets included) amortizable across a query batch. Query
/// profiles are still computed per call; they are `O(|q|)` and
/// query-specific.
pub fn local_pruning_with(q: &Graph, g: &Graph, r: u32, g_profiles: &Profiles) -> CandidateSets {
    let mut meter = FilterBudget::UNBOUNDED.meter();
    local_pruning_metered(q, g, r, g_profiles, &mut meter)
        .unwrap_or_else(|e| unreachable!("unbounded meter cannot trip: {e}"))
}

/// [`local_pruning_with`] charging one step per candidate-pair test to the
/// supplied meter. Exhaustion aborts with an error: a partially-built set
/// is not *complete* (Definition 2), so no sound estimate can follow.
pub fn local_pruning_metered(
    q: &Graph,
    g: &Graph,
    r: u32,
    g_profiles: &Profiles,
    meter: &mut WorkMeter,
) -> Result<CandidateSets, FilterError> {
    debug_assert_eq!(g_profiles.len(), g.n_vertices());
    let q_profiles = profile_lists(q, r);
    let mut sets = Vec::with_capacity(q.n_vertices());
    for u in q.vertices() {
        let pu = &q_profiles[u as usize];
        let (du, sig_u) = (q.degree(u), Signature::of(pu));
        let decided = g_profiles.signature_decides(pu);
        let mut set = Vec::new();
        for e in g_profiles.bucket(q.label(u)) {
            meter.charge(1).map_err(|_| FilterError::BudgetExhausted {
                phase: FilterPhase::LocalPruning,
                spent: meter.spent(),
            })?;
            if e.degree as usize >= du
                && sig_u.within(e.signature)
                && (decided || subsumes(&g_profiles[e.id as usize], pu))
            {
                set.push(e.id);
            }
        }
        sets.push(set);
    }
    Ok(CandidateSets { sets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{paper_data_graph, paper_query_graph};

    #[test]
    fn paper_example_local_pruning() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cs = local_pruning(&q, &g, 1);
        assert_eq!(cs.get(0), &[0]); // CS(u1) = {v1}
        assert_eq!(cs.get(1), &[1, 2, 3]); // CS(u2) = {v2, v3, v4}
        assert_eq!(cs.get(2), &[4, 5, 6, 7, 8]); // C vertices with a D neighbor
        assert_eq!(cs.get(3), &[9, 10]); // CS(u4) = {v10, v11}
    }

    #[test]
    fn completeness_contains_known_match() {
        // The match {(u1,v1),(u2,v4),(u3,v5),(u4,v10)} must survive.
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cs = local_pruning(&q, &g, 1);
        for (u, v) in [(0u32, 0u32), (1, 3), (2, 4), (3, 9)] {
            assert!(cs.contains(u, v), "candidate ({u},{v}) missing");
        }
    }

    #[test]
    fn union_and_sizes() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cs = local_pruning(&q, &g, 1);
        assert_eq!(cs.total_size(), 1 + 3 + 5 + 2);
        assert_eq!(cs.union(), vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert!(!cs.any_empty());
        assert!(!cs.is_trivially_zero());
    }

    #[test]
    fn missing_label_empties_candidate_set() {
        let g = paper_data_graph();
        // Query with a label (7) absent from the data graph.
        let q = Graph::from_edges(2, &[0, 7], &[(0, 1)]).unwrap();
        let cs = local_pruning(&q, &g, 1);
        assert!(cs.get(1).is_empty());
        assert!(cs.any_empty());
        assert!(cs.is_trivially_zero());
    }

    #[test]
    fn absent_labels_below_and_above_64_have_empty_candidate_sets() {
        // G carries labels 0, 2 and 65. Query labels: 1 (a gap below G's
        // largest label), 64 (no bucket, shares label 0's signature bit),
        // 66 (one past G's largest), 129 (shares bit 1 with the gap) and
        // 1 << 20 (far past every bucket). Each star leaf is labeled 0, so
        // label 0's bucket is walked and admits vertices.
        let g = Graph::from_edges(5, &[0, 2, 65, 0, 2], &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        for absent in [1, 64, 66, 129, 1 << 20] {
            let q = Graph::from_edges(2, &[0, absent], &[(0, 1)]).unwrap();
            let profiles = all_profiles(&g, 1);
            let mut meter = FilterBudget::UNBOUNDED.meter();
            let cs = local_pruning_metered(&q, &g, 1, &profiles, &mut meter).unwrap();
            assert!(cs.get(1).is_empty(), "label {absent}");
            assert_eq!(
                meter.spent(),
                2,
                "label {absent}: only label 0's bucket is walked"
            );
            assert!(cs.is_trivially_zero());
        }
    }

    #[test]
    fn degree_filter_applies() {
        // Star query: center needs degree ≥ 3.
        let g =
            Graph::from_edges(6, &[0, 1, 1, 1, 0, 1], &[(0, 1), (0, 2), (0, 3), (4, 5)]).unwrap();
        let q = Graph::from_edges(4, &[0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let cs = local_pruning(&q, &g, 1);
        assert_eq!(cs.get(0), &[0]); // vertex 4 (label 0, degree 1) pruned
    }

    #[test]
    fn radius2_prunes_at_least_as_much_as_radius1() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cs1 = local_pruning(&q, &g, 1);
        let cs2 = local_pruning(&q, &g, 2);
        for u in q.vertices() {
            for &v in cs2.get(u) {
                assert!(cs1.contains(u, v), "r=2 admitted ({u},{v}) that r=1 pruned");
            }
            assert!(cs2.get(u).len() <= cs1.get(u).len());
        }
    }

    #[test]
    fn is_trivially_zero_when_union_too_small() {
        // Query larger than the number of distinct candidates available.
        let g = Graph::from_edges(3, &[0, 0, 0], &[(0, 1), (1, 2)]).unwrap();
        let q = Graph::from_edges(4, &[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let cs = local_pruning(&q, &g, 1);
        assert!(cs.is_trivially_zero());
    }

    use neursc_graph::Graph;
}
