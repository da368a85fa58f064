//! The full candidate-filtering pipeline: local pruning + global refinement.
//!
//! This is the GraphQL method the paper adopts (§4(1)), chosen in \[89\] for
//! the best pruning power among the surveyed filters.

use crate::budget::{FilterBudget, FilterError};
use crate::candidates::{local_pruning_metered, CandidateSets};
use crate::refinement::global_refinement_metered;
use neursc_graph::Graph;

/// Filtering configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Profile radius `r` for local pruning (paper/GraphQL default: 1).
    pub profile_radius: u32,
    /// Maximum global-refinement rounds (the paper runs the procedure
    /// "multiple times"; 3 reaches the fixed point on all our workloads).
    pub refinement_rounds: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            profile_radius: 1,
            refinement_rounds: 3,
        }
    }
}

/// Per-phase wall timings of one filtering run, as plain data.
///
/// This crate stays observability-agnostic: the core layer turns these
/// numbers into tracing spans and metrics. Nanosecond fields are real wall
/// time and deliberately **not** part of any output-equality guarantee,
/// which is why they live outside [`FilterOutput`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Wall time of local pruning (phase 1), nanoseconds.
    pub local_prune_ns: u64,
    /// Wall time of global refinement (phase 2), nanoseconds.
    pub refine_ns: u64,
}

/// Result of a filtering run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterOutput {
    /// The candidate sets — always complete (Definition 2) when returned.
    pub candidates: CandidateSets,
    /// `true` when the budget ran out during refinement: the sets are sound
    /// but looser than an unbudgeted run would produce.
    pub degraded: bool,
    /// Candidate-pair tests spent.
    pub steps: u64,
}

/// Runs the full pipeline — unlimited budget, profiles computed on the spot
/// — and returns `CS(u)` for every query vertex.
pub fn filter_candidates(q: &Graph, g: &Graph, cfg: &FilterConfig) -> CandidateSets {
    let profiles = crate::profile::all_profiles(g, cfg.profile_radius);
    match filter_candidates_budgeted(q, g, cfg, &profiles, &FilterBudget::UNBOUNDED) {
        Ok((out, _)) => out.candidates,
        Err(e) => unreachable!("unbounded budget cannot be exhausted: {e}"),
    }
}

/// The filtering pipeline: local pruning then global refinement against
/// precomputed data-graph profiles (from a [`crate::ProfileCache`]), under a
/// [`FilterBudget`], with per-phase timings. [`FilterBudget::UNBOUNDED`] is
/// the plain case — the meter then costs one add and one compare per pair
/// test.
///
/// The degradation ladder (DESIGN.md, "Failure semantics"):
/// - budget survives both phases → the full pipeline's candidate sets;
/// - budget dies during *refinement* → `Ok` with `degraded: true`, the
///   pre-cutoff candidate sets (complete, merely less tight);
/// - budget dies during *local pruning* → `Err(BudgetExhausted)`, because a
///   partially-built candidate set admits no sound estimate at all.
pub fn filter_candidates_budgeted(
    q: &Graph,
    g: &Graph,
    cfg: &FilterConfig,
    g_profiles: &crate::profile::Profiles,
    budget: &FilterBudget,
) -> Result<(FilterOutput, StageBreakdown), FilterError> {
    let mut meter = budget.meter();
    let t0 = std::time::Instant::now();
    let mut cs = local_pruning_metered(q, g, cfg.profile_radius, g_profiles, &mut meter)?;
    let local_prune_ns = t0.elapsed().as_nanos() as u64;
    let mut degraded = false;
    let t1 = std::time::Instant::now();
    if !cs.any_empty() {
        let (_, exhausted) =
            global_refinement_metered(q, g, &mut cs, cfg.refinement_rounds, &mut meter);
        degraded = exhausted;
    }
    let refine_ns = t1.elapsed().as_nanos() as u64;
    Ok((
        FilterOutput {
            candidates: cs,
            degraded,
            steps: meter.spent(),
        },
        StageBreakdown {
            local_prune_ns,
            refine_ns,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{paper_data_graph, paper_query_graph};

    #[test]
    fn default_pipeline_matches_paper_example() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cs = filter_candidates(&q, &g, &FilterConfig::default());
        assert_eq!(cs.get(0), &[0]);
        assert_eq!(cs.get(1), &[3]);
        assert_eq!(cs.get(2), &[4, 5]);
        assert_eq!(cs.get(3), &[9, 10]);
    }

    #[test]
    fn zero_refinement_rounds_equals_local_pruning() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cfg = FilterConfig {
            profile_radius: 1,
            refinement_rounds: 0,
        };
        let cs = filter_candidates(&q, &g, &cfg);
        assert_eq!(cs, crate::candidates::local_pruning(&q, &g, 1));
    }

    #[test]
    fn empty_candidates_skip_refinement() {
        let g = paper_data_graph();
        let q = neursc_graph::Graph::from_edges(2, &[0, 9], &[(0, 1)]).unwrap();
        let cs = filter_candidates(&q, &g, &FilterConfig::default());
        assert!(cs.any_empty());
    }

    /// The body with the timing half of its return dropped.
    fn budgeted(
        q: &Graph,
        g: &Graph,
        cfg: &FilterConfig,
        profiles: &crate::profile::Profiles,
        budget: &FilterBudget,
    ) -> Result<FilterOutput, FilterError> {
        filter_candidates_budgeted(q, g, cfg, profiles, budget).map(|(out, _)| out)
    }

    #[test]
    fn generous_budget_matches_unbudgeted_pipeline() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cfg = FilterConfig::default();
        let profiles = crate::profile::all_profiles(&g, cfg.profile_radius);
        let out = budgeted(&q, &g, &cfg, &profiles, &FilterBudget::UNBOUNDED).unwrap();
        assert!(!out.degraded);
        assert!(out.steps > 0);
        assert_eq!(out.candidates, filter_candidates(&q, &g, &cfg));
    }

    #[test]
    fn zero_budget_errors_in_local_pruning() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cfg = FilterConfig::default();
        let profiles = crate::profile::all_profiles(&g, cfg.profile_radius);
        let err = budgeted(&q, &g, &cfg, &profiles, &FilterBudget::steps(0)).unwrap_err();
        assert!(matches!(
            err,
            FilterError::BudgetExhausted {
                phase: crate::budget::FilterPhase::LocalPruning,
                ..
            }
        ));
    }

    #[test]
    fn refinement_exhaustion_degrades_to_sound_supersets() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cfg = FilterConfig::default();
        let profiles = crate::profile::all_profiles(&g, cfg.profile_radius);
        // Find the cost of local pruning alone, then allow just one more
        // step so refinement is cut off almost immediately.
        let pruning_steps = budgeted(
            &q,
            &g,
            &FilterConfig {
                refinement_rounds: 0,
                ..cfg
            },
            &profiles,
            &FilterBudget::UNBOUNDED,
        )
        .unwrap()
        .steps;
        let out = budgeted(
            &q,
            &g,
            &cfg,
            &profiles,
            &FilterBudget::steps(pruning_steps + 1),
        )
        .unwrap();
        assert!(out.degraded);
        // Degraded sets must still contain everything the full pipeline keeps
        // (completeness) and the known true match.
        let full = filter_candidates(&q, &g, &cfg);
        for u in q.vertices() {
            for &v in full.get(u) {
                assert!(
                    out.candidates.contains(u, v),
                    "degraded sets lost ({u},{v})"
                );
            }
        }
        for (u, v) in [(0u32, 0u32), (1, 3), (2, 4), (3, 9)] {
            assert!(out.candidates.contains(u, v));
        }
    }

    #[test]
    fn budgeted_run_is_deterministic() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cfg = FilterConfig::default();
        let profiles = crate::profile::all_profiles(&g, cfg.profile_radius);
        let budget = FilterBudget::steps(40);
        let a = budgeted(&q, &g, &cfg, &profiles, &budget);
        let b = budgeted(&q, &g, &cfg, &profiles, &budget);
        assert_eq!(a, b);
    }

    #[test]
    fn query_on_itself_keeps_identity_candidates() {
        // Filtering a graph against itself must keep v ∈ CS(v).
        let g = paper_data_graph();
        let cs = filter_candidates(&g, &g, &FilterConfig::default());
        for v in g.vertices() {
            assert!(cs.contains(v, v), "identity candidate {v} lost");
        }
    }
}
