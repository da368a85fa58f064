//! Substructure extraction (paper §4, Algorithm 1 lines 1–7).
//!
//! Pipeline: candidate filtering → `CS(q) = ∪_u CS(u)` → induced subgraph
//! `G_sub` (Definition 3) → connected-component split → skip components
//! smaller than the query (a query cannot embed into a smaller graph) →
//! remap each query vertex's candidates into component-local ids.

use crate::config::NeurScConfig;
use crate::context::GraphContext;
use crate::obs::{self, PipelineReport, Span};
use neursc_graph::induced::{connected_components, induced_subgraph};
use neursc_graph::types::VertexId;
use neursc_graph::Graph;
use neursc_match::{
    filter_candidates_budgeted, CandidateSets, FilterBudget, FilterConfig, FilterError,
    FilterOutput,
};

/// One connected candidate substructure with local candidate sets.
#[derive(Debug, Clone)]
pub struct Substructure {
    /// The substructure graph (component-local dense ids).
    pub graph: Graph,
    /// Local id → data-graph id.
    pub origin: Vec<VertexId>,
    /// `local_cs[u]` = candidates of query vertex `u` that live in this
    /// component, as local ids.
    pub local_cs: Vec<Vec<VertexId>>,
}

impl Substructure {
    /// Whether every query vertex has a candidate in this component — a
    /// necessary condition for any embedding to lie inside it.
    fn covers_all(&self) -> bool {
        self.local_cs.iter().all(|s| !s.is_empty())
    }
}

/// Result of the extraction stage.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The (global) candidate sets `CS(u)`.
    pub candidates: CandidateSets,
    /// Connected candidate substructures that passed the size filters.
    pub substructures: Vec<Substructure>,
    /// True when filtering already proves the count is 0 (empty `CS(u)` or
    /// `|∪CS| < |V(q)|` — Algorithm 1's early termination).
    pub trivially_zero: bool,
    /// True when a filtering budget ran out during refinement: the
    /// candidate sets are sound but looser than an unbudgeted run's, so the
    /// substructures may be larger. Always `false` under an unlimited budget.
    pub degraded: bool,
    /// Per-stage wall timings of this extraction (wall-clock fields — not
    /// covered by any determinism guarantee; see [`crate::obs`]).
    pub report: PipelineReport,
}

impl Extraction {
    /// Total vertices across all retained substructures.
    pub fn total_substructure_vertices(&self) -> usize {
        self.substructures
            .iter()
            .map(|s| s.graph.n_vertices())
            .sum()
    }
}

/// Runs filtering + extraction for `(q, G)` under `cfg`, with the
/// data-graph profiles served from a shared [`GraphContext`] (the
/// `all_profiles(G, r)` precomputation is paid once per `(G, r)`, not once
/// per query) and no filtering budget.
pub fn extract_substructures_with(
    q: &Graph,
    g: &Graph,
    cfg: &NeurScConfig,
    ctx: &GraphContext,
) -> Extraction {
    extract_substructures_budgeted(q, g, cfg, ctx, &FilterBudget::UNBOUNDED)
        .unwrap_or_else(|e| unreachable!("unbounded budget cannot be exhausted: {e}"))
}

/// The extraction stage: filtering under a [`FilterBudget`] against cached
/// profiles ([`filter_stage`]), then the component split.
/// [`FilterBudget::UNBOUNDED`] and a context without a sink are the plain
/// case.
///
/// Budget exhaustion during refinement degrades gracefully — the returned
/// extraction is built from sound-but-looser candidate sets and carries
/// `degraded: true`. Exhaustion during local pruning is a typed error (no
/// sound partial result exists at that point).
pub(crate) fn extract_substructures_budgeted(
    q: &Graph,
    g: &Graph,
    cfg: &NeurScConfig,
    ctx: &GraphContext,
    budget: &FilterBudget,
) -> Result<Extraction, FilterError> {
    let (out, report) = filter_stage(q, g, &cfg.filter, ctx, budget)?;
    Ok(extract_from_candidates(
        q,
        g,
        cfg.max_substructure_vertices,
        out.candidates,
        out.degraded,
        report,
    ))
}

/// The filtering stage every backend runs: GraphQL candidate filtering of
/// `q` against `g` under `budget`, with the data-graph profiles served
/// from `ctx`. Traced as a `filter.candidates` span with `filter.local_prune`
/// and `filter.refine` children; the returned report carries the stage
/// timings, the metered step count and whether the profiles were cached.
pub fn filter_stage(
    q: &Graph,
    g: &Graph,
    filter: &FilterConfig,
    ctx: &GraphContext,
    budget: &FilterBudget,
) -> Result<(FilterOutput, PipelineReport), FilterError> {
    let (profiles, hit) = ctx.profiles_for(g, filter.profile_radius);
    let _sp = Span::enter("filter.candidates");
    let (out, stages) = filter_candidates_budgeted(q, g, filter, &profiles, budget)?;
    // The filter crate's plain-data timings become child spans of the
    // open `filter.candidates` span.
    obs::span_with_ns("filter.local_prune", stages.local_prune_ns);
    obs::span_with_ns("filter.refine", stages.refine_ns);
    let report = PipelineReport {
        local_prune_ns: stages.local_prune_ns,
        refine_ns: stages.refine_ns,
        filter_steps: out.steps,
        profile_cache_hit: hit,
        ..PipelineReport::default()
    };
    Ok((out, report))
}

/// Extraction from already-filtered candidate sets: the stage after
/// filtering in the pipeline above. `g` is the graph `candidates` is
/// expressed in; a component over `cap` vertices is truncated to it.
pub(crate) fn extract_from_candidates(
    q: &Graph,
    g: &Graph,
    cap: Option<usize>,
    candidates: CandidateSets,
    degraded: bool,
    mut report: PipelineReport,
) -> Extraction {
    let _sp = Span::enter("extract.components");
    let t0 = std::time::Instant::now();
    if candidates.is_trivially_zero() {
        return Extraction {
            candidates,
            substructures: Vec::new(),
            trivially_zero: true,
            degraded,
            report,
        };
    }
    let mut union = Vec::new();
    candidates.union_into(&mut union);
    let g_sub = induced_subgraph(g, &union);
    let components = connected_components(&g_sub.graph);

    let mut substructures = Vec::new();
    for comp in components {
        // Component ids are local to `g_sub`; translate back to data ids.
        let origin: Vec<VertexId> = comp
            .origin
            .iter()
            .map(|&mid| g_sub.origin[mid as usize])
            .collect();
        // Skip rule: the component must be at least as large as the query
        // in both vertices and edges (paper §4(2)).
        if comp.graph.n_vertices() < q.n_vertices() || comp.graph.n_edges() < q.n_edges() {
            continue;
        }
        let mut sub = Substructure {
            local_cs: localize_candidates(&candidates, &origin),
            graph: comp.graph,
            origin,
        };
        // A component can only host embeddings if every query vertex has a
        // candidate inside; others are still skipped (they contribute 0).
        if !sub.covers_all() {
            continue;
        }
        if let Some(cap) = cap {
            if sub.graph.n_vertices() > cap {
                sub = truncate_substructure(&sub, q, cap);
                if !sub.covers_all() {
                    continue;
                }
            }
        }
        substructures.push(sub);
    }
    report.extract_ns = t0.elapsed().as_nanos() as u64;
    Extraction {
        candidates,
        substructures,
        trivially_zero: false,
        degraded,
        report,
    }
}

/// Maps global candidate sets into component-local ids (`origin` sorted).
fn localize_candidates(cs: &CandidateSets, origin: &[VertexId]) -> Vec<Vec<VertexId>> {
    cs.sets
        .iter()
        .map(|set| {
            set.iter()
                .filter_map(|&v| origin.binary_search(&v).ok().map(|i| i as VertexId))
                .collect()
        })
        .collect()
}

/// Truncates an oversized substructure to at most `cap` vertices,
/// preferring candidate vertices of rarer query vertices and then higher
/// degree (they participate in more potential embeddings). The result is
/// re-extracted as an induced subgraph and may be disconnected; we keep the
/// largest covering component.
fn truncate_substructure(sub: &Substructure, q: &Graph, cap: usize) -> Substructure {
    // Score each local vertex: (is candidate of scarcest query vertex, degree).
    let n = sub.graph.n_vertices();
    let mut priority = vec![0f64; n];
    for u in q.vertices() {
        let set = &sub.local_cs[u as usize];
        if set.is_empty() {
            continue;
        }
        let scarcity = 1.0 / set.len() as f64;
        for &v in set {
            priority[v as usize] += scarcity;
        }
    }
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_by(|&a, &b| {
        priority[b as usize]
            .total_cmp(&priority[a as usize])
            .then(sub.graph.degree(b).cmp(&sub.graph.degree(a)))
            .then(a.cmp(&b))
    });
    let kept: Vec<VertexId> = order.into_iter().take(cap).collect();
    let inner = induced_subgraph(&sub.graph, &kept);
    // Translate: inner local ids → sub local ids → data ids.
    let origin: Vec<VertexId> = inner
        .origin
        .iter()
        .map(|&mid| sub.origin[mid as usize])
        .collect();
    let mut new_sub = Substructure {
        local_cs: Vec::new(),
        graph: inner.graph,
        origin,
    };
    // Recompute local candidate sets from the old ones.
    new_sub.local_cs = sub
        .local_cs
        .iter()
        .map(|set| {
            set.iter()
                .filter_map(|&old_local| {
                    inner
                        .origin
                        .binary_search(&old_local)
                        .ok()
                        .map(|i| i as VertexId)
                })
                .collect()
        })
        .collect();
    new_sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_match::profile::{paper_data_graph, paper_query_graph};

    fn cfg() -> NeurScConfig {
        NeurScConfig::small()
    }

    #[test]
    fn paper_example_extraction() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let ex = extract_substructures_with(&q, &g, &cfg(), &GraphContext::new());
        assert!(!ex.trivially_zero);
        // Final CS = {v1} ∪ {v4} ∪ {v5,v6} ∪ {v10,v11} = 6 vertices, and the
        // induced subgraph on them is connected (v1-v4, v4-v5/v6/v10/v11).
        assert_eq!(ex.substructures.len(), 1);
        let sub = &ex.substructures[0];
        assert_eq!(sub.origin, vec![0, 3, 4, 5, 9, 10]);
        assert!(sub.covers_all());
        // Edges inside: (v1,v4),(v4,v5),(v4,v6),(v4,v10),(v4,v11),(v5,v10),
        // (v5,v11),(v6,v11) = 8.
        assert_eq!(sub.graph.n_edges(), 8);
    }

    #[test]
    fn local_candidates_map_back_correctly() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let ex = extract_substructures_with(&q, &g, &cfg(), &GraphContext::new());
        let sub = &ex.substructures[0];
        for u in q.vertices() {
            for &local in &sub.local_cs[u as usize] {
                let global = sub.origin[local as usize];
                assert!(ex.candidates.contains(u, global));
                // Labels must match the query vertex.
                assert_eq!(sub.graph.label(local), q.label(u));
            }
        }
    }

    #[test]
    fn missing_label_short_circuits() {
        let g = paper_data_graph();
        let q = neursc_graph::Graph::from_edges(2, &[0, 9], &[(0, 1)]).unwrap();
        let ex = extract_substructures_with(&q, &g, &cfg(), &GraphContext::new());
        assert!(ex.trivially_zero);
        assert!(ex.substructures.is_empty());
    }

    #[test]
    fn small_components_are_skipped() {
        // Data: a triangle of label 0/1/2 plus one far-away isolated pair
        // with the same labels but too small to host the 3-vertex query.
        let g =
            neursc_graph::Graph::from_edges(5, &[0, 1, 2, 0, 1], &[(0, 1), (1, 2), (0, 2), (3, 4)])
                .unwrap();
        let q = neursc_graph::Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let ex = extract_substructures_with(&q, &g, &cfg(), &GraphContext::new());
        assert_eq!(ex.substructures.len(), 1);
        assert_eq!(ex.substructures[0].origin, vec![0, 1, 2]);
    }

    #[test]
    fn truncation_respects_cap_and_coverage() {
        // Star data graph: one hub with many identical leaves; query = edge.
        let n = 60;
        let mut labels = vec![1u32; n];
        labels[0] = 0;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        let g = neursc_graph::Graph::from_edges(n, &labels, &edges).unwrap();
        let q = neursc_graph::Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let mut c = cfg();
        c.max_substructure_vertices = Some(10);
        let ex = extract_substructures_with(&q, &g, &c, &GraphContext::new());
        assert_eq!(ex.substructures.len(), 1);
        let sub = &ex.substructures[0];
        assert!(sub.graph.n_vertices() <= 10);
        assert!(sub.covers_all());
        // The hub must survive truncation (it is the only label-0 candidate).
        assert!(sub.origin.contains(&0));
    }

    fn assert_same_extraction(a: &Extraction, b: &Extraction) {
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.trivially_zero, b.trivially_zero);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.substructures.len(), b.substructures.len());
        for (x, y) in a.substructures.iter().zip(&b.substructures) {
            assert_eq!(x.graph, y.graph);
            assert_eq!(x.origin, y.origin);
            assert_eq!(x.local_cs, y.local_cs);
        }
    }

    #[test]
    fn every_extraction_door_gives_the_same_extraction_and_step_count() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let ctx = GraphContext::new();
        let plain = extract_substructures_with(&q, &g, &cfg(), &ctx);
        // The second call hits the warmed cache and must still agree.
        let warm = extract_substructures_with(&q, &g, &cfg(), &ctx);
        let unbounded =
            extract_substructures_budgeted(&q, &g, &cfg(), &ctx, &FilterBudget::UNBOUNDED).unwrap();
        let generous =
            extract_substructures_budgeted(&q, &g, &cfg(), &ctx, &FilterBudget::steps(1 << 40))
                .unwrap();
        assert!(!plain.degraded && !plain.report.profile_cache_hit);
        assert!(warm.report.profile_cache_hit);
        assert!(plain.report.filter_steps > 0, "steps are always metered");
        for ex in [&warm, &unbounded, &generous] {
            assert_same_extraction(ex, &plain);
            assert_eq!(ex.report.filter_steps, plain.report.filter_steps);
        }
        assert_eq!(ctx.profiles.len(), 1);
    }

    #[test]
    fn starved_extraction_budget_is_a_typed_error() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let ctx = GraphContext::new();
        let err = extract_substructures_budgeted(&q, &g, &cfg(), &ctx, &FilterBudget::steps(0))
            .unwrap_err();
        assert!(matches!(err, FilterError::BudgetExhausted { .. }));
    }

    #[test]
    fn uncapped_extraction_keeps_everything() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let mut c = cfg();
        c.max_substructure_vertices = None;
        let ex = extract_substructures_with(&q, &g, &c, &GraphContext::new());
        assert_eq!(ex.total_substructure_vertices(), 6);
    }
}
