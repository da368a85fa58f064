//! Substructure extraction (paper §4, Algorithm 1 lines 1–7).
//!
//! Pipeline: candidate filtering → `CS(q) = ∪_u CS(u)` → the components of
//! the subgraph `G_sub` of `G` induced by it (Definition 3) → skip
//! components smaller than the query (a query cannot embed into a smaller
//! graph) or missing a candidate of some query vertex → remap each query
//! vertex's candidates into component-local ids.
//!
//! The tail after filtering is one pass: one DFS over `G`'s rows labels
//! and sizes the components of `G_sub` without building `G_sub`
//! ([`InducedComponents`]); the skip rules run on those sizes and on one
//! pass over every `CS(u)`; only a kept component is then written, straight
//! from `G`, and its local candidate sets filled by a second pass.

use crate::config::NeurScConfig;
use crate::context::GraphContext;
use crate::obs::{self, PipelineReport, Span};
use neursc_graph::induced::{induced_subgraph, InducedComponents, InducedSubgraph};
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
    let Some(union) = candidates.union_unless_trivially_zero() else {
        return Extraction {
            candidates,
            substructures: Vec::new(),
            trivially_zero: true,
            degraded,
            report,
        };
    };
    let mut substructures = kept_components(q, g, &candidates, &union);
    if let Some(cap) = cap {
        for sub in &mut substructures {
            if sub.graph.n_vertices() > cap {
                *sub = truncate_substructure(sub, q, cap);
            }
        }
        // Only a truncated substructure can have lost a query vertex's
        // last candidate.
        substructures.retain(Substructure::covers_all);
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

/// The components of the subgraph of `g` induced by `union = ∪_u CS(u)`
/// (sorted) that can host an embedding of `q`, with their local candidate sets, in
/// order of smallest data id. A component is skipped, before anything of
/// it is allocated, when it is smaller than the query in vertices or edges
/// (paper §4(2)) or when some query vertex has no candidate inside it (it
/// then contributes 0).
fn kept_components(
    q: &Graph,
    g: &Graph,
    candidates: &CandidateSets,
    union: &[VertexId],
) -> Vec<Substructure> {
    const SKIPPED: u32 = u32::MAX;
    let nq = q.n_vertices();
    let comps = InducedComponents::new(g, union);
    // `row[c]`: component `c`'s row of `counts` (later its index in the
    // result), or SKIPPED.
    let mut row = vec![SKIPPED; comps.len()];
    let mut n_rows = 0;
    for (c, r) in row.iter_mut().enumerate() {
        if comps.n_vertices(c) >= nq && comps.n_edges(c) >= q.n_edges() {
            *r = n_rows;
            n_rows += 1;
        }
    }
    // `counts[r · nq + u]` = |CS(u) ∩ component|: one pass over every CS(u).
    let mut counts = vec![0usize; n_rows as usize * nq];
    for (u, set) in candidates.sets.iter().enumerate() {
        for &v in set {
            if let Some((c, _)) = comps.locate(v) {
                if row[c] != SKIPPED {
                    counts[row[c] as usize * nq + u] += 1;
                }
            }
        }
    }
    let mut subs = Vec::new();
    for (c, r) in row.iter_mut().enumerate() {
        if *r == SKIPPED {
            continue;
        }
        let per_u = &counts[*r as usize * nq..(*r as usize + 1) * nq];
        if per_u.contains(&0) {
            *r = SKIPPED;
            continue;
        }
        *r = subs.len() as u32;
        let InducedSubgraph { graph, origin } = comps.build(c);
        subs.push(Substructure {
            graph,
            origin,
            local_cs: per_u.iter().map(|&n| Vec::with_capacity(n)).collect(),
        });
    }
    // Local ids rise with data ids inside a component, and each CS(u) is
    // ascending, so every local set comes out ascending.
    for (u, set) in candidates.sets.iter().enumerate() {
        for &v in set {
            if let Some((c, local)) = comps.locate(v) {
                if row[c] != SKIPPED {
                    subs[row[c] as usize].local_cs[u].push(local);
                }
            }
        }
    }
    subs
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

    /// `induced_subgraph` as it was before the one-pass writer: the vertex
    /// set through a `GraphBuilder` edge list, located by binary search.
    fn builder_induced(g: &Graph, vertices: &[VertexId]) -> InducedSubgraph {
        let mut origin = vertices.to_vec();
        origin.sort_unstable();
        origin.dedup();
        let mut b = neursc_graph::GraphBuilder::new(origin.len());
        for (i, &p) in origin.iter().enumerate() {
            b.set_label(i as VertexId, g.label(p));
        }
        for (i, &p) in origin.iter().enumerate() {
            for &w in g.neighbors(p) {
                if let Ok(j) = origin.binary_search(&w) {
                    if w > p {
                        b.add_edge(i as VertexId, j as VertexId).unwrap();
                    }
                }
            }
        }
        InducedSubgraph {
            graph: b.build(),
            origin,
        }
    }

    /// The extraction tail built the long way round, as an independent
    /// reference: induce the whole union, split it into components by a
    /// BFS, induce each component again, apply the size rule, localise
    /// every candidate set by binary search, check coverage, truncate.
    fn reference_tail(
        q: &Graph,
        g: &Graph,
        cap: Option<usize>,
        cs: &CandidateSets,
    ) -> Vec<Substructure> {
        let g_sub = builder_induced(g, &cs.union());
        let n = g_sub.graph.n_vertices();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for root in 0..n as VertexId {
            if seen[root as usize] {
                continue;
            }
            let mut members = vec![root];
            seen[root as usize] = true;
            let mut i = 0;
            while i < members.len() {
                for &w in g_sub.graph.neighbors(members[i]) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        members.push(w);
                    }
                }
                i += 1;
            }
            let data: Vec<VertexId> = members.iter().map(|&m| g_sub.origin[m as usize]).collect();
            let comp = builder_induced(g, &data);
            if comp.graph.n_vertices() < q.n_vertices() || comp.graph.n_edges() < q.n_edges() {
                continue;
            }
            let local_cs = cs
                .sets
                .iter()
                .map(|set| {
                    set.iter()
                        .filter_map(|v| comp.origin.binary_search(v).ok())
                        .map(|i| i as VertexId)
                        .collect()
                })
                .collect();
            let mut sub = Substructure {
                graph: comp.graph,
                origin: comp.origin,
                local_cs,
            };
            if !sub.covers_all() {
                continue;
            }
            if let Some(cap) = cap {
                if sub.graph.n_vertices() > cap {
                    sub = reference_truncate(&sub, q, cap);
                    if !sub.covers_all() {
                        continue;
                    }
                }
            }
            out.push(sub);
        }
        out
    }

    /// `truncate_substructure` over [`builder_induced`].
    fn reference_truncate(sub: &Substructure, q: &Graph, cap: usize) -> Substructure {
        let n = sub.graph.n_vertices();
        let mut priority = vec![0f64; n];
        for set in &sub.local_cs {
            for &v in set {
                priority[v as usize] += 1.0 / set.len() as f64;
            }
        }
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_by(|&a, &b| {
            priority[b as usize]
                .total_cmp(&priority[a as usize])
                .then(sub.graph.degree(b).cmp(&sub.graph.degree(a)))
                .then(a.cmp(&b))
        });
        order.truncate(cap);
        let inner = builder_induced(&sub.graph, &order);
        assert_eq!(sub.local_cs.len(), q.n_vertices());
        Substructure {
            origin: inner
                .origin
                .iter()
                .map(|&m| sub.origin[m as usize])
                .collect(),
            local_cs: sub
                .local_cs
                .iter()
                .map(|set| {
                    set.iter()
                        .filter_map(|v| inner.origin.binary_search(v).ok())
                        .map(|i| i as VertexId)
                        .collect()
                })
                .collect(),
            graph: inner.graph,
        }
    }

    fn assert_same_substructures(got: &[Substructure], want: &[Substructure]) {
        assert_eq!(got.len(), want.len());
        for (x, y) in got.iter().zip(want) {
            assert_eq!(x.graph, y.graph);
            assert_eq!(x.origin, y.origin);
            assert_eq!(x.local_cs, y.local_cs);
        }
    }

    /// A sparse random data graph (many singleton and small components),
    /// a random connected query of 1–4 vertices, and random candidate sets
    /// of label-matching data vertices; `p_candidate` 0 gives empty sets.
    fn random_case(seed: u64) -> (Graph, Graph, CandidateSets, Option<usize>) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..80usize);
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3u32)).collect();
        let m = if n < 2 { 0 } else { rng.gen_range(0..=2 * n) };
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .filter(|(a, b)| a != b)
            .collect();
        let g = Graph::from_edges(n, &labels, &edges).unwrap();
        let nq = rng.gen_range(1..=4usize);
        let q_labels: Vec<u32> = (0..nq).map(|_| rng.gen_range(0..3u32)).collect();
        // A random tree, plus maybe one closing edge.
        let mut q_edges: Vec<(u32, u32)> =
            (1..nq as u32).map(|v| (rng.gen_range(0..v), v)).collect();
        if nq >= 3 && rng.gen_bool(0.5) {
            q_edges.push((0, nq as u32 - 1));
        }
        let q = Graph::from_edges(nq, &q_labels, &q_edges).unwrap();
        let p_candidate = [0.0, 0.3, 0.8, 1.0][rng.gen_range(0..4usize)];
        let sets = (0..nq as u32)
            .map(|u| {
                g.vertices()
                    .filter(|&v| g.label(v) == q.label(u) && rng.gen_bool(p_candidate))
                    .collect()
            })
            .collect();
        let cap = [None, Some(1), Some(3), Some(8)][rng.gen_range(0..4usize)];
        (q, g, CandidateSets { sets }, cap)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]
        #[test]
        fn one_pass_tail_matches_the_builder_reference(seed in proptest::prelude::any::<u64>()) {
            let (q, g, cs, cap) = random_case(seed);
            let want = reference_tail(&q, &g, cap, &cs);
            // The tail itself, also on inputs extraction short-circuits
            // before reaching it (an empty union, `|∪CS| < |V(q)|`).
            if cap.is_none() {
                assert_same_substructures(&kept_components(&q, &g, &cs, &cs.union()), &want);
            }
            if !cs.is_trivially_zero() {
                let ex =
                    extract_from_candidates(&q, &g, cap, cs, false, PipelineReport::default());
                assert_same_substructures(&ex.substructures, &want);
            }
        }
    }

    #[test]
    fn the_reference_cases_reach_every_path() {
        // Guards the generator above: across its first 256 seeds it must
        // produce empty unions, kept singleton components, skipped
        // components, multi-component unions and truncations.
        let (mut empty, mut singleton, mut skipped, mut split, mut truncated) = (0, 0, 0, 0, 0);
        for seed in 0..256 {
            let (q, g, cs, cap) = random_case(seed);
            let union = cs.union();
            let comps = InducedComponents::new(&g, &union);
            empty += usize::from(union.is_empty());
            split += usize::from(comps.len() > 1);
            let kept = reference_tail(&q, &g, None, &cs);
            singleton += kept.iter().filter(|s| s.graph.n_vertices() == 1).count();
            skipped += usize::from(kept.len() < comps.len());
            truncated +=
                usize::from(cap.is_some_and(|c| kept.iter().any(|s| s.graph.n_vertices() > c)));
        }
        for (what, n) in [
            ("empty union", empty),
            ("kept singleton", singleton),
            ("skipped component", skipped),
            ("several components", split),
            ("truncation", truncated),
        ] {
            assert!(n >= 5, "only {n} cases with a {what}");
        }
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
