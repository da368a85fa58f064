//! Partitioned estimation over an out-of-core [`GraphStore`].
//!
//! The monolithic pipeline filters a query against the whole data graph at
//! once, which needs `O(|G|)` resident memory (graph + radius-`r`
//! profiles). This module splits the *data graph* instead of the query: a
//! deterministic [`PartitionPlan`] cuts `V(G)` into contiguous
//! edge-balanced cores, local pruning runs per core against a streamed
//! [`GraphStore`] ([`GraphStore::local_pruning_core`]), and everything
//! downstream — global refinement, extraction, the backend's estimator —
//! runs once on the *working set*: the candidate union plus its one-hop
//! halo, which after filtering is usually a small fraction of `G`.
//!
//! ## Exactness
//!
//! Partitioning is a memory-layout decision, never an accuracy trade:
//!
//! * Per-core pruning is bit-identical to the matching slice of whole-graph
//!   pruning, and cores are concatenated in partition order, so the merged
//!   candidate sets equal the monolithic ones exactly.
//! * The working set preserves every candidate row verbatim (monotone
//!   relabeling), so refinement, extraction and sampling see the same
//!   neighborhoods they would on `G`.
//! * Budget charges are preserved: local pruning's per-pair charges are
//!   pre-charged in one lump of identical total
//!   ([`GraphStore::local_pruning_work`]), and refinement meters pair tests
//!   on the working set exactly as it would on `G`.
//!
//! The result: `estimate_partitioned` is **bit-identical** to the
//! monolithic estimate for the WEst backend, and bit-identical for the
//! sampling backend too (same pools, same RNG consumption), at any
//! partition count and any thread count. `tests/partition_equivalence.rs`
//! and the oracle's metamorphic invariant enforce this.
//!
//! ## Fault isolation and observability
//!
//! Partition fan-out reuses the batch machinery: each core runs under
//! [`crate::parallel::parallel_map_caught`] on its own observability lane
//! ([`crate::obs::lane::part`]), a panic inside one core is contained and
//! surfaces as a typed [`NeurScError::Panicked`] for the query, and the
//! [`crate::FaultPlan`] can arm per-partition panics through the same
//! `trip_panic` hook the batch path uses.

use std::time::Instant;

use crate::context::GraphContext;
use crate::error::NeurScError;
use crate::estimator::{component_product, count_outcome, detail_flags, Estimator};
use crate::model::EstimateDetail;
use crate::obs::{self, PipelineReport, Span};
use crate::parallel::parallel_map_caught;
use neursc_graph::types::VertexId;
use neursc_graph::Graph;
use neursc_match::refinement::global_refinement_metered;
use neursc_match::{CandidateSets, FilterBudget, FilterConfig, FilterError, FilterPhase};
use neursc_store::{GraphStore, PartitionPlan};

/// A backend that can estimate from pre-filtered candidate sets — the hook
/// partitioned estimation needs beyond [`Estimator`]. The driver owns
/// filtering (per-core pruning + working-set refinement); the backend owns
/// everything after, exactly as its `estimate_component` would run it after
/// its own filtering.
pub trait PartitionBackend: Estimator {
    /// The filtering configuration (profile radius, refinement rounds) this
    /// backend would use in `estimate_component` — the driver must filter
    /// with the same settings for the results to correspond.
    fn filter_config(&self) -> FilterConfig;

    /// The filtering budget used when the caller passes `None`.
    fn default_filter_budget(&self) -> FilterBudget;

    /// Estimates one **connected** query from filtered candidates.
    ///
    /// `working` is the graph `candidates` is expressed in (the working set
    /// here; backends must not assume it is the full data graph). `budget`
    /// and `steps` carry the filtering budget and the steps it already
    /// spent, so budget-ladder semantics (e.g. the sampling backend's trial
    /// cap) match a monolithic run exactly. `report` holds the filtering
    /// timings to merge into the returned detail.
    #[allow(clippy::too_many_arguments)]
    fn estimate_filtered(
        &self,
        q: &Graph,
        working: &Graph,
        candidates: CandidateSets,
        degraded: bool,
        budget: FilterBudget,
        steps: u64,
        threads: usize,
        sub_lanes: bool,
        report: PipelineReport,
        ctx: &GraphContext,
    ) -> Result<EstimateDetail, NeurScError>;
}

/// Estimates `c(q, G)` against a packed [`GraphStore`] with per-partition
/// filtering — the out-of-core counterpart of
/// [`Estimator::estimate_detailed_with`], bit-identical to it on the same
/// graph (see the [module docs](self)). Disconnected queries route through
/// the §6.1 component product, like every other entry point.
pub fn estimate_partitioned(
    backend: &dyn PartitionBackend,
    q: &Graph,
    store: &GraphStore,
    plan: &PartitionPlan,
    ctx: &GraphContext,
    budget: Option<FilterBudget>,
    threads: usize,
) -> Result<EstimateDetail, NeurScError> {
    obs::scope(&ctx.obs, obs::lane::ROOT, || {
        let mut sp = Span::enter("pipeline.query");
        let r = routed(backend, q, store, plan, ctx, budget, threads);
        if let Err(e) = &r {
            sp.set_tag(obs::error_tag(e));
        }
        count_outcome(ctx.obs.as_ref(), &r, detail_flags);
        r
    })
}

fn routed(
    backend: &dyn PartitionBackend,
    q: &Graph,
    store: &GraphStore,
    plan: &PartitionPlan,
    ctx: &GraphContext,
    budget: Option<FilterBudget>,
    threads: usize,
) -> Result<EstimateDetail, NeurScError> {
    backend.validate(q)?;
    let components = neursc_graph::induced::connected_components(q);
    if components.len() <= 1 {
        return component(backend, q, store, plan, ctx, budget, threads);
    }
    component_product(&components, |cq| {
        component(backend, cq, store, plan, ctx, budget, threads)
    })
}

/// Filters one connected query per-partition and hands the working set to
/// the backend.
fn component(
    backend: &dyn PartitionBackend,
    q: &Graph,
    store: &GraphStore,
    plan: &PartitionPlan,
    ctx: &GraphContext,
    budget: Option<FilterBudget>,
    threads: usize,
) -> Result<EstimateDetail, NeurScError> {
    let fcfg = backend.filter_config();
    let fb = budget.unwrap_or_else(|| backend.default_filter_budget());
    let filter_span = Span::enter("filter.candidates");
    let t0 = Instant::now();

    // Pre-charge the whole local-pruning cost in one lump. The monolithic
    // meter charges one step per (query vertex, same-label data vertex)
    // pair; the lump total is identical, so a budget that survives here
    // survives there and vice versa. On exhaustion, report the same `spent`
    // the incremental meter would have had at its first failing charge.
    let mut meter = fb.meter();
    if meter.charge(store.local_pruning_work(q)).is_err() {
        return Err(FilterError::BudgetExhausted {
            phase: FilterPhase::LocalPruning,
            spent: fb.max_steps.saturating_add(1),
        }
        .into());
    }

    // Fan cores out; each returns ascending global candidate ids. Panics
    // are contained per partition; `FaultPlan::trip_panic` arms them.
    let parts = parallel_map_caught(plan.n_partitions(), threads, |p| {
        obs::scope(&ctx.obs, obs::lane::part(p), || {
            let _sp = Span::enter("partition.prune");
            ctx.faults.trip_panic(p);
            store.local_pruning_core(q, plan.core(p), fcfg.profile_radius)
        })
    });
    // Concatenating in partition order over ascending contiguous cores
    // reproduces the monolithic ascending candidate order exactly.
    let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); q.n_vertices()];
    for slot in parts {
        let part = slot.map_err(|p| NeurScError::Panicked {
            item: p.index,
            message: p.message,
        })??;
        for (u, s) in part.into_iter().enumerate() {
            sets[u].extend(s);
        }
    }
    let local_prune_ns = t0.elapsed().as_nanos() as u64;
    let cs = CandidateSets { sets };

    // Materialize the working set (union + one-hop halo) and refine once,
    // globally — refinement only reads candidate rows, which the working
    // set preserves verbatim.
    let t1 = Instant::now();
    let mut union = Vec::new();
    cs.union_into(&mut union);
    let ws = store.induced_working_set(&union)?;
    let mut local_cs = ws.localize(&cs.sets)?;
    let mut degraded = false;
    if !local_cs.any_empty() {
        let (_, exhausted) = global_refinement_metered(
            q,
            &ws.graph,
            &mut local_cs,
            fcfg.refinement_rounds,
            &mut meter,
        );
        degraded = exhausted;
    }
    let refine_ns = t1.elapsed().as_nanos() as u64;
    let steps = meter.spent();
    obs::span_with_ns("filter.local_prune", local_prune_ns);
    obs::span_with_ns("filter.refine", refine_ns);
    drop(filter_span);

    let report = PipelineReport {
        local_prune_ns,
        refine_ns,
        filter_steps: steps,
        ..PipelineReport::default()
    };
    backend.estimate_filtered(
        q, &ws.graph, local_cs, degraded, fb, steps, threads, true, report, ctx,
    )
}

impl PartitionBackend for crate::NeurSc {
    fn filter_config(&self) -> FilterConfig {
        self.config.filter
    }

    fn default_filter_budget(&self) -> FilterBudget {
        self.config.budget.filter_budget()
    }

    fn estimate_filtered(
        &self,
        q: &Graph,
        working: &Graph,
        candidates: CandidateSets,
        degraded: bool,
        _budget: FilterBudget,
        _steps: u64,
        threads: usize,
        sub_lanes: bool,
        report: PipelineReport,
        ctx: &GraphContext,
    ) -> Result<EstimateDetail, NeurScError> {
        let ex = crate::extraction::extract_from_candidates(
            q,
            working,
            &self.config,
            candidates,
            degraded,
            report,
        );
        let pq = crate::train::prepared_from_extraction(q, &self.config, &ex, 0);
        Ok(self.estimate_prepared_obs(&pq, threads, &ctx.obs, sub_lanes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeurSc, NeurScConfig};
    use neursc_graph::generate::erdos_renyi;
    use neursc_store::{encode_graph, AccessMode};

    fn store_of(g: &Graph, mode: AccessMode) -> GraphStore {
        GraphStore::open_bytes(encode_graph(g), mode).unwrap()
    }

    fn modes() -> [AccessMode; 2] {
        [
            AccessMode::Resident,
            AccessMode::Streamed {
                chunk_edges: 64,
                max_chunks: 3,
            },
        ]
    }

    #[test]
    fn west_partitioned_matches_monolithic_bit_for_bit() {
        let g = erdos_renyi(120, 360, 3, 11);
        let q = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let model = NeurSc::new(NeurScConfig::small(), 7);
        let mono = model
            .estimate_detailed_with(&q, &g, &GraphContext::new())
            .unwrap();
        for mode in modes() {
            let store = store_of(&g, mode);
            for k in [1usize, 2, 4] {
                for threads in [1usize, 2, 4] {
                    let plan = PartitionPlan::contiguous(&store, k);
                    let d = estimate_partitioned(
                        &model,
                        &q,
                        &store,
                        &plan,
                        &GraphContext::new(),
                        None,
                        threads,
                    )
                    .unwrap();
                    assert_eq!(d.count.to_bits(), mono.count.to_bits(), "k={k}");
                    assert_eq!(d.n_substructures, mono.n_substructures);
                    assert_eq!(d.trivially_zero, mono.trivially_zero);
                    assert_eq!(d.degraded, mono.degraded);
                }
            }
        }
    }

    #[test]
    fn disconnected_query_routes_through_component_product() {
        let g = erdos_renyi(80, 240, 3, 3);
        let q = Graph::from_edges(4, &[0, 1, 2, 0], &[(0, 1), (2, 3)]).unwrap();
        let model = NeurSc::new(NeurScConfig::small(), 7);
        let mono = model
            .estimate_detailed_with(&q, &g, &GraphContext::new())
            .unwrap();
        let store = store_of(&g, AccessMode::Resident);
        let plan = PartitionPlan::contiguous(&store, 3);
        let d =
            estimate_partitioned(&model, &q, &store, &plan, &GraphContext::new(), None, 2).unwrap();
        assert_eq!(d.count.to_bits(), mono.count.to_bits());
    }

    #[test]
    fn starved_budget_is_the_same_typed_error_as_monolithic() {
        let g = erdos_renyi(60, 150, 3, 5);
        let q = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let model = NeurSc::new(NeurScConfig::small(), 7);
        let mono = model
            .estimate_routed(
                &q,
                &g,
                &GraphContext::new(),
                Some(FilterBudget::steps(1)),
                1,
                false,
            )
            .unwrap_err();
        let store = store_of(&g, AccessMode::Resident);
        let plan = PartitionPlan::contiguous(&store, 2);
        let part = estimate_partitioned(
            &model,
            &q,
            &store,
            &plan,
            &GraphContext::new(),
            Some(FilterBudget::steps(1)),
            1,
        )
        .unwrap_err();
        assert_eq!(part.to_string(), mono.to_string());
    }

    #[test]
    fn partition_panic_is_contained_to_a_typed_error() {
        let g = erdos_renyi(60, 150, 3, 5);
        let q = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let model = NeurSc::new(NeurScConfig::small(), 7);
        let store = store_of(&g, AccessMode::Resident);
        let plan = PartitionPlan::contiguous(&store, 4);
        let ctx = GraphContext::with_faults(crate::FaultPlan::new().panic_on(2));
        let err = estimate_partitioned(&model, &q, &store, &plan, &ctx, None, 2).unwrap_err();
        match err {
            NeurScError::Panicked { item, message } => {
                assert_eq!(item, 2);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
    }

    #[test]
    fn partition_lanes_are_disjoint_from_item_and_sub_lanes() {
        assert_ne!(obs::lane::part(0), obs::lane::item(0));
        assert_ne!(obs::lane::part(0), obs::lane::sub(0));
        assert_eq!(obs::lane::part(3) - obs::lane::part(0), 3);
    }
}
