//! The pluggable estimation backend contract.
//!
//! Every way of turning a query into a count — the WEst network
//! ([`crate::NeurSc`]), the filtering–sampling backend (`neursc-sample`),
//! any future method — implements [`Estimator`]. The trait splits the
//! pipeline into the part that differs per backend (estimating one
//! **connected** query, [`Estimator::estimate_component`]) and the parts
//! that must behave identically everywhere, which are provided methods:
//!
//! * **§6.1 component routing** — a disconnected query is estimated as the
//!   product of its connected components' estimates
//!   ([`Estimator::estimate_routed`]).
//! * **Batch fan-out** — [`Estimator::estimate_batch_budgeted`] fans a
//!   query batch over [`Estimator::threads`] workers with per-item panic
//!   containment, [`crate::FaultPlan`] injection (panic + budget
//!   starvation), per-item observability lanes/spans, and per-item
//!   [`neursc_match::FilterBudget`] overrides — byte-for-byte the semantics
//!   the WEst pipeline has always had.
//! * **Determinism** — provided methods reduce in index order and derive no
//!   values from scheduling, so a backend whose
//!   [`Estimator::estimate_component`] is bit-deterministic stays
//!   bit-deterministic at any thread count through every entry point.
//!
//! Budget semantics follow the PR-2 degradation ladder: a budget exhausted
//! where a sound degraded result exists yields `Ok` with
//! [`crate::EstimateDetail::degraded`] set; exhaustion where no sound
//! result exists yields the typed [`NeurScError::Budget`].
//!
//! ```
//! use neursc_core::{Estimator, GraphContext, NeurSc, NeurScConfig};
//! use neursc_graph::generate::erdos_renyi;
//! use neursc_graph::Graph;
//!
//! let g = erdos_renyi(60, 150, 3, 1);
//! let q = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
//! let model = NeurSc::new(NeurScConfig::small(), 7);
//!
//! // `NeurSc` is the first `Estimator` backend; the trait's entry points
//! // are the same ones its inherent methods forward to.
//! let backend: &dyn Estimator = &model;
//! assert_eq!(backend.name(), "west");
//! let d = backend
//!     .estimate_detailed_with(&q, &g, &GraphContext::new())
//!     .unwrap();
//! assert!(d.count.is_finite() && d.count >= 0.0);
//! assert!(d.ci.is_none()); // WEst reports no confidence interval
//! ```

use crate::context::GraphContext;
use crate::error::NeurScError;
use crate::model::EstimateDetail;
use crate::obs::{self, PipelineReport, Span};
use crate::parallel::parallel_map_caught;
use neursc_graph::Graph;
use neursc_match::FilterBudget;

/// A two-sided confidence interval on an estimate, reported by backends
/// whose estimator has a sampling distribution (the filtering–sampling
/// backend does; WEst does not — a trained network's error is not a
/// per-query random variable).
///
/// `low` is clamped to 0 (counts are nonnegative); `confidence` is the
/// nominal coverage level the interval was built for (e.g. `0.95`).
///
/// ```
/// use neursc_core::ConfidenceInterval;
/// let ci = ConfidenceInterval { low: 10.0, high: 30.0, confidence: 0.95 };
/// assert!(ci.contains(20.0));
/// assert!(!ci.contains(31.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound (≥ 0).
    pub low: f64,
    /// Upper bound.
    pub high: f64,
    /// Nominal coverage level in (0, 1).
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Whether `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        self.low <= value && value <= self.high
    }
}

/// Counter name for a query-level error outcome.
fn outcome_counter(e: &NeurScError) -> &'static str {
    match e {
        NeurScError::Budget { .. } => "query.error.budget",
        NeurScError::InvalidQuery { .. } => "query.error.invalid_query",
        NeurScError::Panicked { .. } => "query.panicked",
        _ => "query.error.other",
    }
}

/// Bumps the per-query outcome counters for one finished slot; `flags`
/// reads an `Ok` slot's `(degraded, trivially_zero)` ([`detail_flags`] for
/// estimates), so prepared queries count the same way.
pub(crate) fn count_outcome<T>(
    sink: &dyn crate::obs::ObsSink,
    r: &Result<T, NeurScError>,
    flags: impl FnOnce(&T) -> (bool, bool),
) {
    match r.as_ref().map(flags) {
        Ok((degraded, trivially_zero)) => {
            sink.counter_add("query.ok", 1);
            if degraded {
                sink.counter_add("query.degraded", 1);
            }
            if trivially_zero {
                sink.counter_add("query.trivially_zero", 1);
            }
        }
        Err(e) => sink.counter_add(outcome_counter(e), 1),
    }
}

/// The `(degraded, trivially_zero)` outcome flags of a finished estimate.
pub(crate) fn detail_flags(d: &EstimateDetail) -> (bool, bool) {
    (d.degraded, d.trivially_zero)
}

/// The batch fan-out shared by [`Estimator::estimate_batch_budgeted`] and
/// [`crate::NeurSc::prepare_batch`]: warms the backend's caches once, runs
/// `item(i, starve)` for every slot on [`Estimator::threads`] workers —
/// each on its own observability lane under a `pipeline.query` span, with
/// [`crate::FaultPlan`] panics tripped first and `starve` carrying the
/// injected zero budget of a starved slot — contains per-slot panics as
/// typed errors, and bumps the outcome counters ([`count_outcome`] with
/// `flags`). Results are in input order.
pub(crate) fn fan_out<E: Estimator + ?Sized, T: Send>(
    backend: &E,
    n: usize,
    g: &Graph,
    ctx: &GraphContext,
    item: impl Fn(usize, Option<FilterBudget>) -> Result<T, NeurScError> + Sync,
    flags: impl Fn(&T) -> (bool, bool),
) -> Vec<Result<T, NeurScError>> {
    obs::scope(&ctx.obs, obs::lane::ROOT, || {
        if n > 0 {
            let _sp = Span::enter("pipeline.warmup");
            backend.warm(g, ctx);
        }
        let caught = parallel_map_caught(n, backend.threads(), |i| {
            obs::scope(&ctx.obs, obs::lane::item(i), || {
                let mut sp = Span::enter("pipeline.query");
                ctx.faults.trip_panic(i);
                let starve = ctx.faults.starved(i).then(|| FilterBudget::steps(0));
                let r = item(i, starve);
                if let Err(e) = &r {
                    sp.set_tag(obs::error_tag(e));
                }
                r
            })
        });
        caught
            .into_iter()
            .map(|r| {
                let slot = r.unwrap_or_else(|p| {
                    Err(NeurScError::Panicked {
                        item: p.index,
                        message: p.message,
                    })
                });
                count_outcome(ctx.obs.as_ref(), &slot, &flags);
                slot
            })
            .collect()
    })
}

/// The §6.1 component-product reduction of [`Estimator::estimate_routed`]:
/// estimates each connected component via `each` (in component order) and
/// multiplies counts, merging diagnostics and composing confidence
/// intervals exactly as documented on `estimate_routed`.
pub(crate) fn component_product(
    components: &[neursc_graph::induced::InducedSubgraph],
    mut each: impl FnMut(&Graph) -> Result<EstimateDetail, NeurScError>,
) -> Result<EstimateDetail, NeurScError> {
    let mut out = EstimateDetail {
        count: 1.0,
        n_substructures: 0,
        trivially_zero: false,
        degraded: false,
        ci: None,
        report: PipelineReport::default(),
    };
    let mut ci = Some((1.0f64, 1.0f64, 1.0f64));
    for c in components {
        let d = each(&c.graph)?;
        out.count *= d.count;
        out.n_substructures += d.n_substructures;
        out.trivially_zero |= d.trivially_zero;
        out.degraded |= d.degraded;
        out.report.merge(&d.report);
        ci = match (ci, d.ci) {
            (Some((lo, hi, conf)), Some(c)) => {
                Some((lo * c.low, hi * c.high, conf.min(c.confidence)))
            }
            _ => None,
        };
    }
    if out.trivially_zero {
        // Any component with a provably-zero count zeroes the product.
        out.count = 0.0;
    }
    out.ci = ci.map(|(low, high, confidence)| ConfidenceInterval {
        low,
        high,
        confidence,
    });
    Ok(out)
}

/// A cardinality-estimation backend.
///
/// Implementors provide the five required methods; the provided methods
/// give every backend the same routing, batching, fault-injection and
/// observability behavior (see the [module docs](self)).
pub trait Estimator: Send + Sync {
    /// Stable short name of the backend (`"west"`, `"sample"`, …) — used in
    /// metrics and routing decisions.
    fn name(&self) -> &'static str;

    /// Worker threads for batch fan-out. Thread count never changes
    /// results.
    fn threads(&self) -> usize;

    /// Rejects queries this backend must not attempt (empty queries,
    /// queries over a size cap). Called once per query by
    /// [`Estimator::estimate_routed`], before any component split.
    fn validate(&self, q: &Graph) -> Result<(), NeurScError>;

    /// Touches the shared per-data-graph caches once so batch workers don't
    /// race to build the same precomputation. Called under a
    /// `pipeline.warmup` span by the provided batch entry point.
    fn warm(&self, g: &Graph, ctx: &GraphContext);

    /// Estimates one **connected** query (or one connected component of a
    /// disconnected query). `budget` overrides the backend's configured
    /// filtering budget when `Some`; `threads` bounds any intra-query
    /// fan-out; `sub_lanes` routes per-substructure spans onto their own
    /// observability lanes (backends without substructures ignore it).
    ///
    /// Must be bit-deterministic for fixed inputs at any `threads` value.
    fn estimate_component(
        &self,
        q: &Graph,
        g: &Graph,
        ctx: &GraphContext,
        budget: Option<FilterBudget>,
        threads: usize,
        sub_lanes: bool,
    ) -> Result<EstimateDetail, NeurScError>;

    /// The single-query estimation core shared by every entry point
    /// (single, batched, served): validates, then either runs the connected
    /// pipeline directly or — for a disconnected query — estimates each
    /// connected component and multiplies the counts (paper §6.1: "the
    /// subgraph counts of a disconnected graph can be obtained by
    /// multiplying the estimated counts of its connected components").
    ///
    /// Confidence intervals multiply component-wise when **every**
    /// component reports one (counts are nonnegative, so the interval
    /// product is monotone); the product's nominal level is the minimum of
    /// the components' levels and is approximate — per-component coverage
    /// does not compose exactly. A single CI-less component drops the CI.
    fn estimate_routed(
        &self,
        q: &Graph,
        g: &Graph,
        ctx: &GraphContext,
        budget: Option<FilterBudget>,
        threads: usize,
        sub_lanes: bool,
    ) -> Result<EstimateDetail, NeurScError> {
        self.validate(q)?;
        let components = neursc_graph::induced::connected_components(q);
        if components.len() <= 1 {
            return self.estimate_component(q, g, ctx, budget, threads, sub_lanes);
        }
        component_product(&components, |cq| {
            self.estimate_component(cq, g, ctx, budget, threads, sub_lanes)
        })
    }

    /// Estimates `c(q, G)` against a throwaway context (no shared caches).
    fn estimate(&self, q: &Graph, g: &Graph) -> Result<f64, NeurScError> {
        Ok(self.estimate_detailed(q, g)?.count)
    }

    /// Estimation with diagnostics against a throwaway context.
    fn estimate_detailed(&self, q: &Graph, g: &Graph) -> Result<EstimateDetail, NeurScError> {
        self.estimate_detailed_with(q, g, &GraphContext::new())
    }

    /// [`Estimator::estimate_detailed`] against a caller-provided
    /// [`GraphContext`]: precomputations come from the shared caches and,
    /// when the context carries a sink, the run emits pipeline spans and
    /// per-query outcome counters. Identical value.
    fn estimate_detailed_with(
        &self,
        q: &Graph,
        g: &Graph,
        ctx: &GraphContext,
    ) -> Result<EstimateDetail, NeurScError> {
        obs::scope(&ctx.obs, obs::lane::ROOT, || {
            let mut sp = Span::enter("pipeline.query");
            let r = self.estimate_routed(q, g, ctx, None, self.threads(), true);
            if let Err(e) = &r {
                sp.set_tag(obs::error_tag(e));
            }
            count_outcome(ctx.obs.as_ref(), &r, detail_flags);
            r
        })
    }

    /// [`Estimator::estimate`] with shared caches.
    fn estimate_with(&self, q: &Graph, g: &Graph, ctx: &GraphContext) -> Result<f64, NeurScError> {
        Ok(self.estimate_detailed_with(q, g, ctx)?.count)
    }

    /// Batched estimation: estimates every query against `g` with
    /// [`Estimator::threads`] workers sharing the context's caches. One
    /// result per query, in input order; a query that panics, exhausts its
    /// budget, or is invalid yields a typed `Err` in its slot without
    /// disturbing the others.
    fn estimate_batch(
        &self,
        queries: &[Graph],
        g: &Graph,
        ctx: &GraphContext,
    ) -> Vec<Result<EstimateDetail, NeurScError>> {
        self.estimate_batch_budgeted(queries, g, ctx, &[])
    }

    /// [`Estimator::estimate_batch`] with an optional per-item
    /// filtering-budget override — the batch-handoff hook a serving layer
    /// uses to map per-request deadlines and step caps onto the degradation
    /// ladder. `budgets[i] = Some(b)` runs item `i` under `b`; `None` (or a
    /// `budgets` slice shorter than `queries`) falls back to the backend's
    /// configured budget. Fault-plan budget starvation takes precedence, so
    /// injected faults behave identically on every backend.
    fn estimate_batch_budgeted(
        &self,
        queries: &[Graph],
        g: &Graph,
        ctx: &GraphContext,
        budgets: &[Option<FilterBudget>],
    ) -> Vec<Result<EstimateDetail, NeurScError>> {
        fan_out(
            self,
            queries.len(),
            g,
            ctx,
            |i, starve| {
                let budget = starve.or_else(|| budgets.get(i).copied().flatten());
                // Intra-query fan-out stays sequential here (threads = 1):
                // the per-query fan-out already occupies the configured
                // workers, and nesting scopes would oversubscribe without
                // changing results.
                self.estimate_routed(&queries[i], g, ctx, budget, 1, false)
            },
            detail_flags,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_interval_contains_is_inclusive() {
        let ci = ConfidenceInterval {
            low: 1.0,
            high: 2.0,
            confidence: 0.95,
        };
        assert!(ci.contains(1.0));
        assert!(ci.contains(2.0));
        assert!(!ci.contains(0.999));
        assert!(!ci.contains(2.001));
    }
}
