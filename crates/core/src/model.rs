//! The top-level NeurSC model (paper Algorithm 1).

use crate::config::NeurScConfig;
use crate::context::GraphContext;
use crate::discriminator::Discriminator;
use crate::error::NeurScError;
use crate::estimator::{fan_out, ConfidenceInterval, Estimator};
use crate::loss::q_error;
use crate::obs::{self, ObsSink, PipelineReport, Span};
use crate::train::{prepare_query_budgeted, run_training, PreparedQuery, TrainReport};
use crate::west::WEst;
use neursc_graph::Graph;
use neursc_match::FilterBudget;
use neursc_nn::infer::{Arena, InferCtx, InferWeights, QuantMode};
use neursc_nn::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};

/// Detailed estimation output (Algorithm 1).
#[derive(Debug, Clone)]
pub struct EstimateDetail {
    /// The estimated subgraph count `ĉ(q)`.
    pub count: f64,
    /// Number of candidate substructures processed.
    pub n_substructures: usize,
    /// Whether filtering alone proved the count to be 0 (early exit).
    pub trivially_zero: bool,
    /// Whether a filtering budget forced degraded (sound-but-looser)
    /// candidate sets for this query.
    pub degraded: bool,
    /// A variance-derived confidence interval, reported by sampling
    /// backends (`None` for WEst — a trained network's error is not a
    /// per-query random variable). See [`ConfidenceInterval`].
    pub ci: Option<ConfidenceInterval>,
    /// Per-stage wall timings of this estimate (wall clock — **excluded
    /// from equality**; see [`crate::obs`]).
    pub report: PipelineReport,
}

/// Equality deliberately ignores `report`: nanosecond timings differ run to
/// run, while the estimate itself is bit-reproducible for fixed inputs.
impl PartialEq for EstimateDetail {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.n_substructures == other.n_substructures
            && self.trivially_zero == other.trivially_zero
            && self.degraded == other.degraded
            && self.ci == other.ci
    }
}

/// A trained (or trainable) NeurSC estimator.
///
/// See the crate docs for an end-to-end example.
pub struct NeurSc {
    /// Architecture and training configuration.
    pub config: NeurScConfig,
    /// All trainable parameters (θ ∪ ω).
    pub store: ParamStore,
    /// The estimation network `f_θ`.
    pub west: WEst,
    /// The Wasserstein critic `f_ω` (present iff the variant uses it).
    pub disc: Option<Discriminator>,
    /// Lazily built inference state; reset whenever weights change
    /// (`fit*`).
    infer_state: OnceLock<InferState>,
}

/// The per-model tape-free inference state: a weight snapshot shared by
/// all estimate workers, plus a pool of recycled per-lane [`Arena`]s.
/// Every tensor of the forward comes from, and goes back to, one of those
/// arenas (the query's intra-GIN output too), and each arena hands out
/// its buffers best fit, so a warm estimate allocates no tensor storage:
/// `tests/warm_estimate_memory.rs` counts it. Featurization's matrices
/// belong to the [`PreparedQuery`] and are outside that count.
struct InferState {
    weights: InferWeights,
    arenas: Mutex<Vec<Arena>>,
}

impl InferState {
    fn checkout(&self) -> Arena {
        let mut pool = match self.arenas.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        pool.pop().unwrap_or_default()
    }

    fn checkin(&self, arena: Arena) {
        let mut pool = match self.arenas.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        pool.push(arena);
    }
}

impl NeurSc {
    /// Constructs a model with freshly initialized parameters.
    pub fn new(mut config: NeurScConfig, seed: u64) -> Self {
        config.seed = seed;
        // Keep dependent dims consistent if the caller customized features.
        config.gin.in_dim = config.features.dim();
        config.attention.in_dim = config.features.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let west = WEst::new(&mut store, &config, &mut rng);
        let disc = if config.uses_discriminator() {
            Some(Discriminator::new(&mut store, &config, &mut rng))
        } else {
            None
        };
        NeurSc {
            config,
            store,
            west,
            disc,
            infer_state: OnceLock::new(),
        }
    }

    /// The lazily built inference state for the current weights.
    fn infer_state(&self) -> &InferState {
        self.infer_state.get_or_init(|| InferState {
            weights: InferWeights::from_store(&self.store, QuantMode::F32),
            arenas: Mutex::new(Vec::new()),
        })
    }

    /// Trains on `(query, exact count)` pairs against `g` (both phases of
    /// §5.6). Query preparation (filtering, extraction, featurization) runs
    /// through a shared [`GraphContext`] and fans out over `config.threads`
    /// workers; the result is independent of the thread count.
    ///
    /// Queries whose preparation fails (panic, budget, invalid query) are
    /// dropped from the training set and counted in
    /// [`TrainReport::failed_queries`]; training proceeds on the survivors.
    /// Errors only when no query survives, or when the run diverges and
    /// `config.fail_on_divergence` is set (the model is still rolled back to
    /// its best finite checkpoint either way).
    pub fn fit(&mut self, g: &Graph, train: &[(Graph, u64)]) -> Result<TrainReport, NeurScError> {
        self.fit_with(g, train, &GraphContext::new())
    }

    /// [`NeurSc::fit`] against a caller-provided [`GraphContext`] — the
    /// entry point for sharing caches across runs and for observability
    /// ([`GraphContext::with_obs`]): preparation and training emit spans
    /// and metrics to the context's sink. Identical training behavior.
    pub fn fit_with(
        &mut self,
        g: &Graph,
        train: &[(Graph, u64)],
        ctx: &GraphContext,
    ) -> Result<TrainReport, NeurScError> {
        if train.is_empty() {
            return Err(NeurScError::NoTrainingData);
        }
        obs::scope(&ctx.obs, obs::lane::ROOT, || {
            let mut prepared = Vec::with_capacity(train.len());
            let mut failed = 0usize;
            for r in self.prepare_batch(g, train, ctx) {
                match r {
                    Ok(pq) => prepared.push(pq),
                    Err(_) => failed += 1,
                }
            }
            if prepared.is_empty() {
                return Err(NeurScError::NoTrainingData);
            }
            let mut report = run_training(self, &prepared, &ctx.obs);
            self.infer_state = OnceLock::new(); // weights changed
            report.failed_queries = failed;
            self.check_divergence(&report)?;
            Ok(report)
        })
    }

    /// Prepares a labeled query batch in parallel against a shared context.
    /// Results are in input order regardless of scheduling; a query that
    /// panics or exhausts its budget yields a typed `Err` in its slot while
    /// every other query completes normally.
    pub fn prepare_batch(
        &self,
        g: &Graph,
        batch: &[(Graph, u64)],
        ctx: &GraphContext,
    ) -> Vec<Result<PreparedQuery, NeurScError>> {
        fan_out(
            self,
            batch.len(),
            g,
            ctx,
            |i, starve| {
                let (q, c) = &batch[i];
                let budget = starve.unwrap_or_else(|| self.config.budget.filter_budget());
                prepare_query_budgeted(q, g, &self.config, *c, ctx, &budget)
            },
            |pq| (pq.degraded, pq.trivially_zero),
        )
    }

    /// Trains on queries that are already prepared (lets benchmark
    /// harnesses amortize extraction across model variants).
    pub fn fit_prepared(&mut self, prepared: &[PreparedQuery]) -> Result<TrainReport, NeurScError> {
        if prepared.is_empty() {
            return Err(NeurScError::NoTrainingData);
        }
        let report = run_training(self, prepared, obs::noop());
        self.infer_state = OnceLock::new(); // weights changed
        self.check_divergence(&report)?;
        Ok(report)
    }

    fn check_divergence(&self, report: &TrainReport) -> Result<(), NeurScError> {
        if self.config.fail_on_divergence {
            if let Some(epoch) = report.diverged_at {
                return Err(NeurScError::Divergence {
                    epoch,
                    loss: report.final_loss,
                });
            }
        }
        Ok(())
    }

    /// Estimates `c(q, G)` (Algorithm 1): extraction, WEst on every
    /// substructure, summation — against a throwaway context. Disconnected
    /// queries are estimated as the product of their connected components'
    /// estimates (paper §6.1, [`Estimator::estimate_routed`]).
    pub fn estimate(&self, q: &Graph, g: &Graph) -> Result<f64, NeurScError> {
        <Self as Estimator>::estimate(self, q, g)
    }

    /// Estimation with diagnostics against a caller-provided
    /// [`GraphContext`]: precomputations come from the shared caches and,
    /// when the context carries a sink ([`GraphContext::with_obs`]), the
    /// run emits `pipeline.query`/`filter.*`/`extract.*`/`gnn.*` spans and
    /// per-query outcome counters. The batched, budgeted and context-free
    /// forms are the [`Estimator`] trait's provided methods.
    pub fn estimate_detailed_with(
        &self,
        q: &Graph,
        g: &Graph,
        ctx: &GraphContext,
    ) -> Result<EstimateDetail, NeurScError> {
        <Self as Estimator>::estimate_detailed_with(self, q, g, ctx)
    }

    /// Estimation over a prepared query. Per-substructure WEst forwards are
    /// independent (each runs in its own arena), so they fan out over
    /// `config.threads` workers; the per-substructure log counts are reduced
    /// in substructure order, making the sum — and hence `ĉ(q)` —
    /// bit-identical at any thread count.
    pub fn estimate_prepared(&self, pq: &PreparedQuery) -> EstimateDetail {
        self.estimate_prepared_obs(pq, self.config.threads, obs::noop(), true)
    }

    /// [`NeurSc::estimate_prepared`] with an explicit thread count and
    /// sink. `sub_lanes` routes each substructure's `gnn.*` spans onto its
    /// own deterministic lane ([`obs::lane::sub`]); the batched pipeline
    /// turns that off so substructure spans stay on their query's lane.
    pub(crate) fn estimate_prepared_obs(
        &self,
        pq: &PreparedQuery,
        threads: usize,
        sink: &Arc<dyn ObsSink>,
        sub_lanes: bool,
    ) -> EstimateDetail {
        if pq.trivially_zero || pq.subs.is_empty() {
            return EstimateDetail {
                count: 0.0,
                n_substructures: 0,
                trivially_zero: pq.trivially_zero,
                degraded: pq.degraded,
                ci: None,
                report: pq.report.clone(),
            };
        }
        let all: Vec<usize> = (0..pq.subs.len()).collect();
        let (count, gnn_ns) = self.forward_subs(pq, &all, threads, sink, sub_lanes);
        let mut report = pq.report.clone();
        report.gnn_ns += gnn_ns;
        EstimateDetail {
            count,
            n_substructures: all.len(),
            trivially_zero: false,
            degraded: pq.degraded,
            ci: None,
            report,
        }
    }

    /// The tape-free fused forward of `pq.subs[i]` for each `i` in `idx` (all,
    /// or §5.8's sample): one weight snapshot and one query intra-GIN, then each
    /// pair on arena-backed kernels. Returns `Σ exp(log count)` in `idx` order,
    /// bit-identical at any `threads`, and the forwards' ns (each observed).
    pub(crate) fn forward_subs(
        &self,
        pq: &PreparedQuery,
        idx: &[usize],
        threads: usize,
        sink: &Arc<dyn ObsSink>,
        sub_lanes: bool,
    ) -> (f64, u64) {
        let st = self.infer_state();
        let hq_intra = {
            let mut ictx = InferCtx::new(&st.weights, st.checkout());
            let hq = self.west.infer_query_intra(&mut ictx, &pq.x_q, &pq.q_edges);
            st.checkin(ictx.into_arena());
            hq
        };
        let logs = crate::parallel::parallel_map_indexed(idx.len(), threads, |j| {
            let i = idx[j];
            let run = || {
                let _sp = Span::enter("gnn.forward");
                let t0 = std::time::Instant::now();
                let sub = &pq.subs[i];
                let mut ictx = InferCtx::new(&st.weights, st.checkout());
                let z = self
                    .west
                    .forward_pair_infer(&mut ictx, &pq.x_q, &hq_intra, &sub.x, &sub.edges, &sub.gb)
                    as f64;
                st.checkin(ictx.into_arena());
                (z, t0.elapsed().as_nanos() as u64)
            };
            if sub_lanes {
                obs::scope(sink, obs::lane::sub(i), run)
            } else {
                run()
            }
        });
        let mut arena = st.checkout();
        arena.recycle(hq_intra);
        st.checkin(arena);
        for &(_, ns) in &logs {
            sink.observe("gnn.forward.ns", ns);
        }
        let ns = logs.iter().map(|&(_, ns)| ns).sum();
        (logs.iter().map(|&(z, _)| z.exp()).sum(), ns)
    }

    /// Mean q-error over a labeled test set (evaluation convenience).
    pub fn mean_q_error(&self, g: &Graph, test: &[(Graph, u64)]) -> Result<f64, NeurScError> {
        if test.is_empty() {
            return Ok(f64::NAN);
        }
        let mut total = 0.0;
        for (q, c) in test {
            total += q_error(self.estimate(q, g)?, *c as f64);
        }
        Ok(total / test.len() as f64)
    }
}

/// WEst is the first [`Estimator`] backend: the two inherent `estimate*`
/// conveniences above forward to the trait's provided entry points, which
/// own routing, batching, budgets and fault containment for every backend.
impl Estimator for NeurSc {
    fn name(&self) -> &'static str {
        "west"
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn validate(&self, q: &Graph) -> Result<(), NeurScError> {
        crate::train::validate_query(q, &self.config.budget)
    }

    fn warm(&self, g: &Graph, ctx: &GraphContext) {
        if self.config.uses_extraction() {
            let _ = ctx.profiles_for(g, self.config.filter.profile_radius);
        } else {
            let _ = ctx.features_for(g, &self.config.features);
        }
    }

    fn estimate_component(
        &self,
        q: &Graph,
        g: &Graph,
        ctx: &GraphContext,
        budget: Option<FilterBudget>,
        threads: usize,
        sub_lanes: bool,
    ) -> Result<EstimateDetail, NeurScError> {
        let budget = budget.unwrap_or_else(|| self.config.budget.filter_budget());
        let pq = prepare_query_budgeted(q, g, &self.config, 0, ctx, &budget)?;
        Ok(self.estimate_prepared_obs(&pq, threads, &ctx.obs, sub_lanes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use neursc_graph::generate::erdos_renyi;
    use neursc_graph::sample::{sample_query, QuerySampler};
    use neursc_match::count_embeddings;

    fn tiny_config() -> NeurScConfig {
        let mut c = NeurScConfig::small();
        c.pretrain_epochs = 8;
        c.adversarial_epochs = 3;
        c.batch_size = 8;
        c
    }

    fn workload(seed: u64, n_train: usize, size: usize) -> (Graph, Vec<(Graph, u64)>) {
        let g = erdos_renyi(150, 450, 4, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train = Vec::new();
        while train.len() < n_train {
            let q = sample_query(&g, &QuerySampler::induced(size), &mut rng).unwrap();
            if let Some(c) = count_embeddings(&q, &g, 50_000_000).exact() {
                train.push((q, c));
            }
        }
        (g, train)
    }

    #[test]
    fn untrained_model_produces_finite_nonnegative_estimates() {
        let (g, train) = workload(1, 3, 4);
        let model = NeurSc::new(tiny_config(), 1);
        for (q, _) in &train {
            let e = model.estimate(q, &g).unwrap();
            assert!(e.is_finite() && e >= 0.0);
        }
    }

    #[test]
    fn fit_reduces_training_loss() {
        let (g, train) = workload(2, 12, 4);
        let mut model = NeurSc::new(tiny_config(), 2);
        // Loss before: evaluate mean |ln ĉ − ln c|.
        let before: f64 = train
            .iter()
            .map(|(q, c)| {
                let e = model.estimate(q, &g).unwrap().max(1.0);
                (e.ln() - (*c as f64).max(1.0).ln()).abs()
            })
            .sum::<f64>()
            / train.len() as f64;
        let report = model.fit(&g, &train).unwrap();
        let after: f64 = train
            .iter()
            .map(|(q, c)| {
                let e = model.estimate(q, &g).unwrap().max(1.0);
                (e.ln() - (*c as f64).max(1.0).ln()).abs()
            })
            .sum::<f64>()
            / train.len() as f64;
        assert!(
            after < before,
            "training did not reduce log error: {before} -> {after}"
        );
        assert_eq!(report.pretrain_epochs, 8);
        assert_eq!(report.adversarial_epochs, 3);
        assert_eq!(report.failed_queries, 0);
        assert!(report.diverged_at.is_none());
        assert!(!report.rolled_back);
    }

    #[test]
    fn trained_model_beats_trivial_constant_one() {
        let (g, train) = workload(3, 16, 4);
        let mut model = NeurSc::new(tiny_config(), 3);
        model.fit(&g, &train).unwrap();
        let model_err = model.mean_q_error(&g, &train).unwrap();
        let const_err: f64 = train
            .iter()
            .map(|(_, c)| q_error(1.0, *c as f64))
            .sum::<f64>()
            / train.len() as f64;
        assert!(
            model_err < const_err,
            "model q-error {model_err} not better than constant-1 {const_err}"
        );
    }

    #[test]
    fn zero_count_queries_short_circuit() {
        let (g, _) = workload(4, 1, 4);
        let model = NeurSc::new(tiny_config(), 4);
        // A query with a label that does not exist in g.
        let q = Graph::from_edges(2, &[0, 99], &[(0, 1)]).unwrap();
        let d = model.estimate_detailed(&q, &g).unwrap();
        assert_eq!(d.count, 0.0);
        assert!(d.trivially_zero);
        assert_eq!(d.n_substructures, 0);
        assert!(!d.degraded);
    }

    #[test]
    fn all_variants_train_and_estimate() {
        let (g, train) = workload(5, 6, 4);
        for variant in [
            Variant::Full,
            Variant::DualOnly,
            Variant::IntraOnly,
            Variant::NoExtraction,
        ] {
            let mut model = NeurSc::new(tiny_config().with_variant(variant), 5);
            model.fit(&g, &train).unwrap();
            let e = model.estimate(&train[0].0, &g).unwrap();
            assert!(e.is_finite() && e >= 0.0, "variant {variant:?} failed");
        }
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let mut model = NeurSc::new(tiny_config(), 6);
        let g = erdos_renyi(20, 40, 2, 0);
        assert!(matches!(
            model.fit(&g, &[]),
            Err(NeurScError::NoTrainingData)
        ));
    }

    #[test]
    fn empty_query_is_a_typed_error() {
        let g = erdos_renyi(20, 40, 2, 0);
        let model = NeurSc::new(tiny_config(), 6);
        let q = Graph::from_edges(0, &[], &[]).unwrap();
        assert!(matches!(
            model.estimate(&q, &g),
            Err(NeurScError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn oversized_query_is_a_budget_error() {
        let g = erdos_renyi(40, 90, 2, 11);
        let mut cfg = tiny_config();
        cfg.budget.max_query_vertices = Some(3);
        let model = NeurSc::new(cfg, 11);
        let q = Graph::from_edges(4, &[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(matches!(
            model.estimate(&q, &g),
            Err(NeurScError::Budget { .. })
        ));
    }

    #[test]
    fn per_item_budget_override_starves_only_its_slot() {
        let (g, train) = workload(8, 4, 4);
        let queries: Vec<Graph> = train.into_iter().map(|(q, _)| q).collect();
        let model = NeurSc::new(tiny_config(), 8);
        let ctx = GraphContext::new();
        let plain = model.estimate_batch(&queries, &g, &ctx);
        let budgets = vec![None, Some(FilterBudget::steps(0)), None, None];
        let budgeted = model.estimate_batch_budgeted(&queries, &g, &ctx, &budgets);
        assert!(matches!(
            budgeted[1],
            Err(NeurScError::Budget { .. }) | Ok(EstimateDetail { degraded: true, .. })
        ));
        for i in [0, 2, 3] {
            assert_eq!(
                budgeted[i].as_ref().unwrap(),
                plain[i].as_ref().unwrap(),
                "unbudgeted slot {i} must be unaffected"
            );
        }
    }

    #[test]
    fn estimates_are_deterministic() {
        let (g, train) = workload(7, 4, 4);
        let mut model = NeurSc::new(tiny_config(), 7);
        model.fit(&g, &train).unwrap();
        let a = model.estimate(&train[0].0, &g).unwrap();
        let b = model.estimate(&train[0].0, &g).unwrap();
        assert_eq!(a, b);
    }

    use neursc_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
}

#[cfg(test)]
mod disconnected_tests {
    use super::*;
    use neursc_graph::generate::erdos_renyi;
    use neursc_graph::sample::{sample_query, QuerySampler};
    use neursc_match::count_embeddings;
    use rand::SeedableRng;

    #[test]
    fn disconnected_estimate_is_product_of_components() {
        let g = erdos_renyi(120, 360, 3, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut train = Vec::new();
        while train.len() < 10 {
            let q = sample_query(&g, &QuerySampler::induced(3), &mut rng).unwrap();
            if let Some(c) = count_embeddings(&q, &g, 50_000_000).exact() {
                train.push((q, c));
            }
        }
        let mut cfg = NeurScConfig::small();
        cfg.pretrain_epochs = 4;
        cfg.adversarial_epochs = 1;
        let mut model = NeurSc::new(cfg, 9);
        model.fit(&g, &train).unwrap();

        // Disconnected query: two independent labeled edges.
        let q = Graph::from_edges(4, &[0, 1, 2, 0], &[(0, 1), (2, 3)]).unwrap();
        let e = model.estimate(&q, &g).unwrap();
        let e1 = model
            .estimate(&Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap(), &g)
            .unwrap();
        let e2 = model
            .estimate(&Graph::from_edges(2, &[2, 0], &[(0, 1)]).unwrap(), &g)
            .unwrap();
        assert!((e - e1 * e2).abs() <= 1e-6 * (e1 * e2).abs().max(1.0));
    }

    #[test]
    fn single_vertex_query_estimates_without_panicking() {
        let g = erdos_renyi(60, 150, 3, 12);
        let model = NeurSc::new(NeurScConfig::small(), 12);
        let q = Graph::from_edges(1, &[1], &[]).unwrap();
        let d = model.estimate_detailed(&q, &g).unwrap();
        assert!(d.count.is_finite() && d.count >= 0.0, "count {}", d.count);
        assert!(!d.trivially_zero);
        // Batched path (the one the CLI and the serve daemon use) agrees.
        let ctx = GraphContext::new();
        let batched = model.estimate_batch(std::slice::from_ref(&q), &g, &ctx);
        assert_eq!(batched[0].as_ref().unwrap(), &d);
    }

    #[test]
    fn single_vertex_query_with_absent_label_is_trivially_zero() {
        let g = erdos_renyi(40, 90, 2, 13);
        let model = NeurSc::new(NeurScConfig::small(), 13);
        let q = Graph::from_edges(1, &[99], &[]).unwrap();
        let d = model.estimate_detailed(&q, &g).unwrap();
        assert_eq!(d.count, 0.0);
        assert!(d.trivially_zero);
    }

    #[test]
    fn disconnected_query_estimates_through_every_entry_point() {
        let g = erdos_renyi(80, 200, 3, 14);
        let model = NeurSc::new(NeurScConfig::small(), 14);
        // Two independent edges plus an isolated vertex — three components.
        let q = Graph::from_edges(5, &[0, 1, 2, 0, 1], &[(0, 1), (2, 3)]).unwrap();
        let single = model.estimate_detailed(&q, &g).unwrap();
        assert!(single.count.is_finite() && single.count >= 0.0);
        assert!(single.count > 0.0, "all three component labels exist in g");
        let ctx = GraphContext::new();
        let ctxed = model.estimate_detailed_with(&q, &g, &ctx).unwrap();
        assert_eq!(ctxed, single);
        let batched = model.estimate_batch(std::slice::from_ref(&q), &g, &ctx);
        assert_eq!(batched[0].as_ref().unwrap(), &single);
        // And the value is the §6.1 component product.
        let e1 = model
            .estimate(&Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap(), &g)
            .unwrap();
        let e2 = model
            .estimate(&Graph::from_edges(2, &[2, 0], &[(0, 1)]).unwrap(), &g)
            .unwrap();
        let e3 = model
            .estimate(&Graph::from_edges(1, &[1], &[]).unwrap(), &g)
            .unwrap();
        let product = e1 * e2 * e3;
        assert!((single.count - product).abs() <= 1e-9 * product.abs().max(1.0));
    }

    #[test]
    fn disconnected_query_prepare_is_a_typed_rejection() {
        // Direct preparation (the training path) cannot soundly extract a
        // disconnected query; it must fail typed, not garble the counts.
        let g = erdos_renyi(40, 90, 2, 15);
        let model = NeurSc::new(NeurScConfig::small(), 15);
        let q = Graph::from_edges(4, &[0, 1, 0, 1], &[(0, 1), (2, 3)]).unwrap();
        let ctx = GraphContext::new();
        let r = model.prepare_batch(&g, &[(q, 0)], &ctx);
        assert!(matches!(r[0], Err(NeurScError::InvalidQuery { .. })));
    }
}
