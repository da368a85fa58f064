//! `neursc-sample` — a filtering–sampling cardinality estimator backend.
//!
//! A model-free alternative to WEst in the style of FaSTest (Shin & Song,
//! arXiv:2309.15433): run the *same* GraphQL candidate filtering stage as
//! the neural pipeline ([`neursc_core::filter_stage`]), then estimate the
//! count by drawing partial embeddings **from the filtered candidate sets** and
//! scaling each completed draw by the inverse of its sampling probability
//! (Horvitz–Thompson). Because filtering is complete — no true match is
//! ever dropped, even under a degraded refinement budget — the estimator
//! is unbiased for the exact embedding count, and the per-trial weights
//! give a variance-derived confidence interval for free.
//!
//! ## Sampling math
//!
//! Fix the matching order `u_1, …, u_k` ([`neursc_match::ordering::build_order`]:
//! smallest candidate set first, connected extensions). One trial walks
//! the order, at each position building the *choice pool*: candidates of
//! `u_i` (from the filtered `CS(u_i)`) that are adjacent to every
//! already-mapped backward neighbor and not already used (injectivity).
//! It picks uniformly from the pool and multiplies the trial weight by the
//! pool size. An empty pool aborts the trial with weight 0; a completed
//! walk *is* a valid embedding, drawn with probability `∏ 1/|pool_i|`, so
//! its weight `W = ∏ |pool_i|` satisfies `E[W] = c(q, G)` exactly — each
//! embedding contributes `P(drawn) · ∏|pool_i| = 1`. The estimate is the
//! mean weight over `n` trials; the reported interval is the normal
//! approximation `mean ± z·√(s²/n)` with the low end clamped at 0
//! ([`neursc_core::ConfidenceInterval`]). When no walk completes the
//! estimate is 0 and that interval would be `[0, 0]`; its upper end is
//! then `(1 − (1 − confidence)^(1/n)) · ∏_u |CS(u)|` instead — the exact
//! one-sided binomial bound on the success rate times the largest weight a
//! completed walk can carry.
//!
//! ## Determinism, budgets, faults
//!
//! Trials are seeded from [`SampleConfig::seed`] in fixed-size chunks
//! whose seeds depend only on the chunk index, and chunk statistics are
//! reduced in index order — estimates are **bit-identical at any thread
//! count**, like every other backend. Budgets ride the PR-2 ladder via the
//! shared filtering budget: local-pruning exhaustion is a typed
//! [`NeurScError::Budget`](neursc_core::NeurScError); refinement
//! exhaustion degrades (looser, still-complete sets — still unbiased,
//! higher variance); leftover steps after filtering cap the trial count at
//! one step per query vertex per trial, reducing trials (`degraded: true`)
//! or, at zero affordable trials, failing typed like a starved WEst run.
//! Fault injection, per-item batch isolation and observability come from
//! the shared [`neursc_core::Estimator`] provided methods.
//!
//! ```
//! use neursc_core::{Estimator, GraphContext};
//! use neursc_graph::generate::erdos_renyi;
//! use neursc_graph::Graph;
//! use neursc_sample::{SampleConfig, SampleEstimator};
//!
//! let g = erdos_renyi(60, 150, 3, 1);
//! let q = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
//! let est = SampleEstimator::new(SampleConfig::default());
//! assert_eq!(est.name(), "sample");
//!
//! let d = est.estimate_detailed_with(&q, &g, &GraphContext::new()).unwrap();
//! let ci = d.ci.expect("sampling always reports an interval");
//! assert!(ci.low <= d.count && d.count <= ci.high);
//! assert_eq!(ci.confidence, 0.95);
//!
//! // Bit-deterministic: same config, same estimate.
//! let again = est.estimate_detailed_with(&q, &g, &GraphContext::new()).unwrap();
//! assert_eq!(d, again);
//! ```

use neursc_core::estimator::{ConfidenceInterval, Estimator};
use neursc_core::obs::{PipelineReport, Span};
use neursc_core::parallel::parallel_map_indexed;
use neursc_core::{
    filter_stage, validate_query, EstimateDetail, GraphContext, NeurScConfig, NeurScError,
    ResourceBudget,
};
use neursc_graph::types::VertexId;
use neursc_graph::Graph;
use neursc_match::ordering::{build_order, MatchingOrder};
use neursc_match::{CandidateSets, FilterBudget, FilterConfig};
use rand::rngs::StdRng;
use rand::{splitmix64, SeedableRng};

/// Trials per chunk: the unit of parallel fan-out *and* of seeding, so the
/// trial→random-stream mapping is independent of the thread count.
const CHUNK: usize = 64;

/// Configuration of the filtering–sampling backend.
///
/// ```
/// use neursc_sample::SampleConfig;
/// let cfg = SampleConfig::default();
/// assert_eq!(cfg.trials, 2048);
/// assert_eq!(cfg.confidence, 0.95);
/// ```
#[derive(Debug, Clone)]
pub struct SampleConfig {
    /// Horvitz–Thompson trials per connected component. More trials shrink
    /// the interval at linear cost; budgets may reduce the effective count.
    pub trials: usize,
    /// RNG seed. Fixed seed ⇒ bit-identical estimates at any thread count.
    pub seed: u64,
    /// Nominal coverage of the reported interval (e.g. `0.95`).
    pub confidence: f64,
    /// Candidate-filtering settings — use the same values as the WEst
    /// backend so both see identical candidate sets (and agree on
    /// `trivially_zero`).
    pub filter: FilterConfig,
    /// Per-query resource budgets (same ladder as WEst).
    pub budget: ResourceBudget,
    /// Batch fan-out threads (results are thread-count invariant).
    pub threads: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            trials: 2048,
            seed: 0,
            confidence: 0.95,
            filter: FilterConfig::default(),
            budget: ResourceBudget::default(),
            threads: 1,
        }
    }
}

impl SampleConfig {
    /// Derives a sampling config that shares a [`NeurScConfig`]'s filter
    /// settings, budgets, thread count and seed — the construction the serve
    /// router uses, so routed backends agree on candidate sets, budget
    /// semantics and thread count.
    pub fn from_model_config(cfg: &NeurScConfig) -> Self {
        SampleConfig {
            filter: cfg.filter,
            budget: cfg.budget,
            threads: cfg.threads,
            seed: cfg.seed,
            ..SampleConfig::default()
        }
    }

    /// Sets the trial count.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Two-sided standard-normal quantile for the common confidence levels;
/// intermediate values round to the nearest supported level.
fn z_value(confidence: f64) -> f64 {
    if confidence >= 0.995 {
        2.807_034
    } else if confidence >= 0.99 {
        2.575_829
    } else if confidence >= 0.95 {
        1.959_964
    } else if confidence >= 0.90 {
        1.644_854
    } else {
        1.281_552 // 0.80
    }
}

/// Upper end of the interval when none of `trials` walks completed, which
/// the normal approximation would report as `[0, 0]`. With success
/// probability `p`, `(1 − p)^n ≥ 1 − confidence` bounds `p` by `1 −
/// (1 − confidence)^(1/n)` — the exact one-sided binomial bound at zero
/// successes — and a completed walk weighs `∏ |pool_i| ≤ ∏_u |CS(u)|`, so
/// `c(q, G) = E[W]` is at most their product.
fn zero_success_high(candidates: &CandidateSets, trials: usize, confidence: f64) -> f64 {
    let p = 1.0 - (1.0 - confidence).powf(1.0 / trials as f64);
    let max_weight: f64 = candidates.sets.iter().map(|s| s.len() as f64).product();
    p * max_weight
}

/// The filtering–sampling estimator. Stateless between queries (no
/// training); see the [crate docs](self) for the math and guarantees.
pub struct SampleEstimator {
    /// Sampling and filtering configuration.
    pub config: SampleConfig,
}

impl SampleEstimator {
    /// Constructs the estimator.
    pub fn new(config: SampleConfig) -> Self {
        SampleEstimator { config }
    }

    /// One Horvitz–Thompson trial along `order`; returns the trial weight
    /// (`∏ |pool_i|` for a completed walk, 0 for a dead end).
    fn one_walk(
        &self,
        g: &Graph,
        cs: &CandidateSets,
        order: &MatchingOrder,
        rng: &mut StdRng,
        mapped: &mut Vec<VertexId>,
        pool: &mut Vec<VertexId>,
    ) -> f64 {
        mapped.clear();
        let mut weight = 1.0f64;
        for i in 0..order.order.len() {
            let u = order.order[i];
            pool.clear();
            'cand: for &v in cs.get(u) {
                if mapped.contains(&v) {
                    continue; // injectivity
                }
                for &j in &order.backward[i] {
                    if !g.has_edge(v, mapped[j]) {
                        continue 'cand;
                    }
                }
                pool.push(v);
            }
            if pool.is_empty() {
                return 0.0;
            }
            weight *= pool.len() as f64;
            let pick = pool[rng.gen_range(0..pool.len())];
            mapped.push(pick);
        }
        weight
    }
}

impl Estimator for SampleEstimator {
    fn name(&self) -> &'static str {
        "sample"
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn validate(&self, q: &Graph) -> Result<(), NeurScError> {
        validate_query(q, &self.config.budget)
    }

    fn warm(&self, g: &Graph, ctx: &GraphContext) {
        let _ = ctx.profiles_for(g, self.config.filter.profile_radius);
    }

    fn estimate_component(
        &self,
        q: &Graph,
        g: &Graph,
        ctx: &GraphContext,
        budget: Option<FilterBudget>,
        threads: usize,
        _sub_lanes: bool,
    ) -> Result<EstimateDetail, NeurScError> {
        let fb = budget.unwrap_or_else(|| self.config.budget.filter_budget());
        let (fo, report) = filter_stage(q, g, &self.config.filter, ctx, &fb)?;
        self.sample_filtered(
            q,
            g,
            fo.candidates,
            fo.degraded,
            fb,
            fo.steps,
            threads,
            report,
        )
    }
}

impl SampleEstimator {
    /// The post-filtering half of [`Estimator::estimate_component`]:
    /// Horvitz–Thompson sampling from already-filtered candidate sets
    /// against the data graph `g`.
    #[allow(clippy::too_many_arguments)]
    fn sample_filtered(
        &self,
        q: &Graph,
        g: &Graph,
        candidates: CandidateSets,
        filter_degraded: bool,
        fb: FilterBudget,
        filter_steps: u64,
        threads: usize,
        report: PipelineReport,
    ) -> Result<EstimateDetail, NeurScError> {
        if candidates.is_trivially_zero() {
            return Ok(EstimateDetail {
                count: 0.0,
                n_substructures: 0,
                trivially_zero: true,
                degraded: filter_degraded,
                ci: Some(ConfidenceInterval {
                    low: 0.0,
                    high: 0.0,
                    confidence: self.config.confidence,
                }),
                report,
            });
        }

        // Leftover filtering budget caps the trial count: one step per
        // query vertex per trial (a trial touches at most |V(q)| pools).
        let mut trials = self.config.trials.max(1);
        let mut degraded = filter_degraded;
        if fb.max_steps != u64::MAX {
            let remaining = fb.max_steps.saturating_sub(filter_steps);
            let per_trial = (q.n_vertices() as u64).max(1);
            let affordable = (remaining / per_trial).min(usize::MAX as u64) as usize;
            if affordable < trials {
                trials = affordable;
                degraded = true;
            }
        }
        if trials == 0 {
            return Err(NeurScError::Budget {
                detail: format!(
                    "sampling budget exhausted: 0 of {} trials affordable after \
                     filtering spent {} steps",
                    self.config.trials, filter_steps
                ),
            });
        }

        let order = build_order(q, &candidates);
        let _sp = Span::enter("sample.walks");
        let n_chunks = trials.div_ceil(CHUNK);
        // Chunk seeds depend only on (config seed, chunk index); chunk
        // statistics are reduced in index order — thread-count invariant.
        // The chunk index is mixed *before* combining with the seed:
        // `seed ^ c` alone maps small seeds onto permutations of the same
        // chunk-seed set, which cancels the seed out of the total sum.
        let stats = parallel_map_indexed(n_chunks, threads, |c| {
            let mut rng =
                StdRng::seed_from_u64(splitmix64(self.config.seed ^ splitmix64(c as u64)));
            let lo = c * CHUNK;
            let hi = (lo + CHUNK).min(trials);
            let mut sum = 0.0f64;
            let mut sum_sq = 0.0f64;
            let mut mapped = Vec::with_capacity(order.order.len());
            let mut pool = Vec::new();
            for _ in lo..hi {
                let w = self.one_walk(g, &candidates, &order, &mut rng, &mut mapped, &mut pool);
                sum += w;
                sum_sq += w * w;
            }
            (sum, sum_sq)
        });
        let (sum, sum_sq) = stats
            .iter()
            .fold((0.0f64, 0.0f64), |(a, b), &(s, ss)| (a + s, b + ss));
        let n = trials as f64;
        let mean = sum / n;
        let var = if trials > 1 {
            (sum_sq - n * mean * mean).max(0.0) / (n - 1.0)
        } else {
            0.0
        };
        let se = (var / n).sqrt();
        let z = z_value(self.config.confidence);
        let high = if sum == 0.0 {
            zero_success_high(&candidates, trials, self.config.confidence)
        } else {
            mean + z * se
        };
        Ok(EstimateDetail {
            count: mean,
            n_substructures: 0,
            trivially_zero: false,
            degraded,
            ci: Some(ConfidenceInterval {
                low: (mean - z * se).max(0.0),
                high,
                confidence: self.config.confidence,
            }),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_graph::generate::erdos_renyi;
    use neursc_match::count_embeddings;

    fn path_query(labels: &[u32]) -> Graph {
        let edges: Vec<(u32, u32)> = (1..labels.len() as u32).map(|i| (i - 1, i)).collect();
        Graph::from_edges(labels.len(), labels, &edges).unwrap()
    }

    #[test]
    fn estimate_is_unbiased_enough_to_land_near_exact() {
        let g = erdos_renyi(80, 240, 3, 5);
        let q = path_query(&[0, 1, 2]);
        let exact = count_embeddings(&q, &g, 50_000_000).exact().unwrap() as f64;
        let est = SampleEstimator::new(SampleConfig::default().with_seed(5));
        let d = est.estimate_detailed(&q, &g).unwrap();
        assert!(d.count > 0.0);
        let rel = (d.count - exact).abs() / exact.max(1.0);
        assert!(
            rel < 0.5,
            "estimate {} vs exact {exact} (rel {rel})",
            d.count
        );
        // A single-seed 95% CI misses ~1 run in 20 by design; assert the
        // 3-sigma envelope instead (the oracle checks coverage *rates*).
        let ci = d.ci.unwrap();
        let half = (ci.high - ci.low) / 2.0;
        let sigma3 = half * 3.0 / z_value(ci.confidence);
        assert!(
            (d.count - exact).abs() <= sigma3,
            "estimate {} more than 3 sigma ({sigma3}) from {exact}",
            d.count
        );
    }

    #[test]
    fn exact_zero_count_estimates_exactly_zero() {
        // Completed walks are real embeddings, so count 0 ⇒ every trial
        // fails ⇒ the estimate is exactly 0, never merely small.
        let g = erdos_renyi(40, 60, 2, 6);
        // A triangle with labels that co-occur nowhere adjacent enough.
        let q = Graph::from_edges(3, &[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let exact = count_embeddings(&q, &g, 50_000_000).exact().unwrap();
        let est = SampleEstimator::new(SampleConfig::default());
        let d = est.estimate_detailed(&q, &g).unwrap();
        if exact == 0 {
            assert_eq!(d.count, 0.0);
        } else {
            assert!(d.count >= 0.0);
        }
    }

    #[test]
    fn zero_successes_bound_the_count_by_the_largest_weight() {
        // A triangle against a 4-cycle: every vertex survives filtering
        // (same label, degree 2), no triangle exists, every walk dead-ends.
        let c4 = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let q = Graph::from_edges(3, &[0; 3], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        for trials in [1, 100, 2048] {
            let est = SampleEstimator::new(SampleConfig::default().with_trials(trials));
            let d = est.estimate_detailed(&q, &c4).unwrap();
            assert!(!d.trivially_zero);
            assert_eq!(d.count, 0.0);
            let ci = d.ci.unwrap();
            let p = 1.0 - 0.05f64.powf(1.0 / trials as f64);
            assert_eq!((ci.low, ci.high), (0.0, p * 4.0 * 4.0 * 4.0));
        }
    }

    #[test]
    fn single_vertex_query_is_exact_with_zero_width_interval() {
        let g = erdos_renyi(50, 120, 3, 7);
        let q = Graph::from_edges(1, &[1], &[]).unwrap();
        let exact = g.vertices().filter(|&v| g.label(v) == 1).count() as f64;
        let est = SampleEstimator::new(SampleConfig::default());
        let d = est.estimate_detailed(&q, &g).unwrap();
        assert_eq!(d.count, exact);
        let ci = d.ci.unwrap();
        assert_eq!(ci.low, exact);
        assert_eq!(ci.high, exact);
    }

    #[test]
    fn absent_label_is_trivially_zero_with_zero_interval() {
        let g = erdos_renyi(40, 90, 2, 8);
        let q = Graph::from_edges(2, &[0, 99], &[(0, 1)]).unwrap();
        let est = SampleEstimator::new(SampleConfig::default());
        let d = est.estimate_detailed(&q, &g).unwrap();
        assert_eq!(d.count, 0.0);
        assert!(d.trivially_zero);
        assert_eq!(
            d.ci.unwrap(),
            ConfidenceInterval {
                low: 0.0,
                high: 0.0,
                confidence: 0.95
            }
        );
    }

    #[test]
    fn disconnected_query_is_component_product_with_ci() {
        let g = erdos_renyi(60, 150, 3, 9);
        let q = Graph::from_edges(4, &[0, 1, 2, 0], &[(0, 1), (2, 3)]).unwrap();
        let est = SampleEstimator::new(SampleConfig::default());
        let d = est.estimate_detailed(&q, &g).unwrap();
        let e1 = est
            .estimate_detailed(&Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap(), &g)
            .unwrap();
        let e2 = est
            .estimate_detailed(&Graph::from_edges(2, &[2, 0], &[(0, 1)]).unwrap(), &g)
            .unwrap();
        assert!((d.count - e1.count * e2.count).abs() <= 1e-9 * (e1.count * e2.count).max(1.0));
        let (ci, c1, c2) = (d.ci.unwrap(), e1.ci.unwrap(), e2.ci.unwrap());
        assert_eq!(ci.low, c1.low * c2.low);
        assert_eq!(ci.high, c1.high * c2.high);
    }

    #[test]
    fn empty_query_is_typed_invalid() {
        let g = erdos_renyi(20, 40, 2, 0);
        let est = SampleEstimator::new(SampleConfig::default());
        let q = Graph::from_edges(0, &[], &[]).unwrap();
        assert!(matches!(
            est.estimate_detailed(&q, &g),
            Err(NeurScError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn oversized_query_is_typed_budget() {
        let g = erdos_renyi(40, 90, 2, 11);
        let mut cfg = SampleConfig::default();
        cfg.budget.max_query_vertices = Some(3);
        let est = SampleEstimator::new(cfg);
        let q = path_query(&[0, 1, 0, 1]);
        assert!(matches!(
            est.estimate_detailed(&q, &g),
            Err(NeurScError::Budget { .. })
        ));
    }

    #[test]
    fn z_values_are_monotone_in_confidence() {
        assert!(z_value(0.80) < z_value(0.90));
        assert!(z_value(0.90) < z_value(0.95));
        assert!(z_value(0.95) < z_value(0.99));
        assert!(z_value(0.99) < z_value(0.995));
    }
}
