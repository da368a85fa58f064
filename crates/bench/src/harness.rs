//! Workload construction and method evaluation shared by all experiment
//! binaries.

use neursc_baselines::CountEstimator;
use neursc_core::loss::signed_q_error;
use neursc_core::q_error;
use neursc_graph::Graph;
use neursc_workloads::datasets::{dataset, preset, DatasetId};
use neursc_workloads::ground_truth::{label_queries, GroundTruthConfig};
use neursc_workloads::queries::{build_query_set, QuerySetConfig};
use neursc_workloads::split::{take, train_test_split};
use std::time::Instant;

/// Global harness knobs (env-overridable; see crate docs).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Queries per query set.
    pub queries_per_set: usize,
    /// Ground-truth expansion budget.
    pub gt_budget: u64,
    /// NeurSC pre-training epochs for learned methods.
    pub epochs: usize,
    /// Test fraction of the 80/20 split.
    pub test_frac: f64,
    /// Split seed.
    pub seed: u64,
    /// Worker threads for the NeurSC pipeline (`NEURSC_THREADS`, or
    /// `--threads` in binaries that parse it). Results are thread-count
    /// independent; this only changes wall-clock time.
    pub threads: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        fn env_num<T: std::str::FromStr>(key: &str, default: T) -> T {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        HarnessConfig {
            queries_per_set: env_num("NEURSC_QUERIES", 32),
            gt_budget: env_num("NEURSC_GT_BUDGET", 500_000_000u64),
            epochs: env_num("NEURSC_EPOCHS", 12),
            test_frac: 0.2,
            seed: 7,
            threads: env_num("NEURSC_THREADS", 1).max(1),
        }
    }
}

impl HarnessConfig {
    /// Applies `--threads N` from a raw argv slice on top of the
    /// env-derived default.
    pub fn with_cli_threads(mut self, args: &[String]) -> Self {
        if let Some(i) = args.iter().position(|a| a == "--threads") {
            if let Some(t) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                self.threads = t.max(1);
            }
        }
        self
    }
}

/// A dataset with labeled query sets, one per Table 3 size.
pub struct Workload {
    /// Which dataset.
    pub id: DatasetId,
    /// The data graph.
    pub graph: Graph,
    /// `(size, labeled queries)` per query set, Table 3 sizes.
    pub query_sets: Vec<(usize, Vec<(Graph, u64)>)>,
}

/// Builds (and caches ground truth for) the workload of one dataset.
pub fn build_workload(id: DatasetId, cfg: &HarnessConfig) -> Workload {
    build_workload_sizes(id, id.query_sizes(), cfg)
}

/// Workload restricted to specific query sizes.
pub fn build_workload_sizes(id: DatasetId, sizes: &[usize], cfg: &HarnessConfig) -> Workload {
    let graph = dataset(id);
    let p = preset(id);
    let mut query_sets = Vec::new();
    for &size in sizes {
        let qcfg = QuerySetConfig::new(size, cfg.queries_per_set, p.seed);
        let queries = build_query_set(&graph, &qcfg);
        let gt = GroundTruthConfig {
            budget: cfg.gt_budget,
            cache_key: Some(format!(
                "{}_s{}_{}_{}_{}",
                id.name(),
                p.seed,
                size,
                cfg.queries_per_set,
                cfg.gt_budget
            )),
            ..GroundTruthConfig::default()
        };
        let labeled = label_queries(&graph, &queries, &gt);
        query_sets.push((size, labeled));
    }
    Workload {
        id,
        graph,
        query_sets,
    }
}

/// Evaluation outcome of one method on one query set.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method display name.
    pub name: &'static str,
    /// Signed q-errors (negative = underestimate), one per answered query.
    pub signed_q_errors: Vec<f64>,
    /// Unsigned q-errors (≥ 1).
    pub q_errors: Vec<f64>,
    /// Timeouts (`estimate` returned `None`).
    pub timeouts: usize,
    /// Mean per-query wall-clock estimation time in milliseconds.
    pub avg_query_ms: f64,
}

impl MethodResult {
    /// Mean unsigned q-error (`NaN` when everything timed out).
    pub fn mean_q_error(&self) -> f64 {
        if self.q_errors.is_empty() {
            f64::NAN
        } else {
            self.q_errors.iter().sum::<f64>() / self.q_errors.len() as f64
        }
    }
}

/// Runs `estimator` over a labeled test set.
pub fn evaluate(
    estimator: &mut dyn CountEstimator,
    g: &Graph,
    test: &[(Graph, u64)],
) -> MethodResult {
    let mut signed = Vec::with_capacity(test.len());
    let mut unsigned = Vec::with_capacity(test.len());
    let mut timeouts = 0usize;
    let start = Instant::now();
    for (q, c) in test {
        match estimator.estimate(q, g) {
            Some(e) => {
                signed.push(signed_q_error(e, *c as f64));
                unsigned.push(q_error(e, *c as f64));
            }
            None => timeouts += 1,
        }
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    MethodResult {
        name: estimator.name(),
        signed_q_errors: signed,
        q_errors: unsigned,
        timeouts,
        avg_query_ms: elapsed_ms / test.len().max(1) as f64,
    }
}

/// Fits on an 80/20 split and evaluates on the held-out 20% — the paper's
/// protocol (§6.1). Returns `(result, test set)`.
pub fn fit_and_evaluate(
    estimator: &mut dyn CountEstimator,
    g: &Graph,
    labeled: &[(Graph, u64)],
    cfg: &HarnessConfig,
) -> (MethodResult, Vec<(Graph, u64)>) {
    let (train_idx, test_idx) = train_test_split(labeled.len(), cfg.test_frac, cfg.seed);
    let train = take(labeled, &train_idx);
    let test = take(labeled, &test_idx);
    estimator.fit(g, &train);
    (evaluate(estimator, g, &test), test)
}

/// 5-fold cross validation (the paper's protocol for whole-query-set
/// numbers, §6.1): fresh estimators from `make`, one per fold; returns the
/// pooled per-query results over all held-out folds.
pub fn evaluate_kfold(
    make: &mut dyn FnMut() -> Box<dyn CountEstimator>,
    g: &Graph,
    labeled: &[(Graph, u64)],
    k: usize,
    seed: u64,
) -> MethodResult {
    let folds = neursc_workloads::split::kfold(labeled.len(), k, seed);
    let mut pooled: Option<MethodResult> = None;
    for (train_idx, test_idx) in folds {
        let mut est = make();
        let train = take(labeled, &train_idx);
        let test = take(labeled, &test_idx);
        est.fit(g, &train);
        let r = evaluate(est.as_mut(), g, &test);
        pooled = Some(match pooled {
            None => r,
            Some(mut acc) => {
                let n_new = r.q_errors.len() as f64;
                acc.signed_q_errors.extend(r.signed_q_errors);
                acc.q_errors.extend(r.q_errors);
                acc.timeouts += r.timeouts;
                // Weighted running mean of per-query time.
                let n_acc = acc.q_errors.len().max(1) as f64;
                acc.avg_query_ms =
                    (acc.avg_query_ms * (n_acc - n_new) + r.avg_query_ms * n_new) / n_acc;
                acc
            }
        });
    }
    pooled.expect("k ≥ 2 folds")
}

/// Prints a consistent experiment header.
pub fn header(title: &str, workload: &Workload) {
    println!("=== {title} ===");
    println!(
        "dataset {}: |V|={} |E|={} |L|={} d̄={:.1}",
        workload.id.name(),
        workload.graph.n_vertices(),
        workload.graph.n_edges(),
        neursc_graph::properties::stats(&workload.graph).n_labels,
        workload.graph.avg_degree()
    );
    for (size, labeled) in &workload.query_sets {
        println!("  Q{size}: {} solvable queries", labeled.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_baselines::cset::CharacteristicSets;

    fn tiny_cfg() -> HarnessConfig {
        HarnessConfig {
            queries_per_set: 6,
            gt_budget: 100_000_000,
            epochs: 2,
            test_frac: 0.34,
            seed: 1,
            threads: 1,
        }
    }

    #[test]
    fn workload_builds_labeled_sets() {
        let w = build_workload_sizes(DatasetId::Yeast, &[4], &tiny_cfg());
        assert_eq!(w.query_sets.len(), 1);
        let (size, labeled) = &w.query_sets[0];
        assert_eq!(*size, 4);
        assert!(!labeled.is_empty());
        for (q, _) in labeled {
            assert_eq!(q.n_vertices(), 4);
        }
    }

    #[test]
    fn evaluate_collects_qerrors_and_time() {
        let w = build_workload_sizes(DatasetId::Yeast, &[4], &tiny_cfg());
        let (_, labeled) = &w.query_sets[0];
        let mut est = CharacteristicSets::new();
        est.fit(&w.graph, &[]);
        let r = evaluate(&mut est, &w.graph, labeled);
        assert_eq!(r.q_errors.len() + r.timeouts, labeled.len());
        assert!(r.q_errors.iter().all(|&e| e >= 1.0));
        assert!(r.avg_query_ms >= 0.0);
        assert!(r.mean_q_error() >= 1.0);
    }

    #[test]
    fn fit_and_evaluate_uses_holdout() {
        let w = build_workload_sizes(DatasetId::Yeast, &[4], &tiny_cfg());
        let (_, labeled) = &w.query_sets[0];
        let mut est = CharacteristicSets::new();
        let (r, test) = fit_and_evaluate(&mut est, &w.graph, labeled, &tiny_cfg());
        assert_eq!(r.q_errors.len() + r.timeouts, test.len());
        assert!(test.len() < labeled.len());
    }
}

#[cfg(test)]
mod kfold_tests {
    use super::*;
    use neursc_baselines::cset::CharacteristicSets;

    #[test]
    fn kfold_pools_every_query_exactly_once() {
        let cfg = HarnessConfig {
            queries_per_set: 10,
            gt_budget: 100_000_000,
            epochs: 1,
            test_frac: 0.2,
            seed: 2,
            threads: 1,
        };
        let w = build_workload_sizes(DatasetId::Yeast, &[4], &cfg);
        let (_, labeled) = &w.query_sets[0];
        let mut make = || -> Box<dyn CountEstimator> { Box::new(CharacteristicSets::new()) };
        let r = evaluate_kfold(&mut make, &w.graph, labeled, 5, 3);
        assert_eq!(r.q_errors.len() + r.timeouts, labeled.len());
    }
}
