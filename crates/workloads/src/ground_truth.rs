//! Exact ground-truth labeling with a deterministic budget and a disk
//! cache.
//!
//! The paper selects "query graphs whose ground-truth counts can be
//! computed within 30 minutes"; here the cutoff is a deterministic
//! expansion budget per query, and queries exceeding it are dropped from
//! the workload, producing the same "solvable queries only" selection.
//! Counting runs in parallel across queries on
//! `neursc_core::parallel::parallel_map_indexed`; results are cached on
//! disk (CSV, one line per query) because graph and query generation are
//! deterministic in their seeds.

use neursc_core::parallel::parallel_map_indexed;
use neursc_graph::Graph;
use neursc_match::count_embeddings;
use std::path::PathBuf;

/// Ground-truth generation settings.
#[derive(Debug, Clone)]
pub struct GroundTruthConfig {
    /// Expansion budget per query (the 30-minute-cutoff stand-in).
    pub budget: u64,
    /// Worker threads.
    pub threads: usize,
    /// Cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// Cache key (must uniquely identify `(data graph, query set)`).
    pub cache_key: Option<String>,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        GroundTruthConfig {
            budget: 2_000_000_000,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            cache_dir: Some(default_cache_dir()),
            cache_key: None,
        }
    }
}

/// The default cache directory: `$NEURSC_CACHE` or `target/neursc-cache`.
fn default_cache_dir() -> PathBuf {
    std::env::var_os("NEURSC_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/neursc-cache"))
}

/// Labels `queries` with exact counts; over-budget queries are dropped.
/// Returns `(query, count)` pairs in the original order.
pub fn label_queries(g: &Graph, queries: &[Graph], cfg: &GroundTruthConfig) -> Vec<(Graph, u64)> {
    let counts = count_all(g, queries, cfg);
    queries
        .iter()
        .zip(counts)
        .filter_map(|(q, c)| c.map(|c| (q.clone(), c)))
        .collect()
}

/// Counts every query (`None` = budget exceeded), using the cache if
/// configured.
pub fn count_all(g: &Graph, queries: &[Graph], cfg: &GroundTruthConfig) -> Vec<Option<u64>> {
    if let Some(path) = cache_path(cfg, queries.len()) {
        if let Some(cached) = read_cache(&path, queries.len()) {
            return cached;
        }
    }
    let results = parallel_map_indexed(queries.len(), cfg.threads, |i| {
        count_embeddings(&queries[i], g, cfg.budget).exact()
    });
    if let Some(path) = cache_path(cfg, queries.len()) {
        write_cache(&path, &results);
    }
    results
}

fn cache_path(cfg: &GroundTruthConfig, n: usize) -> Option<PathBuf> {
    let dir = cfg.cache_dir.as_ref()?;
    let key = cfg.cache_key.as_ref()?;
    Some(dir.join(format!("gt_{key}_{n}.csv")))
}

fn read_cache(path: &PathBuf, expected: usize) -> Option<Vec<Option<u64>>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::with_capacity(expected);
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(if line == "-" {
            None
        } else {
            Some(line.parse().ok()?)
        });
    }
    (out.len() == expected).then_some(out)
}

fn write_cache(path: &PathBuf, results: &[Option<u64>]) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let mut text = String::new();
    for r in results {
        match r {
            Some(c) => text.push_str(&c.to_string()),
            None => text.push('-'),
        }
        text.push('\n');
    }
    let _ = std::fs::write(path, text);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{dataset, DatasetId};
    use crate::queries::{build_query_set, QuerySetConfig};
    use neursc_match::enumerate::brute_force_count;

    fn no_cache(budget: u64) -> GroundTruthConfig {
        GroundTruthConfig {
            budget,
            threads: 4,
            cache_dir: None,
            cache_key: None,
        }
    }

    #[test]
    fn parallel_counts_match_serial_brute_force() {
        let g = neursc_graph::generate::erdos_renyi(30, 80, 3, 5);
        let queries = build_query_set(&g, &QuerySetConfig::new(4, 6, 2));
        let counts = count_all(&g, &queries, &no_cache(100_000_000));
        for (q, c) in queries.iter().zip(&counts) {
            assert_eq!(c.unwrap(), brute_force_count(q, &g));
        }
    }

    #[test]
    fn over_budget_queries_are_dropped() {
        let g = dataset(DatasetId::Yeast);
        let cfg = QuerySetConfig {
            density_mix: vec![1.0], // induced → at least one match each
            ..QuerySetConfig::new(8, 4, 3)
        };
        let queries = build_query_set(&g, &cfg);
        // Budget 0: the very first candidate expansion exceeds it, so every
        // non-trivial query must be dropped.
        let labeled = label_queries(&g, &queries, &no_cache(0));
        assert!(
            labeled.is_empty(),
            "kept {} of {}",
            labeled.len(),
            queries.len()
        );
    }

    #[test]
    fn budget_exhaustion_is_reported_as_none_never_as_a_partial_count() {
        // A budget that starves the most expensive query but admits the
        // cheapest: exhausted slots must come back `None` (the partial
        // lower bound found so far is NOT an exact count), solvable slots
        // must still match brute force, and `label_queries` must drop
        // exactly the starved ones while keeping the original order.
        let g = neursc_graph::generate::erdos_renyi(40, 140, 2, 9);
        let queries = build_query_set(&g, &QuerySetConfig::new(5, 6, 11));
        let costs: Vec<u64> = queries
            .iter()
            .map(|q| count_embeddings(q, &g, u64::MAX).expansions)
            .collect();
        let lo = *costs.iter().min().unwrap();
        let hi = *costs.iter().max().unwrap();
        assert!(lo < hi, "need a cost spread to split the budget");
        let budget = hi - 1; // starves the max-cost query, admits the min

        let counts = count_all(&g, &queries, &no_cache(budget));
        let mut starved = 0;
        for ((q, c), cost) in queries.iter().zip(&counts).zip(&costs) {
            if *cost <= budget {
                assert_eq!(c.unwrap(), brute_force_count(q, &g));
            } else {
                starved += 1;
                assert!(c.is_none(), "partial count leaked as exact");
                // The raw result indeed holds a partial lower bound, and
                // `exact()` refuses to surface it.
                let partial = count_embeddings(q, &g, budget);
                assert!(partial.exact().is_none());
                assert!(partial.count <= brute_force_count(q, &g));
            }
        }
        assert!(starved >= 1);

        let labeled = label_queries(&g, &queries, &no_cache(budget));
        assert_eq!(labeled.len(), queries.len() - starved);
        // Order of the survivors matches the input order.
        let survivor_counts: Vec<u64> = counts.iter().filter_map(|c| *c).collect();
        let labeled_counts: Vec<u64> = labeled.iter().map(|(_, c)| *c).collect();
        assert_eq!(survivor_counts, labeled_counts);
    }

    #[test]
    fn sampled_queries_have_positive_counts() {
        // Induced random-walk queries always occur at least once.
        let g = dataset(DatasetId::Yeast);
        let cfg = QuerySetConfig {
            density_mix: vec![1.0],
            ..QuerySetConfig::new(4, 6, 4)
        };
        let queries = build_query_set(&g, &cfg);
        let labeled = label_queries(&g, &queries, &no_cache(2_000_000_000));
        for (_, c) in &labeled {
            assert!(*c >= 1);
        }
    }

    #[test]
    fn cache_roundtrip() {
        let g = neursc_graph::generate::erdos_renyi(30, 80, 3, 6);
        let queries = build_query_set(&g, &QuerySetConfig::new(4, 5, 8));
        let dir = std::env::temp_dir().join("neursc_gt_cache_test");
        let cfg = GroundTruthConfig {
            budget: 100_000_000,
            threads: 2,
            cache_dir: Some(dir.clone()),
            cache_key: Some("unit".into()),
        };
        let first = count_all(&g, &queries, &cfg);
        let second = count_all(&g, &queries, &cfg); // served from cache
        assert_eq!(first, second);
        std::fs::remove_file(dir.join("gt_unit_5.csv")).ok();
    }

    #[test]
    fn cache_miss_on_length_mismatch() {
        let dir = std::env::temp_dir().join("neursc_gt_cache_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gt_k_3.csv");
        std::fs::write(&path, "1\n2\n").unwrap(); // only 2 of 3
        assert!(read_cache(&path, 3).is_none());
        std::fs::remove_file(&path).ok();
    }
}

/// Counting semantics for ground-truth generation (paper §2.2: NeurSC
/// "can naturally handle the subgraph homomorphism counting").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// Injective subgraph-isomorphism embeddings (the paper's focus).
    #[default]
    Isomorphism,
    /// Label/edge-preserving homomorphisms (folding allowed).
    Homomorphism,
}

/// Labels `queries` with exact counts under the chosen semantics; no
/// caching (homomorphism workloads are small).
pub fn label_queries_with_semantics(
    g: &Graph,
    queries: &[Graph],
    budget: u64,
    semantics: Semantics,
) -> Vec<(Graph, u64)> {
    queries
        .iter()
        .filter_map(|q| {
            let r = match semantics {
                Semantics::Isomorphism => count_embeddings(q, g, budget),
                Semantics::Homomorphism => {
                    neursc_match::homomorphism::count_homomorphisms(q, g, budget)
                }
            };
            r.exact().map(|c| (q.clone(), c))
        })
        .collect()
}

#[cfg(test)]
mod semantics_tests {
    use super::*;
    use crate::queries::{build_query_set, QuerySetConfig};

    #[test]
    fn homomorphism_counts_dominate_isomorphism_counts() {
        let g = neursc_graph::generate::erdos_renyi(40, 120, 3, 12);
        let queries = build_query_set(&g, &QuerySetConfig::new(4, 5, 13));
        let iso = label_queries_with_semantics(&g, &queries, 100_000_000, Semantics::Isomorphism);
        let hom = label_queries_with_semantics(&g, &queries, 100_000_000, Semantics::Homomorphism);
        assert_eq!(iso.len(), hom.len());
        for ((_, ci), (_, ch)) in iso.iter().zip(&hom) {
            assert!(ch >= ci, "hom {ch} < iso {ci}");
        }
    }

    #[test]
    fn default_semantics_is_isomorphism() {
        assert_eq!(Semantics::default(), Semantics::Isomorphism);
    }
}
