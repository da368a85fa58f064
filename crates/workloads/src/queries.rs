//! Query-set generation (Table 3).
//!
//! Queries are sampled from the data graph by random-walk extraction, with
//! a mixture of edge densities (the paper's query sets mix sparse and
//! dense queries, which is what produces count ranges spanning up to
//! 10¹¹). Each query set is deterministic in `(dataset seed, size, count)`.

use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of one query set `Q_i`.
#[derive(Debug, Clone)]
pub struct QuerySetConfig {
    /// Query size (number of vertices) — Table 3's `Q_4 … Q_32`.
    pub size: usize,
    /// How many queries to generate.
    pub count: usize,
    /// Seed (combine the dataset seed with the size for independence).
    pub seed: u64,
    /// Mixture of edge-keep probabilities (1.0 = induced/dense).
    pub density_mix: Vec<f64>,
}

impl QuerySetConfig {
    /// The default mixture used across the experiments.
    pub fn new(size: usize, count: usize, seed: u64) -> Self {
        QuerySetConfig {
            size,
            count,
            seed,
            density_mix: vec![1.0, 0.6, 0.3],
        }
    }
}

/// Generates `cfg.count` connected query graphs from `g`.
pub fn build_query_set(g: &Graph, cfg: &QuerySetConfig) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (cfg.size as u64).wrapping_mul(0x9e37));
    let mut out = Vec::with_capacity(cfg.count);
    let mut guard = 0usize;
    while out.len() < cfg.count && guard < 50 * cfg.count + 100 {
        guard += 1;
        let keep = cfg.density_mix[rng.gen_range(0..cfg.density_mix.len())];
        let sampler = QuerySampler {
            n_vertices: cfg.size,
            edge_keep_prob: keep,
            max_attempts: 32,
        };
        if let Some(q) = sample_query(g, &sampler, &mut rng) {
            out.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{dataset, DatasetId};
    use neursc_graph::traversal::is_connected;

    #[test]
    fn query_sets_have_requested_shape() {
        let g = dataset(DatasetId::Yeast);
        for size in [4usize, 8, 16] {
            let qs = build_query_set(&g, &QuerySetConfig::new(size, 10, 7));
            assert_eq!(qs.len(), 10);
            for q in &qs {
                assert_eq!(q.n_vertices(), size);
                assert!(is_connected(q));
            }
        }
    }

    #[test]
    fn density_mixture_produces_varied_edge_counts() {
        let g = dataset(DatasetId::Human); // dense → induced queries dense
        let qs = build_query_set(&g, &QuerySetConfig::new(8, 30, 3));
        let min = qs.iter().map(|q| q.n_edges()).min().unwrap();
        let max = qs.iter().map(|q| q.n_edges()).max().unwrap();
        assert!(max > min + 3, "edge counts {min}..{max} not varied");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = dataset(DatasetId::Yeast);
        let a = build_query_set(&g, &QuerySetConfig::new(8, 5, 9));
        let b = build_query_set(&g, &QuerySetConfig::new(8, 5, 9));
        assert_eq!(a, b);
        let c = build_query_set(&g, &QuerySetConfig::new(8, 5, 10));
        assert_ne!(a, c);
    }

    #[test]
    fn labels_are_inherited_from_data_graph() {
        let g = dataset(DatasetId::Wordnet);
        let qs = build_query_set(&g, &QuerySetConfig::new(4, 8, 1));
        for q in &qs {
            assert!(q.labels().iter().all(|&l| (l as usize) < g.n_labels()));
        }
    }
}
