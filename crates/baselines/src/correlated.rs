//! Correlated Sampling (CS) — Vengerov et al., VLDB 2015, as adapted for
//! subgraph counting in G-CARE.
//!
//! A deterministic hash maps every data vertex to `[0, 1)`; the sampled
//! subgraph is induced by vertices hashing below `p`. Because the *same*
//! hash drives every query, samples are correlated across join (edge)
//! positions. The count of embeddings inside the sample, scaled by
//! `p^{-|V(q)|}`, is an unbiased estimate; when the sample contains no
//! embedding — the *sampling failure* the paper highlights — the estimate
//! collapses to 0 (an underestimate).

use crate::CountEstimator;
use neursc_graph::induced::induced_subgraph;
use neursc_graph::types::VertexId;
use neursc_graph::Graph;
use neursc_match::count_embeddings;

/// The CS estimator.
#[derive(Debug)]
pub struct CorrelatedSampling {
    /// Vertex sampling probability.
    pub p: f64,
    /// Expansion budget for counting inside the sample (timeout stand-in).
    pub count_budget: u64,
    /// Hash seed (fixed per instance → correlated across queries).
    pub seed: u64,
}

impl Default for CorrelatedSampling {
    fn default() -> Self {
        CorrelatedSampling {
            p: 0.2,
            count_budget: 20_000_000,
            seed: 0x5eed,
        }
    }
}

impl CorrelatedSampling {
    /// Creates the estimator with sampling probability `p`.
    pub fn new(p: f64) -> Self {
        CorrelatedSampling {
            p,
            ..Default::default()
        }
    }

    /// SplitMix64 hash of a vertex id to `[0, 1)`.
    fn hash01(&self, v: VertexId) -> f64 {
        let x = rand::splitmix64((v as u64).wrapping_add(self.seed));
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl CountEstimator for CorrelatedSampling {
    fn name(&self) -> &'static str {
        "CS"
    }

    fn fit(&mut self, _g: &Graph, _train: &[(Graph, u64)]) {}

    fn estimate(&mut self, q: &Graph, g: &Graph) -> Option<f64> {
        let kept: Vec<VertexId> = g.vertices().filter(|&v| self.hash01(v) < self.p).collect();
        if kept.len() < q.n_vertices() {
            return Some(0.0); // sampling failure
        }
        let sample = induced_subgraph(g, &kept);
        let result = count_embeddings(q, &sample.graph, self.count_budget);
        let count = result.exact()?; // budget exhaustion → timeout
        Some(count as f64 * self.p.powi(-(q.n_vertices() as i32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::workload;
    use neursc_match::count_embeddings as exact;

    #[test]
    fn p_one_recovers_exact_counts() {
        let (g, queries) = workload(7, 4, 4);
        let mut est = CorrelatedSampling::new(1.0);
        for (q, c) in &queries {
            assert_eq!(est.estimate(q, &g), Some(*c as f64));
        }
    }

    #[test]
    fn estimates_are_deterministic_per_seed() {
        let (g, queries) = workload(8, 2, 4);
        let mut a = CorrelatedSampling::new(0.3);
        let mut b = CorrelatedSampling::new(0.3);
        for (q, _) in &queries {
            assert_eq!(a.estimate(q, &g), b.estimate(q, &g));
        }
    }

    #[test]
    fn sampling_failure_underestimates_rare_patterns() {
        // A single triangle hidden in a large sparse graph: a 10% sample
        // almost surely misses at least one of its 3 vertices → estimate 0.
        let mut edges = vec![(0u32, 1u32), (1, 2), (0, 2)];
        for i in 3..300u32 {
            edges.push((i, (i + 1) % 300));
        }
        let g = Graph::from_edges(300, &vec![0; 300], &edges).unwrap();
        let tri = Graph::from_edges(3, &[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let truth = exact(&tri, &g, 100_000_000).exact().unwrap();
        assert!(truth >= 6);
        let mut est = CorrelatedSampling::new(0.1);
        let e = est.estimate(&tri, &g).unwrap();
        assert!(
            e < truth as f64,
            "expected underestimate from sampling failure, got {e} vs {truth}"
        );
    }

    #[test]
    fn unbiased_over_seeds_on_dense_pattern() {
        // Average over many hash seeds approximates the truth (Monte Carlo
        // check of unbiasedness).
        let (g, queries) = workload(9, 1, 4);
        let (q, c) = &queries[0];
        let mut sum = 0.0;
        let trials = 300;
        for s in 0..trials {
            let mut est = CorrelatedSampling {
                p: 0.5,
                count_budget: 100_000_000,
                seed: s,
            };
            sum += est.estimate(q, &g).unwrap();
        }
        let avg = sum / trials as f64;
        let truth = *c as f64;
        assert!(
            (avg - truth).abs() / truth < 0.5,
            "Monte Carlo mean {avg} too far from truth {truth}"
        );
    }

    #[test]
    fn tiny_budget_times_out() {
        let (g, queries) = workload(10, 1, 4);
        let mut est = CorrelatedSampling {
            p: 1.0,
            count_budget: 1,
            seed: 0,
        };
        assert_eq!(est.estimate(&queries[0].0, &g), None);
    }
}
