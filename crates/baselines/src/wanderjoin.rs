//! WanderJoin (WJ) — Li, Wu, Yi & Zhao, SIGMOD 2016 — online aggregation
//! by random walks, adapted to subgraph counting as in G-CARE.
//!
//! One trial samples an embedding along a fixed (connected) query vertex
//! order: the first vertex is drawn uniformly from the label-matching data
//! vertices, each next vertex uniformly from the neighbors of one
//! already-matched neighbor, then checked against the remaining adjacency
//! and injectivity constraints. A successful trial contributes the inverse
//! of its sampling probability (Horvitz–Thompson); a failed one
//! contributes 0 — so workloads where walks rarely complete are
//! *underestimated*, the paper's "sampling failure".

use crate::CountEstimator;
use neursc_graph::types::{Label, VertexId};
use neursc_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The WJ estimator.
#[derive(Debug)]
pub struct WanderJoin {
    /// Number of random-walk trials per query.
    pub trials: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WanderJoin {
    fn default() -> Self {
        WanderJoin {
            trials: 3000,
            seed: 0x77a17,
        }
    }
}

impl WanderJoin {
    /// Creates the estimator with the given trial count.
    pub fn new(trials: u32) -> Self {
        WanderJoin {
            trials,
            ..Default::default()
        }
    }
}

/// Connected query-vertex order: start at vertex 0's component, always
/// extend with a vertex adjacent to the prefix (queries are connected in
/// the paper's workloads; stragglers are appended for robustness).
pub(crate) fn walk_order(q: &Graph) -> (Vec<VertexId>, Vec<Vec<usize>>) {
    let n = q.n_vertices();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let next = q
            .vertices()
            .filter(|&u| !placed[u as usize])
            .find(|&u| q.neighbors(u).iter().any(|&w| placed[w as usize]))
            .or_else(|| q.vertices().find(|&u| !placed[u as usize]))
            .expect("vertex remains");
        placed[next as usize] = true;
        order.push(next);
    }
    let pos = {
        let mut p = vec![0usize; n];
        for (i, &u) in order.iter().enumerate() {
            p[u as usize] = i;
        }
        p
    };
    let backward = order
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            q.neighbors(u)
                .iter()
                .map(|&w| pos[w as usize])
                .filter(|&j| j < i)
                .collect()
        })
        .collect();
    (order, backward)
}

impl CountEstimator for WanderJoin {
    fn name(&self) -> &'static str {
        "WJ"
    }

    fn fit(&mut self, _g: &Graph, _train: &[(Graph, u64)]) {}

    fn estimate(&mut self, q: &Graph, g: &Graph) -> Option<f64> {
        let n = q.n_vertices();
        if n == 0 {
            return Some(1.0);
        }
        let (order, backward) = walk_order(q);
        // Vertices per label for the walk's first step.
        let mut by_label: Vec<Vec<VertexId>> = vec![Vec::new(); g.n_labels().max(1)];
        for v in g.vertices() {
            by_label[g.label(v) as usize].push(v);
        }
        let first_label = q.label(order[0]) as usize;
        if first_label >= by_label.len() || by_label[first_label].is_empty() {
            return Some(0.0);
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut total = 0.0f64;
        let mut mapping: Vec<VertexId> = vec![0; n];
        for _ in 0..self.trials {
            if let Some(weight) =
                one_walk(q, g, &order, &backward, &by_label, &mut mapping, &mut rng)
            {
                total += weight;
            }
        }
        Some(total / self.trials as f64)
    }
}

/// One Horvitz–Thompson trial. Returns the inverse sampling probability of
/// the found embedding, or `None` on walk failure.
fn one_walk(
    q: &Graph,
    g: &Graph,
    order: &[VertexId],
    backward: &[Vec<usize>],
    by_label: &[Vec<VertexId>],
    mapping: &mut [VertexId],
    rng: &mut StdRng,
) -> Option<f64> {
    let mut weight = 1.0f64;
    for (depth, &u) in order.iter().enumerate() {
        let label = q.label(u) as Label;
        let v = if backward[depth].is_empty() {
            // Uniform over label-matching vertices.
            let pool = by_label.get(label as usize)?;
            if pool.is_empty() {
                return None;
            }
            weight *= pool.len() as f64;
            pool[rng.gen_range(0..pool.len())]
        } else {
            // Uniform over the neighbors of one matched anchor.
            let anchor = mapping[backward[depth][0]];
            let ns = g.neighbors(anchor);
            if ns.is_empty() {
                return None;
            }
            weight *= ns.len() as f64;
            ns[rng.gen_range(0..ns.len())]
        };
        // Filters: label, injectivity, remaining adjacency.
        if g.label(v) != label {
            return None;
        }
        if mapping[..depth].contains(&v) {
            return None;
        }
        for &j in &backward[depth] {
            if !g.has_edge(v, mapping[j]) {
                return None;
            }
        }
        mapping[depth] = v;
    }
    Some(weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::workload;

    #[test]
    fn single_vertex_query_is_exact() {
        let g = Graph::from_edges(5, &[0, 0, 1, 1, 1], &[(0, 2), (1, 3)]).unwrap();
        let q = Graph::from_edges(1, &[1], &[]).unwrap();
        let mut est = WanderJoin::new(200);
        assert_eq!(est.estimate(&q, &g), Some(3.0));
    }

    #[test]
    fn single_edge_estimate_converges() {
        let (g, _) = workload(11, 1, 4);
        let q = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let truth = neursc_match::count_embeddings(&q, &g, 100_000_000)
            .exact()
            .unwrap() as f64;
        let mut est = WanderJoin::new(20_000);
        let e = est.estimate(&q, &g).unwrap();
        if truth > 0.0 {
            assert!(
                (e - truth).abs() / truth < 0.25,
                "WJ estimate {e} too far from {truth}"
            );
        }
    }

    #[test]
    fn triangle_estimate_in_reasonable_range() {
        // Dense unlabeled graph: triangle walks succeed often.
        let mut edges = Vec::new();
        let n = 30u32;
        for u in 0..n {
            for v in (u + 1)..n {
                if (u + v) % 3 != 0 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n as usize, &vec![0; n as usize], &edges).unwrap();
        let tri = Graph::from_edges(3, &[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let truth = neursc_match::count_embeddings(&tri, &g, 1_000_000_000)
            .exact()
            .unwrap() as f64;
        let mut est = WanderJoin::new(30_000);
        let e = est.estimate(&tri, &g).unwrap();
        assert!(
            (e - truth).abs() / truth < 0.3,
            "WJ triangle estimate {e} vs truth {truth}"
        );
    }

    #[test]
    fn missing_label_gives_zero() {
        let g = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let q = Graph::from_edges(2, &[7, 1], &[(0, 1)]).unwrap();
        let mut est = WanderJoin::new(100);
        assert_eq!(est.estimate(&q, &g), Some(0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, queries) = workload(12, 2, 4);
        let mut a = WanderJoin::new(500);
        let mut b = WanderJoin::new(500);
        for (q, _) in &queries {
            assert_eq!(a.estimate(q, &g), b.estimate(q, &g));
        }
    }
}
