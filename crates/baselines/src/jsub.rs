//! JSUB — random sampling over joins with upper bounds (Zhao, Christensen,
//! Li, Hu & Yi, SIGMOD 2018), adapted to subgraph counting as in G-CARE.
//!
//! Like WanderJoin, JSUB samples one embedding per trial along a fixed
//! query order, but the proposal at each step is *weighted by an upper
//! bound* on how many completions each candidate can lead to (here the
//! degree-product bound over the remaining query vertices), and the trial
//! weight is the corresponding Horvitz–Thompson correction. Bound-guided
//! proposals reduce variance and walk failures relative to uniform
//! sampling — but the method still degenerates to underestimates when
//! valid extensions are rare.

use crate::CountEstimator;
use neursc_graph::types::VertexId;
use neursc_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The JSUB estimator.
#[derive(Debug)]
pub struct JSub {
    /// Number of sampling trials per query.
    pub trials: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for JSub {
    fn default() -> Self {
        JSub {
            trials: 3000,
            seed: 0x15b,
        }
    }
}

impl JSub {
    /// Creates the estimator with the given trial count.
    pub fn new(trials: u32) -> Self {
        JSub {
            trials,
            ..Default::default()
        }
    }
}

impl CountEstimator for JSub {
    fn name(&self) -> &'static str {
        "JSUB"
    }

    fn fit(&mut self, _g: &Graph, _train: &[(Graph, u64)]) {}

    fn estimate(&mut self, q: &Graph, g: &Graph) -> Option<f64> {
        let n = q.n_vertices();
        if n == 0 {
            return Some(1.0);
        }
        let (order, backward) = crate::wanderjoin::walk_order(q);
        let mut by_label: Vec<Vec<VertexId>> = vec![Vec::new(); g.n_labels().max(1)];
        for v in g.vertices() {
            by_label[g.label(v) as usize].push(v);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut total = 0.0f64;
        let mut mapping = vec![0 as VertexId; n];
        for _ in 0..self.trials {
            if let Some(w) = one_trial(q, g, &order, &backward, &by_label, &mut mapping, &mut rng) {
                total += w;
            }
        }
        Some(total / self.trials as f64)
    }
}

/// Upper-bound score of extending with `v`: `1 + d(v)` (a candidate with
/// more neighbors can anchor more completions).
#[inline]
fn bound(g: &Graph, v: VertexId) -> f64 {
    1.0 + g.degree(v) as f64
}

fn one_trial(
    q: &Graph,
    g: &Graph,
    order: &[VertexId],
    backward: &[Vec<usize>],
    by_label: &[Vec<VertexId>],
    mapping: &mut [VertexId],
    rng: &mut StdRng,
) -> Option<f64> {
    let mut weight = 1.0f64;
    // Reusable candidate scratch (avoid per-step allocation growth).
    let mut cands: Vec<VertexId> = Vec::new();
    for (depth, &u) in order.iter().enumerate() {
        cands.clear();
        if backward[depth].is_empty() {
            let pool = by_label.get(q.label(u) as usize)?;
            cands.extend_from_slice(pool);
        } else {
            // Valid extensions: neighbors of the first anchor that satisfy
            // every filter — JSUB filters *before* sampling (its bounds are
            // computed on the filtered candidate sets).
            let anchor = mapping[backward[depth][0]];
            for &v in g.neighbors(anchor) {
                if g.label(v) != q.label(u) {
                    continue;
                }
                if mapping[..depth].contains(&v) {
                    continue;
                }
                if backward[depth][1..]
                    .iter()
                    .all(|&j| g.has_edge(v, mapping[j]))
                {
                    cands.push(v);
                }
            }
        }
        if cands.is_empty() {
            return None;
        }
        // Bound-weighted proposal.
        let total_bound: f64 = cands.iter().map(|&v| bound(g, v)).sum();
        let mut x = rng.gen::<f64>() * total_bound;
        let mut chosen = *cands.last().unwrap();
        for &v in cands.iter() {
            x -= bound(g, v);
            if x <= 0.0 {
                chosen = v;
                break;
            }
        }
        // For roots we sampled from the unfiltered pool; apply filters now.
        if backward[depth].is_empty()
            && (g.label(chosen) != q.label(order[depth]) || mapping[..depth].contains(&chosen))
        {
            return None;
        }
        weight *= total_bound / bound(g, chosen);
        mapping[depth] = chosen;
    }
    Some(weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::workload;

    #[test]
    fn single_vertex_query_is_unbiased() {
        // Bound-weighted proposals make individual trial weights vary
        // (unlike WJ's uniform root), so the estimate converges to — but is
        // not exactly — the label count.
        let g = Graph::from_edges(5, &[0, 0, 1, 1, 1], &[(0, 2), (1, 3)]).unwrap();
        let q = Graph::from_edges(1, &[1], &[]).unwrap();
        let mut est = JSub::new(50_000);
        let e = est.estimate(&q, &g).unwrap();
        assert!((e - 3.0).abs() / 3.0 < 0.05, "estimate {e} too far from 3");
    }

    #[test]
    fn single_edge_estimate_converges() {
        let (g, _) = workload(13, 1, 4);
        let q = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let truth = neursc_match::count_embeddings(&q, &g, 100_000_000)
            .exact()
            .unwrap() as f64;
        if truth == 0.0 {
            return;
        }
        let mut est = JSub::new(20_000);
        let e = est.estimate(&q, &g).unwrap();
        assert!(
            (e - truth).abs() / truth < 0.25,
            "JSUB estimate {e} too far from {truth}"
        );
    }

    #[test]
    fn path3_estimate_converges() {
        let (g, _) = workload(14, 1, 4);
        let q = Graph::from_edges(3, &[0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        let truth = neursc_match::count_embeddings(&q, &g, 100_000_000)
            .exact()
            .unwrap() as f64;
        if truth == 0.0 {
            return;
        }
        let mut est = JSub::new(40_000);
        let e = est.estimate(&q, &g).unwrap();
        assert!(
            (e - truth).abs() / truth < 0.3,
            "JSUB path estimate {e} vs truth {truth}"
        );
    }

    #[test]
    fn missing_label_gives_zero() {
        let g = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let q = Graph::from_edges(2, &[7, 1], &[(0, 1)]).unwrap();
        let mut est = JSub::new(100);
        assert_eq!(est.estimate(&q, &g), Some(0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, queries) = workload(15, 2, 4);
        let mut a = JSub::new(400);
        let mut b = JSub::new(400);
        for (q, _) in &queries {
            assert_eq!(a.estimate(q, &g), b.estimate(q, &g));
        }
    }
}
