//! LSS — A Learned Sketch for Subgraph Counting (Zhao, Yu, Zhang, Li &
//! Rong, SIGMOD 2021), the paper's state-of-the-art learned comparator.
//!
//! Faithful to the published architecture at our substrate's scale:
//!
//! * **Decomposition** — one substructure per query vertex: the subgraph of
//!   `q` induced by the k-hop ball around that vertex (`k = 3` by default —
//!   the very choice §1 of the NeurSC paper criticizes: small-diameter
//!   queries make every substructure equal to `q`).
//! * **Features** — query-side only: binary degree/label encodings plus
//!   the label's frequency in the data graph (LSS's label-frequency
//!   initialization; it never runs a GNN over the data graph).
//! * **Encoder** — a shared GIN over each substructure, sum-pooling
//!   readout.
//! * **Aggregation** — scaled dot-product self-attention across the
//!   substructure embeddings, mean-pooled, then an MLP regression head on
//!   the log count.

use crate::CountEstimator;
use neursc_gnn::{init_features, row_softmax, EdgeList, FeatureConfig, GinConfig, GinStack};
use neursc_graph::induced::induced_subgraph;
use neursc_graph::traversal::khop_ball;
use neursc_graph::Graph;
use neursc_nn::init::xavier_uniform;
use neursc_nn::layers::{Activation, Mlp};
use neursc_nn::optim::Adam;
use neursc_nn::{ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// LSS hyperparameters.
#[derive(Debug, Clone)]
pub struct LssConfig {
    /// BFS radius for query decomposition (paper default: 3).
    pub k_hops: u32,
    /// Base feature encoder (degree/label binary encodings).
    pub features: FeatureConfig,
    /// GIN hidden width.
    pub hidden: usize,
    /// GIN layers.
    pub layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size (paper §6.1 uses 2 for LSS).
    pub batch_size: usize,
    /// Learning rate (paper: 1e-3).
    pub lr: f32,
    /// Adam L2 penalty (paper: 1e-5).
    pub weight_decay: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LssConfig {
    fn default() -> Self {
        LssConfig {
            k_hops: 3,
            features: FeatureConfig {
                degree_bits: 8,
                label_bits: 8,
                k_hops: 1,
            },
            hidden: 32,
            layers: 2,
            epochs: 30,
            batch_size: 2,
            lr: 1e-3,
            weight_decay: 1e-5,
            seed: 0x155,
        }
    }
}

/// The LSS estimator.
pub struct Lss {
    /// Configuration.
    pub config: LssConfig,
    store: ParamStore,
    gin: GinStack,
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    head: Mlp,
    /// Per-label frequency in the fitted data graph (the data-side signal).
    label_freq: Vec<f32>,
    fitted: bool,
}

impl Lss {
    /// Builds an untrained LSS model.
    pub fn new(config: LssConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let in_dim = config.features.dim() + 1; // + label frequency
        let gin = GinStack::new(
            &mut store,
            GinConfig {
                in_dim,
                hidden_dim: config.hidden,
                n_layers: config.layers,
            },
            &mut rng,
        );
        let d = config.hidden;
        let wq = store.alloc(xavier_uniform(d, d, &mut rng));
        let wk = store.alloc(xavier_uniform(d, d, &mut rng));
        let wv = store.alloc(xavier_uniform(d, d, &mut rng));
        let head = Mlp::new(
            &mut store,
            &[d, d, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        Lss {
            config,
            store,
            gin,
            wq,
            wk,
            wv,
            head,
            label_freq: Vec::new(),
            fitted: false,
        }
    }

    /// The model's parameters, read-only (trained-weight digests).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    fn build_label_freq(&mut self, g: &Graph) {
        let n = g.n_vertices().max(1) as f32;
        self.label_freq = g
            .label_frequencies()
            .iter()
            .map(|&c| c as f32 / n)
            .collect();
    }

    /// LSS's query decomposition: one k-hop-ball substructure per vertex.
    fn decompose(&self, q: &Graph) -> Vec<Graph> {
        q.vertices()
            .map(|u| {
                let ball = khop_ball(q, u, self.config.k_hops);
                induced_subgraph(q, &ball).graph
            })
            .collect()
    }

    /// Featurizes one substructure (query-side encodings + label freq).
    fn features(&self, sub: &Graph) -> Tensor {
        let base = init_features(sub, &self.config.features);
        let mut out = Tensor::zeros(base.rows(), base.cols() + 1);
        for r in 0..base.rows() {
            out.row_mut(r)[..base.cols()].copy_from_slice(base.row(r));
            let l = sub.label(r as u32) as usize;
            let f = self.label_freq.get(l).copied().unwrap_or(0.0);
            out.set(r, base.cols(), f);
        }
        out
    }

    /// Forward: substructure embeddings → self-attention → log count.
    fn forward(&self, tape: &mut Tape, q: &Graph) -> Var {
        let subs = self.decompose(q);
        let mut rows: Option<Var> = None;
        for sub in &subs {
            let x = tape.constant(self.features(sub));
            let h = self
                .gin
                .forward(tape, &self.store, x, &EdgeList::from_graph(sub));
            let pooled = tape.sum_rows(h); // [1, d]
            rows = Some(match rows {
                Some(acc) => tape.concat_rows(acc, pooled),
                None => pooled,
            });
        }
        let e = rows.expect("queries are non-empty"); // [m, d]
                                                      // Scaled dot-product self-attention across substructures.
        let wq = tape.param(&self.store, self.wq);
        let wk = tape.param(&self.store, self.wk);
        let wv = tape.param(&self.store, self.wv);
        let qm = tape.matmul(e, wq);
        let km = tape.matmul(e, wk);
        let vm = tape.matmul(e, wv);
        let kt = tape.transpose(km);
        let scores = tape.matmul(qm, kt);
        let scaled = tape.scale(scores, 1.0 / (self.config.hidden as f32).sqrt());
        let attn = row_softmax(tape, scaled);
        let mixed = tape.matmul(attn, vm); // [m, d]
        let agg = tape.mean_rows(mixed); // [1, d]
        self.head.forward(tape, &self.store, agg) // [1, 1] log count
    }
}

impl CountEstimator for Lss {
    fn name(&self) -> &'static str {
        "LSS"
    }

    fn fit(&mut self, g: &Graph, train: &[(Graph, u64)]) {
        self.build_label_freq(g);
        if train.is_empty() {
            return;
        }
        let params: Vec<ParamId> = {
            let mut p = self.gin.params();
            p.extend([self.wq, self.wk, self.wv]);
            p.extend(self.head.params());
            p
        };
        let mut opt = Adam::new(self.config.lr).with_weight_decay(self.config.weight_decay);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xf17);
        let mut order: Vec<usize> = (0..train.len()).collect();
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.config.batch_size.max(1)) {
                self.store.zero_grads();
                let mut terms = 0;
                for &i in chunk {
                    let (q, c) = &train[i];
                    let mut tape = Tape::new();
                    let z = self.forward(&mut tape, q);
                    // |z − ln max(1,c)| — LSS trains on q-error-style loss.
                    let target = (*c as f32).max(1.0).ln();
                    let diff = tape.add_scalar(z, -target);
                    let loss = tape.abs(diff);
                    tape.backward(loss, &mut self.store);
                    terms += 1;
                }
                if terms > 0 {
                    opt.step_subset(&mut self.store, &params);
                }
            }
        }
        self.fitted = true;
    }

    fn estimate(&mut self, q: &Graph, g: &Graph) -> Option<f64> {
        if self.label_freq.is_empty() {
            self.build_label_freq(g);
        }
        let mut tape = Tape::new();
        let z = self.forward(&mut tape, q);
        Some((tape.value(z).item().min(60.0) as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::workload;
    use neursc_core::q_error;

    fn quick_config() -> LssConfig {
        LssConfig {
            epochs: 20,
            hidden: 16,
            ..Default::default()
        }
    }

    #[test]
    fn decomposition_yields_one_substructure_per_vertex() {
        let lss = Lss::new(quick_config());
        let q = Graph::from_edges(4, &[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let subs = lss.decompose(&q);
        assert_eq!(subs.len(), 4);
    }

    #[test]
    fn small_diameter_queries_collapse_to_whole_query() {
        // The NeurSC paper's criticism: diameter ≤ k ⇒ every substructure
        // equals q.
        let lss = Lss::new(quick_config()); // k = 3
        let tri = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        for sub in lss.decompose(&tri) {
            assert_eq!(sub.n_vertices(), 3);
            assert_eq!(sub.n_edges(), 3);
        }
    }

    #[test]
    fn k1_decomposition_is_proper() {
        let mut cfg = quick_config();
        cfg.k_hops = 1;
        let lss = Lss::new(cfg);
        let path = Graph::from_edges(4, &[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let subs = lss.decompose(&path);
        assert_eq!(subs[0].n_vertices(), 2); // ball of endpoint
        assert_eq!(subs[1].n_vertices(), 3);
    }

    #[test]
    fn untrained_estimates_are_finite() {
        let (g, queries) = workload(20, 2, 4);
        let mut lss = Lss::new(quick_config());
        lss.build_label_freq(&g);
        for (q, _) in &queries {
            let e = lss.estimate(q, &g).unwrap();
            assert!(e.is_finite() && e >= 0.0);
        }
    }

    #[test]
    fn training_improves_over_constant_one() {
        let (g, train) = workload(21, 14, 4);
        let mut lss = Lss::new(quick_config());
        lss.fit(&g, &train);
        let model_err: f64 = train
            .iter()
            .map(|(q, c)| q_error(lss.estimate(q, &g).unwrap(), *c as f64))
            .sum::<f64>()
            / train.len() as f64;
        let const_err: f64 = train
            .iter()
            .map(|(_, c)| q_error(1.0, *c as f64))
            .sum::<f64>()
            / train.len() as f64;
        assert!(
            model_err < const_err,
            "LSS q-error {model_err} not better than constant {const_err}"
        );
    }

    #[test]
    fn label_frequency_feature_reflects_data_graph() {
        let g = Graph::from_edges(4, &[0, 0, 0, 1], &[(0, 1), (2, 3)]).unwrap();
        let mut lss = Lss::new(quick_config());
        lss.build_label_freq(&g);
        let q = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        let feats = lss.features(&q);
        let last = feats.cols() - 1;
        assert!((feats.get(0, last) - 0.75).abs() < 1e-6);
        assert!((feats.get(1, last) - 0.25).abs() < 1e-6);
    }
}
