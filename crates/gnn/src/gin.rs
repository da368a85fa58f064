//! Graph Isomorphism Network (GIN) — the intra-graph network of WEst
//! (paper §5.2, Eq. 3):
//!
//! ```text
//! h_u^{(k)} = σ( MLP^{(k)}( (1 + ε^{(k)})·h_u^{(k−1)} + Σ_{u'∈N(u)} h_{u'}^{(k−1)} ) )
//! ```
//!
//! with a learnable ε per layer and a 2-layer MLP as the injective
//! COMBINE, which gives 1-WL expressive power (Lemma 5.1 / Xu et al.).
//! The same stack (same parameters) runs on the query graph and on every
//! candidate substructure, so representations live in a shared space.

use crate::edges::EdgeList;
use neursc_nn::layers::{Activation, Mlp};
use neursc_nn::Tensor;
use neursc_nn::{ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// GIN stack configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GinConfig {
    /// Input feature dimension `dim_0`.
    pub in_dim: usize,
    /// Hidden/output dimension `dim_K` (paper: 128).
    pub hidden_dim: usize,
    /// Number of layers `K` (paper: 2).
    pub n_layers: usize,
}

impl Default for GinConfig {
    fn default() -> Self {
        GinConfig {
            in_dim: 64,
            hidden_dim: 128,
            n_layers: 2,
        }
    }
}

/// One GIN layer: learnable ε plus the COMBINE MLP.
#[derive(Debug, Clone)]
pub struct GinLayer {
    /// The `(1 + ε)` self-weight (scalar parameter).
    pub eps: ParamId,
    /// COMBINE MLP (in → hidden → hidden).
    pub mlp: Mlp,
}

impl GinLayer {
    fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let eps = store.alloc(Tensor::scalar(0.0));
        let mlp = Mlp::new(
            store,
            &[in_dim, out_dim, out_dim],
            Activation::Relu,
            Activation::Relu, // σ in Eq. 3
            rng,
        );
        GinLayer { eps, mlp }
    }

    /// Forward over one graph: `h: [n, d_in]` → `[n, d_out]`. The combine
    /// `(1 + ε)·h + Σ_{u'∈N(u)} h_{u'}` is one tape node, each MLP layer
    /// another.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, h: Var, edges: &EdgeList) -> Var {
        debug_assert_eq!(tape.value(h).rows(), edges.n_vertices);
        let eps = tape.param(store, self.eps);
        let combined = tape.gin_combine(h, eps, &edges.src, &edges.dst);
        self.mlp.forward(tape, store, combined)
    }
}

/// A stack of GIN layers (the paper's K-layer intra-GNN).
#[derive(Debug, Clone)]
pub struct GinStack {
    /// The layers in application order.
    pub layers: Vec<GinLayer>,
    /// Configuration used at construction.
    pub config: GinConfig,
}

impl GinStack {
    /// Allocates a `K`-layer stack in `store`.
    pub fn new(store: &mut ParamStore, config: GinConfig, rng: &mut StdRng) -> Self {
        assert!(config.n_layers >= 1, "GIN needs at least one layer");
        let mut layers = Vec::with_capacity(config.n_layers);
        let mut d = config.in_dim;
        for _ in 0..config.n_layers {
            layers.push(GinLayer::new(store, d, config.hidden_dim, rng));
            d = config.hidden_dim;
        }
        GinStack { layers, config }
    }

    /// Runs all layers; returns the final `[n, hidden_dim]` representations
    /// (`h^intra` of Algorithm 2, line 7).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var, edges: &EdgeList) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(tape, store, h, edges);
        }
        h
    }

    /// All parameter ids of the stack.
    pub fn params(&self) -> Vec<ParamId> {
        self.layers
            .iter()
            .flat_map(|l| {
                let mut p = vec![l.eps];
                p.extend(l.mlp.params());
                p
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{init_features, FeatureConfig};
    use neursc_graph::wl::wl_distinguishes;
    use neursc_graph::Graph;
    use rand::SeedableRng;

    fn run_stack(g: &Graph, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let fcfg = FeatureConfig {
            degree_bits: 8,
            label_bits: 8,
            k_hops: 1,
        };
        let stack = GinStack::new(
            &mut store,
            GinConfig {
                in_dim: fcfg.dim(),
                hidden_dim: 16,
                n_layers: 2,
            },
            &mut rng,
        );
        let mut tape = Tape::new();
        let x = tape.constant(init_features(g, &fcfg));
        let h = stack.forward(&mut tape, &store, x, &EdgeList::from_graph(g));
        let pooled = tape.sum_rows(h);
        tape.value(pooled).clone()
    }

    #[test]
    fn output_shape_and_determinism() {
        let g = Graph::from_edges(4, &[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let a = run_stack(&g, 3);
        let b = run_stack(&g, 3);
        assert_eq!(a, b);
        assert_eq!(a.shape(), (1, 16));
    }

    #[test]
    fn permutation_invariance_of_pooled_embedding() {
        // Same graph with vertices relabeled must pool to the same vector.
        let g1 = Graph::from_edges(4, &[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let g2 = Graph::from_edges(4, &[3, 2, 1, 0], &[(3, 2), (2, 1), (1, 0)]).unwrap();
        let e1 = run_stack(&g1, 5);
        let e2 = run_stack(&g2, 5);
        for (a, b) in e1.data().iter().zip(e2.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn distinguishes_wl_distinguishable_graphs() {
        // Theorem 5.3 direction we can check empirically: graphs separated
        // by 1-WL in ≤ 2 rounds get different embeddings (with random
        // weights, almost surely).
        let tri_tail = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let path4 = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(wl_distinguishes(&tri_tail, &path4, 2));
        let e1 = run_stack(&tri_tail, 7);
        let e2 = run_stack(&path4, 7);
        let diff: f32 = e1
            .data()
            .iter()
            .zip(e2.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 1e-3,
            "GIN failed to separate WL-distinguishable graphs"
        );
    }

    #[test]
    fn wl_indistinguishable_graphs_get_equal_embeddings() {
        // C6 vs 2×C3 are 1-WL-equivalent → GIN (bounded by 1-WL) must agree.
        let c6 = Graph::from_edges(
            6,
            &[0; 6],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        )
        .unwrap();
        let tt = Graph::from_edges(
            6,
            &[0; 6],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
        .unwrap();
        assert!(!wl_distinguishes(&c6, &tt, 5));
        let e1 = run_stack(&c6, 11);
        let e2 = run_stack(&tt, 11);
        for (a, b) in e1.data().iter().zip(e2.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let g = Graph::from_edges(3, &[0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = ParamStore::new();
        let fcfg = FeatureConfig {
            degree_bits: 4,
            label_bits: 4,
            k_hops: 1,
        };
        let stack = GinStack::new(
            &mut store,
            GinConfig {
                in_dim: fcfg.dim(),
                hidden_dim: 8,
                n_layers: 2,
            },
            &mut rng,
        );
        let mut tape = Tape::new();
        let x = tape.constant(init_features(&g, &fcfg));
        let h = stack.forward(&mut tape, &store, x, &EdgeList::from_graph(&g));
        let pooled = tape.sum_rows(h);
        let sq = tape.mul(pooled, pooled);
        let loss = tape.sum(sq);
        tape.backward(loss, &mut store);
        // Every weight matrix must receive a nonzero gradient (biases of
        // dead ReLUs may legitimately be zero; weights should not all be).
        let nonzero = stack
            .params()
            .iter()
            .filter(|&&p| store.grad(p).max_abs() > 0.0)
            .count();
        assert!(
            nonzero >= stack.params().len() / 2,
            "too few parameters received gradient: {nonzero}"
        );
    }

    #[test]
    fn edgeless_graph_still_works() {
        let g = Graph::from_edges(3, &[0, 1, 2], &[]).unwrap();
        let e = run_stack(&g, 17);
        assert_eq!(e.shape(), (1, 16));
        assert!(e.data().iter().all(|v| v.is_finite()));
    }
}
