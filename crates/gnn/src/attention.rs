//! The inter-graph attentive network (paper §5.3, Eq. 4–5).
//!
//! A GAT-style layer applied to the query–candidate bipartite graph `G_B`:
//!
//! ```text
//! h_u^{(k)} = σ( α_uu·Θ^{(k)}·h_u^{(k−1)} + Σ_{v∈N(u)} α_uv·Θ^{(k)}·h_v^{(k−1)} )
//! α_uv = softmax_v( LeakyReLU( a·[Θ_a h_u ‖ Θ_a h_v] ) )
//! ```
//!
//! Unlike the original GAT, the paper's layer "does not include the self
//! loop but focuses on the message passing between the neighbors in
//! different vertex sets"; Eq. 4 nevertheless retains an `α_uu` self term.
//! We expose both readings: [`AttentionConfig::self_term`] `= true` puts
//! the self edge into the attention softmax (Eq. 4 as written), `false`
//! drops it entirely (pure cross-graph message passing). NeurSC defaults
//! to `false`, matching the prose. Vertices with no neighbors always keep
//! a residual self term so their representations are defined.

use crate::edges::EdgeList;
use neursc_nn::init::xavier_uniform;
use neursc_nn::{ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::borrow::Cow;

/// Attentive-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionConfig {
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension `dim_{K'}` (paper: 128).
    pub hidden_dim: usize,
    /// Number of layers `K'` (paper: 2).
    pub n_layers: usize,
    /// Whether the self edge participates in attention (see module docs).
    pub self_term: bool,
}

impl Default for AttentionConfig {
    fn default() -> Self {
        AttentionConfig {
            in_dim: 64,
            hidden_dim: 128,
            n_layers: 2,
            self_term: false,
        }
    }
}

/// One attentive layer.
#[derive(Debug, Clone)]
pub struct AttentionLayer {
    /// Value transform Θ `[in, out]`.
    pub theta: ParamId,
    /// Attention transform Θ_a `[in, out]`.
    pub theta_a: ParamId,
    /// Attention vector `a` `[2·out, 1]`.
    pub attn: ParamId,
    /// LeakyReLU slope for attention logits (GAT uses 0.2).
    pub slope: f32,
}

impl AttentionLayer {
    fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        AttentionLayer {
            theta: store.alloc(xavier_uniform(in_dim, out_dim, rng)),
            theta_a: store.alloc(xavier_uniform(in_dim, out_dim, rng)),
            attn: store.alloc(xavier_uniform(2 * out_dim, 1, rng)),
            slope: 0.2,
        }
    }

    /// Forward over the (bipartite) graph, `h: [n, in]` → `[n, out]`, as
    /// one tape node over the layer's three parameter leaves.
    ///
    /// `eff` holds the directed message edges (`src → dst`; for `G_B`, both
    /// directions of every candidate edge) and must already carry the self
    /// loops when the stack's `self_term` is set; `has_in[v]` says whether
    /// any of them reaches vertex `v`. Both are the same for every layer,
    /// so the stack builds them once ([`BipartiteAttention::message_edges`]).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: Var,
        eff: &EdgeList,
        has_in: &[bool],
    ) -> Var {
        let params = [self.theta, self.theta_a, self.attn].map(|p| tape.param(store, p));
        tape.attention(h, params, &eff.src, &eff.dst, has_in, self.slope)
    }
}

/// The K'-layer inter-graph attentive network.
#[derive(Debug, Clone)]
pub struct BipartiteAttention {
    /// Layers in application order.
    pub layers: Vec<AttentionLayer>,
    /// Configuration used at construction.
    pub config: AttentionConfig,
}

impl BipartiteAttention {
    /// Allocates the stack in `store`.
    pub fn new(store: &mut ParamStore, config: AttentionConfig, rng: &mut StdRng) -> Self {
        assert!(
            config.n_layers >= 1,
            "attention stack needs at least one layer"
        );
        let mut layers = Vec::with_capacity(config.n_layers);
        let mut d = config.in_dim;
        for _ in 0..config.n_layers {
            layers.push(AttentionLayer::new(store, d, config.hidden_dim, rng));
            d = config.hidden_dim;
        }
        BipartiteAttention { layers, config }
    }

    /// Runs all layers; returns `h^inter` (Algorithm 2, line 12).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var, edges: &EdgeList) -> Var {
        let (eff, has_in) = self.message_edges(edges);
        self.layers
            .iter()
            .fold(x, |h, layer| layer.forward(tape, store, h, &eff, &has_in))
    }

    /// What every layer of the stack runs on: `edges`, with a self loop per
    /// vertex appended when `self_term` is configured, and per vertex
    /// whether any of those edges arrives there (a vertex none reaches
    /// keeps its own transformed feature).
    pub fn message_edges<'e>(&self, edges: &'e EdgeList) -> (Cow<'e, EdgeList>, Vec<bool>) {
        let eff = if self.config.self_term {
            Cow::Owned(edges.clone().with_self_loops())
        } else {
            Cow::Borrowed(edges)
        };
        let mut has_in = vec![false; eff.n_vertices];
        for &d in &eff.dst {
            has_in[d as usize] = true;
        }
        (eff, has_in)
    }

    /// All parameter ids.
    pub fn params(&self) -> Vec<ParamId> {
        self.layers
            .iter()
            .flat_map(|l| [l.theta, l.theta_a, l.attn])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_nn::Tensor;
    use rand::SeedableRng;

    fn setup(n_layers: usize, self_term: bool) -> (ParamStore, BipartiteAttention) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let net = BipartiteAttention::new(
            &mut store,
            AttentionConfig {
                in_dim: 6,
                hidden_dim: 8,
                n_layers,
                self_term,
            },
            &mut rng,
        );
        (store, net)
    }

    fn bipartite_edges() -> EdgeList {
        // Query vertices 0, 1; data vertices 2, 3, 4.
        // Candidate edges: (0,2), (0,3), (1,3), (1,4) — both directions.
        EdgeList::from_pairs(
            &[
                (0, 2),
                (2, 0),
                (0, 3),
                (3, 0),
                (1, 3),
                (3, 1),
                (1, 4),
                (4, 1),
            ],
            5,
        )
    }

    #[test]
    fn output_shape() {
        let (store, net) = setup(2, false);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(5, 6));
        let h = net.forward(&mut tape, &store, x, &bipartite_edges());
        assert_eq!(tape.value(h).shape(), (5, 8));
        assert!(tape.value(h).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn attention_weights_sum_to_one_per_vertex() {
        // Indirect check: with identical inputs everywhere, the aggregation
        // reduces to an average, so outputs of vertices with ≥1 neighbor
        // are identical regardless of neighbor count.
        let (store, net) = setup(1, false);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(5, 6));
        let h = net.forward(&mut tape, &store, x, &bipartite_edges());
        let out = tape.value(h);
        // Vertex 0 has 2 neighbors, vertex 1 has 2, vertex 2 has 1 — all
        // receive the same (single distinct) message value.
        for c in 0..out.cols() {
            let v0 = out.get(0, c);
            for r in 1..5 {
                assert!((out.get(r, c) - v0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn isolated_vertex_keeps_defined_representation() {
        let (store, net) = setup(1, false);
        let edges = EdgeList::from_pairs(&[(0, 1), (1, 0)], 3); // vertex 2 isolated
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(3, 6));
        let h = net.forward(&mut tape, &store, x, &edges);
        let out = tape.value(h);
        assert!(out.row(2).iter().all(|v| v.is_finite()));
        // The sigmoid of a nonzero transform is almost surely ≠ 0.5 exactly;
        // just ensure it is not the degenerate all-0.5 of a zero input...
        // actually fallback guarantees a nonzero pre-activation in general.
        assert!(out.row(2).iter().any(|&v| (v - 0.5).abs() > 1e-6));
    }

    #[test]
    fn self_term_changes_output() {
        let (store_a, net_a) = setup(1, false);
        let (_store_b, net_b) = setup(1, true); // same seed → same params
        let mut t1 = Tape::new();
        let x1 = t1.constant(Tensor::from_vec(
            5,
            6,
            (0..30).map(|i| i as f32 / 30.0).collect(),
        ));
        let h1 = net_a.forward(&mut t1, &store_a, x1, &bipartite_edges());
        let mut t2 = Tape::new();
        let x2 = t2.constant(Tensor::from_vec(
            5,
            6,
            (0..30).map(|i| i as f32 / 30.0).collect(),
        ));
        let h2 = net_b.forward(&mut t2, &store_a, x2, &bipartite_edges());
        let d: f32 = t1
            .value(h1)
            .data()
            .iter()
            .zip(t2.value(h2).data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1e-6, "self_term should alter the computation");
        let _ = net_b;
    }

    #[test]
    fn empty_edge_list_falls_back_to_self_transform() {
        let (store, net) = setup(1, false);
        let edges = EdgeList::from_pairs(&[], 2);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(2, 6));
        let h = net.forward(&mut tape, &store, x, &edges);
        assert_eq!(tape.value(h).shape(), (2, 8));
        assert!(tape.value(h).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradients_reach_attention_parameters() {
        let (mut store, net) = setup(2, false);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(
            5,
            6,
            (0..30).map(|i| (i as f32).sin()).collect(),
        ));
        let h = net.forward(&mut tape, &store, x, &bipartite_edges());
        let pooled = tape.sum_rows(h);
        let sq = tape.mul(pooled, pooled);
        let loss = tape.sum(sq);
        tape.backward(loss, &mut store);
        for p in net.params() {
            assert!(
                store.grad(p).max_abs() > 0.0,
                "parameter {p:?} received zero gradient"
            );
        }
    }
}
