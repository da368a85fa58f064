//! Tape-free forward passes for the GNN layers.
//!
//! Inference entry points take a [`neursc_nn::infer::InferCtx`] instead of
//! `(&mut Tape, &ParamStore)`: weights come from the context's snapshot
//! and intermediates from its buffer arena. The arithmetic is the
//! loop bodies of [`neursc_nn::kernels`] — the ones the tape's coarse nodes
//! run ([`crate::gin::GinLayer::forward`],
//! [`crate::attention::AttentionLayer::forward`]) — so the two paths
//! agree bit for bit by construction; the unit tests here and
//! `tests/infer_equivalence.rs` in `neursc-nn` (end to end on the WEst
//! pipeline) keep that pinned.

use crate::attention::{AttentionLayer, BipartiteAttention};
use crate::edges::EdgeList;
use crate::gin::{GinLayer, GinStack};
use neursc_nn::infer::InferCtx;
use neursc_nn::kernels;
use neursc_nn::layers::Activation;
use neursc_nn::Tensor;

impl GinLayer {
    /// Tape-free forward: the GIN combine into an arena tensor, then the
    /// COMBINE MLP — no tape, no per-op allocation.
    pub fn infer_forward(&self, ctx: &mut InferCtx<'_>, h: &Tensor, edges: &EdgeList) -> Tensor {
        debug_assert_eq!(h.rows(), edges.n_vertices, "feature/vertex count mismatch");
        let mut combined = ctx.alloc(h.rows(), h.cols());
        let one_plus = ctx.param(self.eps).item() + 1.0;
        kernels::gin_combine_into(h, one_plus, &edges.src, &edges.dst, &mut combined);
        let out = self.mlp.infer_forward(ctx, &combined);
        ctx.recycle(combined);
        out
    }
}

impl GinStack {
    /// Tape-free forward over all layers, recycling intermediates.
    pub fn infer_forward(&self, ctx: &mut InferCtx<'_>, x: &Tensor, edges: &EdgeList) -> Tensor {
        let mut h = self.layers[0].infer_forward(ctx, x, edges);
        for layer in &self.layers[1..] {
            let next = layer.infer_forward(ctx, &h, edges);
            ctx.recycle(h);
            h = next;
        }
        h
    }
}

impl AttentionLayer {
    /// Tape-free GAT-style forward: the per-edge logits, the segment
    /// softmax and the α-weighted aggregate run over `[e]`/`[n]` arena
    /// columns, with no edge-shaped `[e, out]` tensor ever built.
    ///
    /// `eff` and `has_in` as for [`AttentionLayer::forward`].
    pub fn infer_forward(
        &self,
        ctx: &mut InferCtx<'_>,
        h: &Tensor,
        eff: &EdgeList,
        has_in: &[bool],
    ) -> Tensor {
        let n = eff.n_vertices;
        let mut th = ctx.matmul(h, self.theta); // [n, out]
        if eff.is_empty() {
            // No edges at all: fall back to the transformed self term.
            kernels::sigmoid_in_place(th.data_mut());
            return th;
        }
        let ta = ctx.matmul(h, self.theta_a); // [n, out]
        let attn = ctx.param(self.attn).data(); // [2·out, 1], row-major ⇒ flat

        // One logit per edge, softmaxed in place into α.
        let mut alpha = ctx.alloc_full(eff.len(), 1); // every element written below
        let ad = alpha.data_mut();
        kernels::edge_logits(&ta, attn, &eff.src, &eff.dst, |j, logit| {
            ad[j] = Activation::LeakyRelu(self.slope).apply_scalar(logit);
        });
        let mut maxes = ctx.alloc_full(n, 1); // filled by the softmax
        let mut denom = ctx.alloc(n, 1);
        kernels::segment_softmax(ad, &eff.dst, maxes.data_mut(), denom.data_mut(), None);

        let mut out = ctx.alloc(n, th.cols());
        kernels::attend_aggregate(&th, alpha.data(), &eff.src, &eff.dst, has_in, &mut out);
        ctx.recycle(alpha);
        ctx.recycle(maxes);
        ctx.recycle(denom);
        ctx.recycle(ta);
        ctx.recycle(th);
        out
    }
}

impl BipartiteAttention {
    /// Tape-free forward over all layers, recycling intermediates.
    pub fn infer_forward(&self, ctx: &mut InferCtx<'_>, x: &Tensor, edges: &EdgeList) -> Tensor {
        let (eff, has_in) = self.message_edges(edges);
        let mut h = self.layers[0].infer_forward(ctx, x, &eff, &has_in);
        for layer in &self.layers[1..] {
            let next = layer.infer_forward(ctx, &h, &eff, &has_in);
            ctx.recycle(h);
            h = next;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::AttentionConfig;
    use crate::gin::GinConfig;
    use neursc_nn::infer::{Arena, InferWeights, QuantMode};
    use neursc_nn::{ParamStore, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_features(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut v = seed | 1;
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| {
                    v ^= v << 13;
                    v ^= v >> 7;
                    v ^= v << 17;
                    (v % 1000) as f32 / 500.0 - 1.0
                })
                .collect(),
        )
    }

    #[test]
    fn gin_fused_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let gin = GinStack::new(
            &mut store,
            GinConfig {
                in_dim: 6,
                hidden_dim: 8,
                n_layers: 3,
            },
            &mut rng,
        );
        let x = rand_features(5, 6, 0xfeed);
        for edges in [
            EdgeList::from_pairs(&[(0, 1), (1, 2), (3, 4), (4, 0), (2, 2)], 5),
            EdgeList::from_pairs(&[], 5), // edgeless fallback path
        ] {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let hv = gin.forward(&mut tape, &store, xv, &edges);
            let expected = tape.value(hv).clone();

            let w = InferWeights::from_store(&store, QuantMode::F32);
            let mut ctx = InferCtx::new(&w, Arena::new());
            let got = gin.infer_forward(&mut ctx, &x, &edges);
            assert_eq!(
                got,
                expected,
                "fused GIN diverged from tape ({} edges)",
                edges.len()
            );
        }
    }

    #[test]
    fn attention_fused_matches_tape_bitwise() {
        for self_term in [false, true] {
            let mut rng = StdRng::seed_from_u64(9);
            let mut store = ParamStore::new();
            let att = BipartiteAttention::new(
                &mut store,
                AttentionConfig {
                    in_dim: 5,
                    hidden_dim: 7,
                    n_layers: 2,
                    self_term,
                },
                &mut rng,
            );
            let x = rand_features(6, 5, 0xbeef);
            for edges in [
                // Vertex 5 isolated → exercises the fallback mask.
                EdgeList::from_pairs(&[(0, 1), (1, 0), (2, 3), (3, 2), (4, 1), (1, 4)], 6),
                EdgeList::from_pairs(&[], 6), // empty → sigmoid(Θh) path
            ] {
                let mut tape = Tape::new();
                let xv = tape.constant(x.clone());
                let hv = att.forward(&mut tape, &store, xv, &edges);
                let expected = tape.value(hv).clone();

                let w = InferWeights::from_store(&store, QuantMode::F32);
                let mut ctx = InferCtx::new(&w, Arena::new());
                let got = att.infer_forward(&mut ctx, &x, &edges);
                assert_eq!(
                    got,
                    expected,
                    "fused attention diverged (self_term={self_term}, {} edges)",
                    edges.len()
                );
            }
        }
    }
}
