//! The WEst estimation network `f_θ` (paper §5, Algorithm 2).
//!
//! One forward pass handles a `(q, G_sub)` pair:
//!
//! 1. intra-graph K-layer GIN, *shared weights* across `q` and `G_sub`
//!    (Algorithm 2 lines 2–7);
//! 2. inter-graph K'-layer attentive network on the bipartite graph `G_B`
//!    over the concatenated vertex set (lines 8–12);
//! 3. per-vertex representation `h = h^intra ‖ h^inter` (lines 13–14);
//! 4. sum-pooling readout and a 4-layer MLP head on `h_q ‖ h_{G_sub}`
//!    (lines 15–16).
//!
//! **Count head parameterization.** Ground-truth counts span 10⁰–10¹¹
//! (Table 3), so the head predicts the *log* count `z` and the estimate is
//! `ĉ = e^z`. The q-error loss (Eq. 10) is a pure ratio, hence invariant to
//! this reparameterization — see DESIGN.md §3.

use crate::config::NeurScConfig;
use neursc_gnn::{BipartiteAttention, EdgeList, GinStack};
use neursc_nn::layers::{Activation, Mlp};
use neursc_nn::{ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;

/// Cap on predicted log-counts (e^60 ≈ 1.1e26 — far above any real count)
/// protecting `exp` from f32 overflow.
pub const LOG_COUNT_CAP: f32 = 60.0;

/// The estimation network `f_θ`.
#[derive(Debug, Clone)]
pub struct WEst {
    /// Intra-graph GIN (shared between query and substructures).
    pub gin: GinStack,
    /// Inter-graph attentive network (absent for `NeurSC-I`).
    pub inter: Option<BipartiteAttention>,
    /// 4-layer prediction MLP → scalar log-count.
    pub head: Mlp,
}

/// Per-pair forward outputs.
#[derive(Debug, Clone, Copy)]
pub struct WestOutput {
    /// Final query-vertex representations `H_q` (`[|V(q)|, rep_dim]`).
    pub h_q: Var,
    /// Final substructure-vertex representations `H_{G_sub}`.
    pub h_sub: Var,
    /// Predicted log-count `z` with `ĉ_sub = e^z` (`[1, 1]`), capped at
    /// [`LOG_COUNT_CAP`].
    pub log_count: Var,
}

impl WEst {
    /// Allocates all parameters per `cfg`.
    pub fn new(store: &mut ParamStore, cfg: &NeurScConfig, rng: &mut StdRng) -> Self {
        let gin = GinStack::new(store, cfg.gin, rng);
        let inter = if cfg.uses_inter() {
            Some(BipartiteAttention::new(store, cfg.attention, rng))
        } else {
            None
        };
        let rep = cfg.rep_dim();
        // 4-layer MLP (paper §6.1): 2·rep → h → h → h → 1.
        let head = Mlp::new(
            store,
            &[
                2 * rep,
                cfg.head_hidden,
                cfg.head_hidden,
                cfg.head_hidden,
                1,
            ],
            Activation::Relu,
            Activation::Identity,
            rng,
        );
        WEst { gin, inter, head }
    }

    /// Algorithm 2 for one `(q, G_sub)` pair.
    ///
    /// * `x_q` / `x_sub` — Eq. 1 initial features.
    /// * `q_edges` / `sub_edges` — message edges of `q` and `G_sub`.
    /// * `gb_edges` — bipartite `G_B` edges over `|V(q)| + |V(G_sub)|`
    ///   combined ids (ignored for intra-only variants).
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's input list
    pub fn forward_pair(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x_q: &Tensor,
        q_edges: &EdgeList,
        x_sub: &Tensor,
        sub_edges: &EdgeList,
        gb_edges: &EdgeList,
    ) -> WestOutput {
        let nq = x_q.rows();
        let ns = x_sub.rows();
        let xq = tape.constant(x_q.clone());
        let xs = tape.constant(x_sub.clone());

        // Intra-graph GIN — same parameters on both graphs.
        let (hq_intra, hs_intra) = {
            let _sp = crate::obs::Span::enter("gnn.intra");
            (
                self.gin.forward(tape, store, xq, q_edges),
                self.gin.forward(tape, store, xs, sub_edges),
            )
        };

        let (h_q, h_sub) = if let Some(inter) = &self.inter {
            // Inter-graph attention over the combined vertex set, starting
            // from initial features (Algorithm 2 line 9 refines X).
            let _sp = crate::obs::Span::enter("gnn.inter");
            // Stacked outside the tape, so that the first layer sees a
            // constant and computes no gradient for its input.
            let mut x_all = Vec::with_capacity(x_q.len() + x_sub.len());
            x_all.extend_from_slice(x_q.data());
            x_all.extend_from_slice(x_sub.data());
            let x_all = tape.constant(Tensor::from_vec(nq + ns, x_q.cols(), x_all));
            let h_all = inter.forward(tape, store, x_all, gb_edges);
            let hq_inter = tape.slice_rows(h_all, 0, nq);
            let hs_inter = tape.slice_rows(h_all, nq, nq + ns);
            (
                tape.concat_cols(hq_intra, hq_inter),
                tape.concat_cols(hs_intra, hs_inter),
            )
        } else {
            (hq_intra, hs_intra)
        };

        // Readout + prediction (lines 15–16). Sum pooling is the paper's
        // Readout; the signed log1p keeps the head's input scale comparable
        // between a 6-vertex query and a 10⁴-vertex substructure (a
        // monotone per-coordinate map, so injectivity — and the Theorem 5.3
        // expressiveness argument — is preserved). See DESIGN.md §3.
        let log_count = {
            let _sp = crate::obs::Span::enter("gnn.readout");
            let rq = {
                let s = tape.sum_rows(h_q);
                log1p_signed(tape, s)
            };
            let rs = {
                let s = tape.sum_rows(h_sub);
                log1p_signed(tape, s)
            };
            let hp = tape.concat_cols(rq, rs);
            let z = self.head.forward(tape, store, hp);
            clamp_max(tape, z, LOG_COUNT_CAP)
        };
        WestOutput {
            h_q,
            h_sub,
            log_count,
        }
    }

    /// Tape-free intra-GIN pass over the query graph. `H_q^intra` depends
    /// only on the query, so the fused estimate path computes it once per
    /// prepared query and shares it across every substructure's
    /// [`WEst::forward_pair_infer`] — work the tape path redoes per pair.
    pub fn infer_query_intra(
        &self,
        ctx: &mut neursc_nn::infer::InferCtx<'_>,
        x_q: &Tensor,
        q_edges: &EdgeList,
    ) -> Tensor {
        self.gin.infer_forward(ctx, x_q, q_edges)
    }

    /// Tape-free Algorithm 2 for one `(q, G_sub)` pair, returning the
    /// predicted log-count directly. Bit-identical to
    /// [`WEst::forward_pair`] at f32 (`hq_intra` must come from
    /// [`WEst::infer_query_intra`] on the same context weights); pinned by
    /// `neursc-nn/tests/infer_equivalence.rs`.
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's input list
    pub fn forward_pair_infer(
        &self,
        ctx: &mut neursc_nn::infer::InferCtx<'_>,
        x_q: &Tensor,
        hq_intra: &Tensor,
        x_sub: &Tensor,
        sub_edges: &EdgeList,
        gb_edges: &EdgeList,
    ) -> f32 {
        let nq = x_q.rows();

        let hs_intra = {
            let _sp = crate::obs::Span::enter("gnn.intra");
            self.gin.infer_forward(ctx, x_sub, sub_edges)
        };
        let h_all = self.inter.as_ref().map(|inter| {
            let _sp = crate::obs::Span::enter("gnn.inter");
            let x_all = ctx.concat_rows(x_q, x_sub);
            let h_all = inter.infer_forward(ctx, &x_all, gb_edges);
            ctx.recycle(x_all);
            h_all
        });

        let z = {
            let _sp = crate::obs::Span::enter("gnn.readout");
            // `hp = [Σ h_q ‖ Σ h_sub]`, where `h_q = [hq_intra ‖ h_all[..nq]]`
            // and `h_sub = [hs_intra ‖ h_all[nq..]]`: every block's column
            // sums go straight to their place in `hp`, row-ascending from
            // `+0.0` as the tape's `sum_rows` adds them, with no block
            // concatenated or sliced first.
            let (intra, inter) = (hq_intra.cols(), h_all.as_ref().map_or(0, Tensor::cols));
            let mut hp = ctx.alloc(1, 2 * (intra + inter));
            let (rq, rs) = hp.data_mut().split_at_mut(intra + inter);
            add_rows(&mut rq[..intra], hq_intra.data());
            add_rows(&mut rs[..intra], hs_intra.data());
            if let Some(h_all) = &h_all {
                let (hq_inter, hs_inter) = h_all.data().split_at(nq * inter);
                add_rows(&mut rq[intra..], hq_inter);
                add_rows(&mut rs[intra..], hs_inter);
            }
            for v in hp.data_mut() {
                *v = log1p_signed_scalar(*v);
            }
            let zt = self.head.infer_forward(ctx, &hp);
            ctx.recycle(hp);
            let z = clamp_max_scalar(zt.item(), LOG_COUNT_CAP);
            ctx.recycle(zt);
            z
        };
        if let Some(h_all) = h_all {
            ctx.recycle(h_all);
        }
        ctx.recycle(hs_intra);
        z
    }

    /// All estimation-network parameter ids (`θ`).
    pub fn params(&self) -> Vec<ParamId> {
        let mut p = self.gin.params();
        if let Some(inter) = &self.inter {
            p.extend(inter.params());
        }
        p.extend(self.head.params());
        p
    }
}

/// Adds the rows of the row-major matrix `rows` (`out.len()` wide) onto
/// `out`, row-ascending.
fn add_rows(out: &mut [f32], rows: &[f32]) {
    if out.is_empty() {
        return; // `chunks_exact(0)` would panic
    }
    for row in rows.chunks_exact(out.len()) {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
}

/// Sign-preserving logarithmic compression
/// `ln(1 + relu(x)) − ln(1 + relu(−x))` — strictly monotone per
/// coordinate, identity-like near 0, logarithmic for large |x| — as one
/// tape node; [`log1p_signed_scalar`] is the map it applies.
pub fn log1p_signed(tape: &mut Tape, x: Var) -> Var {
    tape.log1p_signed(x)
}

/// Differentiable `min(x, cap) = cap − relu(cap − x)` (gradient 1 below the
/// cap, 0 above) as one tape node; [`clamp_max_scalar`] is the map it
/// applies.
pub fn clamp_max(tape: &mut Tape, x: Var, cap: f32) -> Var {
    tape.clamp_max(x, cap)
}

pub use neursc_nn::kernels::{clamp_max_scalar, log1p_signed_scalar};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::build_bipartite_edges;
    use crate::config::Variant;
    use crate::context::GraphContext;
    use crate::extraction::extract_substructures_with;
    use neursc_gnn::init_features;
    use neursc_match::profile::{paper_data_graph, paper_query_graph};
    use rand::SeedableRng;

    fn forward_once(variant: Variant) -> (f32, (usize, usize), (usize, usize)) {
        let cfg = NeurScConfig::small().with_variant(variant);
        let q = paper_query_graph();
        let g = paper_data_graph();
        let ex = extract_substructures_with(&q, &g, &cfg, &GraphContext::new());
        let sub = &ex.substructures[0];
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let west = WEst::new(&mut store, &cfg, &mut rng);
        let mut tape = Tape::new();
        let x_q = init_features(&q, &cfg.features);
        let x_s = init_features(&sub.graph, &cfg.features);
        let gb = build_bipartite_edges(&q, sub, &mut rng);
        let out = west.forward_pair(
            &mut tape,
            &store,
            &x_q,
            &EdgeList::from_graph(&q),
            &x_s,
            &EdgeList::from_graph(&sub.graph),
            &gb,
        );
        (
            tape.value(out.log_count).item(),
            tape.value(out.h_q).shape(),
            tape.value(out.h_sub).shape(),
        )
    }

    #[test]
    fn full_variant_shapes() {
        let (z, hq, hs) = forward_once(Variant::Full);
        assert!(z.is_finite());
        assert_eq!(hq, (4, 64)); // 32 intra + 32 inter
        assert_eq!(hs, (6, 64));
    }

    #[test]
    fn intra_only_variant_shapes() {
        let (_, hq, hs) = forward_once(Variant::IntraOnly);
        assert_eq!(hq, (4, 32));
        assert_eq!(hs, (6, 32));
    }

    #[test]
    fn log_count_is_capped() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::scalar(1_000.0));
        let c = clamp_max(&mut tape, x, LOG_COUNT_CAP);
        assert_eq!(tape.value(c).item(), LOG_COUNT_CAP);
        let y = tape.constant(Tensor::scalar(-3.0));
        let c2 = clamp_max(&mut tape, y, LOG_COUNT_CAP);
        assert_eq!(tape.value(c2).item(), -3.0);
    }

    #[test]
    fn clamp_max_passes_gradient_below_cap() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::scalar(5.0));
        let mut tape = Tape::new();
        let x = tape.param(&store, p);
        let c = clamp_max(&mut tape, x, 10.0);
        let loss = tape.sum(c);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(p).item(), 1.0);
    }

    #[test]
    fn head_param_count_matches_4_layers() {
        let cfg = NeurScConfig::small();
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let west = WEst::new(&mut store, &cfg, &mut rng);
        assert_eq!(west.head.layers.len(), 4);
        assert_eq!(west.head.in_dim(), 2 * cfg.rep_dim());
        assert_eq!(west.head.out_dim(), 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = forward_once(Variant::Full);
        let b = forward_once(Variant::Full);
        assert_eq!(a.0, b.0);
    }
}
