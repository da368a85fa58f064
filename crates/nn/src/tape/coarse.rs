//! Coarse tape nodes: a whole layer recorded as one node.
//!
//! A dense layer, the GIN combine, an attention layer and the readout's two
//! scalar maps each used to be a chain of primitive ops — up to 24 nodes,
//! every one allocating its output and, in backward, a gradient of the
//! same shape. Here each is one node whose **forward** runs the loop body
//! the tape-free arena path runs ([`crate::kernels`]) and whose
//! **backward** is one hand-written vector–Jacobian product that keeps only
//! what it reads again.
//!
//! **The contribution-order rule.** Trained weights must not move, so every
//! VJP reproduces the gradient *bits* of the primitive chain it replaces
//! (written out as the reference in `tests/coarse_nodes.rs`):
//!
//! * per element, the chain's operations in the chain's order — no term
//!   dropped because it is "times zero", no two roundings fused;
//! * a sum the chain accumulated from `+0.0` in edge order (a gather's
//!   gradient) is accumulated from `+0.0` in edge order in a scratch of its
//!   own, never directly on top of a gradient that is already there;
//! * where the chain made several contributions to one input's gradient
//!   slot, the VJP makes the same contributions in the same sequence —
//!   later consumer first, `(S + t₁) + t₂`, never `S + (t₁ + t₂)`;
//! * dense products go through the same kernels ([`Tensor::matmul`] with
//!   the shared `Wᵀ`, `matmul_tn`), broadcast reductions through the same
//!   `reduce_broadcast`.
//!
//! Parameters stay leaves of their own, bound by the layer once per use, so
//! the deposit into the store happens per bind in node order as before.

use super::{
    add_grad, elementwise2, pass_grad, reduce_broadcast, stable_sigmoid, Node, Op, Slots, Tape,
    TransposedParams, Var,
};
use crate::kernels::{self, SOFTMAX_EPS};
use crate::layers::Activation;
use crate::tensor::Tensor;

/// `act(x·w + b)`.
#[derive(Debug)]
pub(super) struct LinearOp {
    x: u32,
    w: u32,
    b: u32,
    act: Activation,
    /// `x·w + b`, kept only when the activation's derivative is not a
    /// function of the output.
    pre: Option<Tensor>,
}

/// `(1 + eps)·h + Σ_{j: dst[j] = ·} h[src[j]]`.
#[derive(Debug)]
pub(super) struct GinCombineOp {
    h: u32,
    eps: u32,
    src: Vec<u32>,
    dst: Vec<u32>,
}

/// One attention layer over `params = [Θ, Θ_a, a]`.
#[derive(Debug)]
pub(super) struct AttentionOp {
    h: u32,
    params: [u32; 3],
    src: Vec<u32>,
    dst: Vec<u32>,
    has_in: Vec<bool>,
    slope: f32,
    /// `None` for an empty edge list, where the layer is `σ(Θh)`.
    saved: Option<AttentionSaved>,
}

/// What an attention node over at least one edge keeps for its backward
/// pass: the two `[n, out]` transforms and four per-edge or per-vertex
/// columns (the primitive chain kept seven `[e, ·]` tensors, three of them
/// `out` or `2·out` wide).
#[derive(Debug)]
struct AttentionSaved {
    /// `Θh`.
    th: Tensor,
    /// `Θ_a h`.
    ta: Tensor,
    /// Per edge: the logit before its LeakyReLU (only its sign is read).
    raw: Vec<f32>,
    /// Per edge: `exp(logit − max over the destination)`.
    exps: Vec<f32>,
    /// Per vertex: the sum of `exps` over its incoming edges.
    denom: Vec<f32>,
    /// Per edge: the attention weight.
    alpha: Vec<f32>,
}

impl Tape {
    /// `act(x·W + b)` as one node, for `x: [n, k]`, `w: [k, m]` and a bias
    /// row `b: [1, m]`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let (xv, wv, bv) = (self.value(x), self.value(w), self.value(b));
        let mut out = Tensor::zeros(xv.rows(), wv.cols());
        // Only these two derivatives read the pre-activation; the others
        // are functions of the output.
        let pre = if matches!(act, Activation::LeakyRelu(_) | Activation::Softplus) {
            kernels::linear_into(xv, wv, false, bv, Activation::Identity, &mut out);
            let pre = out;
            out = pre.map(|v| act.apply_scalar(v));
            Some(pre)
        } else {
            kernels::linear_into(xv, wv, false, bv, act, &mut out);
            None
        };
        let (x, w, b) = (x.0, w.0, b.0);
        self.push(out, Op::Linear(LinearOp { x, w, b, act, pre }))
    }

    /// The GIN combine `(1+ε)·h + Σ_{u'∈N(u)} h_{u'}` as one node: `eps` is
    /// the `[1, 1]` ε, and edge `j` carries `h[src[j]]` into row `dst[j]`.
    pub fn gin_combine(&mut self, h: Var, eps: Var, src: &[u32], dst: &[u32]) -> Var {
        let hv = self.value(h);
        let mut out = Tensor::zeros(hv.rows(), hv.cols());
        let one_plus = self.value(eps).item() + 1.0;
        kernels::gin_combine_into(hv, one_plus, src, dst, &mut out);
        let op = GinCombineOp {
            h: h.0,
            eps: eps.0,
            src: src.to_vec(),
            dst: dst.to_vec(),
        };
        self.push(out, Op::GinCombine(op))
    }

    /// One attention layer as one node: with `[Θ, Θ_a, a]` in `params`,
    /// `σ(Σ_j α_j·Θh[src_j] + fallback)` where `α` is the softmax, over the
    /// edges into each vertex, of `LeakyReLU(a·[Θ_a h_dst ‖ Θ_a h_src])`,
    /// and a vertex no edge reaches (`has_in` false) keeps its own `Θh`.
    /// Without any edge the layer is `σ(Θh)`.
    pub fn attention(
        &mut self,
        h: Var,
        params: [Var; 3],
        src: &[u32],
        dst: &[u32],
        has_in: &[bool],
        slope: f32,
    ) -> Var {
        let [theta, theta_a, attn] = params;
        let th = self.value(h).matmul(self.value(theta));
        let (n, e) = (th.rows(), src.len());
        let (out, saved) = if e == 0 {
            let mut out = th;
            kernels::sigmoid_in_place(out.data_mut());
            (out, None)
        } else {
            let ta = self.value(h).matmul(self.value(theta_a));
            let (mut raw, mut alpha) = (vec![0.0; e], vec![0.0; e]);
            kernels::edge_logits(&ta, self.value(attn).data(), src, dst, |j, logit| {
                raw[j] = logit;
                alpha[j] = Activation::LeakyRelu(slope).apply_scalar(logit);
            });
            let (mut maxes, mut denom, mut exps) = (vec![0.0; n], vec![0.0; n], vec![0.0; e]);
            kernels::segment_softmax(&mut alpha, dst, &mut maxes, &mut denom, Some(&mut exps));
            let mut out = Tensor::zeros(n, th.cols());
            kernels::attend_aggregate(&th, &alpha, src, dst, has_in, &mut out);
            let saved = AttentionSaved {
                th,
                ta,
                raw,
                exps,
                denom,
                alpha,
            };
            (out, Some(saved))
        };
        let op = AttentionOp {
            h: h.0,
            params: params.map(|p| p.0),
            src: src.to_vec(),
            dst: dst.to_vec(),
            has_in: has_in.to_vec(),
            slope,
            saved,
        };
        self.push(out, Op::Attention(Box::new(op)))
    }

    /// [`kernels::log1p_signed_scalar`] elementwise, as one node.
    pub fn log1p_signed(&mut self, x: Var) -> Var {
        let v = self.value(x).map(kernels::log1p_signed_scalar);
        self.push(v, Op::Log1pSigned(x.0))
    }

    /// [`kernels::clamp_max_scalar`] elementwise — a differentiable
    /// `min(x, cap)`, gradient 1 below the cap and 0 above — as one node.
    pub fn clamp_max(&mut self, x: Var, cap: f32) -> Var {
        let v = self.value(x).map(|x| kernels::clamp_max_scalar(x, cap));
        self.push(v, Op::ClampMax(x.0, cap))
    }
}

/// `out[j] = a.row(ia[j]) · b.row(ib[j])`, each dot product summed the way
/// `Iterator::sum` sums a row — from `-0.0`, ascending — four at a time so
/// the four add chains overlap.
fn row_dots(a: &Tensor, ia: &[u32], b: &Tensor, ib: &[u32], out: &mut [f32]) {
    let mut j = 0;
    while j + 4 <= out.len() {
        let ra = std::array::from_fn::<_, 4, _>(|t| a.row(ia[j + t] as usize));
        let rb = std::array::from_fn::<_, 4, _>(|t| b.row(ib[j + t] as usize));
        let mut acc = [-0.0f32; 4];
        for k in 0..a.cols() {
            for t in 0..4 {
                acc[t] += ra[t][k] * rb[t][k];
            }
        }
        out[j..j + 4].copy_from_slice(&acc);
        j += 4;
    }
    for j in j..out.len() {
        let (ra, rb) = (a.row(ia[j] as usize), b.row(ib[j] as usize));
        out[j] = ra.iter().zip(rb).map(|(&x, &y)| x * y).sum();
    }
}

/// `g · valueᵀ(b)`: the input-side gradient of a product with `b` on the
/// right. `bᵀ` is built once per bound parameter value, however many binds
/// and products share the weight.
fn times_transposed(
    nodes: &[Node],
    transposed: &mut TransposedParams,
    g: &Tensor,
    b: u32,
) -> Tensor {
    let node = &nodes[b as usize];
    match node.op {
        Op::Leaf { param: Some(key) } => g.matmul(
            transposed
                .entry(key)
                .or_insert_with(|| node.value.transpose()),
        ),
        _ => g.matmul(&node.value.transpose()),
    }
}

/// The state a VJP works on: the gradient slots (which know the nodes, for
/// values) and the pass's `Wᵀ` cache.
pub(super) struct Pass<'a, 's> {
    pub grads: &'s mut Slots<'a>,
    pub transposed: &'s mut TransposedParams,
}

impl<'a> Pass<'a, '_> {
    /// Hands `gout`, the gradient of a node with value `y`, on to the
    /// node's inputs: for a product and for the coarse nodes.
    pub fn propagate(mut self, op: &Op, y: &Tensor, gout: &Tensor) {
        match op {
            &Op::MatMul(a, b) => self.product(a, b, gout),
            Op::Linear(op) => self.linear(y, gout, op),
            Op::GinCombine(op) => self.gin_combine(gout, op),
            Op::Attention(op) => self.attention(y, gout, op),
            &Op::Log1pSigned(x) => self.log1p_signed(gout, x),
            &Op::ClampMax(x, cap) => self.clamp_max(gout, x, cap),
            _ => unreachable!("every other op propagates in Tape::propagate"),
        }
    }

    /// A node's value, borrowed for as long as the tape's nodes are.
    fn value(&self, v: u32) -> &'a Tensor {
        let nodes: &'a [Node] = self.grads.nodes;
        &nodes[v as usize].value
    }

    /// Both gradients of `left · value(right)` given the product's gradient
    /// `g`: `g · rightᵀ` into `left`'s slot first, then `leftᵀ · g` — which
    /// never builds `leftᵀ`, the `tn` kernel reads `left` by column — into
    /// `right`'s.
    fn product(&mut self, left: u32, right: u32, g: &Tensor) {
        if self.grads.wants(left) {
            let g_left = times_transposed(self.grads.nodes, self.transposed, g, right);
            add_grad(self.grads, left, g_left);
        }
        if self.grads.wants(right) {
            let g_right = self.value(left).matmul_tn(g);
            add_grad(self.grads, right, g_right);
        }
    }

    /// Chain: `x·W` (matmul), `+ b` (broadcast add), activation.
    fn linear(&mut self, y: &Tensor, gout: &Tensor, op: &LinearOp) {
        let LinearOp { x, w, b, act, pre } = op;
        // What the activation's derivative is a function of: the
        // pre-activation where the forward pass kept it, else the output
        // (for ReLU, `y > 0` exactly where the pre-activation is).
        let at = pre.as_ref().unwrap_or(y);
        let through_act = match *act {
            Activation::Identity => None,
            Activation::Relu => Some(elementwise2(gout, at, |g, y| if y > 0.0 { g } else { 0.0 })),
            Activation::LeakyRelu(slope) => {
                Some(elementwise2(
                    gout,
                    at,
                    |g, x| {
                        if x >= 0.0 {
                            g
                        } else {
                            slope * g
                        }
                    },
                ))
            }
            Activation::Sigmoid => Some(elementwise2(gout, at, |g, y| g * y * (1.0 - y))),
            Activation::Tanh => Some(elementwise2(gout, at, |g, y| g * (1.0 - y * y))),
            Activation::Softplus => Some(elementwise2(gout, at, |g, x| g * stable_sigmoid(x))),
        };
        let g = through_act.as_ref().unwrap_or(gout);
        // The add comes after the matmul on the chain, so it propagates
        // first: the bias gets the row sums (or, for a single row, `g` as
        // it stands).
        match reduce_broadcast(g, self.value(*b).shape()) {
            Some(gb) => add_grad(self.grads, *b, gb),
            None => pass_grad(self.grads, *b, g),
        }
        self.product(*x, *w, g);
    }

    /// Chain: `agg = segment_sum(index_select(h, src), dst)`, `1 + ε`,
    /// `h · (1+ε)` (scalar broadcast), `+ agg`.
    fn gin_combine(&mut self, gout: &Tensor, op: &GinCombineOp) {
        let GinCombineOp { h, eps, src, dst } = op;
        let hv = self.value(*h);
        let one_plus = self.value(*eps).item() + 1.0;
        // The scaled self term propagates first (it is the later consumer
        // of `h`): g·(1+ε) into `h`, Σ g·h into ε.
        let products = gout.data().iter().zip(hv.data()).map(|(&g, &x)| g * x);
        let g_eps: f32 = products.sum();
        match self.grads.slot(*h) {
            Some(Some(slot)) => {
                for (o, &g) in slot.data_mut().iter_mut().zip(gout.data()) {
                    *o += g * one_plus;
                }
            }
            Some(slot) => *slot = Some(gout.map(|g| g * one_plus)),
            None => {}
        }
        add_grad(self.grads, *eps, Tensor::scalar(g_eps));
        // Then the neighbour sum, transposed: edge j carries row dst[j] of
        // the gradient back to row src[j], summed from zero in edge order.
        // An empty edge list had no gather on the chain and adds nothing.
        if !src.is_empty() && self.grads.wants(*h) {
            let mut scattered = Tensor::zeros(gout.rows(), gout.cols());
            kernels::gather_add_into(gout, dst, src, &mut scattered);
            add_grad(self.grads, *h, scattered);
        }
    }

    /// Chain (24 nodes): `Θh`, `Θ_a h`; two gathers of `Θ_a h`,
    /// `concat_cols`, `· a`, LeakyReLU; the segment softmax (detached max,
    /// `sub`, `exp`, `segment_sum`, `+ 1e-12`, gather, `div`); gather of
    /// `Θh`, `· α` (column broadcast), `segment_sum`; `Θh ⊙ mask`, `add`,
    /// sigmoid. Without edges: `Θh`, `Θ_a h` (unused), sigmoid.
    fn attention(&mut self, y: &Tensor, gout: &Tensor, op: &AttentionOp) {
        let AttentionOp {
            h,
            params: [theta, theta_a, attn],
            src,
            dst,
            has_in,
            slope,
            saved,
        } = op;
        // Through the output sigmoid: the gradient of `agg + fallback`.
        let g_sum = elementwise2(gout, y, |g, y| g * y * (1.0 - y));
        let Some(saved) = saved else {
            self.product(*h, *theta, &g_sum);
            return;
        };
        let AttentionSaved {
            th,
            ta,
            raw,
            exps,
            denom,
            alpha,
        } = saved;
        let (n, c, e) = (th.rows(), th.cols(), src.len());
        let edges = || src.iter().zip(dst).map(|(&s, &d)| (s as usize, d as usize));

        // The α-weighted aggregate, transposed. Edge j hands row dst[j] of
        // `g_sum` to its message: times α_j back to Θh[src_j] (summed from
        // zero in edge order), dotted with Θh[src_j] to α_j.
        let mut g_th = Tensor::zeros(n, c);
        for (j, (s, d)) in edges().enumerate() {
            for (o, &g) in g_th.row_mut(s).iter_mut().zip(g_sum.row(d)) {
                *o += g * alpha[j];
            }
        }
        let mut g_alpha = vec![0.0f32; e];
        row_dots(&g_sum, dst, th, src, &mut g_alpha);
        // Θh's slot took the fallback's share first (the later consumer),
        // then the gather's: (g·m) + scattered (IEEE addition commutes).
        for (i, &present) in has_in.iter().enumerate() {
            let m = if present { 0.0 } else { 1.0 };
            for (o, &g) in g_th.row_mut(i).iter_mut().zip(g_sum.row(i)) {
                *o += g * m;
            }
        }

        // The softmax. `α = exps / (denom[dst] + ε)`: the quotient's share
        // of `exps`' gradient comes first, the denominator's reaches it
        // second through the per-vertex sum.
        let mut g_denom = vec![0.0f32; n];
        for (j, (_, d)) in edges().enumerate() {
            let y = denom[d] + SOFTMAX_EPS;
            let ratio = -exps[j] / (y * y);
            g_denom[d] += g_alpha[j] * ratio;
            g_alpha[j] /= y;
        }
        // … then through exp and the LeakyReLU to the raw logit, in place.
        let mut g_raw = g_alpha;
        for (j, (_, d)) in edges().enumerate() {
            let g_logit = (g_raw[j] + g_denom[d]) * exps[j];
            g_raw[j] = if raw[j] >= 0.0 {
                g_logit
            } else {
                slope * g_logit
            };
        }

        // The logit `[Θ_a h_dst ‖ Θ_a h_src] · a`, an `[e, 2c] × [2c, 1]`
        // product whose left operand is never built. Its gradient rows
        // `g_raw[j] · aᵀ` (a one-term sum from `+0.0`, a zero `g_raw[j]`
        // skipped) scatter to Θ_a h — src half first, then dst half, each
        // from zero; `a` gets `Σ_j row_j · g_raw[j]` per column.
        let a: &[f32] = self.value(*attn).data();
        let mut g_attn = vec![0.0f32; 2 * c];
        let mut g_ta = Tensor::zeros(n, c);
        let mut g_ta_dst = Tensor::zeros(n, c);
        for (j, (s, d)) in edges().enumerate() {
            let g = g_raw[j];
            let (row_d, row_s) = (ta.row(d), ta.row(s));
            for k in 0..c {
                g_attn[k] += row_d[k] * g;
                g_attn[c + k] += row_s[k] * g;
            }
            // A skipped row is `+0.0`: nothing to add to sums that began at
            // `+0.0` and so never hold a `-0.0`.
            if g != 0.0 {
                for (o, &a) in g_ta_dst.row_mut(d).iter_mut().zip(&a[..c]) {
                    *o += 0.0 + g * a;
                }
                for (o, &a) in g_ta.row_mut(s).iter_mut().zip(&a[c..]) {
                    *o += 0.0 + g * a;
                }
            }
        }
        // The kernel's skip rule for an all-zero left column: only a NaN
        // can differ from the `+0.0` it leaves.
        for (k, o) in g_attn.iter_mut().enumerate() {
            if o.is_nan() {
                let column_is_zero = edges().all(|(s, d)| {
                    let x = if k < c {
                        ta.row(d)[k]
                    } else {
                        ta.row(s)[k - c]
                    };
                    x == 0.0
                });
                if column_is_zero {
                    *o = 0.0;
                }
            }
        }
        g_ta.add_assign(&g_ta_dst);

        // The three products, latest first: `· a`, `Θ_a h`, `Θh`.
        add_grad(self.grads, *attn, Tensor::from_vec(2 * c, 1, g_attn));
        self.product(*h, *theta_a, &g_ta);
        self.product(*h, *theta, &g_th);
    }

    /// Chain: `relu(x)`, `ln(· + 1)`; `−x`, `relu`, `ln(· + 1)`; `sub`. The
    /// negative branch is the later consumer of `x` and contributes first.
    fn log1p_signed(&mut self, gout: &Tensor, x: u32) {
        let negative = |g: f32, x: f32| {
            let nx = -x;
            let through_ln = -g / (nx.max(0.0) + 1.0);
            -(if nx > 0.0 { through_ln } else { 0.0 })
        };
        let positive = |g: f32, x: f32| {
            let through_ln = g / (x.max(0.0) + 1.0);
            if x > 0.0 {
                through_ln
            } else {
                0.0
            }
        };
        let xv = self.value(x);
        match self.grads.slot(x) {
            Some(Some(slot)) => {
                for ((o, &g), &x) in slot.data_mut().iter_mut().zip(gout.data()).zip(xv.data()) {
                    *o += negative(g, x);
                    *o += positive(g, x);
                }
            }
            Some(slot) => {
                *slot = Some(elementwise2(gout, xv, |g, x| {
                    negative(g, x) + positive(g, x)
                }));
            }
            None => {}
        }
    }

    /// Chain: `−x`, `+ cap`, `relu`, `−`, `+ cap`.
    fn clamp_max(&mut self, gout: &Tensor, x: u32, cap: f32) {
        let g = elementwise2(gout, self.value(x), |g, x| {
            let shifted = -x + cap;
            -(if shifted > 0.0 { -g } else { 0.0 })
        });
        add_grad(self.grads, x, g);
    }
}
