//! Reverse-mode automatic differentiation tape.
//!
//! Each operation appends a node holding its forward value and enough
//! metadata to run its vector–Jacobian product; [`Tape::backward`] walks the
//! node list once in reverse, accumulating gradients, and finally deposits
//! parameter gradients into the [`ParamStore`].
//!
//! Broadcasting is deliberately restricted to the two cases GNN code needs —
//! a `[1, c]` row (bias) or a `[1, 1]` scalar in the *second* operand of
//! `add`/`sub`/`mul`/`div` — keeping both kernels and their gradients
//! obviously correct (gradients of a broadcast operand are reduced by
//! summation over the broadcast dimension).
//!
//! Beside the primitive ops, the layers the models are built from — a dense
//! layer, the GIN combine, an attention layer, the readout's scalar maps —
//! are each recorded as one *coarse* node (the `coarse` submodule): same
//! values and same gradient bits as the primitive chain, a fraction of the
//! nodes.

mod coarse;

use crate::tensor::Tensor;
use crate::{ParamId, ParamStore};
use coarse::{AttentionOp, GinCombineOp, LinearOp, Pass};
use std::sync::Arc;

/// Handle to a node on a [`Tape`]. Cheap to copy; only valid for the tape
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(u32);

#[derive(Debug)]
enum Op {
    Leaf {
        /// The bound parameter and the store version its value was copied
        /// at (`None` for a constant).
        param: Option<(ParamId, u64)>,
    },
    MatMul(u32, u32),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Scale(u32, f32),
    AddScalar(u32),
    Neg(u32),
    Relu(u32),
    LeakyRelu(u32, f32),
    Sigmoid(u32),
    Tanh(u32),
    Softplus(u32),
    Exp(u32),
    /// ln(x + eps)
    Ln(u32, f32),
    Abs(u32),
    Sum(u32),
    SumRows(u32),
    MeanRows(u32),
    ConcatCols(u32, u32),
    ConcatRows(u32, u32),
    IndexSelect(u32, Vec<u32>),
    SegmentSum(u32, Vec<u32>),
    SliceRows(u32, usize),
    Transpose(u32),
    /// Elementwise multiply by a fixed (non-differentiated) mask.
    MulConst(u32, Tensor),
    // One node per layer (the `coarse` submodule).
    Linear(LinearOp),
    GinCombine(GinCombineOp),
    Attention(Box<AttentionOp>),
    Log1pSigned(u32),
    ClampMax(u32, f32),
}

/// A node's forward value: computed by the node, or — for a bound
/// parameter — the store's own tensor, shared rather than copied.
enum Value {
    Own(Tensor),
    Param(Arc<Tensor>),
}

impl std::ops::Deref for Value {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Own(t) => t,
            Value::Param(t) => t,
        }
    }
}

struct Node {
    value: Value,
    op: Op,
}

/// A single forward pass's computation graph.
///
/// Create one per forward/backward cycle; drop it afterwards (parameters
/// persist in the [`ParamStore`], not on the tape).
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.push_node(Value::Own(value), op)
    }

    fn push_node(&mut self, value: Value, op: Op) -> Var {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { value, op });
        self.grads.push(None);
        Var(idx)
    }

    /// Forward value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0 as usize].value
    }

    /// Gradient of the last [`Tape::backward`] loss w.r.t. `v`, if any
    /// reached it. A [`Tape::constant`] never has one.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads[v.0 as usize].as_ref()
    }

    // ----- leaves ---------------------------------------------------------

    /// Introduces a constant: a value the loss is not differentiated by.
    /// Backward computes and keeps no gradient for it.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf { param: None })
    }

    /// Binds parameter `pid` at its current value — shared with the store,
    /// which copies it only if it changes while this tape is alive — so
    /// that `backward` accumulates its gradient into the store.
    pub fn param(&mut self, store: &ParamStore, pid: ParamId) -> Var {
        let param = Some((pid, store.version()));
        self.push_node(Value::Param(store.shared_value(pid)), Op::Leaf { param })
    }

    // ----- arithmetic ------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a.0, b.0))
    }

    /// `a + b`; `b` may be `[1, c]` (row broadcast) or `[1, 1]` (scalar).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = broadcast_zip(self.value(a), self.value(b), |x, y| x + y);
        self.push(v, Op::Add(a.0, b.0))
    }

    /// `a - b`; same broadcasting as [`Tape::add`].
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = broadcast_zip(self.value(a), self.value(b), |x, y| x - y);
        self.push(v, Op::Sub(a.0, b.0))
    }

    /// Elementwise `a * b`; same broadcasting as [`Tape::add`].
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = broadcast_zip(self.value(a), self.value(b), |x, y| x * y);
        self.push(v, Op::Mul(a.0, b.0))
    }

    /// Elementwise `a / b`; same broadcasting as [`Tape::add`].
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = broadcast_zip(self.value(a), self.value(b), |x, y| x / y);
        self.push(v, Op::Div(a.0, b.0))
    }

    /// `a * s` for a compile-time constant `s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).map(|x| x * s);
        self.push(v, Op::Scale(a.0, s))
    }

    /// `a + s` elementwise for a constant `s`.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).map(|x| x + s);
        self.push(v, Op::AddScalar(a.0))
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| -x);
        self.push(v, Op::Neg(a.0))
    }

    // ----- nonlinearities ---------------------------------------------------

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a.0))
    }

    /// LeakyReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let v = self.value(a).map(|x| if x >= 0.0 { x } else { slope * x });
        self.push(v, Op::LeakyRelu(a.0, slope))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(stable_sigmoid);
        self.push(v, Op::Sigmoid(a.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a.0))
    }

    /// Numerically stable softplus `ln(1 + e^x)` (the positive count head).
    pub fn softplus(&mut self, a: Var) -> Var {
        let v = self.value(a).map(stable_softplus);
        self.push(v, Op::Softplus(a.0))
    }

    /// `e^x`.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::exp);
        self.push(v, Op::Exp(a.0))
    }

    /// `ln(x + eps)` — callers choose `eps ≥ 0` for domain safety.
    pub fn ln(&mut self, a: Var, eps: f32) -> Var {
        let v = self.value(a).map(|x| (x + eps).ln());
        self.push(v, Op::Ln(a.0, eps))
    }

    /// `|x|`.
    pub fn abs(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::abs);
        self.push(v, Op::Abs(a.0))
    }

    // ----- reductions & reshapes ---------------------------------------------

    /// Sum of all elements → `[1, 1]`.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum_all());
        self.push(v, Op::Sum(a.0))
    }

    /// Column sums (sum over rows) → `[1, c]`. This is the paper's
    /// sum-pooling `Readout`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let mut out = Tensor::zeros(1, t.cols());
        for r in 0..t.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(t.row(r)) {
                *o += x;
            }
        }
        self.push(out, Op::SumRows(a.0))
    }

    /// Column means → `[1, c]` (mean pooling, used by Eq. 1 features).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let n = t.rows().max(1) as f32;
        let mut out = Tensor::zeros(1, t.cols());
        for r in 0..t.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(t.row(r)) {
                *o += x;
            }
        }
        out.scale_assign(1.0 / n);
        self.push(out, Op::MeanRows(a.0))
    }

    /// Horizontal concatenation `[n, c1] ‖ [n, c2] → [n, c1+c2]` (the
    /// paper's `h^intra ‖ h^inter`).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.rows(), tb.rows(), "concat_cols row mismatch");
        let mut out = Tensor::zeros(ta.rows(), ta.cols() + tb.cols());
        for r in 0..ta.rows() {
            out.row_mut(r)[..ta.cols()].copy_from_slice(ta.row(r));
            out.row_mut(r)[ta.cols()..].copy_from_slice(tb.row(r));
        }
        self.push(out, Op::ConcatCols(a.0, b.0))
    }

    /// Vertical concatenation `[n1, c] ‖ [n2, c] → [n1+n2, c]`.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.cols(), tb.cols(), "concat_rows col mismatch");
        let mut data = Vec::with_capacity(ta.len() + tb.len());
        data.extend_from_slice(ta.data());
        data.extend_from_slice(tb.data());
        let out = Tensor::from_vec(ta.rows() + tb.rows(), ta.cols(), data);
        self.push(out, Op::ConcatRows(a.0, b.0))
    }

    /// Row gather: `out[j] = a[idx[j]]` — the "lift node features onto
    /// edges" step of message passing.
    pub fn index_select(&mut self, a: Var, idx: &[u32]) -> Var {
        let t = self.value(a);
        let mut out = Tensor::zeros(idx.len(), t.cols());
        for (j, &i) in idx.iter().enumerate() {
            out.row_mut(j).copy_from_slice(t.row(i as usize));
        }
        self.push(out, Op::IndexSelect(a.0, idx.to_vec()))
    }

    /// Row scatter-add: `out[s] = Σ_{j: seg[j] = s} a[j]` over `n_out`
    /// output rows — the "aggregate messages per destination" step.
    pub fn segment_sum(&mut self, a: Var, seg: &[u32], n_out: usize) -> Var {
        let t = self.value(a);
        assert_eq!(t.rows(), seg.len(), "segment_sum index length mismatch");
        let mut out = Tensor::zeros(n_out, t.cols());
        for (j, &s) in seg.iter().enumerate() {
            let s = s as usize;
            assert!(s < n_out, "segment id {s} out of range {n_out}");
            for (o, &x) in out.row_mut(s).iter_mut().zip(t.row(j)) {
                *o += x;
            }
        }
        self.push(out, Op::SegmentSum(a.0, seg.to_vec()))
    }

    /// Matrix transpose `[n, m] → [m, n]`.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a.0))
    }

    /// Contiguous row slice `a[start..end]`.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let t = self.value(a);
        assert!(start <= end && end <= t.rows(), "slice_rows out of range");
        let out = Tensor::from_vec(
            end - start,
            t.cols(),
            t.data()[start * t.cols()..end * t.cols()].to_vec(),
        );
        self.push(out, Op::SliceRows(a.0, start))
    }

    /// Multiplies by a fixed tensor that receives no gradient (masks,
    /// per-row degree normalisation).
    pub fn mul_const(&mut self, a: Var, mask: Tensor) -> Var {
        assert_eq!(
            self.value(a).shape(),
            mask.shape(),
            "mul_const shape mismatch"
        );
        let v = broadcast_zip(self.value(a), &mask, |x, y| x * y);
        self.push(v, Op::MulConst(a.0, mask))
    }

    // ----- non-differentiable helpers ----------------------------------------

    /// Per-segment maxima of a `[n, 1]` column, detached from the graph —
    /// used to stabilize segment softmax (subtracting a constant shifts
    /// logits without changing gradients).
    pub fn segment_max_detached(&self, a: Var, seg: &[u32], n_out: usize) -> Tensor {
        let t = self.value(a);
        assert_eq!(t.cols(), 1, "segment_max expects a column vector");
        let mut out = Tensor::from_vec(n_out, 1, vec![f32::NEG_INFINITY; n_out]);
        for (j, &s) in seg.iter().enumerate() {
            let cur = out.get(s as usize, 0);
            out.set(s as usize, 0, cur.max(t.get(j, 0)));
        }
        // Segments with no members: use 0 so downstream exp(x - 0) is safe.
        for s in 0..n_out {
            if out.get(s, 0) == f32::NEG_INFINITY {
                out.set(s, 0, 0.0);
            }
        }
        out
    }

    // ----- backward ------------------------------------------------------------

    /// Runs reverse-mode differentiation from scalar `loss` and accumulates
    /// parameter gradients into `store`.
    ///
    /// Ownership rule of the pass: a node's gradient is *borrowed* while the
    /// node propagates — taken out of its slot, read by reference, put back
    /// — and every contribution to an input is either a freshly computed
    /// tensor moved into the input's slot or an in-place `+=` on the
    /// gradient already there. Nothing is cloned except where an op hands
    /// its gradient on unchanged (`add`, `sub`'s left operand, `add_scalar`)
    /// into a slot that is still empty. Putting the gradient back is what keeps
    /// [`Tape::grad`] answering for every node the loss reaches.
    ///
    /// # Panics
    /// If `loss` is not a `[1, 1]` tensor.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        for g in &mut self.grads {
            *g = None;
        }
        self.grads[loss.0 as usize] = Some(Tensor::scalar(1.0));

        let mut transposed = TransposedParams::new();
        for i in (0..self.nodes.len()).rev() {
            // Inputs precede their node, so slot `i` is never written while
            // it is out.
            let Some(gout) = self.grads[i].take() else {
                continue;
            };
            self.propagate(i, &gout, &mut transposed);
            self.grads[i] = Some(gout);
        }
        // Deposit parameter gradients.
        for (node, g) in self.nodes.iter().zip(&self.grads) {
            let (Op::Leaf { param }, Some(g)) = (&node.op, g) else {
                continue;
            };
            if let Some((pid, _)) = *param {
                store.accumulate_grad(pid, g);
            }
        }
    }

    fn propagate(&mut self, i: usize, gout: &Tensor, transposed: &mut TransposedParams) {
        let Tape { nodes, grads } = self;
        let grads = &mut Slots { grads, nodes };
        let value = |v: u32| -> &Tensor { &nodes[v as usize].value };
        match &nodes[i].op {
            Op::Leaf { .. } => {}
            &Op::Add(a, b) => {
                pass_grad(grads, a, gout);
                match reduce_broadcast(gout, value(b).shape()) {
                    Some(gb) => add_grad(grads, b, gb),
                    None => pass_grad(grads, b, gout),
                }
            }
            &Op::Sub(a, b) => {
                pass_grad(grads, a, gout);
                // Reduce, then negate: the other order flips the sign of a
                // zero sum.
                let gb = match reduce_broadcast(gout, value(b).shape()) {
                    Some(mut gb) => {
                        gb.scale_assign(-1.0);
                        gb
                    }
                    None => gout.map(|g| -g),
                };
                add_grad(grads, b, gb);
            }
            &Op::Mul(a, b) => {
                let ga = broadcast_zip(gout, value(b), |g, y| g * y);
                let gb_full = broadcast_zip(gout, value(a), |g, x| g * x);
                // NB: gout and a have the same (full) shape, so zip is exact.
                let gb = reduce_broadcast(&gb_full, value(b).shape()).unwrap_or(gb_full);
                add_grad(grads, a, ga);
                add_grad(grads, b, gb);
            }
            &Op::Div(a, b) => {
                let (av, bv) = (value(a), value(b));
                let ga = broadcast_zip(gout, bv, |g, y| g / y);
                // d(a/b)/db = -a / b²  (broadcast-aware)
                let ratio = broadcast_zip(av, bv, |x, y| -x / (y * y));
                let gb_full = {
                    assert_eq!(gout.shape(), ratio.shape());
                    broadcast_zip(gout, &ratio, |g, r| g * r)
                };
                let gb = reduce_broadcast(&gb_full, bv.shape()).unwrap_or(gb_full);
                add_grad(grads, a, ga);
                add_grad(grads, b, gb);
            }
            &Op::Scale(a, s) => add_grad(grads, a, gout.map(|g| g * s)),
            &Op::AddScalar(a) => pass_grad(grads, a, gout),
            &Op::Neg(a) => add_grad(grads, a, gout.map(|g| -g)),
            &Op::Relu(a) => {
                let g = elementwise2(gout, value(a), |g, x| if x > 0.0 { g } else { 0.0 });
                add_grad(grads, a, g);
            }
            &Op::LeakyRelu(a, slope) => {
                let g = elementwise2(gout, value(a), |g, x| if x >= 0.0 { g } else { slope * g });
                add_grad(grads, a, g);
            }
            &Op::Sigmoid(a) => {
                let g = elementwise2(gout, value(i as u32), |g, y| g * y * (1.0 - y));
                add_grad(grads, a, g);
            }
            &Op::Tanh(a) => {
                let g = elementwise2(gout, value(i as u32), |g, y| g * (1.0 - y * y));
                add_grad(grads, a, g);
            }
            &Op::Softplus(a) => {
                let g = elementwise2(gout, value(a), |g, x| g * stable_sigmoid(x));
                add_grad(grads, a, g);
            }
            &Op::Exp(a) => {
                let g = elementwise2(gout, value(i as u32), |g, y| g * y);
                add_grad(grads, a, g);
            }
            &Op::Ln(a, eps) => {
                let g = elementwise2(gout, value(a), |g, x| g / (x + eps));
                add_grad(grads, a, g);
            }
            &Op::Abs(a) => {
                let g = elementwise2(gout, value(a), |g, x| if x >= 0.0 { g } else { -g });
                add_grad(grads, a, g);
            }
            &Op::Sum(a) => {
                let shape = value(a).shape();
                let mut g = Tensor::zeros(shape.0, shape.1);
                g.fill(gout.item());
                add_grad(grads, a, g);
            }
            &Op::SumRows(a) => {
                let shape = value(a).shape();
                let mut g = Tensor::zeros(shape.0, shape.1);
                for r in 0..shape.0 {
                    g.row_mut(r).copy_from_slice(gout.row(0));
                }
                add_grad(grads, a, g);
            }
            &Op::MeanRows(a) => {
                let shape = value(a).shape();
                let n = shape.0.max(1) as f32;
                let mut g = Tensor::zeros(shape.0, shape.1);
                for r in 0..shape.0 {
                    for (o, &x) in g.row_mut(r).iter_mut().zip(gout.row(0)) {
                        *o = x / n;
                    }
                }
                add_grad(grads, a, g);
            }
            &Op::ConcatCols(a, b) => {
                let ca = value(a).cols();
                let cb = value(b).cols();
                let rows = gout.rows();
                let mut ga = Tensor::zeros(rows, ca);
                let mut gb = Tensor::zeros(rows, cb);
                for r in 0..rows {
                    ga.row_mut(r).copy_from_slice(&gout.row(r)[..ca]);
                    gb.row_mut(r).copy_from_slice(&gout.row(r)[ca..]);
                }
                add_grad(grads, a, ga);
                add_grad(grads, b, gb);
            }
            &Op::ConcatRows(a, b) => {
                let ra = value(a).rows();
                let rb = value(b).rows();
                let cols = gout.cols();
                let ga = Tensor::from_vec(ra, cols, gout.data()[..ra * cols].to_vec());
                let gb = Tensor::from_vec(rb, cols, gout.data()[ra * cols..].to_vec());
                add_grad(grads, a, ga);
                add_grad(grads, b, gb);
            }
            Op::IndexSelect(a, idx) => {
                let shape = value(*a).shape();
                let mut g = Tensor::zeros(shape.0, shape.1);
                for (j, &i2) in idx.iter().enumerate() {
                    for (o, &x) in g.row_mut(i2 as usize).iter_mut().zip(gout.row(j)) {
                        *o += x;
                    }
                }
                add_grad(grads, *a, g);
            }
            Op::SegmentSum(a, seg) => {
                let shape = value(*a).shape();
                let mut g = Tensor::zeros(shape.0, shape.1);
                for (j, &s) in seg.iter().enumerate() {
                    g.row_mut(j).copy_from_slice(gout.row(s as usize));
                }
                add_grad(grads, *a, g);
            }
            &Op::Transpose(a) => add_grad(grads, a, gout.transpose()),
            &Op::SliceRows(a, start) => {
                let shape = value(a).shape();
                let mut g = Tensor::zeros(shape.0, shape.1);
                for r in 0..gout.rows() {
                    g.row_mut(start + r).copy_from_slice(gout.row(r));
                }
                add_grad(grads, a, g);
            }
            Op::MulConst(a, mask) => {
                let g = broadcast_zip(gout, mask, |g, m| g * m);
                add_grad(grads, *a, g);
            }
            // Products and the coarse nodes: `coarse.rs`.
            op => Pass { grads, transposed }.propagate(op, value(i as u32), gout),
        }
    }
}

/// `Wᵀ` of each parameter value — keyed like [`Op::Leaf`] — a backward pass
/// has met as a matmul's right operand.
type TransposedParams = std::collections::HashMap<(ParamId, u64), Tensor>;

/// The gradient slots of a pass. A constant's slot is closed: nothing reads
/// a constant's gradient, so a contribution to one is dropped — and where it
/// would cost a product or a scatter, [`Slots::wants`] lets the op skip
/// computing it. No other slot sees a different sequence of additions.
struct Slots<'a> {
    grads: &'a mut [Option<Tensor>],
    nodes: &'a [Node],
}

impl Slots<'_> {
    /// Whether `idx` takes gradient: anything but a constant leaf.
    fn wants(&self, idx: u32) -> bool {
        !matches!(self.nodes[idx as usize].op, Op::Leaf { param: None })
    }

    /// `idx`'s slot, or `None` for a closed one.
    fn slot(&mut self, idx: u32) -> Option<&mut Option<Tensor>> {
        self.wants(idx).then(|| &mut self.grads[idx as usize])
    }
}

/// Adds a freshly computed contribution into `idx`'s gradient slot.
fn add_grad(grads: &mut Slots<'_>, idx: u32, delta: Tensor) {
    match grads.slot(idx) {
        Some(Some(g)) => g.add_assign(&delta),
        Some(slot) => *slot = Some(delta),
        None => {}
    }
}

/// Hands a node's own gradient on unchanged: `+=` into an occupied slot,
/// the pass's only clone into an empty one.
fn pass_grad(grads: &mut Slots<'_>, idx: u32, gout: &Tensor) {
    match grads.slot(idx) {
        Some(Some(g)) => g.add_assign(gout),
        Some(slot) => *slot = Some(gout.clone()),
        None => {}
    }
}

/// Applies `f` over `a` zipped with `b`, where `b` may be the same shape,
/// a `[1, cols]` row, or a `[1, 1]` scalar.
fn broadcast_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    if (ar, ac) == (br, bc) {
        let data = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| f(x, y))
            .collect();
        return Tensor::from_vec(ar, ac, data);
    }
    if (br, bc) == (1, 1) {
        let y = b.data()[0];
        return a.map(|x| f(x, y));
    }
    let mut out = a.clone();
    let rows = out.data_mut().chunks_exact_mut(ac.max(1));
    if br == 1 && bc == ac {
        for row in rows {
            for (o, &y) in row.iter_mut().zip(b.data()) {
                *o = f(*o, y);
            }
        }
        return out;
    }
    if bc == 1 && br == ar {
        // Column broadcast: one scalar per row of `a` (attention weights).
        for (row, &y) in rows.zip(b.data()) {
            row.iter_mut().for_each(|o| *o = f(*o, y));
        }
        return out;
    }
    panic!(
        "incompatible broadcast: {:?} with {:?}",
        a.shape(),
        b.shape()
    );
}

/// Reduces a full-shape gradient down to the shape of an operand that was
/// broadcast, by summing over the broadcast dimensions; `None` when the
/// operand had the full shape and the gradient is its own as it stands.
fn reduce_broadcast(g: &Tensor, target: (usize, usize)) -> Option<Tensor> {
    if g.shape() == target {
        return None;
    }
    if target == (1, 1) {
        return Some(Tensor::scalar(g.sum_all()));
    }
    if target.0 == 1 && target.1 == g.cols() {
        let mut out = Tensor::zeros(1, g.cols());
        for r in 0..g.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(g.row(r)) {
                *o += x;
            }
        }
        return Some(out);
    }
    if target.1 == 1 && target.0 == g.rows() {
        // Column-broadcast reduction: sum across columns per row.
        let mut out = Tensor::zeros(g.rows(), 1);
        for r in 0..g.rows() {
            out.set(r, 0, g.row(r).iter().sum());
        }
        return Some(out);
    }
    panic!("cannot reduce {:?} to {:?}", g.shape(), target);
}

fn elementwise2(g: &Tensor, x: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(g.shape(), x.shape());
    let data = g
        .data()
        .iter()
        .zip(x.data())
        .map(|(&a, &b)| f(a, b))
        .collect();
    Tensor::from_vec(g.rows(), g.cols(), data)
}

#[inline]
pub(crate) fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

pub(crate) fn stable_softplus(x: f32) -> f32 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_store() -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let p = s.alloc(Tensor::scalar(2.0));
        (s, p)
    }

    #[test]
    fn simple_chain_gradient() {
        // loss = (3 * p)², p = 2 → dloss/dp = 2·3p·3 = 36
        let (mut store, p) = scalar_store();
        let mut t = Tape::new();
        let x = t.param(&store, p);
        let y = t.scale(x, 3.0);
        let sq = t.mul(y, y);
        let loss = t.sum(sq);
        t.backward(loss, &mut store);
        assert!((store.grad(p).item() - 36.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_gradients_shapes() {
        let mut store = ParamStore::new();
        let w = store.alloc(Tensor::ones(3, 2));
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let wv = t.param(&store, w);
        let y = t.matmul(x, wv);
        let loss = t.sum(y);
        t.backward(loss, &mut store);
        // dL/dW = xᵀ · 1 — each column of W gets x.
        let g = store.grad(w);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.data(), &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn a_weight_rebound_after_a_change_gets_its_own_transpose() {
        // x·W₀·W₁ with W₁ the same parameter as W₀, changed between the two
        // binds: dL/dx = 1·W₁ᵀ·W₀ᵀ must use both values, not one cached Wᵀ.
        let mut store = ParamStore::new();
        let x = store.alloc(Tensor::from_rows(&[&[1.0, 1.0]]));
        let w = store.alloc(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let mut t = Tape::new();
        let xv = t.param(&store, x);
        let w0 = t.param(&store, w);
        let h = t.matmul(xv, w0);
        store.value_mut(w).scale_assign(10.0);
        let w1 = t.param(&store, w);
        let y = t.matmul(h, w1);
        let loss = t.sum(y);
        t.backward(loss, &mut store);
        // 1·W₁ᵀ = [30, 70]; ·W₀ᵀ = [30 + 140, 90 + 280].
        assert_eq!(store.grad(x).data(), &[170.0, 370.0]);
    }

    #[test]
    fn broadcast_add_row_reduces_gradient() {
        let mut store = ParamStore::new();
        let b = store.alloc(Tensor::zeros(1, 2));
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let bv = t.param(&store, b);
        let y = t.add(x, bv);
        let loss = t.sum(y);
        t.backward(loss, &mut store);
        assert_eq!(store.grad(b).data(), &[3.0, 3.0]); // summed over 3 rows
    }

    #[test]
    fn sub_broadcast_scalar() {
        let mut store = ParamStore::new();
        let c = store.alloc(Tensor::scalar(1.0));
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let cv = t.param(&store, c);
        let y = t.sub(x, cv);
        let loss = t.sum(y);
        t.backward(loss, &mut store);
        assert_eq!(store.grad(c).item(), -4.0);
    }

    #[test]
    fn index_select_and_segment_sum_roundtrip() {
        // Gathering rows then scattering them back with identity segments
        // must reproduce sums; gradients must flow to the right rows.
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]));
        let mut t = Tape::new();
        let x = t.param(&store, p);
        let gathered = t.index_select(x, &[2, 2, 0]);
        assert_eq!(t.value(gathered).row(0), &[2.0, 2.0]);
        let scattered = t.segment_sum(gathered, &[0, 1, 1], 2);
        assert_eq!(t.value(scattered).row(1), &[3.0, 2.0]); // rows [2,2] + [1,0]
        let loss = t.sum(scattered);
        t.backward(loss, &mut store);
        // Row 2 was gathered twice → gradient 2; row 0 once; row 1 never.
        let g = store.grad(p);
        assert_eq!(g.row(0), &[1.0, 1.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert_eq!(g.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut store = ParamStore::new();
        let a = store.alloc(Tensor::zeros(2, 1));
        let b = store.alloc(Tensor::zeros(2, 2));
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let bv = t.param(&store, b);
        let y = t.concat_cols(av, bv);
        assert_eq!(t.value(y).shape(), (2, 3));
        let weights = t.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        let weighted = t.mul(y, weights);
        let loss = t.sum(weighted);
        t.backward(loss, &mut store);
        assert_eq!(store.grad(a).data(), &[1.0, 4.0]);
        assert_eq!(store.grad(b).data(), &[2.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_rows_gradient_lands_in_slice() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::zeros(4, 1));
        let mut t = Tape::new();
        let x = t.param(&store, p);
        let s = t.slice_rows(x, 1, 3);
        let loss = t.sum(s);
        t.backward(loss, &mut store);
        assert_eq!(store.grad(p).data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn activations_forward_values() {
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_rows(&[&[-2.0, 0.0, 3.0]]));
        let r = t.relu(x);
        assert_eq!(t.value(r).data(), &[0.0, 0.0, 3.0]);
        let lr = t.leaky_relu(x, 0.1);
        let d = t.value(lr).data();
        assert!((d[0] + 0.2).abs() < 1e-6);
        assert_eq!(d[2], 3.0);
        let s = t.sigmoid(x);
        assert!((t.value(s).data()[1] - 0.5).abs() < 1e-6);
        let sp = t.softplus(x);
        assert!((t.value(sp).data()[1] - (2.0f32).ln()).abs() < 1e-6);
        let e = t.exp(x);
        assert!((t.value(e).data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softplus_is_stable_at_extremes() {
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_rows(&[&[-100.0, 100.0]]));
        let y = t.softplus(x);
        let d = t.value(y).data();
        assert!(d[0] >= 0.0 && d[0] < 1e-6);
        assert!((d[1] - 100.0).abs() < 1e-3);
        assert!(d.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn segment_max_detached_handles_empty_segments() {
        let mut t = Tape::new();
        let x = t.constant(Tensor::from_vec(3, 1, vec![1.0, 5.0, 3.0]));
        let m = t.segment_max_detached(x, &[0, 0, 2], 3);
        assert_eq!(m.data(), &[5.0, 0.0, 3.0]);
    }

    #[test]
    fn grad_available_on_intermediate_nodes() {
        let (mut store, p) = scalar_store();
        let mut t = Tape::new();
        let x = t.param(&store, p);
        let y = t.scale(x, 4.0);
        let loss = t.sum(y);
        t.backward(loss, &mut store);
        assert_eq!(t.grad(y).unwrap().item(), 1.0);
        assert_eq!(t.grad(x).unwrap().item(), 4.0);
        assert_eq!(t.grad(loss).unwrap().item(), 1.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut store = ParamStore::new();
        let mut t = Tape::new();
        let x = t.constant(Tensor::zeros(2, 2));
        t.backward(x, &mut store);
    }

    #[test]
    fn mean_rows_gradient_divides() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::zeros(4, 2));
        let mut t = Tape::new();
        let x = t.param(&store, p);
        let m = t.mean_rows(x);
        let loss = t.sum(m);
        t.backward(loss, &mut store);
        assert!(store
            .grad(p)
            .data()
            .iter()
            .all(|&g| (g - 0.25).abs() < 1e-6));
    }

    #[test]
    fn gradient_accumulates_across_backwards() {
        let (mut store, p) = scalar_store();
        for _ in 0..2 {
            let mut t = Tape::new();
            let x = t.param(&store, p);
            let loss = t.sum(x);
            t.backward(loss, &mut store);
        }
        assert_eq!(store.grad(p).item(), 2.0);
    }
}
