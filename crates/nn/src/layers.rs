//! Neural-network layers: `Linear`, activations, `Mlp`.
//!
//! `Mlp` is the workhorse of the paper: GIN's COMBINE is an MLP (Eq. 3),
//! the count head is a 4-layer MLP, and the Wasserstein discriminator is a
//! 3-layer MLP (§6.1 settings).

use crate::init::xavier_uniform;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use crate::{ParamId, ParamStore};
use rand::rngs::StdRng;

/// Pointwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Identity (no activation).
    Identity,
    /// max(0, x) — the paper's σ.
    Relu,
    /// LeakyReLU with the given negative slope (attention logits, Eq. 5).
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Smooth positive map ln(1 + eˣ) — the count head.
    Softplus,
}

impl Activation {
    /// The activation as a scalar map — the one definition both the tape's
    /// [`Tape::linear`] node and the tape-free path apply (through
    /// `kernels::linear_into`), with the same stable sigmoid/softplus forms
    /// as the tape's elementwise ops.
    #[inline]
    pub fn apply_scalar(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(s) => {
                if x >= 0.0 {
                    x
                } else {
                    s * x
                }
            }
            Activation::Sigmoid => crate::tape::stable_sigmoid(x),
            Activation::Tanh => x.tanh(),
            Activation::Softplus => crate::tape::stable_softplus(x),
        }
    }
}

/// A dense affine layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[in_dim, out_dim]`.
    pub w: ParamId,
    /// Bias row `[1, out_dim]`.
    pub b: ParamId,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
}

impl Linear {
    /// Allocates a Xavier-initialized layer in `store`.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let w = store.alloc(xavier_uniform(in_dim, out_dim, rng));
        let b = store.alloc(Tensor::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// `x·W + b` for `x: [n, in_dim]`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        self.forward_act(tape, store, x, Activation::Identity)
    }

    /// `act(x·W + b)` as one tape node ([`Tape::linear`]) over two
    /// parameter leaves, bound here — once per call, so every use of the
    /// layer deposits its own gradient.
    fn forward_act(&self, tape: &mut Tape, store: &ParamStore, x: Var, act: Activation) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.linear(x, w, b, act)
    }

    /// The parameter ids of this layer (for clamping/serialization).
    pub fn params(&self) -> [ParamId; 2] {
        [self.w, self.b]
    }

    /// Tape-free `act(x·W + b)` into an arena tensor: the same
    /// `kernels::linear_into` pass [`Tape::linear`] runs — no tape node,
    /// no per-op allocation — given the snapshot's finiteness bit of `W`.
    pub fn infer_forward(
        &self,
        ctx: &mut crate::infer::InferCtx<'_>,
        x: &Tensor,
        act: Activation,
    ) -> Tensor {
        let (w, w_finite) = (ctx.param(self.w), ctx.weights().is_finite(self.w));
        let mut out = ctx.alloc_full(x.rows(), w.cols());
        crate::kernels::linear_into(x, w, w_finite, ctx.param(self.b), act, &mut out);
        out
    }
}

/// A multi-layer perceptron with a shared hidden activation and a separate
/// output activation.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// The dense layers, applied in order.
    pub layers: Vec<Linear>,
    /// Activation between hidden layers.
    pub hidden_activation: Activation,
    /// Activation after the final layer.
    pub output_activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[64, 128, 1]` for a
    /// 2-layer net mapping 64 → 128 → 1.
    ///
    /// # Panics
    /// If fewer than two widths are given.
    pub fn new(
        store: &mut ParamStore,
        widths: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    /// Forward pass for `x: [n, widths[0]]`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let last = self.layers.len() - 1;
        self.layers.iter().enumerate().fold(x, |h, (i, layer)| {
            layer.forward_act(tape, store, h, self.activation(i, last))
        })
    }

    /// The activation after layer `i` of `last + 1`.
    fn activation(&self, i: usize, last: usize) -> Activation {
        if i == last {
            self.output_activation
        } else {
            self.hidden_activation
        }
    }

    /// Tape-free forward pass: chains [`Linear::infer_forward`] with the
    /// layer activations fused into each pass, recycling every
    /// intermediate into the context's arena.
    pub fn infer_forward(&self, ctx: &mut crate::infer::InferCtx<'_>, x: &Tensor) -> Tensor {
        let last = self.layers.len() - 1;
        let mut h = self.layers[0].infer_forward(ctx, x, self.activation(0, last));
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            let next = layer.infer_forward(ctx, &h, self.activation(i, last));
            ctx.recycle(h);
            h = next;
        }
        h
    }

    /// All parameter ids in this MLP.
    pub fn params(&self) -> Vec<ParamId> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_dim)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, 4, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(5, 4));
        let y = l.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 3));
    }

    #[test]
    fn mlp_depth_and_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            &[8, 16, 16, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        assert_eq!(mlp.layers.len(), 3);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 1);
        assert_eq!(mlp.params().len(), 6);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(2, 8));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_requires_two_widths() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        Mlp::new(
            &mut store,
            &[8],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
    }

    #[test]
    fn mlp_learns_xor_like_function() {
        // Overfit 4 points of XOR — requires a working hidden layer.
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            &[2, 8, 1],
            Activation::Tanh,
            Activation::Sigmoid,
            &mut rng,
        );
        let xs = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let ys = Tensor::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut opt = Adam::new(5e-2);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            let mut tape = Tape::new();
            let x = tape.constant(xs.clone());
            let y = mlp.forward(&mut tape, &store, x);
            let t = tape.constant(ys.clone());
            let diff = tape.sub(y, t);
            let sq = tape.mul(diff, diff);
            let loss = tape.sum(sq);
            last_loss = tape.value(loss).item();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
            store.zero_grads();
        }
        assert!(last_loss < 0.05, "XOR did not converge: loss {last_loss}");
    }
}
