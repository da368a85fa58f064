//! Minimal dense-tensor automatic-differentiation library for the NeurSC
//! reproduction.
//!
//! The paper trains WEst with PyTorch on a GPU; there is no comparable Rust
//! GNN stack to lean on, so this crate *is* the substitution (DESIGN.md §3):
//! a small, CPU-only, `f32`, 2-D tensor library with reverse-mode autodiff,
//! sized exactly to what graph neural networks need:
//!
//! * [`Tensor`] — row-major 2-D dense tensors with the usual BLAS-free
//!   kernels (matmul, broadcasts, reductions).
//! * [`kernels`] — the loop bodies the tape and the tape-free [`infer`]
//!   path both run: the one matmul kernel family (AVX-512 / AVX2 / portable
//!   tiers, bit-identical to each other) and the layer loops built on it
//!   (dense layer epilogue, GIN combine, the attention stages).
//! * [`Tape`] — a reverse-mode tape. Operations are methods on the tape
//!   returning lightweight [`Var`] handles; [`Tape::backward`] walks the
//!   tape once in reverse. Primitive ops ([`Tape::matmul`],
//!   [`Tape::index_select`] / [`Tape::segment_sum`], …) build losses and
//!   one-off expressions; the layers the models are made of are one
//!   *coarse* node each ([`Tape::linear`], [`Tape::gin_combine`],
//!   [`Tape::attention`]) with a hand-written backward that reproduces the
//!   primitive chain's gradient bit for bit.
//! * [`ParamStore`] — owning store for trainable parameters, shared across
//!   forward passes; gradients accumulate here after `backward`.
//! * [`layers`] — `Linear` and `Mlp` (the paper's building blocks) and
//!   activation functions.
//! * [`optim`] — SGD and Adam (the paper's optimizer), plus the WGAN-style
//!   weight clamp the Wasserstein discriminator requires (§5.5).
//! * [`serialize`] — dependency-free text persistence for parameters.
//!
//! Gradient correctness for every operation is property-tested against
//! central finite differences (`tests/gradcheck.rs`).
//!
//! # Example
//!
//! ```
//! use neursc_nn::{ParamStore, Tape, Tensor};
//! use neursc_nn::layers::Linear;
//! use neursc_nn::optim::Adam;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, 3, 1, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! // Learn y = sum(x) with a few gradient steps.
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let x = tape.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, 0.0]]));
//!     let y = layer.forward(&mut tape, &store, x);
//!     let target = tape.constant(Tensor::from_rows(&[&[6.0], &[1.0]]));
//!     let diff = tape.sub(y, target);
//!     let sq = tape.mul(diff, diff);
//!     let loss = tape.sum(sq);
//!     tape.backward(loss, &mut store);
//!     opt.step(&mut store);
//!     store.zero_grads();
//! }
//! ```

pub mod infer;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod optim;
pub mod serialize;
pub mod tape;
pub mod tensor;

pub use tape::{Tape, Var};
pub use tensor::Tensor;

use std::fmt;
use std::sync::Arc;

/// Identifier of a trainable parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) u32);

/// Owning store of trainable parameters and their accumulated gradients.
///
/// Layers allocate parameters here once; each forward pass binds them into
/// a fresh [`Tape`] with [`Tape::param`]; [`Tape::backward`] adds gradients
/// into the store; an optimizer from [`optim`] consumes them.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    /// Shared with the tapes that bound them ([`Tape::param`] copies no
    /// data); a value a tape still holds is copied when it is next changed.
    values: Vec<Arc<Tensor>>,
    grads: Vec<Tensor>,
    /// Counts the mutable borrows of any value: two reads of a parameter
    /// that saw one version saw one value, which lets a tape share work
    /// between binds of the same parameter without comparing tensors.
    version: u64,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter with the given initial value.
    pub fn alloc(&mut self, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len() as u32);
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.values.push(Arc::new(value));
        id
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters.
    fn n_scalars(&self) -> usize {
        self.values.iter().map(|t| t.len()).sum()
    }

    /// Immutable view of a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0 as usize]
    }

    /// Mutable view of a parameter value (used by optimizers and clamping).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.value_mut_and_grad(id).0
    }

    /// A parameter's value, mutably, next to its gradient: what an
    /// optimizer step reads and writes, without copying the gradient out.
    pub(crate) fn value_mut_and_grad(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        let i = id.0 as usize;
        self.version += 1;
        (Arc::make_mut(&mut self.values[i]), &self.grads[i])
    }

    /// A parameter's current value, shared instead of copied.
    pub(crate) fn shared_value(&self, id: ParamId) -> Arc<Tensor> {
        Arc::clone(&self.values[id.0 as usize])
    }

    /// How often [`ParamStore::value_mut`] has lent a value out.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Immutable view of the accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0 as usize]
    }

    /// Mutable view of the accumulated gradient (batch averaging, external
    /// gradient accumulators).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0 as usize]
    }

    /// Adds `delta` into the gradient of `id` (called by the tape).
    pub(crate) fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0 as usize].add_assign(delta);
    }

    /// Resets all gradients to zero (call between optimizer steps).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill(0.0);
        }
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len() as u32).map(ParamId)
    }
}

impl fmt::Display for ParamStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ParamStore({} tensors, {} scalars)",
            self.len(),
            self.n_scalars()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_store_alloc_and_access() {
        let mut s = ParamStore::new();
        let a = s.alloc(Tensor::zeros(2, 3));
        let b = s.alloc(Tensor::ones(1, 4));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.n_scalars(), 10);
        assert_eq!(s.value(a).shape(), (2, 3));
        assert_eq!(s.value(b).shape(), (1, 4));
        assert_eq!(s.grad(a).shape(), (2, 3));
        assert_eq!(s.ids().count(), 2);
    }

    #[test]
    fn grads_accumulate_and_reset() {
        let mut s = ParamStore::new();
        let a = s.alloc(Tensor::zeros(1, 2));
        s.accumulate_grad(a, &Tensor::from_rows(&[&[1.0, 2.0]]));
        s.accumulate_grad(a, &Tensor::from_rows(&[&[0.5, 0.5]]));
        assert_eq!(s.grad(a).data(), &[1.5, 2.5]);
        s.zero_grads();
        assert_eq!(s.grad(a).data(), &[0.0, 0.0]);
    }

    #[test]
    fn display_summarizes() {
        let mut s = ParamStore::new();
        s.alloc(Tensor::zeros(2, 2));
        assert_eq!(s.to_string(), "ParamStore(1 tensors, 4 scalars)");
    }
}
