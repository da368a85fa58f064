//! Tape-free inference: arena-backed fused kernels over a weight snapshot.
//!
//! Training needs the [`crate::Tape`] — every op records a node, binds
//! parameter clones, and allocates its output so `backward` can walk the
//! graph. Serving needs none of that: the WEst forward is a fixed-shape
//! pipeline whose gradients are never used, yet on the tape it pays one
//! heap allocation *per op* plus one parameter clone *per bind*. This
//! module is the inference-only substitute (DESIGN.md §15):
//!
//! * [`Arena`] — a per-lane buffer pool. Kernels allocate outputs by
//!   recycling the `Vec<f32>` of a tensor the caller has finished with,
//!   so a warm lane performs no heap allocation at all.
//! * [`InferWeights`] — a read-only snapshot of a [`ParamStore`], taken
//!   once per model (not once per bind).
//! * [`InferCtx`] — the handle fused kernels run against: borrowed
//!   weights plus an owned arena. Forward entry points in `neursc-gnn`
//!   and `neursc-core` take `&mut InferCtx` instead of `&mut Tape`.
//! * Fused kernels — matmul + bias + activation in one row pass, gather +
//!   scatter-add in one edge pass, the attention stages — are the loop
//!   bodies of [`crate::kernels`], which the tape's coarse nodes run too;
//!   this path hands them arena buffers
//!   ([`crate::layers::Linear::infer_forward`], `neursc-gnn`'s `infer`).
//!
//! **Bit-identity contract.** The fused forward is bit-identical to the
//! tape forward at any thread count: the layers run the same loop bodies
//! on both paths, and what stays separate here (concatenations, slices,
//! row sums) copies or adds in the tape ops' order.
//! `tests/infer_equivalence.rs` pins this on the full WEst pipeline.

use crate::tensor::Tensor;
use crate::{ParamId, ParamStore};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Weight snapshot
// ---------------------------------------------------------------------------

/// Vestige of the simulated f16/int8 quantization deleted in PR 22: the
/// benchmark (`benchmarks/src/{harness,offline}.rs`, which a feature PR
/// may not edit) still passes `QuantMode::F32` to
/// [`InferWeights::from_store`]. Leaves, with that parameter, when
/// ROADMAP item 1(e) drops the argument at those two call sites.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    F32,
}

/// A read-only snapshot of every parameter in a [`ParamStore`]. Taken
/// once at model load/reload; fused kernels borrow weights from here
/// instead of cloning them into a tape per forward. The values are shared
/// with the store, which copies one only when it next changes it. Each
/// parameter carries a bit saying it holds no `inf` or NaN, which lets the
/// matmul skip zero left values (`kernels` module doc) without scanning
/// the weight on every call.
#[derive(Debug, Clone)]
pub struct InferWeights {
    values: Vec<Arc<Tensor>>,
    finite: Vec<bool>,
}

impl InferWeights {
    /// Snapshots every parameter of `store`. The second parameter is
    /// ignored (see [`QuantMode`]).
    pub fn from_store(store: &ParamStore, _: QuantMode) -> Self {
        let values: Vec<Arc<Tensor>> = store.ids().map(|id| store.shared_value(id)).collect();
        let finite = values.iter().map(|t| all_finite(t.data())).collect();
        InferWeights { values, finite }
    }

    /// The snapshotted value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0 as usize]
    }

    /// Whether every element of a parameter is finite.
    pub fn is_finite(&self, id: ParamId) -> bool {
        self.finite[id.0 as usize]
    }
}

/// Whether no element of `xs` is `inf` or NaN. A fold over every element
/// rather than a short-circuiting `all`, so it vectorises.
fn all_finite(xs: &[f32]) -> bool {
    !xs.iter().fold(false, |bad, x| bad | !x.is_finite())
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

/// A pool of reusable `f32` buffers backing one inference lane's
/// intermediate tensors. `alloc` pops a recycled buffer (or allocates on
/// a cold lane), `recycle` returns a finished tensor's storage; a warm
/// lane therefore runs the whole WEst forward without touching the heap.
#[derive(Debug, Default)]
pub struct Arena {
    pool: Vec<Vec<f32>>,
}

impl Arena {
    /// An empty arena (buffers are grown on first use).
    pub fn new() -> Self {
        Arena::default()
    }

    /// A zeroed `[rows, cols]` tensor backed by a pooled buffer.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let buf = match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        };
        Tensor::from_vec(rows, cols, buf)
    }

    /// A `[rows, cols]` tensor with **unspecified contents** (stale data
    /// from a recycled buffer): the cheap variant for kernels that fully
    /// overwrite every element before the tensor is read (matmul rows,
    /// concats, slices). Never hand one to an accumulating kernel.
    pub fn alloc_full(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let buf = match self.pool.pop() {
            Some(mut v) => {
                // Adjust the length without touching retained elements:
                // truncate keeps a stale prefix, resize fills only the
                // grown tail — either way no O(len) clear.
                if v.len() > len {
                    v.truncate(len);
                } else {
                    v.resize(len, 0.0);
                }
                v
            }
            None => vec![0.0; len],
        };
        Tensor::from_vec(rows, cols, buf)
    }

    /// Returns a tensor's storage to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.pool.push(t.into_vec());
    }

    /// Number of pooled buffers (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

// ---------------------------------------------------------------------------
// InferCtx and fused kernels
// ---------------------------------------------------------------------------

/// The context fused forward passes run against: a borrowed weight
/// snapshot plus an owned buffer arena. The inference counterpart of
/// `(&mut Tape, &ParamStore)`.
#[derive(Debug)]
pub struct InferCtx<'w> {
    weights: &'w InferWeights,
    arena: Arena,
}

impl<'w> InferCtx<'w> {
    /// Binds `weights` to `arena` for one or more forward passes.
    pub fn new(weights: &'w InferWeights, arena: Arena) -> Self {
        InferCtx { weights, arena }
    }

    /// Releases the arena (so a lane pool can reuse its buffers).
    pub fn into_arena(self) -> Arena {
        self.arena
    }

    /// The bound weight snapshot.
    pub fn weights(&self) -> &'w InferWeights {
        self.weights
    }

    /// A parameter value. Returned with the *weights'* lifetime, not the
    /// context's, so it can be held across later `&mut self` kernel calls.
    pub fn param(&self, id: ParamId) -> &'w Tensor {
        let w: &'w InferWeights = self.weights;
        w.value(id)
    }

    /// A zeroed `[rows, cols]` arena tensor.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> Tensor {
        self.arena.alloc(rows, cols)
    }

    /// Returns a finished tensor's buffer to the arena.
    pub fn recycle(&mut self, t: Tensor) {
        self.arena.recycle(t)
    }

    /// An arena tensor with unspecified contents — see
    /// [`Arena::alloc_full`]; only for kernels that overwrite every
    /// element.
    pub fn alloc_full(&mut self, rows: usize, cols: usize) -> Tensor {
        self.arena.alloc_full(rows, cols)
    }

    /// `a × w` into an arena tensor for a parameter `w` — [`Tensor::matmul`]
    /// (the same [`crate::kernels`] call) minus the fresh allocation, and
    /// with the snapshot's finiteness bit, so zero values of `a` are
    /// skipped wherever that is exact.
    pub fn matmul(&mut self, a: &Tensor, w: ParamId) -> Tensor {
        let b = self.param(w);
        assert_eq!(
            a.cols(),
            b.rows(),
            "matmul inner-dimension mismatch: {:?} × {:?}",
            a.shape(),
            b.shape()
        );
        let mut out = self.arena.alloc_full(a.rows(), b.cols());
        crate::kernels::matmul_into(a, b, self.weights.is_finite(w), &mut out);
        out
    }

    /// Column sums → `[1, c]` (sum-pooling readout), row-ascending like
    /// the tape's `sum_rows`.
    pub fn sum_rows(&mut self, h: &Tensor) -> Tensor {
        let mut out = self.alloc(1, h.cols());
        for r in 0..h.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(h.row(r).iter()) {
                *o += x;
            }
        }
        out
    }

    /// Horizontal concatenation `[n, c1] ‖ [n, c2]`.
    pub fn concat_cols(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.rows(), b.rows(), "concat_cols row mismatch");
        let (ca, cb) = (a.cols(), b.cols());
        let mut out = self.arena.alloc_full(a.rows(), ca + cb);
        for r in 0..a.rows() {
            out.row_mut(r)[..ca].copy_from_slice(a.row(r));
            out.row_mut(r)[ca..].copy_from_slice(b.row(r));
        }
        out
    }

    /// Vertical concatenation `[n1, c] ‖ [n2, c]`.
    pub fn concat_rows(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols(), b.cols(), "concat_rows col mismatch");
        let mut out = self.arena.alloc_full(a.rows() + b.rows(), a.cols());
        let split = a.len();
        out.data_mut()[..split].copy_from_slice(a.data());
        out.data_mut()[split..].copy_from_slice(b.data());
        out
    }

    /// Contiguous row slice `a[start..end]` into an arena tensor.
    pub fn slice_rows(&mut self, a: &Tensor, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= a.rows(), "slice_rows out of range");
        let c = a.cols();
        let mut out = self.arena.alloc_full(end - start, c);
        out.data_mut()
            .copy_from_slice(&a.data()[start * c..end * c]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_snapshot_is_bit_identical() {
        let mut store = ParamStore::new();
        let id = store.alloc(Tensor::from_vec(1, 3, vec![0.1, -2.5, 3.75]));
        let w = InferWeights::from_store(&store, QuantMode::F32);
        assert_eq!(w.value(id), store.value(id));
    }

    #[test]
    fn finiteness_bit_is_per_parameter() {
        let mut store = ParamStore::new();
        let mut ids = vec![store.alloc(Tensor::from_vec(1, 3, vec![f32::MAX, -0.0, 1e-45]))];
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN] {
            // 37 elements: the odd one lands past any vector width.
            let mut v = vec![1.0; 37];
            v[36] = bad;
            ids.push(store.alloc(Tensor::from_vec(1, 37, v)));
        }
        let w = InferWeights::from_store(&store, QuantMode::F32);
        let bits: Vec<bool> = ids.iter().map(|&id| w.is_finite(id)).collect();
        assert_eq!(bits, [true, false, false, false, false]);
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut a = Arena::new();
        let t = a.alloc(4, 4);
        assert_eq!(t.data(), &[0.0; 16]);
        a.recycle(t);
        assert_eq!(a.pooled(), 1);
        let mut t2 = a.alloc(2, 3);
        assert_eq!(a.pooled(), 0);
        assert_eq!(t2.shape(), (2, 3));
        t2.fill(7.0);
        a.recycle(t2);
        // A dirtied recycled buffer comes back zeroed.
        let t3 = a.alloc(3, 2);
        assert_eq!(t3.data(), &[0.0; 6]);
    }
}
