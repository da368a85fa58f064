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
//!   recycling, best fit, the `Vec<f32>` of a tensor the caller has
//!   finished with, so a warm lane allocates no tensor storage.
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
/// intermediate tensors. `alloc` takes the pooled buffer that fits best
/// (or allocates on a cold lane), `recycle` returns a finished tensor's
/// storage; a warm lane therefore runs the whole WEst forward without
/// allocating tensor storage.
///
/// **Best fit.** A request takes the smallest pooled buffer whose capacity
/// holds it, so a small tensor never claims the buffer a large one needs
/// next. Only when no pooled buffer is large enough is one grown: the
/// largest, the one that needs the fewest extra bytes. Substructures of
/// one query differ in size by 10× and more, so a buffer picked by recency
/// alone would be grown in place (`realloc` of up to a MiB) while a large
/// one sat idle in the pool. `neursc-core`'s
/// `tests/warm_estimate_memory.rs` pins that a warm estimate allocates no
/// buffer of tensor size. The input matrices a `PreparedQuery` owns
/// (featurization's per-substructure `x`) are not arena tensors and stay
/// outside that guarantee.
#[derive(Debug, Default)]
pub struct Arena {
    pool: Vec<Vec<f32>>,
}

impl Arena {
    /// An empty arena (buffers are grown on first use).
    pub fn new() -> Self {
        Arena::default()
    }

    /// Removes and returns the pooled buffer that best fits a `len`-element
    /// request: the smallest whose capacity holds it, else the largest (the
    /// caller grows it), else, on a cold lane, a new one.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let caps = self.pool.iter().map(Vec::capacity).enumerate();
        let best = caps
            .clone()
            .filter(|&(_, cap)| cap >= len)
            .min_by_key(|&(_, cap)| cap)
            .or_else(|| caps.max_by_key(|&(_, cap)| cap));
        match best {
            Some((i, _)) => self.pool.swap_remove(i),
            None => Vec::with_capacity(len),
        }
    }

    /// A zeroed `[rows, cols]` tensor backed by a pooled buffer.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let mut buf = self.take(len);
        buf.clear();
        buf.resize(len, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// A `[rows, cols]` tensor with **unspecified contents** (stale data
    /// from a recycled buffer): the cheap variant for kernels that fully
    /// overwrite every element before the tensor is read (matmul rows,
    /// concats, slices). Never hand one to an accumulating kernel.
    pub fn alloc_full(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let mut buf = self.take(len);
        // Adjust the length without touching retained elements: truncate
        // keeps a stale prefix, resize fills only the grown tail — either
        // way no O(len) clear.
        if buf.len() > len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        Tensor::from_vec(rows, cols, buf)
    }

    /// Returns a tensor's storage to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.pool.push(t.into_vec());
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

    /// An arena holding one buffer of each capacity, recycled in the given
    /// order.
    fn arena_of(caps: &[usize]) -> Arena {
        let mut a = Arena::new();
        for &c in caps {
            a.recycle(Tensor::from_vec(1, c, vec![7.0; c]));
        }
        a
    }

    /// Capacities of the pooled buffers, ascending.
    fn pooled_caps(a: &Arena) -> Vec<usize> {
        let mut caps: Vec<usize> = a.pool.iter().map(Vec::capacity).collect();
        caps.sort_unstable();
        caps
    }

    #[test]
    fn a_large_request_takes_the_large_buffer_in_any_recycle_order() {
        for caps in [[16, 1000], [1000, 16]] {
            let mut a = arena_of(&caps);
            let t = a.alloc(20, 50);
            assert_eq!(t.into_vec().capacity(), 1000, "recycled {caps:?}");
            assert_eq!(pooled_caps(&a), [16], "recycled {caps:?}");
        }
    }

    #[test]
    fn a_small_request_leaves_the_large_buffer_pooled() {
        for caps in [[1000, 64, 16], [16, 1000, 64], [64, 16, 1000]] {
            let mut a = arena_of(&caps);
            let t = a.alloc_full(2, 20);
            assert_eq!(t.into_vec().capacity(), 64, "recycled {caps:?}");
            assert_eq!(pooled_caps(&a), [16, 1000], "recycled {caps:?}");
        }
    }

    #[test]
    fn the_pool_grows_only_when_nothing_fits() {
        let mut a = arena_of(&[16, 100]);
        // Requests that fit leave the pooled capacities as they were.
        for (rows, cols) in [(1, 16), (10, 10), (3, 5)] {
            let t = a.alloc(rows, cols);
            a.recycle(t);
            assert_eq!(pooled_caps(&a), [16, 100]);
        }
        // One that does not grows the largest buffer; the smaller one
        // stays for what it fits.
        let t = a.alloc_full(5, 40);
        assert!(t.into_vec().capacity() >= 200);
        assert_eq!(pooled_caps(&a), [16]);
        // A cold arena allocates exactly what is asked.
        assert_eq!(Arena::new().alloc(3, 3).into_vec().capacity(), 9);
    }

    #[test]
    fn alloc_zero_fills_a_dirtied_buffer() {
        let mut a = arena_of(&[16]);
        assert_eq!(a.alloc(3, 2).data(), &[0.0; 6]);
        let mut a = arena_of(&[4]);
        assert_eq!(a.alloc(4, 4).data(), &[0.0; 16]);
    }

    #[test]
    fn alloc_full_keeps_stale_contents() {
        let mut a = arena_of(&[16]);
        let t = a.alloc_full(2, 4);
        // The buffer came back as it was recycled: no O(len) clear.
        assert_eq!(t.data(), &[7.0; 8]);
        a.recycle(t);
        // Lengthening within the capacity fills only the new tail.
        let t = a.alloc_full(3, 4);
        assert_eq!(t.data()[..8], [7.0; 8]);
        assert_eq!(t.data()[8..], [0.0; 4]);
    }
}
