//! Tape-free inference: arena-backed fused kernels and quantized weights.
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
//!   once per model (not once per bind), optionally rounded through a
//!   simulated f16/int8 quantization ([`QuantMode`]).
//! * [`InferCtx`] — the handle fused kernels run against: borrowed
//!   weights plus an owned arena. Forward entry points in `neursc-gnn`
//!   and `neursc-core` take `&mut InferCtx` instead of `&mut Tape`.
//! * Fused kernels — matmul + bias + activation in one row pass, gather +
//!   scatter-add in one edge pass, the attention stages — are the loop
//!   bodies of [`crate::kernels`], which the tape's coarse nodes run too;
//!   this path hands them arena buffers
//!   ([`crate::layers::Linear::infer_forward`], `neursc-gnn`'s `infer`).
//!
//! **Bit-identity contract.** At [`QuantMode::F32`] the fused forward is
//! bit-identical to the tape forward at any thread count: the layers run
//! the same loop bodies on both paths, and what stays separate here
//! (concatenations, slices, row sums) copies or adds in the tape ops'
//! order. `tests/infer_equivalence.rs` pins this on the full WEst pipeline.

use crate::tensor::Tensor;
use crate::{ParamId, ParamStore};
use std::fmt;

// ---------------------------------------------------------------------------
// Quantization
// ---------------------------------------------------------------------------

/// Precision the inference weight snapshot is rounded through.
///
/// Quantization here is *simulated*: weights are rounded to the target
/// grid at snapshot time and the arithmetic stays `f32` (the guide's
/// "accumulate in f32" rule), so a quantized model differs from the f32
/// model only by the one-time weight rounding — which makes the accuracy
/// drift straightforward to bound against an oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// No rounding — bit-identical to the tape forward.
    #[default]
    F32,
    /// Round each weight to the nearest IEEE binary16 value
    /// (round-to-nearest-even), then widen back to f32.
    F16,
    /// Per-tensor symmetric int8: `q = clamp(round(x / s), ±127)` with
    /// `s = max|x| / 127`, dequantized back to `q·s`.
    Int8,
}

impl QuantMode {
    /// Parses the CLI spelling (`"f32"`, `"f16"`, `"int8"`).
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s {
            "f32" => Some(QuantMode::F32),
            "f16" => Some(QuantMode::F16),
            "int8" => Some(QuantMode::Int8),
            _ => None,
        }
    }

    /// The canonical spelling (inverse of [`QuantMode::parse`]).
    pub fn as_str(self) -> &'static str {
        match self {
            QuantMode::F32 => "f32",
            QuantMode::F16 => "f16",
            QuantMode::Int8 => "int8",
        }
    }
}

impl fmt::Display for QuantMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Converts an `f32` to IEEE binary16 bits with round-to-nearest-even,
/// handling subnormals, overflow to ±∞, and NaN. Hand-written because the
/// container has no `half` crate; exactness is pinned by unit tests.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32 - 127;
    let man = bits & 0x007f_ffff;
    if exp == 128 {
        // Inf stays Inf; NaN keeps a payload bit so it stays NaN.
        let payload = if man != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | payload;
    }
    if exp > 15 {
        return sign | 0x7c00; // overflow → ±∞
    }
    if exp >= -14 {
        // Normal half: drop 13 mantissa bits with round-to-nearest-even.
        let half_man = (man >> 13) as u16;
        let rem = man & 0x1fff;
        let mut h = sign | (((exp + 15) as u16) << 10) | half_man;
        if rem > 0x1000 || (rem == 0x1000 && (half_man & 1) == 1) {
            h += 1; // a carry into the exponent is the correct rounding
        }
        return h;
    }
    if exp >= -25 {
        // Subnormal half: value = full_man · 2^(exp−23), unit = 2^−24.
        let full_man = man | 0x0080_0000;
        let shift = (-exp - 1) as u32; // in 14..=24
        let half_man = (full_man >> shift) as u16;
        let rem = full_man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut h = sign | half_man;
        if rem > halfway || (rem == halfway && (half_man & 1) == 1) {
            h += 1; // may carry into the smallest normal — also correct
        }
        return h;
    }
    sign // underflow to ±0
}

/// Widens IEEE binary16 bits back to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = u32::from(h & 0x3ff);
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (man << 13)
    } else if exp == 0 {
        if man == 0 {
            sign
        } else {
            // Subnormal: renormalize into the f32 exponent range.
            let mut e = -14i32;
            let mut m = man;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | (((e + 127) as u32) << 23) | ((m & 0x3ff) << 13)
        }
    } else {
        sign | ((u32::from(exp) + 127 - 15) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// Rounds every element of `t` through `mode`'s grid (identity for
/// [`QuantMode::F32`]).
pub fn quantize_tensor(t: &Tensor, mode: QuantMode) -> Tensor {
    match mode {
        QuantMode::F32 => t.clone(),
        QuantMode::F16 => t.map(|x| f16_bits_to_f32(f32_to_f16_bits(x))),
        QuantMode::Int8 => {
            let max = t.max_abs();
            let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
            t.map(|x| (x / scale).round().clamp(-127.0, 127.0) * scale)
        }
    }
}

// ---------------------------------------------------------------------------
// Weight snapshot
// ---------------------------------------------------------------------------

/// A read-only, optionally quantized snapshot of every parameter in a
/// [`ParamStore`]. Taken once at model load/reload; fused kernels borrow
/// weights from here instead of cloning them into a tape per forward.
#[derive(Debug, Clone)]
pub struct InferWeights {
    values: Vec<Tensor>,
    mode: QuantMode,
}

impl InferWeights {
    /// Snapshots (and rounds, per `mode`) every parameter of `store`.
    pub fn from_store(store: &ParamStore, mode: QuantMode) -> Self {
        InferWeights {
            values: store
                .ids()
                .map(|id| quantize_tensor(store.value(id), mode))
                .collect(),
            mode,
        }
    }

    /// The snapshotted value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0 as usize]
    }

    /// The quantization mode this snapshot was taken with.
    pub fn mode(&self) -> QuantMode {
        self.mode
    }
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

    /// `a × b` into an arena tensor — [`Tensor::matmul`] (the same
    /// [`crate::kernels`] call) minus the fresh allocation.
    pub fn matmul(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(
            a.cols(),
            b.rows(),
            "matmul inner-dimension mismatch: {:?} × {:?}",
            a.shape(),
            b.shape()
        );
        let (n, m) = (a.rows(), b.cols());
        let mut out = self.arena.alloc_full(n, m);
        crate::kernels::matmul_into(a, b, &mut out);
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

/// The tape's numerically stable logistic sigmoid, exported for fused
/// kernels in downstream crates (`neursc-gnn` attention). `#[inline]`
/// matters: callers apply it per element in `n × dim` loops, and without
/// it every call crosses a crate boundary.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    crate::tape::stable_sigmoid(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_mode_parse_roundtrip() {
        for m in [QuantMode::F32, QuantMode::F16, QuantMode::Int8] {
            assert_eq!(QuantMode::parse(m.as_str()), Some(m));
            assert_eq!(m.to_string(), m.as_str());
        }
        assert_eq!(QuantMode::parse("bf16"), None);
    }

    #[test]
    fn f16_roundtrip_is_exact_for_representable_values() {
        for &x in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 2.25, -65504.0, 65504.0] {
            let r = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(r.to_bits(), x.to_bits(), "{x} roundtripped to {r}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even_and_saturates() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half;
        // round-to-even keeps 1.0.
        let halfway = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(halfway)), 1.0);
        // Just above halfway rounds up.
        let above = 1.0f32 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(above)),
            1.0 + 2.0f32.powi(-10)
        );
        // Overflow → ∞, and the max-relative-error bound 2^-11 holds on a
        // sweep of finite in-range values.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e6)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e6)), f32::NEG_INFINITY);
        let mut v = 0x2545_f491u32;
        for _ in 0..10_000 {
            v ^= v << 13;
            v ^= v >> 17;
            v ^= v << 5;
            let x = (v % 120_000) as f32 / 1000.0 - 60.0;
            if x == 0.0 {
                continue;
            }
            let r = f16_bits_to_f32(f32_to_f16_bits(x));
            assert!(
                ((r - x) / x).abs() <= 2.0f32.powi(-11) + 1e-9,
                "f16 rel err too large at {x}: {r}"
            );
        }
    }

    #[test]
    fn f16_subnormals_and_nan() {
        let tiny = 2.0f32.powi(-24); // smallest half subnormal
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tiny)), tiny);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(2.0f32.powi(-26))), 0.0);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn int8_error_is_bounded_by_half_scale() {
        let t = Tensor::from_vec(1, 5, vec![-2.54, -0.3, 0.0, 1.7, 2.54]);
        let q = quantize_tensor(&t, QuantMode::Int8);
        let scale = 2.54f32 / 127.0;
        for (a, b) in t.data().iter().zip(q.data()) {
            assert!((a - b).abs() <= scale / 2.0 + 1e-7, "{a} → {b}");
        }
        // All-zero tensors quantize to themselves (scale guard).
        let z = Tensor::zeros(2, 2);
        assert_eq!(quantize_tensor(&z, QuantMode::Int8), z);
    }

    #[test]
    fn f32_snapshot_is_bit_identical() {
        let mut store = ParamStore::new();
        let id = store.alloc(Tensor::from_vec(1, 3, vec![0.1, -2.5, 3.75]));
        let w = InferWeights::from_store(&store, QuantMode::F32);
        assert_eq!(w.value(id), store.value(id));
        assert_eq!(w.mode(), QuantMode::F32);
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
