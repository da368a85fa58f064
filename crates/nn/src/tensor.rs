//! Row-major 2-D dense `f32` tensors and their raw (non-differentiable)
//! kernels.
//!
//! Shapes are `(rows, cols)`. Everything GNN training needs fits in 2-D:
//! node-feature matrices are `[n, d]`, weights `[d_in, d_out]`, biases and
//! readouts `[1, d]`, scalars `[1, 1]`. Kernels avoid allocation where an
//! in-place variant exists (`add_assign`, `fill`, `scale_assign`) — the
//! hot-loop-allocation rule from the performance guide.

/// A dense row-major 2-D tensor of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-ones tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Builds from an explicit row-major vec.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data length mismatch");
        Tensor { rows, cols, data }
    }

    /// Builds from row slices (must all share one length).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Tensor {
            rows: r,
            cols: c,
            data,
        }
    }

    /// A `[1, 1]` scalar tensor.
    pub fn scalar(x: f32) -> Self {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![x],
        }
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `[1, 1]` tensor.
    ///
    /// # Panics
    /// If the tensor is not a scalar.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a [1,1] tensor");
        self.data[0]
    }

    /// Consumes the tensor, yielding its row-major storage. Lets the
    /// inference arena ([`crate::infer::Arena`]) recycle buffers instead
    /// of freeing them.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self *= s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// `self += s * other` (axpy, same shape).
    pub fn axpy_assign(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * b;
        }
    }

    /// Whether any element is NaN or ±∞ — the training-loop divergence
    /// guard checks parameters and losses with this before committing a
    /// checkpoint.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Clamps every element to `[lo, hi]` in place (WGAN weight clipping).
    pub fn clamp_assign(&mut self, lo: f32, hi: f32) {
        debug_assert!(lo <= hi);
        self.data.iter_mut().for_each(|x| *x = x.clamp(lo, hi));
    }

    /// Matrix product `self × other` — `[n,k] × [k,m] → [n,m]`, computed
    /// by the shared [`crate::kernels`] family. The bit-identity contract
    /// every tier of it honours: each output element starts at `+0.0` and
    /// accumulates `a[i][k] * b[k][j]` for ascending `k`, multiply then add
    /// (never a fused multiply-add); a row of `self` that is entirely zero
    /// is skipped, so its output row is `+0.0` whatever `other` holds.
    /// Identical bits on any SIMD tier.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul inner-dimension mismatch: {:?} × {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        crate::kernels::matmul_into(self, other, false, &mut out);
        out
    }

    /// `selfᵀ × other` — `[n,k]ᵀ × [n,m] → [k,m]` — bit-identical to
    /// `self.transpose().matmul(other)` without building the transpose
    /// (the skip rule reads: a *column* of `self` that is entirely zero).
    pub(crate) fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn outer-dimension mismatch: {:?}ᵀ × {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.cols, other.cols);
        crate::kernels::matmul_tn_into(self, other, &mut out);
        out
    }

    /// Transpose (allocates).
    pub fn transpose(&self) -> Tensor {
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Tensor::zeros(cols, rows);
        for (c, o_row) in out.data.chunks_exact_mut(rows.max(1)).enumerate() {
            for (r, slot) in o_row.iter_mut().enumerate() {
                *slot = self.data[r * cols + c];
            }
        }
        out
    }

    /// Elementwise map (allocates).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element (0.0 if empty).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_non_finite_detects_nan_and_inf() {
        let mut t = Tensor::zeros(2, 2);
        assert!(!t.has_non_finite());
        t.set(0, 1, f32::NAN);
        assert!(t.has_non_finite());
        t.set(0, 1, 0.0);
        t.set(1, 0, f32::INFINITY);
        assert!(t.has_non_finite());
    }

    #[test]
    fn construction_and_shape() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "shape/data length mismatch")]
    fn from_vec_validates_length() {
        Tensor::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut i3 = Tensor::zeros(3, 3);
        for k in 0..3 {
            i3.set(k, k, 1.0);
        }
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    #[should_panic(expected = "matmul inner-dimension mismatch")]
    fn matmul_shape_checked() {
        Tensor::zeros(2, 3).matmul(&Tensor::zeros(2, 3));
    }

    #[test]
    fn matmul_skips_zero_rows_but_not_zero_scalars() {
        // Row 0 all-zero (skipped), row 1 mixed (dense inner loop).
        let a = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 3.0]]);
        let b = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&b).data(), &[0.0, 0.0, 9.0, 12.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn in_place_ops() {
        let mut a = Tensor::from_rows(&[&[1.0, -2.0]]);
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[2.0, -4.0]);
        a.add_assign(&Tensor::from_rows(&[&[1.0, 1.0]]));
        assert_eq!(a.data(), &[3.0, -3.0]);
        a.axpy_assign(0.5, &Tensor::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(a.data(), &[4.0, -2.0]);
        a.clamp_assign(-1.0, 1.0);
        assert_eq!(a.data(), &[1.0, -1.0]);
        a.fill(0.0);
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[1.0, -3.0], &[2.0, 0.0]]);
        assert_eq!(a.sum_all(), 0.0);
        assert_eq!(a.max_abs(), 3.0);
        assert!((a.norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn scalar_and_item() {
        assert_eq!(Tensor::scalar(7.5).item(), 7.5);
    }

    #[test]
    #[should_panic(expected = "item() requires")]
    fn item_panics_on_non_scalar() {
        Tensor::zeros(1, 2).item();
    }

    #[test]
    fn map_applies_elementwise() {
        let a = Tensor::from_rows(&[&[1.0, -1.0]]);
        assert_eq!(a.map(|x| x.max(0.0)).data(), &[1.0, 0.0]);
    }
}
