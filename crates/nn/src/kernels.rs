//! The shared loop bodies: one matmul kernel family in three tiers, and the
//! layer loops built on it. Two callers each — the training tape and the
//! tape-free arena path run the same code, so they agree bit for bit by
//! construction rather than by a test alone.
//!
//! Every dense product in the crate — [`Tensor::matmul`] on the training
//! tape (forward *and* backward), [`crate::infer::InferCtx::matmul`] and
//! `linear_into` on both paths — runs through `matmul_rows`; the weight
//! gradient `Aᵀ·G` of the tape's backward runs through its transposed-left
//! sibling `matmul_tn_into`. A row kernel exists in three tiers, picked
//! once per process from what the CPU reports: AVX-512 (16 lanes, plus a
//! four-row variant that hides add latency), AVX2 (8 lanes) and the
//! portable `row_matmul_scalar`.
//!
//! **Bit-identity contract.** All tiers compute every output element as
//! the same chain: start from `+0.0`, then for ascending `k` multiply
//! `a[i][k] * b[k][j]` and add — two roundings, never a fused
//! multiply-add — and a left row (for `tn`: a left *column*) that is
//! entirely zero is skipped, leaving its output row `+0.0` whatever `b`
//! holds (observable when `b` carries `inf`/`NaN`). SIMD lanes are
//! independent output elements, never a reassociated reduction, and no
//! output row reads another — so results are bit-identical across tiers
//! and callers, and a row's bits do not depend on the rows around it. The
//! kernels run on the caller's thread. That is what lets training and
//! inference share them while `tests/infer_equivalence.rs` and the golden
//! training test stay exact.
//!
//! **Zero skips.** Zero left values are skipped when the right operand is
//! finite; otherwise only whole zero rows are. The chain never holds
//! `-0.0` — it starts at `+0.0`, and `+0.0 + -0.0` rounds to `+0.0` — so
//! adding `±0 × b` leaves it unchanged for every finite `b`, and a step
//! whose left value is zero can be left out without moving a bit. For an
//! `inf` or NaN in `b` it cannot (`0 × inf` is NaN), so the skip needs
//! the caller's word that `b` is all finite: the inference path's weight
//! snapshot records one bit per parameter
//! ([`crate::infer::InferWeights::is_finite`]), and the tape's backward
//! keeps one with each `Wᵀ` it multiplies a gradient by. With that bit the
//! AVX-512 kernels run over a list of the `k` steps at which some row of
//! the group is nonzero (NaN counts as nonzero), built once per group and
//! reused by every column block. The tape's forward, the `tn` kernels and
//! the AVX2 and scalar tiers always sweep `0..k`.
//!
//! **Layer loops** (the second half of this file): the bias + activation
//! epilogue of a dense layer (`linear_into`), the GIN neighbour sum and
//! combine ([`gather_add_into`], [`gin_combine_into`]) and the three stages
//! of an attention layer ([`edge_logits`], [`segment_softmax`],
//! [`attend_aggregate`]), plus the readout's two scalar maps. Each is a
//! function over plain tensors and slices that writes into storage its
//! caller provides: the arena path hands it pooled buffers
//! ([`crate::infer`], `neursc-gnn`'s `infer`), the tape's coarse nodes hand
//! it the tensors they keep for their backward pass (`tape/coarse.rs`).
//! Per element they fix the operation order the primitive tape ops define
//! (edge-ascending scatter-adds, dst-then-src logit accumulation, multiply
//! then add), which `tests/coarse_nodes.rs` pins against those ops.
//!
//! **Sigmoid tier contract.** [`sigmoid_in_place`] — an attention layer's
//! output nonlinearity and its edgeless fallback — returns, for every
//! element, the bits of the scalar `stable_sigmoid` over the platform's
//! `expf`. Its AVX-512 tier computes `exp(−|x|)` itself, so it matches
//! only an `expf` it reproduces: glibc's (2.27 onward, the FMA build its
//! x86-64 dispatch picks on any AVX-512 CPU) — the same table, constants
//! and FMA contraction, in f64 lanes, narrowed to f32 — followed by the
//! scalar function's own f32 `1/(1+e)` or `e/(1+e)`. Lanes outside
//! `expf`'s main path (`|x| ≥ 88`, NaN) are recomputed by
//! `stable_sigmoid`. At first use the dispatch runs the tier on a fixed
//! probe set against `stable_sigmoid`; one differing bit and the process
//! keeps the scalar loop, so another libm falls back instead of
//! diverging. Checked on all 2³² inputs by an ignored test that
//! `scripts/ci.sh` runs in release mode.

use crate::layers::Activation;
use crate::tape::stable_sigmoid;
use crate::tensor::Tensor;

/// `a × b` written into a caller-provided output whose contents may be
/// stale: every row is either computed or explicitly zeroed. `b_finite`
/// is the caller's word that `b` holds no `inf` or NaN (the zero skips of
/// the module doc); `false` is always correct.
pub(crate) fn matmul_into(a: &Tensor, b: &Tensor, b_finite: bool, out: &mut Tensor) {
    let (n, k) = a.shape();
    let m = b.cols();
    debug_assert_eq!(out.shape(), (n, m));
    // Groups of four rows, what the four-row kernel takes; the last may
    // be short. `max(1)`: an empty output has no groups, whatever `m` is.
    for (g, block) in out.data_mut().chunks_mut((4 * m).max(1)).enumerate() {
        let rows = &a.data()[4 * g * k..(4 * g + block.len() / m) * k];
        matmul_rows(rows, b.data(), k, m, b_finite, block);
    }
}

/// `aᵀ × g` — `[n, k]ᵀ × [n, m] → [k, m]`, the weight gradient of a tape
/// matmul — without materialising `aᵀ`: output row `i` multiplies column
/// `i` of `a`, which the row kernels read by stride. Bit-identical to
/// `a.transpose().matmul(g)`: the same per-element chain over ascending
/// `r`, and a *column* of `a` that is entirely zero (a row of `aᵀ`) is
/// skipped. `out` may hold stale contents.
pub(crate) fn matmul_tn_into(a: &Tensor, g: &Tensor, out: &mut Tensor) {
    let (n, k) = a.shape();
    let m = g.cols();
    debug_assert_eq!((g.rows(), out.shape()), (n, (k, m)));
    if m == 1 {
        matmul_tn_column(a.data(), k, g.data(), out.data_mut());
        return;
    }
    let zero = zero_columns(a.data(), k);
    for (i, block) in out.data_mut().chunks_mut((4 * m).max(1)).enumerate() {
        matmul_tn_rows(a.data(), k, 4 * i, &zero[4 * i..], g.data(), n, m, block);
    }
}

/// Which columns of the row-major `[·, k]` matrix `a` are entirely `±0.0`
/// (NaN is not zero): one contiguous pass over `a`, row by row, instead of
/// a strided scan per column. Every column of an empty `a` is zero.
fn zero_columns(a: &[f32], k: usize) -> Vec<bool> {
    let mut zero = vec![true; k];
    if k > 0 {
        for row in a.chunks_exact(k) {
            for (z, &x) in zero.iter_mut().zip(row) {
                *z &= x == 0.0;
            }
        }
    }
    zero
}

/// [`matmul_tn_into`] for a single output column (`g` is `[n, 1]`: score
/// and head layers). The row tiers would run their scalar tail down each
/// column of `a`, a cache line per value; here the `k` output elements
/// are the lanes and `a` is swept once, row-major. Per element it is still
/// the contract's chain over ascending `r`.
fn matmul_tn_column(a: &[f32], k: usize, g: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for (a_row, &gv) in a.chunks_exact(k.max(1)).zip(g) {
        for (o, &av) in out.iter_mut().zip(a_row) {
            *o += av * gv;
        }
    }
    // The skip rule. An all-zero column of `a` has summed `±0.0 × g[r]`
    // onto `+0.0`, which is `+0.0` already unless some `g[r]` is not
    // finite, and then it is NaN: only a NaN can need the correction.
    for (i, o) in out.iter_mut().enumerate() {
        if o.is_nan() && a[i..].iter().step_by(k).all(|&x| x == 0.0) {
            *o = 0.0;
        }
    }
}

/// A group of output rows of [`matmul_into`]: `a_rows` holds `o.len()/m`
/// consecutive `k`-wide input rows, and every element of `o` is
/// overwritten (prior contents may be stale). Full groups of four
/// nonzero rows go through the four-row AVX-512 kernel — the single
/// per-element add chain is latency-bound, and interleaving four
/// independent rows over one sweep of `b` hides that latency without
/// touching any element's operation order. Short groups, zero rows (the
/// whole-row skip) and narrower CPUs fall back to the per-row path. With
/// `b_finite` (see [`matmul_into`]) and at most [`MAX_LISTED_STEPS`] steps,
/// the AVX-512 kernels skip zero left values instead
/// ([`matmul_rows_listed_avx512`]).
pub(crate) fn matmul_rows(
    a_rows: &[f32],
    bd: &[f32],
    k: usize,
    m: usize,
    b_finite: bool,
    o: &mut [f32],
) {
    // The SIMD tiers read `bd` and write `o` through raw pointers.
    assert!(o.len().is_multiple_of(m) && a_rows.len() == (o.len() / m) * k && bd.len() >= k * m);
    debug_assert!(!b_finite || bd[..k * m].iter().all(|x| x.is_finite()));
    if k == 0 {
        o.fill(0.0); // an empty sum; `chunks_exact(0)` below would panic
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        if b_finite && k <= MAX_LISTED_STEPS {
            // SAFETY: the CPU reports AVX-512F (checked above); the lengths
            // the kernel requires were asserted on entry.
            unsafe { matmul_rows_listed_avx512(a_rows, bd, k, m, o) };
            return;
        }
        if o.len() == 4 * m
            && m >= 16
            && !a_rows.chunks_exact(k).any(|r| r.iter().all(|&x| x == 0.0))
        {
            // SAFETY: as above.
            unsafe { quad_matmul_avx512::<false, _>(a_rows, k, bd, k, AllSteps, m, o) };
            return;
        }
    }
    for (a_row, o_row) in a_rows.chunks_exact(k).zip(o.chunks_exact_mut(m)) {
        if a_row.iter().all(|&x| x == 0.0) {
            o_row.fill(0.0); // whole-row skip
        } else {
            row_matmul(a_row, 1, bd, m, o_row);
        }
    }
}

/// The longest left row [`matmul_rows`] lists the nonzero steps of — the
/// list lives on the stack. Longer rows sweep `0..k`.
const MAX_LISTED_STEPS: usize = 1024;

/// [`matmul_rows`] for a right operand that is all finite, on AVX-512: the
/// same kernels over the `k` steps at which some row of the group is
/// nonzero, each step kept or left out whole, so every output element is
/// the contract's chain minus additions of `±0 × b`, which change nothing.
/// A full group of four rows takes the four-row kernel even if some of its
/// rows are zero (their outputs stay `+0.0`); other rows go one at a time.
/// A list that holds every step runs the dense `0..k` loop.
///
/// # Safety
///
/// Requires AVX-512F and `0 < k <= MAX_LISTED_STEPS`; the lengths
/// [`matmul_rows`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_rows_listed_avx512(a_rows: &[f32], bd: &[f32], k: usize, m: usize, o: &mut [f32]) {
    debug_assert!(k > 0 && k <= MAX_LISTED_STEPS);
    // Every kernel call below meets its contract: `k > 0`, the list holds
    // `k + 16` entries, each listed step is below `k`, and the lengths of
    // `a_rows`, `bd` and `o` are the ones `matmul_rows` asserted.
    let mut list = [const { std::mem::MaybeUninit::<u32>::uninit() }; MAX_LISTED_STEPS + 16];
    if o.len() == 4 * m && m >= 16 {
        let steps = nonzero_steps_avx512(a_rows, k, &mut list);
        if steps.len() == k {
            quad_matmul_avx512::<false, _>(a_rows, k, bd, k, AllSteps, m, o);
        } else {
            quad_matmul_avx512::<false, _>(a_rows, k, bd, k, steps, m, o);
        }
        return;
    }
    for (a_row, o_row) in a_rows.chunks_exact(k).zip(o.chunks_exact_mut(m)) {
        let steps = nonzero_steps_avx512(a_row, k, &mut list);
        if steps.len() == k {
            row_matmul_avx512(a_row, 1, AllSteps, bd, m, o_row);
        } else {
            row_matmul_avx512(a_row, 1, steps, bd, m, o_row);
        }
    }
}

/// The `k` steps an AVX-512 kernel's chains visit, ascending: all of them
/// ([`AllSteps`]) or those of a list (`&[u32]`). The dense forms are the
/// loops the kernels ran before there were lists, and [`AllSteps`] holds
/// no data, so monomorphising for it gives the same code. Defined outside
/// the `target_feature` kernels, so that both forms inline into them.
trait Steps: Copy {
    /// The steps of a `k`-step chain.
    fn each(self, k: usize) -> impl Iterator<Item = usize> + Clone;

    /// `(kk, &a[kk * step])` for each step `kk`: the values of a left row
    /// read by stride, as [`row_matmul`] reads it.
    fn values(self, a: &[f32], step: usize) -> impl Iterator<Item = (usize, &f32)>;
}

/// Every step of the chain: the dense loop.
#[derive(Clone, Copy)]
struct AllSteps;

impl Steps for AllSteps {
    #[inline(always)]
    fn each(self, k: usize) -> impl Iterator<Item = usize> + Clone {
        0..k
    }

    #[inline(always)]
    fn values(self, a: &[f32], step: usize) -> impl Iterator<Item = (usize, &f32)> {
        a.iter().step_by(step).enumerate()
    }
}

impl Steps for &[u32] {
    #[inline(always)]
    fn each(self, _: usize) -> impl Iterator<Item = usize> + Clone {
        self.iter().map(|&kk| kk as usize)
    }

    #[inline(always)]
    fn values(self, a: &[f32], step: usize) -> impl Iterator<Item = (usize, &f32)> {
        self.iter()
            .map(move |&kk| (kk as usize, &a[kk as usize * step]))
    }
}

/// The ascending steps `kk < k` at which some row of `a` (`k` values a
/// row) is nonzero — not `±0.0`; NaN counts as nonzero — written to the
/// front of `list` and returned. Branch-free: sixteen steps at a time,
/// an unordered-not-equal compare per row, the rows' masks or-ed, and the
/// step numbers of the set lanes compressed to the end of the list so far
/// (compressed in a register and stored whole: the compress with a memory
/// destination is microcoded, and slow, on some cores).
///
/// # Safety
///
/// Requires AVX-512F, `a.len()` a multiple of `k > 0` and `list.len() >=
/// k + 16` (each compress writes a full vector).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn nonzero_steps_avx512<'l>(
    a: &[f32],
    k: usize,
    list: &'l mut [std::mem::MaybeUninit<u32>],
) -> &'l [u32] {
    use std::arch::x86_64::{
        _mm512_add_epi32, _mm512_cmp_ps_mask, _mm512_maskz_compress_epi32, _mm512_maskz_loadu_ps,
        _mm512_set1_epi32, _mm512_setr_epi32, _mm512_setzero_ps, _mm512_storeu_si512, _CMP_NEQ_UQ,
    };
    debug_assert!(k > 0 && a.len().is_multiple_of(k) && list.len() >= k + 16);
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let zero = _mm512_setzero_ps();
    let out = list.as_mut_ptr().cast::<u32>();
    let mut len = 0usize;
    for c in (0..k).step_by(16) {
        // The lanes inside the row; a masked-off lane loads `+0.0`.
        let live = if k - c >= 16 {
            u16::MAX
        } else {
            (1u16 << (k - c)) - 1
        };
        let mut nonzero = 0u16;
        for row in a.chunks_exact(k) {
            let v = _mm512_maskz_loadu_ps(live, row.as_ptr().add(c));
            nonzero |= _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, zero);
        }
        let steps = _mm512_add_epi32(lanes, _mm512_set1_epi32(c as i32));
        _mm512_storeu_si512(
            out.add(len).cast(),
            _mm512_maskz_compress_epi32(nonzero, steps),
        );
        len += nonzero.count_ones() as usize;
    }
    std::slice::from_raw_parts(out, len)
}

/// The [`matmul_rows`] of [`matmul_tn_into`]: `o` holds output rows `i0..`
/// of `aᵀ × b`, whose left rows are the columns `i0..` of the row-major
/// `[n, lda]` matrix `a` — element `r` of left row `i` is `a[r * lda + i]`.
/// Same grouping, same skip rule (an all-zero column, `zero[q]` for column
/// `i0 + q`), same tiers.
#[allow(clippy::too_many_arguments)] // the row kernel's operands plus the skip mask
fn matmul_tn_rows(
    a: &[f32],
    lda: usize,
    i0: usize,
    zero: &[bool],
    bd: &[f32],
    n: usize,
    m: usize,
    o: &mut [f32],
) {
    // The SIMD tiers read `bd` and write `o` through raw pointers.
    assert!(o.len().is_multiple_of(m) && i0 + o.len() / m <= lda);
    assert!(a.len() == n * lda && bd.len() >= n * m && zero.len() >= o.len() / m);
    if n == 0 {
        o.fill(0.0); // an empty sum
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if o.len() == 4 * m && m >= 16 && avx512_available() && !zero[..4].contains(&true) {
        // SAFETY: the CPU reports AVX-512F (checked above); `a[i0..]`
        // reaches element `(n - 1) * lda + 3` because `i0 + 4 <= lda`, and
        // the other lengths were asserted on entry.
        unsafe { quad_matmul_avx512::<true, _>(&a[i0..], lda, bd, n, AllSteps, m, o) };
        return;
    }
    for ((q, o_row), &zero) in o.chunks_exact_mut(m).enumerate().zip(zero) {
        if zero {
            o_row.fill(0.0); // whole-column skip
        } else {
            row_matmul(&a[i0 + q..], lda, bd, m, o_row);
        }
    }
}

/// One output row: dispatches to the widest SIMD kernel the CPU supports,
/// else the portable blocked loop. The left row is read by stride — its
/// `kk`-th value is `a[kk * step]`, `kk < a.len().div_ceil(step)`; `step`
/// is 1 for a row of `a × b` and `lda` for a column of `aᵀ × b`. Every
/// element of `o_row` is overwritten (prior contents may be stale).
fn row_matmul(a: &[f32], step: usize, bd: &[f32], m: usize, o_row: &mut [f32]) {
    // The SIMD tiers read `bd` and write `o_row` through raw pointers.
    assert!(bd.len() >= a.len().div_ceil(step) * m && o_row.len() == m);
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_available() {
            // SAFETY: the CPU reports AVX-512F (checked above); lengths
            // asserted on entry.
            unsafe { row_matmul_avx512(a, step, AllSteps, bd, m, o_row) };
            return;
        }
        if avx2_available() {
            // SAFETY: the CPU reports AVX2 (checked above); lengths
            // asserted on entry.
            unsafe { row_matmul_avx2(a, step, bd, m, o_row) };
            return;
        }
    }
    row_matmul_scalar(a, step, bd, m, o_row);
}

/// Portable per-row kernel: output columns processed in 32-wide blocks
/// accumulated on the stack and stored once. Per output element this is
/// the contract's ascending-`k` multiply-then-add sum starting from
/// `+0.0`, so results are bit-identical to the naive `+=` loop — the
/// blocking only changes *which registers* hold the partial sums.
fn row_matmul_scalar(a: &[f32], step: usize, bd: &[f32], m: usize, o_row: &mut [f32]) {
    let mut j0 = 0usize;
    while j0 < m {
        let jw = (m - j0).min(32);
        let mut acc = [0.0f32; 32];
        for (kk, &av) in a.iter().step_by(step).enumerate() {
            let b_blk = &bd[kk * m + j0..kk * m + j0 + jw];
            for (s, &bv) in acc[..jw].iter_mut().zip(b_blk.iter()) {
                *s += av * bv;
            }
        }
        o_row[j0..j0 + jw].copy_from_slice(&acc[..jw]);
        j0 += jw;
    }
}

/// Whether this CPU supports AVX2 (cached after the first query).
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Whether this CPU supports AVX-512F (cached after the first query).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_available() -> bool {
    static AVX512: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// AVX-512 per-row kernel: 16-wide across output columns; otherwise the
/// same structure and bit-identity argument as [`row_matmul_avx2`]
/// (lane-wise single-precision multiply then add, ascending `k`, no
/// FMA). The left row is read by stride as in [`row_matmul`]; `steps` are
/// the `kk` its chains visit: [`AllSteps`], or the listed steps of
/// [`matmul_rows_listed_avx512`]. One body, monomorphised per kind of
/// `steps`, so the dense loop is the same code either way.
///
/// # Safety
///
/// Requires AVX-512F, every step below `k = a.len().div_ceil(step)`,
/// `o_row.len() == m` and `bd.len() >= k * m`; otherwise the bounds
/// argument of [`row_matmul_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn row_matmul_avx512<S: Steps>(
    a: &[f32],
    step: usize,
    steps: S,
    bd: &[f32],
    m: usize,
    o_row: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    let k = a.len().div_ceil(step);
    debug_assert!(bd.len() >= k * m && o_row.len() == m && steps.each(k).all(|kk| kk < k));
    let mut j0 = 0usize;
    while j0 + 32 <= m {
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        for (kk, &av) in steps.values(a, step) {
            let va = _mm512_set1_ps(av);
            let bp = bd.as_ptr().add(kk * m + j0);
            acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(va, _mm512_loadu_ps(bp)));
            acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(va, _mm512_loadu_ps(bp.add(16))));
        }
        let op = o_row.as_mut_ptr().add(j0);
        _mm512_storeu_ps(op, acc0);
        _mm512_storeu_ps(op.add(16), acc1);
        j0 += 32;
    }
    while j0 + 16 <= m {
        let mut acc = _mm512_setzero_ps();
        for (kk, &av) in steps.values(a, step) {
            let va = _mm512_set1_ps(av);
            acc = _mm512_add_ps(
                acc,
                _mm512_mul_ps(va, _mm512_loadu_ps(bd.as_ptr().add(kk * m + j0))),
            );
        }
        _mm512_storeu_ps(o_row.as_mut_ptr().add(j0), acc);
        j0 += 16;
    }
    // Scalar tail: same ascending-k accumulation per element.
    for j in j0..m {
        let mut acc = 0.0f32;
        for (kk, &av) in steps.values(a, step) {
            acc += av * bd[kk * m + j];
        }
        o_row[j] = acc;
    }
}

/// Four-row AVX-512 kernel: one sweep over `b` feeds four independent
/// output rows, with each row's 16-lane accumulators carried across the
/// whole `k` loop. Per output element this is the identical
/// ascending-`k` multiply-then-add chain as [`row_matmul_avx512`]
/// (lane-wise IEEE single ops, no FMA) — the rows only *interleave* in
/// time, they never mix — so results are bit-identical to running the
/// per-row kernel four times. The interleaving exists purely to hide
/// the 4-cycle vector-add latency that serializes a single row's chain.
///
/// Value `kk` of left row `r` is `a[r * lda + kk]` — four rows of a
/// row-major matrix — or, with `TN`, `a[kk * lda + r]`: four adjacent
/// columns, i.e. four rows of its transpose. `steps` are the `kk` the
/// chains visit: [`AllSteps`], or the listed steps of
/// [`matmul_rows_listed_avx512`]. One body, monomorphised per kind of
/// `steps`, so the dense loop is the same code either way.
///
/// # Safety
///
/// Requires AVX-512F and every step below `k`. `a` must reach index `3 *
/// lda + k - 1` (with `TN`: `(k - 1) * lda + 3`), `o` must hold exactly
/// `4 * m` elements and `bd` at least `k * m`; all pointer arithmetic
/// stays inside those bounds by the loop limits (`j0 + width <= m`, `kk <
/// k`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quad_matmul_avx512<const TN: bool, S: Steps>(
    a: &[f32],
    lda: usize,
    bd: &[f32],
    k: usize,
    steps: S,
    m: usize,
    o: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    // Strides between the four left rows and along one of them.
    let (row, step) = if TN { (1, lda) } else { (lda, 1) };
    debug_assert!(k > 0 && a.len() > 3 * row + (k - 1) * step);
    debug_assert!(o.len() == 4 * m && bd.len() >= k * m && steps.each(k).all(|kk| kk < k));
    let ap = a.as_ptr();
    let a = [ap, ap.add(row), ap.add(2 * row), ap.add(3 * row)];
    let op = o.as_mut_ptr();
    let orows = [op, op.add(m), op.add(2 * m), op.add(3 * m)];
    let mut j0 = 0usize;
    // 32-wide column blocks: 4 rows × 2 ZMM accumulators (8 live regs).
    while j0 + 32 <= m {
        let mut acc0 = [_mm512_setzero_ps(); 4];
        let mut acc1 = [_mm512_setzero_ps(); 4];
        for kk in steps.each(k) {
            let bp = bd.as_ptr().add(kk * m + j0);
            let b0 = _mm512_loadu_ps(bp);
            let b1 = _mm512_loadu_ps(bp.add(16));
            for r in 0..4 {
                let av = _mm512_set1_ps(*a[r].add(kk * step));
                acc0[r] = _mm512_add_ps(acc0[r], _mm512_mul_ps(av, b0));
                acc1[r] = _mm512_add_ps(acc1[r], _mm512_mul_ps(av, b1));
            }
        }
        for r in 0..4 {
            _mm512_storeu_ps(orows[r].add(j0), acc0[r]);
            _mm512_storeu_ps(orows[r].add(j0 + 16), acc1[r]);
        }
        j0 += 32;
    }
    while j0 + 16 <= m {
        let mut acc = [_mm512_setzero_ps(); 4];
        for kk in steps.each(k) {
            let b0 = _mm512_loadu_ps(bd.as_ptr().add(kk * m + j0));
            for r in 0..4 {
                let av = _mm512_set1_ps(*a[r].add(kk * step));
                acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b0));
            }
        }
        for r in 0..4 {
            _mm512_storeu_ps(orows[r].add(j0), acc[r]);
        }
        j0 += 16;
    }
    // Scalar tail: same ascending-k accumulation per element, row-major.
    for r in 0..4 {
        for j in j0..m {
            let mut acc = 0.0f32;
            for kk in steps.each(k) {
                acc += *a[r].add(kk * step) * bd[kk * m + j];
            }
            o[r * m + j] = acc;
        }
    }
}

/// AVX2 per-row kernel: 8-wide across output columns, accumulators held
/// in registers across the whole `k` loop and stored once. Per output
/// element this is the identical ascending-`k` multiply-then-add
/// sequence as [`row_matmul_scalar`] (`_mm256_mul_ps`/`_mm256_add_ps`
/// are lane-wise IEEE single ops; no FMA), so results are bit-identical.
///
/// # Safety
///
/// Requires AVX2, `o_row.len() == m` and `bd.len() >= k * m` for the `k =
/// a.len().div_ceil(step)` values the left row holds. All pointer
/// arithmetic stays inside `bd`/`o_row`: for every block start `j0` the
/// kernel only advances while `j0 + width <= m`, and `kk < k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_matmul_avx2(a: &[f32], step: usize, bd: &[f32], m: usize, o_row: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    debug_assert!(bd.len() >= a.len().div_ceil(step) * m && o_row.len() == m);
    let mut j0 = 0usize;
    // 32-wide blocks: four YMM accumulators live across the k loop.
    while j0 + 32 <= m {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        for (kk, &av) in a.iter().step_by(step).enumerate() {
            let va = _mm256_set1_ps(av);
            let bp = bd.as_ptr().add(kk * m + j0);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(8))));
            acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(16))));
            acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(24))));
        }
        let op = o_row.as_mut_ptr().add(j0);
        _mm256_storeu_ps(op, acc0);
        _mm256_storeu_ps(op.add(8), acc1);
        _mm256_storeu_ps(op.add(16), acc2);
        _mm256_storeu_ps(op.add(24), acc3);
        j0 += 32;
    }
    while j0 + 8 <= m {
        let mut acc = _mm256_setzero_ps();
        for (kk, &av) in a.iter().step_by(step).enumerate() {
            let va = _mm256_set1_ps(av);
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(va, _mm256_loadu_ps(bd.as_ptr().add(kk * m + j0))),
            );
        }
        _mm256_storeu_ps(o_row.as_mut_ptr().add(j0), acc);
        j0 += 8;
    }
    // Scalar tail: same ascending-k accumulation per element.
    for j in j0..m {
        let mut acc = 0.0f32;
        for (kk, &av) in a.iter().step_by(step).enumerate() {
            acc += av * bd[kk * m + j];
        }
        o_row[j] = acc;
    }
}

// ---------------------------------------------------------------------------
// Layer loops
// ---------------------------------------------------------------------------

/// `act(x·W + b)` into `out`, whose contents may be stale: the matmul
/// writes a group of rows, then bias-add and activation run as an epilogue
/// over the same rows — one pass per row group. Bit-identical to a matmul,
/// a broadcast add and an elementwise activation in sequence (same
/// k-ascending accumulation, same whole-zero-row skip; the epilogue still
/// runs on skipped rows). `w_finite` as `b_finite` of [`matmul_into`].
pub(crate) fn linear_into(
    x: &Tensor,
    w: &Tensor,
    w_finite: bool,
    b: &Tensor,
    act: Activation,
    out: &mut Tensor,
) {
    let (n, k) = x.shape();
    assert_eq!(k, w.rows(), "linear input dim mismatch");
    let m = w.cols();
    assert_eq!((b.shape(), out.shape()), ((1, m), (n, m)), "linear shapes");
    let bias = b.data();
    for (g, block) in out.data_mut().chunks_mut((4 * m).max(1)).enumerate() {
        let (i0, nr) = (4 * g, block.len() / m);
        matmul_rows(
            &x.data()[i0 * k..(i0 + nr) * k],
            w.data(),
            k,
            m,
            w_finite,
            block,
        );
        // Dispatch on the activation once per block, not per element:
        // with `act` a compile-time constant inside each arm the match
        // in `apply_scalar` folds away and the cheap activations
        // vectorize. Every arm applies the same formula.
        match act {
            Activation::Identity => {
                bias_act(block, m, bias, |x| Activation::Identity.apply_scalar(x))
            }
            Activation::Relu => bias_act(block, m, bias, |x| Activation::Relu.apply_scalar(x)),
            other => bias_act(block, m, bias, move |x| other.apply_scalar(x)),
        }
    }
}

/// Bias-add + activation epilogue over a block of rows, monomorphized
/// per activation by [`linear_into`].
#[inline]
fn bias_act(block: &mut [f32], m: usize, bias: &[f32], f: impl Fn(f32) -> f32) {
    for o_row in block.chunks_exact_mut(m) {
        for (o, &bv) in o_row.iter_mut().zip(bias.iter()) {
            *o = f(*o + bv);
        }
    }
}

/// Gather + scatter-add: `out[dst[j]] += h[src[j]]` for ascending `j`, on
/// top of whatever `out` holds (callers start it at zero). One pass for
/// what a row gather into an `[e, c]` message matrix followed by a segment
/// sum would do, in the same accumulation order.
#[inline]
pub fn gather_add_into(h: &Tensor, src: &[u32], dst: &[u32], out: &mut Tensor) {
    assert_eq!(src.len(), dst.len(), "edge arrays differ in length");
    let c = h.cols();
    assert_eq!(out.cols(), c, "gather_add width mismatch");
    let n_out = out.rows();
    let od = out.data_mut();
    for (&s, &d) in src.iter().zip(dst.iter()) {
        let d = d as usize;
        assert!(d < n_out, "segment id {d} out of range {n_out}");
        let hr = h.row(s as usize);
        let orow = &mut od[d * c..(d + 1) * c];
        for (o, &x) in orow.iter_mut().zip(hr.iter()) {
            *o += x;
        }
    }
}

/// The GIN combine `(1+ε)·h + Σ_{u'∈N(u)} h_{u'}` (Eq. 3's MLP input) into
/// a zeroed `out`: the neighbour sum first, then the scaled self term added
/// onto it — `agg + h·(1+ε)`, one multiply and one add per element.
#[inline]
pub fn gin_combine_into(h: &Tensor, one_plus_eps: f32, src: &[u32], dst: &[u32], out: &mut Tensor) {
    assert_eq!(out.shape(), h.shape(), "gin_combine shape mismatch");
    gather_add_into(h, src, dst, out);
    for (o, &x) in out.data_mut().iter_mut().zip(h.data().iter()) {
        *o += x * one_plus_eps;
    }
}

/// Attention logits before their LeakyReLU: for every edge `j`, ascending,
/// `sink(j, a·[Θ_a h_dst ‖ Θ_a h_src])` with `ta = Θ_a h` and `attn` the
/// flat `[2·out]` attention vector. The sum visits the dst half then the
/// src half, k-ascending, from `+0.0` — the order a `concat_cols` + matmul
/// pair defines, including that matmul's skip of a whole-zero left row:
/// products of zeros sum to the `+0.0` the skip leaves unless `attn` holds
/// an `inf` or a NaN, so only a NaN result is checked against it.
///
/// Four edges per iteration: each logit is one long sequential add chain,
/// so interleaving four independent chains hides the add latency. Chains
/// never mix.
#[inline]
pub fn edge_logits(
    ta: &Tensor,
    attn: &[f32],
    src: &[u32],
    dst: &[u32],
    mut sink: impl FnMut(usize, f32),
) {
    let out_dim = ta.cols();
    assert_eq!(attn.len(), 2 * out_dim, "attention vector length");
    assert_eq!(src.len(), dst.len(), "edge arrays differ in length");
    let (a_dst, a_src) = attn.split_at(out_dim);
    let skipped = |logit: f32, dr: &[f32], sr: &[f32]| {
        if logit.is_nan() && dr.iter().chain(sr).all(|&x| x == 0.0) {
            0.0
        } else {
            logit
        }
    };
    let e = src.len();
    let mut j = 0usize;
    while j + 4 <= e {
        let dr = std::array::from_fn::<_, 4, _>(|t| &ta.row(dst[j + t] as usize)[..out_dim]);
        let sr = std::array::from_fn::<_, 4, _>(|t| &ta.row(src[j + t] as usize)[..out_dim]);
        let mut acc = [0.0f32; 4];
        for (k, &a) in a_dst.iter().enumerate() {
            for t in 0..4 {
                acc[t] += dr[t][k] * a;
            }
        }
        for (k, &a) in a_src.iter().enumerate() {
            for t in 0..4 {
                acc[t] += sr[t][k] * a;
            }
        }
        for (t, &a) in acc.iter().enumerate() {
            sink(j + t, skipped(a, dr[t], sr[t]));
        }
        j += 4;
    }
    for j in j..e {
        let dr = ta.row(dst[j] as usize);
        let sr = ta.row(src[j] as usize);
        let mut acc = 0.0f32;
        for (&x, &a) in dr.iter().zip(a_dst.iter()) {
            acc += x * a;
        }
        for (&x, &a) in sr.iter().zip(a_src.iter()) {
            acc += x * a;
        }
        sink(j, skipped(acc, dr, sr));
    }
}

/// Softmax over the incoming edges of each destination, in place: `x`
/// enters as one logit per edge and leaves as `α_j = exp(x_j − max_d) /
/// (Σ_d exp + 1e-12)`, with `max_d`/`Σ_d` taken over the edges sharing
/// `dst[j]`. `maxes` and `denom` are `n`-long scratch the caller provides —
/// `maxes` may be stale, `denom` must be zero — and come back holding the
/// per-destination maximum (0 where no edge arrives) and `Σ_d exp`; `exps`,
/// when asked for, receives `exp(x_j − max_d)` (a backward pass needs both).
#[inline]
pub fn segment_softmax(
    x: &mut [f32],
    dst: &[u32],
    maxes: &mut [f32],
    denom: &mut [f32],
    exps: Option<&mut [f32]>,
) {
    assert_eq!(x.len(), dst.len(), "one logit per edge");
    maxes.fill(f32::NEG_INFINITY);
    for (&l, &d) in x.iter().zip(dst) {
        let m = &mut maxes[d as usize];
        *m = m.max(l);
    }
    for m in maxes.iter_mut() {
        if *m == f32::NEG_INFINITY {
            *m = 0.0;
        }
    }
    for (l, &d) in x.iter_mut().zip(dst) {
        *l = (*l - maxes[d as usize]).exp();
    }
    for (&e, &d) in x.iter().zip(dst) {
        denom[d as usize] += e;
    }
    if let Some(exps) = exps {
        exps.copy_from_slice(x);
    }
    for (l, &d) in x.iter_mut().zip(dst) {
        *l /= denom[d as usize] + SOFTMAX_EPS;
    }
}

/// Guard added to a softmax denominator before dividing.
pub(crate) const SOFTMAX_EPS: f32 = 1e-12;

/// The tail of an attention layer into a zeroed `out`: the α-weighted sum
/// `out[dst[j]] += α_j · Θh[src[j]]` in edge order, then, per vertex, the
/// no-incoming-edge fallback and the output sigmoid, `σ(out + Θh·m)` with
/// `m = 1` exactly where `has_in` is false.
#[inline]
pub fn attend_aggregate(
    th: &Tensor,
    alpha: &[f32],
    src: &[u32],
    dst: &[u32],
    has_in: &[bool],
    out: &mut Tensor,
) {
    assert_eq!(out.shape(), th.shape(), "attend_aggregate shape mismatch");
    assert_eq!((alpha.len(), src.len()), (dst.len(), dst.len()));
    assert_eq!(has_in.len(), th.rows(), "one has_in flag per vertex");
    let c = th.cols();
    let od = out.data_mut();
    for ((&a, &s), &d) in alpha.iter().zip(src).zip(dst) {
        let sr = th.row(s as usize);
        let d = d as usize;
        let orow = &mut od[d * c..(d + 1) * c];
        for (o, &x) in orow.iter_mut().zip(sr.iter()) {
            *o += x * a;
        }
    }
    for (i, &present) in has_in.iter().enumerate() {
        let m = if present { 0.0 } else { 1.0 };
        let tr = th.row(i);
        let orow = &mut od[i * c..(i + 1) * c];
        for (o, &t) in orow.iter_mut().zip(tr.iter()) {
            *o += t * m;
        }
    }
    sigmoid_in_place(od);
}

/// `stable_sigmoid` of every element, in place, bit for bit (the tier
/// contract in the module doc): the AVX-512 tier if this CPU has it and
/// its probe passed, the scalar loop otherwise.
pub fn sigmoid_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if sigmoid_tier_accepted() {
        // SAFETY: acceptance implies the CPU reports AVX-512F.
        unsafe { sigmoid_avx512(xs) };
        return;
    }
    for x in xs {
        *x = stable_sigmoid(*x);
    }
}

/// Inputs the AVX-512 sigmoid must reproduce before the process uses it:
/// `±63.09946` and `±32.564632`, where an `exp` without glibc's fused
/// reduction rounds differently (`−63.09946` is the one input whose
/// sigmoid shows it), then the other regimes — signed zeros, subnormals,
/// the polynomial range, `expf`'s overflow and underflow edges, infinities
/// and NaN (the last ones through the scalar recompute). Two full vectors,
/// so no probe lands in the scalar tail.
#[cfg(target_arch = "x86_64")]
const SIGMOID_PROBES: [f32; 32] = [
    63.09946,
    -63.09946,
    32.564632,
    -32.564632,
    0.0,
    -0.0,
    1.0e-40,
    -1.0e-40,
    1.0e-3,
    -1.0e-3,
    0.5,
    -0.5,
    1.0,
    -1.0,
    2.6457513,
    -3.6055512,
    10.0,
    -10.0,
    17.25,
    -23.5,
    41.0,
    -55.5,
    87.99999,
    -87.99999,
    88.0,
    -88.0,
    88.72284,
    -103.97208,
    -150.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
];

/// Whether [`sigmoid_in_place`] runs the AVX-512 tier: the CPU reports
/// AVX-512F and the tier reproduced `stable_sigmoid` on every probe
/// (decided once per process).
#[cfg(target_arch = "x86_64")]
fn sigmoid_tier_accepted() -> bool {
    static ACCEPTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ACCEPTED.get_or_init(|| {
        if !avx512_available() {
            return false;
        }
        let mut got = SIGMOID_PROBES;
        // SAFETY: the CPU reports AVX-512F (checked above).
        unsafe { sigmoid_avx512(&mut got) };
        // `black_box`: the reference must be the libm call the scalar
        // loop makes at run time, not a value folded at compile time.
        let want = SIGMOID_PROBES.map(|x| stable_sigmoid(std::hint::black_box(x)));
        got.iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
    })
}

/// AVX-512 sigmoid, 16 lanes a step: `e = exp(−|x|)` by glibc's `__expf`
/// main path in two 8-lane f64 halves — `kd = fma(InvLn2N, x, shift)`,
/// `r = fma(InvLn2N, x, −(kd − shift))`, `s` from the table and the low
/// bits of `kd`, `y = fma(fma(C0, r, C1), r², fma(C2, r, 1))·s` — the
/// contraction of glibc's FMA build, instruction for instruction. Then
/// `(x ≥ 0 ? 1 : e) / (1 + e)` in f32, as `stable_sigmoid` branches.
/// Lanes with `|x| ≥ 88` or NaN, and the `len % 16` tail, go to
/// `stable_sigmoid` itself.
///
/// # Safety
///
/// Requires AVX-512F. Every load and store stays inside one 16-element
/// chunk of `xs` or eight entries of the table.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sigmoid_avx512(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    // glibc's `__exp2f_data` as f64 bit patterns: the table (`2^(i/32)`
    // with `i << 47` taken out of its bits), `32/ln 2`, the rounding shift
    // `0x1.8p52` and the polynomial `C0..C2`, all scaled for `N = 32`.
    const TAB: [u64; 32] = [
        0x3ff0000000000000,
        0x3fefd9b0d3158574,
        0x3fefb5586cf9890f,
        0x3fef9301d0125b51,
        0x3fef72b83c7d517b,
        0x3fef54873168b9aa,
        0x3fef387a6e756238,
        0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715,
        0x3feef1a7373aa9cb,
        0x3feedea64c123422,
        0x3feece086061892d,
        0x3feebfdad5362a27,
        0x3feeb42b569d4f82,
        0x3feeab07dd485429,
        0x3feea47eb03a5585,
        0x3feea09e667f3bcd,
        0x3fee9f75e8ec5f74,
        0x3feea11473eb0187,
        0x3feea589994cce13,
        0x3feeace5422aa0db,
        0x3feeb737b0cdc5e5,
        0x3feec49182a3f090,
        0x3feed503b23e255d,
        0x3feee89f995ad3ad,
        0x3feeff76f2fb5e47,
        0x3fef199bdd85529c,
        0x3fef3720dcef9069,
        0x3fef5818dcfba487,
        0x3fef7c97337b9b5f,
        0x3fefa4afa2a490da,
        0x3fefd0765b6e4540,
    ];
    const INV_LN2_N: u64 = 0x40471547652b82fe;
    const SHIFT: u64 = 0x4338000000000000;
    const POLY: [u64; 3] = [0x3ebc6af84b912394, 0x3f2ebfce50fac4f3, 0x3f962e42ff0c52d6];
    let table = |i: usize| _mm512_loadu_si512(TAB[i..i + 8].as_ptr().cast());
    let (t0, t1, t2, t3) = (table(0), table(8), table(16), table(24));
    let splat = |bits: u64| _mm512_set1_pd(f64::from_bits(bits));
    let (inv_ln2_n, shift) = (splat(INV_LN2_N), splat(SHIFT));
    let [c0, c1, c2] = POLY.map(splat);
    let (one_d, bit4) = (_mm512_set1_pd(1.0), _mm512_set1_epi64(16));
    let exp8 = |a: __m256| {
        let x = _mm512_cvtps_pd(a);
        let kd = _mm512_fmadd_pd(inv_ln2_n, x, shift);
        let ki = _mm512_castpd_si512(kd);
        let r = _mm512_fmsub_pd(inv_ln2_n, x, _mm512_sub_pd(kd, shift));
        // T[ki % 32]: two 16-entry lookups, picked by bit 4.
        let low = _mm512_permutex2var_epi64(t0, ki, t1);
        let high = _mm512_permutex2var_epi64(t2, ki, t3);
        let t = _mm512_mask_blend_epi64(_mm512_test_epi64_mask(ki, bit4), low, high);
        let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
        let z = _mm512_fmadd_pd(c0, r, c1);
        let y = _mm512_fmadd_pd(z, _mm512_mul_pd(r, r), _mm512_fmadd_pd(c2, r, one_d));
        _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
    };
    let (one, sign, limit) = (
        _mm512_set1_ps(1.0),
        _mm512_set1_epi32(i32::MIN),
        _mm512_set1_ps(-88.0),
    );
    let mut chunks = xs.chunks_exact_mut(16);
    for chunk in &mut chunks {
        let x = _mm512_loadu_ps(chunk.as_ptr());
        // −|x|: what `stable_sigmoid` hands `exp` on either branch.
        let a = _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(x), sign));
        let halves = _mm512_castps_pd(a);
        let lo = exp8(_mm256_castpd_ps(_mm512_castpd512_pd256(halves)));
        let hi = exp8(_mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(halves)));
        let e = _mm512_castpd_ps(_mm512_insertf64x4::<1>(
            _mm512_castpd256_pd512(_mm256_castps_pd(lo)),
            _mm256_castps_pd(hi),
        ));
        let nonneg = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, _mm512_setzero_ps());
        let num = _mm512_mask_blend_ps(nonneg, e, one);
        // `−|x| ≤ −88` or NaN: outside `expf`'s main path. Those lanes are
        // not stored; they still hold `x` for the scalar function.
        let slow = _mm512_cmp_ps_mask::<_CMP_NGT_UQ>(a, limit);
        let sig = _mm512_div_ps(num, _mm512_add_ps(one, e));
        _mm512_mask_storeu_ps(chunk.as_mut_ptr(), !slow, sig);
        if slow != 0 {
            for (lane, v) in chunk.iter_mut().enumerate() {
                if slow >> lane & 1 == 1 {
                    *v = stable_sigmoid(*v);
                }
            }
        }
    }
    for x in chunks.into_remainder() {
        *x = stable_sigmoid(*x);
    }
}

/// Sign-preserving logarithmic compression
/// `ln(1 + relu(x)) − ln(1 + relu(−x))` — strictly monotone, identity-like
/// near 0, logarithmic for large `|x|` (the readout's input scaling).
#[inline]
pub fn log1p_signed_scalar(x: f32) -> f32 {
    let lp = (x.max(0.0) + 1.0).ln();
    let ln_neg = ((-x).max(0.0) + 1.0).ln();
    lp - ln_neg
}

/// `min(x, cap)` as `cap − relu(cap − x)`: negate, shift, `relu`, negate,
/// shift.
#[inline]
pub fn clamp_max_scalar(x: f32, cap: f32) -> f32 {
    let shifted = -x + cap;
    let r = shifted.max(0.0);
    -r + cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{Arena, InferCtx, InferWeights, QuantMode};
    use proptest::prelude::*;

    /// The contract's chain for one left row, written independently of
    /// every tier: per output element, from `+0.0`, ascending `k`,
    /// multiply then add. No skip rule.
    fn chain(left: &[f32], right: &[f32], m: usize) -> Vec<f32> {
        (0..m)
            .map(|j| {
                let mut acc = 0.0f32;
                for (kk, &av) in left.iter().enumerate() {
                    acc += av * right[kk * m + j];
                }
                acc
            })
            .collect()
    }

    /// The whole product by definition — a naive triple loop plus the skip
    /// rule — over explicit left rows (for `tn`: the columns of `a`).
    fn naive(left_rows: &[Vec<f32>], right: &[f32], m: usize) -> Vec<f32> {
        let mut out = Vec::new();
        for row in left_rows {
            if row.iter().all(|&x| x == 0.0) {
                out.extend(std::iter::repeat_n(0.0, m));
            } else {
                out.extend(chain(row, right, m));
            }
        }
        out
    }

    /// Bit equality, except that any NaN equals any NaN: which payload
    /// survives `NaN + NaN` is the instruction's operand order, not part
    /// of the contract.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i}: {g:?} != {w:?}"
            );
        }
    }

    /// xorshift64 test data: small values, a quarter of them signed zeros.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn zero(&mut self) -> f32 {
            [0.0, -0.0][self.below(2) as usize]
        }

        fn value(&mut self) -> f32 {
            match self.below(8) {
                0 | 1 => self.zero(),
                _ => (self.below(2001) as f32 - 1000.0) / 500.0,
            }
        }

        /// A left operand with `zero_pct` percent of its values (signed)
        /// zero, plus structured zeros: a third of its rows, a quarter of
        /// its full four-row groups and a quarter of its columns are
        /// entirely zero. Every other one carries two of `-0.0`, a
        /// subnormal, `±inf` and NaN, which the zero-step lists must keep
        /// or drop exactly as the chain would add them.
        fn left(&mut self, n: usize, k: usize, zero_pct: u64) -> Tensor {
            let values = (0..n * k).map(|_| {
                if self.below(100) < zero_pct {
                    self.zero()
                } else {
                    self.value()
                }
            });
            let mut t = Tensor::from_vec(n, k, values.collect());
            if !t.is_empty() && self.below(2) == 0 {
                for _ in 0..2 {
                    let special = [
                        -0.0,
                        1.0e-40,
                        -1.0e-40,
                        f32::INFINITY,
                        -f32::INFINITY,
                        f32::NAN,
                    ][self.below(6) as usize];
                    let at = self.below(t.len() as u64) as usize;
                    t.data_mut()[at] = special;
                }
            }
            let mut zero_rows = |rows: std::ops::Range<usize>, gen: &mut Self| {
                for x in &mut t.data_mut()[rows.start * k..rows.end * k] {
                    *x = gen.zero();
                }
            };
            for i in 0..n {
                if self.below(3) == 0 {
                    zero_rows(i..i + 1, self);
                }
            }
            for i0 in (0..n / 4).map(|g| 4 * g) {
                if self.below(4) == 0 {
                    zero_rows(i0..i0 + 4, self);
                }
            }
            for j in 0..k {
                if self.below(4) == 0 {
                    (0..n).for_each(|i| t.data_mut()[i * k + j] = self.zero());
                }
            }
            t
        }

        /// A right operand; every other one carries `inf`, `-inf` and NaN,
        /// which only the skip rule keeps out of a zero row's output.
        fn right(&mut self, rows: usize, m: usize) -> Tensor {
            let mut t = self.finite(rows, m);
            if !t.is_empty() && self.below(2) == 0 {
                for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    let at = self.below(t.len() as u64) as usize;
                    t.data_mut()[at] = poison;
                }
            }
            t
        }

        /// A right operand with no `inf` or NaN: one the zero steps of a
        /// left row may be skipped against.
        fn finite(&mut self, rows: usize, m: usize) -> Tensor {
            Tensor::from_vec(rows, m, (0..rows * m).map(|_| self.value()).collect())
        }
    }

    type RowTier = fn(&[f32], usize, &[f32], usize, &mut [f32]);

    /// Every per-row tier this CPU can run — not only the dispatched one.
    fn row_tiers() -> Vec<(&'static str, RowTier)> {
        let mut tiers: Vec<(&'static str, RowTier)> = vec![("scalar", row_matmul_scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_available() {
                // SAFETY (both): the feature was just detected; the callers
                // below pass the lengths `row_matmul` asserts.
                tiers.push(("avx2", |a, s, b, m, o| unsafe {
                    row_matmul_avx2(a, s, b, m, o)
                }));
            }
            if avx512_available() {
                tiers.push(("avx512", |a, s, b, m, o| unsafe {
                    row_matmul_avx512(a, s, AllSteps, b, m, o)
                }));
            }
        }
        tiers
    }

    /// The steps of a group of left rows that a zero-step list must hold:
    /// those where some row is not `±0.0` (NaN included).
    fn live_steps(rows: &[Vec<f32>], k: usize) -> Vec<u32> {
        let live = |kk: usize| rows.iter().any(|r| r[kk] != 0.0 || r[kk].is_nan());
        (0..k as u32).filter(|&kk| live(kk as usize)).collect()
    }

    /// `a × b` and `aᵀ × g` for one shape: every caller of the dispatched
    /// family, then every tier called directly, all against the definition
    /// above — and `a` against a finite right operand with and without its
    /// finiteness bit, which lets the AVX-512 kernels skip zero steps.
    fn check(n: usize, k: usize, m: usize, zero_pct: u64, seed: u64) {
        let mut gen = Gen(seed | 1);
        let a = gen.left(n, k, zero_pct);
        let (b, g, bf) = (gen.right(k, m), gen.right(n, m), gen.finite(k, m));
        let rows: Vec<Vec<f32>> = (0..n).map(|i| a.row(i).to_vec()).collect();
        let cols: Vec<Vec<f32>> = (0..k)
            .map(|j| (0..n).map(|i| a.data()[i * k + j]).collect())
            .collect();
        let (want, want_tn) = (naive(&rows, b.data(), m), naive(&cols, g.data(), m));
        let want_f = naive(&rows, bf.data(), m);
        let what = format!("[{n},{k}] x [..,{m}] {zero_pct}% zero, seed {seed:#x}");

        let mut store = crate::ParamStore::new();
        let (b_id, bf_id) = (store.alloc(b.clone()), store.alloc(bf.clone()));
        let weights = InferWeights::from_store(&store, QuantMode::F32);
        assert!(weights.is_finite(bf_id));
        let mut ctx = InferCtx::new(&weights, Arena::new());
        assert_same(
            a.matmul(&b).data(),
            &want,
            &format!("Tensor::matmul {what}"),
        );
        assert_same(
            ctx.matmul(&a, b_id).data(),
            &want,
            &format!("InferCtx::matmul {what}"),
        );
        assert_same(
            ctx.matmul(&a, bf_id).data(),
            &want_f,
            &format!("InferCtx::matmul, finite {what}"),
        );
        for b_finite in [false, true] {
            let mut out = Tensor::from_vec(n, m, vec![f32::NAN; n * m]);
            matmul_into(&a, &bf, b_finite, &mut out);
            assert_same(
                out.data(),
                &want_f,
                &format!("finite, bit {b_finite} {what}"),
            );
        }
        let tn = a.matmul_tn(&g);
        assert_same(tn.data(), &want_tn, &format!("matmul_tn {what}"));
        let transposed = a.transpose().matmul(&g);
        assert_same(
            tn.data(),
            transposed.data(),
            &format!("tn vs transpose {what}"),
        );

        // Stale output contents must be overwritten, never accumulated on.
        let mut o = vec![f32::NAN; m];
        for (name, tier) in row_tiers() {
            for (i, row) in rows.iter().enumerate() {
                tier(a.row(i), 1, b.data(), m, &mut o);
                assert_same(
                    &o,
                    &chain(row, b.data(), m),
                    &format!("{name} row {i} {what}"),
                );
            }
            for (j, col) in cols.iter().enumerate().filter(|_| n > 0) {
                tier(&a.data()[j..], k, g.data(), m, &mut o);
                assert_same(
                    &o,
                    &chain(col, g.data(), m),
                    &format!("{name} column {j} {what}"),
                );
            }
        }
        #[cfg(target_arch = "x86_64")]
        if avx512_available() && k > 0 {
            let mut list = vec![std::mem::MaybeUninit::uninit(); k + 16];
            for (i, row) in rows.iter().enumerate() {
                // SAFETY: AVX-512F detected; one row of `k > 0` values, a
                // list of `k + 16`.
                let steps = unsafe { nonzero_steps_avx512(row, k, &mut list) };
                assert_eq!(steps, live_steps(&rows[i..=i], k), "row {i} steps {what}");
                // SAFETY: as above; the steps were just checked to be
                // below `k`, `bf` is `[k, m]` and `o` is `m` long.
                unsafe { row_matmul_avx512(row, 1, steps, bf.data(), m, &mut o) };
                let want = chain(row, bf.data(), m);
                assert_same(&o, &want, &format!("listed row {i} {what}"));
            }
            let mut o = vec![f32::NAN; 4 * m];
            for i0 in 0..(n + 1).saturating_sub(4) {
                let group = &a.data()[i0 * k..(i0 + 4) * k];
                // SAFETY: AVX-512F detected; four rows of `k > 0` values,
                // `b` is `[k, m]`, `o` is `4 * m`.
                unsafe {
                    quad_matmul_avx512::<false, _>(group, k, b.data(), k, AllSteps, m, &mut o)
                };
                let want: Vec<f32> = rows[i0..i0 + 4]
                    .iter()
                    .flat_map(|r| chain(r, b.data(), m))
                    .collect();
                assert_same(&o, &want, &format!("quad rows {i0}.. {what}"));

                // SAFETY: as above, with a list of `k + 16`.
                let steps = unsafe { nonzero_steps_avx512(group, k, &mut list) };
                assert_eq!(
                    steps,
                    live_steps(&rows[i0..i0 + 4], k),
                    "group {i0} steps {what}"
                );
                // SAFETY: as above; the steps were just checked to be below
                // `k`.
                unsafe { quad_matmul_avx512::<false, _>(group, k, bf.data(), k, steps, m, &mut o) };
                let want: Vec<f32> = rows[i0..i0 + 4]
                    .iter()
                    .flat_map(|r| chain(r, bf.data(), m))
                    .collect();
                assert_same(&o, &want, &format!("listed quad rows {i0}.. {what}"));
            }
        }
        #[cfg(target_arch = "x86_64")]
        if avx512_available() && n > 0 {
            let mut o = vec![f32::NAN; 4 * m];
            for j0 in 0..(k + 1).saturating_sub(4) {
                // SAFETY: AVX-512F detected; four columns of `n > 0` values,
                // `g` is `[n, m]`, `o` is `4 * m`.
                let a = &a.data()[j0..];
                unsafe { quad_matmul_avx512::<true, _>(a, k, g.data(), n, AllSteps, m, &mut o) };
                let want: Vec<f32> = cols[j0..j0 + 4]
                    .iter()
                    .flat_map(|c| chain(c, g.data(), m))
                    .collect();
                assert_same(&o, &want, &format!("quad columns {j0}.. {what}"));
            }
        }
    }

    /// A row longer than the step list runs the dense loops, finite right
    /// operand or not.
    #[test]
    fn rows_past_the_step_list_cap_match_the_definition() {
        let (n, k, m) = (5, MAX_LISTED_STEPS + 3, 17);
        let mut gen = Gen(0x1157_ed00);
        let a = gen.left(n, k, 80);
        let bf = gen.finite(k, m);
        let rows: Vec<Vec<f32>> = (0..n).map(|i| a.row(i).to_vec()).collect();
        let mut out = Tensor::zeros(n, m);
        matmul_into(&a, &bf, true, &mut out);
        assert_same(out.data(), &naive(&rows, bf.data(), m), "past the cap");
    }

    /// The sigmoid tier under test: the AVX-512 one whenever the CPU has
    /// it, whether or not the probe accepted it, else the dispatched kernel.
    fn sigmoid_tier() -> fn(&mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if avx512_available() {
            // SAFETY: AVX-512F detected.
            return |xs| unsafe { sigmoid_avx512(xs) };
        }
        sigmoid_in_place
    }

    /// Slice lengths around the 16-lane step: empty, tail only, one step
    /// with and without a tail, several steps.
    const SIGMOID_LENGTHS: [usize; 7] = [0, 1, 15, 16, 17, 33, 128];

    /// Runs `f` over `xs` cut into slices of `len` — for `len = 0`, one
    /// empty slice and then `xs` whole — and returns the inputs whose
    /// output bits differ from `stable_sigmoid`'s.
    fn sigmoid_mismatches(f: fn(&mut [f32]), xs: &[f32], len: usize) -> Vec<f32> {
        let mut out = xs.to_vec();
        if len == 0 {
            f(&mut []);
            f(&mut out);
        } else {
            out.chunks_mut(len).for_each(f);
        }
        xs.iter()
            .zip(&out)
            .filter(|&(&x, y)| stable_sigmoid(x).to_bits() != y.to_bits())
            .map(|(&x, _)| x)
            .collect()
    }

    #[test]
    fn sigmoid_tier_matches_stable_sigmoid_on_edge_cases() {
        let mut xs: Vec<f32> = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            88.0,
            -88.0,
            87.99999,
            -87.99999,
            88.72,
            -88.72,
            88.72284,
            -88.72284,
            88.72285,
            -103.97,
            -103.97208,
            -103.9721,
            -104.0,
            -150.0,
            f32::MIN,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fa0_0000), // signalling NaN
            f32::from_bits(0xffa0_0001),
            63.09946,
            -63.09946,
            32.564632,
            -32.564632,
        ];
        let mut gen = Gen(0x5167_0e1d);
        for i in 0..10_000 {
            xs.push(if i % 2 == 0 {
                f32::from_bits(gen.below(1 << 32) as u32)
            } else {
                (gen.below(200_001) as f32 - 100_000.0) / 1000.0
            });
        }
        for (name, f) in [("tier", sigmoid_tier()), ("dispatched", sigmoid_in_place)] {
            for len in SIGMOID_LENGTHS {
                let bad = sigmoid_mismatches(f, &xs, len);
                assert!(
                    bad.is_empty(),
                    "{name}, slices of {len}: differs at {bad:?}"
                );
            }
        }
        // glibc's `expf` on an AVX-512 CPU is the one the tier reproduces:
        // here the probe must keep it, or the fast path is silently lost.
        #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
        assert_eq!(sigmoid_tier_accepted(), avx512_available());
    }

    #[test]
    #[ignore = "all 2^32 inputs: ~25 s in release on 2 threads; scripts/ci.sh runs it"]
    fn sigmoid_tier_matches_stable_sigmoid_on_every_f32() {
        const BLOCK: u64 = 1 << 16;
        let tier = sigmoid_tier();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let bad: Vec<f32> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads as u64)
                .map(|t| {
                    s.spawn(move || {
                        let mut bad = Vec::new();
                        for b in (t..(1 << 32) / BLOCK).step_by(threads) {
                            let xs: Vec<f32> = (b * BLOCK..(b + 1) * BLOCK)
                                .map(|bits| f32::from_bits(bits as u32))
                                .collect();
                            let len = SIGMOID_LENGTHS[b as usize % SIGMOID_LENGTHS.len()];
                            bad.extend(sigmoid_mismatches(tier, &xs, len));
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        assert!(
            bad.is_empty(),
            "{} of 2^32 inputs differ, first {:?}",
            bad.len(),
            &bad[..bad.len().min(16)]
        );
    }

    #[test]
    fn attend_aggregate_equals_per_element_sigmoid_reference() {
        let mut gen = Gen(0xa77e_2d2d);
        let (n, e) = (9usize, 24usize);
        for c in [1, 7, 15, 16, 17, 33, 128] {
            // Values up to ±100, so sums cross `expf`'s ±88 edges too.
            let mut th = Tensor::from_vec(n, c, (0..n * c).map(|_| gen.value() * 50.0).collect());
            for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                let at = gen.below((n * c) as u64) as usize;
                th.data_mut()[at] = poison;
            }
            let src: Vec<u32> = (0..e).map(|_| gen.below(n as u64) as u32).collect();
            let dst: Vec<u32> = (0..e).map(|_| gen.below(n as u64) as u32).collect();
            let alpha: Vec<f32> = (0..e).map(|_| gen.below(1001) as f32 / 1000.0).collect();
            let has_in: Vec<bool> = (0..n).map(|_| gen.below(2) == 0).collect();
            let mut out = Tensor::zeros(n, c);
            attend_aggregate(&th, &alpha, &src, &dst, &has_in, &mut out);

            let t = th.data();
            let mut o = vec![0.0f32; n * c];
            for ((&s, &d), &a) in src.iter().zip(&dst).zip(&alpha) {
                for k in 0..c {
                    o[d as usize * c + k] += t[s as usize * c + k] * a;
                }
            }
            let want: Vec<f32> = (0..n * c)
                .map(|i| {
                    let m = if has_in[i / c] { 0.0 } else { 1.0 };
                    stable_sigmoid(o[i] + t[i] * m)
                })
                .collect();
            assert_same(out.data(), &want, &format!("attend_aggregate, c = {c}"));
        }
    }

    /// `aᵀ × g` through the `tn` kernels, into a stale output, against
    /// `a.transpose().matmul(g)` and the definition: `a` has no zero value
    /// except in column `zero_col` (if any), which is all `±0.0`, and `g`
    /// carries `inf`, `-inf` and NaN in every row, so that every output
    /// row of a zero column sums `0 × inf` or `0 × NaN` unless skipped.
    fn check_tn(n: usize, k: usize, m: usize, zero_col: Option<usize>, seed: u64) {
        let mut gen = Gen(seed | 1);
        let mut nonzero = || loop {
            let x = gen.value();
            if x != 0.0 {
                return x;
            }
        };
        let mut a = Tensor::from_vec(n, k, (0..n * k).map(|_| nonzero()).collect());
        let mut g = Tensor::from_vec(n, m, (0..n * m).map(|_| nonzero()).collect());
        if let Some(j) = zero_col {
            for i in 0..n {
                a.data_mut()[i * k + j] = [0.0, -0.0][i % 2];
            }
        }
        for i in 0..n {
            for (t, poison) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
                .into_iter()
                .enumerate()
            {
                if m > 0 {
                    g.data_mut()[i * m + (i + t) % m] = poison;
                }
            }
        }
        let cols: Vec<Vec<f32>> = (0..k)
            .map(|j| (0..n).map(|i| a.data()[i * k + j]).collect())
            .collect();
        let what = format!("tn [{n},{k}]ᵀ x [{n},{m}], zero column {zero_col:?}, seed {seed:#x}");
        let mut out = Tensor::from_vec(k, m, vec![f32::NAN; k * m]);
        matmul_tn_into(&a, &g, &mut out);
        assert_same(out.data(), a.transpose().matmul(&g).data(), &what);
        assert_same(out.data(), &naive(&cols, g.data(), m), &what);
        if let Some(j) = zero_col {
            assert!(
                out.row(j).iter().all(|x| x.to_bits() == 0),
                "{what}: skipped row"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The `tn` zero-column mask: empty operands (`n`, `k` or `m` 0), a
        /// zero column at each position of the first and the second
        /// four-column group and in the tail past the last full group, at
        /// widths that take the four-row kernel (`m ≥ 16`), the per-row
        /// kernels and the single-column path.
        #[test]
        fn tn_zero_columns_match_the_transposed_product(seed in any::<u64>()) {
            for (n, k, m) in [(0, 0, 0), (0, 6, 17), (3, 0, 17), (3, 6, 0), (0, 5, 1), (4, 0, 1)] {
                check_tn(n, k, m, None, seed);
            }
            for n in [1, 5] {
                for k in [4, 8, 11] {
                    for m in [1, 7, 16, 33] {
                        check_tn(n, k, m, None, seed);
                        for zero_col in 0..k {
                            check_tn(n, k, m, Some(zero_col), seed ^ zero_col as u64);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Shapes straddle every block edge of every tier: the 4-row
        /// groups, the 8/16/32-lane column blocks and their scalar tails,
        /// the 16-step chunks of a zero-step list and their tails, and the
        /// empty sums — each at 0, 50, 79 and 95% zero left values.
        #[test]
        fn every_tier_and_caller_matches_the_definition(seed in any::<u64>()) {
            for n in [0, 1, 3, 4, 5, 9] {
                for k in [0, 1, 7, 17, 64] {
                    for m in [1, 15, 16, 17, 31, 32, 33, 64] {
                        for zero_pct in [0, 50, 79, 95] {
                            let shape = (((n * 1000 + k) * 1000 + m) * 100) as u64 + zero_pct;
                            check(n, k, m, zero_pct, seed ^ shape);
                        }
                    }
                }
            }
        }
    }
}
