//! Optimizers: SGD and Adam, plus WGAN-style weight clamping.
//!
//! The paper uses Adam (learning rate 1e-3) for both the estimation network
//! and the Wasserstein discriminator (§6.1), and clamps the discriminator's
//! weights to `[-0.01, 0.01]` to enforce the 1-Lipschitz constraint of the
//! Kantorovich–Rubinstein dual (§5.5).

use crate::tensor::Tensor;
use crate::{ParamId, ParamStore};

/// Plain stochastic gradient descent: `θ ← θ − lr·∇θ`.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Applies one update over every parameter in the store.
    pub fn step(&mut self, store: &mut ParamStore) {
        let ids: Vec<_> = store.ids().collect();
        self.step_subset(store, &ids);
    }

    /// Updates only the listed parameters (two-player training: the
    /// estimation network and the discriminator share one store but are
    /// stepped by separate optimizers — paper Algorithm 3).
    pub fn step_subset(&mut self, store: &mut ParamStore, params: &[crate::ParamId]) {
        for &id in params {
            let (value, grad) = store.value_mut_and_grad(id);
            value.axpy_assign(-self.lr, grad);
        }
    }
}

/// Adam (Kingma & Ba, 2014) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (paper: 1e-3).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 penalty (AdamW-style decoupled decay is not needed here; the
    /// paper's "Adam penalty" is plain L2 on gradients).
    pub weight_decay: f32,
    t: u64,
    /// First and second moments by parameter id; `0 × 0` (no storage) for
    /// an id this optimizer has not stepped.
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Sets the L2 penalty (e.g. `1e-5` as used for LSS in §6.1).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one Adam update over every parameter in the store.
    pub fn step(&mut self, store: &mut ParamStore) {
        let ids: Vec<_> = store.ids().collect();
        self.step_subset(store, &ids);
    }

    /// Updates only the listed parameters (see [`Sgd::step_subset`]).
    pub fn step_subset(&mut self, store: &mut ParamStore, params: &[ParamId]) {
        // Moments exist for the parameters stepped, allocated at their
        // first step; other ids below them hold empty placeholders.
        for &id in params {
            let i = id.0 as usize;
            if self.m.len() <= i {
                self.m.resize_with(i + 1, || Tensor::zeros(0, 0));
                self.v.resize_with(i + 1, || Tensor::zeros(0, 0));
            }
            let (r, c) = store.value(id).shape();
            if self.m[i].shape() != (r, c) {
                self.m[i] = Tensor::zeros(r, c);
                self.v[i] = Tensor::zeros(r, c);
            }
        }
        self.t += 1;
        let h = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            wd: self.weight_decay,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        for &id in params {
            let i = id.0 as usize;
            let (m, v) = (self.m[i].data_mut(), self.v[i].data_mut());
            let (value, grad) = store.value_mut_and_grad(id);
            let (g, p) = (grad.data(), value.data_mut());
            assert!(m.len() == p.len() && v.len() == p.len() && g.len() == p.len());
            #[cfg(target_arch = "x86_64")]
            if crate::kernels::avx512_available() {
                // SAFETY: the CPU reports AVX-512F (checked above); the four
                // lengths are equal (asserted above).
                unsafe { adam_update_avx512(h, m, v, g, p) };
                continue;
            }
            adam_update(h, m, v, g, p);
        }
    }
}

/// The constants of one Adam step: the hyper-parameters and the two bias
/// corrections.
#[derive(Clone, Copy)]
struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    wd: f32,
    bc1: f32,
    bc2: f32,
}

/// One Adam step over one parameter's elements, in place: moments `m` and
/// `v`, gradient `g`, value `p`.
fn adam_update(h: AdamStep, m: &mut [f32], v: &mut [f32], g: &[f32], p: &mut [f32]) {
    for ((m_e, v_e), (&g_e, p_e)) in m.iter_mut().zip(v).zip(g.iter().zip(p)) {
        // Plain L2: the penalty's gradient joins the stored one.
        let g_e = if h.wd > 0.0 { g_e + h.wd * *p_e } else { g_e };
        *m_e = h.beta1 * *m_e + (1.0 - h.beta1) * g_e;
        *v_e = h.beta2 * *v_e + (1.0 - h.beta2) * g_e * g_e;
        let m_hat = *m_e / h.bc1;
        let v_hat = *v_e / h.bc2;
        *p_e -= h.lr * m_hat / (v_hat.sqrt() + h.eps);
    }
}

/// [`adam_update`] sixteen elements at a time: per element the same IEEE
/// operations in the same order — no fused multiply-add, and division and
/// square root are correctly rounded in every width — so the bits are the
/// scalar loop's. The tail past the last sixteen runs the scalar loop.
///
/// # Safety
///
/// Requires AVX-512F and four slices of one length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn adam_update_avx512(h: AdamStep, m: &mut [f32], v: &mut [f32], g: &[f32], p: &mut [f32]) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_div_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps,
        _mm512_sqrt_ps, _mm512_storeu_ps, _mm512_sub_ps,
    };
    debug_assert!(m.len() == p.len() && v.len() == p.len() && g.len() == p.len());
    let [lr, b1, b2, eps, wd, bc1, bc2, c1, c2] = [
        h.lr,
        h.beta1,
        h.beta2,
        h.eps,
        h.wd,
        h.bc1,
        h.bc2,
        1.0 - h.beta1,
        1.0 - h.beta2,
    ]
    .map(|x| _mm512_set1_ps(x));
    let body = p.len() / 16 * 16;
    for i in (0..body).step_by(16) {
        let (mp, vp, pp) = (
            m.as_mut_ptr().add(i),
            v.as_mut_ptr().add(i),
            p.as_mut_ptr().add(i),
        );
        let x = _mm512_loadu_ps(pp);
        let mut ge = _mm512_loadu_ps(g.as_ptr().add(i));
        if h.wd > 0.0 {
            ge = _mm512_add_ps(ge, _mm512_mul_ps(wd, x));
        }
        let me = _mm512_add_ps(
            _mm512_mul_ps(b1, _mm512_loadu_ps(mp)),
            _mm512_mul_ps(c1, ge),
        );
        let ve = _mm512_add_ps(
            _mm512_mul_ps(b2, _mm512_loadu_ps(vp)),
            _mm512_mul_ps(_mm512_mul_ps(c2, ge), ge),
        );
        _mm512_storeu_ps(mp, me);
        _mm512_storeu_ps(vp, ve);
        let m_hat = _mm512_div_ps(me, bc1);
        let v_hat = _mm512_div_ps(ve, bc2);
        let step = _mm512_div_ps(
            _mm512_mul_ps(lr, m_hat),
            _mm512_add_ps(_mm512_sqrt_ps(v_hat), eps),
        );
        _mm512_storeu_ps(pp, _mm512_sub_ps(x, step));
    }
    adam_update(
        h,
        &mut m[body..],
        &mut v[body..],
        &g[body..],
        &mut p[body..],
    );
}

/// Clamps the listed parameters into `[lo, hi]` — the WGAN Lipschitz
/// enforcement applied to the discriminator after each of its updates.
pub fn clamp_params(store: &mut ParamStore, params: &[ParamId], lo: f32, hi: f32) {
    for &p in params {
        store.value_mut(p).clamp_assign(lo, hi);
    }
}

/// Global L2 norm of the gradients of the listed parameters. Non-finite
/// gradient entries make the result non-finite, which callers treat as a
/// divergence signal.
fn global_grad_norm(store: &ParamStore, params: &[ParamId]) -> f32 {
    let mut sq = 0.0f32;
    for &p in params {
        for &g in store.grad(p).data() {
            sq += g * g;
        }
    }
    sq.sqrt()
}

/// Scales the listed gradients so their global L2 norm is at most `max_norm`
/// (standard global-norm gradient clipping). Returns the pre-clip norm. If
/// the norm is non-finite the gradients are zeroed — a non-finite gradient
/// cannot be rescaled into a usable direction, so the step becomes a no-op
/// and the caller's divergence guard decides what to do next.
pub fn clip_grad_norm(store: &mut ParamStore, params: &[ParamId], max_norm: f32) -> f32 {
    let norm = global_grad_norm(store, params);
    if !norm.is_finite() {
        for &p in params {
            store.grad_mut(p).fill(0.0);
        }
        return norm;
    }
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for &p in params {
            store.grad_mut(p).scale_assign(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn quadratic_loss_step(store: &mut ParamStore, p: ParamId) -> f32 {
        // loss = (p - 3)²
        let mut tape = Tape::new();
        let x = tape.param(store, p);
        let c = tape.constant(Tensor::scalar(3.0));
        let d = tape.sub(x, c);
        let sq = tape.mul(d, d);
        let loss = tape.sum(sq);
        let l = tape.value(loss).item();
        tape.backward(loss, store);
        l
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::scalar(0.0));
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            quadratic_loss_step(&mut store, p);
            opt.step(&mut store);
            store.zero_grads();
        }
        assert!((store.value(p).item() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_descends_quadratic_faster_than_tiny_sgd() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::scalar(0.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            quadratic_loss_step(&mut store, p);
            opt.step(&mut store);
            store.zero_grads();
        }
        assert!((store.value(p).item() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_handles_parameters_added_after_construction() {
        let mut store = ParamStore::new();
        let p1 = store.alloc(Tensor::scalar(0.0));
        let mut opt = Adam::new(0.05);
        quadratic_loss_step(&mut store, p1);
        opt.step(&mut store);
        store.zero_grads();
        // A second parameter appears later; the moment buffers must grow.
        let p2 = store.alloc(Tensor::scalar(1.0));
        quadratic_loss_step(&mut store, p2);
        opt.step(&mut store);
        assert_eq!(opt.m.len(), 2);
    }

    #[test]
    fn adam_keeps_moments_only_for_the_parameters_it_steps() {
        let mut store = ParamStore::new();
        let ids: Vec<ParamId> = (0..4).map(|_| store.alloc(Tensor::ones(3, 5))).collect();
        let mut opt = Adam::new(0.1);
        opt.step_subset(&mut store, &[ids[3], ids[1]]);
        for (i, (m, v)) in opt.m.iter().zip(&opt.v).enumerate() {
            let want = if i == 1 || i == 3 { (3, 5) } else { (0, 0) };
            assert_eq!((m.shape(), v.shape()), (want, want), "parameter {i}");
        }
        // A later step over another subset adds that subset's moments and
        // keeps the earlier ones.
        store.grad_mut(ids[3]).fill(1.0);
        opt.step_subset(&mut store, &[ids[3]]);
        opt.step_subset(&mut store, &[ids[0]]);
        assert_eq!(opt.m[0].shape(), (3, 5));
        assert_eq!(opt.m[2].shape(), (0, 0));
        assert_ne!(opt.m[3].data()[0], 0.0);
    }

    /// The dispatched update against the scalar loop, bit for bit, over
    /// lengths around the sixteen-lane step, with and without weight decay,
    /// on values that include zeros, subnormals, `inf` and NaN.
    #[test]
    fn adam_update_matches_the_scalar_loop() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0e-40,
                3 => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(x >> 8) as usize % 3],
                _ => ((x >> 16) % 20_001) as f32 / 1000.0 - 10.0,
            }
        };
        for len in [0, 1, 15, 16, 17, 33, 100] {
            for wd in [0.0, 1e-3] {
                let mut store = ParamStore::new();
                let p = store.alloc(Tensor::from_vec(1, len, (0..len).map(|_| next()).collect()));
                let mut opt = Adam::new(1e-2).with_weight_decay(wd);
                let (mut m, mut v) = (vec![0.0f32; len], vec![0.0f32; len]);
                let mut want = store.value(p).data().to_vec();
                for t in 1..=3 {
                    let g: Vec<f32> = (0..len).map(|_| next()).collect();
                    store.grad_mut(p).data_mut().copy_from_slice(&g);
                    opt.step_subset(&mut store, &[p]);
                    let h = AdamStep {
                        lr: opt.lr,
                        beta1: opt.beta1,
                        beta2: opt.beta2,
                        eps: opt.eps,
                        wd,
                        bc1: 1.0 - opt.beta1.powi(t),
                        bc2: 1.0 - opt.beta2.powi(t),
                    };
                    adam_update(h, &mut m, &mut v, &g, &mut want);
                    let got = store.value(p).data();
                    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                            "len {len}, wd {wd}, step {t}, element {i}: {a:?} != {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::scalar(5.0));
        let mut opt = Adam::new(0.01).with_weight_decay(0.1);
        // Zero loss gradient; decay alone must shrink the weight.
        for _ in 0..50 {
            opt.step(&mut store);
            store.zero_grads();
        }
        assert!(store.value(p).item() < 5.0);
    }

    #[test]
    fn clip_grad_norm_rescales_large_gradients() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::scalar(0.0));
        store.grad_mut(p).fill(30.0);
        let pre = clip_grad_norm(&mut store, &[p], 1.0);
        assert!((pre - 30.0).abs() < 1e-4);
        assert!((store.grad(p).item() - 1.0).abs() < 1e-5);
        // Norms already under the cap are untouched.
        let pre = clip_grad_norm(&mut store, &[p], 5.0);
        assert!((pre - 1.0).abs() < 1e-5);
        assert!((store.grad(p).item() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_zeroes_non_finite_gradients() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::scalar(0.0));
        store.grad_mut(p).fill(f32::NAN);
        let pre = clip_grad_norm(&mut store, &[p], 1.0);
        assert!(!pre.is_finite());
        assert_eq!(store.grad(p).item(), 0.0);
    }

    #[test]
    fn clamp_enforces_box() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::from_rows(&[&[0.5, -0.5, 0.005]]));
        clamp_params(&mut store, &[p], -0.01, 0.01);
        assert_eq!(store.value(p).data(), &[0.01, -0.01, 0.005]);
    }
}
