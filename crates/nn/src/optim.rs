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
        // Lazily size moment buffers to the store (parameters are only
        // ever appended).
        for &id in params {
            let i = id.0 as usize;
            while self.m.len() <= i {
                let shape = store.value(ParamId(self.m.len() as u32)).shape();
                self.m.push(Tensor::zeros(shape.0, shape.1));
                self.v.push(Tensor::zeros(shape.0, shape.1));
            }
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let wd = self.weight_decay;
        for &id in params {
            let i = id.0 as usize;
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let (value, grad) = store.value_mut_and_grad(id);
            for ((m_e, v_e), (&g_e, p_e)) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grad.data().iter().zip(value.data_mut()))
            {
                // Plain L2: the penalty's gradient joins the stored one.
                let g_e = if wd > 0.0 { g_e + wd * *p_e } else { g_e };
                *m_e = self.beta1 * *m_e + (1.0 - self.beta1) * g_e;
                *v_e = self.beta2 * *v_e + (1.0 - self.beta2) * g_e * g_e;
                let m_hat = *m_e / bc1;
                let v_hat = *v_e / bc2;
                *p_e -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
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
