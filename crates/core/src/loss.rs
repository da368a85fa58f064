//! Losses and the q-error metric (paper §2.2, §5.6, Eq. 10–11).
//!
//! * [`q_error`] — the evaluation metric
//!   `max( max(1,c)/max(1,ĉ), max(1,ĉ)/max(1,c) )`.
//! * [`count_loss`] — Eq. 10's ratio loss in log form. With the log-count
//!   head (`ĉ = e^z`), `max(c/ĉ, ĉ/c) = exp(|ln ĉ − ln c|)`; training runs
//!   on `|ln ĉ − ln c|`, the same objective through a monotone map (so the
//!   same minimizer as Eq. 10), with bounded gradients at initialization.

use neursc_nn::{Tape, Var};

/// The paper's ε guarding division by a near-zero estimate (Eq. 10).
pub const LOSS_EPS: f32 = 1e-9;

/// Evaluation q-error (§2.2). Always ≥ 1; equals 1 on a perfect estimate.
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    let c = truth.max(1.0);
    let e = estimate.max(1.0);
    (c / e).max(e / c)
}

/// Signed q-error used by the paper's box plots: negative magnitude for
/// underestimates, positive for overestimates (their y-axes show
/// under/over explicitly). `1.0` for exact estimates.
pub fn signed_q_error(estimate: f64, truth: f64) -> f64 {
    let q = q_error(estimate, truth);
    if estimate.max(1.0) < truth.max(1.0) {
        -q
    } else {
        q
    }
}

/// Stable `ln Σ_i e^{z_i}` on the tape: shifts by the detached maximum so
/// gradients stay healthy however negative the predictions are. (A naive
/// `ln(Σe^z + ε)` saturates at `ln ε` with gradient `e^z/ε → 0`, freezing
/// any query whose initial prediction is far too small.)
fn log_sum_exp(tape: &mut Tape, log_counts: &[Var]) -> Var {
    assert!(!log_counts.is_empty(), "no substructure estimates");
    if log_counts.len() == 1 {
        return log_counts[0];
    }
    let m = log_counts
        .iter()
        .map(|&z| tape.value(z).item())
        .fold(f32::NEG_INFINITY, f32::max);
    let m = if m.is_finite() { m } else { 0.0 };
    let mut sum: Option<Var> = None;
    for &z in log_counts {
        let shifted = tape.add_scalar(z, -m);
        let e = tape.exp(shifted);
        sum = Some(match sum {
            Some(acc) => tape.add(acc, e),
            None => e,
        });
    }
    let Some(total) = sum else {
        unreachable!("log_counts is non-empty");
    };
    let ln = tape.ln(total, 0.0);
    tape.add_scalar(ln, m)
}

/// Eq. 10 on the tape, in log form: `|ln ĉ − ln max(1,c)|` — the log of
/// the q-error — from per-substructure log-count predictions and the
/// ground truth `c`.
pub fn count_loss(tape: &mut Tape, log_counts: &[Var], truth: u64) -> Var {
    let log_total = log_sum_exp(tape, log_counts);
    let target = (truth.max(1) as f32).ln();
    let diff = tape.add_scalar(log_total, -target);
    tape.abs(diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_nn::{ParamStore, Tensor};

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(1.0, 100.0), 100.0);
        assert_eq!(q_error(100.0, 1.0), 100.0);
        // Sub-1 values clamp to 1 (the paper's max(1,·)).
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(0.5, 2.0), 2.0);
    }

    #[test]
    fn signed_q_error_marks_direction() {
        assert!(signed_q_error(1.0, 100.0) < 0.0);
        assert!(signed_q_error(100.0, 1.0) > 0.0);
        assert_eq!(signed_q_error(5.0, 5.0), 1.0);
    }

    #[test]
    fn count_loss_zero_at_perfect_prediction() {
        let mut tape = Tape::new();
        let z = tape.constant(Tensor::scalar((42.0f32).ln()));
        let l = count_loss(&mut tape, &[z], 42);
        assert!(tape.value(l).item().abs() < 1e-4);
    }

    #[test]
    fn log_mode_is_monotone_in_error() {
        let mut tape = Tape::new();
        let near = tape.constant(Tensor::scalar((90.0f32).ln()));
        let far = tape.constant(Tensor::scalar((2.0f32).ln()));
        let l_near = count_loss(&mut tape, &[near], 100);
        let l_far = count_loss(&mut tape, &[far], 100);
        assert!(tape.value(l_near).item() < tape.value(l_far).item());
    }

    #[test]
    fn gradient_pushes_estimate_toward_truth() {
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::scalar(0.0)); // ĉ = 1
        let mut tape = Tape::new();
        let z = tape.param(&store, p);
        let l = count_loss(&mut tape, &[z], 1000);
        tape.backward(l, &mut store);
        // Underestimate → gradient negative (increase z to reduce loss).
        assert!(store.grad(p).item() < 0.0);
    }

    #[test]
    fn truth_zero_treated_as_one() {
        let mut tape = Tape::new();
        let z = tape.constant(Tensor::scalar(0.0)); // ĉ = 1
        let l = count_loss(&mut tape, &[z], 0);
        assert!(tape.value(l).item().abs() < 1e-5);
    }
}

#[cfg(test)]
mod lse_tests {
    use super::*;
    use neursc_nn::{ParamStore, Tensor};

    #[test]
    fn log_sum_exp_matches_direct_computation() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::scalar(1.0));
        let b = tape.constant(Tensor::scalar(2.0));
        let l = log_sum_exp(&mut tape, &[a, b]);
        let expect = (1.0f32.exp() + 2.0f32.exp()).ln();
        assert!((tape.value(l).item() - expect).abs() < 1e-5);
    }

    #[test]
    fn log_sum_exp_stable_for_very_negative_inputs() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::scalar(-500.0));
        let b = tape.constant(Tensor::scalar(-501.0));
        let l = log_sum_exp(&mut tape, &[a, b]);
        let v = tape.value(l).item();
        assert!(v.is_finite());
        assert!((v - (-500.0 + (1.0f32 + (-1.0f32).exp()).ln())).abs() < 1e-3);
    }

    #[test]
    fn gradient_survives_deeply_underestimating_predictions() {
        // The failure mode the LSE form fixes: z = -100 must still receive
        // a useful gradient toward the target.
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::scalar(-100.0));
        let mut tape = Tape::new();
        let z = tape.param(&store, p);
        let l = count_loss(&mut tape, &[z], 1000);
        tape.backward(l, &mut store);
        let g = store.grad(p).item();
        assert!(
            (g + 1.0).abs() < 1e-4,
            "expected gradient ≈ −1 (increase z), got {g}"
        );
    }
}
