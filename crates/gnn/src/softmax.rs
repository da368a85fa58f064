//! Row-wise softmax on the tape (shared by attention-style modules).

use neursc_nn::{Tape, Tensor, Var};

/// Numerically stable row softmax: subtracts a detached per-row maximum,
/// exponentiates and normalizes each row to sum to 1.
///
/// A fully masked row (every logit `-∞`) falls back to the uniform
/// distribution rather than an all-zero row that sums to 0: the
/// exponentials of such a row are lifted from 0 to 1 before normalizing,
/// so the row becomes `1/d` everywhere. Rows with at least one finite
/// logit are untouched (their `-∞` entries still get weight 0).
pub fn row_softmax(tape: &mut Tape, h: Var) -> Var {
    let (n, d) = tape.value(h).shape();
    let mut maxes = Tensor::zeros(n, 1);
    let mut correction: Option<Tensor> = None;
    for r in 0..n {
        let row = tape.value(h).row(r);
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        maxes.set(r, 0, if m.is_finite() { m } else { 0.0 });
        if d > 0 && row.iter().all(|&x| x == f32::NEG_INFINITY) {
            let c = correction.get_or_insert_with(|| Tensor::zeros(n, d));
            for v in c.row_mut(r) {
                *v = 1.0;
            }
        }
    }
    let mc = tape.constant(maxes);
    let shifted = tape.sub(h, mc); // column broadcast
    let mut exps = tape.exp(shifted);
    if let Some(c) = correction {
        // Fully masked rows: exps are all 0; +1 makes them uniform after
        // the divide. Other rows add 0.0, which leaves every bit intact.
        let cv = tape.constant(c);
        exps = tape.add(exps, cv);
    }
    let ones = tape.constant(Tensor::ones(d, 1));
    let rowsum = tape.matmul(exps, ones); // [n, 1]
    let safe = tape.add_scalar(rowsum, 1e-12);
    tape.div(exps, safe) // column broadcast
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-50.0, 0.0, 50.0]]));
        let s = row_softmax(&mut tape, h);
        for r in 0..2 {
            let sum: f32 = tape.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn uniform_logits_give_uniform_distribution() {
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::from_rows(&[&[7.0, 7.0, 7.0, 7.0]]));
        let s = row_softmax(&mut tape, h);
        for &v in tape.value(s).data() {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn fully_masked_row_falls_back_to_uniform() {
        let ninf = f32::NEG_INFINITY;
        let h = Tensor::from_rows(&[
            &[ninf, ninf, ninf, ninf],  // fully masked → uniform fallback
            &[1.0, ninf, 2.0, 0.5],     // partially masked → unchanged
            &[0.25, -0.5, 3.0, -100.0], // plain row → unchanged
        ]);
        let mut tape = Tape::new();
        let hv = tape.constant(h);
        let s = row_softmax(&mut tape, hv);
        let tape_out = tape.value(s).clone();
        // The masked row is a distribution again: uniform 1/d, sum 1.
        for &v in tape_out.row(0) {
            assert!((v - 0.25).abs() < 1e-6, "not uniform: {v}");
        }
        let sum: f32 = tape_out.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "masked row sums to {sum}");
        // Partially masked rows keep weight 0 on their −∞ entries.
        assert_eq!(tape_out.get(1, 1), 0.0);
        let psum: f32 = tape_out.row(1).iter().sum();
        assert!((psum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_flows() {
        use neursc_nn::ParamStore;
        let mut store = ParamStore::new();
        let p = store.alloc(Tensor::from_rows(&[&[0.5, -0.5, 1.0]]));
        let mut tape = Tape::new();
        let h = tape.param(&store, p);
        let s = row_softmax(&mut tape, h);
        let w = tape.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let ws = tape.mul(s, w);
        let loss = tape.sum(ws);
        tape.backward(loss, &mut store);
        assert!(store.grad(p).max_abs() > 0.0);
    }
}
