//! Property tests for the tensor/autograd substrate beyond gradcheck:
//! serialization round-trips, algebraic identities of the kernels, and
//! autodiff linearity.

use neursc_nn::serialize::{load_values, store_to_string};
use neursc_nn::{ParamStore, Tape, Tensor};
use proptest::prelude::*;

fn arb_tensor(max_r: usize, max_c: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_r, 1..=max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1e3f32..1e3, r * c)
            .prop_map(move |data| Tensor::from_vec(r, c, data))
    })
}

proptest! {
    #[test]
    fn serialization_roundtrip_bit_exact(tensors in proptest::collection::vec(arb_tensor(5, 5), 1..6)) {
        let mut store = ParamStore::new();
        for t in &tensors {
            store.alloc(t.clone());
        }
        let mut restored = ParamStore::new();
        for t in &tensors {
            restored.alloc(Tensor::zeros(t.rows(), t.cols()));
        }
        load_values(&mut restored, &store_to_string(&store)).unwrap();
        for id in store.ids() {
            prop_assert_eq!(store.value(id), restored.value(id));
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        (a, b) in (1usize..=4).prop_flat_map(|r| {
            // A shared shape with two independent fills.
            let len = r * 3;
            (
                proptest::collection::vec(-1e3f32..1e3, len),
                proptest::collection::vec(-1e3f32..1e3, len),
            )
                .prop_map(move |(da, db)| {
                    (Tensor::from_vec(r, 3, da), Tensor::from_vec(r, 3, db))
                })
        }),
    ) {
        // (a + b)·C = a·C + b·C up to f32 noise.
        let c = Tensor::from_vec(3, 2, (0..6).map(|i| (i as f32 - 2.5) / 3.0).collect());
        let mut sum = a.clone();
        sum.add_assign(&b);
        let lhs = sum.matmul(&c);
        let mut rhs = a.matmul(&c);
        rhs.add_assign(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() <= 1e-2 * x.abs().max(y.abs()).max(1.0));
        }
    }

    #[test]
    fn transpose_is_involutive_and_preserves_norm(t in arb_tensor(6, 6)) {
        prop_assert_eq!(t.transpose().transpose(), t.clone());
        prop_assert!((t.transpose().norm() - t.norm()).abs() < 1e-3 * t.norm().max(1.0));
    }

    #[test]
    fn backward_is_linear_in_loss_scale(t in arb_tensor(3, 3), k in 1.0f32..4.0) {
        // grad of (k·L) = k · grad of L.
        let grad_for = |scale: f32| -> Tensor {
            let mut store = ParamStore::new();
            let p = store.alloc(t.clone());
            let mut tape = Tape::new();
            let x = tape.param(&store, p);
            let y = tape.tanh(x);
            let s = tape.sum(y);
            let l = tape.scale(s, scale);
            tape.backward(l, &mut store);
            store.grad(p).clone()
        };
        let g1 = grad_for(1.0);
        let gk = grad_for(k);
        for (a, b) in g1.data().iter().zip(gk.data()) {
            prop_assert!((a * k - b).abs() <= 1e-3 * b.abs().max(1e-3));
        }
    }

    #[test]
    fn sum_rows_equals_matmul_with_ones(t in arb_tensor(5, 4)) {
        let mut tape = Tape::new();
        let x = tape.constant(t.clone());
        let sr = tape.sum_rows(x);
        let ones = Tensor::ones(1, t.rows());
        let via_matmul = ones.matmul(&t);
        for (a, b) in tape.value(sr).data().iter().zip(via_matmul.data()) {
            prop_assert!((a - b).abs() <= 1e-2 * a.abs().max(1.0));
        }
    }

    #[test]
    fn segment_sum_with_identity_segments_is_identity(t in arb_tensor(6, 3)) {
        let mut tape = Tape::new();
        let x = tape.constant(t.clone());
        let seg: Vec<u32> = (0..t.rows() as u32).collect();
        let y = tape.segment_sum(x, &seg, t.rows());
        prop_assert_eq!(tape.value(y), &t);
    }

    #[test]
    fn clamp_keeps_values_in_box(t in arb_tensor(4, 4), hi in 0.001f32..10.0) {
        let mut c = t.clone();
        c.clamp_assign(-hi, hi);
        prop_assert!(c.data().iter().all(|&x| x.abs() <= hi));
        // Values already inside are untouched.
        for (orig, clamped) in t.data().iter().zip(c.data()) {
            if orig.abs() <= hi {
                prop_assert_eq!(orig, clamped);
            }
        }
    }
}
