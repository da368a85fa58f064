//! Finite-difference gradient checks for every differentiable operation.
//!
//! For a scalar loss `L(θ)` built from each op, the analytic gradient from
//! the tape must match the central difference
//! `(L(θ + h·e) − L(θ − h·e)) / 2h` on every coordinate. We run the check
//! on randomized inputs per op and on a composite GNN-shaped expression.

use neursc_nn::layers::Activation;
use neursc_nn::{ParamStore, Tape, Tensor, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const H: f32 = 1e-3;
const TOL: f32 = 2e-2; // f32 finite differences are noisy; relative check below

/// Builds a loss from a parameter tensor via `f`, returns (loss, grads).
fn loss_and_grad(init: &Tensor, f: impl Fn(&mut Tape, Var) -> Var) -> (f32, Tensor) {
    let mut store = ParamStore::new();
    let p = store.alloc(init.clone());
    let mut tape = Tape::new();
    let x = tape.param(&store, p);
    let loss = f(&mut tape, x);
    let l = tape.value(loss).item();
    tape.backward(loss, &mut store);
    (l, store.grad(p).clone())
}

/// Central-difference numerical gradient.
fn numeric_grad(init: &Tensor, f: impl Fn(&mut Tape, Var) -> Var + Copy) -> Tensor {
    let mut g = Tensor::zeros(init.rows(), init.cols());
    for i in 0..init.len() {
        let mut plus = init.clone();
        plus.data_mut()[i] += H;
        let mut minus = init.clone();
        minus.data_mut()[i] -= H;
        let (lp, _) = loss_and_grad(&plus, f);
        let (lm, _) = loss_and_grad(&minus, f);
        g.data_mut()[i] = (lp - lm) / (2.0 * H);
    }
    g
}

fn check(init: &Tensor, f: impl Fn(&mut Tape, Var) -> Var + Copy, what: &str) {
    let (_, analytic) = loss_and_grad(init, f);
    let numeric = numeric_grad(init, f);
    for i in 0..init.len() {
        let a = analytic.data()[i];
        let n = numeric.data()[i];
        let denom = 1.0f32.max(a.abs()).max(n.abs());
        assert!(
            (a - n).abs() / denom < TOL,
            "{what}: grad mismatch at {i}: analytic {a}, numeric {n}"
        );
    }
}

fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-1.5..1.5f32))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Shifts values away from non-differentiable kinks (|x| > margin).
fn away_from_zero(t: &Tensor, margin: f32) -> Tensor {
    t.map(|x| {
        if x.abs() < margin {
            x.signum().max(0.5) * margin * 2.0
        } else {
            x
        }
    })
}

#[test]
fn gradcheck_matmul() {
    let x = random_tensor(3, 4, 1);
    check(
        &x,
        |t, p| {
            let w = t.constant(random_tensor(4, 2, 2));
            let y = t.matmul(p, w);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "matmul-left",
    );
    let w = random_tensor(4, 2, 3);
    check(
        &w,
        |t, p| {
            let x = t.constant(random_tensor(3, 4, 4));
            let y = t.matmul(x, p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "matmul-right",
    );
}

#[test]
fn gradcheck_add_sub_broadcast() {
    let b = random_tensor(1, 3, 5);
    check(
        &b,
        |t, p| {
            let x = t.constant(random_tensor(4, 3, 6));
            let y = t.add(x, p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "add-row-broadcast",
    );
    check(
        &b,
        |t, p| {
            let x = t.constant(random_tensor(4, 3, 7));
            let y = t.sub(x, p);
            let cube = t.mul(y, y);
            t.sum(cube)
        },
        "sub-row-broadcast",
    );
    let s = Tensor::scalar(0.7);
    check(
        &s,
        |t, p| {
            let x = t.constant(random_tensor(2, 3, 8));
            let y = t.add(x, p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "add-scalar-broadcast",
    );
}

#[test]
fn gradcheck_mul_div() {
    let a = random_tensor(3, 3, 9);
    check(
        &a,
        |t, p| {
            let x = t.constant(random_tensor(3, 3, 10));
            let y = t.mul(p, x);
            t.sum(y)
        },
        "mul-elementwise",
    );
    // Divisor bounded away from zero.
    let b = away_from_zero(&random_tensor(3, 3, 11), 0.3);
    check(
        &b,
        |t, p| {
            let x = t.constant(random_tensor(3, 3, 12));
            let y = t.div(x, p);
            t.sum(y)
        },
        "div-denominator",
    );
    let scalar_div = Tensor::scalar(1.3);
    check(
        &scalar_div,
        |t, p| {
            let x = t.constant(random_tensor(2, 2, 13));
            let y = t.div(x, p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "div-scalar-broadcast",
    );
}

#[test]
fn gradcheck_activations() {
    // ReLU / LeakyReLU / Abs away from the kink at 0.
    let x = away_from_zero(&random_tensor(3, 4, 14), 0.2);
    check(
        &x,
        |t, p| {
            let y = t.relu(p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "relu",
    );
    check(
        &x,
        |t, p| {
            let y = t.leaky_relu(p, 0.2);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "leaky_relu",
    );
    check(
        &x,
        |t, p| {
            let y = t.abs(p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "abs",
    );
    let s = random_tensor(3, 4, 15);
    check(
        &s,
        |t, p| {
            let y = t.sigmoid(p);
            t.sum(y)
        },
        "sigmoid",
    );
    check(
        &s,
        |t, p| {
            let y = t.tanh(p);
            t.sum(y)
        },
        "tanh",
    );
    check(
        &s,
        |t, p| {
            let y = t.softplus(p);
            t.sum(y)
        },
        "softplus",
    );
    check(
        &s,
        |t, p| {
            let y = t.exp(p);
            t.sum(y)
        },
        "exp",
    );
    let pos = s.map(|v| v.abs() + 0.5);
    check(
        &pos,
        |t, p| {
            let y = t.ln(p, 1e-6);
            t.sum(y)
        },
        "ln",
    );
    check(
        &s,
        |t, p| {
            let y = t.neg(p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "neg",
    );
    check(
        &s,
        |t, p| {
            let y = t.scale(p, -2.5);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "scale",
    );
    check(
        &s,
        |t, p| {
            let y = t.add_scalar(p, 1.5);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "add_scalar",
    );
}

#[test]
fn gradcheck_reductions_and_shapes() {
    let x = random_tensor(4, 3, 16);
    check(
        &x,
        |t, p| {
            let y = t.sum_rows(p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "sum_rows",
    );
    check(
        &x,
        |t, p| {
            let y = t.mean_rows(p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "mean_rows",
    );
    check(
        &x,
        |t, p| {
            let other = t.constant(random_tensor(4, 2, 17));
            let y = t.concat_cols(p, other);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "concat_cols",
    );
    check(
        &x,
        |t, p| {
            let other = t.constant(random_tensor(2, 3, 18));
            let y = t.concat_rows(p, other);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "concat_rows",
    );
    check(
        &x,
        |t, p| {
            let y = t.slice_rows(p, 1, 3);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "slice_rows",
    );
}

#[test]
fn gradcheck_segment_ops() {
    let x = random_tensor(5, 2, 19);
    check(
        &x,
        |t, p| {
            let y = t.index_select(p, &[4, 0, 0, 2]);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "index_select",
    );
    check(
        &x,
        |t, p| {
            let y = t.segment_sum(p, &[1, 0, 1, 2, 1], 3);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "segment_sum",
    );
}

#[test]
fn gradcheck_composite_gnn_like_expression() {
    // One message-passing layer: gather → transform → scatter → nonlinearity
    // → readout, exactly the composition WEst uses.
    let x = random_tensor(4, 3, 20);
    let src = [0u32, 1, 2, 3, 0, 2];
    let dst = [1u32, 0, 3, 2, 2, 0];
    check(
        &x,
        move |t, p| {
            let msgs = t.index_select(p, &src);
            let w = t.constant(random_tensor(3, 3, 21));
            let transformed = t.matmul(msgs, w);
            let agg = t.segment_sum(transformed, &dst, 4);
            let combined = t.add(agg, p);
            let act = t.tanh(combined);
            let pooled = t.sum_rows(act);
            let sq = t.mul(pooled, pooled);
            t.sum(sq)
        },
        "gnn-composite",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random compositions of smooth ops pass the gradient check.
    #[test]
    fn gradcheck_random_smooth_chain(seed in 0u64..1000) {
        let x = random_tensor(3, 3, seed);
        check(&x, move |t, p| {
            let mut h = p;
            let mut s = seed;
            for step in 0..4 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(step);
                match s % 5 {
                    0 => h = t.tanh(h),
                    1 => h = t.sigmoid(h),
                    2 => h = t.softplus(h),
                    3 => {
                        let w = t.constant(random_tensor(3, 3, s));
                        h = t.matmul(h, w);
                    }
                    _ => h = t.scale(h, 0.5),
                }
            }
            let sq = t.mul(h, h);
            t.sum(sq)
        }, "random-chain");
    }
}

#[test]
fn gradcheck_column_broadcast() {
    // Column broadcast [r,1] in mul/div/add — the attention-weight path.
    let col = random_tensor(4, 1, 30);
    check(
        &col,
        |t, p| {
            let x = t.constant(random_tensor(4, 3, 31));
            let y = t.mul(x, p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "mul-column-broadcast",
    );
    check(
        &col,
        |t, p| {
            let x = t.constant(random_tensor(4, 3, 32));
            let y = t.add(x, p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "add-column-broadcast",
    );
    let col_pos = away_from_zero(&random_tensor(4, 1, 33), 0.4);
    check(
        &col_pos,
        |t, p| {
            let x = t.constant(random_tensor(4, 3, 34));
            let y = t.div(x, p);
            t.sum(y)
        },
        "div-column-broadcast",
    );
}

#[test]
fn gradcheck_transpose_and_attention_shape() {
    let x = random_tensor(3, 4, 40);
    check(
        &x,
        |t, p| {
            let tr = t.transpose(p);
            let prod = t.matmul(p, tr); // [3,3] gram matrix
            let sq = t.mul(prod, prod);
            t.sum(sq)
        },
        "transpose-gram",
    );
}

// ----- coarse nodes ----------------------------------------------------------
//
// `tests/coarse_nodes.rs` pins each coarse node to its primitive chain bit
// for bit; these check the same nodes against finite differences, one input
// at a time with the others held constant.

#[test]
fn gradcheck_linear_node() {
    // ReLU and LeakyReLU have a kink wherever a pre-activation crosses 0;
    // these seeds keep every pre-activation further than `H` from it.
    for (act, seed) in [
        (Activation::Identity, 50),
        (Activation::Relu, 51),
        (Activation::LeakyRelu(0.2), 52),
        (Activation::Sigmoid, 53),
        (Activation::Tanh, 54),
        (Activation::Softplus, 55),
    ] {
        let (x, w, b) = (
            random_tensor(4, 3, seed),
            random_tensor(3, 2, seed + 100),
            random_tensor(1, 2, seed + 200),
        );
        let loss = |t: &mut Tape, x: Var, w: Var, b: Var| {
            let y = t.linear(x, w, b, act);
            let sq = t.mul(y, y);
            t.sum(sq)
        };
        let (xc, wc, bc) = (x.clone(), w.clone(), b.clone());
        check(
            &x,
            |t, p| {
                let (w, b) = (t.constant(wc.clone()), t.constant(bc.clone()));
                loss(t, p, w, b)
            },
            &format!("linear {act:?} input"),
        );
        check(
            &w,
            |t, p| {
                let (x, b) = (t.constant(xc.clone()), t.constant(bc.clone()));
                loss(t, x, p, b)
            },
            &format!("linear {act:?} weight"),
        );
        check(
            &b,
            |t, p| {
                let (x, w) = (t.constant(xc.clone()), t.constant(wc.clone()));
                loss(t, x, w, p)
            },
            &format!("linear {act:?} bias"),
        );
    }
}

#[test]
fn gradcheck_gin_combine_node() {
    let src = [0u32, 1, 2, 3, 0, 2, 2];
    let dst = [1u32, 0, 3, 2, 2, 0, 2];
    let h = random_tensor(4, 3, 60);
    let eps = Tensor::scalar(0.3);
    let hc = h.clone();
    check(
        &h,
        |t, p| {
            let e = t.constant(Tensor::scalar(0.3));
            let y = t.gin_combine(p, e, &src, &dst);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "gin_combine features",
    );
    check(
        &eps,
        |t, p| {
            let h = t.constant(hc.clone());
            let y = t.gin_combine(h, p, &src, &dst);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "gin_combine epsilon",
    );
}

#[test]
fn gradcheck_attention_node() {
    // Vertex 4 receives nothing (the fallback row); the empty edge list is
    // the layer's `σ(Θh)` form.
    let edge_lists: [(&[u32], &[u32]); 2] =
        [(&[0, 1, 2, 3, 4, 2, 1], &[1, 0, 3, 2, 0, 2, 3]), (&[], &[])];
    for (src, dst) in edge_lists {
        let mut has_in = [false; 5];
        for &d in dst {
            has_in[d as usize] = true;
        }
        let inputs = [
            random_tensor(5, 3, 70),
            random_tensor(3, 2, 71),
            random_tensor(3, 2, 72),
            random_tensor(4, 1, 73),
        ];
        for which in 0..4 {
            if src.is_empty() && which >= 2 {
                continue; // Θ_a and a do not reach the output without edges
            }
            let consts = inputs.clone();
            check(
                &inputs[which],
                |t, p| {
                    let v: Vec<Var> = (0..4)
                        .map(|i| {
                            if i == which {
                                p
                            } else {
                                t.constant(consts[i].clone())
                            }
                        })
                        .collect();
                    let y = t.attention(v[0], [v[1], v[2], v[3]], src, dst, &has_in, 0.2);
                    let w = t.constant(random_tensor(5, 2, 74));
                    let weighted = t.mul(y, w);
                    t.sum(weighted)
                },
                &format!("attention input {which}, {} edges", src.len()),
            );
        }
    }
}

#[test]
fn gradcheck_readout_nodes() {
    let x = away_from_zero(&random_tensor(3, 4, 80), 0.2);
    check(
        &x,
        |t, p| {
            let y = t.log1p_signed(p);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "log1p_signed",
    );
    // Values sit in ±1.5, away from 0: a cap of 0.1 has them on both sides.
    check(
        &x,
        |t, p| {
            let y = t.clamp_max(p, 0.1);
            let sq = t.mul(y, y);
            t.sum(sq)
        },
        "clamp_max",
    );
}
