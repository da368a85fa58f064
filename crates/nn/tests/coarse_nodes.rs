//! Coarse tape nodes against the primitive chains they replace, bit for bit.
//!
//! `Tape::{linear, gin_combine, attention, log1p_signed, clamp_max}` each
//! record one node where the layers used to record a chain of primitive
//! ops. The chains live on here as the reference: for every node, over a
//! grid of shapes and edge lists and over inputs seeded with the values
//! where bit-identity is fragile (signed zeros, whole-zero rows, `inf`
//! under a zero row, vertices no edge reaches, an empty edge list, self
//! loops, duplicate edges), the forward value and the gradient of every
//! input and every parameter must equal the chain's by `to_bits`.
//!
//! Each comparison runs twice: once with the node as the only consumer of
//! its inputs (a contribution is *moved* into an empty gradient slot), once
//! with a later consumer of every input recorded after it, so that the
//! slot already holds a gradient when the node propagates. That is where
//! `S + (t₁ + t₂)` and `(S + t₁) + t₂` differ.

use neursc_nn::layers::Activation;
use neursc_nn::{ParamStore, Tape, Tensor, Var};

const ROWS: [usize; 7] = [0, 1, 3, 4, 5, 9, 41];
const WIDTHS: [usize; 4] = [1, 7, 32, 64];

/// xorshift64 test data: small values, a quarter of them signed zeros.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

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

    fn tensor(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| self.value()).collect())
    }

    /// Features: a third of the rows entirely (signed) zero, and now and
    /// then a whole row of `-0.0`.
    fn features(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.tensor(rows, cols);
        for r in 0..rows {
            match self.below(6) {
                0 | 1 => t.row_mut(r).iter_mut().for_each(|x| *x = self.zero()),
                2 => t.row_mut(r).fill(-0.0),
                _ => {}
            }
        }
        t
    }

    /// A weight; every other one carries an `inf` and a `-inf`, which only
    /// the matmul's zero-row skip keeps out of a zero row's output.
    fn weight(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.tensor(rows, cols);
        if !t.is_empty() && self.below(2) == 0 {
            for poison in [f32::INFINITY, f32::NEG_INFINITY] {
                let at = self.below(t.len() as u64) as usize;
                t.data_mut()[at] = poison;
            }
        }
        t
    }

    /// Directed edges over `n` vertices: random pairs, with a self loop, a
    /// duplicated edge and a stretch of vertices nothing is sent to.
    fn edges(&mut self, n: usize, count: usize) -> (Vec<u32>, Vec<u32>) {
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        if n == 0 {
            return (src, dst);
        }
        let reached = (n as u64 * 2).div_ceil(3); // the last third stays isolated
        for _ in 0..count {
            src.push(self.below(n as u64) as u32);
            dst.push(self.below(reached) as u32);
        }
        if count >= 3 {
            (src[1], dst[1]) = (src[0], dst[0]); // duplicate
            src[2] = dst[2]; // self loop
        }
        (src, dst)
    }
}

/// Bit equality, except that any NaN equals any NaN (which payload survives
/// `NaN + NaN` is the instruction's operand order, not part of the
/// contract).
fn assert_same(got: Option<&Tensor>, want: Option<&Tensor>, what: &str) {
    let (got, want) = match (got, want) {
        (None, None) => return,
        (Some(g), Some(w)) => (g, w),
        (g, w) => panic!(
            "{what}: {:?} vs {:?}",
            g.map(Tensor::shape),
            w.map(Tensor::shape)
        ),
    };
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} of {:?}: {g:?} ({:#x}) != {w:?} ({:#x})",
            got.shape(),
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// What one run of a node under test leaves behind.
struct Run {
    value: Tensor,
    input_grads: Vec<Option<Tensor>>,
}

/// Binds `inputs` as parameters, records `node` over them, weights its
/// output with `upstream` (which thereby *is* the output's gradient) and —
/// with `occupied` — gives every input a second, later consumer, then runs
/// backward. Gradients are read off the tape, not the store: the store adds
/// them onto `+0.0`, which would hide the sign of a `-0.0`.
fn run(
    inputs: &[Tensor],
    upstream: &Tensor,
    later: &[Tensor],
    occupied: bool,
    node: &dyn Fn(&mut Tape, &[Var]) -> Var,
) -> Run {
    let mut store = ParamStore::new();
    let ids: Vec<_> = inputs.iter().map(|t| store.alloc(t.clone())).collect();
    let mut tape = Tape::new();
    let vars: Vec<Var> = ids.iter().map(|&id| tape.param(&store, id)).collect();
    let out = node(&mut tape, &vars);
    assert_eq!(tape.value(out).shape(), upstream.shape(), "upstream shape");
    let weights = tape.constant(upstream.clone());
    let weighted = tape.mul(out, weights);
    let mut loss = tape.sum(weighted);
    if occupied {
        for (&v, l) in vars.iter().zip(later) {
            let c = tape.constant(l.clone());
            let consumed = tape.mul(v, c);
            let s = tape.sum(consumed);
            loss = tape.add(loss, s);
        }
    }
    tape.backward(loss, &mut store);
    Run {
        value: tape.value(out).clone(),
        input_grads: vars.iter().map(|&v| tape.grad(v).cloned()).collect(),
    }
}

/// Runs `coarse` and `chain` over the same inputs, slot-empty and
/// slot-occupied, and compares value and every input gradient.
fn compare(
    what: &str,
    gen: &mut Gen,
    inputs: &[Tensor],
    out_shape: (usize, usize),
    coarse: &dyn Fn(&mut Tape, &[Var]) -> Var,
    chain: &dyn Fn(&mut Tape, &[Var]) -> Var,
) {
    let upstream = gen.tensor(out_shape.0, out_shape.1);
    let later: Vec<Tensor> = inputs
        .iter()
        .map(|t| gen.tensor(t.rows(), t.cols()))
        .collect();
    for occupied in [false, true] {
        let got = run(inputs, &upstream, &later, occupied, coarse);
        let want = run(inputs, &upstream, &later, occupied, chain);
        let what = format!(
            "{what}, slots {}",
            if occupied { "occupied" } else { "empty" }
        );
        assert_same(
            Some(&got.value),
            Some(&want.value),
            &format!("{what}: value"),
        );
        for (i, (g, w)) in got.input_grads.iter().zip(&want.input_grads).enumerate() {
            assert_same(
                g.as_ref(),
                w.as_ref(),
                &format!("{what}: gradient of input {i}"),
            );
        }
    }
}

fn activation_chain(tape: &mut Tape, x: Var, act: Activation) -> Var {
    match act {
        Activation::Identity => x,
        Activation::Relu => tape.relu(x),
        Activation::LeakyRelu(s) => tape.leaky_relu(x, s),
        Activation::Sigmoid => tape.sigmoid(x),
        Activation::Tanh => tape.tanh(x),
        Activation::Softplus => tape.softplus(x),
    }
}

/// `Tape::linear` against matmul → broadcast add → activation, on one shape.
fn compare_linear(n: usize, k: usize, m: usize, act: Activation, seed: u64) {
    let mut gen = Gen::new(seed);
    let inputs = [gen.features(n, k), gen.weight(k, m), gen.tensor(1, m)];
    compare(
        &format!("linear [{n},{k}]x[{k},{m}] {act:?}"),
        &mut gen,
        &inputs,
        (n, m),
        &|t, v| t.linear(v[0], v[1], v[2], act),
        &|t, v| {
            let xw = t.matmul(v[0], v[1]);
            let s = t.add(xw, v[2]);
            activation_chain(t, s, act)
        },
    );
}

const ACTIVATIONS: [Activation; 7] = [
    Activation::Identity,
    Activation::Relu,
    Activation::LeakyRelu(0.2),
    Activation::LeakyRelu(-0.5),
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Softplus,
];

#[test]
fn linear_matches_matmul_add_activation() {
    // Cycling keeps the grid at one run per shape; every activation still
    // meets every row count and width.
    let mut case = 0;
    for n in ROWS {
        for k in WIDTHS {
            for m in WIDTHS {
                case += 1;
                compare_linear(n, k, m, ACTIVATIONS[case % ACTIVATIONS.len()], case as u64);
            }
        }
    }
}

#[test]
fn every_activation_meets_every_shape_class() {
    // The grid above cycles activations; this pins each one on the shapes
    // where the bias gradient changes form (one row: passed on as it is;
    // one column: a scalar sum; otherwise row sums).
    for (i, act) in ACTIVATIONS.into_iter().enumerate() {
        for (n, k, m) in [(1, 7, 7), (1, 1, 1), (5, 7, 1), (9, 32, 7), (0, 7, 1)] {
            compare_linear(n, k, m, act, 1000 + (i * 100 + n * 10 + m) as u64);
        }
    }
}

/// Edge counts tried per vertex count: none, sparse, dense.
fn edge_counts(n: usize) -> [usize; 3] {
    [0, n.div_ceil(2), 6 * n + 1]
}

#[test]
fn gin_combine_matches_gather_scatter_scale_add() {
    let mut case = 0u64;
    for n in ROWS {
        for c in WIDTHS {
            for count in edge_counts(n) {
                case += 1;
                let mut gen = Gen::new(case ^ 0x61);
                let (src, dst) = gen.edges(n, count);
                let eps = Tensor::scalar(if case.is_multiple_of(3) {
                    -1.0
                } else {
                    gen.value()
                });
                let inputs = [gen.features(n, c), eps];
                compare(
                    &format!("gin_combine [{n},{c}] {} edges", src.len()),
                    &mut gen,
                    &inputs,
                    (n, c),
                    &|t, v| t.gin_combine(v[0], v[1], &src, &dst),
                    &|t, v| {
                        let agg = if src.is_empty() {
                            t.constant(Tensor::zeros(n, c))
                        } else {
                            let msgs = t.index_select(v[0], &src);
                            t.segment_sum(msgs, &dst, n)
                        };
                        let one_plus = t.add_scalar(v[1], 1.0);
                        let scaled = t.mul(v[0], one_plus);
                        t.add(scaled, agg)
                    },
                );
            }
        }
    }
}

/// The attention layer as `neursc-gnn` recorded it before `Tape::attention`.
fn attention_chain(
    tape: &mut Tape,
    v: &[Var],
    (src, dst): (&[u32], &[u32]),
    has_in: &[bool],
    slope: f32,
) -> Var {
    let (h, theta, theta_a, attn) = (v[0], v[1], v[2], v[3]);
    let n = has_in.len();
    let th = tape.matmul(h, theta);
    let ta = tape.matmul(h, theta_a);
    if src.is_empty() {
        return tape.sigmoid(th);
    }
    let a_dst = tape.index_select(ta, dst);
    let a_src = tape.index_select(ta, src);
    let cat = tape.concat_cols(a_dst, a_src);
    let raw = tape.matmul(cat, attn);
    let logits = tape.leaky_relu(raw, slope);

    let max_per = tape.segment_max_detached(logits, dst, n);
    let max_bcast = {
        let c = tape.constant(max_per);
        tape.index_select(c, dst)
    };
    let shifted = tape.sub(logits, max_bcast);
    let exps = tape.exp(shifted);
    let denom = tape.segment_sum(exps, dst, n);
    let denom_safe = tape.add_scalar(denom, 1e-12);
    let denom_bcast = tape.index_select(denom_safe, dst);
    let alpha = tape.div(exps, denom_bcast);

    let msgs = tape.index_select(th, src);
    let weighted = tape.mul(msgs, alpha);
    let agg = tape.segment_sum(weighted, dst, n);

    let cols = tape.value(th).cols();
    let mut mask = Tensor::zeros(n, cols);
    for (r, &present) in has_in.iter().enumerate() {
        mask.row_mut(r).fill(if present { 0.0 } else { 1.0 });
    }
    let fallback = tape.mul_const(th, mask);
    let combined = tape.add(agg, fallback);
    tape.sigmoid(combined)
}

#[test]
fn attention_matches_the_24_node_chain() {
    let mut case = 0u64;
    for n in ROWS {
        for k in [1, 7, 32] {
            for c in WIDTHS {
                for count in edge_counts(n) {
                    case += 1;
                    let mut gen = Gen::new(case ^ 0xa77);
                    let (mut src, mut dst) = gen.edges(n, count);
                    if case.is_multiple_of(4) {
                        // The stack's `self_term`: a loop on every vertex.
                        src.extend(0..n as u32);
                        dst.extend(0..n as u32);
                    }
                    let mut has_in = vec![false; n];
                    for &d in &dst {
                        has_in[d as usize] = true;
                    }
                    let slope = if case.is_multiple_of(5) { -0.3 } else { 0.2 };
                    let inputs = [
                        gen.features(n, k),
                        gen.weight(k, c),
                        gen.weight(k, c),
                        gen.tensor(2 * c, 1),
                    ];
                    compare(
                        &format!("attention [{n},{k}]->{c} {} edges", src.len()),
                        &mut gen,
                        &inputs,
                        (n, c),
                        &|t, v| t.attention(v[0], [v[1], v[2], v[3]], &src, &dst, &has_in, slope),
                        &|t, v| attention_chain(t, v, (&src, &dst), &has_in, slope),
                    );
                }
            }
        }
    }
}

#[test]
fn attention_over_flat_logits_and_zero_transforms() {
    // All-zero Θ_a: every logit is 0, the softmax is uniform and every
    // column of the logit product's left operand is zero (the kernel's
    // NaN-only correction). All-zero Θ with an `inf` upstream: `0 · inf`.
    for (n, c, zero_theta) in [(5, 7, false), (9, 32, true), (4, 1, true)] {
        let mut gen = Gen::new(0xf1a7 + n as u64);
        let (src, dst) = gen.edges(n, 4 * n);
        let mut has_in = vec![false; n];
        for &d in &dst {
            has_in[d as usize] = true;
        }
        let theta = if zero_theta {
            Tensor::zeros(3, c)
        } else {
            gen.weight(3, c)
        };
        let mut attn = gen.tensor(2 * c, 1);
        attn.data_mut()[0] = f32::INFINITY;
        let inputs = [gen.features(n, 3), theta, Tensor::zeros(3, c), attn];
        compare(
            &format!("attention flat [{n},3]->{c}"),
            &mut gen,
            &inputs,
            (n, c),
            &|t, v| t.attention(v[0], [v[1], v[2], v[3]], &src, &dst, &has_in, 0.2),
            &|t, v| attention_chain(t, v, (&src, &dst), &has_in, 0.2),
        );
    }
}

#[test]
fn readout_maps_match_their_chains() {
    let mut case = 0u64;
    for n in ROWS {
        for c in WIDTHS {
            case += 1;
            let mut gen = Gen::new(case ^ 0x109);
            let mut x = gen.features(n, c);
            // Both sides of each kink, the kink itself, and far out.
            for (slot, v) in x.data_mut().iter_mut().zip([
                0.0,
                -0.0,
                1e-30,
                -1e-30,
                3.0,
                -3.0,
                1e30,
                -1e30,
                2.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ]) {
                *slot = v;
            }
            let inputs = [x];
            compare(
                &format!("log1p_signed [{n},{c}]"),
                &mut gen,
                &inputs,
                (n, c),
                &|t, v| t.log1p_signed(v[0]),
                &|t, v| {
                    let pos = t.relu(v[0]);
                    let lp = t.ln(pos, 1.0);
                    let nx = t.neg(v[0]);
                    let negp = t.relu(nx);
                    let ln_neg = t.ln(negp, 1.0);
                    t.sub(lp, ln_neg)
                },
            );
            // The cap at a value the grid contains (2.0), so `x == cap`,
            // `x < cap` and `x > cap` all occur.
            compare(
                &format!("clamp_max [{n},{c}]"),
                &mut gen,
                &inputs,
                (n, c),
                &|t, v| t.clamp_max(v[0], 2.0),
                &|t, v| {
                    let neg = t.neg(v[0]);
                    let shifted = t.add_scalar(neg, 2.0);
                    let r = t.relu(shifted);
                    let nr = t.neg(r);
                    t.add_scalar(nr, 2.0)
                },
            );
        }
    }
}
