//! The backward pass must hand a model parameter the same gradient
//! whether or not gradient also flows on into the inputs.
//!
//! `Tape::backward` borrows each node's gradient, moves fresh contributions
//! into their slots and shares one `Wᵀ` between every bind of a weight. None
//! of that may depend on what sits *below* a node: the WEst pair forward and
//! count loss are built once over constant inputs and once over the same
//! inputs bound as parameters (which makes every layer's input-side gradient
//! live all the way down), and every model parameter must receive
//! bit-equal gradients from both.

use neursc_core::loss::count_loss;
use neursc_core::train::{prepare_query_with, PreparedQuery};
use neursc_core::west::{clamp_max, log1p_signed, LOG_COUNT_CAP};
use neursc_core::{GraphContext, NeurSc, NeurScConfig};
use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_nn::{ParamStore, Tape, Var};
use rand::SeedableRng;

/// `WEst::forward_pair` from already-bound inputs on: the same ops in the
/// same order (pinned against the real one below). Returns `(H_q, z)`.
fn pair_from_inputs(
    model: &NeurSc,
    store: &ParamStore,
    tape: &mut Tape,
    (xq, xs): (Var, Var),
    pq: &PreparedQuery,
    sub: usize,
) -> (Var, Var) {
    let west = &model.west;
    let sub = &pq.subs[sub];
    let (nq, ns) = (pq.x_q.rows(), sub.x.rows());
    let hq_intra = west.gin.forward(tape, store, xq, &pq.q_edges);
    let hs_intra = west.gin.forward(tape, store, xs, &sub.edges);
    let inter = west
        .inter
        .as_ref()
        .expect("the small config is inter+intra");
    let x_all = tape.concat_rows(xq, xs);
    let h_all = inter.forward(tape, store, x_all, &sub.gb);
    let hq_inter = tape.slice_rows(h_all, 0, nq);
    let hs_inter = tape.slice_rows(h_all, nq, nq + ns);
    let h_q = tape.concat_cols(hq_intra, hq_inter);
    let h_sub = tape.concat_cols(hs_intra, hs_inter);
    let sq = tape.sum_rows(h_q);
    let rq = log1p_signed(tape, sq);
    let ss = tape.sum_rows(h_sub);
    let rs = log1p_signed(tape, ss);
    let hp = tape.concat_cols(rq, rs);
    let z = west.head.forward(tape, store, hp);
    (h_q, clamp_max(tape, z, LOG_COUNT_CAP))
}

#[test]
fn model_gradients_do_not_depend_on_inputs_being_parameters() {
    let g = erdos_renyi(150, 450, 4, 7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let model = NeurSc::new(NeurScConfig::small(), 42);
    let ctx = GraphContext::new();
    // The first sampled query with several substructures: one weight is
    // then bound many times on one tape.
    let pq = std::iter::repeat_with(|| {
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
        prepare_query_with(&q, &g, &model.config, 7, &ctx).expect("prepare")
    })
    .take(32)
    .find(|pq| pq.subs.len() >= 2)
    .expect("a query with at least two substructures");

    // Scratch stores: the model's parameters, plus (second run) the inputs.
    let mut const_store = model.store.clone();
    let mut param_store = model.store.clone();
    let xq_id = param_store.alloc(pq.x_q.clone());
    let xs_ids: Vec<_> = pq
        .subs
        .iter()
        .map(|s| param_store.alloc(s.x.clone()))
        .collect();

    let mut const_tape = Tape::new();
    let mut param_tape = Tape::new();
    let (mut const_zs, mut param_zs, mut intermediates) = (Vec::new(), Vec::new(), Vec::new());
    for (i, sub) in pq.subs.iter().enumerate() {
        let inputs = (
            const_tape.constant(pq.x_q.clone()),
            const_tape.constant(sub.x.clone()),
        );
        let (_, z) = pair_from_inputs(&model, &const_store, &mut const_tape, inputs, &pq, i);
        const_zs.push(z);

        let inputs = (
            param_tape.param(&param_store, xq_id),
            param_tape.param(&param_store, xs_ids[i]),
        );
        let (h_q, z) = pair_from_inputs(&model, &param_store, &mut param_tape, inputs, &pq, i);
        param_zs.push(z);
        intermediates.push(h_q);

        // The replica above is the real pair forward.
        let mut tape = Tape::new();
        let real = model.west.forward_pair(
            &mut tape,
            &model.store,
            &pq.x_q,
            &pq.q_edges,
            &sub.x,
            &sub.edges,
            &sub.gb,
        );
        let real_z = tape.value(real.log_count).item();
        assert_eq!(const_tape.value(z).item().to_bits(), real_z.to_bits());
    }
    let const_loss = count_loss(&mut const_tape, &const_zs, pq.truth);
    let param_loss = count_loss(&mut param_tape, &param_zs, pq.truth);
    const_tape.backward(const_loss, &mut const_store);
    param_tape.backward(param_loss, &mut param_store);

    let mut nonzero = 0;
    for id in model.store.ids() {
        let bits = |store: &ParamStore| -> Vec<u32> {
            store.grad(id).data().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(
            bits(&const_store),
            bits(&param_store),
            "gradient of {id:?} depends on whether the inputs are parameters"
        );
        nonzero += usize::from(const_store.grad(id).data().iter().any(|&x| x != 0.0));
    }
    assert!(
        nonzero > model.store.len() / 2,
        "the loss reaches the model"
    );
    // Gradient really did flow on into the inputs in the second run …
    assert!(param_store.grad(xq_id).data().iter().any(|&x| x != 0.0));
    // … and the pass put every borrowed gradient back: `Tape::grad` still
    // answers for a parameter-descended intermediate.
    for h_q in intermediates {
        let grad = param_tape.grad(h_q).expect("gradient reached H_q");
        assert_eq!(grad.shape(), param_tape.value(h_q).shape());
    }
}
