//! `train_yeast`: the write side of `nn`/`gnn` — tape forward, backward,
//! Adam, critic step, clamp.
//!
//! One op is one `fit_prepared` call (one pre-training and one adversarial
//! epoch) on one fixed shard of prepared Yeast queries, starting from the
//! same freshly initialised weights every time. Ops are therefore
//! independent of each other: op `i`'s latency and final weights depend on
//! shard `i` only, not on the order `--seed` issues the shards in, so both
//! are comparable across seeds and checkable against one reference.
//!
//! The warm-up pass is a *quality sweep*: the same `fit_prepared` calls
//! chained over all shards in pool order, then the resulting model's
//! q-error on held-out queries. Its final model checksum must equal the one
//! the parent recorded.

use crate::fixtures::{
    labeled_queries, load_graphs, load_table, save_dataset, save_graphs, save_table, POOL_SEED,
};
use crate::harness::{
    cold_start_probes, median_ms, span_ms_per_op, EndToEndStats, LayerValue, PassSample, RunOpts,
    Workload,
};
use crate::stats::median;
use crate::trace::Tracer;
use neursc_core::persist::model_checksum;
use neursc_core::train::{forward_prepared, PreparedQuery};
use neursc_core::{q_error, GraphContext, NeurSc, NeurScConfig};
use neursc_graph::io::load_graph;
use neursc_graph::Graph;
use neursc_nn::{Tape, Tensor};
use neursc_workloads::datasets::DatasetId;
use std::path::Path;
use std::time::Instant;

/// Shards per pass (= ops) and training queries per shard.
const SHARDS: usize = 128;
const SHARD_QUERIES: usize = 2;
const HELD_OUT: usize = 32;
/// Training queries sampled per query kept: the fixture keeps the
/// `SHARDS * SHARD_QUERIES` with the fewest substructure vertices.
const SAMPLED_PER_KEPT: f64 = 1.5;
const QUERY_SIZE: usize = 4;
/// Seed of the initial weights: part of the workload, not of the input.
const MODEL_SEED: u64 = 11;

fn config() -> NeurScConfig {
    let mut cfg = NeurScConfig::small();
    cfg.pretrain_epochs = 1;
    cfg.adversarial_epochs = 1;
    cfg
}

/// FNV-1a over the bit patterns of every parameter: the output digest of a
/// training op (cheaper than serialising the model to text per op).
fn weights_digest(model: &NeurSc) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in model.store.ids() {
        for v in model.store.value(id).data() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn snapshot(model: &NeurSc) -> Vec<Tensor> {
    model
        .store
        .ids()
        .map(|id| model.store.value(id).clone())
        .collect()
}

fn restore(model: &mut NeurSc, weights: &[Tensor]) {
    let ids: Vec<_> = model.store.ids().collect();
    for (id, w) in ids.into_iter().zip(weights) {
        *model.store.value_mut(id) = w.clone();
    }
}

/// A training instance: prepared shards plus the initial weights.
pub struct Train {
    g: Graph,
    ctx: GraphContext,
    model: NeurSc,
    initial: Vec<Tensor>,
    shards: Vec<Vec<PreparedQuery>>,
    held_out: Vec<(Graph, u64)>,
    /// Expected weights digest after op `i`.
    reference: Vec<u64>,
    /// Expected `model_checksum` after the quality sweep.
    sweep_checksum: u64,
    /// Median q-error of the swept model on the held-out queries.
    sweep_qerr: Option<f64>,
}

impl Train {
    fn load(g: Graph, train: &[(Graph, u64)], held_out: Vec<(Graph, u64)>) -> Train {
        let model = NeurSc::new(config(), MODEL_SEED);
        let ctx = GraphContext::new();
        let prepared: Vec<PreparedQuery> = model
            .prepare_batch(&g, train, &ctx)
            .into_iter()
            .map(|r| r.expect("training queries prepare"))
            .collect();
        let shards = prepared.chunks(SHARD_QUERIES).map(<[_]>::to_vec).collect();
        Train {
            initial: snapshot(&model),
            g,
            ctx,
            model,
            shards,
            held_out,
            reference: Vec::new(),
            sweep_checksum: 0,
            sweep_qerr: None,
        }
    }

    /// Op `i`: reset to the initial weights (untimed), then one
    /// `fit_prepared` on shard `i` (timed). Records the digest of the
    /// resulting weights.
    fn op(&mut self, i: usize, s: &mut PassSample) {
        restore(&mut self.model, &self.initial);
        match s.time_op(i, || self.model.fit_prepared(&self.shards[i])) {
            Ok(_) => s.out[i] = weights_digest(&self.model),
            Err(_) => s.errors += 1,
        }
    }

    /// The quality sweep: `fit_prepared` chained over every shard in pool
    /// order from the initial weights, then the swept model's q-error on
    /// the held-out queries. Returns the final model checksum.
    fn quality_sweep(&mut self) -> u64 {
        restore(&mut self.model, &self.initial);
        for shard in &self.shards {
            self.model.fit_prepared(shard).expect("sweep step");
        }
        let errs: Vec<f64> = self
            .held_out
            .iter()
            .map(|(q, truth)| {
                let d = self
                    .model
                    .estimate_detailed_with(q, &self.g, &self.ctx)
                    .expect("held-out estimate");
                q_error(d.count, *truth as f64)
            })
            .collect();
        self.sweep_qerr = median(&errs);
        model_checksum(&self.model)
    }
}

/// Builds the training fixture into `dir`: `data.graph`, `queries.graphs`
/// (training queries then held-out queries), `truth.tsv`, `reference.tsv`.
pub fn build_fixture(dir: &Path) {
    let g = save_dataset(DatasetId::Yeast, dir);
    let kept = SHARDS * SHARD_QUERIES;
    let sampled = (kept as f64 * SAMPLED_PER_KEPT) as usize;
    let n = sampled + HELD_OUT;
    let mut labeled = labeled_queries(&g, QUERY_SIZE, n, n / 4, POOL_SEED ^ 0x7368_6172_6400);
    let held_out = labeled.split_off(sampled);
    // The most expensive third of the sampled steps builds tapes so large
    // that their time is the kernel zeroing fresh pages (a quarter of the
    // workload's CPU time was system time with them, a twentieth without),
    // which does not repeat between runs. The kept queries stay in sampling
    // order.
    let prepared =
        NeurSc::new(config(), MODEL_SEED).prepare_batch(&g, &labeled, &GraphContext::new());
    let cost: Vec<usize> = prepared
        .iter()
        .map(|pq| {
            let pq = pq.as_ref().expect("training queries prepare");
            pq.subs.iter().map(|sub| sub.x.rows()).sum()
        })
        .collect();
    let mut by_cost: Vec<usize> = (0..sampled).collect();
    by_cost.sort_by_key(|&i| cost[i]);
    by_cost.truncate(kept);
    by_cost.sort_unstable();
    let mut labeled: Vec<(Graph, u64)> = by_cost.iter().map(|&i| labeled[i].clone()).collect();

    let mut w = Train::load(g, &labeled, held_out.clone());
    let mut s = PassSample::new(SHARDS);
    for i in 0..SHARDS {
        w.op(i, &mut s);
    }
    assert_eq!(s.errors, 0, "reference training ops failed");
    let mut reference: Vec<Vec<u64>> = s.out.iter().map(|&d| vec![d]).collect();
    reference.push(vec![w.quality_sweep()]);
    labeled.extend(held_out);
    let queries: Vec<Graph> = labeled.iter().map(|(q, _)| q.clone()).collect();
    let truth: Vec<Vec<u64>> = labeled.iter().map(|(_, c)| vec![*c]).collect();
    save_graphs(&queries, &dir.join("queries.graphs"));
    save_table(&truth, &dir.join("truth.tsv"));
    save_table(&reference, &dir.join("reference.tsv"));
}

impl Workload for Train {
    fn set_up(fixture: &Path) -> Self {
        let g = load_graph(&fixture.join("data.graph")).expect("load the data graph");
        let queries = load_graphs(&fixture.join("queries.graphs"));
        let truth = load_table(&fixture.join("truth.tsv"));
        let mut labeled: Vec<(Graph, u64)> = queries
            .into_iter()
            .zip(truth.iter().map(|r| r[0]))
            .collect();
        let held_out = labeled.split_off(SHARDS * SHARD_QUERIES);
        let mut w = Train::load(g, &labeled, held_out);
        let mut reference: Vec<u64> = load_table(&fixture.join("reference.tsv"))
            .iter()
            .map(|r| r[0])
            .collect();
        w.sweep_checksum = reference.pop().expect("sweep checksum row");
        w.reference = reference;
        // The first training step a user gets.
        let mut first = PassSample::new(SHARDS);
        w.op(0, &mut first);
        assert_eq!(
            (first.errors, first.out[0]),
            (0, w.reference[0]),
            "first op differs from the reference"
        );
        w
    }

    fn n_ops(&self) -> usize {
        self.shards.len()
    }

    fn reference(&self) -> &[u64] {
        &self.reference
    }

    fn warm_up(&mut self) {
        let checksum = self.quality_sweep();
        assert_eq!(
            checksum, self.sweep_checksum,
            "the quality sweep's final model differs from the reference"
        );
    }

    fn pass(&mut self, order: &[usize], _pass_no: u64) -> PassSample {
        let mut s = PassSample::new(self.n_ops());
        for &i in order {
            self.op(i, &mut s);
        }
        s.close_serial()
    }

    fn traced_pass(&mut self, order: &[usize], _pass_no: u64, tracer: &mut Tracer) -> PassSample {
        let mut s = PassSample::new(self.n_ops());
        for &i in order {
            tracer.set_op(i as u32);
            restore(&mut self.model, &self.initial);
            let t0 = Instant::now();
            let r = tracer.span("op", |tr| {
                tr.span("core.train_step", |_| {
                    self.model.fit_prepared(&self.shards[i])
                })
            });
            s.op_ns[i] = t0.elapsed().as_nanos() as u64;
            s.attempted += 1;
            match r {
                Ok(_) => s.out[i] = weights_digest(&self.model),
                Err(_) => s.errors += 1,
            }
            // Probe: the tape forward of the shard's queries on their own,
            // from the same initial weights.
            restore(&mut self.model, &self.initial);
            tracer.span("probe", |tr| {
                for pq in &self.shards[i] {
                    tr.span("nn.tape_forward", |_| {
                        let mut tape = Tape::new();
                        forward_prepared(&self.model, &mut tape, pq).map(|(_, zs)| zs.len())
                    });
                }
            });
        }
        s
    }

    fn qerr_p50(&mut self, _order: &[usize], _last: &PassSample) -> (f64, usize) {
        // A run without a warm-up pass (`--smoke`) sweeps here.
        if self.sweep_qerr.is_none() {
            self.warm_up();
        }
        (
            self.sweep_qerr
                .expect("the sweep estimated the held-out queries"),
            self.held_out.len(),
        )
    }

    fn layer_metrics(
        &mut self,
        opts: &RunOpts,
        tracer: &Tracer,
        n_traced: usize,
        e2e: &EndToEndStats,
    ) -> Vec<LayerValue> {
        let fixture = &opts.fixture;
        let n = e2e.op_ms.len();
        let per_op = |name: &str| span_ms_per_op(tracer, name, n_traced, self.n_ops(), n);
        let step = per_op("core.train_step");
        // One step runs the forward once per epoch (pre-training and
        // adversarial), so twice per query of the shard.
        let forward = 2.0 * per_op("nn.tape_forward");
        let train: Vec<(Graph, u64)> = load_graphs(&fixture.join("queries.graphs"))
            .into_iter()
            .take(SHARDS * SHARD_QUERIES)
            .map(|q| (q, 0))
            .collect();
        let prepare_ms = median_ms(3, || {
            self.model
                .prepare_batch(&self.g, &train, &GraphContext::new())
                .len()
        });
        let mut values = cold_start_probes(fixture, &self.g, &self.model);
        values.extend([
            (
                "core.train_prepare_ms_per_query",
                prepare_ms / train.len() as f64,
                train.len(),
            ),
            ("core.train_step_ms", step, n),
            ("nn.tape_forward_ms_per_step", forward, n),
            (
                "nn.backward_optim_ms_per_step",
                (step - forward).max(0.0),
                n,
            ),
        ]);
        values
    }

    fn shut_down(self) {}
}
