//! The two offline workloads: `estimate_detailed_with` in a closed loop.
//!
//! * `offline_refine_human` — dense Human preset, Q8 + Q16 queries, small
//!   model: global refinement in `match` owns most of an op.
//! * `offline_gnn_youtube` — sparse Youtube preset, Q4 queries, paper-width
//!   model: many substructures per op, so featurize + GNN own most of it.
//!
//! The estimation fixture built here (data graph, trained model, query
//! pool, exact counts, reference estimates) is also what `serve_yeast`
//! serves.

use crate::fixtures::{
    labeled_queries, load_graphs, load_table, save_dataset, save_graphs, save_table, POOL_SEED,
};
use crate::harness::{
    cold_start_probes, span_ms_per_op, EndToEndStats, LayerValue, PassSample, RunOpts, Workload,
};
use crate::stats::median;
use crate::trace::Tracer;
use neursc_core::extraction::extract_substructures_with;
use neursc_core::persist::{load_model, save_model};
use neursc_core::train::{prepare_query_with, PreparedQuery};
use neursc_core::west::{clamp_max_scalar, log1p_signed_scalar, LOG_COUNT_CAP};
use neursc_core::{q_error, EstimateDetail, GraphContext, NeurSc, NeurScConfig, PipelineReport};
use neursc_gnn::{init_features, EdgeList};
use neursc_graph::induced::{connected_components, induced_subgraph};
use neursc_graph::io::load_graph;
use neursc_graph::Graph;
use neursc_match::candidates::local_pruning_with;
use neursc_match::profile::all_profiles;
use neursc_match::refinement::global_refinement;
use neursc_nn::infer::{Arena, InferCtx, InferWeights, QuantMode};
use neursc_workloads::datasets::DatasetId;
use std::path::Path;
use std::time::Instant;

/// What an estimation fixture is generated from.
pub struct EstimationSpec {
    pub dataset: DatasetId,
    /// `(query size, ops)` per query set; the pool is their concatenation.
    pub query_sets: &'static [(usize, usize)],
    /// Paper-width (`NeurScConfig::default`) or `NeurScConfig::small`.
    pub paper_width: bool,
    /// Training queries per query size for the served model.
    pub train_per_size: usize,
    /// Keep only the cheapest `1/cheapest_of` of the sampled queries, by
    /// candidate pairs after local pruning (1 = keep all).
    pub cheapest_of: usize,
}

pub const REFINE_HUMAN: EstimationSpec = EstimationSpec {
    dataset: DatasetId::Human,
    query_sets: &[(8, 128), (16, 128)],
    paper_width: false,
    train_per_size: 12,
    cheapest_of: 1,
};

pub const GNN_YOUTUBE: EstimationSpec = EstimationSpec {
    dataset: DatasetId::Youtube,
    query_sets: &[(4, 256)],
    paper_width: true,
    train_per_size: 24,
    cheapest_of: 1,
};

/// Training schedule of the fixture models: short, deterministic, enough
/// to move the weights off their initialisation (trained weights have
/// realistic ReLU sparsity and a meaningful q-error).
const FIXTURE_PRETRAIN_EPOCHS: usize = 3;
const FIXTURE_ADVERSARIAL_EPOCHS: usize = 1;
const FIXTURE_MODEL_SEED: u64 = 7;

/// Spare candidates generated per wanted query, as a share, to replace
/// those whose exact count exceeds the ground-truth budget.
const SPARE_SHARE: f64 = 0.6;

fn model_config(paper_width: bool) -> NeurScConfig {
    let mut cfg = if paper_width {
        NeurScConfig::default()
    } else {
        NeurScConfig::small()
    };
    cfg.pretrain_epochs = FIXTURE_PRETRAIN_EPOCHS;
    cfg.adversarial_epochs = FIXTURE_ADVERSARIAL_EPOCHS;
    cfg
}

/// One row of `pool.tsv` per pool query.
struct PoolRow {
    truth: u64,
    detail: EstimateDetail,
}

fn detail_to_row(truth: u64, d: &EstimateDetail) -> Vec<u64> {
    vec![
        truth,
        d.count.to_bits(),
        d.n_substructures as u64,
        u64::from(d.trivially_zero),
        u64::from(d.degraded),
    ]
}

fn row_to_detail(row: &[u64]) -> PoolRow {
    PoolRow {
        truth: row[0],
        detail: EstimateDetail {
            count: f64::from_bits(row[1]),
            n_substructures: row[2] as usize,
            trivially_zero: row[3] != 0,
            degraded: row[4] != 0,
            ci: None,
            report: PipelineReport::default(),
        },
    }
}

/// Builds an estimation fixture into `dir`: `data.graph`, `model.txt`,
/// `queries.graphs`, `pool.tsv`.
pub fn build_fixture(spec: &EstimationSpec, dir: &Path) {
    let g = save_dataset(spec.dataset, dir);
    let mut pool = Vec::new();
    let mut train = Vec::new();
    let r = model_config(spec.paper_width).filter.profile_radius;
    let profiles = all_profiles(&g, r);
    for &(size, count) in spec.query_sets {
        let sampled = count * spec.cheapest_of;
        let spare = (sampled as f64 * SPARE_SHARE).ceil() as usize;
        let mut set = labeled_queries(&g, size, sampled, spare, POOL_SEED);
        // A deterministic cost proxy: refinement work grows with the
        // candidate pairs local pruning leaves. The sort is stable.
        set.sort_by_cached_key(|(q, _)| local_pruning_with(q, &g, r, &profiles).total_size());
        set.truncate(count);
        pool.extend(set);
        let spare = (spec.train_per_size as f64 * SPARE_SHARE).ceil() as usize + 4;
        train.extend(labeled_queries(
            &g,
            size,
            spec.train_per_size,
            spare,
            POOL_SEED ^ 0x7472_6169_6e00,
        ));
    }

    let mut model = NeurSc::new(model_config(spec.paper_width), FIXTURE_MODEL_SEED);
    model.fit(&g, &train).expect("train the fixture model");
    save_model(&model, &dir.join("model.txt")).expect("save the fixture model");

    // Reference outputs come from the file a child will load, through the
    // same public entry point the offline workloads time.
    let model = load_model(&dir.join("model.txt")).expect("reload the fixture model");
    let ctx = GraphContext::new();
    let rows: Vec<Vec<u64>> = pool
        .iter()
        .map(|(q, truth)| {
            let d = model
                .estimate_detailed_with(q, &g, &ctx)
                .expect("reference estimate");
            detail_to_row(*truth, &d)
        })
        .collect();
    let queries: Vec<Graph> = pool.into_iter().map(|(q, _)| q).collect();
    save_graphs(&queries, &dir.join("queries.graphs"));
    save_table(&rows, &dir.join("pool.tsv"));
}

/// The loaded pool of an estimation fixture.
pub struct Pool {
    pub queries: Vec<Graph>,
    pub truth: Vec<u64>,
    /// The offline `estimate_detailed_with` result of every pool query.
    pub details: Vec<EstimateDetail>,
    /// `details[i].count.to_bits()`.
    pub reference: Vec<u64>,
}

pub fn load_pool(fixture: &Path) -> Pool {
    let queries = load_graphs(&fixture.join("queries.graphs"));
    let rows: Vec<PoolRow> = load_table(&fixture.join("pool.tsv"))
        .iter()
        .map(|r| row_to_detail(r))
        .collect();
    assert_eq!(queries.len(), rows.len(), "pool files disagree");
    Pool {
        queries,
        truth: rows.iter().map(|r| r.truth).collect(),
        reference: rows.iter().map(|r| r.detail.count.to_bits()).collect(),
        details: rows.into_iter().map(|r| r.detail).collect(),
    }
}

/// Median q-error of the estimates `f64::from_bits(out[i])` of the ops in
/// `order` against `truth[i]`, and how many estimates that is.
pub fn median_q_error(order: &[usize], out: &[u64], truth: &[u64]) -> (f64, usize) {
    let errs: Vec<f64> = order
        .iter()
        .map(|&i| q_error(f64::from_bits(out[i]), truth[i] as f64))
        .collect();
    (median(&errs).expect("at least one estimate"), errs.len())
}

/// Floating-point operations of one fused WEst forward over a prepared
/// query, **computed from tensor shapes** (matmuls as `2·m·k·n`, per-edge
/// terms as their multiply-adds); nothing is counted at run time.
pub fn forward_flops(cfg: &NeurScConfig, pq: &PreparedQuery) -> f64 {
    let gin = |n: usize, e: usize| -> f64 {
        let mut flops = 0.0;
        let mut d_in = cfg.gin.in_dim;
        for _ in 0..cfg.gin.n_layers {
            let h = cfg.gin.hidden_dim;
            flops += (e * d_in) as f64; // neighbour scatter-add
            flops += 2.0 * (n * d_in) as f64; // (1+eps)·x + agg
            flops += 2.0 * (n * d_in * h + n * h * h) as f64; // 2-layer MLP
            d_in = h;
        }
        flops
    };
    let attention = |n: usize, e: usize| -> f64 {
        let mut flops = 0.0;
        let mut d_in = cfg.attention.in_dim;
        for _ in 0..cfg.attention.n_layers {
            let h = cfg.attention.hidden_dim;
            flops += 2.0 * 2.0 * (n * d_in * h) as f64; // theta and theta_a
            flops += 2.0 * (e * 2 * h) as f64; // logits
            flops += 2.0 * (e * h) as f64; // alpha-weighted aggregate
            d_in = h;
        }
        flops
    };
    let rep = cfg.rep_dim();
    let hh = cfg.head_hidden;
    let head = 2.0 * (2 * rep * hh + 2 * hh * hh + hh) as f64;
    let nq = pq.x_q.rows();
    let mut flops = gin(nq, pq.q_edges.len());
    for sub in &pq.subs {
        let ns = sub.x.rows();
        flops += gin(ns, sub.edges.len());
        if cfg.uses_inter() {
            flops += attention(nq + ns, sub.gb.len());
        }
        flops += ((nq + ns) * rep) as f64; // sum pooling
        flops += head;
    }
    flops
}

/// An offline workload instance: one cold set-up of graph, model, context.
pub struct Offline {
    g: Graph,
    model: NeurSc,
    ctx: GraphContext,
    pool: Pool,
    /// Weight snapshot and buffer arena of the traced chain's forward.
    chain_weights: Option<InferWeights>,
    chain_arena: Option<Arena>,
    /// Exact per-op counts gathered by the probes (last traced pass).
    counts: Vec<OpCounts>,
}

#[derive(Debug, Clone, Copy, Default)]
struct OpCounts {
    candidates: usize,
    kept: usize,
    substructures: usize,
    sub_vertices: usize,
    flops: f64,
}

impl Offline {
    /// The explicit chain of public layer calls that `estimate_detailed_with`
    /// makes for a connected query, each under a span, followed by the
    /// per-layer probes of the same query. Returns the chain's estimate.
    fn traced_op(&mut self, i: usize, tr: &mut Tracer) -> (f64, u64) {
        let q = &self.pool.queries[i];
        let g = &self.g;
        let cfg = &self.model.config;
        let ctx = &self.ctx;
        let west = &self.model.west;
        let weights = self
            .chain_weights
            .get_or_insert_with(|| InferWeights::from_store(&self.model.store, QuantMode::F32));
        let mut ictx = InferCtx::new(weights, self.chain_arena.take().unwrap_or_default());

        let t0 = Instant::now();
        let (pq, zs, count) = tr.span("op", |tr| {
            let pq = tr
                .span("core.prepare", |_| prepare_query_with(q, g, cfg, 0, ctx))
                .expect("pool queries prepare");
            let zs: Vec<f32> = tr.span("core.forward", |tr| {
                if pq.trivially_zero || pq.subs.is_empty() {
                    return Vec::new();
                }
                let hq = tr.span("gnn.query_intra", |_| {
                    west.infer_query_intra(&mut ictx, &pq.x_q, &pq.q_edges)
                });
                pq.subs
                    .iter()
                    .map(|sub| {
                        tr.span("gnn.pair", |_| {
                            west.forward_pair_infer(
                                &mut ictx, &pq.x_q, &hq, &sub.x, &sub.edges, &sub.gb,
                            )
                        })
                    })
                    .collect()
            });
            // An empty sum is -0.0; the estimator reports +0.0 there.
            let count: f64 = if zs.is_empty() {
                0.0
            } else {
                zs.iter().map(|&z| (z as f64).exp()).sum()
            };
            (pq, zs, count)
        });
        let chain_ns = t0.elapsed().as_nanos() as u64;

        // Probes: the same query through each layer's public entry point
        // on its own, so every layer gets a directly measured time.
        let r = cfg.filter.profile_radius;
        let counts = tr.span("probe", |tr| {
            let (profiles, _) = tr.span("match.profile_lookup", |_| ctx.profiles_for(g, r));
            let mut cs = tr.span("match.local_prune", |_| {
                local_pruning_with(q, g, r, &profiles)
            });
            let candidates = cs.total_size();
            tr.span("match.refine", |_| {
                if !cs.any_empty() {
                    global_refinement(q, g, &mut cs, cfg.filter.refinement_rounds);
                }
            });
            let kept = cs.total_size();
            let ex = tr.span("core.extract_substructures", |_| {
                extract_substructures_with(q, g, cfg, ctx)
            });
            assert!(
                cs == ex.candidates,
                "op {i}: probe candidates differ from extraction's"
            );
            if !ex.trivially_zero {
                tr.span("graph.induced", |_| {
                    let sub = induced_subgraph(g, &cs.union());
                    connected_components(&sub.graph).len()
                });
            }
            let features = tr.span("gnn.init_features", |_| {
                let mut f = vec![init_features(q, &cfg.features)];
                f.extend(
                    ex.substructures
                        .iter()
                        .map(|s| init_features(&s.graph, &cfg.features)),
                );
                f
            });
            tr.span("gnn.edge_lists", |_| {
                let mut e = vec![EdgeList::from_graph(q)];
                e.extend(
                    ex.substructures
                        .iter()
                        .map(|s| EdgeList::from_graph(&s.graph)),
                );
                e
            });
            assert_eq!(
                features.len(),
                pq.subs.len() + 1,
                "op {i}: substructure count"
            );
            assert!(
                features[1..]
                    .iter()
                    .zip(&pq.subs)
                    .all(|(f, s)| f.data() == s.x.data()),
                "op {i}: probe features differ from the prepared query's"
            );

            // The pair forward taken apart with the layers' own kernels;
            // its log-counts must equal `forward_pair_infer`'s bit for bit.
            if !zs.is_empty() {
                let hq = tr.span("gnn.intra", |_| {
                    west.gin.infer_forward(&mut ictx, &pq.x_q, &pq.q_edges)
                });
                let inter = west
                    .inter
                    .as_ref()
                    .expect("the benchmark models are Variant::Full");
                let nq = pq.x_q.rows();
                for (sub, &z_chain) in pq.subs.iter().zip(&zs) {
                    let ns = sub.x.rows();
                    let hs = tr.span("gnn.intra", |_| {
                        west.gin.infer_forward(&mut ictx, &sub.x, &sub.edges)
                    });
                    let (h_q, h_sub) = tr.span("gnn.inter", |_| {
                        let x_all = ictx.concat_rows(&pq.x_q, &sub.x);
                        let h_all = inter.infer_forward(&mut ictx, &x_all, &sub.gb);
                        let hq_inter = ictx.slice_rows(&h_all, 0, nq);
                        let hs_inter = ictx.slice_rows(&h_all, nq, nq + ns);
                        (
                            ictx.concat_cols(&hq, &hq_inter),
                            ictx.concat_cols(&hs, &hs_inter),
                        )
                    });
                    let z = tr.span("gnn.readout", |_| {
                        let mut rq = ictx.sum_rows(&h_q);
                        rq.data_mut()
                            .iter_mut()
                            .for_each(|v| *v = log1p_signed_scalar(*v));
                        let mut rs = ictx.sum_rows(&h_sub);
                        rs.data_mut()
                            .iter_mut()
                            .for_each(|v| *v = log1p_signed_scalar(*v));
                        let hp = ictx.concat_cols(&rq, &rs);
                        clamp_max_scalar(
                            west.head.infer_forward(&mut ictx, &hp).item(),
                            LOG_COUNT_CAP,
                        )
                    });
                    assert_eq!(
                        z.to_bits(),
                        z_chain.to_bits(),
                        "op {i}: the decomposed forward differs from forward_pair_infer"
                    );
                }
            }
            OpCounts {
                candidates,
                kept,
                substructures: ex.substructures.len(),
                sub_vertices: ex.total_substructure_vertices(),
                flops: forward_flops(cfg, &pq),
            }
        });
        self.counts[i] = counts;
        self.chain_arena = Some(ictx.into_arena());
        (count, chain_ns)
    }
}

impl Workload for Offline {
    fn set_up(fixture: &Path) -> Self {
        let g = load_graph(&fixture.join("data.graph")).expect("load the data graph");
        let model = load_model(&fixture.join("model.txt")).expect("load the model");
        let ctx = GraphContext::new();
        let pool = load_pool(fixture);
        // The first answer a user gets: profile build, weight snapshot, op 0.
        let first = model
            .estimate_detailed_with(&pool.queries[0], &g, &ctx)
            .expect("first op");
        assert_eq!(
            first.count.to_bits(),
            pool.reference[0],
            "first op differs from the reference"
        );
        let n = pool.queries.len();
        Offline {
            g,
            model,
            ctx,
            pool,
            chain_weights: None,
            chain_arena: None,
            counts: vec![OpCounts::default(); n],
        }
    }

    fn n_ops(&self) -> usize {
        self.pool.queries.len()
    }

    fn reference(&self) -> &[u64] {
        &self.pool.reference
    }

    fn pass(&mut self, order: &[usize], _pass_no: u64) -> PassSample {
        let mut s = PassSample::new(self.n_ops());
        for &i in order {
            let r = s.time_op(i, || {
                self.model
                    .estimate_detailed_with(&self.pool.queries[i], &self.g, &self.ctx)
            });
            match r {
                Ok(d) if d == self.pool.details[i] => s.out[i] = d.count.to_bits(),
                Ok(d) => {
                    s.out[i] = d.count.to_bits();
                    s.errors += 1;
                }
                Err(_) => s.errors += 1,
            }
        }
        s.close_serial()
    }

    fn traced_pass(&mut self, order: &[usize], _pass_no: u64, tracer: &mut Tracer) -> PassSample {
        let mut s = PassSample::new(self.n_ops());
        for &i in order {
            tracer.set_op(i as u32);
            let (count, chain_ns) = self.traced_op(i, tracer);
            s.op_ns[i] = chain_ns;
            s.out[i] = count.to_bits();
            s.attempted += 1;
        }
        s
    }

    fn qerr_p50(&mut self, order: &[usize], last: &PassSample) -> (f64, usize) {
        median_q_error(order, &last.out, &self.pool.truth)
    }

    fn layer_metrics(
        &mut self,
        opts: &RunOpts,
        tracer: &Tracer,
        n_traced: usize,
        e2e: &EndToEndStats,
    ) -> Vec<LayerValue> {
        let n = e2e.op_ms.len();
        let per_op = |name: &str| span_ms_per_op(tracer, name, n_traced, self.n_ops(), n);
        let op = per_op("op");
        let prepare = per_op("core.prepare");
        let forward = per_op("core.forward");
        let lookup = per_op("match.profile_lookup");
        let prune = per_op("match.local_prune");
        let refine = per_op("match.refine");
        let extract_all = per_op("core.extract_substructures");
        let induced = per_op("graph.induced");
        let init = per_op("gnn.init_features");
        let edge_lists = per_op("gnn.edge_lists");
        let query_intra = per_op("gnn.query_intra");
        let intra = per_op("gnn.intra");
        let inter = per_op("gnn.inter");
        let readout = per_op("gnn.readout");
        // `extract_substructures_with` = lookup + prune + refine + the
        // extraction tail; `prepare_query_with` = that + featurization.
        let extract = (extract_all - lookup - prune - refine).max(0.0);
        let featurize = (prepare - extract_all).max(0.0);
        // Directly timed leaf calls over the chain's op span.
        let covered = lookup
            + prune
            + refine
            + induced
            + init
            + edge_lists
            + query_intra
            + per_op("gnn.pair");
        let coverage = covered / op;

        // Ops the run did not issue count nothing.
        let counts = &self.counts;
        let mean_of = |f: &dyn Fn(&OpCounts) -> f64| counts.iter().map(f).sum::<f64>() / n as f64;
        let candidates = mean_of(&|c| c.candidates as f64);
        let kept = mean_of(&|c| c.kept as f64);
        let mflop = mean_of(&|c| c.flops) / 1e6;

        let matching = (lookup + prune + refine) / op;
        let gnn = (init + intra + inter + readout) / op;
        println!(
            "character: match {:.1}% refine {:.1}% featurize+forward {:.1}% gnn {:.1}% coverage {:.1}%",
            matching * 100.0,
            refine / op * 100.0,
            (featurize + forward) / op * 100.0,
            gnn * 100.0,
            coverage * 100.0
        );
        // Why each workload exists; a change that breaks one of these has
        // changed what the workload measures.
        match opts.workload.as_str() {
            "offline_refine_human" => {
                assert!(matching >= 0.60, "match.* is only {matching:.2} of an op");
                assert!(gnn <= 0.10, "gnn.* is {gnn:.2} of an op");
            }
            "offline_gnn_youtube" => {
                let share = (featurize + forward) / op;
                assert!(
                    share >= 0.50,
                    "featurize+forward is only {share:.2} of an op"
                );
                assert!(refine / op <= 0.25, "refine is {:.2} of an op", refine / op);
            }
            _ => {}
        }
        assert!(
            coverage >= 0.90,
            "directly timed layer calls cover only {coverage:.2} of an op"
        );

        let mut values = cold_start_probes(&opts.fixture, &self.g, &self.model);
        values.extend([
            ("graph.induced_ms_per_op", induced, n),
            ("match.profile_lookup_ms_per_op", lookup, n),
            ("match.local_prune_ms_per_op", prune, n),
            ("match.refine_ms_per_op", refine, n),
            ("match.candidates_per_op", candidates, n),
            ("match.refine_keep_ratio", kept / candidates, n),
            ("core.extract_ms_per_op", extract, n),
            ("core.featurize_ms_per_op", featurize, n),
            ("core.forward_ms_per_op", forward, n),
            (
                "core.substructures_per_op",
                mean_of(&|c| c.substructures as f64),
                n,
            ),
            (
                "core.sub_vertices_per_op",
                mean_of(&|c| c.sub_vertices as f64),
                n,
            ),
            ("core.stage_coverage", coverage, n),
            ("gnn.init_features_ms_per_op", init, n),
            ("gnn.intra_ms_per_op", intra, n),
            ("gnn.inter_ms_per_op", inter, n),
            ("gnn.readout_ms_per_op", readout, n),
            ("nn.forward_mflop_per_op", mflop, n),
            ("nn.forward_gflops", mflop / forward, n),
        ]);
        values
    }

    fn shut_down(self) {}
}
