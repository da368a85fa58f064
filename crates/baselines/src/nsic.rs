//! NSIC — Neural Subgraph Isomorphism Counting (Liu, Pan, He, Song, Jiang
//! & Shang, KDD 2020).
//!
//! NSIC encodes the query *and the whole data graph* with graph encoders
//! and predicts the count with a DIAMNet-style dynamic-memory interaction
//! network. Faithful properties reproduced here:
//!
//! * the data graph is encoded in full on every estimate — which is why
//!   NSIC only scales to small data graphs (the paper runs it on Yeast
//!   only, with a 5-minute timeout elsewhere; we expose a vertex budget
//!   that returns `None` on larger graphs);
//! * two encoder choices: GIN (`NSIC-I`, from RGIN) and a mean-aggregation
//!   convolutional encoder (`NSIC-C`, from RGCN);
//! * a memory of `s` slots initialized by chunked pooling of the data
//!   representations, refined by attention against the query
//!   representation (DIAMNet's dynamic intermedium attention memory);
//! * `NSIC w/ SE` (Fig. 11): the same model reading NeurSC's extracted
//!   substructures instead of the whole data graph.

use crate::CountEstimator;
use neursc_core::config::NeurScConfig;
use neursc_core::extraction::extract_substructures_with;
use neursc_core::GraphContext;
use neursc_gnn::{init_features, row_softmax, EdgeList, FeatureConfig, GinConfig, GinStack};
use neursc_graph::Graph;
use neursc_nn::init::xavier_uniform;
use neursc_nn::layers::{Activation, Linear, Mlp};
use neursc_nn::optim::Adam;
use neursc_nn::{ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Graph encoder family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NsicEncoder {
    /// GIN encoder (`NSIC-I`).
    Gin,
    /// Mean-aggregation convolutional encoder (`NSIC-C`).
    MeanConv,
}

/// NSIC hyperparameters.
#[derive(Debug, Clone)]
pub struct NsicConfig {
    /// Encoder family.
    pub encoder: NsicEncoder,
    /// Feature encoder.
    pub features: FeatureConfig,
    /// Hidden width.
    pub hidden: usize,
    /// Encoder layers.
    pub layers: usize,
    /// DIAMNet memory slots.
    pub memory_slots: usize,
    /// DIAMNet refinement rounds.
    pub memory_rounds: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Data graphs larger than this (vertices) are refused (`None` — the
    /// paper's 5-minute timeout on all graphs but Yeast).
    pub max_data_vertices: usize,
    /// Use NeurSC's substructure extraction instead of the full data graph
    /// (`NSIC w/ SE`, Fig. 11).
    pub with_extraction: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NsicConfig {
    fn default() -> Self {
        NsicConfig {
            encoder: NsicEncoder::Gin,
            features: FeatureConfig {
                degree_bits: 8,
                label_bits: 8,
                k_hops: 1,
            },
            hidden: 32,
            layers: 2,
            memory_slots: 4,
            memory_rounds: 2,
            epochs: 20,
            batch_size: 4,
            lr: 1e-3,
            max_data_vertices: 20_000,
            with_extraction: false,
            seed: 0x51c,
        }
    }
}

/// Mean-aggregation convolutional stack (the RGCN-flavored encoder).
struct MeanConvStack {
    layers: Vec<Linear>,
}

impl MeanConvStack {
    fn new(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        n: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut layers = Vec::new();
        let mut d = in_dim;
        for _ in 0..n {
            layers.push(Linear::new(store, d, hidden, rng));
            d = hidden;
        }
        MeanConvStack { layers }
    }

    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        edges: &EdgeList,
        inv_deg: &Tensor,
    ) -> Var {
        let n = edges.n_vertices;
        let mut h = x;
        for layer in &self.layers {
            let agg = if edges.is_empty() {
                h
            } else {
                let msgs = tape.index_select(h, &edges.src);
                let summed = tape.segment_sum(msgs, &edges.dst, n);
                let meaned =
                    tape.mul_const(summed, expand_cols(inv_deg, tape.value(summed).cols()));
                tape.add(h, meaned)
            };
            let z = layer.forward(tape, store, agg);
            h = tape.relu(z);
        }
        h
    }

    fn params(&self) -> Vec<ParamId> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

fn expand_cols(col: &Tensor, cols: usize) -> Tensor {
    let mut out = Tensor::zeros(col.rows(), cols);
    for r in 0..col.rows() {
        let v = col.get(r, 0);
        for c in 0..cols {
            out.set(r, c, v);
        }
    }
    out
}

enum Encoder {
    Gin(GinStack),
    Mean(MeanConvStack),
}

/// The NSIC estimator.
pub struct Nsic {
    /// Configuration.
    pub config: NsicConfig,
    store: ParamStore,
    encoder: Encoder,
    /// Memory attention: key/value transforms + update gate.
    attn_k: ParamId,
    attn_v: ParamId,
    head: Mlp,
    /// Extraction settings for the `w/ SE` variant.
    extraction_cfg: NeurScConfig,
    fitted: bool,
}

impl Nsic {
    /// Builds an untrained NSIC model.
    pub fn new(config: NsicConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let in_dim = config.features.dim();
        let encoder = match config.encoder {
            NsicEncoder::Gin => Encoder::Gin(GinStack::new(
                &mut store,
                GinConfig {
                    in_dim,
                    hidden_dim: config.hidden,
                    n_layers: config.layers,
                },
                &mut rng,
            )),
            NsicEncoder::MeanConv => Encoder::Mean(MeanConvStack::new(
                &mut store,
                in_dim,
                config.hidden,
                config.layers,
                &mut rng,
            )),
        };
        let d = config.hidden;
        let attn_k = store.alloc(xavier_uniform(d, d, &mut rng));
        let attn_v = store.alloc(xavier_uniform(d, d, &mut rng));
        // Head reads [memory-pool ‖ query-pool ‖ data-pool].
        let head = Mlp::new(
            &mut store,
            &[3 * d, d, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let mut extraction_cfg = NeurScConfig::small();
        extraction_cfg.max_substructure_vertices = Some(2048);
        Nsic {
            config,
            store,
            encoder,
            attn_k,
            attn_v,
            head,
            extraction_cfg,
            fitted: false,
        }
    }

    /// The model's parameters, read-only (trained-weight digests).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    fn encode(&self, tape: &mut Tape, g: &Graph) -> Var {
        let x = tape.constant(init_features(g, &self.config.features));
        let edges = EdgeList::from_graph(g);
        match &self.encoder {
            Encoder::Gin(stack) => stack.forward(tape, &self.store, x, &edges),
            Encoder::Mean(stack) => {
                let mut inv = Tensor::zeros(g.n_vertices(), 1);
                for v in g.vertices() {
                    inv.set(v as usize, 0, 1.0 / g.degree(v).max(1) as f32);
                }
                stack.forward(tape, &self.store, x, &edges, &inv)
            }
        }
    }

    /// The data-graph side of one estimate: the full graph, or the
    /// extracted substructures for `w/ SE`.
    fn data_side(&self, q: &Graph, g: &Graph) -> Vec<Graph> {
        if self.config.with_extraction {
            let ex = extract_substructures_with(q, g, &self.extraction_cfg, &GraphContext::new());
            ex.substructures.into_iter().map(|s| s.graph).collect()
        } else {
            vec![g.clone()]
        }
    }

    /// Forward: encode query + data side, run DIAMNet-style memory
    /// interaction, regress the log count.
    fn forward(&self, tape: &mut Tape, q: &Graph, data: &Graph) -> Var {
        let hq = self.encode(tape, q); // [nq, d]
        let hg = self.encode(tape, data); // [ng, d]
        let d = self.config.hidden;

        // Memory init: chunked mean pooling of the data representations.
        let ng = data.n_vertices();
        let slots = self.config.memory_slots.min(ng.max(1));
        let seg: Vec<u32> = (0..ng).map(|i| ((i * slots) / ng.max(1)) as u32).collect();
        let mut mem = {
            let sums = tape.segment_sum(hg, &seg, slots);
            // Normalize by chunk sizes.
            let mut counts = Tensor::zeros(slots, 1);
            for &s in &seg {
                let c = counts.get(s as usize, 0);
                counts.set(s as usize, 0, c + 1.0);
            }
            let inv = counts.map(|c| if c > 0.0 { 1.0 / c } else { 0.0 });
            tape.mul_const(sums, expand_cols(&inv, d))
        };

        // Memory refinement: attention of memory slots over query vertices.
        let wk = tape.param(&self.store, self.attn_k);
        let wv = tape.param(&self.store, self.attn_v);
        for _ in 0..self.config.memory_rounds {
            let keys = tape.matmul(hq, wk); // [nq, d]
            let vals = tape.matmul(hq, wv); // [nq, d]
            let kt = tape.transpose(keys);
            let scores = tape.matmul(mem, kt); // [slots, nq]
            let scaled = tape.scale(scores, 1.0 / (d as f32).sqrt());
            let attn = row_softmax(tape, scaled);
            let read = tape.matmul(attn, vals); // [slots, d]
            let sum = tape.add(mem, read);
            mem = tape.scale(sum, 0.5);
        }

        let mem_pool = tape.mean_rows(mem);
        let q_pool = tape.sum_rows(hq);
        let g_pool = tape.mean_rows(hg);
        let qc = tape.concat_cols(mem_pool, q_pool);
        let all = tape.concat_cols(qc, g_pool);
        self.head.forward(tape, &self.store, all)
    }

    fn all_params(&self) -> Vec<ParamId> {
        let mut p = match &self.encoder {
            Encoder::Gin(s) => s.params(),
            Encoder::Mean(s) => s.params(),
        };
        p.extend([self.attn_k, self.attn_v]);
        p.extend(self.head.params());
        p
    }
}

impl CountEstimator for Nsic {
    /// The name reflects the encoder (paper: NSIC-I / NSIC-C).
    fn name(&self) -> &'static str {
        match (self.config.encoder, self.config.with_extraction) {
            (NsicEncoder::Gin, false) => "NSIC-I",
            (NsicEncoder::MeanConv, false) => "NSIC-C",
            (NsicEncoder::Gin, true) => "NSIC w/ SE",
            (NsicEncoder::MeanConv, true) => "NSIC-C w/ SE",
        }
    }

    fn fit(&mut self, g: &Graph, train: &[(Graph, u64)]) {
        if g.n_vertices() > self.config.max_data_vertices || train.is_empty() {
            return; // refuses large graphs, like the 5-minute timeout
        }
        let params = self.all_params();
        let mut opt = Adam::new(self.config.lr);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xf17);
        let mut order: Vec<usize> = (0..train.len()).collect();
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.config.batch_size.max(1)) {
                self.store.zero_grads();
                for &i in chunk {
                    let (q, c) = &train[i];
                    for data in self.data_side(q, g) {
                        if data.n_vertices() == 0 {
                            continue;
                        }
                        let mut tape = Tape::new();
                        let z = self.forward(&mut tape, q, &data);
                        let target = (*c as f32).max(1.0).ln();
                        let diff = tape.add_scalar(z, -target);
                        let loss = tape.abs(diff);
                        tape.backward(loss, &mut self.store);
                    }
                }
                opt.step_subset(&mut self.store, &params);
            }
        }
        self.fitted = true;
    }

    fn estimate(&mut self, q: &Graph, g: &Graph) -> Option<f64> {
        if g.n_vertices() > self.config.max_data_vertices {
            return None; // timeout, as in the paper on non-Yeast graphs
        }
        let datas = self.data_side(q, g);
        if datas.is_empty() {
            return Some(0.0);
        }
        let mut total = 0.0f64;
        for data in datas {
            if data.n_vertices() == 0 {
                continue;
            }
            let mut tape = Tape::new();
            let z = self.forward(&mut tape, q, &data);
            total += (tape.value(z).item().min(60.0) as f64).exp();
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::workload;

    fn quick(encoder: NsicEncoder) -> NsicConfig {
        NsicConfig {
            encoder,
            epochs: 6,
            hidden: 16,
            ..Default::default()
        }
    }

    #[test]
    fn names_match_paper_variants() {
        assert_eq!(Nsic::new(quick(NsicEncoder::Gin)).name(), "NSIC-I");
        assert_eq!(Nsic::new(quick(NsicEncoder::MeanConv)).name(), "NSIC-C");
        let mut c = quick(NsicEncoder::Gin);
        c.with_extraction = true;
        assert_eq!(Nsic::new(c).name(), "NSIC w/ SE");
    }

    #[test]
    fn refuses_oversized_data_graphs() {
        let (g, queries) = workload(22, 1, 4);
        let mut cfg = quick(NsicEncoder::Gin);
        cfg.max_data_vertices = 10; // tiny limit
        let mut nsic = Nsic::new(cfg);
        assert_eq!(nsic.estimate(&queries[0].0, &g), None);
    }

    #[test]
    fn both_encoders_estimate_finite_values() {
        let (g, queries) = workload(23, 2, 4);
        for enc in [NsicEncoder::Gin, NsicEncoder::MeanConv] {
            let mut nsic = Nsic::new(quick(enc));
            let e = nsic.estimate(&queries[0].0, &g).unwrap();
            assert!(e.is_finite() && e >= 0.0, "{enc:?}");
        }
    }

    #[test]
    fn training_runs_and_changes_estimates() {
        let (g, train) = workload(24, 6, 4);
        let mut nsic = Nsic::new(quick(NsicEncoder::Gin));
        let before = nsic.estimate(&train[0].0, &g).unwrap();
        nsic.fit(&g, &train);
        let after = nsic.estimate(&train[0].0, &g).unwrap();
        assert_ne!(before, after);
    }

    #[test]
    fn queries_are_nearly_indistinguishable_on_one_data_graph() {
        // The paper's key observation (Fig. 7a discussion): NSIC outputs
        // near-constant estimates across different queries because the
        // huge data-graph representation dominates. With an untrained
        // model the *relative* spread of outputs across queries is small
        // compared to the spread of true counts.
        let (g, queries) = workload(25, 4, 4);
        if queries.len() < 3 {
            return;
        }
        let mut nsic = Nsic::new(quick(NsicEncoder::Gin));
        let outs: Vec<f64> = queries
            .iter()
            .map(|(q, _)| nsic.estimate(q, &g).unwrap().max(1.0).ln())
            .collect();
        let spread = outs.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - outs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let truth_spread = {
            let t: Vec<f64> = queries
                .iter()
                .map(|(_, c)| (*c as f64).max(1.0).ln())
                .collect();
            t.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
                - t.iter().fold(f64::INFINITY, |a, &b| a.min(b))
        };
        // Only meaningful when true counts actually vary.
        if truth_spread > 1.0 {
            assert!(
                spread < truth_spread,
                "NSIC output spread {spread} vs truth spread {truth_spread}"
            );
        }
    }

    #[test]
    fn with_extraction_reads_substructures() {
        let (g, queries) = workload(26, 1, 4);
        let mut cfg = quick(NsicEncoder::Gin);
        cfg.with_extraction = true;
        let mut nsic = Nsic::new(cfg);
        let e = nsic.estimate(&queries[0].0, &g).unwrap();
        assert!(e.is_finite() && e >= 0.0);
    }
}
