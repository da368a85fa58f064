//! Criterion micro-benchmarks for the pipeline stages: filtering,
//! extraction, exact counting, feature initialization, GNN forward passes
//! and the raw tensor kernels. These measure the components the paper's
//! time complexity analysis (§5.7) reasons about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neursc_core::config::NeurScConfig;
use neursc_core::extraction::extract_substructures_with;
use neursc_core::train::prepare_query_with;
use neursc_core::{GraphContext, NeurSc};
use neursc_gnn::{init_features, EdgeList, FeatureConfig, GinConfig, GinStack};
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use neursc_match::{count_embeddings, filter_candidates, FilterConfig};
use neursc_nn::{ParamStore, Tape, Tensor};
use neursc_workloads::datasets::{dataset, DatasetId};
use rand::SeedableRng;

fn yeast_with_queries(size: usize, n: usize) -> (Graph, Vec<Graph>) {
    let g = dataset(DatasetId::Yeast);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let queries = (0..n)
        .map(|_| sample_query(&g, &QuerySampler::induced(size), &mut rng).unwrap())
        .collect();
    (g, queries)
}

fn bench_filtering(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_filtering");
    for size in [4usize, 8, 16] {
        let (g, queries) = yeast_with_queries(size, 4);
        group.bench_with_input(BenchmarkId::new("yeast", size), &size, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                filter_candidates(q, &g, &FilterConfig::default())
            });
        });
    }
    group.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let (g, queries) = yeast_with_queries(8, 4);
    let cfg = NeurScConfig::small();
    c.bench_function("substructure_extraction/yeast_q8", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            extract_substructures_with(q, &g, &cfg, &GraphContext::new())
        });
    });
}

fn bench_exact_counting(c: &mut Criterion) {
    let (g, queries) = yeast_with_queries(4, 4);
    c.bench_function("exact_counting/yeast_q4", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            count_embeddings(q, &g, 1_000_000_000)
        });
    });
}

fn bench_features_and_gin(c: &mut Criterion) {
    let g = dataset(DatasetId::Yeast);
    let fcfg = FeatureConfig::default();
    c.bench_function("feature_init/yeast_full", |b| {
        b.iter(|| init_features(&g, &fcfg));
    });

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let gin = GinStack::new(
        &mut store,
        GinConfig {
            in_dim: fcfg.dim(),
            hidden_dim: 64,
            n_layers: 2,
        },
        &mut rng,
    );
    let x = init_features(&g, &fcfg);
    let edges = EdgeList::from_graph(&g);
    c.bench_function("gin_forward/yeast_full_d64", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let h = gin.forward(&mut tape, &store, xv, &edges);
            tape.value(h).sum_all()
        });
    });
}

fn bench_west_estimate(c: &mut Criterion) {
    let (g, queries) = yeast_with_queries(8, 4);
    let model = NeurSc::new(NeurScConfig::small(), 1);
    let ctx = GraphContext::new();
    let prepared: Vec<_> = queries
        .iter()
        .map(|q| prepare_query_with(q, &g, &model.config, 0, &ctx).unwrap())
        .collect();
    c.bench_function("west_estimate/yeast_q8", |b| {
        let mut i = 0;
        b.iter(|| {
            let pq = &prepared[i % prepared.len()];
            i += 1;
            model.estimate_prepared(pq)
        });
    });
}

fn bench_tensor_kernels(c: &mut Criterion) {
    let a = Tensor::from_vec(256, 256, (0..256 * 256).map(|i| (i % 17) as f32).collect());
    let b_t = Tensor::from_vec(256, 256, (0..256 * 256).map(|i| (i % 23) as f32).collect());
    c.bench_function("tensor_matmul/256x256", |bch| {
        bch.iter(|| a.matmul(&b_t));
    });

    c.bench_function("autograd_mlp_roundtrip/128", |bch| {
        use neursc_nn::layers::{Activation, Mlp};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            &[128, 128, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let x = Tensor::ones(64, 128);
        bch.iter(|| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = mlp.forward(&mut tape, &store, xv);
            let loss = tape.sum(y);
            tape.backward(loss, &mut store);
            store.zero_grads();
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_filtering, bench_extraction, bench_exact_counting,
              bench_features_and_gin, bench_west_estimate, bench_tensor_kernels
}
criterion_main!(benches);
