//! End-to-end integration tests spanning all workspace crates: the full
//! Algorithm 1 pipeline (generate → filter → extract → train → estimate),
//! persistence round-trips, variant behavior, and agreement between the
//! neural estimator and exact counting on easy regimes.

use neursc::core::persist::{load_model, model_to_string, save_model};
use neursc::core::sampling::estimate_with_sample_rate;
use neursc::core::train::prepare_query_with;
use neursc::core::{DiscriminatorMetric, Estimator, NeurSc, NeurScConfig, Variant};
use neursc::graph::hash::fnv1a64;
use neursc::prelude::*;
use rand::SeedableRng;

fn small_world() -> (Graph, Vec<(Graph, u64)>) {
    let g = neursc::graph::generate::generate(
        &neursc::graph::generate::GraphSpec {
            n_vertices: 600,
            avg_degree: 8.0,
            n_labels: 6,
            label_zipf: 0.6,
            model: neursc::graph::generate::DegreeModel::Community {
                community_size: 20,
                intra_fraction: 0.8,
            },
        },
        17,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut labeled = Vec::new();
    while labeled.len() < 30 {
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
        if let Some(c) = count_embeddings(&q, &g, 200_000_000).exact() {
            labeled.push((q, c));
        }
    }
    (g, labeled)
}

fn fast_config() -> NeurScConfig {
    let mut c = NeurScConfig::small();
    c.pretrain_epochs = 10;
    c.adversarial_epochs = 3;
    c.batch_size = 8;
    c
}

#[test]
fn full_pipeline_trains_and_beats_constant_baseline() {
    let (g, labeled) = small_world();
    let (train, test) = labeled.split_at(24);
    let mut model = NeurSc::new(fast_config(), 2);
    let report = model.fit(&g, train).unwrap();
    assert!(report.final_loss.is_finite());

    let model_err: f64 = test
        .iter()
        .map(|(q, c)| neursc::core::q_error(model.estimate(q, &g).unwrap(), *c as f64))
        .sum::<f64>()
        / test.len() as f64;
    let const_err: f64 = test
        .iter()
        .map(|(_, c)| neursc::core::q_error(1.0, *c as f64))
        .sum::<f64>()
        / test.len() as f64;
    assert!(
        model_err < const_err,
        "trained NeurSC ({model_err:.2}) should beat the constant-1 estimator ({const_err:.2})"
    );
}

#[test]
fn persistence_roundtrip_preserves_trained_estimates() {
    let (g, labeled) = small_world();
    let mut model = NeurSc::new(fast_config(), 3);
    model.fit(&g, &labeled[..20]).unwrap();

    let dir = std::env::temp_dir().join("neursc_integration_persist");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trained.model");
    save_model(&model, &path).unwrap();
    let restored = load_model(&path).unwrap();
    for (q, _) in &labeled[20..25] {
        assert_eq!(
            model.estimate(q, &g).unwrap(),
            restored.estimate(q, &g).unwrap()
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The model file format, byte for byte: a fresh model's file hashes to the
/// value it hashed to when the format was last changed on purpose. Served
/// snapshots and the benchmark's fixtures are keyed on `model_checksum`,
/// so a drifted line (a renamed key, a reordered one, a dropped vestigial
/// one) must fail here and not as a fixture that no longer loads.
#[test]
fn model_file_bytes_are_pinned() {
    for (name, cfg, pinned) in [
        ("small", NeurScConfig::small(), 0xee63_8dfe_b1fb_579a_u64),
        (
            "default",
            NeurScConfig::default(),
            0xc343_da95_b5c0_f0f9_u64,
        ),
    ] {
        let bytes = fnv1a64(model_to_string(&NeurSc::new(cfg, 1)).as_bytes());
        assert_eq!(bytes, pinned, "{name}: model file hashes to {bytes:#018x}");
    }
}

#[test]
fn extraction_estimates_zero_for_impossible_queries() {
    let (g, _) = small_world();
    // Label 99 does not exist in the data graph.
    let q = Graph::from_edges(3, &[0, 99, 0], &[(0, 1), (1, 2)]).unwrap();
    let model = NeurSc::new(fast_config(), 4);
    let d = model.estimate_detailed(&q, &g).unwrap();
    assert_eq!(d.count, 0.0);
    assert!(d.trivially_zero);
    // The exact counter agrees.
    assert_eq!(count_embeddings(&q, &g, 1_000_000).exact(), Some(0));
}

#[test]
fn all_variants_and_metrics_run_end_to_end() {
    let (g, labeled) = small_world();
    let train = &labeled[..12];
    for variant in [Variant::Full, Variant::DualOnly, Variant::IntraOnly] {
        for metric in [
            DiscriminatorMetric::Wasserstein,
            DiscriminatorMetric::Euclidean,
            DiscriminatorMetric::KullbackLeibler,
            DiscriminatorMetric::JensenShannon,
        ] {
            let mut cfg = fast_config().with_variant(variant).with_metric(metric);
            cfg.pretrain_epochs = 2;
            cfg.adversarial_epochs = 1;
            let mut model = NeurSc::new(cfg, 5);
            model.fit(&g, train).unwrap();
            let e = model.estimate(&train[0].0, &g).unwrap();
            assert!(
                e.is_finite() && e >= 0.0,
                "variant {variant:?} metric {metric:?} produced {e}"
            );
        }
    }
}

#[test]
fn sampled_estimation_is_consistent_with_full_estimation() {
    let (g, labeled) = small_world();
    let mut model = NeurSc::new(fast_config(), 6);
    model.fit(&g, &labeled[..16]).unwrap();
    let q = &labeled[16].0;
    let full = model.estimate(q, &g).unwrap();
    // r_s = 1.0 runs the same fused forward over every substructure, so it
    // must equal the plain estimate bit for bit.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let pq = prepare_query_with(q, &g, &model.config, 0, &GraphContext::new()).unwrap();
    let sampled = estimate_with_sample_rate(&model, &pq, 1.0, &mut rng);
    assert_eq!(full.to_bits(), sampled.to_bits(), "{full} vs {sampled}");
}

#[test]
fn candidate_filtering_is_complete_on_dataset_scale() {
    // Definition 2's safety property, checked against real embeddings found
    // by the exact matcher on a workload-scale graph.
    let (g, labeled) = small_world();
    for (q, c) in labeled.iter().take(5) {
        let cs = filter_candidates(q, &g, &FilterConfig::default());
        if *c > 0 {
            assert!(!cs.any_empty(), "query with {c} matches got an empty CS");
        }
    }
}

#[test]
fn neursc_trains_under_homomorphism_semantics() {
    // §2.2: the same model handles homomorphism counting — only the labels
    // change. Train on homomorphism counts and check the estimates track
    // the (larger) homomorphism scale rather than the isomorphism one.
    use neursc::workloads::ground_truth::{label_queries_with_semantics, Semantics};
    let (g, _) = small_world();
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let queries: Vec<Graph> = (0..20)
        .map(|_| sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap())
        .collect();
    let hom = label_queries_with_semantics(&g, &queries, 500_000_000, Semantics::Homomorphism);
    assert!(hom.len() >= 12);
    let (train, test) = hom.split_at(hom.len() - 4);
    let mut model = NeurSc::new(fast_config(), 12);
    model.fit(&g, train).unwrap();
    let mean_q: f64 = test
        .iter()
        .map(|(q, c)| neursc::core::q_error(model.estimate(q, &g).unwrap(), *c as f64))
        .sum::<f64>()
        / test.len() as f64;
    let const_q: f64 = test
        .iter()
        .map(|(_, c)| neursc::core::q_error(1.0, *c as f64))
        .sum::<f64>()
        / test.len() as f64;
    assert!(
        mean_q < const_q,
        "homomorphism-trained model ({mean_q:.1}) should beat constant-1 ({const_q:.1})"
    );
}
