//! Fault-injection acceptance suite for the fault-isolated pipeline.
//!
//! The contract under test (DESIGN.md, "Failure semantics"): poisoning k
//! items of an n-item batch yields exactly n − k `Ok` estimates that are
//! **bit-identical** to a clean sequential run, plus k typed errors — at
//! any thread count. Corrupt model files fail loading with a typed
//! corruption error before any weight is copied, and divergent training
//! rolls back to the best finite checkpoint.

use neursc::core::persist::{load_model, save_model};
use neursc::core::{Estimator, FaultPlan, GraphContext, NeurSc, NeurScConfig, NeurScError};
use neursc::prelude::*;
use rand::SeedableRng;

/// Data graph + 32 well-formed queries, deterministic in `seed`.
fn workload(seed: u64) -> (Graph, Vec<Graph>) {
    let g = neursc::graph::generate::erdos_renyi(150, 450, 4, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let queries = (0..32)
        .map(|_| sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap())
        .collect();
    (g, queries)
}

fn small_config(threads: usize) -> NeurScConfig {
    let mut cfg = NeurScConfig::small();
    cfg.threads = threads;
    // A size cap the oversized poison query will violate.
    cfg.budget.max_query_vertices = Some(16);
    cfg
}

/// A connected 20-vertex path — over the 16-vertex cap above.
fn oversized_query() -> Graph {
    let labels = vec![0; 20];
    let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
    Graph::from_edges(20, &labels, &edges).unwrap()
}

const PANIC_ITEM: usize = 3;
const STARVED_ITEM: usize = 11;
const EMPTY_ITEM: usize = 17;
const OVERSIZED_ITEM: usize = 26;

#[test]
fn poisoned_batch_is_contained_and_bit_identical_at_any_thread_count() {
    let (g, clean) = workload(7);

    // Clean sequential baseline: per-query estimates at threads = 1 with no
    // faults. These are the bits every batched run must reproduce.
    let baseline_model = NeurSc::new(small_config(1), 42);
    let ctx = GraphContext::new();
    let baseline: Vec<u64> = clean
        .iter()
        .map(|q| baseline_model.estimate_with(q, &g, &ctx).unwrap().to_bits())
        .collect();

    // Poison 4 of the 32 items: a worker panic, a starved filtering budget,
    // a 0-vertex query, and a query over the size cap.
    let mut batch = clean.clone();
    batch[EMPTY_ITEM] = Graph::from_edges(0, &[], &[]).unwrap();
    batch[OVERSIZED_ITEM] = oversized_query();
    let poisons = [PANIC_ITEM, STARVED_ITEM, EMPTY_ITEM, OVERSIZED_ITEM];

    for threads in [1, 2, 4] {
        let model = NeurSc::new(small_config(threads), 42);
        let ctx = GraphContext::with_faults(
            FaultPlan::new()
                .panic_on(PANIC_ITEM)
                .starve_budget_on(STARVED_ITEM),
        );
        let details = model.estimate_batch(&batch, &g, &ctx);
        assert_eq!(details.len(), 32);

        let ok = details.iter().filter(|d| d.is_ok()).count();
        assert_eq!(ok, 28, "threads={threads}: expected 28 surviving items");

        for (i, d) in details.iter().enumerate() {
            match d {
                Ok(d) if !poisons.contains(&i) => {
                    assert_eq!(
                        d.count.to_bits(),
                        baseline[i],
                        "threads={threads}: item {i} not bit-identical to the \
                         clean sequential baseline"
                    );
                }
                Ok(_) => panic!("threads={threads}: poisoned item {i} returned Ok"),
                Err(e) => {
                    assert!(
                        poisons.contains(&i),
                        "threads={threads}: clean item {i} failed: {e}"
                    );
                }
            }
        }

        // Each poison produces its specific typed error.
        assert!(
            matches!(
                &details[PANIC_ITEM],
                Err(NeurScError::Panicked { item, message })
                    if *item == PANIC_ITEM && message.contains("injected fault")
            ),
            "got {:?}",
            details[PANIC_ITEM]
        );
        assert!(matches!(
            &details[STARVED_ITEM],
            Err(NeurScError::Budget { .. })
        ));
        assert!(matches!(
            &details[EMPTY_ITEM],
            Err(NeurScError::InvalidQuery { .. })
        ));
        assert!(matches!(
            &details[OVERSIZED_ITEM],
            Err(NeurScError::Budget { .. })
        ));
    }
}

#[test]
fn prepare_batch_contains_faults_the_same_way() {
    let (g, clean) = workload(13);
    let labeled: Vec<(Graph, u64)> = clean.into_iter().take(8).map(|q| (q, 5)).collect();
    let model = NeurSc::new(small_config(2), 1);
    let ctx = GraphContext::with_faults(FaultPlan::new().panic_on(2).starve_budget_on(5));
    let prepared = model.prepare_batch(&g, &labeled, &ctx);
    assert_eq!(prepared.len(), 8);
    for (i, p) in prepared.iter().enumerate() {
        match i {
            2 => assert!(matches!(p, Err(NeurScError::Panicked { item: 2, .. }))),
            5 => assert!(matches!(p, Err(NeurScError::Budget { .. }))),
            _ => assert!(p.is_ok(), "item {i} should survive"),
        }
    }
}

#[test]
fn fit_counts_unusable_training_queries_instead_of_aborting() {
    let (g, clean) = workload(21);
    let mut labeled: Vec<(Graph, u64)> = clean.into_iter().take(8).map(|q| (q, 5)).collect();
    labeled[4] = (Graph::from_edges(0, &[], &[]).unwrap(), 0); // poisoned
    let mut cfg = small_config(1);
    cfg.pretrain_epochs = 2;
    cfg.adversarial_epochs = 1;
    let mut model = NeurSc::new(cfg, 3);
    let report = model.fit(&g, &labeled).unwrap();
    assert_eq!(report.failed_queries, 1);
    assert!(report.diverged_at.is_none());
}

#[test]
fn truncated_model_file_fails_with_typed_corruption_error() {
    let dir = std::env::temp_dir().join("neursc_fault_truncate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.txt");

    let model = NeurSc::new(NeurScConfig::small(), 9);
    save_model(&model, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 37]).unwrap();

    let err = load_model(&path).err().unwrap();
    assert!(err.is_corruption(), "got {err}");
    assert!(err.to_string().contains("model.txt"), "got {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_model_file_fails_with_typed_corruption_error() {
    let dir = std::env::temp_dir().join("neursc_fault_bitflip");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.txt");

    let model = NeurSc::new(NeurScConfig::small(), 9);
    save_model(&model, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() - 200;
    bytes[mid] ^= 0x10; // single bit flip deep in the weights
    std::fs::write(&path, &bytes).unwrap();

    let err = load_model(&path).err().unwrap();
    assert!(err.is_corruption(), "got {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn divergent_training_rolls_back_to_a_finite_model() {
    let (g, clean) = workload(31);
    let labeled: Vec<(Graph, u64)> = clean.iter().take(6).map(|q| (q.clone(), 5)).collect();
    let mut cfg = small_config(1);
    cfg.pretrain_epochs = 6;
    cfg.adversarial_epochs = 0;
    cfg.lr_est = 1e30; // guarantees the first step blows the weights up
    cfg.grad_clip = None; // isolate the rollback path from clipping
    let mut model = NeurSc::new(cfg, 5);
    let report = model.fit(&g, &labeled).unwrap();
    assert!(report.diverged_at.is_some(), "training should diverge");
    assert!(report.rolled_back);
    // The rolled-back model still produces finite estimates.
    let est = model.estimate(&clean[0], &g).unwrap();
    assert!(
        est.is_finite() && est >= 0.0,
        "estimate {est} after rollback"
    );
}

#[test]
fn fail_on_divergence_turns_rollback_into_a_typed_error() {
    let (g, clean) = workload(31);
    let labeled: Vec<(Graph, u64)> = clean.iter().take(6).map(|q| (q.clone(), 5)).collect();
    let mut cfg = small_config(1);
    cfg.pretrain_epochs = 6;
    cfg.adversarial_epochs = 0;
    cfg.lr_est = 1e30;
    cfg.grad_clip = None;
    cfg.fail_on_divergence = true;
    let mut model = NeurSc::new(cfg, 5);
    let err = model.fit(&g, &labeled).err().unwrap();
    assert!(matches!(err, NeurScError::Divergence { .. }), "got {err}");
}

#[test]
fn tiny_filter_step_budget_is_a_typed_budget_error() {
    let (g, clean) = workload(41);
    let mut cfg = small_config(1);
    cfg.budget.max_filter_steps = Some(1);
    let model = NeurSc::new(cfg, 2);
    let err = model.estimate(&clean[0], &g).err().unwrap();
    assert!(matches!(err, NeurScError::Budget { .. }), "got {err}");
}
