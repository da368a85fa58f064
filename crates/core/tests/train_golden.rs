//! Golden training numerics: trained weights and epoch losses, pinned.
//!
//! The benchmark's training reference is rebuilt by every checkout, so it
//! compares a commit with itself; the determinism suites compare thread
//! counts within one build. This test is the only thing that compares
//! trained weights **across commits**: a fixed data graph, a fixed
//! two-query shard and `NeurScConfig::small()` with one pre-training and
//! one adversarial epoch — count loss, critic steps, the adversarial term,
//! gradient averaging + clipping and Adam all run — must reproduce the
//! checksum and the loss bits recorded below. A kernel or backward change
//! that claims bit-identity has to pass it unchanged; a change that means
//! to move the numerics re-pins it and says so.
//!
//! Everything runs in ONE test function of its own test binary: the kernel
//! thread settings are process-global (same rule as
//! `parallel_determinism.rs`).

use neursc_core::obs::{ObsSink, Recorder};
use neursc_core::persist::model_checksum;
use neursc_core::train::run_training_obs;
use neursc_core::{GraphContext, NeurSc, NeurScConfig, Parallelism};
use neursc_graph::induced::induced_subgraph;
use neursc_graph::Graph;
use neursc_match::count_embeddings;
use std::sync::Arc;

/// `model_checksum` after the two epochs (FNV-1a-64 of the model text).
const GOLDEN_CHECKSUM: u64 = 0xf098_91d8_8ecd_91e3;
/// `TrainReport::epoch_losses` as `f64` bit patterns.
const GOLDEN_EPOCH_LOSSES: [u64; 2] = [0x400c_4183_9000_0000, 0x4005_fbd4_9000_0000];

/// 48 vertices, 3 labels: a ring, a chord `v–v+2` on every fourth vertex
/// (triangles) and two longer chord families.
fn data_graph() -> Graph {
    let n = 48u32;
    let labels: Vec<u32> = (0..n).map(|v| (v * v + v / 5) % 3).collect();
    let mut edges = Vec::new();
    for v in 0..n {
        edges.push((v, (v + 1) % n));
        if v % 4 == 0 {
            edges.push((v, (v + 2) % n));
        }
        if v % 2 == 0 {
            edges.push((v, (v + 7) % n));
        }
        if v % 3 == 0 {
            edges.push((v, (v * 5 + 11) % n));
        }
    }
    edges.retain(|&(a, b)| a != b);
    Graph::from_edges(n as usize, &labels, &edges).unwrap()
}

/// The shard: two connected 4-vertex patterns cut out of the data graph
/// itself (so both occur), with their exact counts as training targets.
/// The triangle-with-a-tail extracts two substructures (4 and 9 vertices:
/// a multi-term count loss, short kernel row groups); the path extracts one
/// of 41 (ten full four-row groups and a single trailing row).
fn shard(g: &Graph) -> Vec<(Graph, u64)> {
    [[12u32, 13, 14, 19], [6, 7, 13, 14]]
        .iter()
        .map(|vs| {
            let q = induced_subgraph(g, vs).graph;
            let c = count_embeddings(&q, g, 10_000_000)
                .exact()
                .expect("tiny graph counts exactly");
            (q, c)
        })
        .collect()
}

/// Low enough that the averaged gradient is actually rescaled.
const GRAD_CLIP: f32 = 0.5;

fn config() -> NeurScConfig {
    let mut c = NeurScConfig::small();
    c.pretrain_epochs = 1;
    c.adversarial_epochs = 1;
    c.grad_clip = Some(GRAD_CLIP);
    c
}

#[test]
fn trained_weights_and_losses_match_the_golden_at_1_and_4_threads() {
    let g = data_graph();
    let labeled = shard(&g);
    for threads in [1, 4] {
        // min_parallel_rows = 1 sends every kernel with two or more output
        // rows through the row fan-out.
        Parallelism {
            threads,
            min_parallel_rows: 1,
        }
        .apply_to_kernels();
        let mut model = NeurSc::new(config(), 17);
        let prepared: Vec<_> = model
            .prepare_batch(&g, &labeled, &GraphContext::new())
            .into_iter()
            .map(|r| r.expect("golden queries prepare"))
            .collect();
        let subs: Vec<Vec<usize>> = prepared
            .iter()
            .map(|pq| pq.subs.iter().map(|s| s.x.rows()).collect())
            .collect();
        assert_eq!(subs, [vec![4, 9], vec![41]], "the shard changed shape");

        let rec = Arc::new(Recorder::new());
        let sink: Arc<dyn ObsSink> = rec.clone();
        let report = run_training_obs(&mut model, &prepared, &sink);
        assert_eq!(
            (report.pretrain_epochs, report.adversarial_epochs),
            (1, 1),
            "both phases ran"
        );
        // The run exercised what the header says it does.
        let metrics = rec.metrics().snapshot();
        assert_eq!(metrics.counter("train.critic_steps"), 3, "one per sub");
        assert!(
            metrics.gauges["train.grad_norm"] > f64::from(GRAD_CLIP),
            "the last step was not clipped"
        );

        let losses: Vec<u64> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(
            (
                format!("{:016x}", model_checksum(&model)),
                losses.as_slice()
            ),
            (
                format!("{GOLDEN_CHECKSUM:016x}"),
                GOLDEN_EPOCH_LOSSES.as_slice()
            ),
            "trained model moved at {threads} thread(s): losses {:?} = {losses:#x?}",
            report.epoch_losses
        );
    }
    Parallelism::default().apply_to_kernels();
}
