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
//! The base case is the default model on the shard as extraction prepares
//! it. The other cases each turn on one forward/backward path the base
//! case never executes (see [`CASES`]); the last one edits the prepared
//! shard by hand, because no query on this data graph prepares into a
//! `G_B` with a cut-off vertex or into an edgeless substructure.

use neursc_core::obs::{ObsSink, Recorder};
use neursc_core::persist::model_checksum;
use neursc_core::train::{forward_prepared, run_training, PreparedQuery, PreparedSub};
use neursc_core::{DiscriminatorMetric, GraphContext, NeurSc, NeurScConfig, Variant};
use neursc_gnn::{init_features, EdgeList};
use neursc_graph::induced::induced_subgraph;
use neursc_graph::Graph;
use neursc_match::count_embeddings;
use neursc_nn::Tape;
use std::sync::Arc;

/// One pinned training run.
struct Case {
    name: &'static str,
    /// Applied to the base [`config`].
    configure: fn(&mut NeurScConfig),
    /// Applied to the prepared shard.
    reshape: fn(&mut [PreparedQuery]),
    /// `model_checksum` after the two epochs (FNV-1a-64 of the model text).
    checksum: u64,
    /// `TrainReport::epoch_losses` as `f64` bit patterns.
    epoch_losses: [u64; 2],
}

const CASES: [Case; 6] = [
    // Dual GNNs + Wasserstein critic on the shard as prepared.
    Case {
        name: "full",
        configure: |_| {},
        reshape: |_| {},
        checksum: 0xf098_91d8_8ecd_91e3,
        epoch_losses: [0x400c_4183_9000_0000, 0x4005_fbd4_9000_0000],
    },
    // Self loops inside the attention softmax (Eq. 4 as written).
    Case {
        name: "self_term",
        configure: |c| c.attention.self_term = true,
        reshape: |_| {},
        checksum: 0xd690_d808_6f57_579c,
        epoch_losses: [0x400c_3ecc_1800_0000, 0x4005_fa34_8800_0000],
    },
    // No inter-graph network: H is the GIN output alone.
    Case {
        name: "intra_only",
        configure: |c| c.variant = Variant::IntraOnly,
        reshape: |_| {},
        checksum: 0xdb18_f3bc_934f_05ed,
        epoch_losses: [0x4000_78b3_c000_0000, 0x3ff8_951c_c800_0000],
    },
    // Dual GNNs without a critic: the adversarial epoch is count loss only.
    Case {
        name: "dual_only",
        configure: |c| c.variant = Variant::DualOnly,
        reshape: |_| {},
        checksum: 0x9c11_e279_eb9c_a45b,
        epoch_losses: [0x400c_4183_9000_0000, 0x4005_fbd4_9000_0000],
    },
    // The adversarial term built from `distances::metric_loss`, whose
    // gradient enters `H_q`/`H_sub` directly instead of through the critic.
    Case {
        name: "euclidean",
        configure: |c| c.metric = DiscriminatorMetric::Euclidean,
        reshape: |_| {},
        checksum: 0x3772_2195_ec61_bd3b,
        epoch_losses: [0x400c_4183_9000_0000, 0x4005_fbd4_9000_0000],
    },
    // Attention's no-incoming-edge fallback and its no-edges-at-all return,
    // and the GIN layer's zero aggregate.
    Case {
        name: "degenerate_edges",
        configure: |_| {},
        reshape: degenerate_edges,
        checksum: 0xff01_5175_3483_4535,
        epoch_losses: [0x4009_f629_a000_0000, 0x4004_0ac8_0c00_0000],
    },
];

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

/// Cuts the prepared shard into the shapes extraction never produces here.
/// The 41-vertex substructure loses every `G_B` edge *into* query vertex 1
/// and into its own vertices 3 and 17 (they still send), so three rows of
/// the attention aggregate are empty; and the first query gains a third
/// substructure of three isolated vertices with an empty `G_B`.
fn degenerate_edges(prepared: &mut [PreparedQuery]) {
    let nq = prepared[1].x_q.rows() as u32;
    let gb = &mut prepared[1].subs[0].gb;
    let cut = [1, nq + 3, nq + 17];
    let kept: Vec<(u32, u32)> = gb
        .src
        .iter()
        .zip(&gb.dst)
        .map(|(&s, &d)| (s, d))
        .filter(|(_, d)| !cut.contains(d))
        .collect();
    assert!(kept.len() < gb.len() && kept.iter().any(|(s, _)| cut.contains(s)));
    *gb = EdgeList::from_pairs(&kept, gb.n_vertices);

    let pq = &mut prepared[0];
    let nq = pq.x_q.rows();
    let isolated = Graph::from_edges(3, &[0, 1, 2], &[]).unwrap();
    pq.subs.push(PreparedSub {
        x: init_features(&isolated, &config().features),
        edges: EdgeList::from_graph(&isolated),
        gb: EdgeList::from_pairs(&[], nq + 3),
        local_cs: (0..nq as u32).map(|u| vec![u % 3]).collect(),
    });
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

/// Tape nodes one `(q, G_sub)` pair may record.
const MAX_NODES_PER_PAIR: usize = 90;

/// A perf guard without a clock. What a training step costs beyond its
/// arithmetic is per tape node — an output to allocate, a gradient of the
/// same shape, an `Op` to walk — and the node count repeats exactly. This
/// shard's forward records 65 nodes per pair (195 over its three pairs)
/// with every layer one coarse node; it recorded 158 per pair (474) when
/// the layers were chains of primitive ops, as did the benchmark's
/// `train_yeast` shards. A chain creeping back into a layer fails here
/// instead of in a benchmark.
fn assert_tape_stays_coarse(model: &NeurSc, prepared: &[PreparedQuery]) {
    let (mut nodes, mut pairs) = (0, 0);
    for pq in prepared {
        let mut tape = Tape::new();
        forward_prepared(model, &mut tape, pq).expect("the shard has substructures");
        nodes += tape.len();
        pairs += pq.subs.len();
    }
    assert!(
        nodes <= MAX_NODES_PER_PAIR * pairs,
        "{nodes} tape nodes for {pairs} pairs: more than {MAX_NODES_PER_PAIR} per pair"
    );
}

#[test]
fn trained_weights_and_losses_match_the_golden() {
    let g = data_graph();
    let labeled = shard(&g);
    for case in &CASES {
        let mut cfg = config();
        (case.configure)(&mut cfg);
        let mut model = NeurSc::new(cfg, 17);
        let mut prepared: Vec<_> = model
            .prepare_batch(&g, &labeled, &GraphContext::new())
            .into_iter()
            .map(|r| r.expect("golden queries prepare"))
            .collect();
        let subs: Vec<Vec<usize>> = prepared
            .iter()
            .map(|pq| pq.subs.iter().map(|s| s.x.rows()).collect())
            .collect();
        assert_eq!(subs, [vec![4, 9], vec![41]], "the shard changed shape");
        if case.name == "full" {
            assert_tape_stays_coarse(&model, &prepared);
        }
        (case.reshape)(&mut prepared);

        let rec = Arc::new(Recorder::new());
        let sink: Arc<dyn ObsSink> = rec.clone();
        let report = run_training(&mut model, &prepared, &sink);
        assert_eq!(
            (report.pretrain_epochs, report.adversarial_epochs),
            (1, 1),
            "{}: both phases ran",
            case.name
        );
        // The run exercised what the header says it does.
        let metrics = rec.metrics().snapshot();
        let n_subs: usize = prepared.iter().map(|pq| pq.subs.len()).sum();
        let critic_steps = if model.disc.is_some() { n_subs } else { 0 };
        assert_eq!(
            metrics.counter("train.critic_steps"),
            critic_steps as u64,
            "{}: one critic step per sub",
            case.name
        );
        assert!(
            metrics.gauges["train.grad_norm"] > f64::from(GRAD_CLIP),
            "{}: the last step was not clipped",
            case.name
        );
        // The critic update leaves ω in its Lipschitz box (§5.5), with the
        // clamp having cut something: some weight sits on the boundary.
        if let Some(disc) = &model.disc {
            let omega = disc.params();
            let omega = || omega.iter().flat_map(|&p| model.store.value(p).data());
            assert!(
                omega().all(|w| w.abs() <= disc.clamp) && omega().any(|w| w.abs() == disc.clamp),
                "{}: ω left its ±{} box or never reached its boundary",
                case.name,
                disc.clamp
            );
        }

        let losses: Vec<u64> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(
            (
                format!("{:016x}", model_checksum(&model)),
                losses.as_slice()
            ),
            (
                format!("{:016x}", case.checksum),
                case.epoch_losses.as_slice()
            ),
            "{}: trained model moved: losses {:?} = {losses:#x?}",
            case.name,
            report.epoch_losses
        );
    }
}
