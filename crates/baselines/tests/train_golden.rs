//! Golden training numerics of the learned baselines: LSS and NSIC train
//! through `GinStack::forward`, `Linear::forward` and `Mlp::forward` like
//! WEst does, and `neursc-core`'s `train_golden.rs` cannot see them. Each
//! is fitted on that test's data graph and shard and the FNV-1a-64 of its
//! parameter bits must reproduce the value recorded here. A tape or kernel
//! change that claims bit-identity passes this unchanged.

use neursc_baselines::lss::{Lss, LssConfig};
use neursc_baselines::nsic::{Nsic, NsicConfig, NsicEncoder};
use neursc_baselines::CountEstimator;
use neursc_graph::hash::Fnv64;
use neursc_graph::induced::induced_subgraph;
use neursc_graph::Graph;
use neursc_match::count_embeddings;
use neursc_nn::ParamStore;

const GOLDEN_LSS: u64 = 0x102a_74b4_6e7f_12fc;
/// GIN encoder on the whole data graph.
const GOLDEN_NSIC_I: u64 = 0xcca8_7db5_e60c_77f5;
/// Mean-aggregation encoder (`Linear::forward` then `relu`) on extracted
/// substructures.
const GOLDEN_NSIC_C_SE: u64 = 0xf484_5402_a2b8_22f8;

/// The data graph of `neursc-core/tests/train_golden.rs`.
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

/// Its shard: a triangle with a tail and a path, with their exact counts.
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

fn digest(store: &ParamStore) -> u64 {
    let mut h = Fnv64::new();
    for id in store.ids() {
        for v in store.value(id).data() {
            h.update(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn trained_baseline_weights_match_the_golden() {
    let g = data_graph();
    let train = shard(&g);
    let mut lss = Lss::new(LssConfig {
        epochs: 3,
        ..LssConfig::default()
    });
    lss.fit(&g, &train);
    let mut nsic_i = Nsic::new(NsicConfig {
        epochs: 3,
        ..NsicConfig::default()
    });
    nsic_i.fit(&g, &train);
    let mut nsic_c = Nsic::new(NsicConfig {
        encoder: NsicEncoder::MeanConv,
        with_extraction: true,
        epochs: 3,
        ..NsicConfig::default()
    });
    nsic_c.fit(&g, &train);

    let got = [lss.store(), nsic_i.store(), nsic_c.store()].map(digest);
    assert_eq!(
        got.map(|d| format!("{d:016x}")),
        [GOLDEN_LSS, GOLDEN_NSIC_I, GOLDEN_NSIC_C_SE].map(|d| format!("{d:016x}")),
        "trained baseline weights moved"
    );
}
