//! Seeded synthetic graph generators.
//!
//! The paper evaluates on seven real graphs (Table 2) which we cannot
//! redistribute; these generators reproduce their *shape* — vertex count,
//! average degree, label-alphabet size, Zipf-like label skew and a
//! heavy-tailed degree distribution — so every downstream code path
//! (filtering, extraction, GNNs, exact counting, all baselines) is exercised
//! under realistic distributions. All generators are deterministic in the
//! seed.

use crate::graph::{Graph, GraphBuilder};
use crate::types::{Label, VertexId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random-graph family to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegreeModel {
    /// Erdős–Rényi `G(n, m)`: homogeneous degrees around the mean. Used by
    /// unit tests and the protein-interaction-like presets (Yeast/HPRD have
    /// light degree tails).
    ErdosRenyi,
    /// Preferential attachment (Barabási–Albert): each new vertex attaches
    /// to `m = ⌈d/2⌉` earlier vertices biased by degree, yielding the
    /// heavy-tailed degree distributions of web/social graphs
    /// (EU2005/Youtube/DBLP).
    PreferentialAttachment,
    /// Planted partition: vertices grouped into communities of the given
    /// size; a fraction of edges lands inside communities (dense, clustered
    /// neighborhoods — the structure of protein-interaction graphs, where
    /// induced query subgraphs are *dense*, matching the paper's remark
    /// that real queries commonly have average degree > 4).
    Community {
        /// Vertices per community.
        community_size: usize,
        /// Fraction of edges placed within communities (e.g. 0.8).
        intra_fraction: f64,
    },
}

/// Declarative description of a synthetic labeled graph.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// Number of vertices.
    pub n_vertices: usize,
    /// Target average degree `2|E|/|V|`.
    pub avg_degree: f64,
    /// Label-alphabet size `|L|`.
    pub n_labels: usize,
    /// Zipf exponent for label frequencies (`0.0` = uniform labels;
    /// real attribute distributions are skewed, ~0.5–1.5).
    pub label_zipf: f64,
    /// Degree-structure family.
    pub model: DegreeModel,
}

impl GraphSpec {
    /// Convenience constructor with uniform labels and the ER model.
    pub fn uniform(n_vertices: usize, avg_degree: f64, n_labels: usize) -> Self {
        GraphSpec {
            n_vertices,
            avg_degree,
            n_labels,
            label_zipf: 0.0,
            model: DegreeModel::ErdosRenyi,
        }
    }
}

/// Generates a labeled graph from `spec`, deterministically in `seed`.
pub fn generate(spec: &GraphSpec, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = zipf_labels(spec.n_vertices, spec.n_labels, spec.label_zipf, &mut rng);
    match spec.model {
        DegreeModel::ErdosRenyi => {
            let m = ((spec.n_vertices as f64 * spec.avg_degree) / 2.0).round() as usize;
            erdos_renyi_with_labels(spec.n_vertices, m, &labels, &mut rng)
        }
        DegreeModel::PreferentialAttachment => {
            let m_per = (spec.avg_degree / 2.0).round().max(1.0) as usize;
            preferential_attachment_with_labels(spec.n_vertices, m_per, &labels, &mut rng)
        }
        DegreeModel::Community {
            community_size,
            intra_fraction,
        } => {
            let m = ((spec.n_vertices as f64 * spec.avg_degree) / 2.0).round() as usize;
            community_with_labels(
                spec.n_vertices,
                m,
                community_size,
                intra_fraction,
                &labels,
                &mut rng,
            )
        }
    }
}

/// Planted-partition generator: `m` edges total, `intra_fraction` of them
/// between vertices of the same community (communities are contiguous id
/// ranges of `community_size`), the rest uniform.
fn community_with_labels(
    n: usize,
    m: usize,
    community_size: usize,
    intra_fraction: f64,
    labels: &[Label],
    rng: &mut StdRng,
) -> Graph {
    assert_eq!(labels.len(), n);
    assert!(community_size >= 2, "communities need at least 2 vertices");
    let mut b = GraphBuilder::new(n);
    for (v, &l) in labels.iter().enumerate() {
        b.set_label(v as VertexId, l);
    }
    if n < 2 {
        return b.build();
    }
    let mut seen = std::collections::HashSet::with_capacity(2 * m);
    let mut added = 0usize;
    let mut attempts = 0usize;
    let max_attempts = 60 * m + 1000;
    while added < m && attempts < max_attempts {
        attempts += 1;
        let intra = rng.gen::<f64>() < intra_fraction;
        let (u, v) = if intra {
            // Random pair inside one community.
            let c0 = rng.gen_range(0..n.div_ceil(community_size));
            let lo = c0 * community_size;
            let hi = ((c0 + 1) * community_size).min(n);
            if hi - lo < 2 {
                continue;
            }
            (
                rng.gen_range(lo..hi) as VertexId,
                rng.gen_range(lo..hi) as VertexId,
            )
        } else {
            (
                rng.gen_range(0..n as VertexId),
                rng.gen_range(0..n as VertexId),
            )
        };
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            b.add_edge(u, v)
                .unwrap_or_else(|_| unreachable!("in range"));
            added += 1;
        }
    }
    b.build()
}

/// Samples `n` labels from a Zipf(`s`) distribution over `n_labels` classes.
///
/// `s = 0` is the uniform distribution. Label ranks are shuffled so that
/// label ids carry no frequency information.
fn zipf_labels(n: usize, n_labels: usize, s: f64, rng: &mut StdRng) -> Vec<Label> {
    assert!(n_labels > 0, "need at least one label");
    // Cumulative Zipf weights over ranks.
    let mut weights: Vec<f64> = (1..=n_labels).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in weights.iter_mut() {
        acc += *w / total;
        *w = acc;
    }
    // Randomize which label id gets which rank.
    let mut perm: Vec<Label> = (0..n_labels as Label).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen();
            let rank = weights.partition_point(|&c| c < x).min(n_labels - 1);
            perm[rank]
        })
        .collect()
}

/// `G(n, m)` Erdős–Rényi with an explicit label array.
fn erdos_renyi_with_labels(n: usize, m: usize, labels: &[Label], rng: &mut StdRng) -> Graph {
    assert_eq!(labels.len(), n);
    let mut b = GraphBuilder::new(n);
    for (v, &l) in labels.iter().enumerate() {
        b.set_label(v as VertexId, l);
    }
    if n >= 2 {
        let mut seen = std::collections::HashSet::with_capacity(2 * m);
        let max_edges = n * (n - 1) / 2;
        let target = m.min(max_edges);
        let mut attempts = 0usize;
        while seen.len() < target && attempts < 50 * target + 1000 {
            attempts += 1;
            let u = rng.gen_range(0..n as VertexId);
            let v = rng.gen_range(0..n as VertexId);
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if seen.insert(key) {
                b.add_edge(u, v)
                    .unwrap_or_else(|_| unreachable!("in range"));
            }
        }
    }
    b.build()
}

/// Uniform-label ER convenience wrapper, used widely in tests.
pub fn erdos_renyi(n: usize, m: usize, n_labels: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<Label> = (0..n)
        .map(|_| rng.gen_range(0..n_labels as Label))
        .collect();
    erdos_renyi_with_labels(n, m, &labels, &mut rng)
}

/// Barabási–Albert preferential attachment with an explicit label array.
///
/// Starts from a small seed clique of `m_per + 1` vertices; each subsequent
/// vertex attaches to `m_per` distinct earlier vertices chosen
/// degree-proportionally (implemented with the standard repeated-endpoint
/// urn: sampling uniformly from the running endpoint list is equivalent to
/// degree-proportional sampling).
fn preferential_attachment_with_labels(
    n: usize,
    m_per: usize,
    labels: &[Label],
    rng: &mut StdRng,
) -> Graph {
    assert_eq!(labels.len(), n);
    let mut b = GraphBuilder::new(n);
    for (v, &l) in labels.iter().enumerate() {
        b.set_label(v as VertexId, l);
    }
    let seed_size = (m_per + 1).min(n);
    // Urn of edge endpoints: each edge contributes both endpoints.
    let mut urn: Vec<VertexId> = Vec::with_capacity(2 * n * m_per);
    for u in 0..seed_size {
        for v in (u + 1)..seed_size {
            b.add_edge(u as VertexId, v as VertexId)
                .unwrap_or_else(|_| unreachable!("in range"));
            urn.push(u as VertexId);
            urn.push(v as VertexId);
        }
    }
    // A Vec with a membership scan keeps iteration order deterministic
    // (HashSet order would vary run to run and break seeded generation).
    let mut targets: Vec<VertexId> = Vec::with_capacity(m_per);
    for v in seed_size..n {
        targets.clear();
        let want = m_per.min(v);
        let mut guard = 0usize;
        while targets.len() < want && guard < 100 * want + 100 {
            guard += 1;
            let t = if urn.is_empty() {
                rng.gen_range(0..v as VertexId)
            } else {
                urn[rng.gen_range(0..urn.len())]
            };
            if (t as usize) < v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in targets.iter() {
            b.add_edge(v as VertexId, t)
                .unwrap_or_else(|_| unreachable!("in range"));
            urn.push(v as VertexId);
            urn.push(t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn generate_is_deterministic_in_seed() {
        let spec = GraphSpec::uniform(200, 4.0, 8);
        let g1 = generate(&spec, 42);
        let g2 = generate(&spec, 42);
        assert_eq!(g1, g2);
        let g3 = generate(&spec, 43);
        assert_ne!(g1, g3);
    }

    #[test]
    fn er_hits_target_edge_count() {
        let g = erdos_renyi(500, 1000, 5, 7);
        assert_eq!(g.n_vertices(), 500);
        assert_eq!(g.n_edges(), 1000);
        assert!(g.check_invariants());
    }

    #[test]
    fn every_degree_model_produces_simple_graphs() {
        // The `.graph` format (and the enumerator/filter) assume simple
        // graphs; `check_invariants` verifies sorted adjacency with no
        // self-loops and no duplicate edges.
        for model in [
            DegreeModel::ErdosRenyi,
            DegreeModel::PreferentialAttachment,
            DegreeModel::Community {
                community_size: 10,
                intra_fraction: 0.8,
            },
        ] {
            for seed in 0..4u64 {
                let g = generate(
                    &GraphSpec {
                        n_vertices: 60,
                        avg_degree: 5.0,
                        n_labels: 3,
                        label_zipf: 0.8,
                        model,
                    },
                    seed,
                );
                assert!(g.check_invariants(), "{model:?} seed {seed}");
                // Round-trip through the strict parser: a generator that
                // emitted a self-loop or duplicate would fail here.
                let text = crate::io::format_graph(&g);
                assert_eq!(crate::io::parse_graph(&text).unwrap(), g);
            }
        }
    }

    #[test]
    fn er_caps_at_complete_graph() {
        let g = erdos_renyi(5, 1000, 2, 7);
        assert_eq!(g.n_edges(), 10);
    }

    #[test]
    fn ba_average_degree_near_target() {
        let spec = GraphSpec {
            n_vertices: 2000,
            avg_degree: 8.0,
            n_labels: 10,
            label_zipf: 1.0,
            model: DegreeModel::PreferentialAttachment,
        };
        let g = generate(&spec, 1);
        let d = g.avg_degree();
        assert!((d - 8.0).abs() < 1.5, "avg degree {d} too far from 8");
        assert!(g.check_invariants());
    }

    #[test]
    fn ba_has_heavier_tail_than_er() {
        let n = 2000;
        let ba = generate(
            &GraphSpec {
                n_vertices: n,
                avg_degree: 6.0,
                n_labels: 4,
                label_zipf: 0.0,
                model: DegreeModel::PreferentialAttachment,
            },
            3,
        );
        let er = generate(
            &GraphSpec {
                n_vertices: n,
                avg_degree: 6.0,
                n_labels: 4,
                label_zipf: 0.0,
                model: DegreeModel::ErdosRenyi,
            },
            3,
        );
        assert!(
            ba.max_degree() > 2 * er.max_degree(),
            "BA max degree {} should dwarf ER max degree {}",
            ba.max_degree(),
            er.max_degree()
        );
    }

    #[test]
    fn zipf_skew_increases_label_imbalance() {
        let mut rng = StdRng::seed_from_u64(9);
        let uniform = zipf_labels(10_000, 10, 0.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let skewed = zipf_labels(10_000, 10, 1.5, &mut rng);
        let max_freq = |ls: &[Label]| {
            let mut f = vec![0usize; 10];
            for &l in ls {
                f[l as usize] += 1;
            }
            f.into_iter().max().unwrap()
        };
        assert!(max_freq(&skewed) > 2 * max_freq(&uniform));
    }

    #[test]
    fn label_entropy_drops_with_skew() {
        let mk = |s: f64| {
            generate(
                &GraphSpec {
                    n_vertices: 1000,
                    avg_degree: 4.0,
                    n_labels: 16,
                    label_zipf: s,
                    model: DegreeModel::ErdosRenyi,
                },
                5,
            )
        };
        assert!(properties::label_entropy(&mk(0.0)) > properties::label_entropy(&mk(2.0)));
    }

    #[test]
    fn all_labels_within_alphabet() {
        let g = generate(&GraphSpec::uniform(300, 3.0, 7), 11);
        assert!(g.labels().iter().all(|&l| (l as usize) < 7));
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        for n in 0..4 {
            let spec = GraphSpec {
                n_vertices: n,
                avg_degree: 2.0,
                n_labels: 3,
                label_zipf: 0.5,
                model: DegreeModel::PreferentialAttachment,
            };
            let g = generate(&spec, 0);
            assert_eq!(g.n_vertices(), n);
            assert!(g.check_invariants());
        }
    }
}

#[cfg(test)]
mod community_tests {
    use super::*;

    #[test]
    fn community_model_hits_edge_target_and_invariants() {
        let spec = GraphSpec {
            n_vertices: 600,
            avg_degree: 12.0,
            n_labels: 8,
            label_zipf: 0.8,
            model: DegreeModel::Community {
                community_size: 30,
                intra_fraction: 0.8,
            },
        };
        let g = generate(&spec, 3);
        assert!(g.check_invariants());
        let d = g.avg_degree();
        assert!((d - 12.0).abs() < 1.5, "avg degree {d}");
    }

    #[test]
    fn community_model_is_clustered() {
        // Induced subgraphs of a community graph carry far more internal
        // edges than those of an equally dense ER graph.
        let mk = |model| {
            generate(
                &GraphSpec {
                    n_vertices: 1000,
                    avg_degree: 16.0,
                    n_labels: 4,
                    label_zipf: 0.0,
                    model,
                },
                9,
            )
        };
        let comm = mk(DegreeModel::Community {
            community_size: 25,
            intra_fraction: 0.85,
        });
        let er = mk(DegreeModel::ErdosRenyi);
        use crate::sample::{sample_query, QuerySampler};
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(4);
        let mut comm_edges = 0;
        let mut er_edges = 0;
        for _ in 0..10 {
            comm_edges += sample_query(&comm, &QuerySampler::induced(8), &mut rng)
                .unwrap()
                .n_edges();
            er_edges += sample_query(&er, &QuerySampler::induced(8), &mut rng)
                .unwrap()
                .n_edges();
        }
        assert!(
            comm_edges > er_edges + 10,
            "community {comm_edges} vs er {er_edges}"
        );
    }

    #[test]
    fn community_generation_is_deterministic() {
        let spec = GraphSpec {
            n_vertices: 300,
            avg_degree: 10.0,
            n_labels: 5,
            label_zipf: 0.5,
            model: DegreeModel::Community {
                community_size: 20,
                intra_fraction: 0.8,
            },
        };
        assert_eq!(generate(&spec, 5), generate(&spec, 5));
    }
}
