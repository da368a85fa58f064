//! Seeded random generation of fuzz cases (data graph + query).
//!
//! A case is drawn from a single `u64` seed and is fully deterministic:
//! every violation the fuzzer reports can be reproduced from its seed
//! alone. The generator deliberately covers the edge cases the pipeline
//! historically mishandled — single-vertex queries, disconnected queries,
//! queries whose labels are absent from the data graph — alongside the
//! common connected induced queries (which are guaranteed at least one
//! embedding, making zero-count bugs visible).

use neursc_graph::generate::{generate, DegreeModel, GraphSpec};
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::types::{Label, VertexId};
use neursc_graph::{Graph, GraphError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fuzz case: a data graph and a query, plus the seed that made them.
#[derive(Debug, Clone)]
pub struct Case {
    /// The seed this case was generated from (0 for hand-written cases).
    pub seed: u64,
    /// The data graph `G`.
    pub data: Graph,
    /// The query graph `q`.
    pub query: Graph,
}

/// Builds a graph from parts, surfacing construction failures (a generator
/// or mutation that produces an invalid graph is itself a bug worth
/// reporting, never worth panicking over).
pub fn build_graph(
    n: usize,
    labels: &[Label],
    edges: &[(VertexId, VertexId)],
) -> Result<Graph, GraphError> {
    Graph::from_edges(n, labels, edges)
}

/// SplitMix64 — decorrelates per-case seeds drawn from one run seed.
pub fn mix_seed(run_seed: u64, index: u64) -> u64 {
    let mut z =
        run_seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the case for `seed`.
pub fn gen_case(seed: u64) -> Result<Case, GraphError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f72_6163_6c65_u64);
    let data = gen_data(&mut rng, seed);
    let query = gen_query(&data, &mut rng)?;
    Ok(Case { seed, data, query })
}

fn gen_data(rng: &mut StdRng, seed: u64) -> Graph {
    let n = rng.gen_range(6..=32usize);
    let n_labels = rng.gen_range(1..=4usize);
    let avg_degree = 1.5 + 2.5 * rng.gen::<f64>();
    let model = match rng.gen_range(0..3u32) {
        0 => DegreeModel::ErdosRenyi,
        1 => DegreeModel::PreferentialAttachment,
        _ => DegreeModel::Community {
            community_size: rng.gen_range(3..=8usize),
            intra_fraction: 0.8,
        },
    };
    generate(
        &GraphSpec {
            n_vertices: n,
            avg_degree,
            n_labels,
            label_zipf: 0.8,
            model,
        },
        seed,
    )
}

fn gen_query(data: &Graph, rng: &mut StdRng) -> Result<Graph, GraphError> {
    let n_labels = data.n_labels().max(1);
    match rng.gen_range(0..10u32) {
        // Connected induced query sampled from the data graph: guaranteed
        // at least one embedding, so dropped-embedding bugs show up.
        0..=4 => {
            let size = rng.gen_range(2..=5usize);
            match sample_query(data, &QuerySampler::induced(size), rng) {
                Some(q) => Ok(q),
                // Sampling can fail on tiny/sparse graphs; fall back.
                None => single_vertex(n_labels, rng),
            }
        }
        // Single-vertex query, sometimes with a label absent from G.
        5 => single_vertex(n_labels + usize::from(rng.gen::<f32>() < 0.3), rng),
        // Disjoint union of two sampled queries: disconnected by
        // construction, with every component individually satisfiable.
        6..=7 => {
            let a = sample_query(data, &QuerySampler::induced(rng.gen_range(1..=3usize)), rng);
            let b = sample_query(data, &QuerySampler::induced(rng.gen_range(1..=3usize)), rng);
            match (a, b) {
                (Some(a), Some(b)) => disjoint_union(&a, &b),
                (Some(a), None) | (None, Some(a)) => Ok(a),
                (None, None) => single_vertex(n_labels, rng),
            }
        }
        // Random small query: arbitrary structure and labels (possibly
        // unmatched, possibly disconnected, possibly edge-free).
        _ => {
            let nq = rng.gen_range(1..=5usize);
            let labels: Vec<Label> = (0..nq)
                .map(|_| rng.gen_range(0..(n_labels + 1) as u32))
                .collect();
            let mut edges = Vec::new();
            for u in 0..nq as VertexId {
                for v in (u + 1)..nq as VertexId {
                    if rng.gen::<f32>() < 0.5 {
                        edges.push((u, v));
                    }
                }
            }
            build_graph(nq, &labels, &edges)
        }
    }
}

fn single_vertex(n_labels: usize, rng: &mut StdRng) -> Result<Graph, GraphError> {
    let l = rng.gen_range(0..n_labels.max(1) as u32);
    build_graph(1, &[l], &[])
}

/// Disjoint union `a ⊎ b` (b's ids shifted past a's).
fn disjoint_union(a: &Graph, b: &Graph) -> Result<Graph, GraphError> {
    let off = a.n_vertices() as VertexId;
    let labels: Vec<Label> = a
        .labels()
        .iter()
        .chain(b.labels().iter())
        .copied()
        .collect();
    let mut edges: Vec<(VertexId, VertexId)> = a.edges().map(|e| (e.u, e.v)).collect();
    edges.extend(b.edges().map(|e| (e.u + off, e.v + off)));
    build_graph(a.n_vertices() + b.n_vertices(), &labels, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_in_seed() {
        for s in 0..20u64 {
            let a = gen_case(s).unwrap();
            let b = gen_case(s).unwrap();
            assert_eq!(a.data, b.data);
            assert_eq!(a.query, b.query);
        }
    }

    #[test]
    fn generated_graphs_are_simple_and_nonempty() {
        for s in 0..50u64 {
            let c = gen_case(s).unwrap();
            assert!(c.data.check_invariants(), "seed {s}");
            assert!(c.query.check_invariants(), "seed {s}");
            assert!(c.query.n_vertices() >= 1, "seed {s}");
        }
    }

    #[test]
    fn generator_covers_the_edge_shapes() {
        let (mut single, mut disconnected) = (0, 0);
        for s in 0..200u64 {
            let c = gen_case(s).unwrap();
            if c.query.n_vertices() == 1 {
                single += 1;
            }
            if neursc_graph::induced::connected_components(&c.query).len() > 1 {
                disconnected += 1;
            }
        }
        assert!(single >= 5, "only {single} single-vertex queries in 200");
        assert!(
            disconnected >= 10,
            "only {disconnected} disconnected queries in 200"
        );
    }

    #[test]
    fn disjoint_union_concatenates() {
        let a = build_graph(2, &[0, 1], &[(0, 1)]).unwrap();
        let b = build_graph(3, &[2, 3, 4], &[(0, 2)]).unwrap();
        let u = disjoint_union(&a, &b).unwrap();
        assert_eq!(u.n_vertices(), 5);
        assert_eq!(u.n_edges(), 2);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(2, 4));
        assert_eq!(u.label(4), 4);
    }
}
