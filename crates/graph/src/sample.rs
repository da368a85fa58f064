//! Random-walk extraction of connected query graphs from a data graph.
//!
//! The paper's query sets (Table 3) come from \[89\]/\[117\], which produce
//! queries by walking the data graph and taking the subgraph induced on the
//! visited vertices — guaranteeing every query is connected and actually has
//! at least one embedding in the data graph. We reproduce that protocol
//! here, with a knob for how many induced edges to keep (sparser queries
//! have smaller counts ranges, matching the paper's mix of sparse and dense
//! queries).

use crate::graph::Graph;
use crate::induced::induced_subgraph;
use crate::traversal::is_connected;
use crate::types::VertexId;
use rand::rngs::StdRng;

/// Controls query sampling.
#[derive(Debug, Clone)]
pub struct QuerySampler {
    /// Number of query vertices to collect.
    pub n_vertices: usize,
    /// Probability of keeping each induced non-tree edge (1.0 = fully
    /// induced query; lower values yield sparser queries). Tree edges that
    /// keep the query connected are always retained.
    pub edge_keep_prob: f64,
    /// Maximum restarts before giving up (e.g. data graph too small or too
    /// disconnected).
    pub max_attempts: usize,
}

impl QuerySampler {
    /// Sampler for fully induced queries of the given size.
    pub fn induced(n_vertices: usize) -> Self {
        QuerySampler {
            n_vertices,
            edge_keep_prob: 1.0,
            max_attempts: 64,
        }
    }
}

/// Samples one connected query graph from `g`, or `None` if no connected
/// subgraph of the requested size could be found within the attempt budget.
///
/// The walk is a randomized BFS/DFS frontier expansion: start at a uniform
/// random vertex, repeatedly pick a random frontier vertex adjacent to the
/// visited set — this is the "random walk with restart to the visited set"
/// used in the subgraph-matching literature and avoids the dead-ends of a
/// plain walk.
pub fn sample_query(g: &Graph, sampler: &QuerySampler, rng: &mut StdRng) -> Option<Graph> {
    let n = g.n_vertices();
    if n < sampler.n_vertices || sampler.n_vertices == 0 {
        return None;
    }
    'attempt: for _ in 0..sampler.max_attempts {
        let start = rng.gen_range(0..n as VertexId);
        let mut visited: Vec<VertexId> = vec![start];
        let mut in_set = std::collections::HashSet::new();
        in_set.insert(start);
        // Frontier = all neighbors of visited not yet in the set.
        let mut frontier: Vec<VertexId> = g
            .neighbors(start)
            .iter()
            .copied()
            .filter(|v| !in_set.contains(v))
            .collect();
        while visited.len() < sampler.n_vertices {
            if frontier.is_empty() {
                continue 'attempt; // component exhausted; restart
            }
            let pick = rng.gen_range(0..frontier.len());
            let v = frontier.swap_remove(pick);
            if !in_set.insert(v) {
                continue;
            }
            visited.push(v);
            for &u in g.neighbors(v) {
                if !in_set.contains(&u) {
                    frontier.push(u);
                }
            }
        }
        let induced = induced_subgraph(g, &visited);
        let q = thin_edges(&induced.graph, sampler.edge_keep_prob, rng);
        debug_assert!(is_connected(&q));
        return Some(q);
    }
    None
}

/// Keeps a connected subset of the edges: a uniform random spanning tree
/// skeleton (via randomized BFS) plus each remaining edge independently with
/// probability `keep_prob`.
fn thin_edges(g: &Graph, keep_prob: f64, rng: &mut StdRng) -> Graph {
    if keep_prob >= 1.0 {
        return g.clone();
    }
    let n = g.n_vertices();
    let mut b = crate::graph::GraphBuilder::new(n);
    for v in g.vertices() {
        b.set_label(v, g.label(v));
    }
    // Randomized spanning tree from a random root.
    let mut tree_edge = std::collections::HashSet::new();
    let root = rng.gen_range(0..n as VertexId);
    let mut seen = vec![false; n];
    seen[root as usize] = true;
    let mut frontier: Vec<(VertexId, VertexId)> =
        g.neighbors(root).iter().map(|&v| (root, v)).collect();
    while let Some(i) = if frontier.is_empty() {
        None
    } else {
        Some(rng.gen_range(0..frontier.len()))
    } {
        let (u, v) = frontier.swap_remove(i);
        if seen[v as usize] {
            continue;
        }
        seen[v as usize] = true;
        tree_edge.insert(crate::types::Edge::new(u, v));
        for &w in g.neighbors(v) {
            if !seen[w as usize] {
                frontier.push((v, w));
            }
        }
    }
    for e in g.edges() {
        if tree_edge.contains(&e) || rng.gen::<f64>() < keep_prob {
            b.add_edge(e.u, e.v)
                .unwrap_or_else(|_| unreachable!("in range"));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{erdos_renyi, generate, DegreeModel, GraphSpec};
    use rand::SeedableRng;

    #[test]
    fn sampled_query_is_connected_and_sized() {
        let g = erdos_renyi(500, 2000, 8, 3);
        let mut rng = StdRng::seed_from_u64(1);
        for size in [4usize, 8, 16] {
            let q = sample_query(&g, &QuerySampler::induced(size), &mut rng).unwrap();
            assert_eq!(q.n_vertices(), size);
            assert!(is_connected(&q));
        }
    }

    #[test]
    fn sampled_query_labels_come_from_data_graph() {
        let g = erdos_renyi(300, 900, 5, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let q = sample_query(&g, &QuerySampler::induced(8), &mut rng).unwrap();
        assert!(q.labels().iter().all(|&l| (l as usize) < g.n_labels()));
    }

    #[test]
    fn too_large_request_returns_none() {
        let g = erdos_renyi(5, 4, 2, 5);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_query(&g, &QuerySampler::induced(10), &mut rng).is_none());
    }

    #[test]
    fn zero_size_request_returns_none() {
        let g = erdos_renyi(5, 4, 2, 5);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_query(&g, &QuerySampler::induced(0), &mut rng).is_none());
    }

    #[test]
    fn thinned_queries_stay_connected_but_lose_edges() {
        let g = generate(
            &GraphSpec {
                n_vertices: 400,
                avg_degree: 12.0,
                n_labels: 4,
                label_zipf: 0.0,
                model: DegreeModel::PreferentialAttachment,
            },
            6,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let dense = QuerySampler::induced(12);
        let sparse = QuerySampler {
            n_vertices: 12,
            edge_keep_prob: 0.1,
            max_attempts: 64,
        };
        let mut dense_edges = 0;
        let mut sparse_edges = 0;
        for _ in 0..10 {
            let qd = sample_query(&g, &dense, &mut rng).unwrap();
            let qs = sample_query(&g, &sparse, &mut rng).unwrap();
            assert!(is_connected(&qs));
            assert!(qs.n_edges() >= qs.n_vertices() - 1); // at least a tree
            dense_edges += qd.n_edges();
            sparse_edges += qs.n_edges();
        }
        assert!(sparse_edges < dense_edges);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = erdos_renyi(200, 800, 6, 8);
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let s = QuerySampler::induced(6);
        let q1 = sample_query(&g, &s, &mut r1).unwrap();
        let q2 = sample_query(&g, &s, &mut r2).unwrap();
        assert_eq!(q1, q2);
    }

    #[test]
    fn disconnected_graph_still_samples_within_component() {
        // Two ER blobs with no cross edges: build manually.
        let mut b = crate::graph::GraphBuilder::new(20);
        for v in 0..20u32 {
            b.set_label(v, v % 3);
        }
        for u in 0..9u32 {
            b.add_edge(u, u + 1).unwrap();
        }
        for u in 10..19u32 {
            b.add_edge(u, u + 1).unwrap();
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(4);
        let q = sample_query(&g, &QuerySampler::induced(5), &mut rng).unwrap();
        assert!(is_connected(&q));
        assert_eq!(q.n_vertices(), 5);
    }
}
