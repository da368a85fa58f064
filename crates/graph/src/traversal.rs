//! Breadth-first traversal utilities: BFS layers, k-hop neighborhoods,
//! eccentricity, diameter and connectivity tests.
//!
//! These are the primitives behind profile construction (r-hop label
//! sequences, paper §4), the i-hop neighborhood feature initialization of
//! Eq. 1, the query-diameter bucketing of Fig. 9, and the connectivity
//! requirement on candidate substructures.

use crate::graph::Graph;
use crate::types::VertexId;

/// Result of a single-source BFS: `dist[v]` is the hop distance from the
/// source, or `u32::MAX` if unreachable.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Hop distances indexed by vertex id (`u32::MAX` = unreachable).
    pub dist: Vec<u32>,
    /// The eccentricity of the source within its component (max finite dist).
    pub eccentricity: u32,
}

/// Sentinel distance for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Full BFS from `source`.
pub fn bfs(g: &Graph, source: VertexId) -> BfsResult {
    bfs_bounded(g, source, u32::MAX)
}

/// BFS from `source` that stops expanding beyond `max_depth` hops.
fn bfs_bounded(g: &Graph, source: VertexId, max_depth: u32) -> BfsResult {
    let n = g.n_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    let mut ecc = 0;
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        if du >= max_depth {
            continue;
        }
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                ecc = ecc.max(du + 1);
                queue.push_back(v);
            }
        }
    }
    BfsResult {
        dist,
        eccentricity: ecc,
    }
}

/// Vertices at *exactly* hop distance `i` from `v`, for `i = 1..=k`,
/// returned as `k` buckets (`result[i-1]` = the i-hop ring).
///
/// This is `N^{(i)}(v)` in the feature-initialization equation (Eq. 1).
pub fn khop_rings(g: &Graph, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
    let r = bfs_bounded(g, v, k);
    let mut rings: Vec<Vec<VertexId>> = vec![Vec::new(); k as usize];
    for u in g.vertices() {
        let d = r.dist[u as usize];
        if d >= 1 && d <= k {
            rings[(d - 1) as usize].push(u);
        }
    }
    rings
}

/// All vertices within distance `≤ k` of `v`, including `v` itself.
pub fn khop_ball(g: &Graph, v: VertexId, k: u32) -> Vec<VertexId> {
    let r = bfs_bounded(g, v, k);
    g.vertices().filter(|&u| r.dist[u as usize] <= k).collect()
}

/// Whether the graph is connected. The empty graph counts as connected.
pub fn is_connected(g: &Graph) -> bool {
    let n = g.n_vertices();
    if n == 0 {
        return true;
    }
    let r = bfs(g, 0);
    r.dist.iter().all(|&d| d != UNREACHABLE)
}

/// Exact diameter by running BFS from every vertex — `O(n·m)`, intended for
/// query graphs (≤ 32 vertices in the paper). Returns `None` for a
/// disconnected or empty graph.
pub fn diameter(g: &Graph) -> Option<u32> {
    let n = g.n_vertices();
    if n == 0 {
        return None;
    }
    let mut diam = 0;
    for v in g.vertices() {
        let r = bfs(g, v);
        if r.dist.contains(&UNREACHABLE) {
            return None;
        }
        diam = diam.max(r.eccentricity);
    }
    Some(diam)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path5() -> Graph {
        // 0-1-2-3-4
        Graph::from_edges(5, &[0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path5();
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.eccentricity, 4);
    }

    #[test]
    fn bfs_bounded_stops_at_depth() {
        let g = path5();
        let r = bfs_bounded(&g, 0, 2);
        assert_eq!(r.dist[2], 2);
        assert_eq!(r.dist[3], UNREACHABLE);
        assert_eq!(r.eccentricity, 2);
    }

    #[test]
    fn khop_rings_are_exact_distance_buckets() {
        let g = path5();
        let rings = khop_rings(&g, 2, 2);
        assert_eq!(rings[0], vec![1, 3]);
        assert_eq!(rings[1], vec![0, 4]);
    }

    #[test]
    fn khop_ball_includes_center() {
        let g = path5();
        let ball = khop_ball(&g, 2, 1);
        assert_eq!(ball, vec![1, 2, 3]);
    }

    #[test]
    fn connectivity_detection() {
        let g = path5();
        assert!(is_connected(&g));
        let h = Graph::from_edges(4, &[0; 4], &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&h));
        assert!(is_connected(&Graph::from_edges(0, &[], &[]).unwrap()));
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&path5()), Some(4));
        let c4 = Graph::from_edges(4, &[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(diameter(&c4), Some(2));
        let disc = Graph::from_edges(3, &[0; 3], &[(0, 1)]).unwrap();
        assert_eq!(diameter(&disc), None);
        assert_eq!(diameter(&Graph::from_edges(0, &[], &[]).unwrap()), None);
    }

    #[test]
    fn singleton_graph_diameter_zero() {
        let g = Graph::from_edges(1, &[0], &[]).unwrap();
        assert_eq!(diameter(&g), Some(0));
        assert!(is_connected(&g));
    }
}
