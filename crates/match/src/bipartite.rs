//! The semi-perfect matching test behind global refinement (Hopcroft–Karp).
//!
//! Global refinement (paper §4(1)) asks, for each candidate pair `(u, v)`,
//! whether the bipartite graph between `N(u)` and `N(v)` admits a
//! *semi-perfect matching* — a matching saturating the query side. That is
//! a maximum-matching query; Hopcroft–Karp answers it in
//! `O(E·√V)`, which matters because it runs once per surviving candidate
//! pair per refinement round.
//!
//! One [`PairGraph`] serves every pair test of a refinement call: each test
//! overwrites its CSR rows and reuses its matching buffers, so once the
//! buffers have grown to the largest pair, a test allocates nothing.

const NIL: usize = usize::MAX;
const INF: u32 = u32::MAX;

/// A bipartite graph as flat CSR rows and the buffers Hopcroft–Karp works
/// in.
#[derive(Debug, Default)]
pub(crate) struct PairGraph {
    rows: Rows,
    n_right: usize,
    match_l: Vec<usize>,
    match_r: Vec<usize>,
    dist: Vec<u32>,
    queue: Vec<usize>,
}

/// CSR rows: left vertex `l`'s right neighbours, indices into
/// `0..n_right`, are `right[offsets[l]..offsets[l + 1]]`.
#[derive(Debug, Default)]
struct Rows {
    offsets: Vec<usize>,
    right: Vec<usize>,
}

impl Rows {
    fn of(&self, l: usize) -> &[usize] {
        &self.right[self.offsets[l]..self.offsets[l + 1]]
    }
}

impl PairGraph {
    /// Empties the graph: no left vertex, `n_right` right vertices.
    pub(crate) fn reset(&mut self, n_right: usize) {
        self.rows.offsets.clear();
        self.rows.offsets.push(0);
        self.rows.right.clear();
        self.n_right = n_right;
    }

    /// Adds an edge from the left vertex being written to right vertex `r`.
    pub(crate) fn push_edge(&mut self, r: usize) {
        debug_assert!(r < self.n_right);
        self.rows.right.push(r);
    }

    /// Closes the left vertex being written; the next edge starts another.
    pub(crate) fn end_row(&mut self) {
        self.rows.offsets.push(self.rows.right.len());
    }

    /// Whether a matching saturating the *entire left side* exists — the
    /// semi-perfect matching test of the paper's global refinement. Stops
    /// at the first phase after which every left vertex is matched.
    pub(crate) fn left_saturated(&mut self) -> bool {
        let rows = &self.rows;
        let n_left = rows.offsets.len() - 1;
        let (match_l, match_r, dist) = (&mut self.match_l, &mut self.match_r, &mut self.dist);
        match_l.clear();
        match_l.resize(n_left, NIL);
        match_r.clear();
        match_r.resize(self.n_right, NIL);
        dist.clear();
        dist.resize(n_left, 0);
        let queue = &mut self.queue;
        let mut matched = 0;
        while matched < n_left {
            // BFS phase: layer free left vertices.
            queue.clear();
            let mut found_augmenting = false;
            for l in 0..n_left {
                if match_l[l] == NIL {
                    dist[l] = 0;
                    queue.push(l);
                } else {
                    dist[l] = INF;
                }
            }
            let mut head = 0;
            while let Some(&l) = queue.get(head) {
                head += 1;
                for &r in rows.of(l) {
                    let l2 = match_r[r];
                    if l2 == NIL {
                        found_augmenting = true;
                    } else if dist[l2] == INF {
                        dist[l2] = dist[l] + 1;
                        queue.push(l2);
                    }
                }
            }
            if !found_augmenting {
                return false;
            }
            // DFS phase: find vertex-disjoint augmenting paths along layers.
            for l in 0..n_left {
                if match_l[l] == NIL && augment(l, rows, dist, match_l, match_r) {
                    matched += 1;
                }
            }
        }
        true
    }
}

/// Looks for an augmenting path from left vertex `l` along the BFS layers
/// and flips it if found.
fn augment(
    l: usize,
    rows: &Rows,
    dist: &mut [u32],
    match_l: &mut [usize],
    match_r: &mut [usize],
) -> bool {
    for &r in rows.of(l) {
        let l2 = match_r[r];
        if l2 == NIL || (dist[l2] == dist[l] + 1 && augment(l2, rows, dist, match_l, match_r)) {
            match_l[l] = r;
            match_r[r] = l;
            return true;
        }
    }
    dist[l] = INF;
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Writes the graph with left rows `adj` over `n_right` right vertices
    /// into `g`, as refinement's pair test does.
    fn write(g: &mut PairGraph, adj: &[Vec<usize>], n_right: usize) {
        g.reset(n_right);
        for row in adj {
            for &r in row {
                g.push_edge(r);
            }
            g.end_row();
        }
    }

    /// [`write`] into fresh buffers.
    fn graph(adj: &[Vec<usize>], n_right: usize) -> PairGraph {
        let mut g = PairGraph::default();
        write(&mut g, adj, n_right);
        g
    }

    /// The matching the last `left_saturated` call ended with: each left
    /// vertex's right partner, if any.
    fn matching(g: &PairGraph) -> Vec<Option<usize>> {
        g.match_l.iter().map(|&r| (r != NIL).then_some(r)).collect()
    }

    /// Kuhn's augmenting paths, one search per left vertex: the saturation
    /// test written independently of Hopcroft–Karp.
    fn kuhn_saturates(adj: &[Vec<usize>], n_right: usize) -> bool {
        fn try_augment(
            l: usize,
            adj: &[Vec<usize>],
            seen: &mut [bool],
            owner: &mut [usize],
        ) -> bool {
            for &r in &adj[l] {
                if !seen[r] {
                    seen[r] = true;
                    if owner[r] == NIL || try_augment(owner[r], adj, seen, owner) {
                        owner[r] = l;
                        return true;
                    }
                }
            }
            false
        }
        let mut owner = vec![NIL; n_right];
        (0..adj.len()).all(|l| try_augment(l, adj, &mut vec![false; n_right], &mut owner))
    }

    #[test]
    fn perfect_matching_on_identity() {
        let mut g = graph(&[vec![0], vec![1], vec![2]], 3);
        assert!(g.left_saturated());
        assert_eq!(matching(&g), vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn augmenting_path_is_found() {
        // l0-{r0}, l1-{r0, r1}: greedy could block l0; HK must augment.
        let mut g = graph(&[vec![0], vec![0, 1]], 2);
        assert!(g.left_saturated());
    }

    #[test]
    fn hall_violation_detected() {
        // Three left vertices all confined to two right vertices.
        let mut g = graph(&[vec![0, 1], vec![0, 1], vec![0, 1]], 2);
        assert!(!g.left_saturated());
        let matched = matching(&g).iter().filter(|m| m.is_some()).count();
        assert_eq!(matched, 2);
    }

    #[test]
    fn isolated_left_vertex_blocks_saturation() {
        let mut g = graph(&[vec![0], vec![]], 2);
        assert!(!g.left_saturated());
    }

    #[test]
    fn empty_left_side_is_trivially_saturated() {
        let mut g = graph(&[], 5);
        assert!(g.left_saturated());
    }

    #[test]
    fn matching_is_injective() {
        let mut g = graph(&vec![vec![0, 1, 2, 3]; 4], 4);
        assert!(g.left_saturated());
        let mut rights: Vec<_> = matching(&g).into_iter().map(Option::unwrap).collect();
        rights.sort_unstable();
        rights.dedup();
        assert_eq!(rights.len(), 4);
    }

    #[test]
    fn long_augmenting_chain() {
        // A chain forcing repeated re-matching: l_i connects to r_i and
        // r_{i+1}, last left connects only to r_0. Perfect matching exists.
        let n = 6;
        let mut adj: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        adj.push(vec![0]);
        let mut g = graph(&adj, n);
        assert!(g.left_saturated());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hopcroft–Karp over reused buffers decides saturation as Kuhn
        /// does, on graphs with fewer right than left vertices, no left
        /// vertex, or a left vertex without edges among them. Each case
        /// runs on a buffer the previous graph left dirty.
        #[test]
        fn saturation_equals_kuhn(
            n_left in 0usize..7,
            n_right in 0usize..7,
            cells in proptest::collection::vec(0u8..3, 49),
            isolated in 0usize..8,
        ) {
            let adj: Vec<Vec<usize>> = (0..n_left)
                .map(|l| {
                    if l == isolated {
                        return Vec::new();
                    }
                    (0..n_right).filter(|&r| cells[l * 7 + r] == 0).collect()
                })
                .collect();
            let want = kuhn_saturates(&adj, n_right);
            let mut g = graph(&vec![vec![0; 3]; 3], 1);
            g.left_saturated();
            write(&mut g, &adj, n_right);
            prop_assert_eq!(g.left_saturated(), want);
            let m = matching(&g);
            let mut rights: Vec<usize> = m.iter().flatten().copied().collect();
            prop_assert!(m.iter().enumerate().all(|(l, r)| r.is_none_or(|r| adj[l].contains(&r))));
            rights.sort_unstable();
            let before = rights.len();
            rights.dedup();
            prop_assert_eq!(rights.len(), before);
        }
    }
}
