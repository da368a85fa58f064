//! CSR-backed labeled undirected graph.
//!
//! The representation follows the usual database-engine layout: one
//! `offsets` array of length `n + 1` and one `neighbors` array of length
//! `2·m`, with each adjacency list sorted ascending so membership tests are
//! binary searches and set intersections are merges. Labels live in a
//! parallel `labels` array. The structure is immutable after construction —
//! all NeurSC stages (filtering, extraction, GNN aggregation, exact
//! counting) are read-only over the data graph, so immutability buys easy
//! sharing across threads with zero synchronization.

use crate::error::GraphError;
use crate::types::{Edge, Label, VertexId};
use std::sync::OnceLock;

/// An immutable vertex-labeled undirected simple graph in CSR form.
///
/// Construct with [`GraphBuilder`] (or the convenience
/// [`Graph::from_edges`]). Vertex ids are dense `0..n`.
///
/// ```
/// use neursc_graph::Graph;
/// // A labeled triangle plus a pendant vertex.
/// let g = Graph::from_edges(4, &[0, 1, 1, 0], &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
/// assert_eq!(g.n_vertices(), 4);
/// assert_eq!(g.n_edges(), 4);
/// assert_eq!(g.degree(2), 3);
/// assert!(g.has_edge(0, 2));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists; length `2 * n_edges`.
    neighbors: Vec<VertexId>,
    /// `labels[v]` is the label of vertex `v`.
    labels: Vec<Label>,
    /// Number of distinct labels = `max(labels) + 1` (0 for empty graphs).
    n_labels: usize,
    /// Maximum degree over all vertices (0 for empty graphs).
    max_degree: usize,
    /// Memo of [`Graph::content_fingerprint`], filled by its first call
    /// (not at build time: every induced substructure graph is built on
    /// the hot path and most are never fingerprinted). A clone carries it.
    fingerprint: OnceLock<u64>,
}

/// Equality is over content only. The fingerprint memo is a function of
/// the content, so a derived impl would be wrong, not merely wasteful: two
/// equal graphs would compare unequal once one of them had been hashed.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
            && self.offsets == other.offsets
            && self.neighbors == other.neighbors
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds a graph directly from a label array and an edge list.
    ///
    /// Duplicate edges are deduplicated; self-loops are an error.
    pub fn from_edges(
        n: usize,
        labels: &[Label],
        edges: &[(VertexId, VertexId)],
    ) -> Result<Graph, GraphError> {
        assert_eq!(
            labels.len(),
            n,
            "labels array must have exactly n entries (got {} for n = {n})",
            labels.len()
        );
        let mut b = GraphBuilder::new(n);
        for (v, &l) in labels.iter().enumerate() {
            b.set_label(v as VertexId, l);
        }
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Reassembles a graph from raw CSR arrays — the fast decode path for
    /// binary graph stores, which persist exactly these three arrays.
    /// Skips the per-row sort and dedup of [`GraphBuilder::build`] but
    /// validates every invariant [`Graph::check_invariants`] checks
    /// (monotone offsets, sorted strict adjacency, symmetry, no
    /// self-loops, in-range ids), returning a typed error instead of
    /// constructing a graph that would break read-path assumptions.
    /// Structural violations are reported as [`GraphError::Parse`] with
    /// `line` 0 (there is no text line to point at).
    pub fn from_csr_parts(
        labels: Vec<Label>,
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
    ) -> Result<Graph, GraphError> {
        let n = labels.len();
        let structural = |message: String| GraphError::Parse { line: 0, message };
        if offsets.len() != n + 1 {
            return Err(structural(format!(
                "offsets array has {} entries, expected n + 1 = {}",
                offsets.len(),
                n + 1
            )));
        }
        if offsets[0] != 0 {
            return Err(structural(format!(
                "offsets must start at 0, got {}",
                offsets[0]
            )));
        }
        if offsets[n] != neighbors.len() {
            return Err(structural(format!(
                "offsets end at {} but the adjacency array has {} entries",
                offsets[n],
                neighbors.len()
            )));
        }
        if !neighbors.len().is_multiple_of(2) {
            return Err(structural(format!(
                "adjacency array length {} is odd (undirected edges store two entries)",
                neighbors.len()
            )));
        }
        if let Some(w) = offsets.windows(2).find(|w| w[0] > w[1]) {
            return Err(structural(format!(
                "offsets not monotone: {} before {}",
                w[0], w[1]
            )));
        }
        let row = |v: usize| &neighbors[offsets[v]..offsets[v + 1]];
        for v in 0..n {
            let ns = row(v);
            if ns.windows(2).any(|w| w[0] >= w[1]) {
                return Err(structural(format!(
                    "adjacency list of vertex {v} is unsorted or has duplicates"
                )));
            }
            for &u in ns {
                if u as usize >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: u as u64,
                        n_vertices: n,
                    });
                }
                if u == v as VertexId {
                    return Err(GraphError::SelfLoop(u));
                }
                if row(u as usize).binary_search(&(v as VertexId)).is_err() {
                    return Err(structural(format!(
                        "asymmetric adjacency: {v} lists {u} but not vice versa"
                    )));
                }
            }
        }
        let max_degree = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        Ok(Graph::from_sorted_rows(
            labels, offsets, neighbors, max_degree,
        ))
    }

    /// Wraps CSR arrays that already hold every invariant
    /// [`Graph::check_invariants`] checks (rows sorted, duplicate-free,
    /// symmetric, in range, no self-loop); `max_degree` is the longest
    /// row. Checked in debug builds only.
    pub(crate) fn from_sorted_rows(
        labels: Vec<Label>,
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        max_degree: usize,
    ) -> Graph {
        let n_labels = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let g = Graph {
            offsets,
            neighbors,
            labels,
            n_labels,
            max_degree,
            fingerprint: OnceLock::new(),
        };
        debug_assert!(g.check_invariants());
        g
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of distinct labels that appear (`max label + 1`, i.e. the
    /// size of the dense label alphabet).
    #[inline]
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    /// The full label array, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Degree `d(v)`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree over all vertices.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Average degree `2|E| / |V|` (0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.n_vertices() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.n_vertices() as f64
        }
    }

    /// Sorted neighbor list `N(v)`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge membership test via binary search — `O(log d(u))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n_vertices() as VertexId
    }

    /// Iterator over all undirected edges in canonical `(u ≤ v)` order,
    /// each reported once.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u <= v)
                .map(move |&v| Edge { u, v })
        })
    }

    /// Frequency of each label: `freq[l]` = number of vertices labeled `l`.
    pub fn label_frequencies(&self) -> Vec<usize> {
        let mut freq = vec![0usize; self.n_labels];
        for &l in &self.labels {
            freq[l as usize] += 1;
        }
        freq
    }

    /// A 64-bit FNV-1a hash of the graph's full content (labels plus
    /// adjacency structure). Two graphs share a fingerprint iff they are
    /// byte-identical in CSR form, so the fingerprint can key caches of
    /// derived per-graph data (vertex profiles, feature matrices): a graph
    /// rebuilt with any vertex, edge or label change hashes differently and
    /// can never be served another graph's cached results. `O(n + m)` on
    /// the first call; the graph is immutable, so the value is kept and
    /// every later call (each warm cache lookup) is a load.
    pub fn content_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = crate::hash::Fnv64::new();
            let mut mix = |word: u64| h.update(&word.to_le_bytes());
            mix(self.n_vertices() as u64);
            for &l in &self.labels {
                mix(l as u64);
            }
            for &o in &self.offsets {
                mix(o as u64);
            }
            for &v in &self.neighbors {
                mix(v as u64);
            }
            h.finish()
        })
    }

    /// Validates internal CSR invariants; used by tests and asserted after
    /// deserialization. Returns `true` iff all invariants hold:
    /// offsets monotone, adjacency sorted and strictly increasing (simple
    /// graph), symmetric, and no self-loops.
    pub fn check_invariants(&self) -> bool {
        if self.offsets.len() != self.n_vertices() + 1 {
            return false;
        }
        if self.offsets[0] != 0 || self.offsets.last() != Some(&self.neighbors.len()) {
            return false;
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        for v in self.vertices() {
            let ns = self.neighbors(v);
            if ns.windows(2).any(|w| w[0] >= w[1]) {
                return false; // unsorted or duplicate
            }
            if ns.binary_search(&v).is_ok() {
                return false; // self-loop
            }
            for &u in ns {
                if u as usize >= self.n_vertices() || self.neighbors(u).binary_search(&v).is_err() {
                    return false; // dangling or asymmetric
                }
            }
        }
        true
    }
}

/// Incremental builder for [`Graph`].
///
/// Labels default to `0`; edges are accumulated and deduplicated at
/// [`GraphBuilder::build`] time.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` vertices, all labeled `0`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            labels: vec![0; n],
            edges: Vec::new(),
        }
    }

    /// Number of vertices declared so far.
    pub fn n_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Sets the label of an existing vertex.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn set_label(&mut self, v: VertexId, label: Label) {
        self.labels[v as usize] = label;
    }

    /// Records an undirected edge. Duplicates are tolerated (removed at
    /// build time); self-loops and out-of-range endpoints are errors.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let n = self.labels.len();
        for &x in &[u, v] {
            if x as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: x as u64,
                    n_vertices: n,
                });
            }
        }
        self.edges.push((u, v));
        Ok(())
    }

    /// Finalizes into an immutable CSR [`Graph`].
    pub fn build(self) -> Graph {
        csr_from_edges(self.labels, &self.edges)
    }
}

/// The one CSR construction: a counting sort of both endpoints of every
/// edge into per-vertex rows, then each row sorted and deduplicated in
/// place (`O(n + m log d_max)`, no global edge sort). `edges` may repeat an
/// edge in either orientation — repeats collapse to one — but holds no
/// self-loop or out-of-range endpoint; callers have rejected both.
pub(crate) fn csr_from_edges(labels: Vec<Label>, edges: &[(VertexId, VertexId)]) -> Graph {
    let n = labels.len();
    let mut offsets = vec![0usize; n + 1];
    for &(u, v) in edges {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0 as VertexId; 2 * edges.len()];
    for &(u, v) in edges {
        neighbors[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        neighbors[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }
    // Sort each row and keep its first copy of every neighbor; a row moves
    // left over the repeats dropped from the rows before it.
    let mut kept = 0;
    let mut max_degree = 0;
    for v in 0..n {
        let (start, end) = (offsets[v], offsets[v + 1]);
        neighbors[start..end].sort_unstable();
        offsets[v] = kept;
        for i in start..end {
            if kept == offsets[v] || neighbors[i] != neighbors[kept - 1] {
                neighbors[kept] = neighbors[i];
                kept += 1;
            }
        }
        max_degree = max_degree.max(kept - offsets[v]);
    }
    offsets[n] = kept;
    if kept < neighbors.len() {
        neighbors.truncate(kept);
        neighbors.shrink_to_fit();
    }
    Graph::from_sorted_rows(labels, offsets, neighbors, max_degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_tail() -> Graph {
        Graph::from_edges(4, &[0, 1, 1, 0], &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_with_tail();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.n_labels(), 2);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_with_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert!(g.check_invariants());
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = Graph::from_edges(2, &[0, 0], &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(b.add_edge(1, 1), Err(GraphError::SelfLoop(1))));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 5),
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n_vertices(), 0);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.n_labels(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.check_invariants());
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = triangle_with_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&Edge::new(0, 1)));
        assert!(edges.contains(&Edge::new(2, 3)));
        // canonical order
        assert!(edges.iter().all(|e| e.u <= e.v));
    }

    #[test]
    fn label_frequencies() {
        let g = triangle_with_tail();
        assert_eq!(g.label_frequencies(), vec![2, 2]);
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        let g = triangle_with_tail();
        assert_eq!(g.content_fingerprint(), g.clone().content_fingerprint());
        // Different label on one vertex → different fingerprint.
        let relabeled =
            Graph::from_edges(4, &[0, 1, 1, 1], &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        assert_ne!(g.content_fingerprint(), relabeled.content_fingerprint());
        // One edge removed → different fingerprint.
        let sparser = Graph::from_edges(4, &[0, 1, 1, 0], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_ne!(g.content_fingerprint(), sparser.content_fingerprint());
        // Different vertex count → different fingerprint.
        let bigger =
            Graph::from_edges(5, &[0, 1, 1, 0, 0], &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        assert_ne!(g.content_fingerprint(), bigger.content_fingerprint());
    }

    /// `g` reassembled from its own CSR arrays (a fresh, unhashed graph).
    fn rebuilt_from_csr(g: &Graph) -> Graph {
        Graph::from_csr_parts(g.labels.clone(), g.offsets.clone(), g.neighbors.clone()).unwrap()
    }

    #[test]
    fn fingerprint_memo_never_changes_the_value_or_equality() {
        let g = triangle_with_tail();
        // Clones taken before and after the original has hashed, and a
        // rebuild that never shares the memo: all four (self, other) memo
        // states compare equal and hash to the same value.
        let cold_clone = g.clone();
        assert!(g.fingerprint.get().is_none() && cold_clone.fingerprint.get().is_none());
        assert_eq!(g, cold_clone); // (empty, empty)
        let fp = g.content_fingerprint();
        assert_eq!(g.fingerprint.get(), Some(&fp));
        assert_eq!(g, cold_clone); // (filled, empty)
        assert_eq!(cold_clone, g); // (empty, filled)
        let warm_clone = g.clone();
        assert_eq!(
            warm_clone.fingerprint.get(),
            Some(&fp),
            "a clone carries it"
        );
        assert_eq!(g, warm_clone); // (filled, filled)
        let rebuilt = rebuilt_from_csr(&g);
        assert_eq!(rebuilt, g);
        for other in [&cold_clone, &warm_clone, &rebuilt] {
            assert_eq!(other.content_fingerprint(), fp);
            assert_eq!(
                other.content_fingerprint(),
                fp,
                "second call reads the memo"
            );
        }
        // A different graph still differs, whichever side has hashed.
        let sparser = Graph::from_edges(4, &[0, 1, 1, 0], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_ne!(g, sparser);
        assert_ne!(sparser.content_fingerprint(), fp);
        assert_ne!(g, sparser);
    }

    #[test]
    fn from_csr_parts_roundtrips_builder_output() {
        let g = triangle_with_tail();
        let g2 = rebuilt_from_csr(&g);
        assert_eq!(g, g2);
        assert_eq!(g2.max_degree(), g.max_degree());
        assert_eq!(g2.n_labels(), g.n_labels());
    }

    #[test]
    fn from_csr_parts_rejects_structural_violations() {
        // Asymmetric: 0 lists 1, 1 lists nothing.
        let bad = Graph::from_csr_parts(vec![0, 0], vec![0, 1, 1], vec![1]);
        assert!(matches!(bad, Err(GraphError::Parse { line: 0, .. })));
        // Odd adjacency length.
        let odd = Graph::from_csr_parts(vec![0], vec![0, 1], vec![0]);
        assert!(odd.is_err());
        // Out-of-range neighbor.
        let oor = Graph::from_csr_parts(vec![0, 0], vec![0, 1, 2], vec![5, 0]);
        assert!(matches!(
            oor,
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
        // Non-monotone offsets.
        let mono = Graph::from_csr_parts(vec![0, 0], vec![0, 2, 1], vec![1]);
        assert!(mono.is_err());
        // Unsorted row.
        let unsorted = Graph::from_csr_parts(vec![0, 0, 0], vec![0, 2, 3, 5], vec![2, 1, 0, 0, 1]);
        assert!(unsorted.is_err());
    }

    #[test]
    fn has_edge_checks_smaller_degree_side() {
        // star: hub 0 with many leaves; has_edge must work in both directions
        let n = 50;
        let labels = vec![0; n];
        let edges: Vec<_> = (1..n as VertexId).map(|v| (0, v)).collect();
        let g = Graph::from_edges(n, &labels, &edges).unwrap();
        assert!(g.has_edge(0, 49));
        assert!(g.has_edge(49, 0));
        assert!(!g.has_edge(1, 2));
    }
}
