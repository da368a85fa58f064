//! Induced subgraphs and connected-component decomposition.
//!
//! These implement Definition 3 of the paper (the candidate substructure
//! `G_sub` is the subgraph of `G` induced by the candidate set `CS(q)`) and
//! the follow-up rule that a disconnected `G_sub` is split into connected
//! candidate substructures.
//!
//! One writer serves both. A dense vertex → slot map marks the chosen
//! set; one DFS over `G`'s rows labels the set's components and counts
//! each one's vertices and edges ([`InducedComponents`]), so a caller can
//! drop a component before anything of it is built. A component's CSR is
//! then copied straight out of `G`'s sorted rows: local ids rise with
//! parent ids, so each filtered row is already sorted and duplicate-free —
//! no edge list, no per-row sort. The slot map and the other buffers are
//! per-thread scratch reused across calls, and the map is cleared entry by
//! entry, so a call costs the size of the set and its rows, not `|V(G)|`.

use crate::graph::Graph;
use crate::types::VertexId;
use std::cell::Cell;

/// An induced subgraph along with its mapping back to the parent graph.
///
/// `origin[i]` is the parent-graph id of local vertex `i`; labels are
/// inherited from the parent (same `f_l`, per Definition 3).
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The extracted graph with local dense ids `0..k`.
    pub graph: Graph,
    /// Local id → parent id.
    pub origin: Vec<VertexId>,
}

/// Extracts the subgraph of `g` induced by `vertices` (Definition 3).
///
/// `vertices` may be in any order and contain duplicates; the result's local
/// ids follow ascending parent-id order, so a binary search of
/// [`InducedSubgraph::origin`] maps a parent id to its local id.
pub fn induced_subgraph(g: &Graph, vertices: &[VertexId]) -> InducedSubgraph {
    let mut set = InducedComponents::mark(g, vertices);
    set.one_group();
    set.build(0)
}

/// Splits a graph into connected components, each returned as an induced
/// subgraph over the parent. Components are ordered by their smallest
/// parent-vertex id.
pub fn connected_components(g: &Graph) -> Vec<InducedSubgraph> {
    let all: Vec<VertexId> = g.vertices().collect();
    let comps = InducedComponents::new(g, &all);
    (0..comps.len()).map(|c| comps.build(c)).collect()
}

/// Marks a vertex with no slot in the set.
const NONE: u32 = u32::MAX;

/// The buffers of one [`InducedComponents`], kept per thread between calls.
/// Between calls every `slot` entry is [`NONE`].
#[derive(Default)]
struct Scratch {
    /// Parent id → position in `members`, [`NONE`] outside the set.
    slot: Vec<u32>,
    /// The set, ascending and duplicate-free.
    members: Vec<VertexId>,
    /// Position → component.
    comp: Vec<u32>,
    /// Position → local id in its component.
    local: Vec<VertexId>,
    /// Positions grouped by component, ascending within each:
    /// component `c` owns `order[start[c]..start[c + 1]]`.
    order: Vec<u32>,
    start: Vec<usize>,
    /// Component → edge count.
    edges: Vec<usize>,
    /// The DFS stack, and the fill cursor per component while grouping.
    stack: Vec<u32>,
    cursor: Vec<usize>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// The connected components of the subgraph of `g` induced by a vertex
/// set, labelled and sized but not yet built.
///
/// Components are numbered by their smallest parent id, as in
/// [`connected_components`]; [`InducedComponents::build`] writes one as an
/// [`InducedSubgraph`] equal to what [`connected_components`] returns for
/// it. A component nobody builds costs its share of the DFS and nothing
/// else.
///
/// ```
/// use neursc_graph::induced::InducedComponents;
/// use neursc_graph::Graph;
/// // A triangle and a separate edge.
/// let g = Graph::from_edges(5, &[0, 1, 2, 3, 4], &[(0, 1), (1, 2), (0, 2), (3, 4)]).unwrap();
/// let comps = InducedComponents::new(&g, &[4, 0, 2, 3]);
/// assert_eq!(comps.len(), 2);
/// assert_eq!((comps.n_vertices(0), comps.n_edges(0)), (2, 1)); // {0, 2}
/// assert_eq!(comps.locate(3), Some((1, 0)));
/// assert_eq!(comps.locate(1), None);
/// assert_eq!(comps.build(1).origin, vec![3, 4]);
/// ```
pub struct InducedComponents<'g> {
    g: &'g Graph,
    s: Scratch,
}

impl<'g> InducedComponents<'g> {
    /// Labels the components of the subgraph of `g` induced by `vertices`
    /// (any order, duplicates allowed).
    ///
    /// # Panics
    /// If a vertex is out of `g`'s range.
    pub fn new(g: &'g Graph, vertices: &[VertexId]) -> Self {
        let mut set = Self::mark(g, vertices);
        set.split();
        set
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.s.edges.len()
    }

    /// Whether the vertex set was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vertices of component `c`.
    pub fn n_vertices(&self, c: usize) -> usize {
        self.s.start[c + 1] - self.s.start[c]
    }

    /// Edges of component `c`.
    pub fn n_edges(&self, c: usize) -> usize {
        self.s.edges[c]
    }

    /// The component of parent vertex `v` and its local id there, `None`
    /// when `v` is not in the set.
    pub fn locate(&self, v: VertexId) -> Option<(usize, VertexId)> {
        match self.s.slot.get(v as usize) {
            Some(&p) if p != NONE => {
                Some((self.s.comp[p as usize] as usize, self.s.local[p as usize]))
            }
            _ => None,
        }
    }

    /// Writes component `c` from `g`'s rows: local ids in ascending parent
    /// order, every row filtered to the set and already sorted.
    pub fn build(&self, c: usize) -> InducedSubgraph {
        let s = &self.s;
        let positions = &s.order[s.start[c]..s.start[c + 1]];
        let k = positions.len();
        let mut origin = Vec::with_capacity(k);
        let mut labels = Vec::with_capacity(k);
        let mut offsets = Vec::with_capacity(k + 1);
        let mut neighbors = Vec::with_capacity(2 * s.edges[c]);
        let mut max_degree = 0;
        offsets.push(0);
        for &p in positions {
            let v = s.members[p as usize];
            origin.push(v);
            labels.push(self.g.label(v));
            let row_start = neighbors.len();
            for &w in self.g.neighbors(v) {
                let q = s.slot[w as usize];
                if q != NONE {
                    neighbors.push(s.local[q as usize]);
                }
            }
            max_degree = max_degree.max(neighbors.len() - row_start);
            offsets.push(neighbors.len());
        }
        InducedSubgraph {
            graph: Graph::from_sorted_rows(labels, offsets, neighbors, max_degree),
            origin,
        }
    }

    /// Takes the thread's scratch and marks `vertices` in its slot map.
    fn mark(g: &'g Graph, vertices: &[VertexId]) -> Self {
        let mut s = SCRATCH.with(Cell::take);
        s.members.clear();
        s.members.extend_from_slice(vertices);
        s.members.sort_unstable();
        s.members.dedup();
        if let Some(&v) = s.members.last() {
            assert!(
                (v as usize) < g.n_vertices(),
                "vertex {v} is out of range for a graph of {} vertices",
                g.n_vertices()
            );
        }
        if s.slot.len() < g.n_vertices() {
            s.slot.resize(g.n_vertices(), NONE);
        }
        for (p, &v) in s.members.iter().enumerate() {
            s.slot[v as usize] = p as u32;
        }
        InducedComponents { g, s }
    }

    /// Labels the components by one DFS over `g`'s rows, counting each
    /// one's vertices (into `start`) and edges as it goes.
    fn split(&mut self) {
        let (g, s) = (self.g, &mut self.s);
        s.comp.clear();
        s.comp.resize(s.members.len(), NONE);
        s.start.clear();
        s.edges.clear();
        for root in 0..s.members.len() {
            if s.comp[root] != NONE {
                continue;
            }
            let c = s.edges.len() as u32;
            s.comp[root] = c;
            s.stack.push(root as u32);
            let (mut n, mut degree_sum) = (0, 0);
            while let Some(p) = s.stack.pop() {
                n += 1;
                for &w in g.neighbors(s.members[p as usize]) {
                    let q = s.slot[w as usize];
                    if q != NONE {
                        degree_sum += 1;
                        if s.comp[q as usize] == NONE {
                            s.comp[q as usize] = c;
                            s.stack.push(q);
                        }
                    }
                }
            }
            s.start.push(n);
            s.edges.push(degree_sum / 2);
        }
        self.group();
    }

    /// Puts the whole set in component 0, connected or not.
    fn one_group(&mut self) {
        let (g, s) = (self.g, &mut self.s);
        let degree_sum: usize = s
            .members
            .iter()
            .map(|&v| {
                let row = g.neighbors(v);
                row.iter().filter(|&&w| s.slot[w as usize] != NONE).count()
            })
            .sum();
        s.comp.clear();
        s.comp.resize(s.members.len(), 0);
        s.start.clear();
        s.start.push(s.members.len());
        s.edges.clear();
        s.edges.push(degree_sum / 2);
        self.group();
    }

    /// Turns the per-component vertex counts in `start` into offsets and
    /// fills `order` and `local` by a counting sort of the positions.
    fn group(&mut self) {
        let s = &mut self.s;
        let mut acc = 0;
        for entry in s.start.iter_mut() {
            let n = *entry;
            *entry = acc;
            acc += n;
        }
        s.start.push(acc);
        s.cursor.clear();
        s.cursor.extend_from_slice(&s.start[..s.start.len() - 1]);
        s.order.clear();
        s.order.resize(s.members.len(), 0);
        s.local.clear();
        s.local.resize(s.members.len(), 0);
        for (p, &c) in s.comp.iter().enumerate() {
            let at = s.cursor[c as usize];
            s.cursor[c as usize] += 1;
            s.order[at] = p as u32;
            s.local[p] = (at - s.start[c as usize]) as VertexId;
        }
    }
}

/// Clears the marks and hands the scratch back to the thread, also when a
/// panic unwinds through the owner.
impl Drop for InducedComponents<'_> {
    fn drop(&mut self) {
        for &v in &self.s.members {
            self.s.slot[v as usize] = NONE;
        }
        let s = std::mem::take(&mut self.s);
        // During thread teardown the slot is gone and the buffers are
        // simply freed.
        let _ = SCRATCH.try_with(|cell| cell.set(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        // Two components: triangle {0,1,2} and edge {3,4}; labels 0..=4.
        Graph::from_edges(5, &[0, 1, 2, 3, 4], &[(0, 1), (1, 2), (0, 2), (3, 4)]).unwrap()
    }

    #[test]
    fn induced_keeps_only_internal_edges() {
        let g = sample();
        let sub = induced_subgraph(&g, &[0, 2, 3]);
        assert_eq!(sub.graph.n_vertices(), 3);
        assert_eq!(sub.graph.n_edges(), 1); // only (0,2) survives
        assert_eq!(sub.origin, vec![0, 2, 3]);
        // labels inherited
        assert_eq!(sub.graph.label(0), 0);
        assert_eq!(sub.graph.label(1), 2);
        assert_eq!(sub.graph.label(2), 3);
    }

    #[test]
    fn induced_handles_duplicates_and_order() {
        let g = sample();
        let sub = induced_subgraph(&g, &[2, 0, 2, 1]);
        assert_eq!(sub.graph.n_vertices(), 3);
        assert_eq!(sub.graph.n_edges(), 3); // whole triangle
        assert_eq!(sub.origin, vec![0, 1, 2]);
    }

    #[test]
    fn components_partition_the_graph() {
        let g = sample();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].origin, vec![0, 1, 2]);
        assert_eq!(comps[0].graph.n_edges(), 3);
        assert_eq!(comps[1].origin, vec![3, 4]);
        assert_eq!(comps[1].graph.n_edges(), 1);
    }

    #[test]
    fn components_of_connected_graph_is_identity() {
        let g = Graph::from_edges(3, &[5, 6, 7], &[(0, 1), (1, 2)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].origin, vec![0, 1, 2]);
        assert_eq!(comps[0].graph, g);
    }

    #[test]
    fn isolated_vertices_become_singleton_components() {
        let g = Graph::from_edges(3, &[0, 0, 0], &[]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.graph.n_vertices() == 1));
    }

    #[test]
    fn empty_selection_gives_empty_graph() {
        let g = sample();
        let sub = induced_subgraph(&g, &[]);
        assert_eq!(sub.graph.n_vertices(), 0);
        assert_eq!(sub.graph.n_edges(), 0);
    }
}
