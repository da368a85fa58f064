//! r-hop label profiles (GraphQL local pruning, paper §4(1)).
//!
//! The *profile* of a vertex `u` within radius `r` is the lexicographically
//! ordered multiset of labels of `u` and of every vertex within `r` hops.
//! Local pruning keeps `v ∈ CS(u)` iff the profile of `u` is a sub-multiset
//! (equivalently: a subsequence of the sorted sequence) of the profile of
//! `v` — a necessary condition for `(u, v)` to appear in any match, because
//! a subgraph-isomorphism embedding maps the r-ball of `u` injectively and
//! label-preservingly into the r-ball of `v`.
//!
//! [`all_profiles`] returns a [`Profiles`]: the profiles by vertex id plus,
//! per label, that label's vertices in ascending id order, each stored as
//! `(id, degree, signature)`. A profile's `Signature` counts, for each of
//! 64 bits, the labels `l` of the profile with `l mod 64` on that bit,
//! saturating at two: `once` holds the bits counted at least once, `twice`
//! those counted at least twice. Local pruning tests signatures before it
//! runs the multiset merge ([`subsumes`]):
//!
//! - *Necessary, always.* If profile(u) ⊑ profile(v), every label of `u`
//!   is also in `v`, as often, so no bit counts more labels in `u` than in
//!   `v` and the bits of `sig(u)` are a subset of those of `sig(v)`. That
//!   holds whichever labels share a bit, so a signature reject is always a
//!   pair [`subsumes`] rejects too; sharing only sends more pairs on to it.
//! - *Sufficient, sometimes.* When every label of the data graph and of
//!   profile(u) is below 64, each bit counts one label, and when profile(u)
//!   holds no label three times, its counts are exact. Then subset-of-bits
//!   says every label of `u` is in `v` at least as often: it *is* multiset
//!   inclusion, and the merge is skipped (`Profiles::signature_decides`).

use neursc_graph::types::{Label, VertexId};
use neursc_graph::Graph;
use std::ops::Deref;

/// The sorted label multiset of a vertex's r-ball.
pub type Profile = Vec<Label>;

/// Shared `(graph, radius) → all_profiles` cache: [`all_profiles`] is by far
/// the most expensive graph-wide precomputation of the filtering pipeline
/// (a BFS per vertex for `r > 1`) and depends only on `(G, r)`, so across a
/// query batch it is computed once — `cache.get_or_build(g, &r, ||
/// all_profiles(g, r))` — and shared, label buckets included.
pub type ProfileCache = neursc_graph::cache::GraphCache<u32, Profiles>;

/// One vertex of a label bucket: everything local pruning reads before it
/// reaches the profile itself, in 24 bytes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BucketEntry {
    pub(crate) id: VertexId,
    /// `d(v)`, saturated at `u32::MAX` (no vertex id space reaches it).
    pub(crate) degree: u32,
    pub(crate) signature: Signature,
}

/// The radius-`r` profiles of every vertex of a graph and its label
/// buckets. Derefs to the profiles, indexed by vertex id.
#[derive(Debug)]
pub struct Profiles {
    profiles: Vec<Profile>,
    /// Label `l`'s bucket is `entries[starts[l]..starts[l + 1]]`.
    starts: Vec<usize>,
    /// Every vertex once, bucket-major, ascending id within a bucket.
    entries: Vec<BucketEntry>,
}

impl Profiles {
    /// The vertices labeled `l`, ascending by id; empty for a label the
    /// graph does not carry, however large.
    pub(crate) fn bucket(&self, l: Label) -> &[BucketEntry] {
        let l = l as usize;
        match (self.starts.get(l), self.starts.get(l + 1)) {
            (Some(&lo), Some(&hi)) => &self.entries[lo..hi],
            _ => &[],
        }
    }

    /// Whether [`Signature::within`] alone decides `needle ⊑ profile(v)`
    /// for every vertex `v` of this graph (module doc): the graph's labels
    /// and the sorted `needle`'s are all below 64, and `needle` holds no
    /// label three times.
    pub(crate) fn signature_decides(&self, needle: &[Label]) -> bool {
        let n_labels = self.starts.len() - 1;
        n_labels <= 64
            && needle.last().is_none_or(|&l| l < 64)
            && !needle.windows(3).any(|w| w[0] == w[2])
    }
}

impl Deref for Profiles {
    type Target = [Profile];

    fn deref(&self) -> &[Profile] {
        &self.profiles
    }
}

/// The label signature of a profile (module doc): `once` has the bits
/// some label `l` of it sets as `l mod 64`, `twice` the bits two or more of
/// its labels set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Signature {
    once: u64,
    twice: u64,
}

impl Signature {
    pub(crate) fn of(profile: &[Label]) -> Signature {
        profile.iter().fold(Signature::default(), |s, &l| {
            let bit = 1u64 << (l % 64);
            Signature {
                once: s.once | bit,
                twice: s.twice | (s.once & bit),
            }
        })
    }

    /// Every bit of `self` is set in `other`: necessary for `self`'s
    /// profile ⊑ `other`'s, and sufficient where
    /// `Profiles::signature_decides`.
    pub(crate) fn within(self, other: Signature) -> bool {
        self.once & !other.once == 0 && self.twice & !other.twice == 0
    }
}

/// Fills `out` with the radius-1 profile of a vertex given its own label
/// and its neighbors' labels — the radius-1 case of [`all_profiles`].
fn profile_r1_into(
    own: Label,
    neighbor_labels: impl IntoIterator<Item = Label>,
    out: &mut Vec<Label>,
) {
    out.clear();
    out.push(own);
    out.extend(neighbor_labels);
    out.sort_unstable();
}

/// Computes all radius-`r` profiles of `g` and indexes them by label: one
/// counting sort, `O(|V| + labels)` on top of the profiles.
pub fn all_profiles(g: &Graph, r: u32) -> Profiles {
    let profiles = profile_lists(g, r);
    let mut starts = vec![0usize; g.n_labels() + 1];
    for &l in g.labels() {
        starts[l as usize + 1] += 1;
    }
    for l in 1..starts.len() {
        starts[l] += starts[l - 1];
    }
    let mut cursor = starts.clone();
    let mut entries = vec![BucketEntry::default(); profiles.len()];
    for (v, profile) in g.vertices().zip(&profiles) {
        let slot = &mut cursor[g.label(v) as usize];
        entries[*slot] = BucketEntry {
            id: v,
            degree: u32::try_from(g.degree(v)).unwrap_or(u32::MAX),
            signature: Signature::of(profile),
        };
        *slot += 1;
    }
    Profiles {
        profiles,
        starts,
        entries,
    }
}

/// The radius-`r` profiles of every vertex, by id, without the label index
/// (what a query needs). `r = 1` is one `O(n + m)` label gather plus
/// sorting — GraphQL's default and what NeurSC uses. `r > 1` runs a BFS per
/// vertex but reuses one queue and one stamp-based visited array across
/// all of them — per-vertex BFS allocation was the dominant cost of this
/// path on large data graphs.
pub(crate) fn profile_lists(g: &Graph, r: u32) -> Vec<Profile> {
    if r == 1 {
        return g
            .vertices()
            .map(|v| {
                let mut labels: Vec<Label> = Vec::with_capacity(g.degree(v) + 1);
                profile_r1_into(
                    g.label(v),
                    g.neighbors(v).iter().map(|&u| g.label(u)),
                    &mut labels,
                );
                labels
            })
            .collect();
    }
    let n = g.n_vertices();
    // `visited[u] == stamp` ⇔ u reached in the BFS from vertex `stamp`.
    let mut visited: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut queue: Vec<VertexId> = Vec::new();
    g.vertices()
        .map(|v| {
            queue.clear();
            queue.push(v);
            visited[v as usize] = v;
            let mut head = 0;
            let mut frontier_end = queue.len();
            let mut depth = 0;
            while depth < r && head < queue.len() {
                while head < frontier_end {
                    let u = queue[head];
                    head += 1;
                    for &w in g.neighbors(u) {
                        if visited[w as usize] != v {
                            visited[w as usize] = v;
                            queue.push(w);
                        }
                    }
                }
                frontier_end = queue.len();
                depth += 1;
            }
            let mut labels: Vec<Label> = queue.iter().map(|&u| g.label(u)).collect();
            labels.sort_unstable();
            labels
        })
        .collect()
}

/// Multiset-inclusion test on two sorted label sequences: does `needle`
/// subsume into `haystack`? Linear two-pointer merge.
pub fn subsumes(haystack: &[Label], needle: &[Label]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    let mut i = 0; // haystack cursor
    for &x in needle {
        // advance haystack until we find x
        while i < haystack.len() && haystack[i] < x {
            i += 1;
        }
        if i >= haystack.len() || haystack[i] != x {
            return false;
        }
        i += 1;
    }
    true
}

/// Test fixture: a data graph reproducing the paper's Figure 1b / Example 1
/// semantics. Labels: `A = 0, B = 1, C = 2, D = 3`; vertex `v{i}` of the
/// figure is id `i − 1`.
///
/// The graph is constructed so that, exactly as in Example 1, local pruning
/// yields `CS(u2) = {v2, v3, v4}` and global refinement shrinks it to
/// `{v4}`, the final candidate sets are `CS(u1) = {v1}`, `CS(u3) = {v5,
/// v6}`, `CS(u4) = {v10, v11}`, and the query has exactly **3** embeddings.
pub fn paper_data_graph() -> Graph {
    let labels = [0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3];
    let edges = [
        (0, 1),  // v1-v2
        (0, 2),  // v1-v3
        (0, 3),  // v1-v4
        (1, 12), // v2-v13
        (2, 12), // v3-v13
        (3, 4),  // v4-v5
        (3, 5),  // v4-v6
        (3, 9),  // v4-v10
        (3, 10), // v4-v11
        (4, 9),  // v5-v10
        (4, 10), // v5-v11
        (5, 10), // v6-v11
        (6, 11), // v7-v12
        (7, 11), // v8-v12
        (8, 11), // v9-v12
    ];
    Graph::from_edges(13, &labels, &edges).unwrap_or_else(|_| unreachable!("static fixture"))
}

/// Test fixture: the Figure 1a query graph — `u1(A)−u2(B)`, `u2−u4(D)`,
/// `u3(C)−u4` (profiles match Example 1: profile(u2) = {A, B, D}).
pub fn paper_query_graph() -> Graph {
    Graph::from_edges(4, &[0, 1, 2, 3], &[(0, 1), (1, 3), (2, 3)])
        .unwrap_or_else(|_| unreachable!("static fixture"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_graph::traversal::khop_ball;

    /// One vertex's radius-`r` profile straight from its BFS ball: the
    /// definition the graph-wide builders are checked against.
    fn vertex_profile(g: &Graph, v: VertexId, r: u32) -> Profile {
        let mut labels: Vec<Label> = khop_ball(g, v, r).into_iter().map(|u| g.label(u)).collect();
        labels.sort_unstable();
        labels
    }

    #[test]
    fn paper_graph_fingerprints_are_pinned() {
        // Golden values: every cache key and request digest derives from
        // `content_fingerprint`, so it must never move.
        assert_eq!(
            paper_data_graph().content_fingerprint(),
            0x907b_1c70_c410_5cef
        );
        assert_eq!(
            paper_query_graph().content_fingerprint(),
            0x96e5_68f1_ce1a_e223
        );
    }

    #[test]
    fn profile_contains_self_and_neighbors() {
        let g = paper_data_graph();
        // v4 (id 3): label B, neighbors v1(A), v5(C), v6(C), v10(D), v11(D)
        let p = vertex_profile(&g, 3, 1);
        assert_eq!(p, vec![0, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn all_profiles_match_per_vertex() {
        let g = paper_data_graph();
        for r in [1u32, 2, 3, 4] {
            let all = all_profiles(&g, r);
            for v in g.vertices() {
                assert_eq!(all[v as usize], vertex_profile(&g, v, r), "r={r} v={v}");
            }
        }
    }

    #[test]
    fn buckets_hold_each_label_ascending_with_degree_and_signature() {
        // Labels 1 and 65 share signature bit 1; label 3 is carried by no
        // vertex below the largest label.
        let g = Graph::from_edges(
            6,
            &[65, 1, 0, 65, 1, 2],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)],
        )
        .unwrap();
        let all = all_profiles(&g, 1);
        let mut seen = Vec::new();
        for l in 0..=g.n_labels() as Label + 64 {
            let ids: Vec<VertexId> = all.bucket(l).iter().map(|e| e.id).collect();
            let want: Vec<VertexId> = g.vertices().filter(|&v| g.label(v) == l).collect();
            assert_eq!(ids, want, "label {l}");
            for e in all.bucket(l) {
                assert_eq!(e.degree as usize, g.degree(e.id));
                assert_eq!(e.signature, Signature::of(&all[e.id as usize]));
            }
            seen.extend(ids);
        }
        seen.sort_unstable();
        assert_eq!(seen, g.vertices().collect::<Vec<_>>());
        assert!(all.bucket(Label::MAX).is_empty());
        let sig = |p: &[Label]| Signature::of(p);
        assert_eq!(
            sig(&[1, 65]),
            sig(&[1, 1]),
            "65 shares 1's bit: it counts two"
        );
        assert_eq!(
            sig(&[0, 2, 63, 63, 64]),
            Signature {
                once: 1 | 1 << 2 | 1 << 63,
                twice: 1 | 1 << 63
            }
        );
    }

    /// Every sorted multiset of at most four of the labels 0, 1, 2 and 64
    /// (which shares 0's bit), as needle against haystack: the signature
    /// test never rejects an inclusion, and where `signature_decides` (for
    /// a graph whose labels are 0..=3) it is the inclusion test.
    #[test]
    fn signature_is_necessary_and_decides_where_it_claims_to() {
        const ALPHABET: [Label; 4] = [0, 1, 2, 64];
        fn multisets(prefix: Vec<Label>, from: usize, out: &mut Vec<Vec<Label>>) {
            out.push(prefix.clone());
            if prefix.len() < 4 {
                for (i, &l) in ALPHABET.iter().enumerate().skip(from) {
                    let mut next = prefix.clone();
                    next.push(l);
                    multisets(next, i, out);
                }
            }
        }
        let mut all = Vec::new();
        multisets(Vec::new(), 0, &mut all);
        let index = all_profiles(&paper_data_graph(), 1);
        let mut decided = 0;
        for needle in &all {
            for hay in &all {
                let (fits, within) = (
                    subsumes(hay, needle),
                    Signature::of(needle).within(Signature::of(hay)),
                );
                assert!(within || !fits, "{needle:?} ⊑ {hay:?} rejected");
                // A haystack with label 64 cannot come from that graph.
                if index.signature_decides(needle) && !hay.contains(&64) {
                    assert_eq!(within, fits, "{needle:?} against {hay:?}");
                    decided += 1;
                }
            }
        }
        assert!(decided > 0);
        assert!(!index.signature_decides(&[0, 0, 0]), "three of a label");
        assert!(
            !index.signature_decides(&[0, 64]),
            "a label without a bit of its own"
        );
        let wide = Graph::from_edges(2, &[0, 64], &[(0, 1)]).unwrap();
        assert!(
            !all_profiles(&wide, 1).signature_decides(&[0]),
            "a graph label above 63"
        );
    }

    #[test]
    fn radius2_profile_is_superset_of_radius1() {
        let g = paper_data_graph();
        for v in g.vertices() {
            let p1 = vertex_profile(&g, v, 1);
            let p2 = vertex_profile(&g, v, 2);
            assert!(subsumes(&p2, &p1));
        }
    }

    #[test]
    fn subsumes_multiset_semantics() {
        assert!(subsumes(&[0, 1, 1, 2], &[1, 2]));
        assert!(subsumes(&[0, 1, 1, 2], &[1, 1]));
        assert!(!subsumes(&[0, 1, 2], &[1, 1])); // multiplicity matters
        assert!(!subsumes(&[0, 1], &[3]));
        assert!(subsumes(&[5], &[]));
        assert!(!subsumes(&[], &[0]));
        assert!(subsumes(&[], &[]));
    }

    #[test]
    fn paper_example_profiles() {
        // Example 1: profile(u2) = {A, B, D}; the profiles of v2, v3 are
        // also {A, B, D} and v4's is {A, B, C, C, D, D}; all subsume u2's.
        let q = paper_query_graph();
        let g = paper_data_graph();
        let pu2 = vertex_profile(&q, 1, 1);
        assert_eq!(pu2, vec![0, 1, 3]);
        for data_v in [1u32, 2, 3] {
            assert!(subsumes(&vertex_profile(&g, data_v, 1), &pu2));
        }
        // v10 (D-labeled) must not subsume a B-rooted profile.
        assert!(!subsumes(&vertex_profile(&g, 9, 1), &pu2));
    }

    #[test]
    fn paper_example_u3_candidates_after_local_pruning() {
        // profile(u3) = {C, D}; every C vertex adjacent to a D vertex passes.
        let q = paper_query_graph();
        let g = paper_data_graph();
        let pu3 = vertex_profile(&q, 2, 1);
        assert_eq!(pu3, vec![2, 3]);
        let passing: Vec<u32> = all_profiles(&g, 1)
            .bucket(2)
            .iter()
            .map(|e| e.id)
            .filter(|&v| subsumes(&vertex_profile(&g, v, 1), &pu3))
            .collect();
        // v5..v9 (ids 4..=8) all pass local pruning; refinement later
        // removes v7, v8, v9 (their D neighbor v12 is not in CS(u4)).
        assert_eq!(passing, vec![4, 5, 6, 7, 8]);
    }
}
