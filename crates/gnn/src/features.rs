//! Feature initialization (paper §5.1, Eq. 1).
//!
//! Each vertex's initial feature is
//!
//! ```text
//! x_v = f_b(deg_v) ‖ f_b(f_l(v)) ‖_{i=1..k} MeanPool_{v' ∈ N^{(i)}(v)} ( f_b(deg_{v'}) ‖ f_b(f_l(v')) )
//! ```
//!
//! where `f_b` is plain binary encoding of the integer into a fixed-width
//! 0/1 vector (the paper pads with leading zeros so all vectors share one
//! length). With the defaults (16 bits each for degree and label, k = 1
//! neighborhood ring) the feature dimension is 64 — the paper's `dim_0`.

use neursc_graph::traversal::khop_rings;
use neursc_graph::{Graph, VertexId};
use neursc_nn::Tensor;

/// Configuration of the Eq. 1 feature encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Bits used for the degree encoding (values clamp at `2^bits − 1`).
    pub degree_bits: usize,
    /// Bits used for the label encoding.
    pub label_bits: usize,
    /// Number of neighborhood rings `k` to mean-pool (Eq. 1's `‖_{i=1}^k`).
    pub k_hops: u32,
}

/// Shared `(graph, feature config) → init_features` cache. Query graphs are
/// tiny and always distinct, but the *data* graph's `O(n · d^k)` matrix
/// recurs — the `NeurSC w/o SE` variant featurizes all of `G` for every
/// query — so it is built once per `(G, cfg)`: `cache.get_or_build(g, cfg,
/// || init_features(g, cfg))`.
pub type FeatureCache = neursc_graph::cache::GraphCache<FeatureConfig, Tensor>;

impl Default for FeatureConfig {
    fn default() -> Self {
        // 16 + 16 + 1·(16+16) = 64 = the paper's dim_0.
        FeatureConfig {
            degree_bits: 16,
            label_bits: 16,
            k_hops: 1,
        }
    }
}

impl FeatureConfig {
    /// The resulting feature dimension `dim_0`.
    pub fn dim(&self) -> usize {
        (self.degree_bits + self.label_bits) * (1 + self.k_hops as usize)
    }
}

/// Binary encoding `f_b`: little-endian bits of `value`, clamped to the
/// representable range, written into `out`.
fn encode_binary(value: u64, bits: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), bits);
    let max = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let v = value.min(max);
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = ((v >> i) & 1) as f32;
    }
}

/// Computes the `[n, dim_0]` initial feature matrix of a graph.
pub fn init_features(g: &Graph, cfg: &FeatureConfig) -> Tensor {
    let unit = cfg.degree_bits + cfg.label_bits;
    let dim = cfg.dim();
    let n = g.n_vertices();
    let mut x = Tensor::zeros(n, dim);
    // Every vertex's own `f_b(deg) ‖ f_b(label)` first: the ring segments
    // below pool these rows instead of encoding each neighbor again.
    for v in g.vertices() {
        let row = x.row_mut(v as usize);
        encode_binary(
            g.degree(v) as u64,
            cfg.degree_bits,
            &mut row[..cfg.degree_bits],
        );
        encode_binary(
            g.label(v) as u64,
            cfg.label_bits,
            &mut row[cfg.degree_bits..unit],
        );
    }
    if cfg.k_hops == 0 {
        return x;
    }
    let mut pooled = vec![0.0f32; unit];
    for v in g.vertices() {
        // The 1-hop ring is the adjacency list itself (sorted, no self
        // loop), pooled in place; `khop_rings` would run a BFS and an
        // `O(n)` scan per vertex.
        if cfg.k_hops == 1 {
            pool_ring(&mut x, v, 0, g.neighbors(v), unit, &mut pooled);
        } else {
            for (i, ring) in khop_rings(g, v, cfg.k_hops).iter().enumerate() {
                pool_ring(&mut x, v, i, ring, unit, &mut pooled);
            }
        }
    }
    x
}

/// Writes ring `i` of `v` — the mean of the `unit`-wide own encodings of
/// `ring`'s vertices — into `v`'s segment `1 + i`. An empty ring's mean
/// stays zero.
fn pool_ring(
    x: &mut Tensor,
    v: VertexId,
    i: usize,
    ring: &[VertexId],
    unit: usize,
    pooled: &mut [f32],
) {
    if ring.is_empty() {
        return;
    }
    pooled.fill(0.0);
    for &u in ring {
        for (s, &b) in pooled.iter_mut().zip(&x.row(u as usize)[..unit]) {
            *s += b;
        }
    }
    let inv = 1.0 / ring.len() as f32;
    let seg = &mut x.row_mut(v as usize)[unit * (1 + i)..unit * (2 + i)];
    for (o, &s) in seg.iter_mut().zip(pooled.iter()) {
        *o = s * inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_graph::Graph;

    #[test]
    fn default_dim_is_64() {
        assert_eq!(FeatureConfig::default().dim(), 64);
    }

    #[test]
    fn binary_encoding_of_degree_and_label() {
        // Path 0-1-2 with labels 5, 3, 0.
        let g = Graph::from_edges(3, &[5, 3, 0], &[(0, 1), (1, 2)]).unwrap();
        let cfg = FeatureConfig {
            degree_bits: 4,
            label_bits: 4,
            k_hops: 0,
        };
        let x = init_features(&g, &cfg);
        assert_eq!(x.shape(), (3, 8));
        // vertex 1: degree 2 → bits 0100 (LE), label 3 → 1100 (LE)
        assert_eq!(x.row(1), &[0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        // vertex 0: degree 1 → 1000, label 5 → 1010
        assert_eq!(x.row(0), &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn neighborhood_mean_pool() {
        // Star: center 0 with leaves 1, 2 (labels 1 and 3, degree 1 each).
        let g = Graph::from_edges(3, &[0, 1, 3], &[(0, 1), (0, 2)]).unwrap();
        let cfg = FeatureConfig {
            degree_bits: 2,
            label_bits: 2,
            k_hops: 1,
        };
        let x = init_features(&g, &cfg);
        assert_eq!(x.shape(), (3, 8));
        // center's ring segment: mean of (deg=1 → [1,0], label=1 → [1,0])
        // and (deg=1 → [1,0], label=3 → [1,1]) = [1, 0, 1, 0.5]
        assert_eq!(&x.row(0)[4..], &[1.0, 0.0, 1.0, 0.5]);
    }

    #[test]
    fn values_clamp_at_bit_capacity() {
        // Label 100 with only 3 bits: clamps to 7 = 111.
        let g = Graph::from_edges(1, &[100], &[]).unwrap();
        let cfg = FeatureConfig {
            degree_bits: 3,
            label_bits: 3,
            k_hops: 0,
        };
        let x = init_features(&g, &cfg);
        assert_eq!(x.row(0), &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn isolated_vertex_ring_is_zero() {
        let g = Graph::from_edges(2, &[1, 1], &[]).unwrap();
        let x = init_features(&g, &FeatureConfig::default());
        let unit = 32;
        assert!(x.row(0)[unit..].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn features_are_binary_or_means() {
        let g = Graph::from_edges(4, &[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let x = init_features(&g, &FeatureConfig::default());
        for i in 0..x.len() {
            let v = x.data()[i];
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn khop2_adds_second_ring_segment() {
        let g = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let cfg = FeatureConfig {
            degree_bits: 2,
            label_bits: 2,
            k_hops: 2,
        };
        let x = init_features(&g, &cfg);
        assert_eq!(x.cols(), 12);
        // vertex 0's 2-ring = {2}: deg 1 → [1,0], label 2 → [0,1]
        assert_eq!(&x.row(0)[8..], &[1.0, 0.0, 0.0, 1.0]);
        // k = 1 reads the adjacency list instead of running the BFS that
        // k = 2 runs: the first ring segment must not depend on which.
        let x1 = init_features(&g, &FeatureConfig { k_hops: 1, ..cfg });
        for v in 0..3 {
            assert_eq!(x1.row(v), &x.row(v)[..8]);
        }
    }

    #[test]
    fn query_and_data_share_encoding_space() {
        // Same (degree, label) in two different graphs must encode equally —
        // required for intra-GNN weight sharing between q and G_sub.
        let g1 = Graph::from_edges(2, &[4, 4], &[(0, 1)]).unwrap();
        let g2 = Graph::from_edges(3, &[4, 4, 9], &[(0, 1)]).unwrap();
        let cfg = FeatureConfig::default();
        let x1 = init_features(&g1, &cfg);
        let x2 = init_features(&g2, &cfg);
        assert_eq!(x1.row(0), x2.row(0));
    }
}
