//! Graph neural network layers for the NeurSC reproduction, built on
//! [`neursc_nn`]'s autograd.
//!
//! * [`features`] — the paper's feature initialization (Eq. 1): binary
//!   encodings of degree and label concatenated with mean-pooled i-hop
//!   neighborhood encodings.
//! * [`edges`] — CSR → directed edge arrays, the input format of the
//!   segment-based message-passing kernels.
//! * [`gin`] — the Graph Isomorphism Network (Eq. 3), WEst's intra-graph
//!   network, as expressive as the 1-WL test (Lemma 5.1).
//! * [`attention`] — the GAT-style attentive layer (Eq. 4–5) applied to the
//!   query–candidate bipartite graph, WEst's inter-graph network.

pub mod attention;
pub mod edges;
pub mod features;
pub mod gin;
pub mod infer;
pub mod softmax;

pub use attention::{AttentionConfig, BipartiteAttention};
pub use edges::EdgeList;
pub use features::{init_features, FeatureCache, FeatureConfig};
pub use gin::{GinConfig, GinStack};
pub use softmax::row_softmax;
