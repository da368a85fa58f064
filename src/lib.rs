//! # NeurSC — Neural Subgraph Counting with a Wasserstein Estimator
//!
//! A from-scratch Rust reproduction of the SIGMOD 2022 paper, spanning the
//! full system: graph substrate, exact subgraph matching (filtering +
//! counting), a tensor/autograd library, GNN layers, the NeurSC model with
//! its Wasserstein discriminator, every baseline the paper compares
//! against, and the complete experiment workloads.
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `neursc-graph` | CSR labeled graphs, generators, sampling, WL |
//! | [`matching`] | `neursc-match` | candidate filtering, exact counting |
//! | [`nn`] | `neursc-nn` | tensors, autograd, layers, optimizers |
//! | [`gnn`] | `neursc-gnn` | GIN, bipartite attention, row softmax |
//! | [`core`] | `neursc-core` | NeurSC + WEst + discriminator + training |
//! | [`baselines`] | `neursc-baselines` | CSet, SumRDF, CS, WJ, JSUB, LSS, NSIC |
//! | [`workloads`] | `neursc-workloads` | datasets, queries, ground truth |
//! | [`serve`] | `neursc-serve` | resident estimator daemon (JSON over TCP/Unix) |
//! | [`oracle`] | `neursc-oracle` | differential soundness fuzzer + regression corpus |
//! | [`sample`] | `neursc-sample` | Horvitz–Thompson sampling estimator backend |
//!
//! ## Quickstart
//!
//! ```no_run
//! use neursc::prelude::*;
//!
//! // A data graph and some labeled training queries.
//! let g = neursc::workloads::datasets::dataset(DatasetId::Yeast);
//! let queries = build_query_set(&g, &QuerySetConfig::new(4, 50, 1));
//! let labeled = label_queries(&g, &queries, &GroundTruthConfig::default());
//!
//! // Train NeurSC and estimate.
//! let mut model = NeurSc::new(NeurScConfig::small(), 7);
//! model.fit(&g, &labeled).unwrap();
//! let estimate = model.estimate(&labeled[0].0, &g).unwrap();
//! println!("ĉ = {estimate:.1} (truth {})", labeled[0].1);
//! ```

pub use neursc_baselines as baselines;
pub use neursc_core as core;
pub use neursc_gnn as gnn;
pub use neursc_graph as graph;
pub use neursc_match as matching;
pub use neursc_nn as nn;
pub use neursc_oracle as oracle;
pub use neursc_sample as sample;
pub use neursc_serve as serve;
pub use neursc_workloads as workloads;

/// The common imports for applications.
pub mod prelude {
    pub use neursc_core::{GraphContext, NeurSc, NeurScConfig, Variant};
    pub use neursc_graph::sample::{sample_query, QuerySampler};
    pub use neursc_graph::{Graph, GraphBuilder};
    pub use neursc_match::{count_embeddings, filter_candidates, FilterConfig};
    pub use neursc_workloads::datasets::DatasetId;
    pub use neursc_workloads::ground_truth::{label_queries, GroundTruthConfig};
    pub use neursc_workloads::queries::{build_query_set, QuerySetConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        // Touch one item from each re-exported crate.
        let g = crate::graph::Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        assert_eq!(g.n_edges(), 1);
        let _ = crate::core::NeurScConfig::small();
        let _ = crate::nn::Tensor::zeros(1, 1);
        assert_eq!(crate::core::q_error(1.0, 1.0), 1.0);
    }
}
