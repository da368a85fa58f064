//! **NeurSC** — Neural Subgraph Counting with a Wasserstein Estimator
//! (SIGMOD 2022), the paper's primary contribution.
//!
//! Given a labeled query graph `q` and data graph `G`, NeurSC estimates the
//! number of subgraph-isomorphism embeddings of `q` in `G`:
//!
//! 1. [`extraction`] — GraphQL-style candidate filtering followed by
//!    induced-substructure extraction (paper §4, Algorithm 1 lines 1–7).
//! 2. [`west`] — the WEst estimator (paper §5, Algorithm 2): a shared
//!    intra-graph GIN over `q` and each candidate substructure, an
//!    inter-graph attentive network over the candidate bipartite graph
//!    [`bipartite`], sum-pooling readout and a 4-layer MLP count head.
//! 3. [`discriminator`] — the Wasserstein discriminator (paper §5.5) that
//!    adversarially pulls corresponding query/data vertex representations
//!    together; [`distances`] provides the Euclidean/KL/JS ablations of
//!    Fig. 12.
//! 4. [`train`] — the two-phase training procedure (paper §5.6,
//!    Algorithm 3).
//! 5. [`sampling`] — the unbiased substructure-sampling trade-off of §5.8.
//!
//! The top-level API is [`NeurSc`]:
//!
//! ```no_run
//! use neursc_core::{NeurSc, NeurScConfig};
//! use neursc_graph::generate::{generate, GraphSpec};
//! use neursc_graph::sample::{sample_query, QuerySampler};
//! use neursc_match::count_embeddings;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let g = generate(&GraphSpec::uniform(500, 6.0, 8), 1);
//!
//! // Label some training queries with exact counts.
//! let mut train = Vec::new();
//! for _ in 0..40 {
//!     let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
//!     if let Some(c) = count_embeddings(&q, &g, 10_000_000).exact() {
//!         train.push((q, c));
//!     }
//! }
//!
//! let mut model = NeurSc::new(NeurScConfig::small(), 7);
//! model.fit(&g, &train).unwrap();
//! let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
//! let estimate = model.estimate(&q, &g).unwrap();
//! assert!(estimate >= 0.0);
//! ```
//!
//! Every fallible entry point returns [`NeurScError`]; the batched APIs
//! ([`Estimator::estimate_batch`], [`NeurSc::prepare_batch`]) contain
//! per-query panics and budget exhaustion to the offending slot — see
//! DESIGN.md "Failure semantics".

pub mod bipartite;
pub mod config;
pub mod context;
pub mod discriminator;
pub mod distances;
pub mod error;
pub mod estimator;
pub mod extraction;
pub mod faults;
pub mod loss;
pub mod model;
pub mod obs;
pub mod parallel;
pub mod persist;
pub mod sampling;
pub mod train;
pub mod west;

pub use config::{DiscriminatorMetric, NeurScConfig, ResourceBudget, Variant};
pub use context::GraphContext;
pub use error::NeurScError;
pub use estimator::{ConfidenceInterval, Estimator};
pub use extraction::{
    extract_substructures_budgeted, extract_substructures_with, Extraction, Substructure,
};
pub use faults::FaultPlan;
pub use loss::q_error;
pub use model::{EstimateDetail, NeurSc};
pub use obs::{MetricsSnapshot, NoopSink, ObsSink, PipelineReport, Recorder, Span, TraceTime};
pub use parallel::{parallel_map_caught, parallel_map_indexed, ItemPanic};
pub use train::{validate_query, PreparedQuery, TrainReport};
