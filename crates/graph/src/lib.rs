//! Labeled undirected graph substrate for the NeurSC reproduction.
//!
//! This crate provides everything the rest of the workspace needs to talk
//! about graphs:
//!
//! * [`Graph`] — an immutable, CSR-backed, vertex-labeled undirected graph,
//!   constructed through [`GraphBuilder`]. The same type represents both data
//!   graphs (up to millions of vertices) and query graphs (a handful of
//!   vertices), exactly as in the paper where both share one label alphabet.
//! * Traversal helpers ([`traversal`]): BFS layers, k-hop neighborhoods,
//!   eccentricity/diameter, connectivity.
//! * [`induced`] — induced subgraphs on a vertex subset and connected-component
//!   decomposition (the substructure-extraction primitives of §4 of the paper).
//! * [`properties`] — the query/data characteristics the evaluation section
//!   buckets by: label entropy, degree entropy, density, diameter (Fig. 9).
//! * [`wl`] — 1-dimensional Weisfeiler–Lehman color refinement, used by tests
//!   to validate the expressiveness claims of §5.7 (Theorem 5.3).
//! * [`io`] — the `.graph` text format of Sun & Luo's in-memory subgraph
//!   matching study (`t N M` / `v id label degree` / `e u v`), which the paper
//!   uses for all seven datasets.
//! * [`generate`] — seeded synthetic generators that reproduce the *shape* of
//!   the paper's seven data graphs (Table 2), standing in for the real
//!   datasets which are not redistributable here (see DESIGN.md §3).
//! * [`sample`] — random-walk extraction of connected query graphs from a data
//!   graph, the standard way the paper's query sets (Table 3) were produced.
//! * [`motifs`] — the closed-form triangle count, an oracle for the
//!   backtracking counter in tests.
//! * [`hash`] — FNV-1a-64, the one integrity/fingerprint hash of the
//!   workspace, and [`cache`] — the content-fingerprint-keyed memo of
//!   per-graph derived data (profiles, feature matrices) built on it.

pub mod cache;
pub mod error;
pub mod generate;
pub mod graph;
pub mod hash;
pub mod induced;
pub mod io;
pub mod motifs;
pub mod properties;
pub mod sample;
pub mod traversal;
pub mod types;
pub mod wl;

pub use error::GraphError;
pub use graph::{Graph, GraphBuilder};
pub use types::{Label, VertexId};
