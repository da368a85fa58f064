//! Exact subgraph-matching substrate for the NeurSC reproduction.
//!
//! NeurSC needs three things from classical subgraph-matching machinery:
//!
//! 1. **Candidate filtering** (paper §4(1)) — the GraphQL-style pipeline of
//!    local pruning by r-hop label [`profile`]s followed by global
//!    [`refinement`] that demands a semi-perfect matching between query- and
//!    data-vertex neighborhoods. Exposed via [`filter::filter_candidates`]
//!    producing [`candidates::CandidateSets`] (the `CS(u)` of Definition 2).
//! 2. **Ground truth** — an exact backtracking subgraph-isomorphism
//!    *counter* ([`enumerate`]) with a deterministic expansion budget
//!    standing in for the paper's 30-minute GraphQL cutoff, plus a
//!    homomorphism-counting variant ([`homomorphism`]) since the paper notes
//!    NeurSC handles that semantics too.
//! 3. **Bipartite matching** (Hopcroft–Karp, private to the crate) — the
//!    engine behind refinement's semi-perfect matching checks.

mod bipartite;
pub mod budget;
pub mod candidates;
pub mod enumerate;
pub mod filter;
pub mod homomorphism;
pub mod ordering;
pub mod profile;
pub mod refinement;
pub mod treedp;

pub use budget::{FilterBudget, FilterError, FilterPhase, WorkMeter};
pub use candidates::CandidateSets;
pub use enumerate::{count_embeddings, CountOutcome, CountResult};
pub use filter::{
    filter_candidates, filter_candidates_budgeted, FilterConfig, FilterOutput, StageBreakdown,
};
pub use profile::ProfileCache;
