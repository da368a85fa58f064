//! Differential/metamorphic soundness oracle for the NeurSC pipeline.
//!
//! The estimator is only meaningful if the substrate is *sound*: filtering
//! must never drop a vertex that participates in an embedding (paper §4(1),
//! Definition 2), extraction must preserve all embeddings across the
//! component split (§4(2), Definition 3), and budget-degraded candidate
//! sets must stay over-approximations (the degradation ladder of DESIGN.md
//! §7). This crate cross-checks every pipeline stage against the exact
//! backtracking enumerator on seeded random cases:
//!
//! 1. [`gen`] draws random labeled data graphs and queries — connected,
//!    single-vertex, disconnected, and adversarially label-mismatched.
//! 2. [`invariants`] runs the differential and metamorphic checks
//!    ([`invariants::Invariant`] lists them all).
//! 3. [`minimize`] delta-debugs a violating case down (the vendored
//!    proptest stub has no shrinking) by dropping vertices and edges while
//!    the violation still reproduces.
//! 4. [`case`] serializes minimized cases to replayable `.case` files —
//!    the regression corpus under `tests/corpus/`.
//! 5. [`fuzz`] is the seeded driver behind `neursc_cli fuzz`.
//!
//! Everything is deterministic in the seed: a reported case seed always
//! reproduces the violation.

pub mod case;
pub mod fuzz;
pub mod gen;
pub mod invariants;
pub mod minimize;

pub use case::{format_case, parse_case, replay_case};
pub use fuzz::{run_fuzz, FuzzConfig, FuzzOutcome, FuzzReport};
pub use gen::{gen_case, Case};
pub use invariants::{check_all, Invariant, Violation};
pub use minimize::minimize_case;
