//! `neursc-serve` — a resident estimator daemon for NeurSC.
//!
//! The offline CLI pays the full cold-start cost on every invocation:
//! process spawn, graph parse, model load and the `all_profiles(G, r)`
//! data-graph precomputation. A resident daemon pays those once and
//! serves every subsequent request from warm caches, which is how a
//! cardinality estimator actually sits inside a query optimizer.
//!
//! The daemon speaks line-delimited JSON over TCP or Unix-domain sockets
//! (std-only networking — the build is offline, so no async runtime):
//! see [`proto`] for the exact frames. Five verbs: `estimate`,
//! `estimate_batch`, `reload_model`, `stats`, `shutdown`.
//!
//! Guarantees, in terms of the rest of the stack:
//!
//! * **Bit-stable results** — a served estimate is bit-identical to the
//!   offline [`neursc_core::Estimator::estimate_batch`] path at any thread
//!   count and any micro-batch split (the per-item pipeline is
//!   deterministic and batch-composition-independent).
//! * **Fault isolation** — a request that panics, blows its budget, or is
//!   invalid produces a typed error frame for its client only; the
//!   connection, the batch, and the daemon keep going.
//! * **Observability** — every request runs under the session's
//!   [`neursc_core::Recorder`]; the `stats` verb exports the metrics
//!   registry plus queue depth and the active model checksum.
//! * **Hot reload** — `reload_model` loads and checksum-verifies a model
//!   file, then atomically swaps it in; in-flight batches finish on the
//!   old model, and a corrupt file leaves the old model serving.
//!
//! ```no_run
//! use neursc_core::{NeurSc, NeurScConfig, Recorder};
//! use neursc_graph::generate::erdos_renyi;
//! use neursc_serve::{serve, Client, ServeConfig};
//! use std::sync::Arc;
//!
//! let g = erdos_renyi(100, 300, 4, 1);
//! let model = NeurSc::new(NeurScConfig::small(), 42);
//! let server = serve(model, g.clone(), ServeConfig::default(), Arc::new(Recorder::new()))?;
//! let mut client = Client::connect_tcp(server.local_addr())?;
//! let q = erdos_renyi(4, 4, 4, 2);
//! let reply = client.request(&neursc_serve::client::estimate_request(1, &q))?;
//! assert!(reply.contains("\"ok\":true"));
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod conn;
pub mod journal;
pub mod json;
pub mod proto;
pub mod router;
pub mod server;
pub mod supervise;

pub use client::{Client, RetryClient, RetryPolicy};
pub use json::Json;
pub use proto::{parse_request, Request, RequestError};
pub use router::{route, BackendChoice, Routed, RouterConfig};
pub use server::{serve, Listen, ServeConfig, Server};
