//! The unified error type returned by every fallible `neursc_core` entry
//! point.
//!
//! Design (DESIGN.md, "Failure semantics"): one enum wraps the lower-layer
//! error types (graph construction/I/O, parameter serialization) and adds
//! the pipeline-level failure classes — budget exhaustion, training
//! divergence, per-item panics, corrupt model files — so callers match on
//! one type and the CLI can map variants to distinct exit codes.

use neursc_graph::GraphError;
use neursc_nn::serialize::SerializeError;
use std::fmt;
use std::path::PathBuf;

/// Any failure surfaced by the NeurSC estimation/training pipeline.
#[derive(Debug)]
pub enum NeurScError {
    /// Graph construction, parsing or graph-file I/O failed.
    Graph(GraphError),
    /// Model (de)serialization failed below the checksum layer.
    Persist(SerializeError),
    /// Model-file I/O failed (file missing, permission, short write).
    Io {
        /// The model file involved, when known.
        path: Option<PathBuf>,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A model file failed its integrity check — truncated, bit-flipped or
    /// otherwise tampered with. Loading stops *before* any weight is
    /// copied, so a corrupt file can never produce a silently-bad model.
    Corrupt {
        /// The model file involved, when known.
        path: Option<PathBuf>,
        /// What the checksum comparison saw.
        detail: String,
    },
    /// The query graph is unusable (e.g. zero vertices).
    InvalidQuery {
        /// Why the query was rejected.
        reason: String,
    },
    /// A resource budget (filtering steps, wall clock, or a size cap) was
    /// exhausted at a point where no sound degraded result exists.
    Budget {
        /// Which budget, and how it was exceeded.
        detail: String,
    },
    /// Training diverged (non-finite loss) and, per configuration, the run
    /// was asked to fail rather than roll back silently.
    Divergence {
        /// Epoch (0-based, across both phases) where divergence was caught.
        epoch: usize,
        /// The offending loss value.
        loss: f64,
    },
    /// A work item panicked inside a batch; the panic was contained to the
    /// item and converted into this error.
    Panicked {
        /// Index of the item within its batch.
        item: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The training set was empty (or every query was unusable).
    NoTrainingData,
}

impl NeurScError {
    /// Whether this is a model-file corruption failure (CLI exit code 5).
    pub fn is_corruption(&self) -> bool {
        matches!(self, NeurScError::Corrupt { .. })
    }

    /// Whether this is an I/O failure (CLI exit code 4).
    pub fn is_io(&self) -> bool {
        matches!(
            self,
            NeurScError::Io { .. }
                | NeurScError::Graph(GraphError::Io { .. })
                | NeurScError::Persist(SerializeError::Io(_))
        )
    }

    /// Whether this is a parse/format failure (CLI exit code 3).
    pub fn is_parse(&self) -> bool {
        match self {
            NeurScError::Graph(g) => g.is_parse(),
            NeurScError::Persist(SerializeError::Parse(_)) => true,
            _ => false,
        }
    }
}

impl fmt::Display for NeurScError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeurScError::Graph(e) => write!(f, "graph error: {e}"),
            NeurScError::Persist(e) => write!(f, "model serialization error: {e}"),
            NeurScError::Io {
                path: Some(p),
                source,
            } => write!(f, "i/o error on {}: {source}", p.display()),
            NeurScError::Io { path: None, source } => write!(f, "i/o error: {source}"),
            NeurScError::Corrupt {
                path: Some(p),
                detail,
            } => write!(f, "corrupt model file {}: {detail}", p.display()),
            NeurScError::Corrupt { path: None, detail } => {
                write!(f, "corrupt model data: {detail}")
            }
            NeurScError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            NeurScError::Budget { detail } => write!(f, "resource budget exhausted: {detail}"),
            NeurScError::Divergence { epoch, loss } => {
                write!(f, "training diverged at epoch {epoch} (loss {loss})")
            }
            NeurScError::Panicked { item, message } => {
                write!(f, "work item {item} panicked: {message}")
            }
            NeurScError::NoTrainingData => write!(f, "no training queries supplied"),
        }
    }
}

impl std::error::Error for NeurScError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NeurScError::Graph(e) => Some(e),
            NeurScError::Persist(e) => Some(e),
            NeurScError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<GraphError> for NeurScError {
    fn from(e: GraphError) -> Self {
        NeurScError::Graph(e)
    }
}

impl From<SerializeError> for NeurScError {
    fn from(e: SerializeError) -> Self {
        NeurScError::Persist(e)
    }
}

impl From<neursc_match::FilterError> for NeurScError {
    fn from(e: neursc_match::FilterError) -> Self {
        NeurScError::Budget {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(NeurScError, &str)> = vec![
            (NeurScError::Graph(GraphError::SelfLoop(1)), "graph error"),
            (
                NeurScError::Persist(SerializeError::Parse("x".into())),
                "serialization",
            ),
            (
                NeurScError::Io {
                    path: Some("/tmp/m.txt".into()),
                    source: std::io::Error::other("gone"),
                },
                "/tmp/m.txt",
            ),
            (
                NeurScError::Corrupt {
                    path: None,
                    detail: "checksum mismatch".into(),
                },
                "checksum mismatch",
            ),
            (
                NeurScError::InvalidQuery {
                    reason: "empty".into(),
                },
                "invalid query",
            ),
            (
                NeurScError::Budget {
                    detail: "steps".into(),
                },
                "budget",
            ),
            (
                NeurScError::Divergence {
                    epoch: 3,
                    loss: f64::NAN,
                },
                "epoch 3",
            ),
            (
                NeurScError::Panicked {
                    item: 7,
                    message: "boom".into(),
                },
                "item 7",
            ),
            (NeurScError::NoTrainingData, "no training"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e} missing {needle:?}");
        }
    }

    #[test]
    fn classification_drives_exit_codes() {
        let corrupt = NeurScError::Corrupt {
            path: None,
            detail: String::new(),
        };
        assert!(corrupt.is_corruption() && !corrupt.is_io() && !corrupt.is_parse());

        let io = NeurScError::Io {
            path: None,
            source: std::io::Error::other("x"),
        };
        assert!(io.is_io() && !io.is_parse());

        let parse = NeurScError::Graph(GraphError::Parse {
            line: 1,
            message: String::new(),
        });
        assert!(parse.is_parse() && !parse.is_io());

        let gio = NeurScError::Graph(GraphError::from(std::io::Error::other("x")));
        assert!(gio.is_io() && !gio.is_parse());
    }

    #[test]
    fn sources_chain_to_the_underlying_error() {
        let e = NeurScError::Graph(GraphError::io_at("/x", std::io::Error::other("root")));
        let mid = e.source().expect("graph source");
        assert!(mid.source().is_some(), "GraphError::Io should chain");
        assert!(NeurScError::NoTrainingData.source().is_none());
    }

    #[test]
    fn filter_error_converts_to_budget() {
        let fe = neursc_match::FilterError::BudgetExhausted {
            phase: neursc_match::FilterPhase::LocalPruning,
            spent: 9,
        };
        let e: NeurScError = fe.into();
        assert!(matches!(e, NeurScError::Budget { .. }));
        assert!(e.to_string().contains("local pruning"));
    }
}
