//! The typed failure surface of the TIMER pipeline: [`TieError`] (what went
//! *wrong*), [`StopReason`] (why a run *ended*, including gracefully), and
//! [`CancelToken`] (cooperative cancellation).
//!
//! The taxonomy exists so a long-running service (`mapd`, see
//! `docs/RESILIENCE.md`) can report and survive failures instead of
//! panicking: malformed inputs, incompatible topology/labeling pairs,
//! persistent worker panics, IO failures and violated end-of-run
//! invariants all surface as values, while
//! deadline expiry, cancellation and the adaptive stopping rule are *not*
//! errors — they end a run gracefully with the best labeling found so far
//! and a [`StopReason`] saying why.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tie_graph::io::IoError;
use tie_topology::RecognitionError;

/// Why a library-path TIMER operation failed. Everything a caller can
/// provoke (bad input, incompatible instance) or the environment can inflict
/// (IO, persistent worker panics) is a variant here; library paths do not
/// panic on these.
#[derive(Debug)]
pub enum TieError {
    /// The input violates a documented precondition (sizes, ranges, flags).
    InvalidInput(String),
    /// The topology/labeling pair cannot carry the mapping: non-partial-cube
    /// topology, PE-count mismatch, duplicate PE labels, label overflow.
    IncompatibleTopology(String),
    /// A hierarchy-round worker panicked and the sequential quarantine
    /// re-run panicked again — the fault is persistent, not transient, so
    /// the run cannot complete. (A *transient* panic is absorbed: see
    /// `RoundTelemetry::worker_panics`.)
    WorkerPanicked {
        /// Round whose re-run failed.
        round: usize,
        /// Panic payload (stringified).
        message: String,
    },
    /// A hard deadline was exceeded where graceful degradation is not
    /// possible (e.g. before a first feasible labeling exists). The driver
    /// itself prefers `StopReason::DeadlineExceeded` + best-so-far.
    DeadlineExceeded,
    /// An underlying IO operation failed.
    Io(std::io::Error),
    /// Reading or parsing a graph file failed.
    GraphIo(IoError),
    /// The processor graph is not a partial cube (or its labeling is
    /// internally inconsistent).
    Recognition(RecognitionError),
    /// An end-of-run invariant of the driver failed (changed label multiset,
    /// or accept-gate drift): a bug, reported instead of a wrong mapping.
    InvariantViolated(String),
}

impl std::fmt::Display for TieError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TieError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            TieError::IncompatibleTopology(msg) => write!(f, "incompatible topology: {msg}"),
            TieError::WorkerPanicked { round, message } => {
                write!(
                    f,
                    "worker panicked persistently at round {round}: {message}"
                )
            }
            TieError::DeadlineExceeded => write!(f, "deadline exceeded"),
            TieError::Io(e) => write!(f, "I/O error: {e}"),
            TieError::GraphIo(e) => write!(f, "graph I/O error: {e}"),
            TieError::Recognition(e) => write!(f, "partial-cube recognition failed: {e}"),
            TieError::InvariantViolated(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for TieError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TieError::Io(e) => Some(e),
            TieError::GraphIo(e) => Some(e),
            TieError::Recognition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TieError {
    fn from(e: std::io::Error) -> Self {
        TieError::Io(e)
    }
}

impl From<IoError> for TieError {
    fn from(e: IoError) -> Self {
        TieError::GraphIo(e)
    }
}

impl From<RecognitionError> for TieError {
    fn from(e: RecognitionError) -> Self {
        TieError::Recognition(e)
    }
}

/// Why a TIMER run stopped offering rounds to the accept gate. Anything
/// other than [`StopReason::Completed`] means the run degraded gracefully:
/// the returned labeling is the best accepted so far (never worse than the
/// initial one) and the telemetry says how far the run got.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StopReason {
    /// All `NH` hierarchy rounds were offered to the gate.
    #[default]
    Completed,
    /// The configured deadline expired at a round boundary.
    DeadlineExceeded,
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// The opt-in adaptive stopping rule fired: `k` consecutive rounds were
    /// rejected (the payload is the configured `k`).
    ConsecutiveRejections(usize),
}

impl StopReason {
    /// Stable lower-snake name (used in trace events and JSON artifacts).
    pub fn name(&self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::DeadlineExceeded => "deadline_exceeded",
            StopReason::Cancelled => "cancelled",
            StopReason::ConsecutiveRejections(_) => "consecutive_rejections",
        }
    }

    /// Whether the run offered every configured round to the gate.
    pub fn is_completed(&self) -> bool {
        matches!(self, StopReason::Completed)
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::ConsecutiveRejections(k) => {
                write!(f, "consecutive_rejections(k={k})")
            }
            other => f.write_str(other.name()),
        }
    }
}

/// Cooperative cancellation: cheap to clone, checked by the driver at round
/// boundaries. Cancelling mid-run yields the best labeling found so far with
/// [`StopReason::Cancelled`] — never a panic or a poisoned result.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<(TieError, &str)> = vec![
            (TieError::InvalidInput("x".into()), "invalid input"),
            (
                TieError::IncompatibleTopology("y".into()),
                "incompatible topology",
            ),
            (
                TieError::WorkerPanicked {
                    round: 3,
                    message: "boom".into(),
                },
                "round 3",
            ),
            (TieError::DeadlineExceeded, "deadline"),
            (
                TieError::Io(std::io::Error::other("disk on fire")),
                "disk on fire",
            ),
            (
                TieError::GraphIo(IoError::Parse("bad header".into())),
                "bad header",
            ),
            (
                TieError::Recognition(RecognitionError::NotBipartite),
                "bipartite",
            ),
            (
                TieError::InvariantViolated("label multiset changed".into()),
                "invariant violated: label multiset",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn conversions_preserve_payloads() {
        let e: TieError = IoError::Parse("line 3".into()).into();
        assert!(matches!(e, TieError::GraphIo(_)));
        let e: TieError = RecognitionError::Disconnected.into();
        assert!(matches!(e, TieError::Recognition(_)));
        let e: TieError = std::io::Error::other("nope").into();
        assert!(matches!(e, TieError::Io(_)));
    }

    #[test]
    fn stop_reason_names_and_default() {
        assert_eq!(StopReason::default(), StopReason::Completed);
        assert!(StopReason::Completed.is_completed());
        assert!(!StopReason::Cancelled.is_completed());
        assert_eq!(StopReason::DeadlineExceeded.name(), "deadline_exceeded");
        assert_eq!(
            StopReason::ConsecutiveRejections(4).to_string(),
            "consecutive_rejections(k=4)"
        );
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        token.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }
}
