//! The typed failure surface of the TIMER pipeline: [`TieError`] (what went
//! *wrong*), [`StopReason`] (why a run *ended*, including gracefully), and
//! [`CancelToken`] (cooperative cancellation).
//!
//! The taxonomy exists so a long-running service (`mapd`, see
//! `docs/RESILIENCE.md`) can report and survive failures instead of
//! panicking: malformed inputs, incompatible topology/labeling pairs,
//! panicking hierarchy rounds and violated invariants all surface as
//! values, while deadline expiry and cancellation are *not*
//! errors — they end a run gracefully with the labeling of the last
//! committed round and a [`StopReason`] saying why.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tie_topology::RecognitionError;

/// Why a library-path TIMER operation failed. Everything a caller can
/// provoke (bad input, incompatible instance) or a bug can cause (a
/// panicking round, a violated invariant) is a variant here; library paths
/// do not panic on these. No function returning it does I/O.
#[derive(Debug)]
pub enum TieError {
    /// The input violates a documented precondition (sizes, ranges, flags).
    InvalidInput(String),
    /// The topology/labeling pair cannot carry the mapping: non-partial-cube
    /// topology, PE-count mismatch, duplicate PE labels, label overflow.
    IncompatibleTopology(String),
    /// A hierarchy round panicked, so the run cannot complete. The driver
    /// returns this at once; the labeling it had committed is discarded.
    WorkerPanicked {
        /// Round that panicked.
        round: usize,
        /// Panic payload (stringified).
        message: String,
    },
    /// The processor graph is not a partial cube (or its labeling is
    /// internally inconsistent).
    Recognition(RecognitionError),
    /// A per-round or end-of-run invariant of the driver failed (a round
    /// whose delta scan differs from its sweep sums or that raised Coco or
    /// lowered Div, a changed label multiset, or running totals that drifted
    /// from the final recompute): a bug, reported instead of a wrong mapping.
    InvariantViolated(String),
}

impl std::fmt::Display for TieError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TieError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            TieError::IncompatibleTopology(msg) => write!(f, "incompatible topology: {msg}"),
            TieError::WorkerPanicked { round, message } => {
                write!(f, "hierarchy round {round} panicked: {message}")
            }
            TieError::Recognition(e) => write!(f, "partial-cube recognition failed: {e}"),
            TieError::InvariantViolated(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for TieError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TieError::Recognition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RecognitionError> for TieError {
    fn from(e: RecognitionError) -> Self {
        TieError::Recognition(e)
    }
}

/// Why a TIMER run stopped running hierarchy rounds. Anything
/// other than [`StopReason::Completed`] means the run degraded gracefully:
/// the returned labeling is the last committed one (never worse than the
/// initial one) and the telemetry says how far the run got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// All `NH` hierarchy rounds were run and committed.
    Completed,
    /// The configured deadline expired at a round boundary.
    DeadlineExceeded,
    /// The [`CancelToken`] was triggered.
    Cancelled,
}

impl StopReason {
    /// Stable lower-snake name (used in trace events and JSON artifacts).
    pub fn name(&self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::DeadlineExceeded => "deadline_exceeded",
            StopReason::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
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
        let e: TieError = RecognitionError::Disconnected.into();
        assert!(matches!(e, TieError::Recognition(_)));
    }

    #[test]
    fn stop_reason_names_and_default() {
        assert_eq!(StopReason::DeadlineExceeded.name(), "deadline_exceeded");
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
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
