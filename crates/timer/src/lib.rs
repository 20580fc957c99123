//! # tie-timer
//!
//! TIMER — Topology-Induced Mapping EnhanceR — the core contribution of
//! "Topology-induced Enhancement of Mappings" (Glantz, Predari, Meyerhenke;
//! ICPP 2018), implemented natively in Rust.
//!
//! TIMER improves a given mapping `µ : Va -> Vp` of an application graph onto
//! a processor graph that is a *partial cube*. The pipeline is:
//!
//! 1. Label the PEs with bitvectors so that graph distance in `Gp` equals
//!    Hamming distance between labels (`tie-topology`).
//! 2. Transfer the labels to the application vertices via `µ` and extend them
//!    with per-block extension bits so they become unique on `Va`
//!    ([`labeling`], Section 4 of the paper).
//! 3. Optimize the extended objective `Coco⁺ = Coco − Div` ([`objective`],
//!    Section 5) by swapping labels between application vertices inside many
//!    diverse hierarchies obtained from random permutations of the label
//!    digits ([`hierarchy`], [`assemble`], [`driver`], Section 6).
//!
//! The entry point is [`Timer::enhance`] (or the convenience function
//! [`enhance_mapping`]). The result carries both the improved mapping and
//! before/after objective values.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod assemble;
pub mod context;
pub mod driver;
pub mod error;
pub mod hierarchy;
pub mod labeling;
pub mod objective;
pub mod refinement;
pub mod telemetry;

pub use context::TopologyContext;
pub use driver::{enhance_mapping, Timer, TimerResult};
pub use error::{CancelToken, StopReason, TieError};
pub use labeling::Labeling;
pub use objective::{coco, coco_plus, diversity, AcceptGate};
pub use refinement::{polish, PolishStats};
pub use telemetry::RoundTelemetry;

use std::time::Duration;
use tie_fault::FaultHandle;
use tie_trace::TraceHandle;

/// Configuration of the TIMER search.
#[derive(Clone, Debug)]
pub struct TimerConfig {
    /// Number of random hierarchies `NH` to try (the paper uses 50; 10 is
    /// often enough, see Section 7.2).
    pub num_hierarchies: usize,
    /// Seed for hierarchy permutations and the extension-label shuffle.
    pub seed: u64,
    /// If false, the diversity term `Div` is dropped and plain `Coco` is
    /// optimized (ablation of the Section 5 extension).
    pub use_diversity: bool,
    /// Number of worker threads for the speculative hierarchy batches
    /// (1 = fully sequential, the paper's setting; >1 runs whole hierarchy
    /// rounds concurrently, the Section 6.3 outlook). The result is
    /// byte-identical for every thread count.
    pub threads: usize,
    /// Cap on the adaptive speculation depth (hierarchy rounds in flight per
    /// batch); 0 (the default) matches `threads`. Purely a scheduling knob —
    /// results never depend on it — and values above `threads` only add
    /// wasted work when a round is accepted, so the default is almost always
    /// right.
    pub batch: usize,
    /// Flight-recorder handle (see `tie-trace`). Disabled by default, in
    /// which case every instrumentation point is a single branch and
    /// `Timer::enhance` behaves byte-identically to the uninstrumented
    /// driver. Tracing never influences the search — it only records it.
    pub trace: TraceHandle,
    /// Optional wall-clock budget for the whole search. Checked at batch
    /// boundaries; on expiry the driver returns the best labeling accepted
    /// so far with [`StopReason::DeadlineExceeded`]. `None` (the default)
    /// means unbounded. Note that a wall-clock stop may land on a different
    /// round for different thread counts, so deadline-bounded runs are the
    /// one mode exempt from the byte-identity guarantee.
    pub deadline: Option<Duration>,
    /// Opt-in adaptive stopping rule: stop after this many *consecutive*
    /// rejected hierarchy rounds (counted in commit order, so the truncation
    /// point — and hence the result — is identical for every thread count).
    /// `None` (the default) disables the rule; `Some(0)` is rejected by
    /// [`TimerConfig::validate`].
    pub max_consecutive_rejections: Option<usize>,
    /// Cooperative cancellation, checked at batch boundaries. The default
    /// token is never cancelled.
    pub cancel: CancelToken,
    /// Fault-injection handle (see `tie-fault`). Disabled by default — a
    /// single branch per probe site, exactly like `trace`. Only the chaos
    /// tests and `TIE_FAULTS`-aware binaries arm it.
    pub faults: FaultHandle,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig {
            num_hierarchies: 50,
            seed: 0,
            use_diversity: true,
            threads: 1,
            batch: 0,
            trace: TraceHandle::off(),
            deadline: None,
            max_consecutive_rejections: None,
            cancel: CancelToken::new(),
            faults: FaultHandle::off(),
        }
    }
}

impl TimerConfig {
    /// Config with the given number of hierarchies and seed, the defaults
    /// otherwise.
    pub fn new(num_hierarchies: usize, seed: u64) -> Self {
        TimerConfig {
            num_hierarchies,
            seed,
            ..Default::default()
        }
    }

    /// Disables the diversity term (optimize plain Coco).
    pub fn without_diversity(mut self) -> Self {
        self.use_diversity = false;
        self
    }

    /// Sets the number of worker threads for speculative hierarchy batches.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Caps the number of hierarchy rounds speculated per batch
    /// (0 = match `threads`).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Attaches a flight-recorder handle; the driver emits accept-gate,
    /// phase-timing and speculation events through it.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Sets a wall-clock deadline; the driver returns best-so-far with
    /// [`StopReason::DeadlineExceeded`] when it expires.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables the adaptive stopping rule: stop after `k` consecutive
    /// rejected rounds. `k` must be ≥ 1 (enforced by [`TimerConfig::validate`]).
    pub fn stop_after_rejections(mut self, k: usize) -> Self {
        self.max_consecutive_rejections = Some(k);
        self
    }

    /// Attaches a cancellation token; `token.cancel()` makes the driver
    /// return best-so-far with [`StopReason::Cancelled`] at the next batch
    /// boundary.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches a fault-injection handle (chaos testing only).
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// The speculation-depth cap the driver actually uses: `batch` with the
    /// `0` sentinel resolved to `threads`. The single source of truth for
    /// that resolution — harness and reporting code must use this instead of
    /// re-deriving it.
    pub fn effective_batch(&self) -> usize {
        if self.batch == 0 {
            self.threads.max(1)
        } else {
            self.batch
        }
    }

    /// Checks the config's internal sanity (the instance-independent half of
    /// validation; `Timer::enhance` also checks the config against the
    /// concrete graph/topology/mapping). Called by the driver up front so a
    /// bad config fails fast with a [`TieError::InvalidInput`] instead of
    /// misbehaving mid-run.
    pub fn validate(&self) -> Result<(), TieError> {
        if self.threads == 0 {
            return Err(TieError::InvalidInput(
                "threads must be >= 1 (0 workers cannot make progress)".into(),
            ));
        }
        if self.max_consecutive_rejections == Some(0) {
            return Err(TieError::InvalidInput(
                "max_consecutive_rejections must be >= 1 when set \
                 (0 would stop before the first round)"
                    .into(),
            ));
        }
        if self.deadline == Some(Duration::ZERO) {
            return Err(TieError::InvalidInput(
                "deadline must be > 0 when set (use cancel() for an \
                 immediate stop)"
                    .into(),
            ));
        }
        Ok(())
    }
}
