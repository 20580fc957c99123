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
//! The entry point is [`Timer::enhance`]. The result carries both the
//! improved mapping and before/after objective values. The whole pipeline
//! around it (partition, initial mapping, TIMER, evaluation) is
//! `tie_mapd::pipeline`.
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
pub use driver::{Timer, TimerResult};
pub use error::{CancelToken, StopReason, TieError};
pub use labeling::Labeling;
pub use objective::{coco, coco_plus, diversity};
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
    /// Has no effect: the driver runs its rounds one after another on the
    /// calling thread. Kept only until the end-to-end benchmark, which
    /// still sets it, drops it.
    pub threads: usize,
    /// Has no effect, like `threads`, and kept for the same reason.
    pub batch: usize,
    /// Flight-recorder handle (see `tie-trace`). Disabled by default, in
    /// which case every instrumentation point is a single branch and
    /// `Timer::enhance` behaves byte-identically to the uninstrumented
    /// driver. Tracing never influences the search — it only records it.
    pub trace: TraceHandle,
    /// Optional wall-clock budget for the whole search. Checked before
    /// every round; on expiry the driver returns the labeling of the last
    /// committed round with [`StopReason::DeadlineExceeded`]. `None` (the
    /// default) means unbounded, and so does a budget too large for any
    /// instant to hold (such as `Duration::MAX`). A wall-clock stop may land
    /// on a different round from run to run, so deadline-bounded runs are
    /// the one mode exempt from the byte-identity guarantee.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation, checked before every round. The default
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

    /// Sets `threads`, which has no effect (see [`TimerConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets `batch`, which has no effect (see [`TimerConfig::batch`]).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Attaches a flight-recorder handle; the driver emits run, gate and
    /// phase-timing events through it.
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

    /// Attaches a cancellation token; `token.cancel()` makes the driver
    /// return the labeling of the last committed round with
    /// [`StopReason::Cancelled`] before the next round starts.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches a fault-injection handle (chaos testing only).
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// Checks the config's internal sanity (the instance-independent half of
    /// validation; `Timer::enhance` also checks the config against the
    /// concrete graph/topology/mapping). Called by the driver up front so a
    /// bad config fails fast with a [`TieError::InvalidInput`] instead of
    /// misbehaving mid-run.
    pub fn validate(&self) -> Result<(), TieError> {
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
