//! The TIMER driver (Algorithm 1): multi-hierarchical label swapping over
//! `NH` random digit permutations.
//!
//! The permutations (line 6) come from one seeded RNG. The driver draws
//! each round's permutation when it first schedules that round and keeps
//! the ones drawn so far, so the stream, and hence every hierarchy, is the
//! same for every schedule, and memory grows with the rounds actually run,
//! not with `NH`.
//!
//! Every round is kept. The hierarchy swaps only sibling groups of equal
//! suffix class (see [`crate::hierarchy`]), so a round's `(ΔCoco, ΔDiv)` is
//! the sum of its sweeps' own deltas, with `ΔCoco ≤ 0 ≤ ΔDiv`, and the gate
//! cannot reject it. The driver checks both facts after every round's delta
//! scan, in every build profile: a round whose scan differs from its sweep
//! sums, or that the gate rejects, ends the run with
//! [`TieError::InvariantViolated`].
//!
//! # Speculative hierarchy batches
//!
//! The `NH` rounds form a sequential chain through the accept gate: round
//! `k` starts from whatever labeling rounds `0..k` left behind. A batch of
//! speculated rounds pays off only while kept rounds leave the labels
//! unchanged, as on an edgeless graph; every kept round that changes them
//! invalidates the rest of its batch. The driver runs
//! `min(threads, hardware threads)` workers, each with one hierarchy
//! scratch for the whole run. With more than one worker it runs a batch of
//! `B` rounds (distinct digit permutations) concurrently from the same
//! accepted base labeling, then commits the results in permutation order
//! against the live gate. A kept round that actually changes the labels
//! invalidates the not-yet-committed speculations (they were built from a
//! stale base); those rounds are discarded — without touching any counter —
//! and re-executed from the new base in the next batch. The committed
//! trajectory is therefore **byte-identical to the sequential driver** for
//! every `(threads, batch)` combination: same labels, same counters, same
//! result — batching and threading are pure scheduling knobs.
//!
//! The speculation depth adapts like a branch predictor: it doubles after
//! every batch whose speculations all survived and resets to 1 whenever an
//! acceptance invalidated the batch. It never exceeds the worker count, so
//! a batch holds at most one candidate labeling per worker, and with one
//! worker every round runs inline.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

use crossbeam::thread;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tie_fault::FaultHandle;
use tie_graph::Graph;
use tie_mapping::Mapping;
use tie_topology::label::{invert_permutation, permute_label_bits};
use tie_topology::PartialCubeLabeling;
use tie_trace::{Phase, PhaseTimes, TraceEvent, TraceHandle};

use crate::assemble::assemble_labels;
use crate::context::TopologyContext;
use crate::error::{StopReason, TieError};
use crate::hierarchy::{build_hierarchy_traced, HierarchyScratch};
use crate::labeling::Labeling;
use crate::objective::{coco_and_div_for_labels, coco_div_delta, AcceptGate};
use crate::telemetry::RoundTelemetry;
use crate::TimerConfig;

/// The TIMER mapping enhancer.
#[derive(Clone, Debug, Default)]
pub struct Timer {
    config: TimerConfig,
}

/// Result of a TIMER run.
#[derive(Clone, Debug)]
pub struct TimerResult {
    /// The enhanced mapping `µ₂`.
    pub mapping: Mapping,
    /// The final labeling of the application vertices.
    pub labeling: Labeling,
    /// `Coco` of the initial mapping.
    pub initial_coco: u64,
    /// `Coco` of the enhanced mapping.
    pub final_coco: u64,
    /// `Coco⁺` of the initial labeling.
    pub initial_coco_plus: i64,
    /// `Coco⁺` of the final labeling.
    pub final_coco_plus: i64,
    /// `Div` of the final labeling.
    pub final_diversity: u64,
    /// Number of hierarchy rounds whose result was kept.
    pub hierarchies_accepted: usize,
    /// Number of label swaps performed across all hierarchy sweeps.
    pub total_swaps: usize,
    /// Always 0: assembly is exact, so no assembled label is ever repaired
    /// (see [`crate::assemble`]). Kept for callers that still read it.
    pub total_repaired: usize,
    /// Flight-recorder summary of the run: accept/reject/tie counts, the
    /// per-round `ΔCoco`/`ΔDiv` histograms and a per-phase wall-clock
    /// breakdown. Always collected (the gate side rides the delta scan the
    /// driver performs anyway); the gate side is byte-identical across
    /// `(threads, batch)` settings, the phase side is wall-clock.
    pub telemetry: RoundTelemetry,
    /// Why the run stopped offering rounds: [`StopReason::Completed`] on a
    /// full run, or the deadline or cancellation that cut it short (the
    /// labeling is then the best accepted so far).
    pub stop_reason: StopReason,
}

impl TimerResult {
    /// Relative improvement of Coco, `1 - final/initial` (0 if initial is 0).
    pub fn coco_improvement(&self) -> f64 {
        if self.initial_coco == 0 {
            0.0
        } else {
            1.0 - self.final_coco as f64 / self.initial_coco as f64
        }
    }
}

impl Timer {
    /// Creates a TIMER instance with the given configuration.
    pub fn new(config: TimerConfig) -> Self {
        Timer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TimerConfig {
        &self.config
    }

    /// Enhances `initial` — a mapping of `graph` onto the partial cube
    /// described by `pcube` — and returns the improved mapping together with
    /// quality bookkeeping. The balance of the initial mapping is preserved
    /// exactly (labels are only permuted among the vertices).
    ///
    /// # Errors
    /// Returns [`TieError::InvalidInput`] for a malformed config or a
    /// graph/mapping size mismatch, [`TieError::IncompatibleTopology`] when
    /// the labeling cannot carry the mapping (PE-count mismatch, duplicate
    /// PE labels, label overflow), and [`TieError::WorkerPanicked`] when a
    /// hierarchy round panics *persistently* (a transient worker panic is
    /// absorbed: the round is quarantined and re-run sequentially, counted
    /// in `telemetry.worker_panics`), and [`TieError::InvariantViolated`]
    /// when a round's delta scan differs from its sweep sums, when the gate
    /// rejects a round, or when the end-of-run checks fail (changed label
    /// multiset, or a gate that drifted from the final recompute). Deadline
    /// expiry and cancellation are not errors — the run returns best-so-far
    /// with the matching [`StopReason`].
    pub fn enhance(
        &self,
        graph: &Graph,
        pcube: &PartialCubeLabeling,
        initial: &Mapping,
    ) -> Result<TimerResult, TieError> {
        let cfg = &self.config;
        cfg.validate()?;
        // tie-lint: allow(no-wallclock) — deadline anchor and telemetry total; never read by the algorithm
        let start = Instant::now();
        // A deadline no instant can hold is no deadline.
        let deadline = cfg.deadline.and_then(|d| start.checked_add(d));
        let faults = &cfg.faults;
        let mut labeling = Labeling::from_mapping(graph, pcube, initial, cfg.seed)?;
        let dim = labeling.dim;
        let p_mask = labeling.p_mask();
        let full_e_mask = labeling.ext_mask();
        let e_mask = if cfg.use_diversity { full_e_mask } else { 0 };

        // One edge scan seeds everything: the reported initial values and the
        // accept gate, which from here on is updated purely from per-round
        // deltas (no full-graph objective recomputes in the round loop).
        let (initial_coco, initial_div) =
            coco_and_div_for_labels(graph, &labeling.labels, p_mask, full_e_mask);
        let initial_coco_plus = initial_coco as i64 - initial_div as i64;
        let original_set = labeling.sorted_label_set();
        let mut gate = AcceptGate::new(
            initial_coco,
            if cfg.use_diversity { initial_div } else { 0 },
        );
        // The workers this run can use: a request's thread count never
        // sizes an allocation beyond the hardware. A batch holds at most one
        // candidate labeling per worker, so `batch` never sizes one either,
        // and one worker runs every round inline.
        let workers = cfg.workers();
        let max_batch = cfg.effective_batch();
        let trace = &cfg.trace;
        let mut telemetry = RoundTelemetry::default();
        trace.emit(TraceEvent::RunStart {
            nh: cfg.num_hierarchies,
            threads: cfg.threads,
            batch: max_batch,
            initial_coco,
            initial_div: if cfg.use_diversity { initial_div } else { 0 },
        });

        let mut permutations = Permutations::new(cfg.seed, dim);
        let mut total_swaps = 0usize;

        // Adaptive speculation depth, branch-predictor style: every kept
        // round that changes the labels throws its speculated successors
        // away. Start cautious, double the depth after every batch whose
        // speculations all survived, reset to 1 whenever speculated rounds
        // had to be discarded. The depth only schedules work — the committed
        // trajectory stays byte-identical for every (threads, batch) setting.
        let mut depth = 1usize;

        let mut stop_reason = StopReason::Completed;
        let mut worker_panics = 0usize;

        // One hierarchy scratch per worker, living for the whole run: worker
        // k of every batch reuses scratch k's sweep/contraction buffers, so
        // the hot path's buffers grow to size once per `enhance` call instead
        // of once per level per round. Scratch contents never influence
        // results (pinned by the contraction-equivalence proptest).
        let mut scratches = vec![HierarchyScratch::default(); workers];

        let mut next = 0usize;
        while next < cfg.num_hierarchies {
            // Graceful-degradation checks, once per batch boundary: the
            // labeling is always a fully committed (best-so-far) state here,
            // so stopping now loses nothing but unexplored rounds.
            if cfg.cancel.is_cancelled() {
                stop_reason = StopReason::Cancelled;
                break;
            }
            // tie-lint: allow(no-wallclock) — deadline enforcement only decides when to stop, not what is computed
            if deadline.is_some_and(|t| Instant::now() >= t) {
                stop_reason = StopReason::DeadlineExceeded;
                break;
            }
            let b = depth.min(cfg.num_hierarchies - next);
            // Line 6, drawn as the rounds are first scheduled.
            let perms = permutations.draw_until(next + b);
            let attempts: Vec<Result<RoundOutcome, String>> = if b == 1 {
                vec![guarded_round(
                    graph,
                    &labeling.labels,
                    &perms[next],
                    dim,
                    p_mask,
                    e_mask,
                    next,
                    trace,
                    faults,
                    &mut scratches[0],
                )]
            } else {
                // Speculation: rounds next..next+b all start from the current
                // accepted base. Workers get contiguous chunks; flattening in
                // chunk order restores permutation order independently of the
                // worker count.
                let base: &[u64] = &labeling.labels;
                let chunk = b.div_ceil(workers.min(b));
                let joined = thread::scope(|scope| {
                    let handles: Vec<(usize, _)> = perms[next..next + b]
                        .chunks(chunk)
                        .zip(scratches.iter_mut())
                        .enumerate()
                        .map(|(chunk_idx, (chunk_perms, scratch))| {
                            let first_round = next + chunk_idx * chunk;
                            let handle = scope.spawn(move |_| {
                                chunk_perms
                                    .iter()
                                    .enumerate()
                                    .map(|(i, perm)| {
                                        guarded_round(
                                            graph,
                                            base,
                                            perm,
                                            dim,
                                            p_mask,
                                            e_mask,
                                            first_round + i,
                                            trace,
                                            faults,
                                            scratch,
                                        )
                                    })
                                    .collect::<Vec<_>>()
                            });
                            (chunk_perms.len(), handle)
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|(len, h)| match h.join() {
                            Ok(results) => results,
                            // `guarded_round` catches panics inside the worker,
                            // so a join error means the panic escaped the guard
                            // (e.g. in the iterator plumbing). Degrade it to
                            // per-round failures and let the quarantine below
                            // retry them sequentially.
                            Err(payload) => {
                                let msg = panic_message(payload.as_ref());
                                (0..len).map(|_| Err(msg.clone())).collect()
                            }
                        })
                        .collect::<Vec<_>>()
                });
                match joined {
                    Ok(v) => v,
                    // The vendored scope never constructs `Err` (worker panics
                    // are surfaced via `join`, which we handled above), but if
                    // one ever arrives, treat the whole batch as panicked and
                    // let the quarantine retry it.
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        (0..b).map(|_| Err(msg.clone())).collect()
                    }
                }
            };

            // Quarantine: a panicked speculative round is re-run sequentially
            // from the same base. `run_round` is a pure function of
            // (base, perm), so for a *transient* fault the re-run reproduces
            // exactly what the healthy worker would have produced and the
            // trajectory stays byte-identical; a second panic means the fault
            // is persistent and the run fails with a typed error.
            let mut outcomes: Vec<RoundOutcome> = Vec::with_capacity(attempts.len());
            for (i, attempt) in attempts.into_iter().enumerate() {
                let round = next + i;
                match attempt {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(_first_panic) => {
                        worker_panics += 1;
                        match guarded_round(
                            graph,
                            &labeling.labels,
                            &perms[round],
                            dim,
                            p_mask,
                            e_mask,
                            round,
                            trace,
                            faults,
                            &mut scratches[0],
                        ) {
                            Ok(outcome) => outcomes.push(outcome),
                            Err(message) => {
                                return Err(TieError::WorkerPanicked { round, message });
                            }
                        }
                    }
                }
            }

            // Every executed round burned real wall-clock, including the
            // speculations an acceptance is about to discard — the phase
            // breakdown reports all of it. (Counters like `total_swaps` stay
            // commit-only below: they are part of the deterministic
            // trajectory, the phase times are honest work accounting.)
            for outcome in &outcomes {
                telemetry.phases.merge(&outcome.phases);
            }

            // Commit survivors in permutation order against the live gate,
            // checking each round's invariants. A kept round that changes the
            // labels invalidates the remaining speculations: they are dropped
            // without touching any counter and re-run from the new base,
            // which keeps the whole trajectory byte-identical to the
            // sequential driver.
            // tie-lint: allow(no-wallclock) — commit-phase telemetry
            let commit_start = Instant::now();
            let mut committed = 0usize;
            let mut invalidated = false;
            for (i, outcome) in outcomes.into_iter().enumerate() {
                total_swaps += outcome.swaps;
                telemetry.sweep_arcs += outcome.sweep_arcs;
                telemetry.contract_arcs += outcome.contract_arcs;
                committed += 1;
                let accepted = gate.offer(outcome.coco_delta, outcome.div_delta);
                // An equal-objective keep: `ΔCoco⁺ = ΔCoco − ΔDiv = 0`.
                let tie = accepted && outcome.coco_delta == outcome.div_delta;
                telemetry.record_gate(outcome.coco_delta, outcome.div_delta, accepted, tie);
                trace.emit(TraceEvent::Gate {
                    round: next + i,
                    coco_delta: outcome.coco_delta,
                    div_delta: outcome.div_delta,
                    accepted,
                    tie,
                    coco: gate.coco(),
                    div: gate.div(),
                });
                check_round(
                    next + i,
                    (outcome.coco_delta, outcome.div_delta),
                    outcome.sweep_deltas,
                    accepted,
                )?;
                if accepted {
                    invalidated = outcome.labels != labeling.labels;
                    labeling.set_labels(outcome.labels);
                    if invalidated {
                        break;
                    }
                }
            }
            let commit_us = commit_start.elapsed().as_micros() as u64;
            telemetry.phases.add(Phase::Commit, commit_us);
            trace.emit(TraceEvent::Phase {
                phase: Phase::Commit,
                round: None,
                level: None,
                elapsed_us: commit_us,
            });
            if b > 1 {
                trace.emit(TraceEvent::Speculation {
                    first_round: next,
                    batch_len: b,
                    committed,
                    invalidated,
                    depth,
                });
            }
            next += committed;
            // Reset only when speculations were actually discarded (an
            // acceptance in the batch's last slot wastes nothing).
            depth = if invalidated && committed < b {
                1
            } else {
                depth.saturating_mul(2).min(max_batch)
            };
        }

        let (final_coco, final_div) =
            coco_and_div_for_labels(graph, &labeling.labels, p_mask, full_e_mask);
        check_end_of_run(
            &labeling.sorted_label_set(),
            &original_set,
            &gate,
            final_coco,
            cfg.use_diversity.then_some(final_div),
        )?;
        telemetry.worker_panics = worker_panics;
        telemetry.stop_reason = stop_reason;
        trace.emit(TraceEvent::RunEnd {
            final_coco,
            final_div,
            accepted: telemetry.accepted,
            rejected: telemetry.rejected,
            ties: telemetry.ties,
            stop_reason: stop_reason.name(),
            worker_panics,
        });
        Ok(TimerResult {
            mapping: labeling.to_mapping(),
            labeling,
            initial_coco,
            final_coco,
            initial_coco_plus,
            final_coco_plus: final_coco as i64 - final_div as i64,
            final_diversity: final_div,
            hierarchies_accepted: gate.kept(),
            total_swaps,
            total_repaired: 0,
            telemetry,
            stop_reason,
        })
    }

    /// [`Timer::enhance`] on the labeling held by `ctx`, the entry point a
    /// long-running service uses with a cached [`TopologyContext`]. The
    /// result is byte-identical to [`Timer::enhance`] for the same inputs.
    ///
    /// # Errors
    /// Same contract as [`Timer::enhance`].
    pub fn enhance_with_context(
        &self,
        graph: &Graph,
        ctx: &TopologyContext,
        initial: &Mapping,
    ) -> Result<TimerResult, TieError> {
        self.enhance(graph, ctx.pcube(), initial)
    }
}

/// Algorithm 1's digit permutations (line 6): one shuffled `0..dim`
/// permutation per round, drawn in round order from one seeded RNG. Rounds
/// are drawn when first scheduled and kept for re-runs, so the stream never
/// depends on the schedule and only the rounds scheduled so far are held.
struct Permutations {
    rng: StdRng,
    dim: usize,
    drawn: Vec<Vec<usize>>,
}

impl Permutations {
    fn new(seed: u64, dim: usize) -> Self {
        Permutations {
            rng: StdRng::seed_from_u64(seed.wrapping_add(0x51ed_270b)),
            dim,
            drawn: Vec::new(),
        }
    }

    /// The permutations of rounds `0..end`, drawing the missing ones.
    fn draw_until(&mut self, end: usize) -> &[Vec<usize>] {
        while self.drawn.len() < end {
            let mut perm: Vec<usize> = (0..self.dim).collect();
            perm.shuffle(&mut self.rng);
            self.drawn.push(perm);
        }
        &self.drawn
    }
}

/// Usable hardware parallelism (respects CPU affinity/cgroup limits), cached
/// after the first query; 1 when the platform cannot tell.
pub(crate) fn hardware_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Stringifies a panic payload (`&str` and `String` payloads cover every
/// `panic!` in this workspace; anything else is described by its type).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// The end-of-run invariants, checked in every build profile: the sorted
/// label multiset is unchanged (which preserves the balance of µ), and the
/// incremental `gate` agrees with the final full recompute — on Coco
/// always, on Div when the run optimized it (`final_div` is `Some`).
fn check_end_of_run(
    final_set: &[u64],
    original_set: &[u64],
    gate: &AcceptGate,
    final_coco: u64,
    final_div: Option<u64>,
) -> Result<(), TieError> {
    let (coco, div) = (gate.coco(), gate.div());
    let violation = if final_set != original_set {
        "the label multiset changed, so the mapping's balance is lost".to_string()
    } else if coco != final_coco as i64 {
        format!("incremental Coco {coco} drifted from the final recompute {final_coco}")
    } else if let Some(d) = final_div.filter(|&d| div != d as i64) {
        format!("incremental Div {div} drifted from the final recompute {d}")
    } else {
        return Ok(());
    };
    Err(TieError::InvariantViolated(violation))
}

/// The per-round invariants of exact assembly, checked in every build
/// profile: the delta scan's `(ΔCoco, ΔDiv)` equals the sums the round's
/// sweeps recorded, and the gate kept the round.
fn check_round(
    round: usize,
    scan: (i64, i64),
    sweep: (i64, i64),
    accepted: bool,
) -> Result<(), TieError> {
    let violation = if scan != sweep {
        format!(
            "round {round}: the delta scan's (ΔCoco, ΔDiv) {scan:?} differs from \
             the sweeps' sums {sweep:?}"
        )
    } else if !accepted {
        format!("round {round}: the gate rejected an exact round with (ΔCoco, ΔDiv) {scan:?}")
    } else {
        return Ok(());
    };
    Err(TieError::InvariantViolated(violation))
}

/// Runs one hierarchy round inside a panic guard: a panicking round (real
/// bug or injected fault) becomes an `Err` carrying the panic message
/// instead of unwinding across the driver. `run_round` only touches local
/// state, so unwinding out of it cannot leave broken shared state behind —
/// which is what makes `AssertUnwindSafe` sound here.
#[allow(clippy::too_many_arguments)] // private helper mirroring run_round
fn guarded_round(
    graph: &Graph,
    base: &[u64],
    perm: &[usize],
    dim: usize,
    p_mask: u64,
    e_mask: u64,
    round: usize,
    trace: &TraceHandle,
    faults: &FaultHandle,
    scratch: &mut HierarchyScratch,
) -> Result<RoundOutcome, String> {
    // `scratch` crossing the unwind boundary is sound for the same reason the
    // base state is: every scratch buffer is cleared/resized at the start of
    // its next use, so no result ever depends on what a panicked round left
    // behind in it.
    catch_unwind(AssertUnwindSafe(|| {
        run_round(
            graph, base, perm, dim, p_mask, e_mask, round, trace, faults, scratch,
        )
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// Result of one executed hierarchy round, ready for the accept gate.
struct RoundOutcome {
    /// Candidate fine-level labels (digit permutation already undone).
    labels: Vec<u64>,
    /// Exact `Coco` change of the candidate vs the base it was built from.
    coco_delta: i64,
    /// Exact `Div` change of the candidate vs the base it was built from.
    div_delta: i64,
    /// Swaps performed by the round's sweeps.
    swaps: usize,
    /// The `(ΔCoco, ΔDiv)` the round's sweeps summed up.
    sweep_deltas: (i64, i64),
    /// Base-graph arcs the round's sweeps read.
    sweep_arcs: usize,
    /// Arcs the round fed to the contraction kernel.
    contract_arcs: usize,
    /// Wall-clock breakdown of this round's phases.
    phases: PhaseTimes,
}

/// Executes one full hierarchy round (Algorithm 1 lines 6–16) from `base`:
/// permute digits, build and sweep the hierarchy, assemble, un-permute, and
/// price the candidate against the base via an incidence-limited delta scan.
/// Pure function of `(base, perm)` — the speculation correctness hinges on
/// that; `round`/`trace` only record what happened and never influence it.
#[allow(clippy::too_many_arguments)] // private helper mirroring the algorithm
fn run_round(
    graph: &Graph,
    base: &[u64],
    perm: &[usize],
    dim: usize,
    p_mask: u64,
    e_mask: u64,
    round: usize,
    trace: &TraceHandle,
    faults: &FaultHandle,
    scratch: &mut HierarchyScratch,
) -> RoundOutcome {
    // Chaos probe: with an armed fault plan this round panics here (inside
    // the caller's panic guard); with the default disabled handle it is a
    // single branch, exactly like the trace probes.
    faults.maybe_panic(round);
    let mut phases = PhaseTimes::default();
    let inv = invert_permutation(perm);

    // Line 7: permute labels (and the masks along with them).
    faults.delay("hierarchy_build");
    // tie-lint: allow(no-wallclock) — hierarchy-phase telemetry
    let build_start = Instant::now();
    let permuted: Vec<u64> = base
        .iter()
        .map(|&l| permute_label_bits(l, perm, dim))
        .collect();
    let p_mask_perm = permute_label_bits(p_mask, perm, dim);
    let e_mask_perm = permute_label_bits(e_mask, perm, dim);

    // Lines 9-14: swap sweeps interleaved with contractions, all on this
    // thread: parallelism lives one level up (whole rounds), which is what
    // keeps the result thread-count-invariant.
    let run = build_hierarchy_traced(
        graph,
        permuted,
        dim,
        p_mask_perm,
        e_mask_perm,
        Some(round),
        trace,
        scratch,
    );
    // The hierarchy-build span contains the per-level sweep/contract spans.
    let build_us = build_start.elapsed().as_micros() as u64;
    phases.merge(&run.phases);
    phases.add(Phase::HierarchyBuild, build_us);
    trace.emit(TraceEvent::Phase {
        phase: Phase::HierarchyBuild,
        round: Some(round),
        level: None,
        elapsed_us: build_us,
    });

    // Line 15: assemble a new fine-level labeling from the hierarchy, then
    // (line 16) undo the digit permutation.
    faults.delay("assemble");
    // tie-lint: allow(no-wallclock) — assemble-phase telemetry
    let assemble_start = Instant::now();
    let labels: Vec<u64> = assemble_labels(&run)
        .into_iter()
        .map(|l| permute_label_bits(l, &inv, dim))
        .collect();
    let assemble_us = assemble_start.elapsed().as_micros() as u64;
    phases.add(Phase::Assemble, assemble_us);
    trace.emit(TraceEvent::Phase {
        phase: Phase::Assemble,
        round: Some(round),
        level: None,
        elapsed_us: assemble_us,
    });

    // Lines 17-19 pricing: Div only steers the search, so a round must also
    // not worsen the true communication cost. The scan is independent of
    // the sweeps' own sums, which the commit checks it against.
    faults.delay("delta_scan");
    // tie-lint: allow(no-wallclock) — delta-scan-phase telemetry
    let scan_start = Instant::now();
    let (coco_delta, div_delta) = coco_div_delta(graph, base, &labels, p_mask, e_mask);
    let scan_us = scan_start.elapsed().as_micros() as u64;
    phases.add(Phase::DeltaScan, scan_us);
    trace.emit(TraceEvent::Phase {
        phase: Phase::DeltaScan,
        round: Some(round),
        level: None,
        elapsed_us: scan_us,
    });
    RoundOutcome {
        labels,
        coco_delta,
        div_delta,
        swaps: run.total_swaps,
        sweep_deltas: (run.coco_delta, run.div_delta),
        sweep_arcs: run.sweep_arcs,
        contract_arcs: run.contract_arcs,
        phases,
    }
}

/// Convenience wrapper: runs TIMER with `config` on the given instance.
///
/// # Errors
/// Same contract as [`Timer::enhance`].
pub fn enhance_mapping(
    graph: &Graph,
    pcube: &PartialCubeLabeling,
    initial: &Mapping,
    config: TimerConfig,
) -> Result<TimerResult, TieError> {
    Timer::new(config).enhance(graph, pcube, initial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;
    use tie_graph::traversal::all_pairs_distances;
    use tie_mapping::identity_mapping;
    use tie_partition::{partition, PartitionConfig};
    use tie_topology::{recognize_partial_cube, Topology};

    /// Shared test fixture: a complex network mapped onto a 4x4 grid via a
    /// partition plus the identity bijection (experimental case c2 in small).
    fn fixture(seed: u64) -> (Graph, Topology, PartialCubeLabeling, Mapping) {
        let ga =
            generators::randomize_edge_weights(&generators::barabasi_albert(400, 3, seed), 4, seed);
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let part = partition(&ga, &PartitionConfig::new(16, seed));
        let mapping = identity_mapping(&part, 16);
        (ga, topo, pcube, mapping)
    }

    fn coco_by_distances(ga: &Graph, gp: &Graph, m: &Mapping) -> u64 {
        let dist = all_pairs_distances(gp);
        ga.edges()
            .map(|(u, v, w)| w * dist.get(m.pe_of(u), m.pe_of(v)) as u64)
            .sum()
    }

    #[test]
    fn timer_never_worsens_coco_plus_and_preserves_balance() {
        let (ga, topo, pcube, mapping) = fixture(1);
        let result = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(10, 7)).unwrap();
        assert!(result.final_coco_plus <= result.initial_coco_plus);
        // Balance: identical load multiset before and after.
        let mut before = mapping.load_per_pe();
        let mut after = result.mapping.load_per_pe();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        // Reported Coco matches the independent distance-based computation.
        assert_eq!(
            result.final_coco,
            coco_by_distances(&ga, &topo.graph, &result.mapping)
        );
        assert_eq!(
            result.initial_coco,
            coco_by_distances(&ga, &topo.graph, &mapping)
        );
    }

    #[test]
    fn timer_improves_a_scrambled_mapping_substantially() {
        // Start from a partition mapped with a *random* bijection of blocks
        // to PEs — plenty of room for improvement, which TIMER must find.
        let (ga, topo, pcube, _) = fixture(2);
        let part = partition(&ga, &PartitionConfig::new(16, 2));
        let scramble = generators::random_permutation(16, 3);
        let bad = Mapping::from_partition(&part, &scramble, 16);
        let result = enhance_mapping(&ga, &pcube, &bad, TimerConfig::new(15, 5)).unwrap();
        assert!(
            result.final_coco < result.initial_coco,
            "TIMER should reduce Coco: {} -> {}",
            result.initial_coco,
            result.final_coco
        );
        assert!(
            result.coco_improvement() > 0.05,
            "improvement {}",
            result.coco_improvement()
        );
        // Exact swaps: the gate keeps every round, and nothing is repaired.
        assert_eq!(result.hierarchies_accepted, 15);
        assert_eq!((result.telemetry.rejected, result.total_repaired), (0, 0));
        assert_eq!(
            result.final_coco,
            coco_by_distances(&ga, &topo.graph, &result.mapping)
        );
    }

    #[test]
    fn timer_is_deterministic_in_seed() {
        let (ga, _, pcube, mapping) = fixture(3);
        let a = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(5, 11)).unwrap();
        let b = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(5, 11)).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.final_coco, b.final_coco);
    }

    /// The permutation stream as the driver generated it up front before
    /// it drew rounds lazily: the reference the lazy draw is pinned to.
    fn generate_permutations(seed: u64, dim: usize, num_hierarchies: usize) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x51ed_270b));
        (0..num_hierarchies)
            .map(|_| {
                let mut perm: Vec<usize> = (0..dim).collect();
                perm.shuffle(&mut rng);
                perm
            })
            .collect()
    }

    #[test]
    fn lazy_draw_matches_generate_permutations() {
        // Rounds are drawn in batches of any size, and a re-run asks again
        // for rounds already drawn; the stream must not notice either.
        for (seed, dim, nh) in [(0, 4, 9), (7, 10, 12), (3, 22, 40), (u64::MAX, 30, 17)] {
            let reference = generate_permutations(seed, dim, nh);
            let mut perms = Permutations::new(seed, dim);
            let mut next = 0;
            for step in [1, 2, 0, 4, 1, 8, 3].into_iter().cycle() {
                if next == nh {
                    break;
                }
                next = (next + step).min(nh);
                let drawn = perms.draw_until(next);
                assert_eq!(drawn, &reference[..next], "seed {seed}, dim {dim}");
                let _ = perms.draw_until(next / 2);
            }
            assert_eq!(perms.drawn.len(), nh);
        }
    }

    #[test]
    fn drawn_rounds_are_kept_and_keyed_by_seed_and_dim() {
        let mut perms = Permutations::new(7, 10);
        let first: Vec<*const usize> = perms.draw_until(5).iter().map(|p| p.as_ptr()).collect();
        // Asking again, or for more rounds, hands back the kept rounds
        // instead of drawing them anew.
        let again: Vec<*const usize> = perms.draw_until(3).iter().map(|p| p.as_ptr()).collect();
        assert_eq!(again, first);
        let drawn = perms.draw_until(12).to_vec();
        let kept: Vec<*const usize> = perms.drawn[..5].iter().map(|p| p.as_ptr()).collect();
        assert_eq!(kept, first, "drawing more must not redraw kept rounds");
        assert_eq!(drawn.len(), 12);
        // The stream is keyed by both the seed and the dimension, and every
        // round is a permutation of `0..dim`.
        assert_ne!(Permutations::new(8, 10).draw_until(12), &drawn[..]);
        let other_dim = Permutations::new(7, 11).draw_until(12).to_vec();
        for (dim, stream) in [(10, &drawn), (11, &other_dim)] {
            for perm in stream {
                let mut sorted = perm.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..dim).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn speculation_events_account_for_every_executed_round() {
        // Speculated rounds (Σ `batch_len`) plus single-round batches (commit
        // spans without a speculation event) must be the rounds run (one
        // hierarchy-build span each). One worker runs every round inline and
        // must report no speculation, whatever `batch` asks for.
        use std::sync::Arc;
        use tie_trace::{MemorySink, TraceLevel};

        let (ga, _, pcube, mapping) = fixture(8);
        for (threads, batch) in [(1, 2), (1, 4), (2, 0)] {
            let sink = Arc::new(MemorySink::default());
            let cfg = TimerConfig::new(12, 4)
                .with_threads(threads)
                .with_batch(batch)
                .with_trace(TraceHandle::new(sink.clone(), TraceLevel::Phase));
            enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();
            let (mut cap, mut speculated, mut spec_batches, mut batches, mut executed) =
                (0, 0, 0, 0, 0);
            for record in sink.events() {
                match record.event {
                    TraceEvent::RunStart { batch, .. } => cap = batch,
                    TraceEvent::Speculation { batch_len, .. } => {
                        speculated += batch_len;
                        spec_batches += 1;
                    }
                    TraceEvent::Phase {
                        phase: Phase::Commit,
                        ..
                    } => batches += 1,
                    TraceEvent::Phase {
                        phase: Phase::HierarchyBuild,
                        ..
                    } => executed += 1,
                    _ => {}
                }
            }
            let label = format!("threads={threads} batch={batch}");
            assert_eq!(speculated + batches - spec_batches, executed, "{label}");
            if threads.min(hardware_threads()) == 1 {
                assert_eq!((cap, spec_batches, executed), (1, 0, 12), "{label}");
            } else {
                assert_eq!(cap, 2, "{label}");
                assert!(spec_batches > 0, "{label}: two workers must speculate");
            }
        }
    }

    #[test]
    fn enhance_with_context_is_byte_identical_to_enhance() {
        // A shared, reused `TopologyContext` must never change result bytes:
        // cold context, warm context and the plain `enhance` call all walk
        // the identical trajectory.
        let (ga, topo, pcube, mapping) = fixture(7);
        let timer = Timer::new(TimerConfig::new(10, 7).with_threads(2));
        let direct = timer.enhance(&ga, &pcube, &mapping).unwrap();
        let ctx = TopologyContext::recognize(&topo.graph).unwrap();
        let cold = timer.enhance_with_context(&ga, &ctx, &mapping).unwrap();
        let warm = timer.enhance_with_context(&ga, &ctx, &mapping).unwrap();
        for (label, r) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(r.labeling.labels, direct.labeling.labels, "{label}");
            assert_eq!(r.mapping, direct.mapping, "{label}");
            assert_eq!(r.final_coco, direct.final_coco, "{label}");
            assert_eq!(r.final_coco_plus, direct.final_coco_plus, "{label}");
            assert_eq!(r.final_diversity, direct.final_diversity, "{label}");
            assert_eq!(
                r.hierarchies_accepted, direct.hierarchies_accepted,
                "{label}"
            );
            assert_eq!(r.total_swaps, direct.total_swaps, "{label}");
        }
    }

    #[test]
    fn end_of_run_check_rejects_altered_labels_and_gate_drift() {
        // Feed the release-mode check a real run's end state, then
        // deliberately altered copies of it.
        let (ga, _, pcube, mapping) = fixture(1);
        let r = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(4, 7)).unwrap();
        let set = r.labeling.sorted_label_set();
        let (coco, div) = (r.final_coco, r.final_diversity);
        let gate = AcceptGate::new(coco, div);
        assert!(check_end_of_run(&set, &set, &gate, coco, Some(div)).is_ok());
        // Vertex 0 takes vertex 1's label: one label duplicated, one lost.
        let mut altered = r.labeling.labels.clone();
        altered[0] = altered[1];
        altered.sort_unstable();
        for (final_set, final_coco, final_div, needle) in [
            (&altered, coco, Some(div), "multiset"),
            (&set, coco + 1, Some(div), "Coco"),
            (&set, coco, Some(div + 1), "Div"),
        ] {
            let err = check_end_of_run(final_set, &set, &gate, final_coco, final_div);
            assert!(matches!(err, Err(TieError::InvariantViolated(m)) if m.contains(needle)));
        }
        // With diversity off the gate carries no Div, and none is compared.
        assert!(check_end_of_run(&set, &set, &AcceptGate::new(coco, 0), coco, None).is_ok());
    }

    #[test]
    fn round_check_rejects_mispriced_and_rejected_rounds() {
        // An exact round the gate kept passes.
        assert!(check_round(3, (-7, 2), (-7, 2), true).is_ok());
        // A delta scan that disagrees with the sweeps' sums, and a round the
        // gate rejected, each end the run.
        for (scan, sweep, accepted, needle) in [
            ((-7, 2), (-6, 2), true, "differs"),
            ((-7, 3), (-7, 2), true, "differs"),
            ((5, 0), (5, 0), false, "rejected"),
        ] {
            let err = check_round(3, scan, sweep, accepted);
            assert!(
                matches!(&err, Err(TieError::InvariantViolated(m)) if m.contains(needle) && m.contains("round 3")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn speculation_depth_never_exceeds_the_worker_count() {
        // On an edgeless graph no round changes the labels, so nothing
        // invalidates a batch and the depth keeps doubling, up to the cap:
        // the worker count, whatever `batch` asks for.
        use std::sync::Arc;
        use tie_trace::{MemorySink, TraceLevel};

        let topo = Topology::grid2d(2, 2);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = Graph::from_edges(8, &[]);
        let mapping = Mapping::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let workers = 2.min(hardware_threads());
        let sink = Arc::new(MemorySink::default());
        let cfg = TimerConfig::new(40, 1)
            .with_threads(2)
            .with_batch(64)
            .with_trace(TraceHandle::new(sink.clone(), TraceLevel::Phase));
        assert_eq!(cfg.effective_batch(), workers);
        let r = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();
        assert_eq!(r.hierarchies_accepted, 40);
        let mut cap = 0;
        let mut batches = Vec::new();
        for record in sink.events() {
            match record.event {
                TraceEvent::RunStart { batch, .. } => cap = batch,
                TraceEvent::Speculation { batch_len, .. } => batches.push(batch_len),
                _ => {}
            }
        }
        assert_eq!(cap, workers);
        assert!(batches.iter().all(|&b| b <= workers), "{batches:?}");
        if workers > 1 {
            assert!(batches.contains(&workers), "{batches:?}");
        }
    }

    #[test]
    fn unrepresentable_deadline_means_no_deadline() {
        let (ga, _, pcube, mapping) = fixture(3);
        let plain = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(5, 11)).unwrap();
        let cfg = TimerConfig::new(5, 11).with_deadline(std::time::Duration::MAX);
        let r = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();
        assert_eq!(r.stop_reason, StopReason::Completed);
        assert_eq!(r.labeling.labels, plain.labeling.labels);
    }

    #[test]
    fn more_hierarchies_do_not_hurt() {
        let (ga, _, pcube, mapping) = fixture(4);
        let few = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(2, 9)).unwrap();
        let many = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(20, 9)).unwrap();
        assert!(many.final_coco_plus <= few.final_coco_plus);
    }

    #[test]
    fn diversity_ablation_still_valid() {
        let (ga, topo, pcube, mapping) = fixture(5);
        let result = enhance_mapping(
            &ga,
            &pcube,
            &mapping,
            TimerConfig::new(8, 3).without_diversity(),
        )
        .unwrap();
        assert!(result.final_coco <= result.initial_coco);
        assert_eq!(result.hierarchies_accepted, 8, "every exact round is kept");
        assert_eq!(
            result.final_coco,
            coco_by_distances(&ga, &topo.graph, &result.mapping)
        );
    }

    #[test]
    fn batched_variant_produces_valid_result() {
        let (ga, topo, pcube, mapping) = fixture(6);
        let result = enhance_mapping(
            &ga,
            &pcube,
            &mapping,
            TimerConfig::new(6, 2).with_threads(4),
        )
        .unwrap();
        assert!(result.final_coco_plus <= result.initial_coco_plus);
        assert_eq!(
            result.final_coco,
            coco_by_distances(&ga, &topo.graph, &result.mapping)
        );
        let mut before = mapping.load_per_pe();
        let mut after = result.mapping.load_per_pe();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn batched_enhance_is_byte_identical_across_threads_and_batches() {
        // Threads and batch are pure scheduling knobs: every combination must
        // reproduce the sequential trajectory bit for bit, counters included.
        let (ga, _, pcube, mapping) = fixture(8);
        let sequential = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(12, 4)).unwrap();
        for (threads, batch) in [(2, 0), (4, 0), (4, 2), (3, 5), (8, 8), (1, 4)] {
            let r = enhance_mapping(
                &ga,
                &pcube,
                &mapping,
                TimerConfig::new(12, 4)
                    .with_threads(threads)
                    .with_batch(batch),
            )
            .unwrap();
            assert_eq!(
                r.labeling.labels, sequential.labeling.labels,
                "threads={threads} batch={batch}"
            );
            assert_eq!(r.mapping, sequential.mapping);
            assert_eq!(r.final_coco, sequential.final_coco);
            assert_eq!(r.final_coco_plus, sequential.final_coco_plus);
            assert_eq!(r.final_diversity, sequential.final_diversity);
            assert_eq!(r.hierarchies_accepted, sequential.hierarchies_accepted);
            assert_eq!(r.total_swaps, sequential.total_swaps);
        }
    }

    #[test]
    fn equal_objective_rounds_count_as_accepted() {
        // Regression for the accept-gate bookkeeping: on an edgeless
        // application graph every candidate labeling has objective 0, so
        // every round ties with the incumbent, is kept (its labels replace
        // the labeling), and must therefore be counted — the old counter
        // only saw strict improvements and reported 0.
        let topo = Topology::grid2d(2, 2);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = Graph::from_edges(8, &[]);
        let mapping = Mapping::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let result = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(6, 1)).unwrap();
        assert_eq!(result.final_coco, 0);
        assert_eq!(
            result.hierarchies_accepted, 6,
            "every equal-objective round replaces the labeling and must be counted"
        );
        // The tie-only instance also exercises the speculation fast path
        // (kept rounds with unchanged labels must not invalidate the batch).
        let batched = enhance_mapping(
            &ga,
            &pcube,
            &mapping,
            TimerConfig::new(6, 1).with_threads(4),
        )
        .unwrap();
        assert_eq!(batched.hierarchies_accepted, 6);
        assert_eq!(batched.labeling.labels, result.labeling.labels);
    }

    #[test]
    fn tie_rounds_are_kept_and_reported_as_ties_in_telemetry() {
        // Accept-gate tie semantics, observed through the flight recorder:
        // on an edgeless application graph every candidate has zero deltas,
        // so every round is an equal-objective tie — kept by the gate
        // (`AcceptGate::offer` folds it in), flagged `tie` on its gate
        // event, and counted in `RoundTelemetry::ties`.
        use std::sync::Arc;
        use tie_trace::{MemorySink, TraceLevel};

        let topo = Topology::grid2d(2, 2);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = Graph::from_edges(8, &[]);
        let mapping = Mapping::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let nh = 6;
        let sink = Arc::new(MemorySink::default());
        let cfg =
            TimerConfig::new(nh, 1).with_trace(TraceHandle::new(sink.clone(), TraceLevel::Gate));
        let result = enhance_mapping(&ga, &pcube, &mapping, cfg).unwrap();

        assert_eq!(result.telemetry.accepted, nh);
        assert_eq!(result.telemetry.rejected, 0);
        assert_eq!(result.telemetry.ties, nh);
        assert_eq!(result.telemetry.rounds(), nh);

        // One gate event per round, in round order, every one a kept tie
        // with both deltas zero and the objective values unchanged.
        let gates: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::Gate {
                    round,
                    coco_delta,
                    div_delta,
                    accepted,
                    tie,
                    coco,
                    div,
                    ..
                } => Some((round, coco_delta, div_delta, accepted, tie, coco, div)),
                _ => None,
            })
            .collect();
        assert_eq!(gates.len(), nh);
        for (i, &(round, coco_delta, div_delta, accepted, tie, coco, div)) in
            gates.iter().enumerate()
        {
            assert_eq!(round, i);
            assert_eq!((coco_delta, div_delta), (0, 0));
            assert!(accepted, "tie rounds are kept");
            assert!(tie, "zero-delta rounds must be flagged as ties");
            assert_eq!((coco, div), (0, 0));
        }
    }

    #[test]
    fn works_on_torus_and_hypercube_targets() {
        let ga = generators::watts_strogatz(512, 6, 0.1, 7);
        for topo in [Topology::torus2d(4, 4), Topology::hypercube(4)] {
            let pcube = recognize_partial_cube(&topo.graph).unwrap();
            let part = partition(&ga, &PartitionConfig::new(16, 1));
            let mapping = identity_mapping(&part, 16);
            let result = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(8, 1)).unwrap();
            assert!(result.final_coco <= result.initial_coco, "{}", topo.name);
            assert_eq!(
                result.final_coco,
                coco_by_distances(&ga, &topo.graph, &result.mapping),
                "{}",
                topo.name
            );
        }
    }

    #[test]
    fn one_task_per_pe_instance() {
        // |Va| = |Vp|: no extension bits at all; TIMER degenerates to pure
        // PE-label swapping and must still not worsen anything.
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = generators::randomize_edge_weights(&topo.graph, 3, 1);
        let mapping = Mapping::new(generators::random_permutation(16, 5), 16);
        let result = enhance_mapping(&ga, &pcube, &mapping, TimerConfig::new(20, 3)).unwrap();
        assert!(result.final_coco <= result.initial_coco);
        assert!(result.labeling.is_unique());
    }
}
