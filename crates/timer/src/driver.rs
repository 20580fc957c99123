//! The TIMER driver (Algorithm 1): multi-hierarchical label swapping over
//! `NH` random digit permutations.
//!
//! # Speculative hierarchy batches
//!
//! The `NH` rounds form a sequential chain only through the accept gate:
//! round `k` starts from whatever labeling rounds `0..k` left behind. Most
//! rounds are *rejected*, though, so the chain rarely advances — which makes
//! the rounds ideal targets for speculation. With `threads > 1` the driver
//! runs a batch of `B` rounds (distinct digit permutations) concurrently
//! from the same accepted base labeling, then commits the results in
//! permutation order against the live gate. A kept round that actually
//! changes the labels invalidates the not-yet-committed speculations (they
//! were built from a stale base); those rounds are discarded — without
//! touching any counter — and re-executed from the new base in the next
//! batch. The committed trajectory is therefore **byte-identical to the
//! sequential driver** for every `(threads, batch)` combination: same
//! labels, same counters, same result, never worse than the sequential
//! trajectory — batching and threading are pure scheduling knobs.
//!
//! The speculation depth adapts like a branch predictor: it doubles after
//! every batch whose speculations all survived and resets to 1 whenever an
//! acceptance invalidated the batch, so the accept-heavy early rounds run
//! (nearly) waste-free while the reject-heavy tail gets full parallelism.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

use crossbeam::thread;

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
    /// Number of vertices whose assembled label needed the bijection repair.
    pub total_repaired: usize,
    /// Flight-recorder summary of the run: accept/reject/tie counts, the
    /// per-round `ΔCoco`/`ΔDiv` histograms and a per-phase wall-clock
    /// breakdown. Always collected (the gate side rides the delta scan the
    /// driver performs anyway); the gate side is byte-identical across
    /// `(threads, batch)` settings, the phase side is wall-clock.
    pub telemetry: RoundTelemetry,
    /// Why the run stopped offering rounds: [`StopReason::Completed`] on a
    /// full run, or the deadline / cancellation / adaptive-stopping cause
    /// that cut it short (the labeling is then the best accepted so far).
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
    /// when the end-of-run checks fail (changed label multiset, or a gate
    /// that drifted from the final recompute). Deadline expiry and
    /// cancellation are not errors — the run returns best-so-far with the
    /// matching [`StopReason`].
    pub fn enhance(
        &self,
        graph: &Graph,
        pcube: &PartialCubeLabeling,
        initial: &Mapping,
    ) -> Result<TimerResult, TieError> {
        // Thin wrapper over the context-borrowing entry point: a transient
        // context built from a clone of the labeling. Pinned byte-identical
        // to `enhance_with_context` by the driver tests.
        self.enhance_with_context(graph, &TopologyContext::new(pcube.clone()), initial)
    }

    /// [`Timer::enhance`] over borrowed per-topology state: the partial-cube
    /// labeling, memoized permutation streams and scratch sizing hints come
    /// from `ctx` instead of being rebuilt per call. This is the entry point
    /// a long-running service uses with a cached [`TopologyContext`]; the
    /// result is byte-identical to [`Timer::enhance`] for the same inputs —
    /// a context is a latency optimization, never a correctness dependency.
    ///
    /// # Errors
    /// Same contract as [`Timer::enhance`].
    pub fn enhance_with_context(
        &self,
        graph: &Graph,
        ctx: &TopologyContext,
        initial: &Mapping,
    ) -> Result<TimerResult, TieError> {
        let cfg = &self.config;
        cfg.validate()?;
        let pcube = ctx.pcube();
        // tie-lint: allow(no-wallclock) — deadline anchor and telemetry total; never read by the algorithm
        let start = Instant::now();
        let deadline = cfg.deadline.map(|d| start + d);
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
        let trace = &cfg.trace;
        let mut telemetry = RoundTelemetry::default();
        trace.emit(TraceEvent::RunStart {
            nh: cfg.num_hierarchies,
            threads: cfg.threads.max(1),
            batch: cfg.effective_batch(),
            initial_coco,
            initial_div: if cfg.use_diversity { initial_div } else { 0 },
        });

        // Line 6 for all rounds up front: the permutation stream depends only
        // on `(seed, dim, NH)`, never on the batching schedule, so every
        // (threads, batch) setting — and every cache disposition — sees
        // identical hierarchies. The context memoizes the stream across runs.
        let perms = ctx.permutations(cfg.seed, dim, cfg.num_hierarchies);

        let mut total_swaps = 0usize;
        let mut total_repaired = 0usize;
        let threads = cfg.threads.max(1);
        let max_batch = cfg.effective_batch();

        // Adaptive speculation depth, branch-predictor style: rounds are
        // accept-heavy early (every acceptance throws speculated successors
        // away) and reject-heavy late (speculation always pays off). Start
        // cautious, double the depth after every batch whose speculations all
        // survived, reset to 1 whenever speculated rounds had to be
        // discarded. The depth only schedules work — the committed trajectory
        // stays byte-identical for every (threads, batch) setting.
        let mut depth = 1usize;

        let mut stop_reason = StopReason::Completed;
        let mut worker_panics = 0usize;
        let mut consecutive_rejections = 0usize;

        // One hierarchy scratch per worker slot, living for the whole run:
        // worker k of every batch reuses slot k's sweep/contraction buffers,
        // so the allocation set of the hot path is paid once per `enhance`
        // call instead of once per level per round. Scratch contents never
        // influence results (pinned by the contraction-equivalence proptest),
        // so the byte-identity guarantee is untouched. The context's sizing
        // hint (high-water vertex count of earlier runs) pre-sizes the
        // buffers so a warm-context run skips the growth reallocations too.
        ctx.note_vertices(graph.num_vertices());
        let scratch_hint = ctx.scratch_vertices_hint();
        let mut scratches: Vec<HierarchyScratch> =
            std::iter::repeat_with(|| HierarchyScratch::with_vertex_capacity(scratch_hint))
                .take(threads)
                .collect();

        let mut next = 0usize;
        while next < perms.len() {
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
            let b = depth.min(max_batch).min(perms.len() - next);
            let attempts: Vec<Result<RoundOutcome, String>> = if threads == 1 || b == 1 {
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
                // worker count — which is capped at the hardware parallelism
                // (oversubscribed workers only fight over the cache; on a
                // single-core box the batch runs on one spawned thread).
                let base: &[u64] = &labeling.labels;
                let workers = threads
                    .min(b)
                    .min(hardware_threads().unwrap_or(threads))
                    .max(1);
                let chunk = b.div_ceil(workers);
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

            // Commit survivors in permutation order against the live gate. A
            // kept round that changes the labels invalidates the remaining
            // speculations: they are dropped without touching any counter and
            // re-run from the new base, which keeps the whole trajectory
            // byte-identical to the sequential driver.
            // tie-lint: allow(no-wallclock) — commit-phase telemetry
            let commit_start = Instant::now();
            let mut committed = 0usize;
            let mut invalidated = false;
            let mut rejection_stop = None;
            for (i, outcome) in outcomes.into_iter().enumerate() {
                total_swaps += outcome.swaps;
                total_repaired += outcome.repaired;
                telemetry.sweep_arcs += outcome.sweep_arcs;
                telemetry.contract_arcs += outcome.contract_arcs;
                committed += 1;
                let accepted = gate.offer(outcome.coco_delta, outcome.div_delta);
                // An equal-objective keep: `ΔCoco⁺ = ΔCoco − ΔDiv = 0`.
                let tie = accepted && outcome.coco_delta == outcome.div_delta;
                telemetry.record_gate(
                    outcome.coco_delta,
                    outcome.div_delta,
                    outcome.repaired,
                    accepted,
                    tie,
                );
                trace.emit(TraceEvent::Gate {
                    round: next + i,
                    coco_delta: outcome.coco_delta,
                    div_delta: outcome.div_delta,
                    repaired: outcome.repaired,
                    accepted,
                    tie,
                    coco: gate.coco(),
                    div: gate.div(),
                });
                if accepted {
                    consecutive_rejections = 0;
                    invalidated = outcome.labels != labeling.labels;
                    labeling.set_labels(outcome.labels);
                    if invalidated {
                        break;
                    }
                } else {
                    consecutive_rejections += 1;
                    // Adaptive stopping rule (opt-in): counted in commit
                    // order, which is permutation order for every
                    // (threads, batch) setting — so the truncation point and
                    // hence the result stay byte-identical across thread
                    // counts.
                    if let Some(k) = cfg.max_consecutive_rejections {
                        if consecutive_rejections >= k {
                            rejection_stop = Some(StopReason::ConsecutiveRejections(k));
                            break;
                        }
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
                (depth * 2).min(max_batch.max(1))
            };

            #[cfg(debug_assertions)]
            {
                let (c, d) = coco_and_div_for_labels(graph, &labeling.labels, p_mask, e_mask);
                debug_assert_eq!(gate.coco(), c as i64, "incremental Coco drifted");
                debug_assert_eq!(gate.div(), d as i64, "incremental Div drifted");
            }

            if let Some(reason) = rejection_stop {
                stop_reason = reason;
                break;
            }
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
            total_repaired,
            telemetry,
            stop_reason,
        })
    }
}

/// Usable hardware parallelism (respects CPU affinity/cgroup limits), cached
/// after the first query. `None` when the platform cannot tell — the driver
/// then trusts the configured thread count instead of silently serializing
/// the batch (the old `.unwrap_or(1)` fallback capped every batch to one
/// spawned worker exactly on the platforms where parallelism is unknowable).
fn hardware_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| std::thread::available_parallelism().ok().map(|n| n.get()))
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
    /// Vertices whose assembled label needed the bijection repair.
    repaired: usize,
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
    let assembled = assemble_labels(&run, dim, scratch);
    let labels: Vec<u64> = assembled
        .labels
        .iter()
        .map(|&l| permute_label_bits(l, &inv, dim))
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
    // not worsen the true communication cost — without the separate Coco
    // delta, rounds that grow Div faster than Coco would be accepted and
    // plain Coco would drift upward as NH grows.
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
        repaired: assembled.repaired,
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
        assert!(result.hierarchies_accepted > 0);
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

    #[test]
    fn enhance_with_context_is_byte_identical_to_enhance() {
        // The context split's headline contract: a shared, reused
        // `TopologyContext` (memoized perm streams, warm scratch hints) must
        // never change result bytes — cold context, warm context and the
        // plain `enhance` wrapper all walk the identical trajectory.
        let (ga, topo, pcube, mapping) = fixture(7);
        let timer = Timer::new(TimerConfig::new(10, 7).with_threads(2));
        let direct = timer.enhance(&ga, &pcube, &mapping).unwrap();
        let ctx = TopologyContext::recognize(&topo.graph).unwrap();
        let cold = timer.enhance_with_context(&ga, &ctx, &mapping).unwrap();
        assert!(
            ctx.scratch_vertices_hint() >= ga.num_vertices(),
            "the first run must warm the context's sizing hint"
        );
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
            assert_eq!(r.total_repaired, direct.total_repaired, "{label}");
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
            assert_eq!(r.total_repaired, sequential.total_repaired);
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
