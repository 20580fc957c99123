//! The TIMER driver (Algorithm 1): multi-hierarchical label swapping over
//! `NH` random digit permutations.
//!
//! The `NH` rounds run one after another, each from the labeling the rounds
//! before it left behind. Every round draws its digit permutation (line 6)
//! from one seeded RNG into one reused buffer, builds and sweeps its
//! hierarchy on one [`HierarchyScratch`] that lives for the whole run,
//! checks the result and commits it. Memory therefore does not grow with
//! `NH`, and cancel and deadline are checked before every round.
//!
//! Every round is committed. The hierarchy swaps only sibling groups of
//! equal suffix class (see [`crate::hierarchy`]), so a round's
//! `(ΔCoco, ΔDiv)` is the sum of its sweeps' own deltas, with
//! `ΔCoco ≤ 0 ≤ ΔDiv`: no round worsens `Coco⁺` or plain Coco, which is
//! what Algorithm 1 (lines 17–19) asks of a kept round. The driver checks
//! both facts after every round's delta scan, in every build profile: a
//! round whose scan differs from its sweep sums, that raises Coco or that
//! lowers Div ends the run with [`TieError::InvariantViolated`]. The checked
//! deltas are added to running `(Coco, Div)` totals, which must equal the
//! final recompute.
//!
//! Since each round starts from the labels its predecessor committed, no
//! round can start before its predecessor is committed: the driver runs on
//! the calling thread. A round that panics ends the run with
//! [`TieError::WorkerPanicked`].

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

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
use crate::objective::{coco_and_div_for_labels, coco_div_delta};
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
    /// Number of hierarchy rounds committed: `NH` on a completed run, fewer
    /// when a deadline or cancellation stopped it.
    pub hierarchies_accepted: usize,
    /// Number of label swaps performed across all hierarchy sweeps.
    pub total_swaps: usize,
    /// Always 0: assembly is exact, so no assembled label is ever repaired
    /// (see [`crate::assemble`]). Kept only until the end-to-end benchmark,
    /// which still reads it, drops it.
    pub total_repaired: usize,
    /// Flight-recorder summary of the run: the per-round `ΔCoco`/`ΔDiv`
    /// histograms, the hierarchies' work counts and a per-phase wall-clock
    /// breakdown. Always collected (the gate side rides the delta scan the
    /// driver performs anyway); the gate side is deterministic, the phase
    /// side is wall-clock.
    pub telemetry: RoundTelemetry,
    /// Why the run stopped offering rounds: [`StopReason::Completed`] on a
    /// full run, or the deadline or cancellation that cut it short (the
    /// labeling is then the one the last committed round left).
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
    /// PE labels, label overflow), [`TieError::WorkerPanicked`] when a
    /// hierarchy round panics, and [`TieError::InvariantViolated`] when a
    /// round's delta scan differs from its sweep sums, when a round raises
    /// Coco or lowers Div, or when the end-of-run checks fail (changed label
    /// multiset, or running totals that drifted from the final recompute).
    /// Deadline expiry and cancellation are not errors — the run returns the
    /// labeling of the last committed round with the matching
    /// [`StopReason`].
    pub fn enhance(
        &self,
        graph: &Graph,
        pcube: &PartialCubeLabeling,
        initial: &Mapping,
    ) -> Result<TimerResult, TieError> {
        let cfg = &self.config;
        cfg.validate()?;
        // A deadline no instant can hold is no deadline.
        // tie-lint: allow(no-wallclock) — deadline anchor; never read by the algorithm
        let deadline = cfg.deadline.and_then(|d| Instant::now().checked_add(d));
        let faults = &cfg.faults;
        let mut labeling = Labeling::from_mapping(graph, pcube, initial, cfg.seed)?;
        let dim = labeling.dim;
        let p_mask = labeling.p_mask();
        let full_e_mask = labeling.ext_mask();
        let e_mask = if cfg.use_diversity { full_e_mask } else { 0 };

        // One edge scan seeds everything: the reported initial values and the
        // running totals, which from here on are updated purely from
        // per-round deltas (no full-graph objective recomputes in the round
        // loop). Div is carried only when the run optimizes it.
        let (initial_coco, initial_div) =
            coco_and_div_for_labels(graph, &labeling.labels, p_mask, full_e_mask);
        let initial_coco_plus = initial_coco as i64 - initial_div as i64;
        let original_set = labeling.sorted_label_set();
        let searched_div = if cfg.use_diversity { initial_div } else { 0 };
        let (mut coco, mut div) = (initial_coco as i64, searched_div as i64);
        let trace = &cfg.trace;
        let mut telemetry = RoundTelemetry::default();
        trace.emit(TraceEvent::RunStart {
            nh: cfg.num_hierarchies,
            initial_coco,
            initial_div: searched_div,
        });

        let mut permutations = Permutations::new(cfg.seed, dim);
        // One hierarchy scratch for the whole run: every round reuses its
        // sweep/contraction buffers, so they grow to size once per `enhance`
        // call instead of once per level per round. Scratch contents never
        // influence results (pinned by the contraction-equivalence proptest).
        let mut scratch = HierarchyScratch::default();
        let mut total_swaps = 0usize;
        let mut committed = 0usize;
        let mut stop_reason = StopReason::Completed;

        for round in 0..cfg.num_hierarchies {
            // Graceful-degradation checks before every round: the labeling
            // is always fully committed here, so stopping now loses nothing
            // but unexplored rounds.
            if cfg.cancel.is_cancelled() {
                stop_reason = StopReason::Cancelled;
                break;
            }
            // tie-lint: allow(no-wallclock) — deadline enforcement only decides when to stop, not what is computed
            if deadline.is_some_and(|t| Instant::now() >= t) {
                stop_reason = StopReason::DeadlineExceeded;
                break;
            }
            // Line 6.
            let perm = permutations.next_round();
            // A panicking round (real bug or injected fault) becomes a typed
            // error instead of unwinding across the caller. Nothing the round
            // touched is used after an unwind, which is what makes
            // `AssertUnwindSafe` sound here.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_round(
                    graph,
                    &labeling.labels,
                    perm,
                    dim,
                    p_mask,
                    e_mask,
                    round,
                    trace,
                    faults,
                    &mut scratch,
                    &mut telemetry.phases,
                )
            }))
            .map_err(|payload| TieError::WorkerPanicked {
                round,
                message: panic_message(payload.as_ref()),
            })?;

            // Check the round's invariants, then commit it.
            let commit = trace.span(Phase::Commit, Some(round), None);
            check_round(round, outcome.scan_deltas, outcome.sweep_deltas)?;
            let (coco_delta, div_delta) = outcome.scan_deltas;
            coco += coco_delta;
            div += div_delta;
            committed += 1;
            total_swaps += outcome.swaps;
            telemetry.sweep_arcs += outcome.sweep_arcs;
            telemetry.contract_arcs += outcome.contract_arcs;
            telemetry.record_gate(coco_delta, div_delta);
            trace.emit(TraceEvent::Gate {
                round,
                coco_delta,
                div_delta,
                coco,
                div,
            });
            labeling.set_labels(outcome.labels);
            commit.end(&mut telemetry.phases);
        }

        let (final_coco, final_div) =
            coco_and_div_for_labels(graph, &labeling.labels, p_mask, full_e_mask);
        check_end_of_run(
            &labeling.sorted_label_set(),
            &original_set,
            (coco, div),
            final_coco,
            cfg.use_diversity.then_some(final_div),
        )?;
        trace.emit(TraceEvent::RunEnd {
            final_coco,
            final_div,
            accepted: committed,
            stop_reason: stop_reason.name(),
        });
        Ok(TimerResult {
            mapping: labeling.to_mapping(),
            labeling,
            initial_coco,
            final_coco,
            initial_coco_plus,
            final_coco_plus: final_coco as i64 - final_div as i64,
            final_diversity: final_div,
            hierarchies_accepted: committed,
            total_swaps,
            total_repaired: 0,
            telemetry,
            stop_reason,
        })
    }

    /// [`Timer::enhance`] on the labeling held by `ctx`, byte-identical to
    /// it for the same inputs. Kept only for the end-to-end benchmark's
    /// replay, which still calls it; it goes with the replay.
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
/// permutation per round, drawn in round order from one seeded RNG into one
/// reused buffer.
struct Permutations {
    rng: StdRng,
    dim: usize,
    perm: Vec<usize>,
}

impl Permutations {
    fn new(seed: u64, dim: usize) -> Self {
        Permutations {
            rng: StdRng::seed_from_u64(seed.wrapping_add(0x51ed_270b)),
            dim,
            perm: Vec::with_capacity(dim),
        }
    }

    /// The next round's permutation.
    fn next_round(&mut self) -> &[usize] {
        self.perm.clear();
        self.perm.extend(0..self.dim);
        self.perm.shuffle(&mut self.rng);
        &self.perm
    }
}

/// Stringifies a panic payload (`&str` and `String` payloads cover every
/// `panic!` in this workspace; anything else is described by its type).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "round panicked with a non-string payload".to_string()
    }
}

/// The end-of-run invariants, checked in every build profile: the sorted
/// label multiset is unchanged (which preserves the balance of µ), and the
/// running `(coco, div)` totals agree with the final full recompute — on
/// Coco always, on Div when the run optimized it (`final_div` is `Some`).
fn check_end_of_run(
    final_set: &[u64],
    original_set: &[u64],
    (coco, div): (i64, i64),
    final_coco: u64,
    final_div: Option<u64>,
) -> Result<(), TieError> {
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
/// sweeps recorded, and `ΔCoco ≤ 0 ≤ ΔDiv`.
fn check_round(round: usize, scan: (i64, i64), sweep: (i64, i64)) -> Result<(), TieError> {
    let violation = if scan != sweep {
        format!(
            "round {round}: the delta scan's (ΔCoco, ΔDiv) {scan:?} differs from \
             the sweeps' sums {sweep:?}"
        )
    } else if scan.0 > 0 || scan.1 < 0 {
        format!("round {round}: an exact round has ΔCoco ≤ 0 ≤ ΔDiv, this one {scan:?}")
    } else {
        return Ok(());
    };
    Err(TieError::InvariantViolated(violation))
}

/// Result of one executed hierarchy round, ready to be checked and committed.
struct RoundOutcome {
    /// Candidate fine-level labels (digit permutation already undone).
    labels: Vec<u64>,
    /// Exact `(ΔCoco, ΔDiv)` of the candidate vs the base it was built from,
    /// from the delta scan.
    scan_deltas: (i64, i64),
    /// Swaps performed by the round's sweeps.
    swaps: usize,
    /// The `(ΔCoco, ΔDiv)` the round's sweeps summed up.
    sweep_deltas: (i64, i64),
    /// Base-graph arcs the round's sweeps read.
    sweep_arcs: usize,
    /// Arcs the round fed to the contraction kernel.
    contract_arcs: usize,
}

/// Executes one full hierarchy round (Algorithm 1 lines 6–16) from `base`:
/// permute digits, build and sweep the hierarchy, assemble, un-permute, and
/// price the candidate against the base via an incidence-limited delta scan.
/// Pure function of `(base, perm)`; `round`, `trace` and `times` only record
/// what happened and never influence it: each phase is a span that adds to
/// `times` and emits through `trace`.
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
    times: &mut PhaseTimes,
) -> RoundOutcome {
    // Chaos probe: with an armed fault plan this round panics here (inside
    // the round's `catch_unwind`); with the default disabled handle it is a
    // single branch, exactly like the trace probes.
    faults.maybe_panic(round);
    let inv = invert_permutation(perm);

    // Line 7: permute labels (and the masks along with them).
    faults.delay("hierarchy_build");
    // The hierarchy-build span contains the per-level sweep/contract spans.
    let build = trace.span(Phase::HierarchyBuild, Some(round), None);
    let permuted: Vec<u64> = base
        .iter()
        .map(|&l| permute_label_bits(l, perm, dim))
        .collect();
    let p_mask_perm = permute_label_bits(p_mask, perm, dim);
    let e_mask_perm = permute_label_bits(e_mask, perm, dim);

    // Lines 9-14: swap sweeps interleaved with contractions.
    let run = build_hierarchy_traced(
        graph,
        permuted,
        dim,
        p_mask_perm,
        e_mask_perm,
        Some(round),
        trace,
        scratch,
        times,
    );
    build.end(times);

    // Line 15: assemble a new fine-level labeling from the hierarchy, then
    // (line 16) undo the digit permutation.
    faults.delay("assemble");
    let assemble = trace.span(Phase::Assemble, Some(round), None);
    let labels: Vec<u64> = assemble_labels(&run)
        .into_iter()
        .map(|l| permute_label_bits(l, &inv, dim))
        .collect();
    assemble.end(times);

    // The scan is independent of the sweeps' own sums, which the commit
    // checks it against.
    faults.delay("delta_scan");
    let scan = trace.span(Phase::DeltaScan, Some(round), None);
    let scan_deltas = coco_div_delta(graph, base, &labels, p_mask, e_mask);
    scan.end(times);
    RoundOutcome {
        labels,
        scan_deltas,
        swaps: run.total_swaps,
        sweep_deltas: (run.coco_delta, run.div_delta),
        sweep_arcs: run.sweep_arcs,
        contract_arcs: run.contract_arcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
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
        let cfg = TimerConfig::new(10, 7);
        let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
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
        let cfg = TimerConfig::new(15, 5);
        let result = Timer::new(cfg).enhance(&ga, &pcube, &bad).unwrap();
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
        // Exact swaps: every round is committed, and nothing is repaired.
        assert_eq!(result.hierarchies_accepted, 15);
        assert_eq!(result.total_repaired, 0);
        assert_eq!(
            result.final_coco,
            coco_by_distances(&ga, &topo.graph, &result.mapping)
        );
    }

    #[test]
    fn timer_is_deterministic_in_seed() {
        let (ga, _, pcube, mapping) = fixture(3);
        let timer = Timer::new(TimerConfig::new(5, 11));
        let a = timer.enhance(&ga, &pcube, &mapping).unwrap();
        let b = timer.enhance(&ga, &pcube, &mapping).unwrap();
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
        // Drawing round by round into one reused buffer must reproduce the
        // up-front stream.
        for (seed, dim, nh) in [(0, 4, 9), (7, 10, 12), (3, 22, 40), (u64::MAX, 30, 17)] {
            let reference = generate_permutations(seed, dim, nh);
            let mut perms = Permutations::new(seed, dim);
            for (round, expected) in reference.iter().enumerate() {
                assert_eq!(
                    perms.next_round(),
                    expected,
                    "seed {seed}, dim {dim}, round {round}"
                );
            }
        }
    }

    #[test]
    fn drawn_rounds_are_kept_and_keyed_by_seed_and_dim() {
        // Every round is drawn into the one buffer the stream keeps: no drawn
        // round is stored beside it, so memory does not grow with `NH`.
        let mut perms = Permutations::new(7, 10);
        let buffer = perms.next_round().as_ptr();
        let mut drawn = vec![perms.perm.clone()];
        for _ in 1..12 {
            assert_eq!(
                perms.next_round().as_ptr(),
                buffer,
                "round drawn outside the kept buffer"
            );
            drawn.push(perms.perm.clone());
        }
        // The stream is keyed by both the seed and the dimension, and every
        // round is a permutation of `0..dim`.
        let stream = |seed, dim| {
            let mut p = Permutations::new(seed, dim);
            (0..12).map(|_| p.next_round().to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(stream(7, 10), drawn);
        assert_ne!(stream(8, 10), drawn);
        let other_dim = stream(7, 11);
        for (dim, rounds) in [(10, &drawn), (11, &other_dim)] {
            for perm in rounds {
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
        // hierarchy-build span each). The driver runs every round on the
        // calling thread, so it reports no speculation, whatever `threads`
        // and `batch` ask for.
        use std::sync::Arc;
        use tie_trace::{MemorySink, TraceLevel};

        let (ga, _, pcube, mapping) = fixture(8);
        for (threads, batch) in [(1, 2), (1, 4), (2, 0), (4, 64)] {
            let sink = Arc::new(MemorySink::default());
            let cfg = TimerConfig::new(12, 4)
                .with_threads(threads)
                .with_batch(batch)
                .with_trace(TraceHandle::new(sink.clone(), TraceLevel::Phase));
            Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
            let (mut speculated, mut spec_batches, mut batches, mut executed) = (0, 0, 0, 0);
            for record in sink.events() {
                match record.event {
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
            assert_eq!((spec_batches, executed), (0, 12), "{label}");
        }
    }

    #[test]
    fn speculation_depth_never_exceeds_the_worker_count() {
        // On an edgeless graph no round changes the labels, which is where
        // a speculating driver ran deepest. The depth is read off the trace
        // as the rounds whose hierarchy was built but not yet committed: one
        // at a time, so never more than the workers asked for, whatever
        // `batch` asks for.
        use std::sync::Arc;
        use tie_trace::{MemorySink, TraceLevel};

        let topo = Topology::grid2d(2, 2);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = Graph::from_edges(8, &[]);
        let mapping = Mapping::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        for workers in [1, 2, 4] {
            let sink = Arc::new(MemorySink::default());
            let cfg = TimerConfig::new(40, 1)
                .with_threads(workers)
                .with_batch(64)
                .with_trace(TraceHandle::new(sink.clone(), TraceLevel::Phase));
            let r = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
            assert_eq!(r.hierarchies_accepted, 40);
            let (mut in_flight, mut depth) = (0usize, 0usize);
            for record in sink.events() {
                match record.event {
                    TraceEvent::Phase {
                        phase: Phase::HierarchyBuild,
                        ..
                    } => {
                        in_flight += 1;
                        depth = depth.max(in_flight);
                    }
                    TraceEvent::Phase {
                        phase: Phase::Commit,
                        ..
                    } => in_flight -= 1,
                    TraceEvent::Speculation { .. } => panic!("speculation event emitted"),
                    _ => {}
                }
            }
            assert_eq!((depth, in_flight), (1, 0), "workers={workers}");
            assert!(depth <= workers);
        }
    }

    #[test]
    fn rounds_run_in_order_and_cancel_stops_after_the_current_round() {
        use std::sync::Arc;
        use tie_trace::{MemorySink, TraceLevel, TraceSink};

        let (ga, _, pcube, mapping) = fixture(8);
        let nh = 12;
        // A traced run emits one hierarchy-build span, one gate event and
        // one commit span per round, in round order.
        let sink = Arc::new(MemorySink::default());
        let cfg =
            TimerConfig::new(nh, 4).with_trace(TraceHandle::new(sink.clone(), TraceLevel::Phase));
        Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
        let (mut builds, mut gates, mut commits) = (Vec::new(), Vec::new(), Vec::new());
        for record in sink.events() {
            match record.event {
                TraceEvent::Phase {
                    phase: Phase::HierarchyBuild,
                    round,
                    ..
                } => builds.push(round),
                TraceEvent::Phase {
                    phase: Phase::Commit,
                    round,
                    ..
                } => commits.push(round),
                TraceEvent::Gate { round, .. } => gates.push(Some(round)),
                _ => {}
            }
        }
        let rounds: Vec<Option<usize>> = (0..nh).map(Some).collect();
        assert_eq!(builds, rounds, "hierarchy_build spans");
        assert_eq!(gates, rounds, "gate events");
        assert_eq!(commits, rounds, "commit spans");

        /// Cancels the run's token at the gate event of round `at`.
        struct CancelAtGate {
            token: CancelToken,
            at: usize,
        }
        impl TraceSink for CancelAtGate {
            fn record(&self, event: &TraceEvent, _ts_us: u64, _thread: u64) {
                if matches!(event, TraceEvent::Gate { round, .. } if *round == self.at) {
                    self.token.cancel();
                }
            }
        }
        // Cancelled while round k is committed, the run keeps k + 1 rounds
        // and ends where a clean run of NH = k + 1 ends.
        for k in [0, 5, nh - 2] {
            let token = CancelToken::new();
            let sink = Arc::new(CancelAtGate {
                token: token.clone(),
                at: k,
            });
            let cfg = TimerConfig::new(nh, 4)
                .with_cancel_token(token)
                .with_trace(TraceHandle::new(sink, TraceLevel::Gate));
            let stopped = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
            let cfg = TimerConfig::new(k + 1, 4);
            let clean = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
            assert_eq!(stopped.stop_reason, StopReason::Cancelled, "k = {k}");
            assert_eq!(stopped.hierarchies_accepted, k + 1, "k = {k}");
            assert_eq!(stopped.labeling.labels, clean.labeling.labels, "k = {k}");
            assert_eq!(stopped.total_swaps, clean.total_swaps, "k = {k}");
            assert_eq!(stopped.final_coco, clean.final_coco, "k = {k}");
        }
    }

    #[test]
    fn enhance_with_context_is_byte_identical_to_enhance() {
        // A shared, reused `TopologyContext` must never change result bytes:
        // cold context, warm context and the plain `enhance` call all walk
        // the identical trajectory.
        let (ga, topo, pcube, mapping) = fixture(7);
        let timer = Timer::new(TimerConfig::new(10, 7));
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
        let cfg = TimerConfig::new(4, 7);
        let r = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
        let set = r.labeling.sorted_label_set();
        let (coco, div) = (r.final_coco, r.final_diversity);
        let totals = (coco as i64, div as i64);
        assert!(check_end_of_run(&set, &set, totals, coco, Some(div)).is_ok());
        // Vertex 0 takes vertex 1's label: one label duplicated, one lost.
        let mut altered = r.labeling.labels.clone();
        altered[0] = altered[1];
        altered.sort_unstable();
        for (final_set, final_coco, final_div, needle) in [
            (&altered, coco, Some(div), "multiset"),
            (&set, coco + 1, Some(div), "Coco"),
            (&set, coco, Some(div + 1), "Div"),
        ] {
            let err = check_end_of_run(final_set, &set, totals, final_coco, final_div);
            assert!(matches!(err, Err(TieError::InvariantViolated(m)) if m.contains(needle)));
        }
        // With diversity off the totals carry no Div, and none is compared.
        assert!(check_end_of_run(&set, &set, (coco as i64, 0), coco, None).is_ok());
    }

    #[test]
    fn round_check_rejects_mispriced_and_rejected_rounds() {
        // Exact rounds pass, including those that change nothing.
        for deltas in [(-7, 2), (0, 0), (-7, 0), (0, 5)] {
            assert!(check_round(3, deltas, deltas).is_ok(), "{deltas:?}");
        }
        // A delta scan that disagrees with the sweeps' sums ends the run, and
        // so does a round that raises Coco or lowers Div, even one that
        // lowers `Coco⁺`, such as `(−7, −2)`, which Algorithm 1's test keeps.
        for (scan, sweep, needle) in [
            ((-7, 2), (-6, 2), "differs"),
            ((-7, 3), (-7, 2), "differs"),
            ((-7, -2), (-7, -2), "ΔCoco ≤ 0 ≤ ΔDiv"),
            ((3, 0), (3, 0), "ΔCoco ≤ 0 ≤ ΔDiv"),
        ] {
            let err = check_round(3, scan, sweep);
            assert!(
                matches!(&err, Err(TieError::InvariantViolated(m)) if m.contains(needle) && m.contains("round 3")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn unrepresentable_deadline_means_no_deadline() {
        let (ga, _, pcube, mapping) = fixture(3);
        let cfg = TimerConfig::new(5, 11);
        let plain = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
        let cfg = TimerConfig::new(5, 11).with_deadline(std::time::Duration::MAX);
        let r = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
        assert_eq!(r.stop_reason, StopReason::Completed);
        assert_eq!(r.labeling.labels, plain.labeling.labels);
    }

    #[test]
    fn more_hierarchies_do_not_hurt() {
        let (ga, _, pcube, mapping) = fixture(4);
        let cfg = TimerConfig::new(2, 9);
        let few = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
        let cfg = TimerConfig::new(20, 9);
        let many = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
        assert!(many.final_coco_plus <= few.final_coco_plus);
    }

    #[test]
    fn diversity_ablation_still_valid() {
        let (ga, topo, pcube, mapping) = fixture(5);
        let result = Timer::new(TimerConfig::new(8, 3).without_diversity())
            .enhance(&ga, &pcube, &mapping)
            .unwrap();
        assert!(result.final_coco <= result.initial_coco);
        assert_eq!(result.hierarchies_accepted, 8, "every exact round is kept");
        assert_eq!(
            result.final_coco,
            coco_by_distances(&ga, &topo.graph, &result.mapping)
        );
    }

    #[test]
    fn equal_objective_rounds_count_as_accepted() {
        // On an edgeless application graph every round has zero deltas: it
        // changes neither Coco nor Div, passes the round check, is committed
        // (its labels replace the labeling) and must therefore be counted.
        let topo = Topology::grid2d(2, 2);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = Graph::from_edges(8, &[]);
        let mapping = Mapping::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let cfg = TimerConfig::new(6, 1);
        let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
        assert_eq!(result.final_coco, 0);
        assert_eq!(
            result.hierarchies_accepted, 6,
            "every equal-objective round replaces the labeling and must be counted"
        );
    }

    #[test]
    fn tie_rounds_are_kept_and_reported_as_ties_in_telemetry() {
        // Equal-objective rounds, observed through the telemetry and the
        // flight recorder: on an edgeless application graph every round has
        // zero deltas, so every round is a tie. Each is committed, lands in
        // the zero bucket of both delta histograms, and emits one gate event
        // with `(0, 0)` deltas and unchanged running totals.
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
        let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();

        assert_eq!(result.hierarchies_accepted, nh);
        assert_eq!(result.telemetry.delta_coco.count(), nh as u64);
        assert_eq!(result.telemetry.delta_coco.zeros(), nh as u64);
        assert_eq!(result.telemetry.delta_div.count(), nh as u64);
        assert_eq!(result.telemetry.delta_div.zeros(), nh as u64);

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
                    coco,
                    div,
                } => Some((round, coco_delta, div_delta, coco, div)),
                _ => None,
            })
            .collect();
        let expected: Vec<_> = (0..nh).map(|round| (round, 0, 0, 0, 0)).collect();
        assert_eq!(gates, expected);
    }

    #[test]
    fn works_on_torus_and_hypercube_targets() {
        let ga = generators::watts_strogatz(512, 6, 0.1, 7);
        for topo in [Topology::torus2d(4, 4), Topology::hypercube(4)] {
            let pcube = recognize_partial_cube(&topo.graph).unwrap();
            let part = partition(&ga, &PartitionConfig::new(16, 1));
            let mapping = identity_mapping(&part, 16);
            let cfg = TimerConfig::new(8, 1);
            let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
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
        let cfg = TimerConfig::new(20, 3);
        let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
        assert!(result.final_coco <= result.initial_coco);
        assert!(result.labeling.is_unique());
    }
}
