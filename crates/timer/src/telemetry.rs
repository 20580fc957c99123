//! Per-run accept-gate and phase telemetry, summarized into
//! [`crate::TimerResult`].
//!
//! The driver already computes an exact `(ΔCoco, ΔDiv)` pair per hierarchy
//! round (the incidence-limited scan feeding the accept gate), so recording
//! the gate's evidence here adds no full-graph recomputes — the telemetry
//! rides the existing delta scan. Collection is unconditional: it is a
//! handful of integer ops per round, and having the summary always present
//! lets `bench_timer` embed gate histograms into `BENCH_timer.json` without
//! turning tracing on.

use tie_trace::{LogHistogram, PhaseTimes};

use crate::error::StopReason;

/// Summary of one `Timer::enhance` run: accept-gate verdict counts, the
/// distributions of the per-round objective deltas, and a per-phase
/// wall-clock breakdown.
///
/// The gate-side fields (`accepted`, `rejected`, `ties`, the histograms) and
/// the hierarchy work counts (`sweep_arcs`, `contract_arcs`) are part of the
/// deterministic trajectory and therefore byte-identical across every
/// `(threads, batch)` setting. `phases` is wall-clock and is not:
/// speculated rounds that get invalidated still burned real time, which the
/// breakdown reports honestly.
#[derive(Clone, Debug, Default)]
pub struct RoundTelemetry {
    /// Rounds the gate kept (including equal-objective ties). Mirrors
    /// `TimerResult::hierarchies_accepted`.
    pub accepted: usize,
    /// Rounds the gate rejected.
    pub rejected: usize,
    /// Kept rounds whose objective delta was zero (`ΔCoco == ΔDiv`): the
    /// tie-keeps that replace the labeling without improving `Coco⁺`.
    pub ties: usize,
    /// Distribution of the per-round `ΔCoco` the gate ruled on.
    pub delta_coco: LogHistogram,
    /// Distribution of the per-round `ΔDiv` the gate ruled on.
    pub delta_div: LogHistogram,
    /// Distribution of the per-round count of vertices the bijection repair
    /// relabelled, over the rounds the gate ruled on.
    pub repaired: LogHistogram,
    /// Repaired vertices summed over the rounds the gate ruled on. Mirrors
    /// `TimerResult::total_repaired`.
    pub total_repaired: usize,
    /// Base-graph arcs the hierarchy sweeps read, summed over the rounds the
    /// gate ruled on (discarded speculations are not counted, so the total
    /// does not depend on the thread count).
    pub sweep_arcs: usize,
    /// Arcs fed to the contraction kernel to materialize hierarchy levels,
    /// summed over the rounds the gate ruled on.
    pub contract_arcs: usize,
    /// Accumulated wall-clock per pipeline phase across the whole run
    /// (including invalidated speculations — real work is counted).
    pub phases: PhaseTimes,
    /// Speculative workers that panicked and were absorbed by the quarantine
    /// re-run (see `docs/RESILIENCE.md`). Zero on every healthy run; like
    /// `phases` it reports what *happened*, not the trajectory, so it is
    /// excluded from [`RoundTelemetry::same_gate_trajectory`].
    pub worker_panics: usize,
    /// Why the run stopped offering rounds ([`StopReason::Completed`] unless
    /// a deadline, cancellation, or the adaptive stopping rule cut it short).
    pub stop_reason: StopReason,
}

impl RoundTelemetry {
    /// Records one gate verdict on a round whose assemble step repaired
    /// `repaired` vertices. `tie` implies `accepted`.
    pub fn record_gate(
        &mut self,
        coco_delta: i64,
        div_delta: i64,
        repaired: usize,
        accepted: bool,
        tie: bool,
    ) {
        debug_assert!(accepted || !tie, "a tie is by definition kept");
        if accepted {
            self.accepted += 1;
            if tie {
                self.ties += 1;
            }
        } else {
            self.rejected += 1;
        }
        self.delta_coco.record(coco_delta);
        self.delta_div.record(div_delta);
        self.repaired.record(repaired as i64);
        self.total_repaired += repaired;
    }

    /// Total rounds the gate ruled on (`accepted + rejected`).
    pub fn rounds(&self) -> usize {
        self.accepted + self.rejected
    }

    /// Whether the gate-side telemetry of two runs agrees (phase wall-clock
    /// excluded — timing is never deterministic). This is the
    /// telemetry-level statement of the byte-identity guarantee.
    pub fn same_gate_trajectory(&self, other: &RoundTelemetry) -> bool {
        self.accepted == other.accepted
            && self.rejected == other.rejected
            && self.ties == other.ties
            && self.delta_coco == other.delta_coco
            && self.delta_div == other.delta_div
            && self.repaired == other.repaired
            && self.total_repaired == other.total_repaired
            && self.sweep_arcs == other.sweep_arcs
            && self.contract_arcs == other.contract_arcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_recording_counts_and_histograms() {
        let mut t = RoundTelemetry::default();
        t.record_gate(-5, -1, 0, true, false);
        t.record_gate(0, 0, 7, true, true);
        t.record_gate(3, -2, 600, false, false);
        t.record_gate(2, 2, 0, true, true);
        assert_eq!(t.accepted, 3);
        assert_eq!(t.rejected, 1);
        assert_eq!(t.ties, 2);
        assert_eq!(t.rounds(), 4);
        assert_eq!(t.delta_coco.count(), 4);
        assert_eq!(t.delta_div.count(), 4);
        assert_eq!(t.delta_coco.min(), Some(-5));
        assert_eq!(t.delta_coco.max(), Some(3));
        assert_eq!(t.repaired.count(), 4);
        assert_eq!(t.repaired.zeros(), 2);
        assert_eq!(t.repaired.max(), Some(600));
        assert_eq!(t.total_repaired, 607);
    }

    #[test]
    fn gate_trajectory_comparison_ignores_phases() {
        let mut a = RoundTelemetry::default();
        let mut b = RoundTelemetry::default();
        a.record_gate(-1, 0, 3, true, false);
        b.record_gate(-1, 0, 3, true, false);
        a.phases.add(tie_trace::Phase::Sweep, 123);
        b.phases.add(tie_trace::Phase::Sweep, 456);
        assert!(a.same_gate_trajectory(&b));
        let mut c = b.clone();
        b.record_gate(1, 1, 0, true, true);
        assert!(!a.same_gate_trajectory(&b));
        // The same verdicts with a different repair count diverge too.
        a.record_gate(0, 0, 4, true, true);
        c.record_gate(0, 0, 5, true, true);
        assert!(!a.same_gate_trajectory(&c));
        // So do equal verdicts whose hierarchies did different work.
        let (mut d, mut e) = (RoundTelemetry::default(), RoundTelemetry::default());
        d.sweep_arcs = 10;
        e.sweep_arcs = 11;
        assert!(!d.same_gate_trajectory(&e));
        e.sweep_arcs = 10;
        e.contract_arcs = 1;
        assert!(!d.same_gate_trajectory(&e));
    }
}
