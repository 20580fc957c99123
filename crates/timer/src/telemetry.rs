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
/// deterministic trajectory and therefore byte-identical from run to run.
/// `phases` is wall-clock and is not.
#[derive(Clone, Debug, Default)]
pub struct RoundTelemetry {
    /// Rounds the gate kept (including equal-objective ties). Mirrors
    /// `TimerResult::hierarchies_accepted`.
    pub accepted: usize,
    /// Rounds the gate rejected. Always 0 in a finished run: the driver
    /// turns a rejected round into `TieError::InvariantViolated`.
    pub rejected: usize,
    /// Kept rounds whose objective delta was zero (`ΔCoco == ΔDiv`): the
    /// tie-keeps that replace the labeling without improving `Coco⁺`.
    pub ties: usize,
    /// Distribution of the per-round `ΔCoco` the gate ruled on.
    pub delta_coco: LogHistogram,
    /// Distribution of the per-round `ΔDiv` the gate ruled on.
    pub delta_div: LogHistogram,
    /// Base-graph arcs the hierarchy sweeps read, summed over the rounds the
    /// gate ruled on.
    pub sweep_arcs: usize,
    /// Arcs fed to the contraction kernel to materialize hierarchy levels,
    /// summed over the rounds the gate ruled on.
    pub contract_arcs: usize,
    /// Accumulated wall-clock per pipeline phase across the whole run.
    pub phases: PhaseTimes,
    /// Why the run stopped offering rounds ([`StopReason::Completed`] unless
    /// a deadline or cancellation cut it short).
    pub stop_reason: StopReason,
}

impl RoundTelemetry {
    /// Records one gate verdict. `tie` implies `accepted`.
    pub fn record_gate(&mut self, coco_delta: i64, div_delta: i64, accepted: bool, tie: bool) {
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
        t.record_gate(-5, -1, true, false);
        t.record_gate(0, 0, true, true);
        t.record_gate(3, -2, false, false);
        t.record_gate(2, 2, true, true);
        assert_eq!(t.accepted, 3);
        assert_eq!(t.rejected, 1);
        assert_eq!(t.ties, 2);
        assert_eq!(t.rounds(), 4);
        assert_eq!(t.delta_coco.count(), 4);
        assert_eq!(t.delta_div.count(), 4);
        assert_eq!(t.delta_coco.min(), Some(-5));
        assert_eq!(t.delta_coco.max(), Some(3));
        assert_eq!(t.delta_div.zeros(), 1);
        assert_eq!(t.delta_div.min(), Some(-2));
    }

    #[test]
    fn gate_trajectory_comparison_ignores_phases() {
        let mut a = RoundTelemetry::default();
        let mut b = RoundTelemetry::default();
        a.record_gate(-1, 0, true, false);
        b.record_gate(-1, 0, true, false);
        a.phases.add(tie_trace::Phase::Sweep, 123);
        b.phases.add(tie_trace::Phase::Sweep, 456);
        assert!(a.same_gate_trajectory(&b));
        let mut c = b.clone();
        b.record_gate(1, 1, true, true);
        assert!(!a.same_gate_trajectory(&b));
        // The same verdicts with a different Div delta diverge too.
        a.record_gate(0, 0, true, true);
        c.record_gate(0, 1, true, false);
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
