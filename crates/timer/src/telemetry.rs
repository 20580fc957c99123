//! Per-run gate and phase telemetry, summarized into
//! [`crate::TimerResult`].
//!
//! The driver already computes an exact `(ΔCoco, ΔDiv)` pair per hierarchy
//! round (the incidence-limited scan its per-round check reads), so
//! recording it here adds no full-graph recomputes — the telemetry rides
//! the existing delta scan. Collection is unconditional: it is a handful of
//! integer ops per round, and having the summary always present lets
//! `bench_quality` embed every cell's gate histograms and phase breakdown
//! into `BENCH_quality.json` without turning tracing on.

use tie_trace::{LogHistogram, PhaseTimes};

/// Summary of one `Timer::enhance` run: the distributions of the per-round
/// objective deltas, the hierarchies' work counts and a per-phase
/// wall-clock breakdown. The count of committed rounds is
/// `TimerResult::hierarchies_accepted`.
///
/// The histograms and the hierarchy work counts (`sweep_arcs`,
/// `contract_arcs`) are part of the deterministic trajectory and therefore
/// byte-identical from run to run. `phases` is wall-clock and is not.
#[derive(Clone, Debug, Default)]
pub struct RoundTelemetry {
    /// Distribution of the per-round `ΔCoco` of the committed rounds.
    pub delta_coco: LogHistogram,
    /// Distribution of the per-round `ΔDiv` of the committed rounds.
    pub delta_div: LogHistogram,
    /// Base-graph arcs the hierarchy sweeps read, summed over the committed
    /// rounds.
    pub sweep_arcs: usize,
    /// Arcs fed to the contraction kernel to materialize hierarchy levels,
    /// summed over the committed rounds.
    pub contract_arcs: usize,
    /// Accumulated wall-clock per pipeline phase across the whole run.
    pub phases: PhaseTimes,
}

impl RoundTelemetry {
    /// Records the `(ΔCoco, ΔDiv)` of one committed round.
    pub fn record_gate(&mut self, coco_delta: i64, div_delta: i64) {
        self.delta_coco.record(coco_delta);
        self.delta_div.record(div_delta);
    }

    /// Whether the gate-side telemetry of two runs agrees (phase wall-clock
    /// excluded — timing is never deterministic). This is the
    /// telemetry-level statement of the byte-identity guarantee.
    pub fn same_gate_trajectory(&self, other: &RoundTelemetry) -> bool {
        self.delta_coco == other.delta_coco
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
        t.record_gate(-5, -1);
        t.record_gate(0, 0);
        t.record_gate(3, -2);
        t.record_gate(2, 2);
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
        a.record_gate(-1, 0);
        b.record_gate(-1, 0);
        a.phases.add(tie_trace::Phase::Sweep, 123);
        b.phases.add(tie_trace::Phase::Sweep, 456);
        assert!(a.same_gate_trajectory(&b));
        let mut c = b.clone();
        b.record_gate(1, 1);
        assert!(!a.same_gate_trajectory(&b));
        // The same Coco delta with a different Div delta diverges too.
        a.record_gate(0, 0);
        c.record_gate(0, 1);
        assert!(!a.same_gate_trajectory(&c));
        // So do equal deltas whose hierarchies did different work.
        let (mut d, mut e) = (RoundTelemetry::default(), RoundTelemetry::default());
        d.sweep_arcs = 10;
        e.sweep_arcs = 11;
        assert!(!d.same_gate_trajectory(&e));
        e.sweep_arcs = 10;
        e.contract_arcs = 1;
        assert!(!d.same_gate_trajectory(&e));
    }
}
