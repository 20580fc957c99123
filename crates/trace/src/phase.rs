//! The fixed phase vocabulary of the TIMER pipeline, a zero-alloc
//! accumulator for per-phase wall-clock breakdowns, and the span that times
//! one phase into both.

use std::time::Instant;

use crate::{TraceEvent, TraceHandle};

/// A pipeline phase. The set is closed on purpose: a fixed vocabulary keeps
/// the accumulator allocation-free and the JSONL schema stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// One whole hierarchy construction (contains `Sweep` and `Contract`).
    HierarchyBuild,
    /// One label-swap sweep over a hierarchy level.
    Sweep,
    /// One contraction of a hierarchy level into the next coarser one.
    Contract,
    /// Assembling fine-level labels from a finished hierarchy (a push-down
    /// from the coarsest level) and undoing the digit permutation.
    Assemble,
    /// The incidence-limited `(ΔCoco, ΔDiv)` scan pricing a candidate.
    DeltaScan,
    /// Checking one round's invariants and committing its labels.
    Commit,
    /// One `mapd` daemon request served end to end (parse, admission,
    /// enhancement, response serialization).
    Serve,
    /// Per-topology cache context construction (partial-cube recognition on
    /// a cache miss; hits never enter this phase).
    Cache,
}

impl Phase {
    /// Number of phases (size of [`PhaseTimes`]' backing array).
    pub const COUNT: usize = 8;

    /// All phases, in reporting order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::HierarchyBuild,
        Phase::Sweep,
        Phase::Contract,
        Phase::Assemble,
        Phase::DeltaScan,
        Phase::Commit,
        Phase::Serve,
        Phase::Cache,
    ];

    /// Stable snake_case name used in JSONL events and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::HierarchyBuild => "hierarchy_build",
            Phase::Sweep => "sweep",
            Phase::Contract => "contract",
            Phase::Assemble => "assemble",
            Phase::DeltaScan => "delta_scan",
            Phase::Commit => "commit",
            Phase::Serve => "serve",
            Phase::Cache => "cache",
        }
    }

    /// Inverse of [`Phase::name`]: resolves a stable snake_case name back to
    /// the phase, `None` for anything outside the fixed vocabulary. String
    /// call sites of this function are policed by `tie-lint`'s
    /// `registered-sites` rule.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        match self {
            Phase::HierarchyBuild => 0,
            Phase::Sweep => 1,
            Phase::Contract => 2,
            Phase::Assemble => 3,
            Phase::DeltaScan => 4,
            Phase::Commit => 5,
            Phase::Serve => 6,
            Phase::Cache => 7,
        }
    }
}

/// Accumulated wall-clock per phase, in microseconds. `HierarchyBuild` spans
/// contain the `Sweep` and `Contract` time of their levels, so the entries
/// are not disjoint — readers summing phases must skip the container phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    us: [u64; Phase::COUNT],
}

impl PhaseTimes {
    /// Adds `micros` to `phase`'s total.
    pub fn add(&mut self, phase: Phase, micros: u64) {
        self.us[phase.index()] += micros;
    }

    /// Accumulated microseconds of `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.us[phase.index()]
    }

    /// `(phase, micros)` pairs in reporting order, including zero entries.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.get(p)))
    }

    /// True if no time has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.us.iter().all(|&v| v == 0)
    }
}

/// One timed run of a phase, started by [`TraceHandle::span`] for a
/// `(phase, round, level)`. Ending it with [`PhaseSpan::end`] adds its
/// microseconds to a [`PhaseTimes`] and emits its [`TraceEvent::Phase`];
/// [`PhaseSpan::emit`] only emits. A span with a `level` is a
/// `TraceLevel::Debug` event, one without is a `TraceLevel::Phase` event.
/// This is the only place the pipeline's phases are timed.
#[must_use = "a span records nothing until it is ended"]
#[derive(Debug)]
pub struct PhaseSpan<'a> {
    trace: &'a TraceHandle,
    phase: Phase,
    round: Option<usize>,
    level: Option<usize>,
    start: Instant,
}

impl TraceHandle {
    /// Starts timing `phase` of hierarchy `round`, at hierarchy `level` if
    /// the span is per-level. See [`PhaseSpan`] for how it ends.
    pub fn span(&self, phase: Phase, round: Option<usize>, level: Option<usize>) -> PhaseSpan<'_> {
        PhaseSpan {
            trace: self,
            phase,
            round,
            level,
            start: Instant::now(),
        }
    }
}

impl PhaseSpan<'_> {
    /// Ends the span: adds its microseconds to `times` under its phase,
    /// whether or not the handle records anything, and emits its event.
    pub fn end(self, times: &mut PhaseTimes) {
        let elapsed_us = self.start.elapsed().as_micros() as u64;
        times.add(self.phase, elapsed_us);
        self.send(elapsed_us);
    }

    /// Ends the span and only emits its event: for phases outside a TIMER
    /// run, which keep no [`PhaseTimes`]. A disabled handle reads no clock.
    pub fn emit(self) {
        if self.trace.inner.is_some() {
            let elapsed_us = self.start.elapsed().as_micros() as u64;
            self.send(elapsed_us);
        }
    }

    fn send(self, elapsed_us: u64) {
        self.trace.emit(TraceEvent::Phase {
            phase: self.phase,
            round: self.round,
            level: self.level,
            elapsed_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, TraceLevel};
    use std::sync::Arc;

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Phase::COUNT);
        assert_eq!(Phase::HierarchyBuild.name(), "hierarchy_build");
        assert_eq!(Phase::DeltaScan.name(), "delta_scan");
    }

    #[test]
    fn from_name_inverts_name() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("warp_drive"), None);
    }

    #[test]
    fn accumulate_and_merge() {
        let mut a = PhaseTimes::default();
        assert!(a.is_empty());
        a.add(Phase::Sweep, 10);
        a.add(Phase::Sweep, 5);
        a.add(Phase::Commit, 1);
        a.add(Phase::Sweep, 100);
        a.add(Phase::DeltaScan, 7);
        assert_eq!(a.get(Phase::Sweep), 115);
        assert_eq!(a.get(Phase::Commit), 1);
        assert_eq!(a.get(Phase::DeltaScan), 7);
        assert_eq!(a.get(Phase::Assemble), 0);
        assert!(!a.is_empty());
        assert_eq!(a.iter().count(), Phase::COUNT);
    }

    fn spin_us() {
        let start = Instant::now();
        while start.elapsed().as_micros() < 2 {}
    }

    #[test]
    fn span_adds_to_phase_times_even_with_an_off_handle() {
        let (off, mut times) = (TraceHandle::off(), PhaseTimes::default());
        let span = off.span(Phase::Contract, Some(1), Some(2));
        spin_us();
        span.end(&mut times);
        assert!(times.get(Phase::Contract) >= 2, "{times:?}");
        assert_eq!(times.get(Phase::Sweep), 0);
    }

    #[test]
    fn span_emits_one_event_with_its_tags() {
        let sink = Arc::new(MemorySink::default());
        let trace = TraceHandle::new(sink.clone(), TraceLevel::Phase);
        let mut times = PhaseTimes::default();
        let span = trace.span(Phase::Commit, Some(3), None);
        spin_us();
        span.end(&mut times);
        trace.span(Phase::Serve, None, None).emit();
        let events: Vec<TraceEvent> = sink.events().into_iter().map(|r| r.event).collect();
        assert_eq!(events.len(), 2, "{events:?}");
        match events[0] {
            TraceEvent::Phase {
                phase: Phase::Commit,
                round: Some(3),
                level: None,
                elapsed_us,
            } => assert_eq!(elapsed_us, times.get(Phase::Commit)),
            ref e => panic!("unexpected event {e:?}"),
        }
        assert!(matches!(
            events[1],
            TraceEvent::Phase {
                phase: Phase::Serve,
                round: None,
                level: None,
                ..
            }
        ));
        // `emit` adds to no breakdown.
        assert_eq!(times.get(Phase::Serve), 0);
    }

    #[test]
    fn span_with_a_level_is_filtered_at_phase_and_recorded_at_debug() {
        for (level, recorded) in [(TraceLevel::Phase, 0), (TraceLevel::Debug, 1)] {
            let sink = Arc::new(MemorySink::default());
            let trace = TraceHandle::new(sink.clone(), level);
            let mut times = PhaseTimes::default();
            trace.span(Phase::Sweep, Some(0), Some(4)).end(&mut times);
            let events = sink.events();
            assert_eq!(events.len(), recorded, "{level:?}");
            if let Some(r) = events.first() {
                assert!(matches!(
                    r.event,
                    TraceEvent::Phase {
                        phase: Phase::Sweep,
                        round: Some(0),
                        level: Some(4),
                        ..
                    }
                ));
            }
        }
    }
}
