//! # tie-trace
//!
//! Flight-recorder observability for the TiMEr pipeline: a zero-dependency
//! structured tracing and metrics facade that makes every hierarchy round
//! and pipeline phase explainable after the fact.
//!
//! The ICPP'18 TIMER loop runs `NH` hierarchy rounds and discards the
//! per-round `(ΔCoco, ΔDiv)` evidence once a round is decided, so without
//! a recorder a run shows only its end result: how much each round gained,
//! and where the time of a round went, would be invisible. This crate
//! provides the recording substrate:
//!
//! * [`TraceSink`] — where events go: [`NullSink`] (nothing, the default),
//!   [`StderrSink`] (human-readable lines), [`JsonlSink`] (one JSON object
//!   per line, machine-readable), [`MemorySink`] (in-process, for tests).
//! * [`TraceHandle`] — the cheap, cloneable handle instrumented code carries.
//!   A disabled handle (the default) reduces every emission to one branch on
//!   an `Option`, so instrumented hot paths stay byte-identical in behavior
//!   and effectively free when tracing is off.
//! * [`TraceEvent`] — the event vocabulary: run start/end, per-round gate
//!   events with their exact deltas, span-style phase timings with
//!   monotonic timestamps and thread ids, and `mapd` cache lookups.
//! * [`LogHistogram`] — log₂-bucketed signed histograms for the ΔCoco/ΔDiv
//!   distributions, built from the deltas the driver already computes (no
//!   extra full-graph recomputes).
//! * [`Phase`] / [`PhaseTimes`] / [`PhaseSpan`] — a fixed phase vocabulary,
//!   a zero-alloc accumulator for per-phase wall-clock breakdowns, and the
//!   span ([`TraceHandle::span`]) that times one phase into both the
//!   accumulator and the trace.
//!
//! Timestamps (`ts_us`) are microseconds of monotonic time since the handle
//! was created; `thread` is a small sequential id assigned per OS thread on
//! first emission (stable within a process, not across processes).
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod event;
pub mod histogram;
pub mod phase;
pub mod sink;

pub use event::TraceEvent;
pub use histogram::{HistogramBucket, LogHistogram};
pub use phase::{Phase, PhaseSpan, PhaseTimes};
pub use sink::{JsonlSink, MemorySink, NullSink, StderrSink, TraceSink};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Verbosity of a trace. Levels are cumulative: `Debug` includes everything
/// `Phase` emits, which includes everything `Gate` emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No events at all (the default).
    #[default]
    Off,
    /// Run start/end and the per-round gate events.
    Gate,
    /// Additionally: per-round phase spans and `mapd` cache lookups.
    Phase,
    /// Additionally: per-hierarchy-level sweep/contraction spans.
    Debug,
}

impl TraceLevel {
    /// Parses a CLI-style level name (`off`, `gate`, `phase`, `debug`;
    /// `all` is an alias for `debug`).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "gate" => Some(TraceLevel::Gate),
            "phase" => Some(TraceLevel::Phase),
            "debug" | "all" => Some(TraceLevel::Debug),
            _ => None,
        }
    }
}

/// Sequential per-thread ids: `ThreadId` has no stable public integer, and
/// the recorder wants small, diff-friendly numbers.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|&o| o)
}

struct HandleInner {
    sink: Arc<dyn TraceSink>,
    level: TraceLevel,
    epoch: Instant,
}

/// The handle instrumented code carries. Cloning is cheap (an `Option<Arc>`),
/// a disabled handle costs one branch per emission, and the handle is `Sync`
/// so the `mapd` connection threads can emit through it concurrently.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<HandleInner>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "TraceHandle(off)"),
            Some(i) => write!(f, "TraceHandle({:?})", i.level),
        }
    }
}

impl TraceHandle {
    /// A disabled handle: every emission is a no-op branch.
    pub fn off() -> Self {
        TraceHandle::default()
    }

    /// A handle that forwards events at or below `level` to `sink`.
    /// `TraceLevel::Off` yields a disabled handle regardless of the sink.
    pub fn new(sink: Arc<dyn TraceSink>, level: TraceLevel) -> Self {
        if level == TraceLevel::Off {
            return TraceHandle::off();
        }
        TraceHandle {
            inner: Some(Arc::new(HandleInner {
                sink,
                level,
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether events of the given level would be recorded. Lets callers
    /// skip preparatory work (not just event construction) when tracing is
    /// off or filtered.
    pub fn enabled(&self, level: TraceLevel) -> bool {
        match &self.inner {
            None => false,
            Some(i) => level <= i.level,
        }
    }

    /// Records `event` if its level passes the handle's filter. Timestamp
    /// and thread id are attached here so every sink sees the same view.
    pub fn emit(&self, event: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        if event.level() > inner.level {
            return;
        }
        let ts_us = inner.epoch.elapsed().as_micros() as u64;
        inner.sink.record(&event, ts_us, thread_ordinal());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_parse() {
        assert!(TraceLevel::Off < TraceLevel::Gate);
        assert!(TraceLevel::Gate < TraceLevel::Phase);
        assert!(TraceLevel::Phase < TraceLevel::Debug);
        assert_eq!(TraceLevel::parse("gate"), Some(TraceLevel::Gate));
        assert_eq!(TraceLevel::parse("all"), Some(TraceLevel::Debug));
        assert_eq!(TraceLevel::parse("debug"), Some(TraceLevel::Debug));
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("verbose"), None);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::off();
        assert!(!h.enabled(TraceLevel::Gate));
        // Emitting into the void must not panic.
        h.emit(TraceEvent::RunEnd {
            final_coco: 0,
            final_div: 0,
            accepted: 0,
            stop_reason: "completed",
        });
        assert_eq!(format!("{h:?}"), "TraceHandle(off)");
    }

    #[test]
    fn off_level_disables_even_with_a_sink() {
        let sink = Arc::new(MemorySink::default());
        let h = TraceHandle::new(sink.clone(), TraceLevel::Off);
        assert!(!h.enabled(TraceLevel::Gate));
    }

    #[test]
    fn level_filter_drops_finer_events() {
        let sink = Arc::new(MemorySink::default());
        let h = TraceHandle::new(sink.clone(), TraceLevel::Gate);
        h.emit(TraceEvent::Gate {
            round: 0,
            coco_delta: -1,
            div_delta: 0,
            coco: 9,
            div: 0,
        });
        // Phase-level and debug-level events must be filtered out.
        h.emit(TraceEvent::Phase {
            phase: Phase::Sweep,
            round: Some(0),
            level: None,
            elapsed_us: 5,
        });
        h.emit(TraceEvent::Phase {
            phase: Phase::Sweep,
            round: Some(0),
            level: Some(1),
            elapsed_us: 5,
        });
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn timestamps_are_monotone() {
        let sink = Arc::new(MemorySink::default());
        let h = TraceHandle::new(sink.clone(), TraceLevel::Debug);
        for round in 0..10 {
            h.emit(TraceEvent::Gate {
                round,
                coco_delta: 0,
                div_delta: 0,
                coco: 0,
                div: 0,
            });
        }
        let events = sink.events();
        assert_eq!(events.len(), 10);
        for pair in events.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
    }
}
