//! The flight-recorder event vocabulary and its serializations.
//!
//! Every event renders to one JSONL line (for [`crate::JsonlSink`]) and one
//! human-readable line (for [`crate::StderrSink`]). The JSONL schema is
//! stable: every line is a flat JSON object carrying at least `event`
//! (the kind), `ts_us` (microseconds of monotonic time since the trace
//! handle was created) and `thread` (small sequential per-thread id).

use std::fmt::Write as _;

use crate::phase::Phase;
use crate::TraceLevel;

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A `Timer::enhance` run started.
    RunStart {
        /// Number of hierarchy rounds (`NH`) the run will run.
        nh: usize,
        /// `Coco` of the initial labeling.
        initial_coco: u64,
        /// `Div` of the initial labeling (0 when diversity is disabled).
        initial_div: u64,
    },
    /// One hierarchy round passed the per-round check (`check_round`) and is
    /// being committed. A completed run emits exactly `nh` of these, in round
    /// order, each with the round's exact deltas (`coco_delta ≤ 0 ≤
    /// div_delta`, or the run would have ended with an error).
    Gate {
        /// Round index in `0..nh`.
        round: usize,
        /// Exact `Coco` change of the round vs the committed labeling.
        coco_delta: i64,
        /// Exact `Div` change of the round vs the committed labeling.
        div_delta: i64,
        /// Running `Coco` with the round committed.
        coco: i64,
        /// Running `Div` with the round committed.
        div: i64,
    },
    /// A pipeline phase finished (span-style: emitted at span end, duration
    /// attached). `round`/`level` locate the span when applicable.
    Phase {
        /// Which phase.
        phase: Phase,
        /// Hierarchy round the span belongs to, if any.
        round: Option<usize>,
        /// Hierarchy level within the round, if any (per-level spans are
        /// `TraceLevel::Debug`; round-level spans are `TraceLevel::Phase`).
        level: Option<usize>,
        /// Span duration in microseconds.
        elapsed_us: u64,
    },
    /// Never emitted: the driver runs its rounds one after another. Kept
    /// only until the end-to-end benchmark, which still matches on it,
    /// drops it.
    Speculation {
        /// First round index of the batch.
        first_round: usize,
        /// Rounds speculated in the batch.
        batch_len: usize,
        /// Rounds actually committed before an invalidation (== `batch_len`
        /// when the batch survived intact).
        committed: usize,
        /// Whether an acceptance invalidated the remaining speculations.
        invalidated: bool,
        /// Speculation depth that produced the batch.
        depth: usize,
    },
    /// The `mapd` per-topology cache ruled on one lookup. `key` is the
    /// canonical topology name (builder-generated, identifier-like — no
    /// JSON escaping needed), the counters are cumulative since daemon start.
    Cache {
        /// Canonical topology name the lookup was keyed by.
        key: String,
        /// "hit" or "miss".
        disposition: &'static str,
        /// Entries resident after the lookup.
        entries: usize,
        /// Cumulative cache hits.
        hits: u64,
        /// Cumulative cache misses (context constructions).
        misses: u64,
        /// Cumulative evictions at capacity.
        evictions: u64,
    },
    /// A `Timer::enhance` run finished.
    RunEnd {
        /// `Coco` of the final labeling.
        final_coco: u64,
        /// `Div` of the final labeling.
        final_div: u64,
        /// Rounds committed.
        accepted: usize,
        /// Why the run stopped (`StopReason::name()`: "completed",
        /// "deadline_exceeded" or "cancelled").
        stop_reason: &'static str,
    },
}

impl TraceEvent {
    /// The verbosity level at which this event is emitted.
    pub fn level(&self) -> TraceLevel {
        match self {
            TraceEvent::RunStart { .. } | TraceEvent::RunEnd { .. } | TraceEvent::Gate { .. } => {
                TraceLevel::Gate
            }
            TraceEvent::Phase { level: Some(_), .. } => TraceLevel::Debug,
            TraceEvent::Phase { level: None, .. }
            | TraceEvent::Speculation { .. }
            | TraceEvent::Cache { .. } => TraceLevel::Phase,
        }
    }

    /// Stable kind name (the `event` field of the JSONL schema).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::Gate { .. } => "gate",
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::Speculation { .. } => "speculation",
            TraceEvent::Cache { .. } => "cache",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }

    /// Renders the event as one flat JSON object (no trailing newline).
    /// Hand-rolled because the offline build has no JSON crate; every value
    /// is a number, boolean or identifier-like string, so no escaping is
    /// needed.
    pub fn to_json(&self, ts_us: u64, thread: u64) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"event\": \"{}\", \"ts_us\": {ts_us}, \"thread\": {thread}",
            self.kind()
        );
        match self {
            TraceEvent::RunStart {
                nh,
                initial_coco,
                initial_div,
            } => {
                let _ = write!(
                    s,
                    ", \"nh\": {nh}, \"initial_coco\": {initial_coco}, \
                     \"initial_div\": {initial_div}"
                );
            }
            TraceEvent::Gate {
                round,
                coco_delta,
                div_delta,
                coco,
                div,
            } => {
                let _ = write!(
                    s,
                    ", \"round\": {round}, \"coco_delta\": {coco_delta}, \
                     \"div_delta\": {div_delta}, \"coco\": {coco}, \"div\": {div}"
                );
            }
            TraceEvent::Phase {
                phase,
                round,
                level,
                elapsed_us,
            } => {
                let _ = write!(s, ", \"phase\": \"{}\"", phase.name());
                if let Some(r) = round {
                    let _ = write!(s, ", \"round\": {r}");
                }
                if let Some(l) = level {
                    let _ = write!(s, ", \"level\": {l}");
                }
                let _ = write!(s, ", \"elapsed_us\": {elapsed_us}");
            }
            TraceEvent::Speculation {
                first_round,
                batch_len,
                committed,
                invalidated,
                depth,
            } => {
                let _ = write!(
                    s,
                    ", \"first_round\": {first_round}, \"batch_len\": {batch_len}, \
                     \"committed\": {committed}, \"invalidated\": {invalidated}, \
                     \"depth\": {depth}"
                );
            }
            TraceEvent::Cache {
                key,
                disposition,
                entries,
                hits,
                misses,
                evictions,
            } => {
                let _ = write!(
                    s,
                    ", \"key\": \"{key}\", \"disposition\": \"{disposition}\", \
                     \"entries\": {entries}, \"hits\": {hits}, \"misses\": {misses}, \
                     \"evictions\": {evictions}"
                );
            }
            TraceEvent::RunEnd {
                final_coco,
                final_div,
                accepted,
                stop_reason,
            } => {
                let _ = write!(
                    s,
                    ", \"final_coco\": {final_coco}, \"final_div\": {final_div}, \
                     \"accepted\": {accepted}, \"stop_reason\": \"{stop_reason}\""
                );
            }
        }
        s.push('}');
        s
    }

    /// Renders the event as one human-readable line (no trailing newline).
    pub fn to_human(&self, ts_us: u64, thread: u64) -> String {
        let mut s = String::with_capacity(120);
        let _ = write!(s, "[{:>10.3} ms t{thread}] ", ts_us as f64 / 1e3);
        match self {
            TraceEvent::RunStart {
                nh,
                initial_coco,
                initial_div,
            } => {
                let _ = write!(
                    s,
                    "run start: NH={nh} Coco={initial_coco} Div={initial_div}"
                );
            }
            TraceEvent::Gate {
                round,
                coco_delta,
                div_delta,
                coco,
                div,
            } => {
                let _ = write!(
                    s,
                    "round {round:>3}: dCoco={coco_delta:+} dDiv={div_delta:+} \
                     dObj={:+} -> Coco={coco} Div={div}",
                    coco_delta - div_delta
                );
            }
            TraceEvent::Phase {
                phase,
                round,
                level,
                elapsed_us,
            } => {
                let _ = write!(s, "phase {:<15}", phase.name());
                if let Some(r) = round {
                    let _ = write!(s, " round {r:>3}");
                }
                if let Some(l) = level {
                    let _ = write!(s, " level {l}");
                }
                let _ = write!(s, ": {:.3} ms", *elapsed_us as f64 / 1e3);
            }
            TraceEvent::Speculation {
                first_round,
                batch_len,
                committed,
                invalidated,
                depth,
            } => {
                let _ = write!(
                    s,
                    "speculation: rounds {first_round}..{} committed {committed}/{batch_len} \
                     depth={depth}{}",
                    first_round + batch_len,
                    if *invalidated { " INVALIDATED" } else { "" }
                );
            }
            TraceEvent::Cache {
                key,
                disposition,
                entries,
                hits,
                misses,
                evictions,
            } => {
                let _ = write!(
                    s,
                    "cache {disposition}: key={key} entries={entries} \
                     hits={hits} misses={misses} evictions={evictions}"
                );
            }
            TraceEvent::RunEnd {
                final_coco,
                final_div,
                accepted,
                stop_reason,
            } => {
                let _ = write!(
                    s,
                    "run end: Coco={final_coco} Div={final_div} \
                     accepted={accepted} stop={stop_reason}"
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                nh: 40,
                initial_coco: 71581,
                initial_div: 120933,
            },
            TraceEvent::Gate {
                round: 3,
                coco_delta: -12,
                div_delta: 40,
                coco: 71569,
                div: 120973,
            },
            TraceEvent::Phase {
                phase: Phase::Sweep,
                round: Some(3),
                level: Some(2),
                elapsed_us: 412,
            },
            TraceEvent::Phase {
                phase: Phase::Commit,
                round: None,
                level: None,
                elapsed_us: 9,
            },
            TraceEvent::Speculation {
                first_round: 4,
                batch_len: 2,
                committed: 1,
                invalidated: true,
                depth: 2,
            },
            TraceEvent::RunEnd {
                final_coco: 70592,
                final_div: 121933,
                accepted: 40,
                stop_reason: "completed",
            },
            // Appended (not inserted): `event_levels` indexes positionally.
            TraceEvent::Cache {
                key: "grid4x4".to_string(),
                disposition: "miss",
                entries: 1,
                hits: 0,
                misses: 1,
                evictions: 0,
            },
        ]
    }

    #[test]
    fn json_lines_carry_the_mandatory_fields() {
        for e in sample_events() {
            let json = e.to_json(1234, 7);
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(
                json.contains(&format!("\"event\": \"{}\"", e.kind())),
                "{json}"
            );
            assert!(json.contains("\"ts_us\": 1234"), "{json}");
            assert!(json.contains("\"thread\": 7"), "{json}");
            // Flat object: no nesting, balanced quotes.
            assert_eq!(json.matches('{').count(), 1, "{json}");
            assert_eq!(json.matches('}').count(), 1, "{json}");
            assert!(json.matches('"').count().is_multiple_of(2), "{json}");
        }
    }

    #[test]
    fn gate_json_payload() {
        let e = TraceEvent::Gate {
            round: 17,
            coco_delta: -3,
            div_delta: 5,
            coco: 100,
            div: 50,
        };
        let json = e.to_json(0, 0);
        assert!(json.contains("\"round\": 17"));
        assert!(json.contains("\"coco_delta\": -3"));
        assert!(json.contains("\"div_delta\": 5"));
        assert!(json.contains("\"coco\": 100"));
        assert!(json.contains("\"div\": 50"));
        // Every committed round passed the TIMER round check: no verdict field.
        assert!(
            !json.contains("\"accepted\"") && !json.contains("\"tie\""),
            "{json}"
        );
    }

    #[test]
    fn phase_json_omits_absent_round_and_level() {
        let e = TraceEvent::Phase {
            phase: Phase::Commit,
            round: None,
            level: None,
            elapsed_us: 10,
        };
        let json = e.to_json(0, 0);
        assert!(!json.contains("\"round\""));
        assert!(!json.contains("\"level\""));
        assert!(json.contains("\"phase\": \"commit\""));
    }

    #[test]
    fn event_levels() {
        let events = sample_events();
        assert_eq!(events[0].level(), TraceLevel::Gate); // run_start
        assert_eq!(events[1].level(), TraceLevel::Gate); // gate
        assert_eq!(events[2].level(), TraceLevel::Debug); // per-level phase
        assert_eq!(events[3].level(), TraceLevel::Phase); // round-level phase
        assert_eq!(events[4].level(), TraceLevel::Phase); // speculation
        assert_eq!(events[5].level(), TraceLevel::Gate); // run_end
        assert_eq!(events[6].level(), TraceLevel::Phase); // cache
    }

    #[test]
    fn cache_json_payload() {
        let e = TraceEvent::Cache {
            key: "torus4x4".to_string(),
            disposition: "hit",
            entries: 2,
            hits: 5,
            misses: 2,
            evictions: 1,
        };
        let json = e.to_json(0, 0);
        assert!(json.contains("\"event\": \"cache\""));
        assert!(json.contains("\"key\": \"torus4x4\""));
        assert!(json.contains("\"disposition\": \"hit\""));
        assert!(json.contains("\"entries\": 2"));
        assert!(json.contains("\"evictions\": 1"));
        assert!(e.to_human(0, 0).contains("cache hit"));
    }

    #[test]
    fn human_lines_are_single_line_and_informative() {
        for e in sample_events() {
            let line = e.to_human(2500, 1);
            assert!(!line.contains('\n'));
            assert!(line.contains("t1"));
        }
        let gate = TraceEvent::Gate {
            round: 4,
            coco_delta: -5,
            div_delta: 2,
            coco: 95,
            div: 12,
        };
        assert!(gate
            .to_human(0, 0)
            .contains("round   4: dCoco=-5 dDiv=+2 dObj=-7 -> Coco=95 Div=12"));
    }
}
