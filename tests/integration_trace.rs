//! End-to-end tests of the flight recorder: a full TIMER run traced to a
//! JSONL file produces a parseable, complete event stream, and attaching any
//! sink leaves the computed result byte-identical to the untraced run.

use std::sync::Arc;

use tie_bench::workloads::{paper_networks, Scale};
use tie_mapping::identity_mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{Timer, TimerConfig, TimerResult};
use tie_topology::{recognize_partial_cube, Topology};
use tie_trace::{JsonlSink, MemorySink, NullSink, Phase, TraceEvent, TraceHandle, TraceLevel};

const NH: usize = 8;

fn run_with(trace: TraceHandle) -> TimerResult {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "email-EuAll")
        .unwrap();
    let ga = spec.build(Scale::Tiny);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 1));
    let initial = identity_mapping(&part, topo.num_pes());
    let cfg = TimerConfig::new(NH, 1).with_trace(trace);
    Timer::new(cfg).enhance(&ga, &pcube, &initial).unwrap()
}

/// Minimal structural check of one JSONL line without a JSON parser: it is
/// one object, and each required key is present with a primitive value.
fn assert_jsonl_line(line: &str) {
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "not an object: {line}"
    );
    assert_eq!(line.matches('{').count(), 1, "nested braces: {line}");
    for key in ["\"event\": ", "\"ts_us\": ", "\"thread\": "] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}

#[test]
fn jsonl_trace_is_parseable_and_covers_every_round() {
    let dir = std::env::temp_dir().join("tie_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("integration_trace.jsonl");
    let sink = JsonlSink::create(&path).unwrap();
    let result = run_with(TraceHandle::new(Arc::new(sink), TraceLevel::Phase));

    let content = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = content.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        assert_jsonl_line(line);
    }

    let count = |kind: &str| {
        lines
            .iter()
            .filter(|l| l.contains(&format!("{{\"event\": \"{kind}\",")))
            .count()
    };
    assert_eq!(count("run_start"), 1);
    assert_eq!(count("run_end"), 1);
    // One gate event per hierarchy round, no more, no less.
    assert_eq!(count("gate"), NH);
    // Phase level adds the per-round phase spans: hierarchy build, assemble,
    // delta scan and commit fire once per round.
    assert_eq!(count("phase"), 4 * NH);
    // The result agrees with the event stream.
    assert_eq!(result.hierarchies_accepted, NH);

    // Every gate line carries both deltas, with `coco_delta <= 0 <=
    // div_delta` (the driver fails a run on any other round), and the Coco
    // deltas add up to the run's change of Coco.
    let field = |line: &str, key: &str| -> i64 {
        let value = line.split(&format!("\"{key}\": ")).nth(1).unwrap();
        let number: String = value
            .chars()
            .take_while(|c| *c == '-' || c.is_ascii_digit())
            .collect();
        number.parse().unwrap()
    };
    let mut coco_change = 0i64;
    for line in lines.iter().filter(|l| l.contains("\"event\": \"gate\"")) {
        assert!(line.contains("\"round\": "), "missing round in {line}");
        let (coco_delta, div_delta) = (field(line, "coco_delta"), field(line, "div_delta"));
        assert!(coco_delta <= 0 && div_delta >= 0, "unchecked round: {line}");
        coco_change += coco_delta;
    }
    assert_eq!(
        coco_change,
        result.final_coco as i64 - result.initial_coco as i64
    );
    assert_eq!(result.telemetry.delta_coco.count(), NH as u64);
}

#[test]
fn tracing_never_changes_the_result() {
    let baseline = run_with(TraceHandle::off());
    assert!(baseline.telemetry.sweep_arcs > 0, "no sweep work recorded");
    let dir = std::env::temp_dir().join("tie_trace_test");
    std::fs::create_dir_all(&dir).unwrap();

    let path = dir.join("identity_check.jsonl");
    let traced = run_with(TraceHandle::new(
        Arc::new(JsonlSink::create(&path).unwrap()),
        TraceLevel::Debug,
    ));
    std::fs::remove_file(&path).ok();
    let nulled = run_with(TraceHandle::new(Arc::new(NullSink), TraceLevel::Debug));
    for r in [&traced, &nulled] {
        assert_eq!(r.labeling.labels, baseline.labeling.labels);
        assert_eq!(r.final_coco, baseline.final_coco);
        assert_eq!(r.hierarchies_accepted, baseline.hierarchies_accepted);
        assert_eq!(r.total_swaps, baseline.total_swaps);
        // So are the hierarchies' work counts.
        assert_eq!(r.telemetry.sweep_arcs, baseline.telemetry.sweep_arcs);
        assert_eq!(r.telemetry.contract_arcs, baseline.telemetry.contract_arcs);
        // Gate-side telemetry is deterministic too (phases are
        // wall-clock and may differ).
        assert!(r.telemetry.same_gate_trajectory(&baseline.telemetry));
    }
}

#[test]
fn debug_trace_spans_every_level_of_every_round() {
    let sink = Arc::new(MemorySink::default());
    let result = run_with(TraceHandle::new(sink.clone(), TraceLevel::Debug));
    let spans: Vec<(Phase, Option<usize>, Option<usize>)> = sink
        .events()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::Phase {
                phase,
                round,
                level,
                ..
            } => Some((phase, round, level)),
            _ => None,
        })
        .collect();
    let count =
        |span: (Phase, Option<usize>, Option<usize>)| spans.iter().filter(|&&s| s == span).count();
    // Levels 0..dim-2 are swept and contracted in every round; the round
    // itself has one span per round-level phase.
    let swept = result.labeling.dim - 2;
    for round in (0..NH).map(Some) {
        for level in (0..swept).map(Some) {
            assert_eq!(
                count((Phase::Sweep, round, level)),
                1,
                "{round:?} {level:?}"
            );
            assert_eq!(
                count((Phase::Contract, round, level)),
                1,
                "{round:?} {level:?}"
            );
        }
        for phase in [
            Phase::HierarchyBuild,
            Phase::Assemble,
            Phase::DeltaScan,
            Phase::Commit,
        ] {
            assert_eq!(count((phase, round, None)), 1, "{phase:?} {round:?}");
        }
    }
    assert_eq!(spans.len(), NH * (2 * swept + 4));
    // A hierarchy build contains its levels' sweeps and contractions.
    let phases = &result.telemetry.phases;
    assert!(
        phases.get(Phase::HierarchyBuild) >= phases.get(Phase::Sweep) + phases.get(Phase::Contract),
        "{phases:?}"
    );
}
