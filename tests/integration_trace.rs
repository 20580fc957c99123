//! End-to-end tests of the flight recorder: a full TIMER run traced to a
//! JSONL file produces a parseable, complete event stream, and attaching any
//! sink leaves the computed result byte-identical to the untraced run.

use std::sync::Arc;

use tie_bench::workloads::{paper_networks, Scale};
use tie_mapping::identity_mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{enhance_mapping, TimerConfig, TimerResult};
use tie_topology::{recognize_partial_cube, Topology};
use tie_trace::{JsonlSink, NullSink, TraceHandle, TraceLevel};

const NH: usize = 8;

fn run_with(trace: TraceHandle, threads: usize) -> TimerResult {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "email-EuAll")
        .unwrap();
    let ga = spec.build(Scale::Tiny);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 1));
    let initial = identity_mapping(&part, topo.num_pes());
    let cfg = TimerConfig::new(NH, 1)
        .with_threads(threads)
        .with_trace(trace);
    enhance_mapping(&ga, &pcube, &initial, cfg).unwrap()
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
    let result = run_with(TraceHandle::new(Arc::new(sink), TraceLevel::Phase), 1);

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
    // One gate event per hierarchy round, no more, no less — the committed
    // trajectory covers exactly `nh` rounds even under speculation.
    assert_eq!(count("gate"), NH);
    // Phase level adds the per-round phase spans: hierarchy build, assemble
    // and delta scan fire once per round, commit once per batch (= per round
    // sequentially).
    assert_eq!(count("phase"), 4 * NH);
    // Telemetry agrees with the event stream.
    assert_eq!(result.telemetry.rounds(), NH);

    // Every gate line carries the accept verdict, both deltas and the
    // round's repair count; the counts add up to the run's total.
    let mut repaired = 0usize;
    for line in lines.iter().filter(|l| l.contains("\"event\": \"gate\"")) {
        for key in [
            "\"round\": ",
            "\"coco_delta\": ",
            "\"div_delta\": ",
            "\"repaired\": ",
            "\"accepted\": ",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        let value = line.split("\"repaired\": ").nth(1).unwrap();
        let digits: String = value.chars().take_while(char::is_ascii_digit).collect();
        repaired += digits.parse::<usize>().unwrap();
    }
    assert_eq!(repaired, result.total_repaired);
    assert_eq!(result.telemetry.total_repaired, result.total_repaired);
    assert_eq!(result.telemetry.repaired.count(), NH as u64);
}

#[test]
fn tracing_never_changes_the_result() {
    let baseline = run_with(TraceHandle::off(), 1);
    assert!(baseline.telemetry.sweep_arcs > 0, "no sweep work recorded");
    let dir = std::env::temp_dir().join("tie_trace_test");
    std::fs::create_dir_all(&dir).unwrap();

    for threads in [1usize, 4] {
        let path = dir.join(format!("identity_check_{threads}.jsonl"));
        let traced = run_with(
            TraceHandle::new(
                Arc::new(JsonlSink::create(&path).unwrap()),
                TraceLevel::Debug,
            ),
            threads,
        );
        std::fs::remove_file(&path).ok();
        let nulled = run_with(
            TraceHandle::new(Arc::new(NullSink), TraceLevel::Debug),
            threads,
        );
        for r in [&traced, &nulled] {
            assert_eq!(r.labeling.labels, baseline.labeling.labels);
            assert_eq!(r.final_coco, baseline.final_coco);
            assert_eq!(r.hierarchies_accepted, baseline.hierarchies_accepted);
            assert_eq!(r.total_swaps, baseline.total_swaps);
            assert_eq!(r.total_repaired, baseline.total_repaired);
            // So are the hierarchies' work counts.
            assert_eq!(r.telemetry.sweep_arcs, baseline.telemetry.sweep_arcs);
            assert_eq!(r.telemetry.contract_arcs, baseline.telemetry.contract_arcs);
            // Gate-side telemetry is deterministic too (phases are
            // wall-clock and may differ).
            assert!(r.telemetry.same_gate_trajectory(&baseline.telemetry));
        }
    }
}
