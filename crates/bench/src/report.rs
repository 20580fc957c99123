//! The artifact writers: `BENCH_paper.json`, the paper's evaluation that
//! `bench_paper` records, and `BENCH_timer.json`, the perf trajectory that
//! `bench_timer` records. No JSON crate is available offline, so both are
//! emitted by hand.

use std::fmt::{Display, Write as _};
use std::time::Duration;

// The canonical JSON string escaper lives in the service crate next to the
// protocol parser; artifacts and wire frames must agree on the encoding.
use tie_mapd::json::escape as escape_json;
use tie_timer::RoundTelemetry;
use tie_topology::Topology;
use tie_trace::LogHistogram;

use crate::harness::{quality_rows, timing_rows, CellObservations, Repetition, EPSILON};
use crate::stats::Summary;
use crate::workloads::{NetworkSpec, Scale};

/// A JSON array of `value` over a cell's repetitions.
fn rep_list<T: Display>(reps: &[Repetition], value: impl Fn(&Repetition) -> T) -> String {
    let items: Vec<String> = reps.iter().map(|r| value(r).to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// A [`Summary`] as a JSON object with six decimals.
fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"min\": {:.6}, \"mean\": {:.6}, \"max\": {:.6}}}",
        s.min, s.mean, s.max
    )
}

/// Serializes a sweep as the `BENCH_paper.json` artifact, one line per row:
/// Table 1's inventory (`inventory` holds each network's vertex and edge
/// count at `scale`), one row per (network, topology, case) cell with its
/// repetitions' values, then per (topology, case) Figure 5's Coco and cut
/// quotients and Table 2's time quotients.
pub fn format_paper_json(
    scale: Scale,
    repetitions: usize,
    num_hierarchies: usize,
    hardware_threads: usize,
    inventory: &[(&NetworkSpec, usize, usize)],
    cells: &[CellObservations],
    topologies: &[Topology],
) -> String {
    let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
    let networks: Vec<String> = inventory
        .iter()
        .map(|(spec, vertices, edges)| {
            format!(
                "    {{\"name\": \"{}\", \"type\": \"{}\", \"seed\": {}, \
                 \"vertices\": {vertices}, \"edges\": {edges}}}",
                escape_json(spec.name),
                escape_json(spec.description),
                spec.seed
            )
        })
        .collect();
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let r = &c.reps;
            format!(
                "    {{\"network\": \"{}\", \"topology\": \"{}\", \"case\": \"{}\", \
             \"initial_coco\": {}, \"final_coco\": {}, \"initial_cut\": {}, \"final_cut\": {}, \
             \"accepted\": {}, \"swaps\": {}, \"partition_ms\": {}, \"mapping_ms\": {}, \
             \"timer_ms\": {}}}",
                escape_json(&c.network),
                escape_json(&c.topology),
                c.case.id(),
                rep_list(r, |r| r.initial_coco),
                rep_list(r, |r| r.final_coco),
                rep_list(r, |r| r.initial_cut),
                rep_list(r, |r| r.final_cut),
                rep_list(r, |r| r.accepted),
                rep_list(r, |r| r.swaps),
                rep_list(r, |r| ms(r.partition_time)),
                rep_list(r, |r| ms(r.mapping_time)),
                rep_list(r, |r| ms(r.timer_time)),
            )
        })
        .collect();
    let figure5: Vec<String> = quality_rows(cells, topologies)
        .iter()
        .map(|q| {
            format!(
                "    {{\"topology\": \"{}\", \"case\": \"{}\", \"coco\": {}, \"coco_gsd\": {:.6}, \
                 \"cut\": {}, \"cut_gsd\": {:.6}}}",
                escape_json(&q.topology),
                q.case.id(),
                summary_json(&q.coco),
                q.coco_gsd,
                summary_json(&q.cut),
                q.cut_gsd
            )
        })
        .collect();
    let table2: Vec<String> = timing_rows(cells, topologies)
        .iter()
        .map(|t| {
            format!(
                "    {{\"topology\": \"{}\", \"case\": \"{}\", \"time_quotient\": {}}}",
                escape_json(&t.topology),
                t.case.id(),
                summary_json(&t.time)
            )
        })
        .collect();
    let scale = format!("{scale:?}").to_lowercase();
    format!(
        "{{\n  \"bench\": \"paper\",\n  \"note\": \"The networks are seeded synthetic stand-ins \
         for the real networks of Table 1, built at {scale} scale.\",\n  \"scale\": \"{scale}\",\n  \
         \"nh\": {num_hierarchies},\n  \"eps\": {EPSILON},\n  \"reps\": {repetitions},\n  \
         \"hardware_threads\": {hardware_threads},\n  \"networks\": [\n{}\n  ],\n  \
         \"cells\": [\n{}\n  ],\n  \"figure5\": [\n{}\n  ],\n  \"table2\": [\n{}\n  ]\n}}\n",
        networks.join(",\n"),
        rows.join(",\n"),
        figure5.join(",\n"),
        table2.join(",\n")
    )
}

/// One measurement of the TIMER perf-trajectory harness (`bench_timer`):
/// a full `Timer::enhance` run at one scale.
#[derive(Clone, Debug)]
pub struct TimerBenchEntry {
    /// Workload scale name (`tiny`, `small`, `medium`).
    pub scale: String,
    /// Median wall-clock of the `enhance` call across repetitions, in
    /// milliseconds (with `--reps 1` this is the single measurement).
    pub wall_ms: f64,
    /// Minimum wall-clock across repetitions, in milliseconds.
    pub wall_ms_min: f64,
    /// Coco of the initial mapping.
    pub initial_coco: u64,
    /// Coco of the enhanced mapping.
    pub final_coco: u64,
    /// Hierarchy rounds committed.
    pub accepted: usize,
    /// Label swaps performed across all sweeps.
    pub total_swaps: usize,
}

/// Formats a [`LogHistogram`] as a JSON array of its non-empty buckets,
/// each `{"lo": .., "hi": .., "count": ..}` with inclusive bounds.
fn format_histogram_json(hist: &LogHistogram) -> String {
    let mut out = String::from("[");
    for (i, b) in hist.buckets().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"lo\": {}, \"hi\": {}, \"count\": {}}}",
            b.lo, b.hi, b.count
        );
    }
    out.push(']');
    out
}

/// Serializes the perf-trajectory measurements as the `BENCH_timer.json`
/// artifact: machine-readable, diffable, one object per cell. No external
/// JSON crate is available offline, so the (flat, numeric) structure is
/// emitted by hand.
///
/// `telemetry` carries one gate record per scale (the delta histograms and
/// hierarchy work counts are byte-identical across repetitions; the phase
/// breakdown comes from the repetition with the median wall-clock).
#[allow(clippy::too_many_arguments)] // flat artifact header, one field each
pub fn format_bench_json(
    nh: usize,
    reps: usize,
    network: &str,
    topology: &str,
    hardware_threads: usize,
    entries: &[TimerBenchEntry],
    telemetry: &[(String, RoundTelemetry)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"timer\",");
    let _ = writeln!(out, "  \"nh\": {nh},");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"network\": \"{network}\",");
    let _ = writeln!(out, "  \"topology\": \"{topology}\",");
    // Wall-clock context: the host the rows were timed on.
    let _ = writeln!(out, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(out, "  \"results\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"scale\": \"{}\", \"wall_ms\": {:.3}, \"wall_ms_min\": {:.3}, \
             \"initial_coco\": {}, \"final_coco\": {}, \"accepted\": {}, \
             \"total_swaps\": {}}}{}",
            e.scale,
            e.wall_ms,
            e.wall_ms_min,
            e.initial_coco,
            e.final_coco,
            e.accepted,
            e.total_swaps,
            comma
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"telemetry\": [");
    for (i, (scale, t)) in telemetry.iter().enumerate() {
        let comma = if i + 1 < telemetry.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"scale\": \"{scale}\",");
        let _ = writeln!(
            out,
            "      \"delta_coco_hist\": {},",
            format_histogram_json(&t.delta_coco)
        );
        let _ = writeln!(
            out,
            "      \"delta_div_hist\": {},",
            format_histogram_json(&t.delta_div)
        );
        let _ = writeln!(out, "      \"sweep_arcs\": {},", t.sweep_arcs);
        let _ = writeln!(out, "      \"contract_arcs\": {},", t.contract_arcs);
        let mut phases = String::from("{");
        for (j, (phase, us)) in t.phases.iter().enumerate() {
            if j > 0 {
                phases.push_str(", ");
            }
            let _ = write!(phases, "\"{}\": {}", phase.name(), us);
        }
        phases.push('}');
        let _ = writeln!(out, "      \"phases_us\": {phases}");
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_well_formed() {
        let entries = vec![
            TimerBenchEntry {
                scale: "tiny".into(),
                wall_ms: 12.3456,
                wall_ms_min: 11.9,
                initial_coco: 100,
                final_coco: 80,
                accepted: 3,
                total_swaps: 42,
            },
            TimerBenchEntry {
                scale: "small".into(),
                wall_ms: 40.0,
                wall_ms_min: 35.5,
                initial_coco: 300,
                final_coco: 250,
                accepted: 3,
                total_swaps: 97,
            },
        ];
        let mut tel = RoundTelemetry::default();
        tel.record_gate(-20, 5);
        tel.record_gate(-3, 3);
        tel.record_gate(0, 0);
        tel.sweep_arcs = 5_620;
        tel.contract_arcs = 2_320;
        use tie_trace::Phase;
        tel.phases.add(Phase::Sweep, 1234);
        tel.phases.add(Phase::DeltaScan, 56);
        let telemetry = vec![("tiny".to_string(), tel)];
        let s = format_bench_json(10, 3, "PGPgiantcompo", "grid8x8", 4, &entries, &telemetry);
        // Structural sanity without a JSON parser: balanced braces/brackets,
        // exactly one trailing-comma-free list, and the key fields present.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(!s.contains(",\n  ]"), "trailing comma before list close");
        assert!(s.contains("\"bench\": \"timer\""));
        assert!(s.contains("\"nh\": 10"));
        assert!(s.contains("\"reps\": 3"));
        assert!(s.contains("\"hardware_threads\": 4"));
        assert!(s.contains("\"wall_ms\": 12.346"));
        assert!(s.contains("\"wall_ms_min\": 11.900"));
        assert!(s.contains("\"scale\": \"small\""));
        assert!(s.contains("\"final_coco\": 80"));
        assert!(!s.contains("\"threads\""), "no per-row thread count");
        assert!(!s.contains("batch"));
        // Telemetry block: histograms with inclusive bounds and the full
        // fixed phase vocabulary; the committed-round count is the row's
        // `accepted`, and the block carries no verdict counts.
        assert_eq!(s.matches("\"accepted\"").count(), 2, "one per result row");
        assert!(!s.contains("rejected") && !s.contains("ties"));
        assert!(s.contains("\"delta_coco_hist\": ["));
        assert!(s.contains("{\"lo\": -31, \"hi\": -16, \"count\": 1}"));
        assert!(s.contains("\"delta_div_hist\": ["));
        assert!(s.contains("{\"lo\": -3, \"hi\": -2, \"count\": 1}"));
        assert!(s.contains("\"delta_div_hist\": [{\"lo\": 0, \"hi\": 0, \"count\": 1}"));
        assert!(s.contains("{\"lo\": 4, \"hi\": 7, \"count\": 1}"));
        assert!(!s.contains("repaired"));
        assert!(s.contains("\"sweep_arcs\": 5620,"));
        assert!(s.contains("\"contract_arcs\": 2320,"));
        assert!(s.contains("\"phases_us\": {"));
        assert!(s.contains("\"sweep\": 1234"));
        assert!(s.contains("\"delta_scan\": 56"));
        assert!(s.contains("\"hierarchy_build\": 0"));
        // "scale" appears once per result row and once per telemetry record.
        assert_eq!(s.matches("\"scale\"").count(), 3);
    }

    #[test]
    fn paper_json_parses_with_one_row_per_cell_and_quotient() {
        use std::time::Duration;
        use tie_mapd::json::Json;
        use tie_mapd::MapCase;

        let rep = |coco: u64| Repetition {
            initial_coco: 100,
            final_coco: coco,
            initial_cut: 50,
            final_cut: 55,
            accepted: 3,
            swaps: 7,
            partition_time: Duration::from_millis(4),
            mapping_time: Duration::from_millis(1),
            timer_time: Duration::from_millis(2),
            coco_quotient: coco as f64 / 100.0,
            cut_quotient: 1.1,
            time_quotient: 0.5,
        };
        let topologies = [Topology::grid2d(4, 4)];
        // Case ci's cell reads Coco 80 - i and 90 - i out of 100.
        let cells: Vec<CellObservations> = MapCase::all()
            .into_iter()
            .zip(1..)
            .map(|(case, i)| CellObservations {
                network: "net \"A\"".into(),
                topology: topologies[0].name.clone(),
                case,
                reps: vec![rep(80 - i), rep(90 - i)],
            })
            .collect();
        let spec = &crate::workloads::paper_networks()[0];
        let s = format_paper_json(Scale::Tiny, 2, 3, 4, &[(spec, 10, 20)], &cells, &topologies);
        let json = Json::parse(&s).unwrap();
        let arr = |key: &str| json.get(key).and_then(Json::as_arr).unwrap().len();
        assert_eq!((arr("networks"), arr("cells")), (1, 4));
        assert_eq!((arr("figure5"), arr("table2")), (4, 4));
        assert_eq!(json.get("scale").and_then(Json::as_str), Some("tiny"));
        assert_eq!(json.get("eps").and_then(Json::as_f64), Some(0.03));
        let cell = &json.get("cells").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(
            cell.get("network").and_then(Json::as_str),
            Some("net \"A\"")
        );
        assert_eq!(cell.get("case").and_then(Json::as_str), Some("c2"));
        let finals: Vec<u64> = cell
            .get("final_coco")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(finals, [78, 88]);
        assert!(s.contains("\"timer_ms\": [2.000, 2.000]"));
        let c2 = &json.get("figure5").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(c2.get("case").and_then(Json::as_str), Some("c2"));
        let coco = |key| {
            c2.get("coco")
                .and_then(|c| c.get(key))
                .and_then(Json::as_f64)
        };
        assert_eq!(
            (coco("min"), coco("mean"), coco("max")),
            (Some(0.78), Some(0.83), Some(0.88))
        );
        assert!(s.contains("\"coco_gsd\": 1.000000"));
        assert!(s.contains("\"time_quotient\": {\"min\": 0.500000"));
    }

    #[test]
    fn json_escaping_covers_control_chars() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
