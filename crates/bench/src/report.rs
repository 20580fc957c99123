//! The artifact writers: `BENCH_paper.json`, the paper's evaluation that
//! `bench_paper` records, and `BENCH_quality.json`, the TIMER quality
//! matrix with its telemetry that `bench_quality` records. No JSON crate is
//! available offline, so both are emitted by hand.

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

/// One cell of the quality matrix (`bench_quality`): a TIMER run on one
/// (topology, initial mapping, Div setting), with the median and minimum
/// wall-clock of the cell's runs and the median run's telemetry.
#[derive(Clone, Debug)]
pub struct QualityCell {
    /// Topology name.
    pub topology: String,
    /// Initial mapping: `scr` or a case id `c1`–`c4`.
    pub mapping: &'static str,
    /// Whether TIMER ran with Div on.
    pub diversity: bool,
    /// Coco of the initial mapping.
    pub initial_coco: u64,
    /// Coco of the enhanced mapping.
    pub final_coco: u64,
    /// Hierarchy rounds committed.
    pub accepted: usize,
    /// Label swaps performed across all sweeps.
    pub total_swaps: usize,
    /// Median wall-clock of the cell's `Timer::enhance` calls, in ms.
    pub wall_ms: f64,
    /// Minimum wall-clock of the cell's `Timer::enhance` calls, in ms.
    pub wall_ms_min: f64,
    /// The telemetry of the run with the median wall-clock: its histograms
    /// and arc counts are every run's, its phase times that run's own.
    pub telemetry: RoundTelemetry,
}

/// One topology's partition, which the matrix's c1–c4 cells share.
#[derive(Clone, Debug)]
pub struct PartitionRow {
    /// Topology name.
    pub topology: String,
    /// Number of blocks, one per PE.
    pub k: usize,
    /// Edge cut of the partition.
    pub edge_cut: u64,
    /// Median wall-clock of the four `partition()` calls, in ms.
    pub partition_ms: f64,
    /// Minimum wall-clock of the four `partition()` calls, in ms.
    pub partition_ms_min: f64,
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

/// Serializes the quality matrix as the `BENCH_quality.json` artifact, one
/// line per row: the header, one row per cell with its result, wall-clocks
/// and telemetry (both delta histograms, the swept and contracted arc
/// counts and the median run's `phases_us`), then one row per topology's
/// partition.
#[allow(clippy::too_many_arguments)] // flat artifact header, one field each
pub fn format_quality_json(
    network: &str,
    scale: Scale,
    vertices: usize,
    num_hierarchies: usize,
    seed: u64,
    hardware_threads: usize,
    cells: &[QualityCell],
    partitions: &[PartitionRow],
) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let t = &c.telemetry;
            let phases: Vec<String> = t
                .phases
                .iter()
                .map(|(phase, us)| format!("\"{}\": {us}", phase.name()))
                .collect();
            format!(
                "    {{\"topology\": \"{}\", \"mapping\": \"{}\", \"diversity\": {}, \
                 \"initial_coco\": {}, \"final_coco\": {}, \"accepted\": {}, \
                 \"total_swaps\": {}, \"wall_ms\": {:.3}, \"wall_ms_min\": {:.3}, \
                 \"sweep_arcs\": {}, \"contract_arcs\": {}, \"delta_coco_hist\": {}, \
                 \"delta_div_hist\": {}, \"phases_us\": {{{}}}}}",
                escape_json(&c.topology),
                c.mapping,
                c.diversity,
                c.initial_coco,
                c.final_coco,
                c.accepted,
                c.total_swaps,
                c.wall_ms,
                c.wall_ms_min,
                t.sweep_arcs,
                t.contract_arcs,
                format_histogram_json(&t.delta_coco),
                format_histogram_json(&t.delta_div),
                phases.join(", ")
            )
        })
        .collect();
    let partitions: Vec<String> = partitions
        .iter()
        .map(|p| {
            format!(
                "    {{\"topology\": \"{}\", \"k\": {}, \"edge_cut\": {}, \
                 \"partition_ms\": {:.3}, \"partition_ms_min\": {:.3}}}",
                escape_json(&p.topology),
                p.k,
                p.edge_cut,
                p.partition_ms,
                p.partition_ms_min
            )
        })
        .collect();
    let scale = format!("{scale:?}").to_lowercase();
    format!(
        "{{\n  \"bench\": \"quality\",\n  \"network\": \"{}\",\n  \"scale\": \"{scale}\",\n  \
         \"vertices\": {vertices},\n  \"nh\": {num_hierarchies},\n  \"seed\": {seed},\n  \
         \"threads\": 1,\n  \"hardware_threads\": {hardware_threads},\n  \
         \"cells\": [\n{}\n  ],\n  \"partitions\": [\n{}\n  ]\n}}\n",
        escape_json(network),
        rows.join(",\n"),
        partitions.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_json_parses_with_one_row_per_cell_and_partition() {
        use tie_mapd::json::Json;
        use tie_trace::Phase;

        let mut telemetry = RoundTelemetry::default();
        telemetry.record_gate(-20, 5);
        telemetry.record_gate(-3, 3);
        telemetry.record_gate(0, 0);
        telemetry.sweep_arcs = 5_620;
        telemetry.contract_arcs = 2_320;
        telemetry.phases.add(Phase::Sweep, 1234);
        telemetry.phases.add(Phase::DeltaScan, 56);
        let cell = |mapping, diversity, final_coco| QualityCell {
            topology: "grid4x4".into(),
            mapping,
            diversity,
            initial_coco: 100,
            final_coco,
            accepted: 3,
            total_swaps: 42,
            wall_ms: 12.3456,
            wall_ms_min: 11.9,
            telemetry: telemetry.clone(),
        };
        let cells = [cell("scr", true, 80), cell("c1", false, 90)];
        let partitions = [PartitionRow {
            topology: "grid4x4".into(),
            k: 16,
            edge_cut: 321,
            partition_ms: 4.5,
            partition_ms_min: 4.25,
        }];
        let s = format_quality_json(
            "net \"A\"",
            Scale::Medium,
            1000,
            10,
            1,
            4,
            &cells,
            &partitions,
        );
        let json = Json::parse(&s).unwrap();
        let header = |key: &str| json.get(key).and_then(Json::as_u64);
        assert_eq!(json.get("bench").and_then(Json::as_str), Some("quality"));
        assert_eq!(
            json.get("network").and_then(Json::as_str),
            Some("net \"A\"")
        );
        assert_eq!(json.get("scale").and_then(Json::as_str), Some("medium"));
        assert_eq!(
            (header("vertices"), header("nh"), header("seed")),
            (Some(1000), Some(10), Some(1))
        );
        assert_eq!(
            (header("threads"), header("hardware_threads")),
            (Some(1), Some(4))
        );
        let rows = json.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        let c1 = &rows[1];
        assert_eq!(c1.get("mapping").and_then(Json::as_str), Some("c1"));
        assert_eq!(c1.get("diversity").and_then(Json::as_bool), Some(false));
        assert_eq!(c1.get("final_coco").and_then(Json::as_u64), Some(90));
        assert_eq!(c1.get("wall_ms").and_then(Json::as_f64), Some(12.346));
        assert_eq!(c1.get("wall_ms_min").and_then(Json::as_f64), Some(11.9));
        assert_eq!(c1.get("sweep_arcs").and_then(Json::as_u64), Some(5620));
        assert_eq!(c1.get("contract_arcs").and_then(Json::as_u64), Some(2320));
        // Histograms: the non-empty buckets, with inclusive bounds.
        let buckets = |key: &str| -> Vec<[Option<f64>; 3]> {
            let hist = c1.get(key).and_then(Json::as_arr).unwrap();
            let num = |b: &Json, k: &str| b.get(k).and_then(Json::as_f64);
            hist.iter()
                .map(|b| [num(b, "lo"), num(b, "hi"), num(b, "count")])
                .collect()
        };
        let bucket = |lo: f64, hi: f64| [Some(lo), Some(hi), Some(1.0)];
        assert_eq!(
            buckets("delta_coco_hist"),
            [bucket(-31.0, -16.0), bucket(-3.0, -2.0), bucket(0.0, 0.0)]
        );
        assert_eq!(
            buckets("delta_div_hist"),
            [bucket(0.0, 0.0), bucket(2.0, 3.0), bucket(4.0, 7.0)]
        );
        // The full fixed phase vocabulary, zeros included.
        let phases = c1.get("phases_us").unwrap();
        let phase = |name: &str| phases.get(name).and_then(Json::as_u64);
        assert_eq!(
            (
                phase("sweep"),
                phase("delta_scan"),
                phase("hierarchy_build")
            ),
            (Some(1234), Some(56), Some(0))
        );
        assert!(Phase::ALL.iter().all(|p| phase(p.name()).is_some()));
        let parts = json.get("partitions").and_then(Json::as_arr).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].get("edge_cut").and_then(Json::as_u64), Some(321));
        assert_eq!(
            parts[0].get("partition_ms_min").and_then(Json::as_f64),
            Some(4.25)
        );
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
