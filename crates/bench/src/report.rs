//! Plain-text table and figure emitters.
//!
//! The binaries print the same rows/series the paper reports: Table 1
//! (network inventory), Table 2 (running-time quotients), Table 3
//! (partitioner running times), and Figures 5a–5d (relative Coco and Cut per
//! topology after TIMER). Everything is plain ASCII so the output can be
//! diffed.

use std::fmt::Write as _;

use tie_mapd::MapCase;
use tie_timer::RoundTelemetry;
use tie_trace::LogHistogram;

use crate::harness::CellObservations;
use crate::stats::Summary;

/// One row of a Figure-5-style quality report: relative Cut and Coco
/// (min/mean/max, geometric means over networks) for one topology.
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// Topology name (e.g. `grid16x16`).
    pub topology: String,
    /// Relative edge cut after TIMER (min/mean/max).
    pub cut: Summary,
    /// Relative Coco after TIMER (min/mean/max).
    pub coco: Summary,
}

/// One row of a Table-2-style timing report.
#[derive(Clone, Debug)]
pub struct TimingRow {
    /// Topology name.
    pub topology: String,
    /// Per-case time quotients (min/mean/max), in case order c1..c4.
    pub per_case: Vec<(String, Summary)>,
}

/// Formats a Figure-5-like quality table.
pub fn format_quality_table(case_name: &str, rows: &[QualityRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Relative quality after TIMER — case {case_name} (values < 1.0 mean TIMER improved the metric)");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8}",
        "topology", "minCut", "Cut", "maxCut", "minCo", "Co", "maxCo"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>8.4} {:>8.4} {:>8.4}   {:>8.4} {:>8.4} {:>8.4}",
            row.topology,
            row.cut.min,
            row.cut.mean,
            row.cut.max,
            row.coco.min,
            row.coco.mean,
            row.coco.max
        );
    }
    out
}

/// Formats a Table-2-like timing table.
pub fn format_timing_table(rows: &[TimingRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Running-time quotients (TIMER time / baseline time; baseline = DRB mapping for c1, partitioning for c2-c4)"
    );
    for row in rows {
        let _ = writeln!(out, "{}", row.topology);
        for (case, s) in &row.per_case {
            let _ = writeln!(
                out,
                "    {:<22} qT_min {:>9.4}  qT_mean {:>9.4}  qT_max {:>9.4}",
                case, s.min, s.mean, s.max
            );
        }
    }
    out
}

/// Formats a Table-1-like inventory row set.
pub fn format_inventory(rows: &[(String, usize, usize, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>12}  Type",
        "Name", "#vertices", "#edges"
    );
    for (name, n, m, kind) in rows {
        let _ = writeln!(out, "{:<24} {:>10} {:>12}  {}", name, n, m, kind);
    }
    out
}

/// Formats a Table-3-like running-time listing (seconds). `k_labels` names
/// the two block-count columns (the paper uses k = 256 and k = 512; the
/// reduced-scale harness uses smaller k).
pub fn format_partition_times(rows: &[(String, f64, f64)], k_labels: (&str, &str)) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12}",
        "Name",
        format!("{} [s]", k_labels.0),
        format!("{} [s]", k_labels.1)
    );
    let mut product_256 = 1.0f64;
    let mut product_512 = 1.0f64;
    let mut sum_256 = 0.0f64;
    let mut sum_512 = 0.0f64;
    for (name, t256, t512) in rows {
        let _ = writeln!(out, "{:<24} {:>12.3} {:>12.3}", name, t256, t512);
        product_256 *= t256.max(1e-9);
        product_512 *= t512.max(1e-9);
        sum_256 += t256;
        sum_512 += t512;
    }
    if !rows.is_empty() {
        let n = rows.len() as f64;
        let _ = writeln!(
            out,
            "{:<24} {:>12.3} {:>12.3}",
            "Arithmetic mean",
            sum_256 / n,
            sum_512 / n
        );
        let _ = writeln!(
            out,
            "{:<24} {:>12.3} {:>12.3}",
            "Geometric mean",
            product_256.powf(1.0 / n),
            product_512.powf(1.0 / n)
        );
    }
    out
}

// The canonical JSON string escaper lives in the service crate next to the
// protocol parser; artifacts and wire frames must agree on the encoding.
use tie_mapd::json::escape as escape_json;

/// Formats a float list as a JSON array.
fn format_f64_list(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v:.6}");
    }
    out.push(']');
    out
}

/// Serializes a full sweep (all cases × all cells) as the machine-readable
/// artifact `run_all --out` writes. Rows whose repetitions failed carry
/// their error strings instead of silently disappearing, so a partially
/// failed overnight campaign is still a complete, auditable record.
pub fn format_sweep_json(per_case: &[(MapCase, Vec<CellObservations>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"report\": \"sweep\",");
    let total_errors: usize = per_case
        .iter()
        .flat_map(|(_, cells)| cells.iter())
        .map(|c| c.errors.len())
        .sum();
    let _ = writeln!(out, "  \"total_errors\": {total_errors},");
    let _ = writeln!(out, "  \"cases\": [");
    for (i, (case, cells)) in per_case.iter().enumerate() {
        let case_comma = if i + 1 < per_case.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"case\": \"{}\",", case.id());
        let _ = writeln!(out, "      \"rows\": [");
        for (j, c) in cells.iter().enumerate() {
            let row_comma = if j + 1 < cells.len() { "," } else { "" };
            let mut errors = String::from("[");
            for (k, e) in c.errors.iter().enumerate() {
                if k > 0 {
                    errors.push_str(", ");
                }
                let _ = write!(errors, "\"{}\"", escape_json(e));
            }
            errors.push(']');
            let _ = writeln!(
                out,
                "        {{\"network\": \"{}\", \"topology\": \"{}\", \
                 \"coco_quotients\": {}, \"cut_quotients\": {}, \"time_quotients\": {}, \
                 \"errors\": {}}}{}",
                escape_json(&c.network),
                escape_json(&c.topology),
                format_f64_list(&c.coco_quotients),
                format_f64_list(&c.cut_quotients),
                format_f64_list(&c.time_quotients),
                errors,
                row_comma
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{case_comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
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
    fn quality_table_contains_all_rows_and_header() {
        let rows = vec![
            QualityRow {
                topology: "grid16x16".into(),
                cut: Summary {
                    min: 1.01,
                    mean: 1.05,
                    max: 1.1,
                },
                coco: Summary {
                    min: 0.7,
                    mean: 0.8,
                    max: 0.9,
                },
            },
            QualityRow {
                topology: "8-dimHQ".into(),
                cut: Summary {
                    min: 1.0,
                    mean: 1.0,
                    max: 1.0,
                },
                coco: Summary {
                    min: 0.9,
                    mean: 0.95,
                    max: 1.0,
                },
            },
        ];
        let s = format_quality_table("c2", &rows);
        assert!(s.contains("grid16x16"));
        assert!(s.contains("8-dimHQ"));
        assert!(s.contains("minCo"));
        assert!(s.contains("0.8000"));
    }

    #[test]
    fn timing_table_lists_cases() {
        let rows = vec![TimingRow {
            topology: "torus16x16".into(),
            per_case: vec![
                (
                    "c1".into(),
                    Summary {
                        min: 20.0,
                        mean: 21.0,
                        max: 22.0,
                    },
                ),
                (
                    "c2".into(),
                    Summary {
                        min: 0.5,
                        mean: 0.6,
                        max: 0.7,
                    },
                ),
            ],
        }];
        let s = format_timing_table(&rows);
        assert!(s.contains("torus16x16"));
        assert!(s.contains("qT_mean"));
        assert!(s.contains("21.0000"));
    }

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
    fn sweep_json_records_errors_and_balances() {
        let cells = vec![
            CellObservations {
                network: "netA".into(),
                topology: "grid4x4".into(),
                coco_quotients: vec![0.9, 0.95],
                cut_quotients: vec![1.0, 1.01],
                time_quotients: vec![2.0, 2.1],
                partition_seconds: vec![0.01, 0.01],
                errors: Vec::new(),
            },
            CellObservations {
                network: "netB".into(),
                topology: "grid4x4".into(),
                coco_quotients: Vec::new(),
                cut_quotients: Vec::new(),
                time_quotients: Vec::new(),
                partition_seconds: Vec::new(),
                errors: vec!["rep 0: worker panicked in hierarchy round 3: \"boom\"".into()],
            },
        ];
        let s = format_sweep_json(&[(MapCase::C2Identity, cells)]);
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(s.contains("\"total_errors\": 1"));
        assert!(s.contains("\"case\": \"c2\""));
        assert!(s.contains("\"network\": \"netB\""));
        // The quote inside the error message must arrive escaped.
        assert!(s.contains("round 3: \\\"boom\\\""));
        assert!(s.contains("\"coco_quotients\": [0.900000, 0.950000]"));
        assert!(s.contains("\"errors\": []"));
    }

    #[test]
    fn json_escaping_covers_control_chars() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn inventory_and_partition_times_format() {
        let inv = format_inventory(&[("net".into(), 100, 200, "test network".into())]);
        assert!(inv.contains("net") && inv.contains("200"));
        let times = format_partition_times(
            &[("net".into(), 1.5, 3.0), ("net2".into(), 2.0, 4.0)],
            ("k=256", "k=512"),
        );
        assert!(times.contains("Geometric mean"));
        assert!(times.contains("Arithmetic mean"));
        assert!(times.contains("k=512 [s]"));
    }
}
