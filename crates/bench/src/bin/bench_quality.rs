//! TIMER quality matrix: runs `Timer::enhance` on the medium PGPgiantcompo
//! stand-in for every topology × initial mapping × Div setting and writes
//! the machine-readable `BENCH_quality.json` artifact, so a change to the
//! algorithm shows its effect on every cell.
//!
//! Cells: grid8x8 and the five `Topology::paper_topologies()`, × the
//! initial mappings "scr" (a seeded random block-to-PE bijection of the
//! partition) and c1–c4 (the pipeline's `map_initial` step), × Div on and
//! Div off: 60 cells. Every cell runs the pipeline's `enhance` step with NH
//! 40, TIMER and partition seed 1, on one thread, `RUNS` times, and records
//! initial and final Coco, kept rounds, `total_swaps`, the median and
//! minimum wall-clock of `Timer::enhance` (`wall_ms`, `wall_ms_min`) and
//! the telemetry of the median run: both delta histograms, the swept and
//! contracted arc counts and its phase breakdown (`phases_us`). Everything
//! but the wall-clocks and `phases_us` is deterministic: the harness exits
//! 2, naming the cell and the field, when a run's final Coco, kept rounds,
//! swaps, arc counts, gate telemetry or final labels differ from the first
//! run's, and a regenerated file must reproduce every other field of the
//! committed one.
//!
//! Per topology the file also records the partition the four µ₁ steps
//! share: its edge cut and the median and min of the four `partition()`
//! wall-clocks (`partition_ms`, `partition_ms_min`; timed, so not
//! compared). The harness exits 2 when the four partitions differ.
//!
//! Usage:
//!   cargo run --release -p tie-bench --bin bench_quality -- [--out BENCH_quality.json]

use std::process::ExitCode;

use tie_bench::report::{format_quality_json, PartitionRow, QualityCell};
use tie_bench::workloads::{paper_networks, Scale};
use tie_graph::generators::random_permutation;
use tie_mapd::cli::{check_args, try_flag_value};
use tie_mapd::pipeline::{enhance, map_initial};
use tie_mapd::MapCase;
use tie_mapping::Mapping;
use tie_timer::{RoundTelemetry, TimerConfig, TimerResult};
use tie_topology::{recognize_partial_cube, Topology};

const NETWORK: &str = "PGPgiantcompo";
const SCALE: Scale = Scale::Medium;
const NH: usize = 40;
const SEED: u64 = 1;
/// The partitioner's imbalance bound: the paper's 3 %.
const EPS: f64 = 0.03;
/// Runs per cell; `wall_ms` and the telemetry are their median's, so one
/// slow run sets neither.
const RUNS: usize = 3;

const USAGE: &str = "usage: bench_quality [--out PATH]";

/// The first field of the deterministic trajectory on which `run` differs
/// from `reference`, or `None` when they agree: the final Coco, the kept
/// rounds, the swap total, the arcs the hierarchies swept and contracted,
/// the gate telemetry ([`RoundTelemetry::same_gate_trajectory`]) and the
/// final labels.
fn trajectory_mismatch(reference: &TimerResult, run: &TimerResult) -> Option<&'static str> {
    if run.final_coco != reference.final_coco {
        Some("final_coco")
    } else if run.hierarchies_accepted != reference.hierarchies_accepted {
        Some("hierarchies_accepted")
    } else if run.total_swaps != reference.total_swaps {
        Some("total_swaps")
    } else if run.telemetry.sweep_arcs != reference.telemetry.sweep_arcs {
        Some("sweep_arcs")
    } else if run.telemetry.contract_arcs != reference.telemetry.contract_arcs {
        Some("contract_arcs")
    } else if !reference.telemetry.same_gate_trajectory(&run.telemetry) {
        Some("gate telemetry")
    } else if run.labeling.labels != reference.labeling.labels {
        Some("final labels")
    } else {
        None
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_quality: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_args(&args, &[], &["--out"])?;
    let out_path = try_flag_value(&args, "--out")?.unwrap_or("BENCH_quality.json");
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == NETWORK)
        .ok_or_else(|| format!("network {NETWORK:?} missing from the catalogue"))?;
    let ga = spec.build(SCALE);
    eprintln!(
        "medium {NETWORK}: {} vertices, {} edges",
        ga.num_vertices(),
        ga.num_edges()
    );

    let mut topologies = vec![Topology::grid2d(8, 8)];
    topologies.extend(Topology::paper_topologies());
    let mut cells = Vec::new();
    let mut partitions = Vec::new();
    for topo in &topologies {
        let pcube = recognize_partial_cube(&topo.graph)
            .map_err(|e| format!("{} failed partial-cube recognition: {e}", topo.name))?;
        let k = topo.num_pes();
        let cases = MapCase::all().map(|case| map_initial(&ga, &topo.graph, case, EPS, SEED));
        if cases.iter().any(|c| c.partition != cases[0].partition) {
            return Err(format!(
                "{}: the four µ₁ steps' partitions differ",
                topo.name
            ));
        }
        let mut partition_ms: Vec<f64> = cases
            .iter()
            .map(|c| c.partition_time.as_secs_f64() * 1e3)
            .collect();
        partition_ms.sort_by(|a, b| a.total_cmp(b));
        let row = PartitionRow {
            topology: topo.name.clone(),
            k,
            edge_cut: cases[0].partition.edge_cut(&ga),
            partition_ms: (partition_ms[1] + partition_ms[2]) / 2.0,
            partition_ms_min: partition_ms[0],
        };
        eprintln!(
            "  {} partition: cut {}, median {:.1} ms, min {:.1} ms",
            topo.name, row.edge_cut, row.partition_ms, row.partition_ms_min
        );
        partitions.push(row);
        // The partition does not depend on the case: scr scrambles c1's.
        let scr = Mapping::from_partition(&cases[0].partition, &random_permutation(k, SEED), k);
        let mut inputs = vec![("scr", scr)];
        for (case, initial) in MapCase::all().into_iter().zip(cases) {
            inputs.push((case.id(), initial.mapping));
        }
        for (mapping_name, mapping) in &inputs {
            for diversity in [true, false] {
                let cell = format!("{} {mapping_name} div {diversity}", topo.name);
                let mut runs: Vec<(f64, RoundTelemetry)> = Vec::with_capacity(RUNS);
                let mut first: Option<TimerResult> = None;
                for _ in 0..RUNS {
                    let mut cfg = TimerConfig::new(NH, SEED);
                    if !diversity {
                        cfg = cfg.without_diversity();
                    }
                    let run = enhance(&ga, &topo.graph, &pcube, mapping, cfg)
                        .map_err(|e| format!("{cell}: {e}"))?;
                    let wall_ms = run.timer_time.as_secs_f64() * 1e3;
                    let result = run.result;
                    if let Some(field) =
                        first.as_ref().and_then(|r| trajectory_mismatch(r, &result))
                    {
                        return Err(format!(
                            "{cell}: a run's {field} differs from the first run's"
                        ));
                    }
                    runs.push((wall_ms, result.telemetry.clone()));
                    first.get_or_insert(result);
                }
                let r = first.expect("RUNS is at least 1");
                runs.sort_by(|a, b| a.0.total_cmp(&b.0));
                let wall_ms_min = runs[0].0;
                let (wall_ms, telemetry) = runs.swap_remove(RUNS / 2);
                eprintln!(
                    "  {cell}: Coco {} -> {} ({} kept), median {wall_ms:.0} ms",
                    r.initial_coco, r.final_coco, r.hierarchies_accepted
                );
                cells.push(QualityCell {
                    topology: topo.name.clone(),
                    mapping: mapping_name,
                    diversity,
                    initial_coco: r.initial_coco,
                    final_coco: r.final_coco,
                    accepted: r.hierarchies_accepted,
                    total_swaps: r.total_swaps,
                    wall_ms,
                    wall_ms_min,
                    telemetry,
                });
            }
        }
    }

    let json = format_quality_json(
        NETWORK,
        SCALE,
        ga.num_vertices(),
        NH,
        SEED,
        hardware_threads,
        &cells,
        &partitions,
    );
    std::fs::write(out_path, &json)
        .map_err(|e| format!("cannot write bench artifact {out_path:?}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}
