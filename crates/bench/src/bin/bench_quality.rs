//! TIMER quality matrix: runs `Timer::enhance` on the medium PGPgiantcompo
//! stand-in for every topology × initial mapping × Div setting and writes
//! the machine-readable `BENCH_quality.json` artifact, so a change to the
//! algorithm shows its effect on every cell.
//!
//! Cells: grid8x8 and the five `Topology::paper_topologies()`, × the
//! initial mappings "scr" (`bench_timer`'s random block-to-PE bijection)
//! and c1–c4 (the pipeline's `map_initial` step), × Div on and Div off: 60
//! cells. Every cell runs the pipeline's `enhance` step with NH 40, TIMER
//! and partition seed 1, on one thread, and records initial and final Coco,
//! kept rounds, `total_swaps` and the wall-clock of `Timer::enhance`, the
//! median of `RUNS` runs. Everything but `wall_ms` is deterministic: the
//! harness exits 2, naming the cell, when a run's final Coco, kept rounds
//! or swaps differ from the first run's, and a regenerated file must
//! reproduce every other field of the committed one.
//!
//! Per topology the file also records the partition the four µ₁ steps
//! share: its edge cut and the median and min of the four `partition()`
//! wall-clocks (`partition_ms`, `partition_ms_min`; timed, so not
//! compared). The harness exits 2 when the four partitions differ.
//!
//! Usage:
//!   cargo run --release -p tie-bench --bin bench_quality -- [--out BENCH_quality.json]

use std::fmt::Write as _;
use std::process::ExitCode;

use tie_bench::workloads::{paper_networks, Scale};
use tie_graph::generators::random_permutation;
use tie_mapd::cli::try_flag_value;
use tie_mapd::pipeline::{enhance, map_initial};
use tie_mapd::MapCase;
use tie_mapping::Mapping;
use tie_timer::{TimerConfig, TimerResult};
use tie_topology::{recognize_partial_cube, Topology};

const NETWORK: &str = "PGPgiantcompo";
const NH: usize = 40;
const SEED: u64 = 1;
/// The partitioner's imbalance bound: the paper's 3 %.
const EPS: f64 = 0.03;
/// Runs per cell; `wall_ms` is their median, so one slow run does not set it.
const RUNS: usize = 3;

const USAGE: &str = "usage: bench_quality [--out PATH]";

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
    let out_path = try_flag_value(&args, "--out")?.unwrap_or("BENCH_quality.json");
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == NETWORK)
        .ok_or_else(|| format!("network {NETWORK:?} missing from the catalogue"))?;
    let ga = spec.build(Scale::Medium);
    eprintln!(
        "medium {NETWORK}: {} vertices, {} edges",
        ga.num_vertices(),
        ga.num_edges()
    );

    let mut topologies = vec![Topology::grid2d(8, 8)];
    topologies.extend(Topology::paper_topologies());
    let mut cells = String::new();
    let mut partitions = String::new();
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
        let (median_ms, min_ms) = ((partition_ms[1] + partition_ms[2]) / 2.0, partition_ms[0]);
        let edge_cut = cases[0].partition.edge_cut(&ga);
        eprintln!(
            "  {} partition: cut {edge_cut}, median {median_ms:.1} ms, min {min_ms:.1} ms",
            topo.name
        );
        if !partitions.is_empty() {
            partitions.push_str(",\n");
        }
        let _ = write!(
            partitions,
            "    {{\"topology\": \"{}\", \"k\": {k}, \"edge_cut\": {edge_cut}, \
             \"partition_ms\": {median_ms:.3}, \"partition_ms_min\": {min_ms:.3}}}",
            topo.name
        );
        // The partition does not depend on the case: scr scrambles c1's.
        let scr = Mapping::from_partition(&cases[0].partition, &random_permutation(k, SEED), k);
        let mut inputs = vec![("scr", scr)];
        for (case, initial) in MapCase::all().into_iter().zip(cases) {
            inputs.push((case.id(), initial.mapping));
        }
        for (mapping_name, mapping) in &inputs {
            for diversity in [true, false] {
                let cell = format!("{} {mapping_name} div {diversity}", topo.name);
                let key = |r: &TimerResult| (r.final_coco, r.hierarchies_accepted, r.total_swaps);
                let mut walls_ms = Vec::with_capacity(RUNS);
                let mut first: Option<TimerResult> = None;
                for _ in 0..RUNS {
                    let mut cfg = TimerConfig::new(NH, SEED);
                    if !diversity {
                        cfg = cfg.without_diversity();
                    }
                    let run = enhance(&ga, &topo.graph, &pcube, mapping, cfg)
                        .map_err(|e| format!("{cell}: {e}"))?;
                    walls_ms.push(run.timer_time.as_secs_f64() * 1e3);
                    let run = run.result;
                    if let Some(r) = first.as_ref().filter(|r| key(r) != key(&run)) {
                        return Err(format!(
                            "{cell}: a run's (final Coco, kept rounds, swaps) {:?} differs \
                             from the first run's {:?}",
                            key(&run),
                            key(r)
                        ));
                    }
                    first.get_or_insert(run);
                }
                let r = first.expect("RUNS is at least 1");
                walls_ms.sort_by(|a, b| a.total_cmp(b));
                let wall_ms = walls_ms[RUNS / 2];
                eprintln!(
                    "  {cell}: Coco {} -> {} ({} kept), median {wall_ms:.0} ms",
                    r.initial_coco, r.final_coco, r.hierarchies_accepted
                );
                if !cells.is_empty() {
                    cells.push_str(",\n");
                }
                let _ = write!(
                    cells,
                    "    {{\"topology\": \"{}\", \"mapping\": \"{mapping_name}\", \
                     \"diversity\": {diversity}, \"initial_coco\": {}, \"final_coco\": {}, \
                     \"accepted\": {}, \"total_swaps\": {}, \"wall_ms\": {wall_ms:.3}}}",
                    topo.name, r.initial_coco, r.final_coco, r.hierarchies_accepted, r.total_swaps
                );
            }
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"quality\",\n  \"network\": \"{NETWORK}\",\n  \"scale\": \"medium\",\n  \
         \"vertices\": {},\n  \"nh\": {NH},\n  \"seed\": {SEED},\n  \"threads\": 1,\n  \
         \"hardware_threads\": {hardware_threads},\n  \"cells\": [\n{cells}\n  ],\n  \
         \"partitions\": [\n{partitions}\n  ]\n}}\n",
        ga.num_vertices()
    );
    std::fs::write(out_path, &json)
        .map_err(|e| format!("cannot write bench artifact {out_path:?}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}
