//! The paper's evaluation (Section 7) as one artifact: runs the 15 Table 1
//! stand-ins at small scale on the five `Topology::paper_topologies()` for
//! the cases c1–c4, five repetitions each at NH 50 and eps 0.03, and writes
//! `BENCH_paper.json`:
//!
//! * `networks`: Table 1's inventory, with each stand-in's size and seed;
//! * `cells`: per (network, topology, case), each repetition's initial and
//!   final Coco and cut, kept rounds, swaps and the partition, µ₁ and TIMER
//!   wall times (`partition_ms`, `mapping_ms`, `timer_ms`);
//! * `figure5`: per (topology, case), the Coco and cut quotients' min, mean
//!   and max over each network's repetitions, geometric means over the
//!   networks, with the geometric standard deviation of the networks'
//!   means (`coco_gsd`, `cut_gsd`);
//! * `table2`: per (topology, case), the time quotients the same way (TIMER
//!   over DRB's mapping time for c1, over the partition time for c2–c4).
//!
//! Every cell runs the pipeline `mapd` serves a request with
//! (`tie_mapd::pipeline`). Everything but the wall times, the time
//! quotients and `hardware_threads` is deterministic, and a regenerated
//! file must reproduce every other field of the committed one. A failing
//! repetition exits 2 and names its cell. Small scale is the smallest at
//! which every stand-in has more vertices than the 512-PE topologies have
//! PEs. The run takes about 10 minutes on 2 vCPUs.
//!
//! Usage:
//!   cargo run --release -p tie-bench --bin bench_paper -- [--out BENCH_paper.json]

use std::process::ExitCode;

use tie_bench::harness::run_sweep;
use tie_bench::report::format_paper_json;
use tie_bench::workloads::{paper_networks, Scale};
use tie_mapd::cli::{check_args, try_flag_value};
use tie_topology::Topology;

const SCALE: Scale = Scale::Small;
/// The paper's repetitions per cell.
const REPS: usize = 5;
/// The paper's TIMER hierarchies per run.
const NH: usize = 50;

const USAGE: &str = "usage: bench_paper [--out PATH]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_paper: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    // Anything but `--out PATH` is refused: a stray `--help` must not start
    // the grid and overwrite the artifact at the default path.
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_args(&args, &[], &["--out"])?;
    let out_path = try_flag_value(&args, "--out")?.unwrap_or("BENCH_paper.json");
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let networks = paper_networks();
    let topologies = Topology::paper_topologies();
    let mut inventory = Vec::with_capacity(networks.len());
    let mut cells = Vec::new();
    for spec in &networks {
        let ga = spec.build(SCALE);
        eprintln!(
            "{}: {} vertices, {} edges",
            spec.name,
            ga.num_vertices(),
            ga.num_edges()
        );
        inventory.push((spec, ga.num_vertices(), ga.num_edges()));
        cells.extend(run_sweep(
            std::slice::from_ref(spec),
            SCALE,
            &topologies,
            REPS,
            NH,
        )?);
    }
    let json = format_paper_json(
        SCALE,
        REPS,
        NH,
        hardware_threads,
        &inventory,
        &cells,
        &topologies,
    );
    std::fs::write(out_path, &json)
        .map_err(|e| format!("cannot write bench artifact {out_path:?}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}
