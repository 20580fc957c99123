//! Runs the complete (reduced-scale) evaluation in one go: Table 1, Table 3,
//! Figures 5a–5d and Table 2.
//!
//! Usage: `cargo run -p tie-bench --bin run_all --release -- [--scale tiny|small|medium] [--reps N] [--nh N] [--deadline-ms N] [--out PATH]`
//!
//! A repetition that fails (fault injection, malformed input, a panicking
//! round) does not abort the run: the sweep keeps going, the failure is
//! reported on stderr, and `--out PATH` writes a JSON record with per-row
//! errors.

use std::process::ExitCode;
use std::time::Instant;

use tie_bench::harness::{quality_rows, run_sweep, timing_rows, USAGE};
use tie_bench::report::{
    format_inventory, format_partition_times, format_quality_table, format_sweep_json,
    format_timing_table,
};
use tie_bench::{parse_options, quick_networks};
use tie_mapd::cli::try_flag_value;
use tie_mapd::MapCase;
use tie_partition::{partition, PartitionConfig};
use tie_topology::Topology;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--out` is run_all-specific; parse_options ignores flags it does not
    // know so binaries can add their own.
    let (options, out_path) =
        match parse_options(&args).and_then(|o| Ok((o, try_flag_value(&args, "--out")?))) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("run_all: {e}");
                eprintln!("{USAGE} [--out PATH]");
                return ExitCode::from(2);
            }
        };
    let networks = quick_networks();
    let topologies = Topology::small_topologies();

    println!("== TIMER reproduction: reduced-scale evaluation ==");
    println!(
        "scale {:?}, {} networks, {} topologies, reps {}, NH {}, eps {}\n",
        options.scale,
        networks.len(),
        topologies.len(),
        options.repetitions,
        options.num_hierarchies,
        options.epsilon,
    );

    // Table 1 (reduced).
    println!("--- Table 1: benchmark networks ---");
    let rows: Vec<(String, usize, usize, String)> = networks
        .iter()
        .map(|spec| {
            let g = spec.build(options.scale);
            (
                spec.name.to_string(),
                g.num_vertices(),
                g.num_edges(),
                spec.description.to_string(),
            )
        })
        .collect();
    println!("{}", format_inventory(&rows));

    // Table 3 (reduced): partition times for k = 64 and k = 128 at this scale.
    println!("--- Table 3 (scaled): partitioner running times ---");
    let mut part_rows = Vec::new();
    for spec in &networks {
        let g = spec.build(options.scale);
        let mut times = [0.0f64; 2];
        for (slot, k) in [(0usize, 64usize), (1, 128)] {
            let cfg = PartitionConfig {
                epsilon: options.epsilon,
                ..PartitionConfig::new(k, spec.seed)
            };
            let t = Instant::now();
            let _ = partition(&g, &cfg);
            times[slot] = t.elapsed().as_secs_f64();
        }
        part_rows.push((spec.name.to_string(), times[0], times[1]));
    }
    println!("{}", format_partition_times(&part_rows, ("k=64", "k=128")));

    // Figures 5a-5d and Table 2. Failing repetitions are collected per cell
    // and surfaced below instead of aborting the whole evaluation.
    let mut per_case = Vec::new();
    for case in MapCase::all() {
        eprintln!("running case {} ...", case.name());
        let cells = run_sweep(&networks, &topologies, case, &options);
        for cell in &cells {
            for err in &cell.errors {
                eprintln!(
                    "warning: {} on {} / {}: {err}",
                    case.id(),
                    cell.network,
                    cell.topology
                );
            }
        }
        let rows = quality_rows(&cells, &topologies);
        println!("--- Figure 5 ({}) ---", case.name());
        println!("{}", format_quality_table(case.id(), &rows));
        per_case.push((case, cells));
    }
    println!("--- Table 2: running-time quotients ---");
    println!(
        "{}",
        format_timing_table(&timing_rows(&per_case, &topologies))
    );

    let total_errors: usize = per_case
        .iter()
        .flat_map(|(_, cells)| cells.iter())
        .map(|c| c.errors.len())
        .sum();
    if total_errors > 0 {
        eprintln!("run_all: {total_errors} repetition(s) failed; see warnings above");
    }
    if let Some(path) = out_path {
        let json = format_sweep_json(&per_case);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("run_all: cannot write {path:?}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote sweep record to {path}");
    }
    ExitCode::SUCCESS
}
