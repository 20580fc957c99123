//! Regenerates Table 2: running-time quotients of TIMER relative to the
//! mapping baseline (DRB for c1) and to the partitioner (for c2–c4), per
//! processor topology.
//!
//! Usage: `cargo run -p tie-bench --bin table2 --release -- [--full] [--scale ...] [--reps N] [--nh N]`
//! By default a reduced sweep (quick networks, 64-PE topologies) is run so the
//! binary finishes in minutes; pass `--paper-topologies` for the 256/512-PE
//! machines of the paper and `--full` for the paper's NH/repetition counts.

use std::process::ExitCode;

use tie_bench::harness::{run_sweep, timing_rows, USAGE};
use tie_bench::report::format_timing_table;
use tie_bench::{paper_networks, parse_options, quick_networks};
use tie_mapd::MapCase;
use tie_topology::Topology;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("table2: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let full_networks = args.iter().any(|a| a == "--full" || a == "--all-networks");
    let paper_topos = args
        .iter()
        .any(|a| a == "--full" || a == "--paper-topologies");

    let networks = if full_networks {
        paper_networks()
    } else {
        quick_networks()
    };
    let topologies = if paper_topos {
        Topology::paper_topologies()
    } else {
        Topology::small_topologies()
    };

    println!(
        "Table 2: running-time quotients (scale {:?}, reps {}, NH {})\n",
        options.scale, options.repetitions, options.num_hierarchies
    );
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
        per_case.push((case, cells));
    }
    let rows = timing_rows(&per_case, &topologies);
    print!("{}", format_timing_table(&rows));
    ExitCode::SUCCESS
}
