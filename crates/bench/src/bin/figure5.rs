//! Regenerates Figures 5a–5d: relative Coco and edge cut after TIMER,
//! per processor topology, for the experimental cases c1–c4.
//!
//! Usage:
//! `cargo run -p tie-bench --bin figure5 --release -- [--case c1|c2|c3|c4] [--full] [--scale ...] [--reps N] [--nh N]`
//!
//! Without `--case`, all four cases are run (Figures 5a, 5b, 5c and 5d).

use std::process::ExitCode;

use tie_bench::harness::{quality_rows, run_sweep, USAGE};
use tie_bench::report::format_quality_table;
use tie_bench::{paper_networks, parse_options, quick_networks};
use tie_mapd::cli::try_flag_value;
use tie_mapd::MapCase;
use tie_topology::Topology;

/// The case selected by `--case`, if any.
fn parse_case(args: &[String]) -> Result<Option<MapCase>, String> {
    try_flag_value(args, "--case")?
        .map(|c| MapCase::parse(c).ok_or_else(|| format!("unknown case {c:?} (use c1|c2|c3|c4)")))
        .transpose()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, selected_case) =
        match parse_options(&args).and_then(|o| Ok((o, parse_case(&args)?))) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("figure5: {e}");
                eprintln!("{USAGE} [--case c1|c2|c3|c4]");
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

    let cases: Vec<MapCase> = match selected_case {
        Some(c) => vec![c],
        None => MapCase::all().to_vec(),
    };
    let figure_letter = |case: MapCase| match case {
        MapCase::C1Drb => "5a",
        MapCase::C2Identity => "5b",
        MapCase::C3GreedyAllC => "5c",
        MapCase::C4GreedyMin => "5d",
    };

    println!(
        "Figure 5: quality results (scale {:?}, reps {}, NH {}, {} networks, {} topologies)\n",
        options.scale,
        options.repetitions,
        options.num_hierarchies,
        networks.len(),
        topologies.len()
    );
    for case in cases {
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
        println!(
            "--- Figure {} — initial mapping: {} ---",
            figure_letter(case),
            case.name()
        );
        println!("{}", format_quality_table(case.id(), &rows));
    }
    ExitCode::SUCCESS
}
