//! `e2e_bench` — run one workload of the end-to-end benchmark.
//!
//! Usage (from the repository root):
//!   cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!       --workload NAME --seed N --seconds S --trace 0|1
//!   cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- --smoke
//!
//! Prints a provenance line and a metric table, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 1 when a request or output check failed, 2 on bad
//! arguments or a run that could not be carried out.

use std::path::PathBuf;
use std::process::ExitCode;

use tie_e2e_bench::host;
use tie_e2e_bench::run::{run, Options};
use tie_e2e_bench::workload::{find, Workload, WORKLOADS};
use tie_mapd::cli::{flag_value, has_flag, parsed_flag};

const USAGE: &str = "usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1 | --smoke\n\
     workloads: medium-oneshot, served-mix, speculative-small";

/// Working directory for generated inputs, the daemon socket and its trace,
/// relative to the checkout the benchmark runs from.
const WORK_DIR: &str = ".bench_run";

fn provenance(w: &Workload, opts: &Options) -> String {
    format!(
        "provenance: {{\"hardware_threads\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \
         \"commit\": \"{}\", \"seed\": {}, \"workload\": \"{}\", \"closed_loop\": true, \
         \"callers\": {}, \"connections\": {}, \"timer_threads\": {}, \"seconds\": {}, \
         \"trace\": {}, \"smoke\": {}}}",
        host::hardware_threads(),
        env!("E2E_BENCH_RUSTC"),
        env!("E2E_BENCH_PROFILE"),
        host::git_commit(),
        opts.seed,
        w.name,
        w.callers,
        if w.served { w.callers } else { 0 },
        w.threads,
        opts.seconds,
        opts.trace,
        opts.smoke
    )
}

/// Runs one workload and prints its report; `Ok(correct)`.
fn run_one(opts: &Options) -> Result<bool, String> {
    println!("{}", provenance(&opts.workload, opts));
    let outcome = run(opts)?;
    print!("{}", outcome.report());
    println!("{}", outcome.result_json());
    Ok(outcome.correct())
}

fn plan(args: &[String]) -> Result<Vec<Options>, String> {
    let seed = parsed_flag(args, "--seed", 1u64)?;
    let base = |workload, seconds, trace, smoke| Options {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        work_dir: PathBuf::from(WORK_DIR),
    };
    if has_flag(args, "--smoke") {
        return Ok(WORKLOADS
            .iter()
            .flat_map(|&w| [base(w, 0.5, false, true), base(w, 0.5, true, true)])
            .collect());
    }
    let name = flag_value(args, "--workload").ok_or("missing --workload")?;
    let workload = find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = parsed_flag(args, "--seconds", 10.0)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match flag_value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(vec![base(workload, seconds, trace, false)])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match plan(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for opts in &plan {
        match run_one(opts) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("e2e_bench: {}: {e}", opts.workload.name);
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
