//! TIMER perf-trajectory harness: times `Timer::enhance` per workload scale
//! × thread count and writes the machine-readable `BENCH_timer.json`
//! artifact, so the wall-clock/quality trajectory of the batched driver is
//! tracked across PRs. The batched driver is byte-identical to the
//! sequential one, so the trajectory (see `trajectory_mismatch`) must
//! agree across thread counts within a scale — the harness fails the run
//! when it does not.
//!
//! Usage:
//!   cargo run -p tie-bench --bin bench_timer --release -- \
//!       [--out BENCH_timer.json] [--nh 40] [--reps 1] [--quick] \
//!       [--trace-out trace.jsonl] [--trace-level gate|phase|debug]
//!
//! `--quick` restricts to the tiny scale with a small NH (for CI smoke runs).
//! `--reps N` repeats every cell N times and reports min/median wall-clock,
//! so single-shot noise cannot masquerade as a perf claim; the trajectory
//! must be identical across repetitions too, and the harness fails the run
//! naming the first field that differs. `--trace-out` streams
//! flight-recorder events (JSONL; `-` = human-readable stderr) from every
//! run; independent of the gate telemetry that is always embedded in the
//! JSON artifact.

use std::process::ExitCode;
use std::time::Instant;

use tie_bench::report::{format_bench_json, TimerBenchEntry};
use tie_bench::workloads::{paper_networks, Scale};
use tie_fault::FaultHandle;
use tie_graph::generators::random_permutation;
use tie_mapd::cli::{has_flag, parsed_flag, trace_from_flags, try_flag_value};
use tie_mapping::Mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{enhance_mapping, RoundTelemetry, TimerConfig, TimerResult};
use tie_topology::{recognize_partial_cube, Topology};

const NETWORK: &str = "PGPgiantcompo";
const SEED: u64 = 1;

const USAGE: &str = "usage: bench_timer [--out PATH] [--nh N] [--reps N] [--quick] \
     [--trace-out PATH|-] [--trace-level off|gate|phase|debug]  \
     (env: TIE_FAULTS=<fault spec> arms fault injection)";

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Medium => "medium",
    }
}

/// The first field of the deterministic trajectory on which `run` differs
/// from `reference`, or `None` when they agree: the final Coco, the kept
/// rounds, swap and repair totals, the arcs the hierarchies swept and
/// contracted, the gate telemetry
/// ([`RoundTelemetry::same_gate_trajectory`]) and the final labels.
fn trajectory_mismatch(reference: &TimerResult, run: &TimerResult) -> Option<&'static str> {
    if run.final_coco != reference.final_coco {
        Some("final_coco")
    } else if run.hierarchies_accepted != reference.hierarchies_accepted {
        Some("hierarchies_accepted")
    } else if run.total_swaps != reference.total_swaps {
        Some("total_swaps")
    } else if run.total_repaired != reference.total_repaired {
        Some("total_repaired")
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
            eprintln!("bench_timer: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_flag(&args, "--quick");
    let out_path = try_flag_value(&args, "--out")?.unwrap_or("BENCH_timer.json");
    let nh: usize = parsed_flag(&args, "--nh", if quick { 6 } else { 40 })?;
    let reps: usize = parsed_flag(&args, "--reps", 1)?;
    if reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    let scales: &[Scale] = if quick {
        &[Scale::Tiny]
    } else {
        &[Scale::Tiny, Scale::Small, Scale::Medium]
    };
    let thread_counts = [1usize, 2, 4];
    let trace = trace_from_flags(&args)?;
    let faults = FaultHandle::from_env().map_err(|e| format!("invalid TIE_FAULTS: {e}"))?;
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == NETWORK)
        .ok_or_else(|| format!("network {NETWORK:?} missing from the catalogue"))?;
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph)
        .map_err(|e| format!("grid8x8 failed partial-cube recognition: {e}"))?;

    let mut entries: Vec<TimerBenchEntry> = Vec::new();
    let mut telemetry: Vec<(String, RoundTelemetry)> = Vec::new();
    for &scale in scales {
        let ga = spec.build(scale);
        let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), SEED));
        // Scrambled block-to-PE bijection: plenty of room for improvement, so
        // the accept pattern (accept-heavy head, reject-heavy tail) matches
        // the realistic enhancement workload instead of a no-op run.
        let scramble = random_permutation(topo.num_pes(), SEED);
        let mapping = Mapping::from_partition(&part, &scramble, topo.num_pes());
        eprintln!(
            "scale {}: {} vertices, {} edges",
            scale_name(scale),
            ga.num_vertices(),
            ga.num_edges()
        );
        // The threads = 1 result every other thread count must reproduce.
        let mut reference: Option<TimerResult> = None;
        for &threads in &thread_counts {
            let oversubscribed = threads > hardware_threads;
            if oversubscribed {
                eprintln!(
                    "  warning: {threads} threads on {hardware_threads} hardware \
                     thread(s) — wall-clock for this row measures contention"
                );
            }
            // Repeat the cell: the trajectory is deterministic, so every
            // repetition must reproduce the first one exactly — only the
            // wall-clock varies, and min/median tame its noise.
            let mut walls_ms: Vec<f64> = Vec::with_capacity(reps);
            let mut result = None;
            let mut effective_batch = 0;
            for rep in 0..reps {
                let cfg = TimerConfig::new(nh, SEED)
                    .with_threads(threads)
                    .with_trace(trace.clone())
                    .with_faults(faults.clone());
                effective_batch = cfg.effective_batch();
                let start = Instant::now();
                let rep_result = enhance_mapping(&ga, &pcube, &mapping, cfg)
                    .map_err(|e| format!("enhance failed at scale {}: {e}", scale_name(scale)))?;
                walls_ms.push(start.elapsed().as_secs_f64() * 1e3);
                match &result {
                    None => result = Some(rep_result),
                    Some(first) => {
                        if let Some(field) = trajectory_mismatch(first, &rep_result) {
                            return Err(format!(
                                "scale {}, threads {threads}: rep {rep} diverged from rep 0 \
                                 ({field} differs)",
                                scale_name(scale)
                            ));
                        }
                    }
                }
            }
            let result = result.expect("reps >= 1 is enforced at parse time");
            walls_ms.sort_by(|a, b| a.total_cmp(b));
            let wall_ms_min = walls_ms[0];
            let wall_ms = if walls_ms.len() % 2 == 1 {
                walls_ms[walls_ms.len() / 2]
            } else {
                let hi = walls_ms.len() / 2;
                (walls_ms[hi - 1] + walls_ms[hi]) / 2.0
            };
            eprintln!(
                "  threads {threads}: median {wall_ms:.1} ms, min {wall_ms_min:.1} ms \
                 over {reps} rep(s), Coco {} -> {} ({} kept rounds{})",
                result.initial_coco,
                result.final_coco,
                result.hierarchies_accepted,
                if result.telemetry.worker_panics > 0 {
                    format!(
                        ", {} worker panic(s) absorbed",
                        result.telemetry.worker_panics
                    )
                } else {
                    String::new()
                }
            );
            // The whole trajectory, gate telemetry included, must be
            // byte-identical across thread counts; only the phase wall-clock
            // may differ.
            if let Some(first) = &reference {
                if let Some(field) = trajectory_mismatch(first, &result) {
                    return Err(format!(
                        "scale {}: threads {threads} diverged from the sequential \
                         trajectory ({field} differs)",
                        scale_name(scale)
                    ));
                }
            }
            entries.push(TimerBenchEntry {
                scale: scale_name(scale).to_string(),
                threads,
                batch: effective_batch,
                wall_ms,
                wall_ms_min,
                initial_coco: result.initial_coco,
                final_coco: result.final_coco,
                accepted: result.hierarchies_accepted,
                total_swaps: result.total_swaps,
                threads_oversubscribed: oversubscribed,
            });
            if reference.is_none() {
                reference = Some(result);
            }
        }
        // The embedded record is the threads = 1 run's, so the phase
        // breakdown reads as sequential time.
        if let Some(first) = reference {
            telemetry.push((scale_name(scale).to_string(), first.telemetry));
        }
    }

    let json = format_bench_json(
        nh,
        reps,
        NETWORK,
        &topo.name,
        hardware_threads,
        &entries,
        &telemetry,
    );
    std::fs::write(out_path, &json)
        .map_err(|e| format!("cannot write bench artifact {out_path:?}: {e}"))?;
    println!("wrote {out_path}");
    print!("{json}");
    Ok(())
}
