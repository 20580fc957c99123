//! High-level drivers shared by the report binaries: run a whole
//! (networks × topologies × repetitions) sweep for one experimental case and
//! aggregate the results exactly the way Section 7.1 describes.

use std::time::Duration;

use tie_fault::FaultHandle;
use tie_mapd::cli::{has_flag, parsed_flag, trace_from_flags, try_flag_value};
use tie_mapd::pipeline::{enhance, map_initial};
use tie_mapd::MapCase;
use tie_timer::{TieError, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};
use tie_trace::TraceHandle;

use crate::report::{QualityRow, TimingRow};
use crate::stats::{aggregate_summaries, Summary};
use crate::workloads::{NetworkSpec, Scale};

/// Options for a sweep (shared by the binaries; parsed from the CLI).
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Scale of the synthetic networks.
    pub scale: Scale,
    /// Number of repetitions per cell (5 in the paper).
    pub repetitions: usize,
    /// TIMER hierarchies per run (50 in the paper).
    pub num_hierarchies: usize,
    /// Partitioner imbalance (3 % in the paper).
    pub epsilon: f64,
    /// Flight-recorder handle (from `--trace-out`/`--trace-level`; disabled
    /// by default).
    pub trace: TraceHandle,
    /// Optional wall-clock deadline per TIMER run (from `--deadline-ms`).
    pub deadline: Option<Duration>,
    /// Fault-injection handle (from the `TIE_FAULTS` environment variable;
    /// disabled by default).
    pub faults: FaultHandle,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            scale: Scale::Small,
            repetitions: 3,
            num_hierarchies: 10,
            epsilon: 0.03,
            trace: TraceHandle::off(),
            deadline: None,
            faults: FaultHandle::off(),
        }
    }
}

/// Per-network, per-topology raw observations of one case.
#[derive(Clone, Debug, Default)]
pub struct CellObservations {
    /// Network name.
    pub network: String,
    /// Topology name.
    pub topology: String,
    /// Coco quotients (enhanced / initial), one per repetition.
    pub coco_quotients: Vec<f64>,
    /// Cut quotients, one per repetition.
    pub cut_quotients: Vec<f64>,
    /// Timer time / baseline time quotients, one per repetition.
    pub time_quotients: Vec<f64>,
    /// Partitioning times in seconds, one per repetition.
    pub partition_seconds: Vec<f64>,
    /// Errors of repetitions that failed (one entry per failed repetition;
    /// the sweep keeps going past them instead of aborting the run).
    pub errors: Vec<String>,
}

/// Runs one case over all (network, topology) pairs and returns raw
/// observations. Each topology is recognized once; a topology that is not
/// a partial cube fails every repetition of its cells.
pub fn run_sweep(
    networks: &[NetworkSpec],
    topologies: &[Topology],
    case: MapCase,
    options: &SweepOptions,
) -> Vec<CellObservations> {
    let pcubes: Vec<_> = topologies
        .iter()
        .map(|topo| recognize_partial_cube(&topo.graph))
        .collect();
    let mut cells = Vec::new();
    for spec in networks {
        let ga = spec.build(options.scale);
        for (topo, pcube) in topologies.iter().zip(&pcubes) {
            let mut cell = CellObservations {
                network: spec.name.to_string(),
                topology: topo.name.clone(),
                ..Default::default()
            };
            for rep in 0..options.repetitions {
                let seed = spec.seed.wrapping_mul(31).wrapping_add(rep as u64);
                let cfg = TimerConfig {
                    trace: options.trace.clone(),
                    deadline: options.deadline,
                    faults: options.faults.clone(),
                    ..TimerConfig::new(options.num_hierarchies, seed)
                };
                let run = match pcube {
                    Ok(pcube) => {
                        let initial = map_initial(&ga, &topo.graph, case, options.epsilon, seed);
                        enhance(&ga, &topo.graph, pcube, &initial.mapping, cfg)
                            .map(|r| (initial, r))
                    }
                    Err(e) => Err(TieError::from(e.clone())),
                };
                // A failing repetition is recorded and skipped; the rest of
                // the sweep still runs so one bad row cannot sink a whole
                // overnight campaign.
                let (initial, result) = match run {
                    Ok(r) => r,
                    Err(e) => {
                        cell.errors.push(format!("rep {rep}: {e}"));
                        continue;
                    }
                };
                cell.coco_quotients.push(result.coco_quotient());
                cell.cut_quotients.push(result.cut_quotient());
                // Baseline for the time quotient: the DRB mapping time for c1
                // (the paper divides by SCOTCH's mapping time there), the
                // partitioning time for c2-c4 (divided by KaHIP's time).
                let baseline: Duration = match case {
                    MapCase::C1Drb => initial.mapping_time,
                    _ => initial.partition_time,
                };
                cell.time_quotients.push(result.time_quotient(baseline));
                cell.partition_seconds
                    .push(initial.partition_time.as_secs_f64());
            }
            cells.push(cell);
        }
    }
    cells
}

/// Aggregates raw observations into Figure-5-style quality rows: per
/// topology, the geometric mean over networks of the min/mean/max quotients.
///
/// Topologies for which the sweep produced no observations yield no row
/// (rather than a fabricated "quotient 1.0" row that would read as "no
/// change" in the reports).
pub fn quality_rows(cells: &[CellObservations], topologies: &[Topology]) -> Vec<QualityRow> {
    topologies
        .iter()
        .filter_map(|topo| {
            // Cells whose repetitions all failed carry no observations;
            // `Summary::of` rejects empty slices, so skip them here.
            let per_network_coco: Vec<Summary> = cells
                .iter()
                .filter(|c| c.topology == topo.name && !c.coco_quotients.is_empty())
                .map(|c| Summary::of(&c.coco_quotients))
                .collect();
            let per_network_cut: Vec<Summary> = cells
                .iter()
                .filter(|c| c.topology == topo.name && !c.cut_quotients.is_empty())
                .map(|c| Summary::of(&c.cut_quotients))
                .collect();
            Some(QualityRow {
                topology: topo.name.clone(),
                coco: aggregate_summaries(&per_network_coco)?,
                cut: aggregate_summaries(&per_network_cut)?,
            })
        })
        .collect()
}

/// Aggregates raw observations of several cases into Table-2-style timing
/// rows.
pub fn timing_rows(
    per_case: &[(MapCase, Vec<CellObservations>)],
    topologies: &[Topology],
) -> Vec<TimingRow> {
    topologies
        .iter()
        .map(|topo| {
            let mut case_entries = Vec::new();
            for (case, cells) in per_case {
                let per_network: Vec<Summary> = cells
                    .iter()
                    .filter(|c| c.topology == topo.name && !c.time_quotients.is_empty())
                    .map(|c| Summary::of(&c.time_quotients))
                    .collect();
                // Cases with no observations for this topology are omitted
                // from the row instead of showing up as "no change".
                if let Some(agg) = aggregate_summaries(&per_network) {
                    case_entries.push((case.id().to_string(), agg));
                }
            }
            TimingRow {
                topology: topo.name.clone(),
                per_case: case_entries,
            }
        })
        .collect()
}

/// One-line usage text shared by the report binaries; printed alongside the
/// error when [`parse_options`] rejects a flag.
pub const USAGE: &str = "options: [--scale tiny|small|medium] [--reps N] [--nh N] \
     [--full] [--deadline-ms N] \
     [--trace-out PATH|-] [--trace-level off|gate|phase|debug]  \
     (env: TIE_FAULTS=<fault spec> arms fault injection)";

/// Parses the flags shared by the binaries (`--scale`, `--reps`, `--nh`,
/// `--full`, `--deadline-ms`, `--trace-out`, `--trace-level`) with the `tie_mapd::cli` helpers. Unknown flags are
/// ignored so binaries can add their own; a known flag with a *missing or
/// malformed* value is an `Err` with a one-line explanation — callers print
/// it with [`USAGE`] and exit instead of panicking mid-parse.
///
/// `--full` selects the paper's setting (5 repetitions, NH = 50, medium
/// scale); explicit `--reps`/`--nh`/`--scale` override it.
/// `--trace-out <path>` enables the flight recorder and writes JSONL events
/// to `<path>` (`-` streams human-readable lines to stderr instead).
/// `--trace-level <gate|phase|debug>` controls verbosity; it defaults to
/// `phase` (see [`trace_from_flags`]).
/// `--deadline-ms <n>` bounds each TIMER run by a wall-clock deadline.
/// The `TIE_FAULTS` environment variable arms deterministic fault
/// injection (see the `tie-fault` crate for the grammar).
pub fn parse_options(args: &[String]) -> Result<SweepOptions, String> {
    let mut opts = SweepOptions::default();
    if has_flag(args, "--full") {
        opts.repetitions = 5;
        opts.num_hierarchies = 50;
        opts.scale = Scale::Medium;
    }
    if let Some(scale) = try_flag_value(args, "--scale")? {
        opts.scale = match scale {
            "tiny" => Scale::Tiny,
            "small" => Scale::Small,
            "medium" => Scale::Medium,
            other => return Err(format!("unknown scale {other:?} (use tiny|small|medium)")),
        };
    }
    opts.repetitions = parsed_flag(args, "--reps", opts.repetitions)?;
    opts.num_hierarchies = parsed_flag(args, "--nh", opts.num_hierarchies)?;
    if let Some(ms) = try_flag_value(args, "--deadline-ms")? {
        match ms.parse() {
            Ok(ms) if ms > 0 => opts.deadline = Some(Duration::from_millis(ms)),
            _ => return Err(format!("--deadline-ms needs a positive number, got {ms:?}")),
        }
    }
    opts.trace = trace_from_flags(args)?;
    opts.faults = FaultHandle::from_env().map_err(|e| format!("invalid TIE_FAULTS: {e}"))?;
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::quick_networks;

    #[test]
    fn sweep_and_aggregation_smoke() {
        let networks = &quick_networks()[..2];
        let topologies = vec![Topology::grid2d(4, 4), Topology::hypercube(4)];
        let options = SweepOptions {
            scale: Scale::Tiny,
            repetitions: 2,
            num_hierarchies: 3,
            ..Default::default()
        };
        let cells = run_sweep(networks, &topologies, MapCase::C2Identity, &options);
        assert_eq!(cells.len(), networks.len() * topologies.len());
        for cell in &cells {
            assert!(cell.errors.is_empty(), "{:?}", cell.errors);
            assert_eq!(cell.coco_quotients.len(), 2);
            assert!(cell.coco_quotients.iter().all(|&q| q > 0.0 && q <= 1.0));
        }
        let rows = quality_rows(&cells, &topologies);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.coco.mean <= 1.0, "{}: {}", row.topology, row.coco.mean);
        }
        let timing = timing_rows(&[(MapCase::C2Identity, cells)], &topologies);
        assert_eq!(timing.len(), 2);
        assert_eq!(timing[0].per_case.len(), 1);
    }

    #[test]
    fn parse_options_flags() {
        let args: Vec<String> = ["--scale", "tiny", "--reps", "7", "--nh", "12"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.scale, Scale::Tiny);
        assert_eq!(o.repetitions, 7);
        assert_eq!(o.num_hierarchies, 12);
        assert_eq!(o.deadline, None);
        let full = parse_options(&["--full".to_string()]).unwrap();
        assert_eq!(full.repetitions, 5);
        assert_eq!(full.num_hierarchies, 50);
    }

    #[test]
    fn parse_options_rejects_malformed_values() {
        let cases: &[&[&str]] = &[
            &["--reps", "-3"],
            &["--reps", "many"],
            &["--nh", "1.5"],
            &["--scale", "huge"],
            &["--deadline-ms", "soon"],
            &["--deadline-ms", "0"],
            &["--trace-level", "loud"],
            &["--nh"],
        ];
        for case in cases {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            let err = parse_options(&args).unwrap_err();
            assert!(
                case.iter().any(|part| err.contains(part)),
                "error for {case:?} should name the flag or value: {err}"
            );
        }
    }

    #[test]
    fn parse_options_accepts_deadline() {
        let args: Vec<String> = ["--deadline-ms", "250"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn quality_rows_skip_cells_with_no_observations() {
        let topologies = vec![Topology::grid2d(4, 4)];
        let cells = vec![CellObservations {
            network: "n".to_string(),
            topology: topologies[0].name.clone(),
            coco_quotients: Vec::new(),
            cut_quotients: Vec::new(),
            time_quotients: Vec::new(),
            partition_seconds: Vec::new(),
            errors: vec!["rep 0: injected".to_string()],
        }];
        // Every repetition failed: no fabricated "quotient 1.0" rows.
        assert!(quality_rows(&cells, &topologies).is_empty());
        let timing = timing_rows(&[(MapCase::C2Identity, cells)], &topologies);
        assert_eq!(timing.len(), 1);
        assert!(timing[0].per_case.is_empty());
    }
}
