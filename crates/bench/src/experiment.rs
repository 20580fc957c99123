//! The experiment runner: reproduces one cell of the paper's evaluation
//! (one network × one topology × one experimental case).
//!
//! Each case follows the pipeline of Section 7.1:
//!
//! 1. partition the application graph into `|Vp|` blocks with ε = 3 %
//!    (KaHIP in the paper, `tie-partition` here),
//! 2. construct the initial mapping `µ₁` according to the case
//!    (c1 = DRB/SCOTCH-like, c2 = IDENTITY, c3 = GREEDYALLC,
//!    c4 = GREEDYMIN),
//! 3. run TIMER with `NH` hierarchies to obtain `µ₂`,
//! 4. report quality metrics for both mappings plus wall-clock times.

use std::time::{Duration, Instant};

use tie_fault::FaultHandle;
use tie_graph::Graph;
use tie_mapd::MapCase;
use tie_metrics::{evaluate, MappingQuality};
use tie_partition::{partition, PartitionConfig};
use tie_timer::{enhance_mapping, StopReason, TieError, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};
use tie_trace::TraceHandle;

/// Parameters shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Number of TIMER hierarchies (`NH`, 50 in the paper).
    pub num_hierarchies: usize,
    /// Load imbalance for the partitioner (3 % in the paper).
    pub epsilon: f64,
    /// Base seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Flight-recorder handle passed through to TIMER (disabled by
    /// default; recording never changes results).
    pub trace: TraceHandle,
    /// Optional wall-clock deadline for each TIMER run; expiry yields a
    /// best-so-far result with `StopReason::DeadlineExceeded`.
    pub deadline: Option<Duration>,
    /// Fault-injection handle passed through to TIMER (disabled by default;
    /// armed by the chaos suite and `TIE_FAULTS`-aware binaries).
    pub faults: FaultHandle,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            num_hierarchies: 50,
            epsilon: 0.03,
            seed: 1,
            trace: TraceHandle::off(),
            deadline: None,
            faults: FaultHandle::off(),
        }
    }
}

/// Result of one experiment run.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Quality of the initial mapping `µ₁`.
    pub initial: MappingQuality,
    /// Quality of the TIMER-enhanced mapping `µ₂`.
    pub enhanced: MappingQuality,
    /// Wall-clock time of the partitioning step.
    pub partition_time: Duration,
    /// Wall-clock time of constructing the initial mapping from the partition.
    pub initial_mapping_time: Duration,
    /// Wall-clock time of the TIMER enhancement.
    pub timer_time: Duration,
    /// Number of hierarchy rounds TIMER committed.
    pub hierarchies_accepted: usize,
    /// Why the TIMER run stopped (`Completed` unless a deadline cut it
    /// short).
    pub stop_reason: StopReason,
}

impl CaseResult {
    /// `Coco(µ₂) / Coco(µ₁)` — below 1.0 means TIMER improved the mapping.
    pub fn coco_quotient(&self) -> f64 {
        if self.initial.coco == 0 {
            1.0
        } else {
            self.enhanced.coco as f64 / self.initial.coco as f64
        }
    }

    /// `Cut(µ₂) / Cut(µ₁)`.
    pub fn cut_quotient(&self) -> f64 {
        if self.initial.edge_cut == 0 {
            1.0
        } else {
            self.enhanced.edge_cut as f64 / self.initial.edge_cut as f64
        }
    }

    /// Time quotient as reported in Table 2: TIMER time divided by the
    /// baseline time (partitioning for c2–c4, DRB mapping for c1 — the
    /// caller knows which baseline applies and passes it in).
    pub fn time_quotient(&self, baseline: Duration) -> f64 {
        if baseline.is_zero() {
            f64::INFINITY
        } else {
            self.timer_time.as_secs_f64() / baseline.as_secs_f64()
        }
    }
}

/// Runs one experimental case on one (network, topology) pair.
///
/// # Errors
/// Returns `TieError::Recognition` if the topology is not a partial cube
/// (all paper topologies are) and forwards any error from `Timer::enhance`
/// — a sweep over many rows can record the failure and move on instead of
/// aborting (see `run_sweep`).
pub fn run_case(
    ga: &Graph,
    topology: &Topology,
    case: MapCase,
    config: &ExperimentConfig,
) -> Result<CaseResult, TieError> {
    let gp = &topology.graph;
    let pcube = recognize_partial_cube(gp)?;

    // Step 1: topology-oblivious partition (KaHIP stand-in).
    let part_cfg = PartitionConfig {
        epsilon: config.epsilon,
        ..PartitionConfig::new(gp.num_vertices(), config.seed)
    };
    let t0 = Instant::now();
    let part = partition(ga, &part_cfg);
    let partition_time = t0.elapsed();

    // Step 2: initial mapping µ1.
    let t1 = Instant::now();
    let initial_mapping = case.initial_mapping(ga, &part, gp, config.seed);
    let initial_mapping_time = t1.elapsed();

    // Step 3: TIMER enhancement.
    let timer_cfg = TimerConfig {
        num_hierarchies: config.num_hierarchies,
        seed: config.seed,
        use_diversity: true,
        trace: config.trace.clone(),
        deadline: config.deadline,
        faults: config.faults.clone(),
        ..Default::default()
    };
    let t2 = Instant::now();
    let result = enhance_mapping(ga, &pcube, &initial_mapping, timer_cfg)?;
    let timer_time = t2.elapsed();

    // Step 4: metrics.
    let initial = evaluate(ga, gp, &initial_mapping);
    let enhanced = evaluate(ga, gp, &result.mapping);
    debug_assert_eq!(initial.coco, result.initial_coco);
    debug_assert_eq!(enhanced.coco, result.final_coco);

    Ok(CaseResult {
        initial,
        enhanced,
        partition_time,
        initial_mapping_time,
        timer_time,
        hierarchies_accepted: result.hierarchies_accepted,
        stop_reason: result.stop_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{quick_networks, Scale};

    #[test]
    fn all_cases_run_and_never_worsen_coco() {
        let spec = &quick_networks()[0];
        let ga = spec.build(Scale::Tiny);
        let topo = Topology::grid2d(4, 4);
        let config = ExperimentConfig {
            num_hierarchies: 5,
            ..Default::default()
        };
        for case in MapCase::all() {
            let r = run_case(&ga, &topo, case, &config).unwrap();
            // The driver ends a run with an error on any round that raises
            // Coco, so plain Coco never goes up.
            assert!(
                r.enhanced.coco <= r.initial.coco,
                "{}: TIMER must not worsen Coco ({} -> {})",
                case.name(),
                r.initial.coco,
                r.enhanced.coco
            );
            assert!(r.coco_quotient() <= 1.05);
            assert!(
                r.enhanced.imbalance <= 0.15,
                "imbalance {}",
                r.enhanced.imbalance
            );
        }
    }

    #[test]
    fn case_names_and_ids() {
        assert_eq!(MapCase::all().len(), 4);
        assert_eq!(MapCase::C1Drb.id(), "c1");
        assert!(MapCase::C4GreedyMin.name().contains("GREEDYMIN"));
    }

    #[test]
    fn time_quotient_handles_zero_baseline() {
        let spec = &quick_networks()[1];
        let ga = spec.build(Scale::Tiny);
        let topo = Topology::hypercube(4);
        let config = ExperimentConfig {
            num_hierarchies: 2,
            ..Default::default()
        };
        let r = run_case(&ga, &topo, MapCase::C2Identity, &config).unwrap();
        assert!(r.time_quotient(Duration::from_millis(100)).is_finite());
        assert!(r.time_quotient(Duration::ZERO).is_infinite());
    }
}
