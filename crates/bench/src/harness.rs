//! The paper's evaluation grid (Section 7.1): every (network, topology,
//! case) cell runs the mapping pipeline once per repetition, and the cells
//! aggregate into Figure 5's quality quotients and Table 2's time quotients
//! exactly the way Section 7.1 describes.

use std::time::Duration;

use tie_mapd::pipeline::{enhance, map_initial};
use tie_mapd::MapCase;
use tie_timer::TimerConfig;
use tie_topology::{recognize_partial_cube, Topology};

use crate::stats::{aggregate_summaries, geometric_std_dev, Summary};
use crate::workloads::{NetworkSpec, Scale};

/// The partitioner's imbalance bound: the paper's 3 %.
pub const EPSILON: f64 = 0.03;

/// One repetition of a cell: the pipeline's two steps on one seed.
#[derive(Clone, Copy, Debug)]
pub struct Repetition {
    /// Coco of µ₁.
    pub initial_coco: u64,
    /// Coco of µ₂.
    pub final_coco: u64,
    /// Edge cut of µ₁.
    pub initial_cut: u64,
    /// Edge cut of µ₂.
    pub final_cut: u64,
    /// Hierarchy rounds TIMER kept.
    pub accepted: usize,
    /// Label swaps over all rounds.
    pub swaps: usize,
    /// Wall time of the partition call.
    pub partition_time: Duration,
    /// Wall time of building µ₁.
    pub mapping_time: Duration,
    /// Wall time of `Timer::enhance`.
    pub timer_time: Duration,
    /// `Coco(µ₂) / Coco(µ₁)`.
    pub coco_quotient: f64,
    /// `Cut(µ₂) / Cut(µ₁)`.
    pub cut_quotient: f64,
    /// TIMER's time over the baseline's: the DRB mapping time for c1 (the
    /// paper divides by SCOTCH's mapping time there), the partition time
    /// for c2–c4 (divided by KaHIP's time).
    pub time_quotient: f64,
}

/// One (network, topology, case) cell, its repetitions in seed order.
#[derive(Clone, Debug)]
pub struct CellObservations {
    /// Network name.
    pub network: String,
    /// Topology name.
    pub topology: String,
    /// Initial-mapping case.
    pub case: MapCase,
    /// One entry per repetition.
    pub reps: Vec<Repetition>,
}

/// Runs every (network, topology, case) cell `repetitions` times with
/// `num_hierarchies` TIMER rounds, network by network. Repetition `r` of a
/// network seeds the partition, µ₁ and TIMER with `31 · seed + r`. Each
/// topology is recognized once.
///
/// # Errors
/// The first topology that is not a partial cube, or the first failing
/// repetition, named by its cell.
pub fn run_sweep(
    networks: &[NetworkSpec],
    scale: Scale,
    topologies: &[Topology],
    repetitions: usize,
    num_hierarchies: usize,
) -> Result<Vec<CellObservations>, String> {
    let pcubes = topologies
        .iter()
        .map(|topo| recognize_partial_cube(&topo.graph).map_err(|e| format!("{}: {e}", topo.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cells = Vec::new();
    for spec in networks {
        let ga = spec.build(scale);
        for (topo, pcube) in topologies.iter().zip(&pcubes) {
            for case in MapCase::all() {
                let mut reps = Vec::with_capacity(repetitions);
                for rep in 0..repetitions {
                    let seed = spec.seed.wrapping_mul(31).wrapping_add(rep as u64);
                    let initial = map_initial(&ga, &topo.graph, case, EPSILON, seed);
                    let cfg = TimerConfig::new(num_hierarchies, seed);
                    let run =
                        enhance(&ga, &topo.graph, pcube, &initial.mapping, cfg).map_err(|e| {
                            format!("{} {} {} rep {rep}: {e}", spec.name, topo.name, case.id())
                        })?;
                    let baseline = match case {
                        MapCase::C1Drb => initial.mapping_time,
                        _ => initial.partition_time,
                    };
                    reps.push(Repetition {
                        initial_coco: run.initial.coco,
                        final_coco: run.enhanced.coco,
                        initial_cut: run.initial.edge_cut,
                        final_cut: run.enhanced.edge_cut,
                        accepted: run.result.hierarchies_accepted,
                        swaps: run.result.total_swaps,
                        partition_time: initial.partition_time,
                        mapping_time: initial.mapping_time,
                        timer_time: run.timer_time,
                        coco_quotient: run.coco_quotient(),
                        cut_quotient: run.cut_quotient(),
                        time_quotient: run.time_quotient(baseline),
                    });
                }
                cells.push(CellObservations {
                    network: spec.name.to_string(),
                    topology: topo.name.clone(),
                    case,
                    reps,
                });
            }
        }
    }
    Ok(cells)
}

/// Figure 5's entry for one (topology, case): the Coco and cut quotients'
/// min/mean/max over each network's repetitions, geometric means over the
/// networks.
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// Topology name (e.g. `grid16x16`).
    pub topology: String,
    /// Initial-mapping case.
    pub case: MapCase,
    /// Coco quotient after TIMER.
    pub coco: Summary,
    /// Geometric standard deviation of the networks' mean Coco quotients.
    pub coco_gsd: f64,
    /// Edge-cut quotient after TIMER.
    pub cut: Summary,
    /// Geometric standard deviation of the networks' mean cut quotients.
    pub cut_gsd: f64,
}

/// Table 2's entry for one (topology, case): the time quotient's
/// min/mean/max over each network's repetitions, geometric means over the
/// networks.
#[derive(Clone, Debug)]
pub struct TimingRow {
    /// Topology name.
    pub topology: String,
    /// Initial-mapping case.
    pub case: MapCase,
    /// TIMER time over the baseline time.
    pub time: Summary,
}

/// Per network of the (`topology`, `case`) cells, the min/mean/max of
/// `quotient` over its repetitions.
fn per_network(
    cells: &[CellObservations],
    topology: &str,
    case: MapCase,
    quotient: fn(&Repetition) -> f64,
) -> Vec<Summary> {
    cells
        .iter()
        .filter(|c| c.topology == topology && c.case == case)
        .map(|c| Summary::of(&c.reps.iter().map(quotient).collect::<Vec<_>>()))
        .collect()
}

/// Every (topology, case) pair in topology-major, paper case order.
fn row_keys(topologies: &[Topology]) -> impl Iterator<Item = (&str, MapCase)> {
    topologies
        .iter()
        .flat_map(|topo| MapCase::all().map(|case| (topo.name.as_str(), case)))
}

/// Aggregates the cells into Figure 5's rows, one per (topology, case) that
/// has cells.
pub fn quality_rows(cells: &[CellObservations], topologies: &[Topology]) -> Vec<QualityRow> {
    let gsd = |summaries: &[Summary]| {
        geometric_std_dev(&summaries.iter().map(|s| s.mean).collect::<Vec<_>>())
    };
    row_keys(topologies)
        .filter_map(|(topology, case)| {
            let coco = per_network(cells, topology, case, |r| r.coco_quotient);
            let cut = per_network(cells, topology, case, |r| r.cut_quotient);
            Some(QualityRow {
                topology: topology.to_string(),
                case,
                coco: aggregate_summaries(&coco)?,
                coco_gsd: gsd(&coco)?,
                cut: aggregate_summaries(&cut)?,
                cut_gsd: gsd(&cut)?,
            })
        })
        .collect()
}

/// Aggregates the cells into Table 2's rows, one per (topology, case) that
/// has cells.
pub fn timing_rows(cells: &[CellObservations], topologies: &[Topology]) -> Vec<TimingRow> {
    row_keys(topologies)
        .filter_map(|(topology, case)| {
            let time = per_network(cells, topology, case, |r| r.time_quotient);
            Some(TimingRow {
                topology: topology.to_string(),
                case,
                time: aggregate_summaries(&time)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::quick_networks;

    #[test]
    fn sweep_and_aggregation_smoke() {
        let networks = &quick_networks()[..2];
        let topologies = vec![Topology::grid2d(4, 4), Topology::hypercube(4)];
        let cells = run_sweep(networks, Scale::Tiny, &topologies, 2, 3).unwrap();
        assert_eq!(cells.len(), networks.len() * topologies.len() * 4);
        for cell in &cells {
            assert_eq!(cell.reps.len(), 2);
            for rep in &cell.reps {
                assert!(rep.final_coco <= rep.initial_coco, "{cell:?}");
                assert!(rep.coco_quotient > 0.0 && rep.coco_quotient <= 1.0);
                assert_eq!(
                    rep.coco_quotient,
                    rep.final_coco as f64 / rep.initial_coco as f64
                );
                assert_eq!(rep.accepted, 3, "every round is kept");
            }
        }
        // The same seed reruns identically: only the wall times may differ.
        let again = run_sweep(&networks[..1], Scale::Tiny, &topologies[..1], 2, 3).unwrap();
        for (a, b) in again.iter().zip(&cells) {
            assert_eq!(
                (&a.network, &a.topology, a.case),
                (&b.network, &b.topology, b.case)
            );
            for (ra, rb) in a.reps.iter().zip(&b.reps) {
                assert_eq!(
                    (ra.initial_coco, ra.final_coco, ra.final_cut, ra.swaps),
                    (rb.initial_coco, rb.final_coco, rb.final_cut, rb.swaps)
                );
            }
        }
        let rows = quality_rows(&cells, &topologies);
        assert_eq!(rows.len(), topologies.len() * 4);
        for row in &rows {
            assert!(row.coco.min <= row.coco.mean && row.coco.mean <= row.coco.max);
            assert!(row.coco.mean <= 1.0, "{}: {}", row.topology, row.coco.mean);
            assert!(row.coco_gsd >= 1.0 && row.cut_gsd >= 1.0);
        }
        assert_eq!(
            (rows[1].topology.as_str(), rows[1].case),
            ("grid4x4", MapCase::C2Identity)
        );
        let timing = timing_rows(&cells, &topologies);
        assert_eq!(timing.len(), rows.len());
        assert!(timing.iter().all(|t| t.time.min > 0.0));
        // A topology without cells yields no rows, not "quotient 1.0" ones.
        assert!(quality_rows(&cells, &[Topology::torus2d(4, 4)]).is_empty());
    }
}
