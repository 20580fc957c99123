//! The mapping pipeline of Section 7.1, from a known topology on: partition
//! `Ga` into one block per PE, build the initial mapping µ₁ of one of the
//! cases c1–c4, enhance it with TIMER into µ₂, and evaluate both.
//!
//! The pipeline is two steps with the seam at µ₁:
//!
//! 1. [`map_initial`] partitions and builds µ₁;
//! 2. [`enhance`] runs `Timer::enhance` on µ₁ and evaluates µ₁ and µ₂.
//!
//! [`crate::Service::execute`] checks the request deadline between the two
//! steps. The sweep harness, both bench binaries, the paper-claim tests and
//! the examples call the same two steps, so every caller runs one pipeline.

use std::time::{Duration, Instant};

use tie_graph::Graph;
use tie_mapping::{drb::drb_mapping, greedy, identity_mapping, Mapping};
use tie_metrics::{evaluate, MappingQuality};
use tie_partition::{partition, Partition, PartitionConfig};
use tie_timer::{TieError, Timer, TimerConfig, TimerResult};
use tie_topology::PartialCubeLabeling;

/// The four experimental cases of Section 7.1, selecting how the initial
/// mapping µ₁ is derived from the partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapCase {
    /// c1: dual recursive bisection (SCOTCH stand-in).
    C1Drb,
    /// c2: IDENTITY block-to-PE bijection on top of the partition.
    C2Identity,
    /// c3: GREEDYALLC construction.
    C3GreedyAllC,
    /// c4: GREEDYMIN construction (LibTopoMap-style construct method).
    C4GreedyMin,
}

impl MapCase {
    /// All four cases in paper order.
    pub fn all() -> [MapCase; 4] {
        [
            MapCase::C1Drb,
            MapCase::C2Identity,
            MapCase::C3GreedyAllC,
            MapCase::C4GreedyMin,
        ]
    }

    /// Parses the wire/CLI id (`c1`..`c4`).
    pub fn parse(s: &str) -> Option<MapCase> {
        MapCase::all().into_iter().find(|c| c.id() == s)
    }

    /// The stable id.
    pub fn id(self) -> &'static str {
        match self {
            MapCase::C1Drb => "c1",
            MapCase::C2Identity => "c2",
            MapCase::C3GreedyAllC => "c3",
            MapCase::C4GreedyMin => "c4",
        }
    }

    /// Label used in reports (matches the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            MapCase::C1Drb => "c1 (SCOTCH-like DRB)",
            MapCase::C2Identity => "c2 (IDENTITY)",
            MapCase::C3GreedyAllC => "c3 (GREEDYALLC)",
            MapCase::C4GreedyMin => "c4 (GREEDYMIN)",
        }
    }

    /// Builds this case's initial mapping µ₁ of `ga` onto `gp` from
    /// `partition` (`seed` drives DRB's randomized bisections).
    pub fn initial_mapping(
        self,
        ga: &Graph,
        partition: &Partition,
        gp: &Graph,
        seed: u64,
    ) -> Mapping {
        match self {
            MapCase::C1Drb => drb_mapping(ga, partition, gp, seed),
            MapCase::C2Identity => identity_mapping(partition, gp.num_vertices()),
            MapCase::C3GreedyAllC => greedy::greedy_allc_mapping(ga, partition, gp),
            MapCase::C4GreedyMin => greedy::greedy_min_mapping(ga, partition, gp),
        }
    }
}

/// The first step's output: the partition and µ₁ built from it.
#[derive(Clone, Debug)]
pub struct Initial {
    /// `Ga` partitioned into one block per PE of `Gp`.
    pub partition: Partition,
    /// The initial mapping µ₁.
    pub mapping: Mapping,
    /// Wall time of the partition call.
    pub partition_time: Duration,
    /// Wall time of [`MapCase::initial_mapping`].
    pub mapping_time: Duration,
}

/// Partitions `ga` into `|Vp|` blocks with imbalance `eps` and builds
/// `case`'s initial mapping µ₁ onto `gp` from them; `seed` drives both.
pub fn map_initial(ga: &Graph, gp: &Graph, case: MapCase, eps: f64, seed: u64) -> Initial {
    let cfg = PartitionConfig {
        epsilon: eps,
        ..PartitionConfig::new(gp.num_vertices(), seed)
    };
    let start = Instant::now();
    let partition = partition(ga, &cfg);
    let partition_time = start.elapsed();
    let start = Instant::now();
    let mapping = case.initial_mapping(ga, &partition, gp, seed);
    let mapping_time = start.elapsed();
    Initial {
        partition,
        mapping,
        partition_time,
        mapping_time,
    }
}

/// The second step's output: TIMER's result and the quality of µ₁ and µ₂.
#[derive(Clone, Debug)]
pub struct Enhanced {
    /// The TIMER run; its `mapping` is µ₂.
    pub result: TimerResult,
    /// Quality of µ₁.
    pub initial: MappingQuality,
    /// Quality of µ₂.
    pub enhanced: MappingQuality,
    /// Wall time of `Timer::enhance` alone.
    pub timer_time: Duration,
}

impl Enhanced {
    /// `Coco(µ₂) / Coco(µ₁)`: below 1.0 means TIMER improved the mapping.
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
    /// baseline time (partitioning for c2–c4, DRB mapping for c1; the
    /// caller knows which baseline applies and passes it in).
    pub fn time_quotient(&self, baseline: Duration) -> f64 {
        if baseline.is_zero() {
            f64::INFINITY
        } else {
            self.timer_time.as_secs_f64() / baseline.as_secs_f64()
        }
    }
}

/// Enhances µ₁ (`initial`, a mapping of `ga` onto `gp`) with TIMER on
/// `gp`'s partial-cube labeling `pcube`, then evaluates µ₁ and µ₂ on `gp`.
///
/// # Errors
/// Whatever `Timer::enhance` returns, and [`TieError::InvariantViolated`]
/// when the Coco that `evaluate` reads for µ₁ or µ₂ on `gp` differs from
/// the one TIMER computed from the labels, as when `pcube` labels another
/// topology than `gp`.
pub fn enhance(
    ga: &Graph,
    gp: &Graph,
    pcube: &PartialCubeLabeling,
    initial: &Mapping,
    cfg: TimerConfig,
) -> Result<Enhanced, TieError> {
    let start = Instant::now();
    let result = Timer::new(cfg).enhance(ga, pcube, initial)?;
    let timer_time = start.elapsed();
    let before = evaluate(ga, gp, initial);
    let after = evaluate(ga, gp, &result.mapping);
    for (name, evaluated, labelled) in [
        ("µ₁", before.coco, result.initial_coco),
        ("µ₂", after.coco, result.final_coco),
    ] {
        if evaluated != labelled {
            return Err(TieError::InvariantViolated(format!(
                "Coco of {name} is {evaluated} on the processor graph \
                 but {labelled} on its labels"
            )));
        }
    }
    Ok(Enhanced {
        result,
        initial: before,
        enhanced: after,
        timer_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;
    use tie_topology::{recognize_partial_cube, Topology};

    fn run(ga: &Graph, topo: &Topology, case: MapCase, nh: usize) -> (Initial, Enhanced) {
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let initial = map_initial(ga, &topo.graph, case, 0.03, 1);
        let cfg = TimerConfig::new(nh, 1);
        let enhanced = enhance(ga, &topo.graph, &pcube, &initial.mapping, cfg).unwrap();
        (initial, enhanced)
    }

    #[test]
    fn all_cases_run_and_never_worsen_coco() {
        let ga = generators::barabasi_albert(300, 3, 1);
        let topo = Topology::grid2d(4, 4);
        for case in MapCase::all() {
            let (initial, r) = run(&ga, &topo, case, 5);
            assert_eq!(initial.partition.k(), 16, "{}", case.name());
            // The driver ends a run with an error on any round that raises
            // Coco, so plain Coco never goes up.
            assert!(
                r.enhanced.coco <= r.initial.coco,
                "{}: TIMER must not worsen Coco ({} -> {})",
                case.name(),
                r.initial.coco,
                r.enhanced.coco
            );
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
        let ga = generators::barabasi_albert(300, 3, 2);
        let (_, r) = run(&ga, &Topology::hypercube(4), MapCase::C2Identity, 2);
        assert!(r.time_quotient(Duration::from_millis(100)).is_finite());
        assert!(r.time_quotient(Duration::ZERO).is_infinite());
    }

    /// A labeling of another topology with as many PEs is refused: TIMER
    /// lowers Coco on the grid's labels (1342 to 1228) while Coco on the
    /// torus rises (1088 to 1112).
    #[test]
    fn a_labeling_of_another_topology_is_refused() {
        let ga = generators::barabasi_albert(300, 3, 11);
        let grid = recognize_partial_cube(&Topology::grid2d(4, 4).graph).unwrap();
        let torus = Topology::torus2d(4, 4);
        let part = partition(&ga, &PartitionConfig::new(16, 11));
        let mu1 = identity_mapping(&part, 16);
        let err = enhance(&ga, &torus.graph, &grid, &mu1, TimerConfig::new(8, 11)).unwrap_err();
        let TieError::InvariantViolated(msg) = &err else {
            panic!("expected InvariantViolated, got {err}");
        };
        assert!(msg.contains("1088") && msg.contains("1342"), "{msg}");
    }
}
