//! Quality floor of the medium-scale workload.
//!
//! On the medium workload (PGPgiantcompo scaled ×16 ≈ 10k vertices, grid8x8,
//! scrambled block-to-PE bijection) TIMER used to keep **zero** of its
//! hierarchy rounds: Algorithm 2's assemble step made every candidate worse
//! than the input. With exact swaps (see `tie_timer::hierarchy`) every round
//! is kept and Coco falls. This test pins that as a floor: the final Coco
//! bound may only be lowered by later changes.
//!
//! The setup mirrors the quality matrix's grid8x8 / scr / Div on cell
//! exactly (same network, seed, partition, topology and scramble), with a
//! small NH: a debug-mode full NH = 40 run would be too slow for tier-1.

use tie_bench::workloads::{paper_networks, Scale};
use tie_graph::generators::random_permutation;
use tie_mapping::Mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{Timer, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};

#[test]
fn medium_scale_keeps_every_round_and_lowers_coco() {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "PGPgiantcompo")
        .expect("catalogue network");
    let ga = spec.build(Scale::Medium);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).expect("grids are partial cubes");
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 1));
    let scramble = random_permutation(topo.num_pes(), 1);
    let mapping = Mapping::from_partition(&part, &scramble, topo.num_pes());

    let nh = 4;
    let cfg = TimerConfig::new(nh, 1);
    let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();

    // The committed BENCH_quality.json records this exact value for its
    // grid8x8 / scr / Div on cell; the partition, scramble and labeling are
    // all deterministic in the seed.
    assert_eq!(
        result.initial_coco, 71581,
        "medium-cell setup drifted — regenerate BENCH_quality.json and update this pin"
    );
    // Every round is committed: an exact round always passes the per-round
    // check (`check_round`).
    assert_eq!(result.hierarchies_accepted, nh);
    // The floor: a later change may lower this bound, never raise it.
    assert!(
        result.final_coco <= 71_434,
        "final Coco {} is above the floor 71434",
        result.final_coco
    );
}
