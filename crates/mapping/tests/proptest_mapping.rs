//! Property-based tests for the mapping baselines: every strategy must
//! produce an injective block-to-PE assignment, compose into a balanced
//! mapping, and beat a random bijection on average for structured inputs.

use proptest::prelude::*;

use tie_graph::traversal::all_pairs_distances;
use tie_graph::{generators, Graph};
use tie_mapping::{
    communication_graph, dual_recursive_bisection, greedy_allc, greedy_min,
    random::random_bijection,
};
use tie_partition::{partition, PartitionConfig};
use tie_topology::Topology;

fn coco_of_nu(gc: &Graph, gp: &Graph, nu: &[u32]) -> u64 {
    let dist = all_pairs_distances(gp);
    gc.edges()
        .map(|(u, v, w)| w * dist.get(nu[u as usize], nu[v as usize]) as u64)
        .sum()
}

fn injective(nu: &[u32]) -> bool {
    let mut seen = std::collections::HashSet::new();
    nu.iter().all(|&p| seen.insert(p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// All three constructive baselines produce valid bijections on random
    /// partitioned complex networks and arbitrary small-topology targets.
    #[test]
    fn baselines_produce_bijections(
        n in 200..500usize,
        seed in 0..100u64,
        topo_idx in 0..4usize,
    ) {
        let ga = generators::barabasi_albert(n, 3, seed);
        let topologies = [
            Topology::grid2d(4, 4),
            Topology::torus2d(4, 4),
            Topology::hypercube(4),
            Topology::grid3d(4, 2, 2),
        ];
        let topo = &topologies[topo_idx];
        let k = topo.num_pes();
        let part = partition(&ga, &PartitionConfig::new(k, seed));
        let gc = communication_graph(&ga, &part);

        for (name, nu) in [
            ("greedy_allc", greedy_allc(&gc, &topo.graph)),
            ("greedy_min", greedy_min(&gc, &topo.graph)),
            ("drb", dual_recursive_bisection(&gc, &topo.graph, seed)),
        ] {
            prop_assert_eq!(nu.len(), k, "{}", name);
            prop_assert!(injective(&nu), "{} must be injective", name);
            prop_assert!(nu.iter().all(|&p| (p as usize) < k), "{} PE ids in range", name);
        }
    }

    /// On a communication graph isomorphic to the processor grid, every
    /// topology-aware baseline beats the expected cost of a random bijection.
    #[test]
    fn baselines_beat_random_on_structured_instances(seed in 0..50u64) {
        let topo = Topology::grid2d(4, 4);
        let gc = generators::randomize_edge_weights(&generators::grid2d(4, 4), 5, seed);
        // Average random cost over a handful of random bijections.
        let random_costs: Vec<u64> = (0..5)
            .map(|i| coco_of_nu(&gc, &topo.graph, &random_bijection(16, 16, seed * 7 + i)))
            .collect();
        let random_avg = random_costs.iter().sum::<u64>() as f64 / random_costs.len() as f64;
        for (name, nu) in [
            ("greedy_allc", greedy_allc(&gc, &topo.graph)),
            ("greedy_min", greedy_min(&gc, &topo.graph)),
            ("drb", dual_recursive_bisection(&gc, &topo.graph, seed)),
        ] {
            let cost = coco_of_nu(&gc, &topo.graph, &nu) as f64;
            prop_assert!(
                cost < random_avg,
                "{} (cost {cost}) should beat the average random bijection ({random_avg})",
                name
            );
        }
    }
}
