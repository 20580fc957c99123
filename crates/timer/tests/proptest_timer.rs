//! Property-based tests of the TIMER invariants on randomized instances:
//! the label set (and hence the balance of µ) is always preserved, the
//! accepted objective never worsens, labels stay unique, and the label-based
//! Coco always equals the distance-based Coco.

use proptest::prelude::*;

use tie_graph::traversal::all_pairs_distances;
use tie_graph::{generators, Graph};
use tie_mapping::Mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{coco, Labeling, Timer, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};

/// Random small instance: a BA network, one of the small topologies, and a
/// partition-based initial mapping with a scrambled block-to-PE bijection.
fn instance(n: usize, topo_idx: usize, seed: u64) -> (Graph, Topology, Mapping) {
    let ga = generators::barabasi_albert(n, 3, seed);
    let topologies = [
        Topology::grid2d(4, 4),
        Topology::torus2d(4, 4),
        Topology::hypercube(4),
        Topology::grid3d(2, 2, 4),
    ];
    let topo = topologies[topo_idx % topologies.len()].clone();
    let k = topo.num_pes();
    let part = partition(&ga, &PartitionConfig::new(k, seed));
    let nu = generators::random_permutation(k, seed ^ 0xabcd);
    let mapping = Mapping::from_partition(&part, &nu, k);
    (ga, topo, mapping)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TIMER preserves the load multiset (balance), keeps labels unique and
    /// never worsens Coco+.
    #[test]
    fn timer_invariants(
        n in 100..400usize,
        topo_idx in 0..4usize,
        seed in 0..200u64,
        nh in 1..6usize,
    ) {
        let (ga, topo, mapping) = instance(n, topo_idx, seed);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let result = Timer::new(TimerConfig::new(nh, seed)).enhance(&ga, &pcube, &mapping).unwrap();

        // Balance preservation.
        let mut before = mapping.load_per_pe();
        let mut after = result.mapping.load_per_pe();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);

        // Monotone accepted objective.
        prop_assert!(result.final_coco_plus <= result.initial_coco_plus);

        // Unique labels.
        prop_assert!(result.labeling.is_unique());

        // Label-based Coco agrees with the distance-based definition.
        let dist = all_pairs_distances(&topo.graph);
        let expected: u64 = ga
            .edges()
            .map(|(u, v, w)| w * dist.get(result.mapping.pe_of(u), result.mapping.pe_of(v)) as u64)
            .sum();
        prop_assert_eq!(result.final_coco, expected);
    }

    /// The initial labeling is always a valid encoding of the mapping,
    /// regardless of the extension-shuffle seed.
    #[test]
    fn labeling_encoding_roundtrip(n in 50..300usize, seed in 0..500u64, shuffle in 0..500u64) {
        let (ga, topo, mapping) = instance(n, (seed % 4) as usize, seed);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, shuffle).unwrap();
        prop_assert!(labeling.is_unique());
        prop_assert_eq!(labeling.to_mapping(), mapping.clone());
        prop_assert_eq!(coco(&ga, &labeling), {
            let dist = all_pairs_distances(&topo.graph);
            ga.edges()
                .map(|(u, v, w)| w * dist.get(mapping.pe_of(u), mapping.pe_of(v)) as u64)
                .sum::<u64>()
        });
    }

    /// The incidence-limited delta scan is exact: for any random weighted
    /// graph, arbitrary labeling (duplicates allowed) and random partial
    /// relabeling, `coco_div_delta` agrees bit-for-bit with two full-graph
    /// `coco_and_div_for_labels` recomputes — including edges whose both
    /// endpoints were relabelled, which the scan must count exactly once.
    /// The per-round check (`check_round`) and the gate telemetry ride this scan, so
    /// they are only as trustworthy as this equivalence.
    #[test]
    fn coco_div_delta_agrees_with_full_recompute(
        n in 20..200usize,
        seed in 0..500u64,
        ext in 0..4u32,
        change_rate in 1..64u64,
    ) {
        let g = generators::randomize_edge_weights(
            &generators::barabasi_albert(n, 3, seed),
            5,
            seed,
        );
        // Labels and the changed subset from a seeded LCG: the delta must be
        // exact for any labeling, not just valid mapping encodings.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let dim = 8u32;
        let label_mask = (1u64 << dim) - 1;
        let e_mask = (1u64 << ext) - 1; // ext = 0 → no extension digits
        let p_mask = label_mask & !e_mask;
        let old: Vec<u64> = (0..n).map(|_| next() & label_mask).collect();
        let mut new = old.clone();
        for label in new.iter_mut() {
            if next() % 64 < change_rate {
                *label = next() & label_mask;
            }
        }
        let (c0, d0) = tie_timer::objective::coco_and_div_for_labels(&g, &old, p_mask, e_mask);
        let (c1, d1) = tie_timer::objective::coco_and_div_for_labels(&g, &new, p_mask, e_mask);
        prop_assert_eq!(
            tie_timer::objective::coco_div_delta(&g, &old, &new, p_mask, e_mask),
            (c1 as i64 - c0 as i64, d1 as i64 - d0 as i64)
        );
    }

    /// A deadline-stopped run degrades gracefully for any instance and any
    /// deadline length: the result is a fully committed best-so-far labeling
    /// (Coco never worse than the initial mapping's, load multiset
    /// preserved, labels unique) and the stop reason is consistent with the
    /// accounting — `DeadlineExceeded` runs committed at most NH rounds,
    /// `Completed` runs saw every round.
    #[test]
    fn deadline_stop_degrades_gracefully(
        n in 100..300usize,
        topo_idx in 0..4usize,
        seed in 0..100u64,
        deadline_us in 1..2000u64,
    ) {
        let (ga, topo, mapping) = instance(n, topo_idx, seed);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let nh = 4;
        let cfg = TimerConfig::new(nh, seed)
            .with_deadline(std::time::Duration::from_micros(deadline_us));
        let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();

        match result.stop_reason {
            tie_timer::StopReason::DeadlineExceeded => {
                prop_assert!(result.hierarchies_accepted <= nh);
            }
            tie_timer::StopReason::Completed => {
                prop_assert_eq!(result.hierarchies_accepted, nh);
            }
            other => prop_assert!(false, "unexpected stop reason {:?}", other),
        }
        prop_assert!(result.final_coco <= result.initial_coco);
        prop_assert!(result.final_coco_plus <= result.initial_coco_plus);
        prop_assert!(result.labeling.is_unique());
        let mut before = mapping.load_per_pe();
        let mut after = result.mapping.load_per_pe();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
        prop_assert_eq!(result.mapping.num_pes(), topo.num_pes());
    }

    /// The polish pass (refinement extension) preserves the label set and
    /// never worsens the objective, for any instance and sweep count.
    #[test]
    fn polish_invariants(n in 100..300usize, seed in 0..100u64, sweeps in 1..4usize) {
        let (ga, topo, mapping) = instance(n, (seed % 4) as usize, seed);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let mut labeling = Labeling::from_mapping(&ga, &pcube, &mapping, seed).unwrap();
        let set_before = labeling.sorted_label_set();
        let obj_before = tie_timer::coco_plus(&ga, &labeling);
        tie_timer::polish(&ga, &mut labeling, true, sweeps);
        prop_assert_eq!(labeling.sorted_label_set(), set_before);
        prop_assert!(tie_timer::coco_plus(&ga, &labeling) <= obj_before);
        prop_assert!(labeling.is_unique());
    }
}
