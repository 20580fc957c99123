//! Quality floors for the multilevel partitioner on the kind of instances
//! the TIMER experiments use.

use tie_graph::generators;
use tie_partition::{partition, PartitionConfig};

#[test]
fn multilevel_satisfies_paper_balance_on_complex_networks() {
    for seed in [1u64, 2, 3] {
        let g = generators::barabasi_albert(1200, 4, seed);
        let p = partition(&g, &PartitionConfig::new(64, seed));
        assert!(
            p.is_balanced(&g, 0.03 + 1e-9),
            "violates the 3% bound (imbalance {})",
            p.imbalance(&g)
        );
        assert_eq!(p.k(), 64);
        assert!(p.num_nonempty_blocks() >= 60, "too many empty blocks");
    }
}

#[test]
fn multilevel_cut_on_meshes_is_bounded() {
    // On meshes (strong geometric locality) the multilevel pipeline must cut
    // no more than plain size-constrained label propagation did on the same
    // instance (513 edges); it cuts 179.
    let g = generators::grid2d(24, 24);
    let p = partition(&g, &PartitionConfig::new(16, 7));
    assert!(p.edge_cut(&g) <= 513, "cut {}", p.edge_cut(&g));
}

#[test]
fn multilevel_handles_the_papers_k_values() {
    let g = generators::rmat(11, 8, (0.57, 0.19, 0.19, 0.05), 5);
    let (lcc, _) = tie_graph::traversal::largest_connected_component(&g);
    for k in [256usize, 512] {
        let p = partition(&lcc, &PartitionConfig::new(k, 1));
        assert_eq!(p.k(), k);
        assert!(
            p.is_balanced(&lcc, 0.03 + 0.05),
            "k={k}: imbalance {} too high",
            p.imbalance(&lcc)
        );
    }
}
