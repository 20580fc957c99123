//! Pins the partitioner's exact output on two seeded instances, so that a
//! refactor of the multilevel pipeline cannot change a block id unnoticed:
//! the other partition tests only bound quality, while every downstream
//! number (communication graph, mappings c1–c4, TIMER's Coco) depends on it.

use tie_graph::generators;
use tie_graph::traversal::largest_connected_component;
use tie_partition::{partition, PartitionConfig};

/// 64-bit FNV-1a over the little-endian bytes of every block id.
fn fnv1a(assignment: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in assignment.iter().flat_map(|b| b.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn partition_output_is_pinned() {
    let g = generators::barabasi_albert(3000, 3, 11);
    let p = partition(&g, &PartitionConfig::new(64, 11));
    assert_eq!(p.k(), 64);
    assert_eq!(p.edge_cut(&g), 5683, "edge cut drifted");
    assert_eq!(
        fnv1a(p.assignment()),
        1_963_353_043_315_660_052,
        "assignment drifted (FNV-1a of the block ids)"
    );
}

/// The hub-heavy case: the tiny web-Google stand-in (largest component of an
/// R-MAT graph, edge factor 8, probabilities (0.57, 0.19, 0.19, 0.05);
/// 2,956 vertices, maximum degree 958, merged parallel edges as weights)
/// at k = 256.
#[test]
fn rmat_hub_partition_output_is_pinned() {
    let raw = generators::rmat(12, 8, (0.57, 0.19, 0.19, 0.05), 112);
    let g = largest_connected_component(&raw).0;
    assert_eq!(g.num_vertices(), 2956);
    let p = partition(&g, &PartitionConfig::new(256, 112));
    assert_eq!(p.k(), 256);
    assert_eq!(p.edge_cut(&g), 29862, "edge cut drifted");
    assert_eq!(
        fnv1a(p.assignment()),
        15_935_398_696_528_413_960,
        "assignment drifted (FNV-1a of the block ids)"
    );
}
