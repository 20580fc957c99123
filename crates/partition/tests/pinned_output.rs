//! Pins the partitioner's exact output on one seeded instance, so that a
//! refactor of the multilevel pipeline cannot change a block id unnoticed:
//! the other partition tests only bound quality, while every downstream
//! number (communication graph, mappings c1–c4, TIMER's Coco) depends on it.

use tie_graph::generators;
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
