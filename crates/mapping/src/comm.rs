//! Communication-graph construction (Figure 1 of the paper).
//!
//! Contracting every block of a partition of `Ga` into a single vertex yields
//! the communication graph `Gc = (Vc, Ec, ωc)`, where `ωc` aggregates the
//! weights of the `Ga`-edges running between two blocks. The mapping
//! baselines operate on `Gc` (one vertex per block) and then compose with the
//! partition to obtain a mapping of `Va`.

use tie_graph::contract::contract;
use tie_graph::Graph;
use tie_partition::Partition;

/// Builds the communication graph of `graph` under `partition` with the
/// shared contraction kernel. Vertex `b` of the result is block `b`, weighted
/// by the block's total vertex weight; empty blocks become isolated,
/// zero-weight vertices, so vertex ids coincide with block ids.
///
/// # Panics
/// Panics if the partition's assignment does not cover exactly the vertices
/// of `graph`.
pub fn communication_graph(graph: &Graph, partition: &Partition) -> Graph {
    let gc = contract(graph, partition.assignment(), partition.k());
    debug_assert_eq!(
        gc.total_edge_weight(),
        partition.edge_cut(graph),
        "communication volume must equal the partition's edge cut"
    );
    gc
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;
    use tie_partition::PartitionConfig;

    #[test]
    fn comm_graph_of_quadrant_partition() {
        let g = generators::grid2d(4, 4);
        let mut assignment = vec![0u32; 16];
        for x in 0..4usize {
            for y in 0..4usize {
                assignment[x * 4 + y] = ((x / 2) * 2 + (y / 2)) as u32;
            }
        }
        let p = Partition::new(assignment, 4);
        let gc = communication_graph(&g, &p);
        assert_eq!(gc.num_vertices(), 4);
        assert_eq!(gc.num_edges(), 4); // quadrants adjacent along sides only
        assert_eq!(gc.total_edge_weight(), p.edge_cut(&g));
        assert_eq!(gc.vertex_weights(), &[4, 4, 4, 4]);
    }

    #[test]
    fn empty_blocks_become_isolated_vertices() {
        let g = generators::path_graph(4);
        let p = Partition::new(vec![0, 0, 2, 2], 4);
        let gc = communication_graph(&g, &p);
        assert_eq!(gc.num_vertices(), 4);
        assert_eq!(gc.degree(1), 0);
        assert_eq!(gc.degree(3), 0);
        assert_eq!(gc.edge_weight(0, 2), Some(1));
    }

    #[test]
    fn comm_volume_matches_cut_on_partitioned_network() {
        let g = generators::barabasi_albert(500, 3, 3);
        let p = tie_partition::partition(&g, &PartitionConfig::new(16, 2));
        let gc = communication_graph(&g, &p);
        assert_eq!(gc.num_vertices(), 16);
        assert_eq!(gc.total_edge_weight(), p.edge_cut(&g));
        assert_eq!(gc.total_vertex_weight(), g.total_vertex_weight());
    }
}
