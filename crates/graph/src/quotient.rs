//! Quotient graphs: contraction along a block assignment.
//!
//! The quotient graph of a partition has one vertex per block, weighted by
//! the block's total vertex weight; the weight of a quotient edge aggregates
//! the weights of all original edges whose endpoints lie in the two blocks.
//! It is the *communication graph* `Gc` of the paper (Figure 1b). It has no
//! code of its own: [`crate::contract::contract`], with the assignment as
//! merge map and the block count as coarse size, builds it. These tests pin
//! that use of the kernel.

#[cfg(test)]
mod tests {
    use crate::contract::contract;
    use crate::{generators, GraphBuilder, NodeId};

    #[test]
    fn contraction_of_figure1_style_instance() {
        // A 4x4 grid split into 4 quadrant blocks: the communication graph is
        // a 2x2 grid-like structure with aggregated weights.
        let g = generators::grid2d(4, 4);
        let mut assignment = vec![0 as NodeId; 16];
        for x in 0..4usize {
            for y in 0..4usize {
                let v = x * 4 + y;
                assignment[v] = ((x / 2) * 2 + (y / 2)) as NodeId;
            }
        }
        let q = contract(&g, &assignment, 4);
        assert_eq!(q.num_vertices(), 4);
        assert_eq!(q.vertex_weights(), &[4, 4, 4, 4]);
        // Each pair of adjacent quadrants shares exactly 2 grid edges.
        for (_, _, w) in q.edges() {
            assert_eq!(w, 2);
        }
        // The quotient's edges carry exactly the cut weight.
        assert_eq!(q.total_edge_weight(), 8);
        // Quadrants touching only at the corner are not adjacent.
        assert_eq!(q.num_edges(), 4);
    }

    #[test]
    fn singleton_blocks_reproduce_graph() {
        let g = generators::cycle_graph(6);
        let assignment: Vec<NodeId> = (0..6).collect();
        let q = contract(&g, &assignment, 6);
        assert_eq!(q.num_vertices(), 6);
        assert_eq!(q.num_edges(), 6);
        assert_eq!(q.total_edge_weight(), g.total_edge_weight());
        assert_eq!(q, g);
    }

    #[test]
    fn single_block_yields_single_vertex() {
        let g = generators::complete_graph(5);
        let q = contract(&g, &[0; 5], 1);
        assert_eq!(q.num_vertices(), 1);
        assert_eq!(q.num_edges(), 0);
        assert_eq!(q.total_edge_weight(), 0);
        assert_eq!(q.vertex_weights(), &[5]);
    }

    #[test]
    fn edge_weights_aggregate() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2, 3);
        b.add_edge(0, 3, 4);
        b.add_edge(1, 2, 5);
        b.add_edge(0, 1, 7); // intra-block
        let g = b.build();
        let q = contract(&g, &[0, 0, 1, 1], 2);
        assert_eq!(q.edge_weight(0, 1), Some(12));
        assert_eq!(q.total_edge_weight(), 12);
    }

    #[test]
    #[should_panic]
    fn wrong_assignment_length_panics() {
        let g = generators::path_graph(3);
        let _ = contract(&g, &[0, 1], 2);
    }
}
