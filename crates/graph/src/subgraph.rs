//! Induced subgraph extraction.
//!
//! The CSR arrays are written directly, without [`crate::GraphBuilder`].
//! Every parent row is sorted and free of duplicates and self-loops (the
//! builder and [`crate::contract_into`] both guarantee it), and selected
//! vertices are numbered in ascending parent order, so the parent-to-child
//! map is monotone. A parent row, filtered to selected neighbours and
//! renumbered, is therefore already a valid child row. A counting pass
//! fills `xadj`, then one fill pass writes the rows into arrays allocated
//! at their final size.

use crate::csr::{Graph, NodeId};

/// Result of extracting an induced subgraph.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The induced subgraph; vertex `i` corresponds to `to_parent[i]` in the
    /// original graph.
    pub graph: Graph,
    /// Mapping from subgraph vertex id to original vertex id.
    pub to_parent: Vec<NodeId>,
}

/// Extracts the subgraph induced by `vertices` (which may be in any order and
/// may contain duplicates; duplicates are ignored). Vertex and edge weights
/// are preserved.
pub fn induced_subgraph(graph: &Graph, vertices: &[NodeId]) -> Subgraph {
    let n = graph.num_vertices();
    // Mark the selected vertices, then number them in ascending order.
    let mut to_child = vec![NodeId::MAX; n];
    for &v in vertices {
        to_child[v as usize] = 0;
    }
    let mut to_parent: Vec<NodeId> = Vec::new();
    for (v, child) in to_child.iter_mut().enumerate() {
        if *child != NodeId::MAX {
            *child = to_parent.len() as NodeId;
            to_parent.push(v as NodeId);
        }
    }
    let mut xadj = Vec::with_capacity(to_parent.len() + 1);
    xadj.push(0usize);
    for &parent in &to_parent {
        let kept = graph
            .neighbors(parent)
            .iter()
            .filter(|&&u| to_child[u as usize] != NodeId::MAX)
            .count();
        xadj.push(xadj[xadj.len() - 1] + kept);
    }
    let arcs = xadj[to_parent.len()];
    let mut adjncy = Vec::with_capacity(arcs);
    let mut adjwgt = Vec::with_capacity(arcs);
    for &parent in &to_parent {
        for (u, w) in graph.edges_of(parent) {
            let child = to_child[u as usize];
            if child != NodeId::MAX {
                adjncy.push(child);
                adjwgt.push(w);
            }
        }
    }
    let vwgt = to_parent.iter().map(|&v| graph.vertex_weight(v)).collect();
    Subgraph {
        graph: Graph::from_adjacency(xadj, adjncy, adjwgt, vwgt),
        to_parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GraphBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Extraction through `GraphBuilder`: the oracle the direct CSR
    /// construction must reproduce array for array.
    fn induced_subgraph_reference(graph: &Graph, vertices: &[NodeId]) -> Subgraph {
        let n = graph.num_vertices();
        let mut selected = vec![false; n];
        for &v in vertices {
            selected[v as usize] = true;
        }
        let mut to_parent: Vec<NodeId> = Vec::new();
        let mut to_child = vec![NodeId::MAX; n];
        for v in 0..n as NodeId {
            if selected[v as usize] {
                to_child[v as usize] = to_parent.len() as NodeId;
                to_parent.push(v);
            }
        }
        let mut builder = GraphBuilder::new(to_parent.len());
        for (child, &parent) in to_parent.iter().enumerate() {
            builder.set_vertex_weight(child as NodeId, graph.vertex_weight(parent));
            for (nb, w) in graph.edges_of(parent) {
                if parent < nb && selected[nb as usize] {
                    builder.add_edge(child as NodeId, to_child[nb as usize], w);
                }
            }
        }
        Subgraph {
            graph: builder.build(),
            to_parent,
        }
    }

    #[test]
    fn subgraph_of_grid_quadrant() {
        let g = generators::grid2d(4, 4);
        // Top-left 2x2 quadrant: vertices with x < 2 and y < 2.
        let verts: Vec<NodeId> = vec![0, 1, 4, 5];
        let sub = induced_subgraph(&g, &verts);
        assert_eq!(sub.graph.num_vertices(), 4);
        assert_eq!(sub.graph.num_edges(), 4);
        assert_eq!(sub.to_parent, verts);
    }

    #[test]
    fn subgraph_preserves_weights() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 7);
        b.add_edge(2, 3, 9);
        b.set_vertex_weight(1, 3);
        let g = b.build();
        let sub = induced_subgraph(&g, &[1, 2]);
        assert_eq!(sub.graph.num_vertices(), 2);
        assert_eq!(sub.graph.edge_weight(0, 1), Some(7));
        assert_eq!(sub.graph.vertex_weight(0), 3);
    }

    #[test]
    fn duplicates_and_empty() {
        let g = generators::cycle_graph(5);
        let sub = induced_subgraph(&g, &[2, 2, 3]);
        assert_eq!(sub.graph.num_vertices(), 2);
        assert_eq!(sub.graph.num_edges(), 1);
        let empty = induced_subgraph(&g, &[]);
        assert_eq!(empty.graph.num_vertices(), 0);
    }

    #[test]
    fn full_subgraph_is_isomorphic_copy() {
        let g = generators::barabasi_albert(50, 2, 3);
        let all: Vec<NodeId> = g.vertices().collect();
        let sub = induced_subgraph(&g, &all);
        assert_eq!(sub.graph, g);
    }

    /// A seeded graph of family `kind`: weighted G(n, m), Barabási–Albert,
    /// R-MAT (isolated vertices, hubs), or two copies of one G(n/3, n) graph
    /// with isolated vertices between them. About a tenth of the edge
    /// weights are zero.
    fn oracle_graph(kind: usize, n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let skeleton = match kind {
            0 => generators::erdos_renyi_gnm(n, rng.gen_range(0..=3 * n), seed),
            1 => generators::barabasi_albert(n, rng.gen_range(1..4usize), seed),
            2 => {
                let scale = (n as f64).log2().ceil() as u32;
                generators::rmat(scale, 8, (0.57, 0.19, 0.19, 0.05), seed)
            }
            _ => {
                let part = generators::erdos_renyi_gnm(n / 3, n, seed);
                let mut b = GraphBuilder::new(n);
                let offset = (n - n / 3) as NodeId;
                for (u, v, _) in part.edges() {
                    b.add_edge(u, v, 1);
                    b.add_edge(u + offset, v + offset, 1);
                }
                b.build()
            }
        };
        let mut b = GraphBuilder::new(skeleton.num_vertices());
        for (u, v, _) in skeleton.edges() {
            let w = if rng.gen_bool(0.1) {
                0
            } else {
                rng.gen_range(1..=20u64)
            };
            b.add_edge(u, v, w);
        }
        for v in skeleton.vertices() {
            b.set_vertex_weight(v, rng.gen_range(1..=5u64));
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The direct CSR construction equals the `GraphBuilder` reference
        /// array for array, on vertex lists in any order with duplicates.
        #[test]
        fn direct_csr_matches_builder_reference(
            kind in 0..4usize,
            n in 2..300usize,
            seed in 0..100_000u64,
            picks_permille in 0..=1500usize,
        ) {
            let g = oracle_graph(kind, n, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let picks = g.num_vertices() * picks_permille / 1000;
            let vertices: Vec<NodeId> = (0..picks)
                .map(|_| rng.gen_range(0..g.num_vertices()) as NodeId)
                .collect();
            let direct = induced_subgraph(&g, &vertices);
            let reference = induced_subgraph_reference(&g, &vertices);
            prop_assert_eq!(direct.graph, reference.graph);
            prop_assert_eq!(direct.to_parent, reference.to_parent);
        }
    }
}
