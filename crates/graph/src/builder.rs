//! Incremental graph builder with deduplication of parallel edges.

use std::collections::BTreeMap;

use crate::csr::{Graph, NodeId, Weight};

/// Builds an undirected, weighted [`Graph`] edge by edge.
///
/// * Self-loops are silently ignored (the mapping objective never counts
///   intra-vertex communication).
/// * Parallel edges are merged; their weights accumulate.
/// * Vertex weights default to 1 and can be overridden per vertex.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    /// Edge weight per normalized (min, max) vertex pair. A `BTreeMap` so
    /// that iteration during [`GraphBuilder::build`] is key-sorted — the
    /// CSR layout never depends on insertion or hash order.
    edges: BTreeMap<(NodeId, NodeId), Weight>,
    vwgt: Vec<Weight>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: BTreeMap::new(),
            vwgt: vec![1; n],
        }
    }

    /// Number of vertices the builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of distinct undirected edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge `{u, v}` with weight `w`. Re-adding an edge
    /// accumulates weights. Self-loops are ignored.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "vertex id out of range"
        );
        if u == v {
            return;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        *self.edges.entry(key).or_insert(0) += w;
    }

    /// Returns true if edge `{u, v}` has been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.contains_key(&key)
    }

    /// Sets the weight of vertex `v`.
    pub fn set_vertex_weight(&mut self, v: NodeId, w: Weight) {
        self.vwgt[v as usize] = w;
    }

    /// Finalizes the builder into a CSR [`Graph`]. Adjacency lists are sorted
    /// by neighbour id, which gives deterministic iteration order.
    pub fn build(self) -> Graph {
        let n = self.n;
        let mut degree = vec![0usize; n];
        for &(u, v) in self.edges.keys() {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for i in 0..n {
            xadj[i + 1] = xadj[i] + degree[i];
        }
        let total_arcs = xadj[n];
        let mut adjncy = vec![0 as NodeId; total_arcs];
        let mut adjwgt = vec![0 as Weight; total_arcs];
        let mut cursor = xadj.clone();
        // The BTreeMap yields `(u, v)` with `u < v` in key order, so every
        // row fills in ascending neighbour order: row `v` receives its lower
        // neighbours `u` (as the second key, in order of `u`) before its
        // higher ones (as the first key, in order of the second).
        for ((u, v), w) in self.edges {
            let (ui, vi) = (u as usize, v as usize);
            adjncy[cursor[ui]] = v;
            adjwgt[cursor[ui]] = w;
            cursor[ui] += 1;
            adjncy[cursor[vi]] = u;
            adjwgt[cursor[vi]] = w;
            cursor[vi] += 1;
        }
        Graph::from_adjacency(xadj, adjncy, adjwgt, self.vwgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn accumulates_parallel_edge_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 0, 3);
        assert_eq!(b.num_edges(), 1);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(5));
    }

    #[test]
    fn ignores_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1, 7);
        assert_eq!(b.num_edges(), 0);
    }

    #[test]
    fn vertex_weights_carried_through() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1);
        b.set_vertex_weight(0, 9);
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 9);
        assert_eq!(g.vertex_weight(1), 1);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 4, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(0, 3, 1);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 0, 1);
        assert!(b.has_edge(0, 2));
        assert!(b.has_edge(2, 0));
        assert!(!b.has_edge(1, 2));
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1);
    }

    #[test]
    fn symmetry_of_built_graph() {
        let mut b = GraphBuilder::new(6);
        for (u, v, w) in [
            (0u32, 1u32, 3u64),
            (1, 2, 1),
            (2, 3, 2),
            (3, 4, 5),
            (4, 5, 1),
            (5, 0, 4),
            (1, 4, 2),
        ] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.total_edge_weight(), 18);
    }

    /// The CSR of `n` vertices from an edge list: both orientations of
    /// every non-loop edge, each row sorted and parallel arcs merged.
    fn sorted_rows_reference(n: usize, edges: &[(NodeId, NodeId, Weight)]) -> Graph {
        let mut rows: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges.iter().filter(|&&(u, v, _)| u != v) {
            rows[u as usize].push((v, w));
            rows[v as usize].push((u, w));
        }
        let (mut xadj, mut adjncy, mut adjwgt) = (vec![0], Vec::new(), Vec::new());
        for row in &mut rows {
            row.sort_unstable_by_key(|&(nb, _)| nb);
            for &(nb, w) in row.iter() {
                if adjncy.len() > *xadj.last().unwrap() && adjncy.last() == Some(&nb) {
                    *adjwgt.last_mut().unwrap() += w;
                } else {
                    adjncy.push(nb);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len());
        }
        Graph::from_adjacency(xadj, adjncy, adjwgt, vec![1; n])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Rows come out sorted without a sort: the built graph equals the
        /// reference that sorts each row, on edge lists with duplicates in
        /// both orientations and self-loops.
        #[test]
        fn build_equals_sorted_rows_reference(
            (n, edges) in (1..60usize).prop_flat_map(|n| {
                let edge = (0..n as NodeId, 0..n as NodeId, 0..20 as Weight);
                (Just(n), proptest::collection::vec(edge, 0..4 * n))
            }),
            flips in proptest::collection::vec(0..2u8, 0..240),
        ) {
            // Re-add a prefix of the edges, some of them reversed.
            let mut all = edges.clone();
            all.extend(
                edges
                    .iter()
                    .zip(&flips)
                    .map(|(&(u, v, w), &flip)| if flip == 1 { (v, u, w) } else { (u, v, w) }),
            );
            let mut b = GraphBuilder::new(n);
            for &(u, v, w) in &all {
                b.add_edge(u, v, w);
            }
            prop_assert_eq!(b.build(), sorted_rows_reference(n, &all));
        }
    }
}
