//! Compressed sparse row (CSR) representation of undirected, weighted graphs.
//!
//! The representation follows the usual METIS/KaHIP convention: for every
//! undirected edge `{u, v}` the adjacency arrays store both the arc `u -> v`
//! and the arc `v -> u`, each carrying the same edge weight. Vertex weights
//! default to 1 and become relevant once graphs are coarsened.

use std::fmt;

/// Vertex identifier. 32 bits are plenty for the graph sizes the paper uses
/// (up to a few hundred thousand vertices) and keep the CSR arrays compact.
pub type NodeId = u32;

/// Unsigned weight type for vertex and edge weights.
pub type Weight = u64;

/// An undirected, weighted graph in CSR form.
///
/// Construction goes through [`crate::GraphBuilder`] (incremental, with
/// deduplication), the contraction kernel [`crate::contract_into`] or
/// [`crate::induced_subgraph`], whose rows are filtered from a symmetric
/// parent. The raw-array constructor behind all three is crate-private, so
/// every `Graph` is symmetric (mirrored arcs of equal weight), as the kernel
/// requires.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// Offsets into `adjncy`/`adjwgt`; length `n + 1`.
    xadj: Vec<usize>,
    /// Concatenated adjacency lists; length `2 * m`.
    adjncy: Vec<NodeId>,
    /// Edge weight of each arc, parallel to `adjncy`.
    adjwgt: Vec<Weight>,
    /// Vertex weights; length `n`.
    vwgt: Vec<Weight>,
}

impl Graph {
    /// Builds a graph directly from CSR arrays. Callers must pass symmetric
    /// arrays; only structural consistency is checked here.
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent (offsets not
    /// monotone, lengths mismatching, neighbour ids out of range).
    pub(crate) fn from_adjacency(
        xadj: Vec<usize>,
        adjncy: Vec<NodeId>,
        adjwgt: Vec<Weight>,
        vwgt: Vec<Weight>,
    ) -> Self {
        assert!(!xadj.is_empty(), "xadj must have length n + 1 >= 1");
        let n = xadj.len() - 1;
        assert_eq!(vwgt.len(), n, "vertex weight array length mismatch");
        assert_eq!(
            adjncy.len(),
            adjwgt.len(),
            "edge weight array length mismatch"
        );
        assert_eq!(xadj[n], adjncy.len(), "last offset must equal arc count");
        for w in xadj.windows(2) {
            assert!(w[0] <= w[1], "xadj offsets must be non-decreasing");
        }
        for &v in &adjncy {
            assert!((v as usize) < n, "neighbour id {v} out of range (n = {n})");
        }
        Graph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    /// Builds an unweighted graph (all vertex and edge weights 1) from a list
    /// of undirected edges over `n` vertices. Self-loops are dropped and
    /// parallel edges merged (weights summed).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = crate::GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v, 1);
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Number of stored arcs (twice the number of undirected edges).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adjncy.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: NodeId) -> Weight {
        self.vwgt[v as usize]
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[Weight] {
        &self.vwgt
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> Weight {
        self.vwgt.iter().sum()
    }

    /// Sum of all (undirected) edge weights.
    pub fn total_edge_weight(&self) -> Weight {
        self.adjwgt.iter().sum::<Weight>() / 2
    }

    /// Sum of the weights of all arcs leaving `v` (weighted degree).
    pub fn weighted_degree(&self, v: NodeId) -> Weight {
        let v = v as usize;
        self.adjwgt[self.xadj[v]..self.xadj[v + 1]].iter().sum()
    }

    /// Iterator over vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_vertices() as NodeId
    }

    /// Neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Edge weights of the arcs leaving `v`, parallel to [`Graph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> &[Weight] {
        let v = v as usize;
        &self.adjwgt[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Iterator over `(neighbour, edge_weight)` pairs of `v`.
    #[inline]
    pub fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_weights(v).iter().copied())
    }

    /// Iterator over every undirected edge `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.vertices().flat_map(move |u| {
            self.edges_of(u)
                .filter_map(move |(v, w)| if u < v { Some((u, v, w)) } else { None })
        })
    }

    /// Returns the weight of edge `{u, v}` if it exists.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.edges_of(u).find(|&(x, _)| x == v).map(|(_, w)| w)
    }

    /// True if `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).contains(&v)
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Replaces all vertex weights.
    ///
    /// # Panics
    /// Panics if `vwgt.len() != n`.
    pub fn set_vertex_weights(&mut self, vwgt: Vec<Weight>) {
        assert_eq!(vwgt.len(), self.num_vertices());
        self.vwgt = vwgt;
    }

    /// Checks structural symmetry: every arc `u -> v` has a reverse arc
    /// `v -> u` with the same weight. Intended for tests and debug assertions.
    pub fn is_symmetric(&self) -> bool {
        for u in self.vertices() {
            for (v, w) in self.edges_of(u) {
                if self.edges_of(v).find(|&(x, _)| x == u).map(|(_, w2)| w2) != Some(w) {
                    return false;
                }
            }
        }
        true
    }

    /// Raw CSR offset array (length `n + 1`). Exposed for performance-critical
    /// consumers (partitioner inner loops) that want to avoid bounds churn.
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw adjacency array (length `2m`).
    #[inline]
    pub fn adjncy(&self) -> &[NodeId] {
        &self.adjncy
    }

    /// Raw arc weight array (length `2m`).
    #[inline]
    pub fn adjwgt(&self) -> &[Weight] {
        &self.adjwgt
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n = {}, m = {}, total_vwgt = {}, total_ewgt = {})",
            self.num_vertices(),
            self.num_edges(),
            self.total_vertex_weight(),
            self.total_edge_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.total_vertex_weight(), 3);
        assert_eq!(g.total_edge_weight(), 3);
        assert!(g.is_symmetric());
    }

    #[test]
    fn neighbors_and_weights() {
        let g = triangle();
        let mut nb: Vec<_> = g.neighbors(1).to_vec();
        nb.sort_unstable();
        assert_eq!(nb, vec![0, 2]);
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(1, 0), Some(1));
        assert_eq!(g.edge_weight(0, 0), None);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(3 % 3, 0) || g.has_edge(0, 1)); // sanity, no panic
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for &(u, v, w) in &edges {
            assert!(u < v);
            assert_eq!(w, 1);
        }
    }

    #[test]
    fn parallel_edges_are_merged() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn weighted_degree_sums_arc_weights() {
        let mut b = crate::GraphBuilder::new(3);
        b.add_edge(0, 1, 4);
        b.add_edge(0, 2, 6);
        let g = b.build();
        assert_eq!(g.weighted_degree(0), 10);
        assert_eq!(g.weighted_degree(1), 4);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn set_vertex_weights_roundtrip() {
        let mut g = triangle();
        g.set_vertex_weights(vec![5, 6, 7]);
        assert_eq!(g.vertex_weight(2), 7);
        assert_eq!(g.total_vertex_weight(), 18);
    }

    #[test]
    #[should_panic]
    fn from_adjacency_rejects_bad_offsets() {
        let _ = Graph::from_adjacency(vec![0, 2, 1], vec![1, 0], vec![1, 1], vec![1, 1]);
    }

    #[test]
    #[should_panic]
    fn from_adjacency_rejects_out_of_range_neighbor() {
        let _ = Graph::from_adjacency(vec![0, 1, 2], vec![5, 0], vec![1, 1], vec![1, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_vertex_weight(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.num_edges(), 1);
    }
}
