//! The [`Partition`] type: a block assignment plus quality accessors.

use tie_graph::{Graph, Weight};

/// A partition of a graph's vertex set into `k` blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u32>,
    k: usize,
}

impl Partition {
    /// Wraps an existing assignment. Block ids must be `< k`.
    ///
    /// # Panics
    /// Panics if any block id is out of range.
    pub fn new(assignment: Vec<u32>, k: usize) -> Self {
        assert!(
            assignment.iter().all(|&b| (b as usize) < k),
            "block id out of range"
        );
        Partition { assignment, k }
    }

    /// Number of blocks.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Block of vertex `v`.
    #[inline]
    pub fn block_of(&self, v: u32) -> u32 {
        self.assignment[v as usize]
    }

    /// The underlying assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Mutable access for refinement passes.
    pub(crate) fn assignment_mut(&mut self) -> &mut [u32] {
        &mut self.assignment
    }

    /// Total vertex weight of every block.
    pub fn block_weights(&self, graph: &Graph) -> Vec<Weight> {
        let mut w = vec![0 as Weight; self.k];
        for v in graph.vertices() {
            w[self.assignment[v as usize] as usize] += graph.vertex_weight(v);
        }
        w
    }

    /// Number of vertices in every block.
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.k];
        for &b in &self.assignment {
            s[b as usize] += 1;
        }
        s
    }

    /// Sum of weights of edges whose endpoints lie in different blocks.
    pub fn edge_cut(&self, graph: &Graph) -> Weight {
        graph
            .edges()
            .filter(|&(u, v, _)| self.assignment[u as usize] != self.assignment[v as usize])
            .map(|(_, _, w)| w)
            .sum()
    }

    /// Imbalance of the partition: `max_b weight(b) / ceil(total / k) - 1`.
    /// A perfectly balanced partition has imbalance 0.
    pub fn imbalance(&self, graph: &Graph) -> f64 {
        let total = graph.total_vertex_weight();
        if total == 0 || self.k == 0 {
            return 0.0;
        }
        let ideal = total.div_ceil(self.k as Weight);
        let max = self.block_weights(graph).into_iter().max().unwrap_or(0);
        max as f64 / ideal as f64 - 1.0
    }

    /// True if every block obeys Eq. (1): `weight(b) <= (1 + eps) * ceil(total / k)`.
    pub fn is_balanced(&self, graph: &Graph, eps: f64) -> bool {
        self.imbalance(graph) <= eps + 1e-12
    }

    /// Number of non-empty blocks.
    pub fn num_nonempty_blocks(&self) -> usize {
        self.block_sizes().into_iter().filter(|&s| s > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;

    #[test]
    fn block_weights_and_sizes() {
        let g = generators::path_graph(6);
        let p = Partition::new(vec![0, 0, 0, 1, 1, 1], 2);
        assert_eq!(p.block_weights(&g), vec![3, 3]);
        assert_eq!(p.block_sizes(), vec![3, 3]);
        assert_eq!(p.edge_cut(&g), 1);
        assert!(p.is_balanced(&g, 0.0));
        assert_eq!(p.num_nonempty_blocks(), 2);
    }

    #[test]
    fn imbalance_computation() {
        let g = generators::path_graph(6);
        let p = Partition::new(vec![0, 0, 0, 0, 1, 1], 2);
        // max block = 4, ideal = 3 -> imbalance 1/3.
        assert!((p.imbalance(&g) - 1.0 / 3.0).abs() < 1e-9);
        assert!(!p.is_balanced(&g, 0.03));
        assert!(p.is_balanced(&g, 0.34));
    }

    #[test]
    fn edge_cut_counts_weighted_edges() {
        let mut b = tie_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 3);
        b.add_edge(2, 3, 10);
        let g = b.build();
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.edge_cut(&g), 3);
    }

    #[test]
    fn empty_blocks_allowed() {
        let p = Partition::new(vec![0, 0, 0], 4);
        assert_eq!(p.num_nonempty_blocks(), 1);
        assert_eq!(p.block_sizes(), vec![3, 0, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_block_rejected() {
        let _ = Partition::new(vec![0, 5], 2);
    }
}
