//! # tie-mapping
//!
//! Baseline mapping algorithms for the TIMER reproduction ("Topology-induced
//! Enhancement of Mappings", ICPP 2018).
//!
//! The paper evaluates TIMER as an *enhancer* of mappings produced by four
//! different strategies (experimental cases c1–c4). This crate provides
//! native re-implementations of those strategies:
//!
//! * [`identity`] — case c2: block `i` of the partition goes to PE `i`
//!   (benefits from the spatial locality of the partitioner's block
//!   numbering),
//! * [`greedy`] — cases c3 and c4: the greedy construction heuristics
//!   GREEDYALLC and GREEDYMIN of Brandfass et al. / Glantz et al.,
//! * [`drb`] — case c1: dual recursive bisection in the spirit of SCOTCH's
//!   generic mapping routine,
//! * [`random`] — a seeded random block-to-PE bijection, the reference the
//!   baselines are tested against,
//! * [`comm`] — communication-graph construction (`Gc` of Figure 1).
//!
//! The central type is [`Mapping`]: an assignment of every application-graph
//! vertex to a PE.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod comm;
pub mod drb;
pub mod greedy;
pub mod identity;
pub mod random;

pub use comm::communication_graph;
pub use drb::dual_recursive_bisection;
pub use greedy::{greedy_allc, greedy_min};
pub use identity::identity_mapping;

use tie_graph::{Graph, NodeId, Weight};
use tie_partition::Partition;

/// A mapping `µ : Va -> Vp` of application vertices to processing elements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mapping {
    assignment: Vec<u32>,
    num_pes: usize,
}

impl Mapping {
    /// Wraps a raw assignment (one PE id per application vertex).
    ///
    /// # Panics
    /// Panics if any PE id is out of range.
    pub fn new(assignment: Vec<u32>, num_pes: usize) -> Self {
        assert!(
            assignment.iter().all(|&p| (p as usize) < num_pes),
            "PE id out of range"
        );
        Mapping {
            assignment,
            num_pes,
        }
    }

    /// Builds a mapping from a partition of `Ga` and a bijection
    /// `block -> PE` (`nu[b]` is the PE of block `b`).
    ///
    /// # Panics
    /// Panics if `nu` does not have exactly one entry per block.
    pub fn from_partition(partition: &Partition, nu: &[u32], num_pes: usize) -> Self {
        assert_eq!(partition.k(), nu.len(), "bijection must cover every block");
        let assignment = partition
            .assignment()
            .iter()
            .map(|&b| nu[b as usize])
            .collect();
        Mapping::new(assignment, num_pes)
    }

    /// PE of application vertex `va`.
    #[inline]
    pub fn pe_of(&self, va: NodeId) -> u32 {
        self.assignment[va as usize]
    }

    /// Number of PEs of the target machine.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Number of application vertices.
    pub fn num_tasks(&self) -> usize {
        self.assignment.len()
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of tasks mapped to every PE.
    pub fn load_per_pe(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.num_pes];
        for &p in &self.assignment {
            load[p as usize] += 1;
        }
        load
    }

    /// Total vertex weight mapped to every PE.
    pub fn weight_per_pe(&self, graph: &Graph) -> Vec<Weight> {
        let mut load = vec![0 as Weight; self.num_pes];
        for v in graph.vertices() {
            load[self.assignment[v as usize] as usize] += graph.vertex_weight(v);
        }
        load
    }

    /// Checks the balance condition of Eq. (1):
    /// `|µ^{-1}(vp)| <= (1 + eps) * ceil(|Va| / #used PEs)`.
    pub fn is_balanced(&self, eps: f64) -> bool {
        let used = self.load_per_pe().iter().filter(|&&l| l > 0).count();
        if used == 0 {
            return true;
        }
        let ideal = self.num_tasks().div_ceil(used);
        let max = self.load_per_pe().into_iter().max().unwrap_or(0);
        max as f64 <= (1.0 + eps) * ideal as f64 + 1e-9
    }

    /// Maximum number of tasks on any PE.
    pub fn max_load(&self) -> usize {
        self.load_per_pe().into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;
    use tie_partition::PartitionConfig;

    #[test]
    fn mapping_from_partition_composes_bijection() {
        let g = generators::grid2d(4, 4);
        let p = tie_partition::partition(&g, &PartitionConfig::new(4, 1));
        // Reverse bijection: block b -> PE 3 - b.
        let nu: Vec<u32> = vec![3, 2, 1, 0];
        let m = Mapping::from_partition(&p, &nu, 4);
        for v in g.vertices() {
            assert_eq!(m.pe_of(v), 3 - p.block_of(v));
        }
        assert_eq!(m.num_pes(), 4);
        assert_eq!(m.num_tasks(), 16);
    }

    #[test]
    fn load_and_balance() {
        let m = Mapping::new(vec![0, 0, 1, 1, 2, 2], 4);
        assert_eq!(m.load_per_pe(), vec![2, 2, 2, 0]);
        assert!(m.is_balanced(0.0));
        assert_eq!(m.max_load(), 2);
        let skew = Mapping::new(vec![0, 0, 0, 0, 1, 2], 3);
        assert!(!skew.is_balanced(0.03));
    }

    #[test]
    fn weight_per_pe_uses_vertex_weights() {
        let mut b = tie_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.set_vertex_weight(2, 10);
        let g = b.build();
        let m = Mapping::new(vec![0, 0, 1], 2);
        assert_eq!(m.weight_per_pe(&g), vec![2, 10]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_pe() {
        let _ = Mapping::new(vec![0, 7], 4);
    }
}
