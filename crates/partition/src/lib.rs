//! # tie-partition
//!
//! A multilevel graph partitioner, standing in for KaHIP in the TIMER
//! reproduction ("Topology-induced Enhancement of Mappings", ICPP 2018).
//!
//! The paper obtains the initial, topology-oblivious partitions of the
//! application graph from KaHIP (and, for case c1, from SCOTCH's mapping
//! routine). Neither tool is linkable here, so this crate implements the same
//! classical multilevel recipe natively:
//!
//! 1. **Coarsening** — repeated heavy-edge matching and contraction
//!    ([`matching`], [`coarsen`]) until the graph is small,
//! 2. **Initial partitioning** — greedy graph growing from multiple random
//!    seeds ([`initial`]),
//! 3. **Uncoarsening + refinement** — projection of the coarse bisection back
//!    through the hierarchy with boundary Fiduccia–Mattheyses refinement at
//!    every level ([`fm`]),
//! 4. **k-way** — recursive bisection with proportional target weights
//!    ([`recursive`]), plus a final greedy k-way boundary pass
//!    ([`kway_refine`]).
//!
//! The entry point is [`partition()`] with a [`PartitionConfig`]; the result
//! is a [`Partition`] (block assignment plus quality accessors).
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod coarsen;
pub mod fm;
pub mod initial;
pub mod kway_refine;
pub mod matching;
pub mod multilevel;
pub mod partition;
pub mod recursive;

pub use partition::Partition;

use tie_graph::Graph;

/// Configuration for the multilevel partitioner.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Number of blocks `k`.
    pub k: usize,
    /// Allowed imbalance ε: every block weight may be at most
    /// `(1 + ε) * ceil(total_weight / k)` (Eq. (1) of the paper).
    pub epsilon: f64,
    /// Seed for all randomized components (matching order, initial seeds).
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig::new(2, 0)
    }
}

impl PartitionConfig {
    /// Convenience constructor: `k` blocks, 3 % imbalance (the paper's
    /// setting), given seed.
    pub fn new(k: usize, seed: u64) -> Self {
        PartitionConfig {
            k,
            epsilon: 0.03,
            seed,
        }
    }

    /// Sets the allowed imbalance.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }
}

/// Partitions `graph` into `config.k` blocks, aiming to minimize the edge cut
/// subject to the balance constraint. This is the KaHIP stand-in used to
/// produce the initial partitions for experimental cases c2–c4.
pub fn partition(graph: &Graph, config: &PartitionConfig) -> Partition {
    recursive::recursive_bisection(graph, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;

    #[test]
    fn default_config_is_papers_setting() {
        let c = PartitionConfig::default();
        assert!((c.epsilon - 0.03).abs() < 1e-12);
    }

    #[test]
    fn partition_smoke_k4() {
        let g = generators::grid2d(8, 8);
        let p = partition(&g, &PartitionConfig::new(4, 7));
        assert_eq!(p.k(), 4);
        assert_eq!(p.assignment().len(), 64);
        assert!(
            p.is_balanced(&g, 0.03 + 1e-9),
            "imbalance {}",
            p.imbalance(&g)
        );
        // A sane 4-way cut of an 8x8 grid is well below the total edge count.
        assert!(p.edge_cut(&g) <= 40, "cut {}", p.edge_cut(&g));
    }
}
