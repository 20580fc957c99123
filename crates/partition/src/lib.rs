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
//! The hot kernels update their state instead of recomputing it: FM keeps
//! every vertex's gain and boundary count current across moves, graph
//! growing keeps a gain array, and each recursive call's induced subgraph
//! is written straight into CSR ([`tie_graph::induced_subgraph`]). Each is
//! pinned by an oracle proptest against the recomputing version it
//! replaced. FM also ends a pass 200 moves after its best cut instead of
//! at an empty queue, as METIS and KaHIP do ([`fm`]). That takes about a
//! third off `partition()` on the medium PGPgiantcompo stand-in (k = 64:
//! 136–138 to 89–91 ms on 2 vCPUs) and kept both pinned partitions, the
//! quality matrix's and all but one of the 36 end-to-end benchmark inputs
//! at seeds 1–3 unchanged; the tiny web-Google stand-in at seed 3 and
//! k = 64 cuts 27,079 edges instead of 26,977.
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
#[cfg(test)]
mod test_graphs;

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

    /// A heavy edge weight must not size FM's gain buckets: at weights 10^9
    /// and 10^12 the bucket array would need tens of GB.
    #[test]
    fn heavy_edge_weight_partitions_quickly_and_stays_uncut() {
        for heavy in [1_000_000_000u64, 1_000_000_000_000] {
            let mut b = tie_graph::GraphBuilder::new(200);
            for v in 0..199u32 {
                b.add_edge(v, v + 1, if v == 99 { heavy } else { 1 });
            }
            let g = b.build();
            let p = partition(&g, &PartitionConfig::new(4, 7));
            assert_eq!(p.num_nonempty_blocks(), 4);
            assert!(
                p.is_balanced(&g, 0.03 + 1e-9),
                "imbalance {}",
                p.imbalance(&g)
            );
            assert_eq!(p.block_of(99), p.block_of(100), "heavy edge {heavy} cut");
        }
    }
}
