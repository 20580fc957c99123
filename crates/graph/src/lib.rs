//! # tie-graph
//!
//! Graph substrate for the TIMER reproduction ("Topology-induced Enhancement
//! of Mappings", ICPP 2018).
//!
//! The crate provides the data structures and algorithms every other crate in
//! the workspace builds on:
//!
//! * [`Graph`] — an undirected, weighted graph in compressed sparse row (CSR)
//!   form with vertex and edge weights,
//! * [`GraphBuilder`] — an incremental builder that deduplicates parallel
//!   edges and accumulates their weights,
//! * [`generators`] — seeded synthetic-network generators (Erdős–Rényi,
//!   Barabási–Albert, Watts–Strogatz, R-MAT, grids, trees, …) used to stand in
//!   for the paper's complex-network benchmark set,
//! * [`traversal`] — BFS distances, connected components,
//! * [`contract`] — the allocation-free, sort-based CSR contraction kernel
//!   (`contract_into` + `ContractScratch`), the one code path that contracts
//!   a graph along a vertex map: the communication graph, the partitioner's
//!   coarse levels and TIMER's label-prefix hierarchy all go through it,
//! * [`bucket_queue`] — the gain bucket priority queue used by the
//!   Fiduccia–Mattheyses refinement in `tie-partition`,
//! * [`io`] — METIS-format and edge-list readers/writers.
//!
//! All vertex identifiers are `u32` ([`NodeId`]); all weights are `u64`
//! ([`Weight`]). Gains (signed weight differences) are `i64`.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod bucket_queue;
pub mod builder;
pub mod contract;
pub mod csr;
pub mod generators;
pub mod io;
#[cfg(test)]
mod quotient;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use contract::{contract_into, ContractScratch};
pub use csr::{Graph, NodeId, Weight};
pub use subgraph::{induced_subgraph, Subgraph};
pub use traversal::{bfs_distances, connected_components, is_connected};

/// Signed weight type used for gains and deltas of objective functions.
pub type Gain = i64;

/// Infinity marker for unreachable BFS distances.
pub const UNREACHABLE: u32 = u32::MAX;
