//! # tie-topology
//!
//! Processor-graph topologies and partial-cube machinery for the TIMER
//! reproduction ("Topology-induced Enhancement of Mappings", ICPP 2018).
//!
//! The paper's central structural assumption is that the processor graph
//! `Gp` is a *partial cube*: an isometric subgraph of a hypercube. For such
//! graphs the vertices can be labelled with bitvectors so that graph distance
//! equals Hamming distance between labels (Definition 2.2). This crate
//! provides:
//!
//! * [`builders`] — the processor topologies used in the paper's evaluation
//!   (2D/3D grids, 2D/3D tori, hypercubes) plus trees and paths, wrapped in a
//!   [`Topology`] carrying name and shape metadata,
//! * [`partial_cube`] — bipartiteness test, Djoković relation, partial-cube
//!   recognition and the vertex labelling `lp(·)` of Section 3,
//! * [`label`] — bitvector label utilities (Hamming distance, digit
//!   permutations) shared with `tie-timer`, whose label-prefix hierarchies
//!   are the permutation-induced hierarchies of Section 2 (Figure 2).
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod builders;
pub mod label;
pub mod partial_cube;

pub use builders::Topology;
pub use label::{hamming, permute_label_bits, Label};
pub use partial_cube::{
    is_bipartite, recognize_partial_cube, verify_labeling, PartialCubeLabeling, RecognitionError,
};
