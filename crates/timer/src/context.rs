//! Per-topology state for the TIMER search.
//!
//! The one thing TIMER derives from the *processor* graph alone is its
//! partial-cube labeling, and recognizing it is the expensive part of
//! preparing a topology. A [`TopologyContext`] holds that labeling so a
//! long-running service can recognize a topology once: the `mapd` service
//! keeps contexts in a keyed per-topology cache and hands their labeling to
//! its pipeline for every later request.
//!
//! The type is one field, and it is kept only because the end-to-end
//! benchmark's replay still builds contexts and calls
//! `Timer::enhance_with_context`. Both go with the replay; the `mapd` cache
//! then holds the labeling itself.

use tie_graph::Graph;
use tie_topology::{recognize_partial_cube, PartialCubeLabeling};

use crate::error::TieError;

/// The partial-cube labeling of one processor graph, recognized once and
/// shared (read-only, through an `Arc`) by every enhancement against it.
#[derive(Debug)]
pub struct TopologyContext {
    pcube: PartialCubeLabeling,
}

impl TopologyContext {
    /// Wraps an already-recognized partial-cube labeling.
    pub fn new(pcube: PartialCubeLabeling) -> Self {
        TopologyContext { pcube }
    }

    /// Recognizes `gp` as a partial cube and builds a context for it.
    ///
    /// # Errors
    /// [`TieError::Recognition`] when `gp` is not a partial cube.
    pub fn recognize(gp: &Graph) -> Result<Self, TieError> {
        Ok(TopologyContext::new(recognize_partial_cube(gp)?))
    }

    /// The partial-cube labeling of the processor graph.
    pub fn pcube(&self) -> &PartialCubeLabeling {
        &self.pcube
    }

    /// Number of PEs of the underlying topology.
    pub fn num_pes(&self) -> usize {
        self.pcube.num_pes()
    }
}
