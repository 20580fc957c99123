//! # tie-bench
//!
//! Experiment harness for the TIMER reproduction: workload catalogue, the
//! sweep over networks × topologies × repetitions for the paper's four
//! cases (c1–c4), statistics (min/mean/max over repetitions, quotients,
//! geometric means) and plain-text table/figure emitters. Every run goes
//! through `tie_mapd::pipeline`, the same two steps `mapd` serves a request
//! with: `map_initial` (partition, µ₁) and `enhance` (TIMER, evaluation).
//!
//! Binaries (each regenerates one artefact of the paper's evaluation):
//!
//! * `table1` — the benchmark-network inventory (Table 1),
//! * `table2` — running-time quotients of TIMER vs the partitioner / the
//!   DRB mapper (Table 2),
//! * `table3` — absolute partitioner running times (Table 3, appendix),
//! * `figure5` — relative Coco and Cut after TIMER for cases c1–c4
//!   (Figures 5a–5d),
//! * `run_all` — everything above in one go (smaller default scale).
//!
//! The original evaluation uses 15 real complex networks; those are replaced
//! by seeded synthetic networks of the same structural family (see
//! [`workloads`]).
#![forbid(unsafe_code)]

pub mod harness;
pub mod report;
pub mod stats;
pub mod workloads;

pub use harness::{parse_options, quality_rows, run_sweep, timing_rows, SweepOptions};
pub use stats::{geometric_mean, geometric_std_dev, Summary};
pub use workloads::{paper_networks, quick_networks, NetworkSpec, Scale};
