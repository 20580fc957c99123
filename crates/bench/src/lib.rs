//! # tie-bench
//!
//! Benchmark harness for the TIMER reproduction: the workload catalogue,
//! the sweep over networks × topologies × cases c1–c4 × repetitions,
//! statistics (min/mean/max over repetitions, geometric means over
//! networks) and the writers of the committed artifacts. Every run goes
//! through `tie_mapd::pipeline`, the same two steps `mapd` serves a request
//! with: `map_initial` (partition, µ₁) and `enhance` (TIMER, evaluation).
//!
//! Binaries:
//!
//! * `bench_paper` — the paper's evaluation (Table 1, Figure 5, Table 2 and
//!   the partition times of Table 3) as `BENCH_paper.json`,
//! * `bench_quality` — the TIMER quality matrix, `BENCH_quality.json`,
//! * `bench_timer` — the TIMER perf trajectory, `BENCH_timer.json`,
//! * `map_file` — maps a METIS graph one-shot or through `mapd`.
//!
//! The original evaluation uses 15 real complex networks; those are replaced
//! by seeded synthetic networks of the same structural family (see
//! [`workloads`]).
#![forbid(unsafe_code)]

pub mod harness;
pub mod report;
pub mod stats;
pub mod workloads;

pub use harness::{quality_rows, run_sweep, timing_rows};
pub use stats::{geometric_mean, geometric_std_dev, Summary};
pub use workloads::{paper_networks, quick_networks, NetworkSpec, Scale};
