//! End-to-end benchmark of the mapping service.
//!
//! Three closed-loop workloads drive the real user paths — in-process
//! `tie_mapd::Service::execute` (what `map_file` runs) and the `mapd`
//! daemon through `tie_mapd::client` — and report user-visible metrics with
//! tracing off. A separate traced run replays each request step by step
//! through the public layer functions and times every call from here, which
//! gives the per-layer numbers. `BENCHMARK.json` at the repository root
//! lists the metrics; `predictions.json` beside this crate says which
//! end-to-end metric each layer metric should move, and where not.
#![forbid(unsafe_code)]

pub mod host;
pub mod replay;
pub mod run;
pub mod served;
pub mod stats;
pub mod workload;
