//! # tie-mapd
//!
//! The persistent mapping service: everything between the mapping pipeline
//! and a long-running daemon serving mapping requests over a Unix domain
//! socket.
//!
//! The crate is four layers, each usable on its own:
//!
//! 1. **[`pipeline`]** — the mapping pipeline of Section 7.1 as two steps:
//!    [`pipeline::map_initial`] partitions `Ga` and builds µ₁ for a
//!    [`MapCase`], and [`pipeline::enhance`] runs `Timer::enhance` and
//!    evaluates µ₁ and µ₂. The service, the sweep harness and the bench
//!    binaries all run these two steps.
//! 2. **[`cache`] + [`admission`]** — a keyed, capacity-bounded cache of
//!    [`tie_timer::TopologyContext`]s with single-flight construction, and an
//!    admission gate bounding in-flight enhancements to hardware parallelism
//!    with deadline-aware rejection of queued requests.
//! 3. **[`service`]** — [`Service::execute`]: one [`protocol::MapRequest`]
//!    in, one [`protocol::MapResponse`] out. This is the single code path
//!    shared by the `mapd` daemon and `map_file`'s one-shot mode, which is
//!    what makes a served mapping byte-identical to the one-shot result.
//! 4. **[`server`] + [`client`] + [`protocol`]** — a length-prefixed
//!    newline-JSON framing over a Unix socket, the daemon accept/drain loop,
//!    and a small blocking client.
//!
//! The correctness stance follows `docs/RESILIENCE.md`: every cache is a
//! latency optimization, never a correctness dependency — a cache-hit
//! response is byte-identical to a cache-miss response, and a freshly
//! started daemon answers exactly like one that has been running for days.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod admission;
pub mod cache;
pub mod cli;
#[cfg(unix)]
pub mod client;
pub mod json;
pub mod pipeline;
pub mod protocol;
#[cfg(unix)]
pub mod server;
pub mod service;
pub mod topo;

pub use admission::Admission;
pub use cache::{CacheDisposition, CacheStats, TopologyCache};
pub use pipeline::MapCase;
pub use service::{check_eps, ServeError, Service, ServiceOptions};
