//! The request execution path shared by the daemon and the one-shot CLI.
//!
//! [`Service::execute`] is the *only* route from a [`MapRequest`] to a
//! [`MapResponse`]: `mapd` calls it per connection frame, `map_file` calls
//! it once per invocation. One code path is what makes a served mapping
//! byte-identical to the one-shot result for the same request — there is no
//! second pipeline to drift.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tie_fault::FaultHandle;
use tie_graph::{io, Graph, GraphBuilder};
use tie_timer::{CancelToken, TieError, TimerConfig, TopologyContext};
use tie_trace::TraceHandle;

use crate::admission::Admission;
use crate::cache::{CacheStats, TopologyCache};
use crate::pipeline::{self, MapCase};
use crate::protocol::{GraphSource, MapRequest, MapResponse, QualitySummary};
use crate::topo::parse_topology;

/// Refuses an imbalance bound `eps` that is not a finite number `>= 0`: a
/// NaN or negative bound reaches the partitioner as some other bound, and an
/// infinite one puts every vertex on one PE. `Service::execute` checks it,
/// and so does a client before it sends a request.
///
/// # Errors
/// [`ServeError::Invalid`] naming the refused value.
pub fn check_eps(eps: f64) -> Result<(), ServeError> {
    if eps.is_finite() && eps >= 0.0 {
        Ok(())
    } else {
        Err(ServeError::Invalid(format!(
            "eps must be a finite number >= 0, got {eps}"
        )))
    }
}

/// Why a request could not be served.
#[derive(Debug)]
pub enum ServeError {
    /// The request itself is malformed (unknown case/topology, bad graph).
    Invalid(String),
    /// Admission rejected the request (deadline expired while queued).
    Rejected(String),
    /// The pipeline failed with a typed error.
    Tie(TieError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Invalid(m) => write!(f, "invalid request: {m}"),
            ServeError::Rejected(m) => write!(f, "rejected: {m}"),
            ServeError::Tie(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TieError> for ServeError {
    fn from(e: TieError) -> Self {
        ServeError::Tie(e)
    }
}

/// Construction options for a [`Service`].
#[derive(Debug)]
pub struct ServiceOptions {
    /// Topology-cache capacity (contexts held resident).
    pub cache_capacity: usize,
    /// Admission cap (0 = hardware parallelism).
    pub max_inflight: usize,
    /// Flight recorder shared by cache, daemon and TIMER runs.
    pub trace: TraceHandle,
    /// Fault-injection handle shared by readers, framing, cache and TIMER.
    pub faults: FaultHandle,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            cache_capacity: 8,
            max_inflight: 0,
            trace: TraceHandle::off(),
            faults: FaultHandle::off(),
        }
    }
}

/// The mapping service: cache + admission + the execution pipeline.
#[derive(Debug)]
pub struct Service {
    cache: TopologyCache,
    admission: Admission,
    trace: TraceHandle,
    faults: FaultHandle,
    cancel: CancelToken,
}

impl Service {
    /// Builds a service from `opts`.
    pub fn new(opts: ServiceOptions) -> Self {
        Service {
            cache: TopologyCache::new(opts.cache_capacity, opts.trace.clone(), opts.faults.clone()),
            admission: Admission::new(opts.max_inflight),
            trace: opts.trace,
            faults: opts.faults,
            cancel: CancelToken::new(),
        }
    }

    /// Executes one mapping request end to end: admission, graph load and
    /// the cached topology context, then the two [`pipeline`] steps, with
    /// the request deadline checked between them.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] for malformed requests,
    /// [`ServeError::Rejected`] when the deadline expires while queued, and
    /// [`ServeError::Tie`] for pipeline failures.
    pub fn execute(&self, req: &MapRequest) -> Result<MapResponse, ServeError> {
        let case = MapCase::parse(&req.case)
            .ok_or_else(|| ServeError::Invalid(format!("unknown case {:?}", req.case)))?;
        if req.threads == 0 {
            return Err(ServeError::Invalid(
                "threads must be at least 1".to_string(),
            ));
        }
        check_eps(req.eps)?;
        let topo = parse_topology(&req.topology).map_err(ServeError::Invalid)?;
        let deadline =
            (req.deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(req.deadline_ms));

        // The permit spans everything expensive below, so `max_inflight`
        // truly bounds concurrent compute, not just concurrent TIMER runs.
        let _permit = self
            .admission
            .acquire(deadline)
            .map_err(|e| ServeError::Rejected(e.to_string()))?;

        let ga = load_graph(&req.graph, &self.faults)?;
        let (ctx, disposition) = self
            .cache
            .get_or_build(&topo.name, || TopologyContext::recognize(&topo.graph))?;
        if ctx.num_pes() != topo.num_pes() {
            return Err(ServeError::Invalid(format!(
                "cache context for {:?} has {} PEs, topology has {}",
                topo.name,
                ctx.num_pes(),
                topo.num_pes()
            )));
        }

        let initial = pipeline::map_initial(&ga, &topo.graph, case, req.eps, req.seed);

        let mut cfg = TimerConfig::new(req.nh, req.seed)
            .with_trace(self.trace.clone())
            .with_cancel_token(self.cancel.clone())
            .with_faults(self.faults.clone());
        if let Some(t) = deadline {
            let now = Instant::now();
            if now >= t {
                return Err(ServeError::Rejected(
                    "deadline expired before enhancement".to_string(),
                ));
            }
            cfg = cfg.with_deadline(t - now);
        }
        let run = pipeline::enhance(&ga, &topo.graph, ctx.pcube(), &initial.mapping, cfg)?;
        Ok(MapResponse {
            cache: disposition.name().to_string(),
            stop_reason: run.result.stop_reason.name().to_string(),
            hierarchies_accepted: run.result.hierarchies_accepted,
            total_swaps: run.result.total_swaps,
            initial: summarize(&run.initial),
            enhanced: summarize(&run.enhanced),
            mapping: run.result.mapping.assignment().to_vec(),
        })
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Enhancements currently holding an admission permit.
    pub fn in_flight(&self) -> usize {
        self.admission.in_flight()
    }

    /// The resolved admission cap (hardware parallelism when configured 0).
    pub fn admission_capacity(&self) -> usize {
        self.admission.capacity()
    }

    /// The cancellation token a cancel-mode shutdown fires.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The service's flight-recorder handle.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The service's fault-injection handle (shared with the socket layer).
    pub fn faults(&self) -> &FaultHandle {
        &self.faults
    }
}

/// A service behind an `Arc`, as the daemon shares it across connections.
pub type SharedService = Arc<Service>;

fn summarize(q: &tie_metrics::MappingQuality) -> QualitySummary {
    QualitySummary {
        coco: q.coco,
        edge_cut: q.edge_cut,
        congestion: q.congestion,
        imbalance: q.imbalance,
    }
}

fn load_graph(src: &GraphSource, faults: &FaultHandle) -> Result<Graph, ServeError> {
    match src {
        GraphSource::Inline {
            num_vertices,
            edges,
        } => {
            // The rule `read_edge_list` applies to its header: a vertex count
            // beyond both the edge count and 2^20 isolated vertices is an
            // overflow or a typo, refused before anything is allocated.
            if *num_vertices > edges.len().max(1 << 20) {
                return Err(ServeError::Invalid(format!(
                    "{num_vertices} vertices for {} edges: refusing to allocate \
                     for an impossible count",
                    edges.len()
                )));
            }
            let mut b = GraphBuilder::new(*num_vertices);
            for &(u, v, w) in edges {
                if (u as usize) >= *num_vertices || (v as usize) >= *num_vertices {
                    return Err(ServeError::Invalid(format!(
                        "edge ({u}, {v}) out of range for {num_vertices} vertices"
                    )));
                }
                b.add_edge(u, v, w);
            }
            Ok(b.build())
        }
        GraphSource::Path(path) => {
            let loaded = if path.ends_with(".metis") || path.ends_with(".graph") {
                io::read_metis_with(path, faults)
            } else {
                io::read_edge_list_with(path, faults)
            };
            loaded.map_err(|e| ServeError::Invalid(format!("cannot read graph {path:?}: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use tie_graph::generators;

    fn demo_request(seed: u64) -> MapRequest {
        let g = generators::barabasi_albert(200, 3, seed);
        MapRequest {
            graph: GraphSource::Inline {
                num_vertices: g.num_vertices(),
                edges: g.edges().collect(),
            },
            topology: "grid4x4".to_string(),
            case: "c2".to_string(),
            nh: 6,
            eps: 0.03,
            seed,
            threads: 1,
            batch: 0,
            deadline_ms: 0,
        }
    }

    #[test]
    fn execute_serves_a_valid_mapping() {
        let service = Service::new(ServiceOptions::default());
        let resp = service.execute(&demo_request(1)).unwrap();
        assert_eq!(resp.cache, "miss");
        assert_eq!(resp.mapping.len(), 200);
        assert!(resp.mapping.iter().all(|&pe| pe < 16));
        assert!(resp.enhanced.coco <= resp.initial.coco + resp.initial.coco / 10);
        assert_eq!(resp.stop_reason, "completed");
    }

    #[test]
    fn execute_is_deterministic_across_cache_dispositions() {
        let service = Service::new(ServiceOptions::default());
        let req = demo_request(2);
        let miss = service.execute(&req).unwrap();
        let hit = service.execute(&req).unwrap();
        assert_eq!(miss.cache, "miss");
        assert_eq!(hit.cache, "hit");
        assert_eq!(miss.mapping, hit.mapping);
        assert_eq!(miss.enhanced, hit.enhanced);
        assert_eq!(miss.total_swaps, hit.total_swaps);
    }

    #[test]
    fn execute_rejects_malformed_requests() {
        let service = Service::new(ServiceOptions::default());
        let mut bad_case = demo_request(3);
        bad_case.case = "c9".to_string();
        assert!(matches!(
            service.execute(&bad_case),
            Err(ServeError::Invalid(_))
        ));
        let mut bad_topo = demo_request(3);
        bad_topo.topology = "klein4".to_string();
        assert!(matches!(
            service.execute(&bad_topo),
            Err(ServeError::Invalid(_))
        ));
        let mut bad_edge = demo_request(3);
        bad_edge.graph = GraphSource::Inline {
            num_vertices: 4,
            edges: vec![(0, 9, 1)],
        };
        assert!(matches!(
            service.execute(&bad_edge),
            Err(ServeError::Invalid(_))
        ));
        let mut bad_threads = demo_request(3);
        bad_threads.threads = 0;
        assert!(matches!(
            service.execute(&bad_threads),
            Err(ServeError::Invalid(_))
        ));
        // An imbalance bound that is NaN, negative or infinite.
        for eps in [f64::NAN, -1.0, f64::INFINITY] {
            let mut bad_eps = demo_request(3);
            bad_eps.eps = eps;
            let result = service.execute(&bad_eps);
            assert!(
                matches!(&result, Err(ServeError::Invalid(m)) if m.contains("eps")),
                "eps {eps}: {result:?}"
            );
        }
        // The wire decoder reads an overflowing `1e400` as infinity.
        let frame = Request::Map(Box::new(demo_request(3)))
            .to_json()
            .replace("\"eps\": 0.03", "\"eps\": 1e400");
        let Ok(Request::Map(decoded)) = Request::from_json(&frame) else {
            panic!("request does not decode: {frame}");
        };
        assert!(matches!(
            service.execute(&decoded),
            Err(ServeError::Invalid(_))
        ));
    }

    #[test]
    fn eps_must_be_finite_and_non_negative() {
        for eps in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let refusal = check_eps(eps).unwrap_err().to_string();
            assert!(
                refusal.contains("eps must be a finite number >= 0"),
                "{eps}: {refusal}"
            );
        }
        for eps in [0.0, 0.03, 1e308] {
            assert!(check_eps(eps).is_ok(), "{eps}");
        }
    }

    /// Request fields that would size an allocation, or leave no PE to map
    /// to, are refused up front: each of these aborted the process or
    /// panicked.
    #[test]
    fn execute_refuses_oversized_graphs_and_topologies() {
        let service = Service::new(ServiceOptions::default());
        let mut huge_graph = demo_request(3);
        huge_graph.graph = GraphSource::Inline {
            num_vertices: 1 << 40,
            edges: vec![(0, 1, 1)],
        };
        let mut huge_path = demo_request(3);
        huge_path.topology = "path1099511627776".to_string();
        let mut huge_cube = demo_request(3);
        huge_cube.topology = "hypercube21".to_string();
        let mut no_pes = demo_request(3);
        no_pes.topology = "grid0x4".to_string();
        for req in [huge_graph, huge_path, huge_cube, no_pes] {
            let result = service.execute(&req);
            assert!(matches!(result, Err(ServeError::Invalid(_))), "{result:?}");
        }
        // The service still serves afterwards.
        assert!(service.execute(&demo_request(3)).is_ok());
    }

    #[test]
    fn all_cases_execute() {
        let service = Service::new(ServiceOptions::default());
        for case in ["c1", "c2", "c3", "c4"] {
            let mut req = demo_request(4);
            req.case = case.to_string();
            let resp = service.execute(&req).unwrap();
            assert_eq!(resp.mapping.len(), 200, "{case}");
        }
    }

    /// An inline edge weight of 10^9 is served. Edge weights must not size
    /// FM's gain bucket array: uncapped, it would need 48 GB here.
    #[test]
    fn execute_serves_a_heavy_inline_edge_weight() {
        let service = Service::new(ServiceOptions::default());
        let mut req = demo_request(5);
        req.topology = "grid2x2".to_string();
        let edges = (0..199u32)
            .map(|v| (v, v + 1, if v == 99 { 1_000_000_000 } else { 1 }))
            .collect();
        req.graph = GraphSource::Inline {
            num_vertices: 200,
            edges,
        };
        let resp = service.execute(&req).unwrap();
        assert_eq!(resp.mapping.len(), 200);
        assert!(resp.mapping.iter().all(|&pe| pe < 4));
    }
}
