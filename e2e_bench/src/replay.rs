//! The traced replay: one request taken step by step through the public
//! layer functions `Service::execute` composes, each call timed from here.
//! Nothing inside the program is instrumented beyond what it already
//! reports (`TimerResult.telemetry` and the `speculation` trace events).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tie_fault::FaultHandle;
use tie_graph::{io, Graph, GraphBuilder};
use tie_mapd::protocol::{GraphSource, MapRequest, MapResponse, QualitySummary, Request, Response};
use tie_mapd::topo::parse_topology;
use tie_mapd::MapCase;
use tie_mapping::{drb::drb_mapping, greedy, identity_mapping, Mapping};
use tie_metrics::{evaluate, MappingQuality};
use tie_partition::{partition, PartitionConfig};
use tie_timer::{Timer, TimerConfig, TopologyContext};
use tie_trace::{MemorySink, PhaseTimes, TraceEvent, TraceHandle, TraceLevel};

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Loads a request's graph exactly as the service does.
///
/// # Errors
/// Out-of-range inline edges and unreadable files.
pub fn load_graph(src: &GraphSource) -> Result<Graph, String> {
    match src {
        GraphSource::Inline {
            num_vertices,
            edges,
        } => {
            let mut b = GraphBuilder::new(*num_vertices);
            for &(u, v, w) in edges {
                if (u as usize) >= *num_vertices || (v as usize) >= *num_vertices {
                    return Err(format!("edge ({u}, {v}) out of range"));
                }
                b.add_edge(u, v, w);
            }
            Ok(b.build())
        }
        GraphSource::Path(path) => {
            let faults = FaultHandle::off();
            let loaded = if path.ends_with(".metis") || path.ends_with(".graph") {
                io::read_metis_with(path, &faults)
            } else {
                io::read_edge_list_with(path, &faults)
            };
            loaded.map_err(|e| format!("cannot read graph {path:?}: {e}"))
        }
    }
}

/// The response's view of a mapping's quality.
pub fn summarize(q: &MappingQuality) -> QualitySummary {
    QualitySummary {
        coco: q.coco,
        edge_cut: q.edge_cut,
        congestion: q.congestion,
        imbalance: q.imbalance,
    }
}

/// Per-request layer timings and counts of one replay. Times in ms.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Wall time from decode start to encode end.
    pub wall_ms: f64,
    /// `Request::from_json` of the request frame payload.
    pub decode_ms: f64,
    /// Graph load (`GraphBuilder` for inline graphs, METIS read for files).
    pub load_ms: f64,
    /// `parse_topology` plus the context lookup.
    pub topology_ms: f64,
    /// `tie_partition::partition`.
    pub partition_ms: f64,
    /// The initial mapping of the request's case.
    pub initial_ms: f64,
    /// `Timer::enhance_with_context`.
    pub enhance_ms: f64,
    /// Both `tie_metrics::evaluate` calls.
    pub evaluate_ms: f64,
    /// `Response::to_json`.
    pub encode_ms: f64,
    /// Request plus response payload bytes.
    pub frame_bytes: usize,
    /// TIMER's own per-phase breakdown (`telemetry.phases`).
    pub phases: PhaseTimes,
    /// Hierarchy rounds offered.
    pub nh: usize,
    /// Hierarchy rounds kept.
    pub accepted: usize,
    /// Vertices repaired by the bijection repair, all rounds.
    pub repaired: usize,
    /// Label swaps, all sweeps.
    pub swaps: usize,
    /// Rounds run inside speculative batches.
    pub spec_executed: usize,
    /// Of those, rounds committed.
    pub spec_committed: usize,
}

impl Replay {
    /// Sum of the timed calls `Service::execute` itself makes.
    pub fn execute_children_ms(&self) -> f64 {
        self.load_ms
            + self.topology_ms
            + self.partition_ms
            + self.initial_ms
            + self.enhance_ms
            + self.evaluate_ms
    }

    /// Sum of every timed call of the replay.
    pub fn timed_ms(&self) -> f64 {
        self.decode_ms + self.execute_children_ms() + self.encode_ms
    }
}

/// Replays requests against its own cold-built topology contexts.
#[derive(Debug)]
pub struct Replayer {
    contexts: BTreeMap<String, TopologyContext>,
}

impl Replayer {
    /// Recognizes every topology once. Returns the replayer and the total
    /// recognition time in ms.
    ///
    /// # Errors
    /// Unknown descriptors and non-partial-cube topologies.
    pub fn new(topologies: &[String]) -> Result<(Replayer, f64), String> {
        let mut contexts = BTreeMap::new();
        let mut recognize_ms = 0.0;
        for spec in topologies {
            let topo = parse_topology(spec)?;
            let t = Instant::now();
            let ctx = TopologyContext::recognize(&topo.graph).map_err(|e| e.to_string())?;
            recognize_ms += ms_since(t);
            contexts.insert(topo.name, ctx);
        }
        Ok((Replayer { contexts }, recognize_ms))
    }

    /// Replays `req` step by step. Returns the timings and the response the
    /// replay assembled, as decoded from its own encoding (cache disposition
    /// `"hit"`).
    ///
    /// # Errors
    /// Any step failing; the message names the step.
    pub fn replay(&self, req: &MapRequest) -> Result<(Replay, MapResponse), String> {
        let payload = Request::Map(Box::new(req.clone())).to_json();
        let mut r = Replay::default();
        let start = Instant::now();

        let t = Instant::now();
        let req = match Request::from_json(&payload) {
            Ok(Request::Map(m)) => m,
            Ok(_) => return Err("decode: not a map request".to_string()),
            Err(e) => return Err(format!("decode: {e}")),
        };
        r.decode_ms = ms_since(t);

        let t = Instant::now();
        let ga = load_graph(&req.graph).map_err(|e| format!("load: {e}"))?;
        r.load_ms = ms_since(t);

        let t = Instant::now();
        let case = MapCase::parse(&req.case).ok_or("unknown case")?;
        let topo = parse_topology(&req.topology)?;
        let ctx = self
            .contexts
            .get(&topo.name)
            .ok_or_else(|| format!("no context for {}", topo.name))?;
        r.topology_ms = ms_since(t);

        let t = Instant::now();
        let part = partition(
            &ga,
            &PartitionConfig {
                epsilon: req.eps,
                ..PartitionConfig::new(topo.num_pes(), req.seed)
            },
        );
        r.partition_ms = ms_since(t);

        let t = Instant::now();
        let initial = match case {
            MapCase::C1Drb => drb_mapping(&ga, &part, &topo.graph, req.seed),
            MapCase::C2Identity => identity_mapping(&part, topo.num_pes()),
            MapCase::C3GreedyAllC => greedy::greedy_allc_mapping(&ga, &part, &topo.graph),
            MapCase::C4GreedyMin => greedy::greedy_min_mapping(&ga, &part, &topo.graph),
        };
        r.initial_ms = ms_since(t);

        // Speculation events are the only trace input the replay needs, and
        // a single-threaded run never speculates: leave tracing off there.
        let sink = Arc::new(MemorySink::default());
        let mut cfg = TimerConfig::new(req.nh, req.seed)
            .with_threads(req.threads)
            .with_batch(req.batch);
        if req.threads > 1 {
            cfg = cfg.with_trace(TraceHandle::new(sink.clone(), TraceLevel::Phase));
        }
        let t = Instant::now();
        let result = Timer::new(cfg)
            .enhance_with_context(&ga, ctx, &initial)
            .map_err(|e| format!("enhance: {e}"))?;
        r.enhance_ms = ms_since(t);

        let t = Instant::now();
        let before = evaluate(&ga, &topo.graph, &initial);
        let after = evaluate(&ga, &topo.graph, &result.mapping);
        r.evaluate_ms = ms_since(t);

        let response = MapResponse {
            cache: "hit".to_string(),
            stop_reason: result.stop_reason.name().to_string(),
            hierarchies_accepted: result.hierarchies_accepted,
            total_swaps: result.total_swaps,
            initial: summarize(&before),
            enhanced: summarize(&after),
            mapping: result.mapping.assignment().to_vec(),
        };
        let t = Instant::now();
        let encoded = Response::Map(Box::new(response)).to_json();
        r.encode_ms = ms_since(t);
        r.wall_ms = ms_since(start);

        r.frame_bytes = payload.len() + encoded.len();
        r.phases = result.telemetry.phases.clone();
        r.nh = req.nh;
        r.accepted = result.hierarchies_accepted;
        r.repaired = result.total_repaired;
        r.swaps = result.total_swaps;
        for ev in sink.events() {
            if let TraceEvent::Speculation {
                batch_len,
                committed,
                ..
            } = ev.event
            {
                r.spec_executed += batch_len;
                r.spec_committed += committed;
            }
        }
        match Response::from_json(&encoded) {
            Ok(Response::Map(m)) => Ok((r, *m)),
            _ => Err("encode: response does not parse back".to_string()),
        }
    }
}

/// Checks a completed response against the request that produced it:
/// mapping shape, `evaluate` reproducing the enhanced summary, the label
/// multiset (hence imbalance) kept by TIMER, and a full run.
///
/// # Errors
/// The first failed check.
pub fn check_response(req: &MapRequest, resp: &MapResponse) -> Result<(), String> {
    let ga = load_graph(&req.graph)?;
    let topo = parse_topology(&req.topology)?;
    let n = ga.num_vertices();
    let p = topo.num_pes();
    if resp.mapping.len() != n {
        return Err(format!(
            "mapping has {} entries for {n} vertices",
            resp.mapping.len()
        ));
    }
    if let Some(pe) = resp.mapping.iter().find(|&&pe| pe as usize >= p) {
        return Err(format!("PE id {pe} out of range for {p} PEs"));
    }
    let got = summarize(&evaluate(
        &ga,
        &topo.graph,
        &Mapping::new(resp.mapping.clone(), p),
    ));
    let same = |a: &QualitySummary, b: &QualitySummary| {
        a.coco == b.coco
            && a.edge_cut == b.edge_cut
            && a.congestion == b.congestion
            && format!("{:.6}", a.imbalance) == format!("{:.6}", b.imbalance)
    };
    if !same(&got, &resp.enhanced) {
        return Err(format!(
            "evaluate gives {got:?}, response says {:?}",
            resp.enhanced
        ));
    }
    if resp.enhanced.imbalance != resp.initial.imbalance {
        return Err(format!(
            "imbalance moved from {} to {}",
            resp.initial.imbalance, resp.enhanced.imbalance
        ));
    }
    if resp.stop_reason != "completed" {
        return Err(format!("stop reason {:?}", resp.stop_reason));
    }
    Ok(())
}

/// The response as a comparison key: its wire encoding with the cache
/// disposition blanked, so a hit, a miss and a replay compare equal exactly
/// when every result field is byte-identical.
pub fn result_key(resp: &MapResponse) -> String {
    Response::Map(Box::new(MapResponse {
        cache: String::new(),
        ..resp.clone()
    }))
    .to_json()
}
