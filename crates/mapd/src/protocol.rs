//! The `mapd` wire protocol: length-prefixed single-line JSON frames, and
//! the request/response vocabulary both the daemon and the clients speak.
//!
//! # Framing
//!
//! One frame is `<decimal byte length>\n<payload>\n`, where the payload is
//! exactly that many bytes of single-line JSON. The explicit length makes
//! truncated frames detectable (a bare newline protocol would silently
//! accept a cut-off line), and the trailing newline keeps sockets inspectable
//! with `nc -U`. Frames above [`MAX_FRAME_BYTES`] are rejected before any
//! allocation.
//!
//! # Fault injection
//!
//! Every frame read/write probes the shared [`FaultHandle`]: a
//! `delay:socket_io=…` directive stalls the operation, and `io@N` fails the
//! N-th counted IO operation — the same counter the graph readers use, so
//! one `TIE_FAULTS` grammar covers file and socket IO alike.

use std::io::{self, BufRead, Write};

use tie_fault::FaultHandle;

use crate::json::{escape, Json};

/// Upper bound on one frame's payload, checked before allocating.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Writes one frame. Probes `faults` (site `socket_io`, operation counter
/// shared with the graph readers) before touching the stream.
///
/// # Errors
/// Propagates stream errors and injected faults.
pub fn write_frame<W: Write>(w: &mut W, payload: &str, faults: &FaultHandle) -> io::Result<()> {
    faults.delay("socket_io");
    if let Some(err) = faults.io_fault("socket write") {
        return Err(err);
    }
    w.write_all(payload.len().to_string().as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(payload.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean end-of-stream (the peer closed
/// between frames).
///
/// # Errors
/// Propagates stream errors, injected faults, and malformed frames
/// (non-numeric header, oversized length, missing terminator, bad UTF-8).
pub fn read_frame<R: BufRead>(r: &mut R, faults: &FaultHandle) -> io::Result<Option<String>> {
    faults.delay("socket_io");
    if let Some(err) = faults.io_fault("socket read") {
        return Err(err);
    }
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let len: usize = header
        .trim()
        .parse()
        .map_err(|_| invalid(format!("bad frame header {:?}", header.trim())))?;
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
        )));
    }
    let mut payload = vec![0u8; len + 1];
    r.read_exact(&mut payload)?;
    if payload.pop() != Some(b'\n') {
        return Err(invalid("frame payload not newline-terminated".to_string()));
    }
    match String::from_utf8(payload) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(invalid("frame payload is not UTF-8".to_string())),
    }
}

/// Where the application graph of a request comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSource {
    /// The edge list travels inline in the request.
    Inline {
        /// Number of vertices (ids `0..num_vertices`).
        num_vertices: usize,
        /// Undirected weighted edges, each listed once.
        edges: Vec<(u32, u32, u64)>,
    },
    /// A file path readable by the *daemon*: `.metis`/`.graph` files go
    /// through the METIS reader, anything else through the edge-list reader.
    Path(String),
}

/// One mapping request: the full input of a `map_file`-style run.
#[derive(Clone, Debug, PartialEq)]
pub struct MapRequest {
    /// The application graph.
    pub graph: GraphSource,
    /// Topology descriptor (see [`crate::topo::parse_topology`]).
    pub topology: String,
    /// Experimental case: `c1` (DRB), `c2` (identity), `c3` (greedy all-c),
    /// `c4` (greedy min).
    pub case: String,
    /// Number of TIMER hierarchies.
    pub nh: usize,
    /// Partitioning imbalance tolerance.
    pub eps: f64,
    /// Seed for partitioning, initial mapping and TIMER.
    pub seed: u64,
    /// Has no effect beyond being checked to be at least 1: TIMER runs its
    /// rounds one after another. Kept only until the end-to-end benchmark,
    /// which still sends it, drops it.
    pub threads: usize,
    /// Has no effect, like `threads`, and kept for the same reason.
    pub batch: usize,
    /// Whole-request deadline in milliseconds (0 = unbounded). Covers
    /// admission queueing *and* enhancement.
    pub deadline_ms: u64,
}

/// How a shutdown request winds the daemon down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop accepting connections, let in-flight requests finish.
    Drain,
    /// Drain, and also cancel in-flight enhancements (they return
    /// best-so-far with `StopReason::Cancelled`).
    Cancel,
}

impl ShutdownMode {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Cancel => "cancel",
        }
    }

    /// Inverse of [`ShutdownMode::name`].
    pub fn parse(s: &str) -> Option<ShutdownMode> {
        match s {
            "drain" => Some(ShutdownMode::Drain),
            "cancel" => Some(ShutdownMode::Cancel),
            _ => None,
        }
    }
}

/// One request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Map a graph (the payload is boxed: it dominates the enum's size).
    Map(Box<MapRequest>),
    /// Health check; answered with [`Response::Pong`].
    Ping,
    /// Ask the daemon to wind down.
    Shutdown {
        /// Drain or cancel.
        mode: ShutdownMode,
    },
}

/// Objective bookkeeping of one mapping, before or after enhancement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualitySummary {
    /// Communication cost (hop-byte).
    pub coco: u64,
    /// Edge cut.
    pub edge_cut: u64,
    /// Maximum link congestion.
    pub congestion: u64,
    /// Load imbalance.
    pub imbalance: f64,
}

/// Cache counters as they travel in a [`Response::Pong`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStatsWire {
    /// Resident entries.
    pub entries: usize,
    /// Cumulative hits.
    pub hits: u64,
    /// Cumulative misses.
    pub misses: u64,
    /// Cumulative evictions.
    pub evictions: u64,
}

/// The successful answer to a [`Request::Map`].
#[derive(Clone, Debug, PartialEq)]
pub struct MapResponse {
    /// Cache disposition of the topology context: `"hit"` or `"miss"`.
    pub cache: String,
    /// Why the TIMER run stopped (`StopReason::name()`).
    pub stop_reason: String,
    /// Hierarchy rounds whose result was kept.
    pub hierarchies_accepted: usize,
    /// Label swaps across all sweeps.
    pub total_swaps: usize,
    /// Quality of the initial mapping.
    pub initial: QualitySummary,
    /// Quality of the enhanced mapping.
    pub enhanced: QualitySummary,
    /// The enhanced vertex-to-PE assignment, indexed by vertex id.
    pub mapping: Vec<u32>,
}

/// One response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A served mapping.
    Map(Box<MapResponse>),
    /// Health-check answer.
    Pong {
        /// Enhancements currently holding an admission permit.
        in_flight: usize,
        /// Cache counters since daemon start.
        cache: CacheStatsWire,
    },
    /// Shutdown acknowledged; the daemon stops accepting and drains.
    ShuttingDown {
        /// Echo of the requested mode.
        mode: String,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// One-line description.
        message: String,
    },
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn field_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

impl GraphSource {
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        match self {
            GraphSource::Inline {
                num_vertices,
                edges,
            } => {
                let mut s = format!("{{\"num_vertices\": {num_vertices}, \"edges\": [");
                for (i, (u, v, w)) in edges.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "[{u}, {v}, {w}]");
                }
                s.push_str("]}");
                s
            }
            GraphSource::Path(path) => format!("{{\"path\": \"{}\"}}", escape(path)),
        }
    }

    fn from_json(v: &Json) -> Result<GraphSource, String> {
        if let Some(path) = v.get("path").and_then(Json::as_str) {
            return Ok(GraphSource::Path(path.to_string()));
        }
        let num_vertices = field_usize(v, "num_vertices")?;
        let raw = v
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing or non-array field \"edges\"".to_string())?;
        let mut edges = Vec::with_capacity(raw.len());
        for e in raw {
            let triple = e.as_arr().filter(|a| a.len() == 3);
            let parsed = triple.and_then(|a| {
                Some((
                    u32::try_from(a[0].as_u64()?).ok()?,
                    u32::try_from(a[1].as_u64()?).ok()?,
                    a[2].as_u64()?,
                ))
            });
            match parsed {
                Some(edge) => edges.push(edge),
                None => return Err("edges must be [u, v, w] integer triples".to_string()),
            }
        }
        Ok(GraphSource::Inline {
            num_vertices,
            edges,
        })
    }
}

impl Request {
    /// Serializes the request as one line of JSON.
    pub fn to_json(&self) -> String {
        match self {
            Request::Map(m) => format!(
                "{{\"op\": \"map\", \"topology\": \"{}\", \"case\": \"{}\", \
                 \"nh\": {}, \"eps\": {:?}, \"seed\": {}, \"threads\": {}, \
                 \"batch\": {}, \"deadline_ms\": {}, \"graph\": {}}}",
                escape(&m.topology),
                escape(&m.case),
                m.nh,
                m.eps,
                m.seed,
                m.threads,
                m.batch,
                m.deadline_ms,
                m.graph.to_json()
            ),
            Request::Ping => "{\"op\": \"ping\"}".to_string(),
            Request::Shutdown { mode } => {
                format!("{{\"op\": \"shutdown\", \"mode\": \"{}\"}}", mode.name())
            }
        }
    }

    /// Parses a request frame.
    ///
    /// # Errors
    /// A one-line message naming the first malformed field.
    pub fn from_json(payload: &str) -> Result<Request, String> {
        let v = Json::parse(payload)?;
        match v.get("op").and_then(Json::as_str) {
            Some("ping") => Ok(Request::Ping),
            Some("shutdown") => {
                let mode = match v.get("mode").and_then(Json::as_str) {
                    None => ShutdownMode::Drain,
                    Some(s) => ShutdownMode::parse(s)
                        .ok_or_else(|| format!("unknown shutdown mode {s:?}"))?,
                };
                Ok(Request::Shutdown { mode })
            }
            Some("map") => {
                let graph = v
                    .get("graph")
                    .ok_or_else(|| "missing field \"graph\"".to_string())
                    .and_then(GraphSource::from_json)?;
                Ok(Request::Map(Box::new(MapRequest {
                    graph,
                    topology: field_str(&v, "topology")?,
                    case: field_str(&v, "case")?,
                    nh: field_usize(&v, "nh")?,
                    eps: field_f64(&v, "eps")?,
                    seed: field_u64(&v, "seed")?,
                    threads: field_usize(&v, "threads")?,
                    batch: field_usize(&v, "batch")?,
                    deadline_ms: field_u64(&v, "deadline_ms")?,
                })))
            }
            Some(other) => Err(format!("unknown op {other:?}")),
            None => Err("missing or non-string field \"op\"".to_string()),
        }
    }
}

impl QualitySummary {
    fn to_json(self) -> String {
        format!(
            "{{\"coco\": {}, \"edge_cut\": {}, \"congestion\": {}, \"imbalance\": {:.6}}}",
            self.coco, self.edge_cut, self.congestion, self.imbalance
        )
    }

    fn from_json(v: &Json) -> Result<QualitySummary, String> {
        Ok(QualitySummary {
            coco: field_u64(v, "coco")?,
            edge_cut: field_u64(v, "edge_cut")?,
            congestion: field_u64(v, "congestion")?,
            imbalance: field_f64(v, "imbalance")?,
        })
    }
}

impl From<crate::cache::CacheStats> for CacheStatsWire {
    fn from(s: crate::cache::CacheStats) -> Self {
        CacheStatsWire {
            entries: s.entries,
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
        }
    }
}

impl CacheStatsWire {
    fn to_json(self) -> String {
        format!(
            "{{\"entries\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
            self.entries, self.hits, self.misses, self.evictions
        )
    }

    fn from_json(v: &Json) -> Result<CacheStatsWire, String> {
        Ok(CacheStatsWire {
            entries: field_usize(v, "entries")?,
            hits: field_u64(v, "hits")?,
            misses: field_u64(v, "misses")?,
            evictions: field_u64(v, "evictions")?,
        })
    }
}

impl Response {
    /// Serializes the response as one line of JSON. This is the single
    /// serialization path shared by the daemon and `map_file --json`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        match self {
            Response::Map(m) => {
                let mut s = format!(
                    "{{\"status\": \"ok\", \"op\": \"map\", \"cache\": \"{}\", \
                     \"stop_reason\": \"{}\", \"hierarchies_accepted\": {}, \
                     \"total_swaps\": {}, \"initial\": {}, \"enhanced\": {}, \
                     \"mapping\": [",
                    escape(&m.cache),
                    escape(&m.stop_reason),
                    m.hierarchies_accepted,
                    m.total_swaps,
                    m.initial.to_json(),
                    m.enhanced.to_json()
                );
                for (i, pe) in m.mapping.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "{pe}");
                }
                s.push_str("]}");
                s
            }
            Response::Pong { in_flight, cache } => format!(
                "{{\"status\": \"ok\", \"op\": \"pong\", \"in_flight\": {}, \"cache\": {}}}",
                in_flight,
                cache.to_json()
            ),
            Response::ShuttingDown { mode } => format!(
                "{{\"status\": \"ok\", \"op\": \"shutdown\", \"mode\": \"{}\"}}",
                escape(mode)
            ),
            Response::Error { message } => {
                format!(
                    "{{\"status\": \"error\", \"error\": \"{}\"}}",
                    escape(message)
                )
            }
        }
    }

    /// Parses a response frame.
    ///
    /// # Errors
    /// A one-line message naming the first malformed field.
    pub fn from_json(payload: &str) -> Result<Response, String> {
        let v = Json::parse(payload)?;
        match v.get("status").and_then(Json::as_str) {
            Some("error") => Ok(Response::Error {
                message: field_str(&v, "error")?,
            }),
            Some("ok") => match v.get("op").and_then(Json::as_str) {
                Some("pong") => Ok(Response::Pong {
                    in_flight: field_usize(&v, "in_flight")?,
                    cache: v
                        .get("cache")
                        .ok_or_else(|| "missing field \"cache\"".to_string())
                        .and_then(CacheStatsWire::from_json)?,
                }),
                Some("shutdown") => Ok(Response::ShuttingDown {
                    mode: field_str(&v, "mode")?,
                }),
                Some("map") => {
                    let raw = v
                        .get("mapping")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| "missing or non-array field \"mapping\"".to_string())?;
                    let mut mapping = Vec::with_capacity(raw.len());
                    for pe in raw {
                        match pe.as_u64().and_then(|p| u32::try_from(p).ok()) {
                            Some(p) => mapping.push(p),
                            None => return Err("mapping entries must be u32".to_string()),
                        }
                    }
                    Ok(Response::Map(Box::new(MapResponse {
                        cache: field_str(&v, "cache")?,
                        stop_reason: field_str(&v, "stop_reason")?,
                        hierarchies_accepted: field_usize(&v, "hierarchies_accepted")?,
                        total_swaps: field_usize(&v, "total_swaps")?,
                        initial: v
                            .get("initial")
                            .ok_or_else(|| "missing field \"initial\"".to_string())
                            .and_then(QualitySummary::from_json)?,
                        enhanced: v
                            .get("enhanced")
                            .ok_or_else(|| "missing field \"enhanced\"".to_string())
                            .and_then(QualitySummary::from_json)?,
                        mapping,
                    })))
                }
                other => Err(format!("unknown response op {other:?}")),
            },
            other => Err(format!("unknown response status {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map_request() -> Request {
        Request::Map(Box::new(MapRequest {
            graph: GraphSource::Inline {
                num_vertices: 4,
                edges: vec![(0, 1, 2), (1, 2, 1), (2, 3, 5)],
            },
            topology: "grid2x2".to_string(),
            case: "c2".to_string(),
            nh: 10,
            eps: 0.03,
            seed: 7,
            threads: 2,
            batch: 0,
            deadline_ms: 0,
        }))
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            sample_map_request(),
            Request::Ping,
            Request::Shutdown {
                mode: ShutdownMode::Drain,
            },
            Request::Shutdown {
                mode: ShutdownMode::Cancel,
            },
            Request::Map(Box::new(MapRequest {
                graph: GraphSource::Path("nets/app.metis".to_string()),
                topology: "hypercube4".to_string(),
                case: "c1".to_string(),
                nh: 50,
                eps: 0.1,
                seed: 42,
                threads: 8,
                batch: 4,
                deadline_ms: 5000,
            })),
        ] {
            let json = req.to_json();
            assert!(!json.contains('\n'), "frames must be single-line: {json}");
            assert_eq!(Request::from_json(&json).unwrap(), req, "{json}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Map(Box::new(MapResponse {
                cache: "miss".to_string(),
                stop_reason: "completed".to_string(),
                hierarchies_accepted: 3,
                total_swaps: 812,
                initial: QualitySummary {
                    coco: 1000,
                    edge_cut: 50,
                    congestion: 90,
                    imbalance: 0.03125,
                },
                enhanced: QualitySummary {
                    coco: 900,
                    edge_cut: 48,
                    congestion: 80,
                    imbalance: 0.03125,
                },
                mapping: vec![0, 1, 1, 3, 2],
            })),
            Response::Pong {
                in_flight: 2,
                cache: CacheStatsWire {
                    entries: 1,
                    hits: 4,
                    misses: 1,
                    evictions: 0,
                },
            },
            Response::ShuttingDown {
                mode: "drain".to_string(),
            },
            Response::Error {
                message: "bad \"request\"\nwith newline".to_string(),
            },
        ] {
            let json = resp.to_json();
            assert!(!json.contains('\n'), "frames must be single-line: {json}");
            assert_eq!(Response::from_json(&json).unwrap(), resp, "{json}");
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let faults = FaultHandle::off();
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\": \"ping\"}", &faults).unwrap();
        write_frame(&mut buf, "", &faults).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        assert_eq!(
            read_frame(&mut r, &faults).unwrap().as_deref(),
            Some("{\"op\": \"ping\"}")
        );
        assert_eq!(read_frame(&mut r, &faults).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r, &faults).unwrap(), None, "clean EOF");
    }

    #[test]
    fn malformed_frames_are_rejected() {
        let faults = FaultHandle::off();
        for bad in [
            &b"x\npayload\n"[..],     // non-numeric header
            &b"99999999999999\n"[..], // oversized length
            &b"5\nabcde"[..],         // truncated (no terminator)
            &b"4\nabcde\n"[..],       // wrong terminator position
            &b"2\n\xff\xfe\n"[..],    // not UTF-8
        ] {
            let mut r = io::BufReader::new(bad);
            assert!(read_frame(&mut r, &faults).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn socket_faults_fire_through_the_framing_layer() {
        use tie_fault::FaultPlan;
        // io@1 fails the first counted operation — here the frame write.
        let faults = FaultHandle::new(FaultPlan::new().with_io_fault(1));
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, "{}", &faults).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(buf.is_empty(), "nothing may reach the stream");
        // Consumed: the retry succeeds.
        write_frame(&mut buf, "{}", &faults).unwrap();
        assert_eq!(faults.io_faults_fired(), 1);
    }
}
