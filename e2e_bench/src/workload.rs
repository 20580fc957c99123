//! The benchmark's workloads and their seeded inputs.

use std::path::Path;

use tie_bench::workloads::{paper_networks, quick_networks, NetworkSpec, Scale};
use tie_graph::{io, Graph};
use tie_mapd::protocol::{GraphSource, MapRequest};

/// One closed-loop workload: who calls, how, and with which TIMER setting.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Stable name (the `--workload` value).
    pub name: &'static str,
    /// Requests go to a spawned `mapd` over its socket instead of an
    /// in-process `Service::execute`.
    pub served: bool,
    /// Concurrent callers (client connections when served). Each waits for
    /// its reply before sending again: a closed loop.
    pub callers: usize,
    /// TIMER worker threads per request.
    pub threads: usize,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "medium-oneshot",
        served: false,
        callers: 1,
        threads: 1,
    },
    Workload {
        name: "served-mix",
        served: true,
        callers: 2,
        threads: 1,
    },
    Workload {
        name: "speculative-small",
        served: false,
        callers: 1,
        threads: 2,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Refuses a configuration that would oversubscribe the host: every
    /// caller can run `threads` TIMER workers at once.
    ///
    /// # Errors
    /// When `callers × threads` exceeds `hardware_threads`.
    pub fn check_fits(&self, hardware_threads: usize) -> Result<(), String> {
        let busy = self.callers * self.threads;
        if busy > hardware_threads {
            return Err(format!(
                "workload {} needs {} callers x {} TIMER threads = {busy} hardware threads, \
                 the host has {hardware_threads}",
                self.name, self.callers, self.threads
            ));
        }
        Ok(())
    }
}

/// The generated request set of one run.
#[derive(Debug)]
pub struct Inputs {
    /// Distinct requests; callers cycle through them in order.
    pub requests: Vec<MapRequest>,
    /// Topology descriptors the requests use, each once.
    pub topologies: Vec<String>,
}

const CASES: [&str; 4] = ["c1", "c2", "c3", "c4"];

/// The stand-in network `spec` with its generator seed moved by `seed`, so
/// every benchmark seed draws a fresh graph of the same family and size.
fn seeded_graph(spec: &NetworkSpec, seed: u64, scale: Scale) -> Graph {
    let mut spec = spec.clone();
    spec.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    spec.build(scale)
}

fn inline(g: &Graph) -> GraphSource {
    GraphSource::Inline {
        num_vertices: g.num_vertices(),
        edges: g.edges().collect(),
    }
}

fn request(
    graph: GraphSource,
    topology: &str,
    case: &str,
    nh: usize,
    seed: u64,
    threads: usize,
) -> MapRequest {
    MapRequest {
        graph,
        topology: topology.to_string(),
        case: case.to_string(),
        nh,
        eps: 0.03,
        seed,
        threads,
        batch: 0,
        deadline_ms: 0,
    }
}

fn pgp() -> NetworkSpec {
    paper_networks()
        .into_iter()
        .find(|s| s.name == "PGPgiantcompo")
        .expect("PGPgiantcompo is in the catalogue")
}

/// Builds the inputs of `w` from `seed`. `smoke` shrinks every workload to
/// tiny graphs and few hierarchies while keeping its shape. Files go to
/// `work_dir`.
///
/// # Errors
/// Failing to write the METIS file.
pub fn generate(w: &Workload, seed: u64, smoke: bool, work_dir: &Path) -> Result<Inputs, String> {
    let nh = |full: usize| if smoke { 4 } else { full };
    let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    match w.name {
        "medium-oneshot" => {
            let scale = if smoke { Scale::Tiny } else { Scale::Medium };
            let g = seeded_graph(&pgp(), seed, scale);
            let path = work_dir.join(format!("medium-{seed}.metis"));
            io::write_metis(&g, &path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let source = GraphSource::Path(path.to_string_lossy().into_owned());
            let requests = CASES
                .iter()
                .map(|c| request(source.clone(), "grid8x8", c, nh(40), seed, w.threads))
                .collect();
            Ok(Inputs {
                requests,
                topologies: strs(&["grid8x8"]),
            })
        }
        "served-mix" => {
            let topologies = ["grid8x8", "torus4x4x4", "hypercube6", "torus16x16"];
            let sources: Vec<GraphSource> = quick_networks()
                .iter()
                .map(|spec| inline(&seeded_graph(spec, seed, Scale::Tiny)))
                .collect();
            // Topology-major order: consecutive requests use different
            // networks, so the two connections rarely run the heaviest
            // network at the same time and the tail does not hinge on how
            // often they happen to collide.
            let mut requests = Vec::new();
            for (j, topo) in topologies.iter().enumerate() {
                for (i, source) in sources.iter().enumerate() {
                    let case = CASES[(i + j) % CASES.len()];
                    requests.push(request(source.clone(), topo, case, nh(10), seed, w.threads));
                }
            }
            Ok(Inputs {
                requests,
                topologies: strs(&topologies),
            })
        }
        "speculative-small" => {
            let scale = if smoke { Scale::Tiny } else { Scale::Small };
            let source = inline(&seeded_graph(&pgp(), seed, scale));
            let topologies = ["hypercube8", "torus16x16"];
            let mut requests = Vec::new();
            for topo in topologies {
                for case in CASES {
                    requests.push(request(source.clone(), topo, case, nh(40), seed, w.threads));
                }
            }
            Ok(Inputs {
                requests,
                topologies: strs(&topologies),
            })
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}
