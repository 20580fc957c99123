//! Workspace-level acceptance test for the mapping service: the served
//! result must be byte-identical to the one-shot result for the same
//! request, on a cache miss AND on a cache hit — the invariant the CI
//! smoke job re-checks over a real socket.

use tie_graph::{generators, Graph};
use tie_mapd::protocol::{GraphSource, MapRequest, QualitySummary};
use tie_mapd::{MapCase, Service, ServiceOptions};
use tie_mapping::Mapping;
use tie_metrics::evaluate;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{Timer, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};

fn graph(seed: u64) -> Graph {
    generators::barabasi_albert(500, 4, seed)
}

fn request(case: &str, seed: u64, threads: usize) -> MapRequest {
    let g = graph(seed);
    MapRequest {
        graph: GraphSource::Inline {
            num_vertices: g.num_vertices(),
            edges: g.edges().collect(),
        },
        topology: "grid4x8".to_string(),
        case: case.to_string(),
        nh: 10,
        eps: 0.03,
        seed,
        threads,
        batch: 0,
        deadline_ms: 0,
    }
}

#[test]
fn service_results_are_identical_across_cache_dispositions_and_threads() {
    for case in ["c1", "c2"] {
        // Two independent services: each starts cold, so both first calls
        // are misses; the second call on each is a hit.
        let a = Service::new(ServiceOptions::default());
        let b = Service::new(ServiceOptions::default());
        let req1 = request(case, 42, 1);

        let miss = a.execute(&req1).expect("miss execution");
        let hit = a.execute(&req1).expect("hit execution");
        assert_eq!(miss.cache, "miss", "{case}");
        assert_eq!(hit.cache, "hit", "{case}");
        assert_eq!(miss.mapping, hit.mapping, "{case}: hit must equal miss");
        assert_eq!(miss.enhanced, hit.enhanced, "{case}");
        assert_eq!(miss.total_swaps, hit.total_swaps, "{case}");

        // The request's thread count is checked and otherwise ignored, so no
        // value, however large, may change the result or size an
        // allocation; served through a different service.
        for threads in [4, usize::MAX] {
            let threaded = b
                .execute(&request(case, 42, threads))
                .expect("threaded execution");
            assert_eq!(
                miss.mapping, threaded.mapping,
                "{case}: threads {threads} changed the result"
            );
            assert_eq!(miss.enhanced, threaded.enhanced, "{case}");
        }

        let stats = a.cache_stats();
        assert_eq!(stats.misses, 1, "{case}");
        assert_eq!(stats.hits, 1, "{case}");
    }
}

/// `Service::execute` equals the pipeline written out by hand: partition
/// into one block per PE, the case's µ₁, `Timer::enhance`, and `evaluate`
/// on µ₁ and µ₂.
#[test]
fn execute_is_the_pipeline_written_out() {
    let seed = 4;
    let ga = graph(seed);
    let topo = Topology::grid2d(4, 8);
    let pcube = recognize_partial_cube(&topo.graph).expect("a grid is a partial cube");
    let summary = |m: &Mapping| {
        let q = evaluate(&ga, &topo.graph, m);
        QualitySummary {
            coco: q.coco,
            edge_cut: q.edge_cut,
            congestion: q.congestion,
            imbalance: q.imbalance,
        }
    };
    for case in MapCase::all() {
        let req = request(case.id(), seed, 1);
        let resp = Service::new(ServiceOptions::default())
            .execute(&req)
            .expect("execute");

        let part_cfg = PartitionConfig {
            epsilon: req.eps,
            ..PartitionConfig::new(topo.num_pes(), seed)
        };
        let mu1 = case.initial_mapping(&ga, &partition(&ga, &part_cfg), &topo.graph, seed);
        let cfg = TimerConfig::new(req.nh, seed);
        let mu2 = Timer::new(cfg).enhance(&ga, &pcube, &mu1).unwrap().mapping;

        let id = case.id();
        assert_eq!(resp.mapping, mu2.assignment(), "{id}");
        assert_eq!(resp.initial, summary(&mu1), "{id}");
        assert_eq!(resp.enhanced, summary(&mu2), "{id}");
    }
}

#[test]
fn admission_counters_return_to_zero() {
    let service = Service::new(ServiceOptions {
        max_inflight: 1,
        ..ServiceOptions::default()
    });
    assert_eq!(service.admission_capacity(), 1);
    service.execute(&request("c2", 5, 1)).expect("execution");
    assert_eq!(service.in_flight(), 0, "permit must be released");
}

#[test]
fn deadline_zero_means_no_deadline_and_expired_deadline_rejects() {
    let service = Service::new(ServiceOptions::default());
    let ok = service.execute(&request("c2", 9, 1)).expect("no deadline");
    assert_eq!(ok.stop_reason, "completed");

    // A 1 ms deadline on a fresh service cannot cover context construction
    // plus enhancement: the run must stop early or be rejected, never hang.
    let fresh = Service::new(ServiceOptions::default());
    let mut req = request("c2", 9, 1);
    req.deadline_ms = 1;
    match fresh.execute(&req) {
        Ok(resp) => assert_eq!(resp.stop_reason, "deadline_exceeded", "{resp:?}"),
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("deadline") || msg.contains("rejected"),
                "{msg}"
            );
        }
    }

    // A round count no run can finish is drawn round by round, so the
    // deadline, not an up-front allocation, ends the run.
    let mut req = request("c2", 9, 1);
    req.nh = usize::MAX;
    req.deadline_ms = 500;
    let resp = service.execute(&req).expect("oversized nh is served");
    assert_eq!(resp.stop_reason, "deadline_exceeded", "{resp:?}");
}
