//! The benchmark's own tests: the tail rule, metric naming, the replay's
//! fidelity to `Service::execute`, and a smoke run of every workload.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use tie_e2e_bench::replay::{check_response, result_key, Replayer};
use tie_e2e_bench::stats::{tail, TAIL_BEYOND};
use tie_e2e_bench::workload::{find, WORKLOADS};
use tie_graph::generators;
use tie_mapd::json::Json;
use tie_mapd::protocol::{GraphSource, MapRequest};
use tie_mapd::{Service, ServiceOptions};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

fn load_json(path: PathBuf) -> Json {
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(v: &Json, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no array {key:?}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named entry")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(
        tail(&ramp(2 * TAIL_BEYOND - 1)),
        None,
        "no tail at or above the median"
    );
    let t = tail(&ramp(20)).expect("20 samples have a tail");
    assert_eq!((t.value, t.percentile), (10.0, 50.0));
    let t = tail(&ramp(100)).expect("100 samples have a tail");
    assert_eq!((t.value, t.percentile), (90.0, 90.0));
    let mut shuffled = ramp(1000);
    shuffled.reverse();
    let t = tail(&shuffled).expect("1000 samples have a tail");
    assert_eq!(t.value, 990.0);
    let beyond = shuffled.iter().filter(|&&v| v > t.value).count();
    assert_eq!(beyond, TAIL_BEYOND);
}

#[test]
fn benchmark_json_names_are_valid_and_match_the_program() {
    let bench = load_json(repo_root().join("BENCHMARK.json"));
    let workloads = names(&bench, "workloads");
    let program: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, program);
    let mut seen = BTreeSet::new();
    for name in names(&bench, "end_to_end")
        .into_iter()
        .chain(names(&bench, "per_layer"))
        .chain(workloads)
    {
        assert!(valid_name(&name), "invalid name {name:?}");
        assert!(seen.insert(name.clone()), "name {name:?} used twice");
    }
}

#[test]
fn every_per_layer_metric_has_a_prediction() {
    let bench = load_json(repo_root().join("BENCHMARK.json"));
    let e2e: BTreeSet<String> = names(&bench, "end_to_end").into_iter().collect();
    let per_layer: BTreeSet<String> = names(&bench, "per_layer").into_iter().collect();
    let preds = load_json(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("predictions.json"));
    let mut covered = BTreeSet::new();
    for p in preds
        .get("predictions")
        .and_then(Json::as_arr)
        .expect("predictions array")
    {
        let metric = p
            .get("metric")
            .and_then(Json::as_str)
            .expect("metric")
            .to_string();
        assert!(
            per_layer.contains(&metric),
            "prediction for unknown metric {metric:?}"
        );
        assert!(
            covered.insert(metric.clone()),
            "two predictions for {metric:?}"
        );
        let no_change = p
            .get("no_change")
            .and_then(Json::as_arr)
            .expect("no_change");
        assert!(
            !no_change.is_empty(),
            "{metric}: name where it should not move"
        );
        for pair in p
            .get("moves")
            .and_then(Json::as_arr)
            .expect("moves")
            .iter()
            .chain(no_change)
        {
            let pair = pair.as_str().expect("metric@workload string");
            let (m, w) = pair
                .split_once('@')
                .unwrap_or_else(|| panic!("{metric}: {pair:?}"));
            assert!(e2e.contains(m), "{metric}: unknown end-to-end metric {m:?}");
            assert!(find(w).is_some(), "{metric}: unknown workload {w:?}");
        }
    }
    assert_eq!(
        covered, per_layer,
        "every per-layer metric needs exactly one prediction"
    );
}

#[test]
fn oversubscribed_configurations_are_refused() {
    let served = find("served-mix").expect("workload exists");
    assert!(served.check_fits(2).is_ok());
    assert!(served.check_fits(1).is_err());
    let speculative = find("speculative-small").expect("workload exists");
    assert!(speculative.check_fits(1).is_err());
}

#[test]
fn replay_reproduces_execute_on_a_tiny_request() {
    let g = generators::barabasi_albert(300, 3, 5);
    for (topology, case, threads) in [
        ("grid4x4", "c1", 1),
        ("hypercube4", "c3", 2),
        ("torus4x4", "c4", 1),
    ] {
        let req = MapRequest {
            graph: GraphSource::Inline {
                num_vertices: g.num_vertices(),
                edges: g.edges().collect(),
            },
            topology: topology.to_string(),
            case: case.to_string(),
            nh: 6,
            eps: 0.03,
            seed: 3,
            threads,
            batch: 0,
            deadline_ms: 0,
        };
        let executed = Service::new(ServiceOptions::default())
            .execute(&req)
            .expect("execute");
        check_response(&req, &executed).expect("execute passes the output checks");
        let (replayer, _) = Replayer::new(&[topology.to_string()]).expect("recognize");
        let (replay, replayed) = replayer.replay(&req).expect("replay");
        assert_eq!(
            result_key(&replayed),
            result_key(&executed),
            "{topology} {case}"
        );
        assert!(replay.timed_ms() <= replay.wall_ms);
    }
}

fn result_lines(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Json::parse(l).expect("result line is JSON"))
        .collect()
}

fn metric_keys(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("result without metrics"),
    }
}

#[test]
fn smoke_runs_every_workload_with_the_declared_metrics() {
    let bench = load_json(repo_root().join("BENCHMARK.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .arg("--smoke")
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = result_lines(&stdout);
    assert_eq!(
        results.len(),
        2 * WORKLOADS.len(),
        "an untraced and a traced run per workload"
    );
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        let want = if i % 2 == 0 {
            "end_to_end"
        } else {
            "per_layer"
        };
        assert_eq!(metric_keys(result), names(&bench, want), "run {i}");
    }
}
