//! Section 7.2's claims, read from the committed `BENCH_paper.json` (the
//! paper's grid: 15 stand-ins × five topologies × c1–c4 × five
//! repetitions, written by `bench_paper`):
//!
//! * TIMER lowers Coco: every (topology, case) mean Coco quotient is below 1;
//! * grids improve at least as much as the better-connected hypercube: for
//!   every case, grid16x16's and grid8x8x8's mean Coco quotients are at most
//!   8-dimHQ's.

use tie_mapd::json::Json;
use tie_mapd::MapCase;

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");

/// The `figure5` rows as (topology, case, mean Coco quotient).
fn mean_coco_quotients() -> Vec<(String, String, f64)> {
    let text = std::fs::read_to_string(ARTIFACT).expect("BENCH_paper.json is committed");
    let json = Json::parse(&text).expect("BENCH_paper.json is valid JSON");
    let rows = json
        .get("figure5")
        .and_then(Json::as_arr)
        .expect("a figure5 array");
    rows.iter()
        .map(|row| {
            let field = |key| row.get(key).and_then(Json::as_str).map(str::to_string);
            let mean = row
                .get("coco")
                .and_then(|c| c.get("mean"))
                .and_then(Json::as_f64);
            (field("topology"), field("case"), mean)
        })
        .map(|row| match row {
            (Some(topology), Some(case), Some(mean)) => (topology, case, mean),
            other => panic!("malformed figure5 row: {other:?}"),
        })
        .collect()
}

#[test]
fn the_artifact_covers_every_topology_and_case() {
    let rows = mean_coco_quotients();
    assert_eq!(rows.len(), 5 * 4, "five topologies × c1–c4");
    for topology in [
        "grid16x16",
        "grid8x8x8",
        "torus16x16",
        "torus8x8x8",
        "8-dimHQ",
    ] {
        for case in MapCase::all() {
            assert!(
                rows.iter().any(|(t, c, _)| t == topology && c == case.id()),
                "no figure5 row for {topology} {}",
                case.id()
            );
        }
    }
}

#[test]
fn timer_lowers_coco_on_every_topology_and_case() {
    for (topology, case, mean) in mean_coco_quotients() {
        assert!(mean < 1.0, "{topology} {case}: mean Coco quotient {mean}");
    }
}

#[test]
fn grids_improve_at_least_as_much_as_the_hypercube() {
    let rows = mean_coco_quotients();
    let mean = |topology: &str, case: &str| {
        rows.iter()
            .find(|(t, c, _)| t == topology && c == case)
            .map(|r| r.2)
            .unwrap_or_else(|| panic!("no figure5 row for {topology} {case}"))
    };
    for case in MapCase::all().map(MapCase::id) {
        let hypercube = mean("8-dimHQ", case);
        for grid in ["grid16x16", "grid8x8x8"] {
            let q = mean(grid, case);
            assert!(
                q <= hypercube,
                "{case}: {grid} reads {q}, above 8-dimHQ's {hypercube}"
            );
        }
    }
}
