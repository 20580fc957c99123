//! Domain scenario from the paper's introduction: parallel complex-network
//! analysis on a distributed-memory machine. Compares the four initial
//! mapping strategies (c1–c4) on one network/topology pair and shows how much
//! TIMER improves each of them.
//!
//! Run with: `cargo run --release --example complex_network_mapping`

use tie_bench::workloads::{paper_networks, Scale};
use tie_mapd::pipeline::{enhance, map_initial};
use tie_mapd::MapCase;
use tie_timer::TimerConfig;
use tie_topology::{recognize_partial_cube, Topology};

fn main() {
    // A citation-network stand-in mapped onto an 8x8x8-like (4x4x4) torus.
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "citationCiteseer")
        .unwrap();
    let ga = spec.build(Scale::Small);
    let topo = Topology::torus3d(4, 4, 4);
    println!(
        "network {} ({} vertices, {} edges) onto {} ({} PEs)\n",
        spec.name,
        ga.num_vertices(),
        ga.num_edges(),
        topo.name,
        topo.num_pes()
    );

    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    println!(
        "{:<24} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "initial mapping", "Coco before", "Coco after", "impr.", "Cut before", "Cut after"
    );
    for case in MapCase::all() {
        let initial = map_initial(&ga, &topo.graph, case, 0.03, 1);
        let cfg = TimerConfig::new(10, 1);
        let r = enhance(&ga, &topo.graph, &pcube, &initial.mapping, cfg).unwrap();
        println!(
            "{:<24} {:>12} {:>12} {:>8.1}% {:>12} {:>12}",
            case.name(),
            r.initial.coco,
            r.enhanced.coco,
            100.0 * (1.0 - r.coco_quotient()),
            r.initial.edge_cut,
            r.enhanced.edge_cut
        );
    }
    println!("\nLower Coco is better; TIMER trades a small edge-cut increase for lower communication cost.");
}
