//! Reproduces the paper's observation that TIMER's improvement depends on the
//! processor topology: grids improve more than tori, and the well-connected
//! hypercube improves least (Section 7.2).
//!
//! Run with: `cargo run --release --example torus_vs_grid`

use tie_bench::stats::geometric_mean;
use tie_bench::workloads::{quick_networks, Scale};
use tie_mapd::pipeline::{enhance, map_initial};
use tie_mapd::MapCase;
use tie_timer::TimerConfig;
use tie_topology::{recognize_partial_cube, Topology};

fn main() {
    let networks = quick_networks();
    let topologies = Topology::small_topologies();

    println!(
        "Geometric-mean relative Coco after TIMER (initial mapping: GREEDYALLC), per topology:\n"
    );
    println!(
        "{:<14} {:>12} {:>12}",
        "topology", "rel. Coco", "improvement"
    );
    for topo in &topologies {
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let mut quotients = Vec::new();
        for spec in &networks {
            let ga = spec.build(Scale::Tiny);
            let initial = map_initial(&ga, &topo.graph, MapCase::C3GreedyAllC, 0.03, 1);
            let cfg = TimerConfig::new(10, 1);
            let r = enhance(&ga, &topo.graph, &pcube, &initial.mapping, cfg).unwrap();
            quotients.push(r.coco_quotient());
        }
        let gm = geometric_mean(&quotients).expect("no networks were swept");
        println!(
            "{:<14} {:>12.4} {:>11.1}%",
            topo.name,
            gm,
            100.0 * (1.0 - gm)
        );
    }
    println!("\nExpected shape (cf. Figure 5c): grids improve the most, tori somewhat less,");
    println!("and the 6-dim hypercube the least, because better-connected topologies leave");
    println!("less room for locality gains.");
}
