//! Reproduces the paper's observation that TIMER's improvement depends on the
//! processor topology: grids improve more than tori, and the well-connected
//! hypercube improves least (Section 7.2).
//!
//! Run with: `cargo run --release --example torus_vs_grid`

use tie_bench::experiment::{run_case, ExperimentConfig};
use tie_bench::stats::geometric_mean;
use tie_bench::workloads::{quick_networks, Scale};
use tie_mapd::MapCase;
use tie_topology::Topology;

fn main() {
    let networks = quick_networks();
    let topologies = Topology::small_topologies();
    let config = ExperimentConfig {
        num_hierarchies: 10,
        ..Default::default()
    };

    println!(
        "Geometric-mean relative Coco after TIMER (initial mapping: GREEDYALLC), per topology:\n"
    );
    println!(
        "{:<14} {:>12} {:>12}",
        "topology", "rel. Coco", "improvement"
    );
    for topo in &topologies {
        let mut quotients = Vec::new();
        for spec in &networks {
            let ga = spec.build(Scale::Tiny);
            let r = run_case(&ga, topo, MapCase::C3GreedyAllC, &config).unwrap();
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
