//! Quickstart: map a small complex network onto a 2D grid and enhance the
//! mapping with TIMER.
//!
//! Run with: `cargo run --release --example quickstart`

use tie_graph::generators;
use tie_mapd::pipeline::{enhance, map_initial};
use tie_mapd::MapCase;
use tie_timer::TimerConfig;
use tie_topology::{recognize_partial_cube, Topology};

fn main() {
    // 1. An application graph: a scale-free network with 2 000 tasks.
    let ga = generators::barabasi_albert(2_000, 4, 42);
    println!(
        "application graph: {} tasks, {} communication edges",
        ga.num_vertices(),
        ga.num_edges()
    );

    // 2. A processor graph: an 8x8 grid (64 PEs). Grids are partial cubes, so
    //    TIMER applies.
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).expect("grids are partial cubes");
    println!(
        "processor graph: {} ({} PEs, {} convex cuts)",
        topo.name,
        topo.num_pes(),
        pcube.dim
    );

    // 3. The two steps of the mapping pipeline: partition the application
    //    graph into one block per PE (3 % imbalance, the paper's setting) and
    //    map block i to PE i (the IDENTITY baseline, case c2); then enhance
    //    the mapping with TIMER (10 hierarchies are usually enough) and
    //    evaluate both mappings.
    let initial = map_initial(&ga, &topo.graph, MapCase::C2Identity, 0.03, 7);
    let cfg = TimerConfig::new(10, 7);
    let run = enhance(&ga, &topo.graph, &pcube, &initial.mapping, cfg).unwrap();
    let (before, after, result) = (&run.initial, &run.enhanced, &run.result);

    // 4. Compare the mappings.
    println!("\n{:<22} {:>12} {:>12}", "metric", "initial", "after TIMER");
    println!(
        "{:<22} {:>12} {:>12}",
        "Coco (hop-byte)", before.coco, after.coco
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "edge cut", before.edge_cut, after.edge_cut
    );
    println!(
        "{:<22} {:>12.3} {:>12.3}",
        "avg dilation", before.avg_dilation, after.avg_dilation
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "congestion", before.congestion, after.congestion
    );
    println!(
        "\nTIMER reduced Coco by {:.1}% ({} of {} hierarchies accepted, {} label swaps)",
        100.0 * result.coco_improvement(),
        result.hierarchies_accepted,
        10,
        result.total_swaps
    );
    assert!(after.coco <= before.coco);
}
