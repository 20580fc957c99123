//! Ablation of TIMER's design choices on one instance:
//!
//! * number of hierarchies NH (10 vs 50),
//! * the diversity term of Coco⁺ (Section 5) on vs off,
//! * TIMER followed by a label-swap polishing pass.
//!
//! Run with: `cargo run --release --example pipeline_ablation`

use std::time::Instant;

use tie_bench::workloads::{paper_networks, Scale};
use tie_mapping::identity_mapping;
use tie_metrics::coco;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{Timer, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};

fn main() {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "web-Google")
        .unwrap();
    let ga = spec.build(Scale::Small);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 3));
    let initial = identity_mapping(&part, topo.num_pes());
    let initial_coco = coco(&ga, &topo.graph, &initial);
    println!(
        "{} ({} vertices) on {}: initial Coco (IDENTITY) = {initial_coco}\n",
        spec.name,
        ga.num_vertices(),
        topo.name
    );
    println!(
        "{:<44} {:>12} {:>9} {:>9}",
        "variant", "Coco", "impr.", "time [s]"
    );

    let run = |label: &str, cfg: TimerConfig| {
        let t = Instant::now();
        let r = Timer::new(cfg).enhance(&ga, &pcube, &initial).unwrap();
        let secs = t.elapsed().as_secs_f64();
        println!(
            "{:<44} {:>12} {:>8.1}% {:>9.2}",
            label,
            r.final_coco,
            100.0 * r.coco_improvement(),
            secs
        );
    };

    run("TIMER, NH=10", TimerConfig::new(10, 1));
    run("TIMER, NH=50 (paper setting)", TimerConfig::new(50, 1));
    run(
        "TIMER, NH=10, no diversity term",
        TimerConfig::new(10, 1).without_diversity(),
    );

    // Extension (conclusions of the paper): TIMER followed by a cut-edge
    // polishing pass that swaps arbitrary labels, not just single digits.
    let t = Instant::now();
    let cfg = TimerConfig::new(10, 1);
    let r = Timer::new(cfg).enhance(&ga, &pcube, &initial).unwrap();
    let mut labeling = r.labeling.clone();
    let stats = tie_timer::polish(&ga, &mut labeling, true, 3);
    let polished_coco = coco(&ga, &topo.graph, &labeling.to_mapping());
    println!(
        "{:<44} {:>12} {:>8.1}% {:>9.2}",
        format!("TIMER NH=10 + polish ({} extra swaps)", stats.swaps),
        polished_coco,
        100.0 * (1.0 - polished_coco as f64 / initial_coco as f64),
        t.elapsed().as_secs_f64()
    );
}
