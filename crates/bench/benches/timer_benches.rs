//! Criterion micro-benchmarks for the TIMER core: NH sweep (Table 2's cost
//! driver), the Coco⁺ objective ablation and the per-topology cost of one
//! run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tie_bench::workloads::{paper_networks, Scale};
use tie_mapping::identity_mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{Timer, TimerConfig};
use tie_topology::{recognize_partial_cube, Topology};

fn bench_instance() -> (
    tie_graph::Graph,
    tie_topology::PartialCubeLabeling,
    tie_mapping::Mapping,
    Topology,
) {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "PGPgiantcompo")
        .unwrap();
    let ga = spec.build(Scale::Tiny);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 1));
    let mapping = identity_mapping(&part, topo.num_pes());
    (ga, pcube, mapping, topo)
}

/// Ablation: how the number of hierarchies NH drives TIMER's running time
/// (the paper notes NH=10 already captures most of the improvement for c1).
fn nh_sweep(c: &mut Criterion) {
    let (ga, pcube, mapping, _) = bench_instance();
    let mut group = c.benchmark_group("timer_nh_sweep");
    group.sample_size(10);
    for nh in [1usize, 5, 10, 25] {
        group.bench_with_input(BenchmarkId::from_parameter(nh), &nh, |b, &nh| {
            let timer = Timer::new(TimerConfig::new(nh, 3));
            b.iter(|| timer.enhance(&ga, &pcube, &mapping).unwrap());
        });
    }
    group.finish();
}

/// Ablation: objective with and without the diversity term (Section 5).
fn objective_ablation(c: &mut Criterion) {
    let (ga, pcube, mapping, _) = bench_instance();
    let mut group = c.benchmark_group("timer_objective_ablation");
    group.sample_size(10);
    group.bench_function("coco_plus", |b| {
        let timer = Timer::new(TimerConfig::new(5, 1));
        b.iter(|| timer.enhance(&ga, &pcube, &mapping).unwrap());
    });
    group.bench_function("coco_only", |b| {
        let timer = Timer::new(TimerConfig::new(5, 1).without_diversity());
        b.iter(|| timer.enhance(&ga, &pcube, &mapping).unwrap());
    });
    group.finish();
}

/// Per-topology cost of one TIMER run (the rows of Table 2 / Figure 5).
fn per_topology(c: &mut Criterion) {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "p2p-Gnutella")
        .unwrap();
    let ga = spec.build(Scale::Tiny);
    let mut group = c.benchmark_group("timer_per_topology");
    group.sample_size(10);
    for topo in Topology::small_topologies() {
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 1));
        let mapping = identity_mapping(&part, topo.num_pes());
        group.bench_function(&topo.name, |b| {
            let timer = Timer::new(TimerConfig::new(5, 1));
            b.iter(|| timer.enhance(&ga, &pcube, &mapping).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, nh_sweep, objective_ablation, per_topology);
criterion_main!(benches);
