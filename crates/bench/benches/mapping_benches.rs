//! Criterion benchmarks for the initial-mapping baselines (the per-case cost
//! of constructing µ1 in Figures 5a–5d).

use criterion::{criterion_group, criterion_main, Criterion};

use tie_bench::workloads::{paper_networks, Scale};
use tie_mapping::{communication_graph, drb, greedy, identity_mapping};
use tie_partition::{partition, PartitionConfig};
use tie_topology::Topology;

fn baselines(c: &mut Criterion) {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "email-EuAll")
        .unwrap();
    let ga = spec.build(Scale::Tiny);
    let topo = Topology::grid2d(8, 8);
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 1));
    let gc = communication_graph(&ga, &part);

    let mut group = c.benchmark_group("mapping_baselines");
    group.sample_size(10);
    group.bench_function("identity", |b| {
        b.iter(|| identity_mapping(&part, topo.num_pes()))
    });
    group.bench_function("greedy_allc", |b| {
        b.iter(|| greedy::greedy_allc(&gc, &topo.graph))
    });
    group.bench_function("greedy_min", |b| {
        b.iter(|| greedy::greedy_min(&gc, &topo.graph))
    });
    group.bench_function("drb", |b| {
        b.iter(|| drb::dual_recursive_bisection(&gc, &topo.graph, 3))
    });
    group.finish();
}

criterion_group!(benches, baselines);
criterion_main!(benches);
