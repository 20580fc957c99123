//! Criterion benchmarks for the multilevel partitioner (the KaHIP stand-in
//! whose running time is the denominator of Table 2 / Table 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tie_bench::workloads::{paper_networks, quick_networks, Scale};
use tie_partition::{partition, PartitionConfig};

/// Partitioning one network into k blocks for the k values of Table 3
/// (scaled down: 64 and 128 blocks).
fn partition_by_k(c: &mut Criterion) {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "as-22july06")
        .unwrap();
    let ga = spec.build(Scale::Tiny);
    let mut group = c.benchmark_group("partition_by_k");
    group.sample_size(10);
    for k in [16usize, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| partition(&ga, &PartitionConfig::new(k, 3)));
        });
    }
    group.finish();
}

/// Partitioning time across the five `served-mix` networks (Table 3 rows) at
/// the block counts of its topologies. The R-MAT web-Google stand-in
/// (maximum degree 958) is the class that sets that workload's tail.
fn partition_by_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_by_network");
    group.sample_size(10);
    for spec in quick_networks() {
        let ga = spec.build(Scale::Tiny);
        for k in [64usize, 256] {
            group.bench_function(&format!("{}/k{k}", spec.name), |b| {
                b.iter(|| partition(&ga, &PartitionConfig::new(k, 1)));
            });
        }
    }
    group.finish();
}

/// The medium PGPgiantcompo stand-in at k = 64 (grid8x8, partition seed
/// 1): the partition of `bench_quality`'s grid8x8 cells and the shape of
/// `medium-oneshot`'s, where FM refinement sets the partitioner's time.
fn partition_medium(c: &mut Criterion) {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "PGPgiantcompo")
        .unwrap();
    let ga = spec.build(Scale::Medium);
    let mut group = c.benchmark_group("partition_medium");
    group.sample_size(10);
    group.bench_function("PGPgiantcompo/k64", |b| {
        b.iter(|| partition(&ga, &PartitionConfig::new(64, 1)));
    });
    group.finish();
}

criterion_group!(
    benches,
    partition_by_k,
    partition_by_network,
    partition_medium
);
criterion_main!(benches);
