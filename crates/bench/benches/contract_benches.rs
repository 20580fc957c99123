//! Criterion micro-benchmarks for TIMER's hierarchy construction.
//!
//! Per scale, on PGPgiantcompo mapped onto grid8x8 and labelled exactly as
//! the driver labels its finest level:
//! * `contract_into_level0`: the contraction kernel alone, contracting the
//!   application graph along its level-0 label-prefix map (the largest
//!   contraction a hierarchy could ask for);
//! * `build_hierarchy_round`: one whole hierarchy round — sweeps through
//!   level views, prefix ranking and the materialized levels — with a warm
//!   `HierarchyScratch`, as a driver worker runs it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tie_bench::workloads::{paper_networks, Scale};
use tie_graph::contract::{contract_into, ContractScratch};
use tie_graph::{Graph, NodeId};
use tie_mapping::identity_mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::hierarchy::{build_hierarchy_traced, HierarchyScratch};
use tie_timer::Labeling;
use tie_topology::{recognize_partial_cube, Topology};
use tie_trace::{PhaseTimes, TraceHandle};

const SCALES: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Medium];

/// The application graph and its finest-level labeling.
fn instance(scale: Scale) -> (Graph, Labeling) {
    let spec = paper_networks()
        .into_iter()
        .find(|s| s.name == "PGPgiantcompo")
        .unwrap();
    let ga = spec.build(scale);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), 1));
    let mapping = identity_mapping(&part, topo.num_pes());
    let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 1).unwrap();
    (ga, labeling)
}

/// Level 0's contraction map: every vertex to the rank of its label prefix.
fn prefix_map(labels: &[u64]) -> (Vec<NodeId>, usize) {
    let mut prefixes: Vec<u64> = labels.iter().map(|&l| l >> 1).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    let map = labels
        .iter()
        .map(|&l| prefixes.binary_search(&(l >> 1)).unwrap() as NodeId)
        .collect();
    (map, prefixes.len())
}

/// The contraction kernel on the level-0 prefix map, warm scratch.
fn contract_level0(c: &mut Criterion) {
    let mut group = c.benchmark_group("contract_into_level0");
    group.sample_size(10);
    for scale in SCALES {
        let (ga, labeling) = instance(scale);
        let (map, coarse_n) = prefix_map(&labeling.labels);
        let id = BenchmarkId::from_parameter(format!("{scale:?}"));
        group.bench_with_input(id, &(ga, map), |b, (ga, map)| {
            let mut scratch = ContractScratch::default();
            contract_into(ga, map, coarse_n, &mut scratch); // warm the buffers
            b.iter(|| contract_into(ga, map, coarse_n, &mut scratch));
        });
    }
    group.finish();
}

/// One hierarchy round on the unpermuted labels, warm scratch.
fn hierarchy_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_hierarchy_round");
    group.sample_size(10);
    let trace = TraceHandle::off();
    for scale in SCALES {
        let (ga, labeling) = instance(scale);
        let (dim, p_mask, e_mask) = (labeling.dim, labeling.p_mask(), labeling.ext_mask());
        let id = BenchmarkId::from_parameter(format!("{scale:?}"));
        group.bench_with_input(id, &(ga, labeling), |b, (ga, labeling)| {
            let mut scratch = HierarchyScratch::default();
            let mut times = PhaseTimes::default();
            let mut round = |scratch: &mut HierarchyScratch| {
                let labels = labeling.labels.clone();
                build_hierarchy_traced(
                    ga, labels, dim, p_mask, e_mask, None, &trace, scratch, &mut times,
                )
            };
            round(&mut scratch); // warm the buffers
            b.iter(|| round(&mut scratch));
        });
    }
    group.finish();
}

criterion_group!(benches, contract_level0, hierarchy_round);
criterion_main!(benches);
