//! # tie-metrics
//!
//! Quality metrics for task-to-PE mappings, as used in the evaluation of
//! "Topology-induced Enhancement of Mappings" (ICPP 2018) and in the broader
//! mapping literature:
//!
//! * [`coco`] — the paper's main objective (Eq. (3), a.k.a. *hop-byte*):
//!   communication volume weighted by PE distance,
//! * [`edge_cut`] — total weight of application edges whose endpoints live on
//!   different PEs (the partitioner's objective, reported as `Cut`),
//! * [`dilation`] — average and maximum number of hops per unit of
//!   communication,
//! * [`congestion`] — maximum load over the processor-graph links when every
//!   application edge is routed along one BFS shortest path,
//! * [`imbalance`] — maximum PE load relative to the ideal load.
//!
//! All metrics are pure functions of `(Ga, Gp, µ)` and are used both by the
//! experiment harness and as cross-checks in tests of the label-based
//! objective in `tie-timer`.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::collections::VecDeque;

use tie_graph::traversal::{all_pairs_distances, DistanceMatrix};
use tie_graph::{Graph, NodeId, Weight};
use tie_mapping::Mapping;

/// A bundle of all metrics for one mapping, as reported by the harness.
#[derive(Clone, Debug, PartialEq)]
pub struct MappingQuality {
    /// Communication cost Coco (hop-byte).
    pub coco: u64,
    /// Edge cut.
    pub edge_cut: u64,
    /// Average dilation (hops per unit of cut communication volume).
    pub avg_dilation: f64,
    /// Maximum dilation over the cut edges.
    pub max_dilation: u32,
    /// Maximum link congestion under shortest-path routing.
    pub congestion: u64,
    /// Load imbalance: `max_load / ceil(n / p) - 1`.
    pub imbalance: f64,
}

/// Computes all metrics at once (sharing the distance matrix).
pub fn evaluate(ga: &Graph, gp: &Graph, mapping: &Mapping) -> MappingQuality {
    let dist = all_pairs_distances(gp);
    let (avg_dilation, max_dilation) = dilation(ga, &dist, mapping);
    MappingQuality {
        coco: coco_with_distances(ga, &dist, mapping),
        edge_cut: edge_cut(ga, mapping),
        avg_dilation,
        max_dilation,
        congestion: congestion(ga, gp, mapping),
        imbalance: imbalance(ga, mapping),
    }
}

/// `Coco(µ)` (Eq. (3)): `Σ ω(e) · d_Gp(µ(u), µ(v))`.
pub fn coco(ga: &Graph, gp: &Graph, mapping: &Mapping) -> u64 {
    coco_with_distances(ga, &all_pairs_distances(gp), mapping)
}

/// `Coco(µ)` when the distance matrix of `Gp` is already available.
pub fn coco_with_distances(ga: &Graph, dist: &DistanceMatrix, mapping: &Mapping) -> u64 {
    ga.edges()
        .map(|(u, v, w)| w * dist.get(mapping.pe_of(u), mapping.pe_of(v)) as u64)
        .sum()
}

/// Edge cut: total weight of application edges mapped across PEs.
pub fn edge_cut(ga: &Graph, mapping: &Mapping) -> u64 {
    ga.edges()
        .filter(|&(u, v, _)| mapping.pe_of(u) != mapping.pe_of(v))
        .map(|(_, _, w)| w)
        .sum()
}

/// Average and maximum dilation over the *cut* edges (edges inside a PE have
/// zero distance and are excluded from the average, matching the usual
/// definition). Returns `(avg, max)`; `(0.0, 0)` if nothing is cut.
pub fn dilation(ga: &Graph, dist: &DistanceMatrix, mapping: &Mapping) -> (f64, u32) {
    let mut total_weight = 0u64;
    let mut total_hops = 0u64;
    let mut max = 0u32;
    for (u, v, w) in ga.edges() {
        let d = dist.get(mapping.pe_of(u), mapping.pe_of(v));
        if d > 0 {
            total_weight += w;
            total_hops += w * d as u64;
            max = max.max(d);
        }
    }
    if total_weight == 0 {
        (0.0, 0)
    } else {
        (total_hops as f64 / total_weight as f64, max)
    }
}

/// Maximum congestion: every application edge is routed along one BFS
/// shortest path in `Gp` (deterministic parent choice), and the maximum total
/// weight over any processor link is returned. This follows the paper's
/// assumption of shortest-path routing.
pub fn congestion(ga: &Graph, gp: &Graph, mapping: &Mapping) -> u64 {
    let p = gp.num_vertices();
    if p == 0 {
        return 0;
    }
    // Deterministic BFS parent forest from every source PE.
    // parent[s][v] = predecessor of v on the chosen shortest path from s.
    let mut parents: Vec<Vec<NodeId>> = Vec::with_capacity(p);
    for s in gp.vertices() {
        parents.push(bfs_parents(gp, s));
    }
    // Edge loads keyed by (min, max) endpoint; a BTreeMap so the final
    // reduction visits links in a fixed order.
    let mut load: std::collections::BTreeMap<(NodeId, NodeId), u64> =
        std::collections::BTreeMap::new();
    for (u, v, w) in ga.edges() {
        let (pu, pv) = (mapping.pe_of(u), mapping.pe_of(v));
        if pu == pv {
            continue;
        }
        // Walk from pv back to pu along the parent pointers of source pu.
        let par = &parents[pu as usize];
        let mut cur = pv;
        while cur != pu {
            let prev = par[cur as usize];
            let key = if prev < cur { (prev, cur) } else { (cur, prev) };
            *load.entry(key).or_insert(0) += w;
            cur = prev;
        }
    }
    load.values().copied().max().unwrap_or(0)
}

fn bfs_parents(gp: &Graph, source: NodeId) -> Vec<NodeId> {
    let n = gp.num_vertices();
    let mut parent = vec![NodeId::MAX; n];
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    parent[source as usize] = source;
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in gp.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    parent
}

/// Load imbalance of the mapping: `max_vertex_weight_per_PE / ideal − 1`,
/// where ideal is `ceil(total_weight / num_PEs)`.
pub fn imbalance(ga: &Graph, mapping: &Mapping) -> f64 {
    let p = mapping.num_pes();
    if p == 0 {
        return 0.0;
    }
    let total: Weight = ga.total_vertex_weight();
    if total == 0 {
        return 0.0;
    }
    let ideal = total.div_ceil(p as Weight);
    let max = mapping.weight_per_pe(ga).into_iter().max().unwrap_or(0);
    max as f64 / ideal as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;
    use tie_topology::Topology;

    /// Tiny hand-checkable instance: a path of 4 tasks on a path of 2 PEs.
    fn tiny() -> (Graph, Graph, Mapping) {
        let ga = generators::path_graph(4);
        let gp = generators::path_graph(2);
        // Tasks 0,1 on PE 0; tasks 2,3 on PE 1.
        let m = Mapping::new(vec![0, 0, 1, 1], 2);
        (ga, gp, m)
    }

    #[test]
    fn coco_and_cut_on_tiny_instance() {
        let (ga, gp, m) = tiny();
        // Only edge (1,2) is cut, distance 1, weight 1.
        assert_eq!(coco(&ga, &gp, &m), 1);
        assert_eq!(edge_cut(&ga, &m), 1);
    }

    #[test]
    fn dilation_on_tiny_instance() {
        let (ga, gp, m) = tiny();
        let dist = all_pairs_distances(&gp);
        let (avg, max) = dilation(&ga, &dist, &m);
        assert!((avg - 1.0).abs() < 1e-12);
        assert_eq!(max, 1);
    }

    #[test]
    fn congestion_on_tiny_instance() {
        let (ga, gp, m) = tiny();
        assert_eq!(congestion(&ga, &gp, &m), 1);
    }

    #[test]
    fn imbalance_zero_for_even_split() {
        let (ga, _, m) = tiny();
        assert!(imbalance(&ga, &m).abs() < 1e-12);
        let skew = Mapping::new(vec![0, 0, 0, 1], 2);
        assert!((imbalance(&ga, &skew) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coco_upper_bounded_by_cut_times_diameter() {
        let ga = generators::barabasi_albert(300, 3, 2);
        let topo = Topology::grid2d(4, 4);
        let assignment: Vec<u32> = (0..300u32).map(|v| v % 16).collect();
        let m = Mapping::new(assignment, 16);
        let dist = all_pairs_distances(&topo.graph);
        let c = coco(&ga, &topo.graph, &m);
        let cut = edge_cut(&ga, &m);
        assert!(c >= cut, "every cut edge costs at least one hop");
        assert!(c <= cut * dist.diameter() as u64);
    }

    #[test]
    fn coco_zero_when_everything_on_one_pe() {
        let ga = generators::complete_graph(10);
        let gp = Topology::grid2d(2, 2).graph;
        let m = Mapping::new(vec![3; 10], 4);
        assert_eq!(coco(&ga, &gp, &m), 0);
        assert_eq!(edge_cut(&ga, &m), 0);
        assert_eq!(congestion(&ga, &gp, &m), 0);
        let dist = all_pairs_distances(&gp);
        assert_eq!(dilation(&ga, &dist, &m), (0.0, 0));
    }

    #[test]
    fn congestion_accumulates_along_shared_links() {
        // Path processor graph 0-1-2; tasks on PE 0 and PE 2 communicate, so
        // both links carry the full volume.
        let gp = generators::path_graph(3);
        let mut b = tie_graph::GraphBuilder::new(4);
        b.add_edge(0, 2, 5);
        b.add_edge(1, 3, 7);
        let ga = b.build();
        let m = Mapping::new(vec![0, 0, 2, 2], 3);
        assert_eq!(congestion(&ga, &gp, &m), 12);
        assert_eq!(coco(&ga, &gp, &m), 2 * 5 + 2 * 7);
    }

    #[test]
    fn evaluate_bundles_all_metrics_consistently() {
        let ga = generators::watts_strogatz(200, 4, 0.1, 1);
        let gp = Topology::hypercube(3).graph;
        let assignment: Vec<u32> = (0..200u32).map(|v| v % 8).collect();
        let m = Mapping::new(assignment, 8);
        let q = evaluate(&ga, &gp, &m);
        assert_eq!(q.coco, coco(&ga, &gp, &m));
        assert_eq!(q.edge_cut, edge_cut(&ga, &m));
        assert_eq!(q.congestion, congestion(&ga, &gp, &m));
        assert!(q.avg_dilation >= 1.0);
        assert!(q.max_dilation as u64 >= 1);
        assert!(q.imbalance >= 0.0);
    }

    #[test]
    fn identity_mapping_of_grid_onto_itself_is_perfect() {
        let topo = Topology::grid2d(4, 4);
        let ga = topo.graph.clone();
        let m = Mapping::new((0..16u32).collect(), 16);
        let q = evaluate(&ga, &topo.graph, &m);
        assert_eq!(q.coco, ga.total_edge_weight());
        assert_eq!(q.edge_cut, ga.total_edge_weight());
        assert!((q.avg_dilation - 1.0).abs() < 1e-12);
        assert_eq!(q.max_dilation, 1);
        assert_eq!(q.congestion, 1);
    }
}
