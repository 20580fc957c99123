//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use tie_graph::contract::contract;
use tie_graph::{generators, io, traversal, Graph, GraphBuilder, NodeId};

/// Strategy producing a random edge list over `n` vertices.
fn edge_list(
    max_n: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1..20u64), 0..max_edges);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32, u64)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Built graphs are always structurally symmetric.
    #[test]
    fn built_graphs_are_symmetric((n, edges) in edge_list(40, 120)) {
        let g = build(n, &edges);
        prop_assert!(g.is_symmetric());
        prop_assert_eq!(g.num_arcs(), 2 * g.num_edges());
    }

    /// The sum of all degrees equals twice the edge count.
    #[test]
    fn handshake_lemma((n, edges) in edge_list(40, 120)) {
        let g = build(n, &edges);
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    /// METIS round-trip is the identity.
    #[test]
    fn metis_roundtrip((n, edges) in edge_list(30, 80)) {
        let g = build(n, &edges);
        let parsed = io::from_metis_str(&io::to_metis_string(&g)).unwrap();
        prop_assert_eq!(parsed, g);
    }

    /// Edge-list round-trip is the identity.
    #[test]
    fn edge_list_roundtrip((n, edges) in edge_list(30, 80)) {
        let g = build(n, &edges);
        let parsed = io::from_edge_list_str(&io::to_edge_list_string(&g)).unwrap();
        prop_assert_eq!(parsed, g);
    }

    /// BFS distances satisfy the triangle-ish property along edges: distances
    /// of adjacent vertices differ by at most one.
    #[test]
    fn bfs_distances_lipschitz((n, edges) in edge_list(40, 150)) {
        let g = build(n, &edges);
        let d = traversal::bfs_distances(&g, 0);
        for (u, v, _) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != tie_graph::UNREACHABLE && dv != tie_graph::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // Both endpoints must be unreachable together.
                prop_assert_eq!(du, dv);
            }
        }
    }

    /// Connected components partition the vertex set and edges never cross
    /// components.
    #[test]
    fn components_are_edge_closed((n, edges) in edge_list(40, 100)) {
        let g = build(n, &edges);
        let (comp, count) = traversal::connected_components(&g);
        prop_assert_eq!(comp.len(), g.num_vertices());
        for &c in &comp {
            prop_assert!((c as usize) < count);
        }
        for (u, v, _) in g.edges() {
            prop_assert_eq!(comp[u as usize], comp[v as usize]);
        }
    }

    /// Contracting along any block assignment (the quotient graph of the
    /// blocks) conserves total vertex weight, and the quotient's edges carry
    /// exactly the weight the assignment cuts.
    #[test]
    fn quotient_conserves_weight(
        (n, edges) in edge_list(30, 100),
        blocks in 1..6usize,
        seed in 0..1000u64,
    ) {
        let g = build(n, &edges);
        // Pseudo-random but deterministic assignment derived from the seed.
        let assignment: Vec<u32> = (0..g.num_vertices())
            .map(|v| ((v as u64 * 2654435761 + seed) % blocks as u64) as u32)
            .collect();
        let q = contract(&g, &assignment, blocks);
        prop_assert_eq!(q.total_vertex_weight(), g.total_vertex_weight());
        let cut: u64 = g
            .edges()
            .filter(|&(u, v, _)| assignment[u as usize] != assignment[v as usize])
            .map(|(_, _, w)| w)
            .sum();
        prop_assert_eq!(q.total_edge_weight(), cut);
    }

    /// Generators are deterministic in their seed.
    #[test]
    fn generators_deterministic(seed in 0..500u64) {
        let a = generators::barabasi_albert(80, 2, seed);
        let b = generators::barabasi_albert(80, 2, seed);
        prop_assert_eq!(a, b);
        let a = generators::rmat(6, 4, (0.45, 0.22, 0.22, 0.11), seed);
        let b = generators::rmat(6, 4, (0.45, 0.22, 0.22, 0.11), seed);
        prop_assert_eq!(a, b);
    }

    /// A random permutation really is a permutation.
    #[test]
    fn permutation_property(n in 1..200usize, seed in 0..100u64) {
        let p = generators::random_permutation(n, seed);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
    }
}

#[test]
fn largest_component_is_connected_smoke() {
    let g = generators::erdos_renyi_gnp(200, 0.008, 17);
    let (lcc, _) = traversal::largest_connected_component(&g);
    assert!(traversal::is_connected(&lcc));
    assert!(lcc.num_vertices() <= g.num_vertices());
}

#[test]
fn bfs_distance_matches_grid_manhattan() {
    let g = generators::grid2d(6, 5);
    let d = traversal::bfs_distances(&g, 0);
    for x in 0..6usize {
        for y in 0..5usize {
            let v = (x * 5 + y) as NodeId;
            assert_eq!(d[v as usize], (x + y) as u32);
        }
    }
}
