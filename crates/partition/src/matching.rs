//! Heavy-edge matching for the coarsening phase.
//!
//! Vertices are visited in a random order; each unmatched vertex is matched
//! with its unmatched neighbour connected by the heaviest edge (ties broken
//! by smaller coarse vertex weight to keep the coarse graph balanced). This
//! is the matching scheme used by METIS/KaHIP-style multilevel partitioners.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tie_graph::{Graph, NodeId};

/// A matching: `mate[v]` is the vertex `v` is matched with, or `v` itself if
/// unmatched.
#[derive(Clone, Debug)]
pub struct Matching {
    /// Partner of every vertex (self if unmatched).
    pub mate: Vec<NodeId>,
    /// Number of matched pairs.
    pub num_pairs: usize,
}

/// Computes a heavy-edge matching with a random visiting order derived from
/// `seed`.
pub fn heavy_edge_matching(graph: &Graph, seed: u64) -> Matching {
    let n = graph.num_vertices();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let mut mate: Vec<NodeId> = (0..n as NodeId).collect();
    let mut num_pairs = 0usize;
    for &v in &order {
        if mate[v as usize] != v {
            continue; // already matched
        }
        let mut best: Option<(NodeId, u64, u64)> = None; // (neighbour, edge weight, neighbour weight)
        for (u, w) in graph.edges_of(v) {
            if u == v || mate[u as usize] != u {
                continue;
            }
            let uw = graph.vertex_weight(u);
            let better = match best {
                None => true,
                Some((_, bw, bvw)) => w > bw || (w == bw && uw < bvw),
            };
            if better {
                best = Some((u, w, uw));
            }
        }
        if let Some((u, _, _)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
            num_pairs += 1;
        }
    }
    Matching { mate, num_pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;

    fn check_valid(graph: &Graph, m: &Matching) {
        for v in graph.vertices() {
            let u = m.mate[v as usize];
            // Symmetric.
            assert_eq!(m.mate[u as usize], v);
            // Matched pairs are adjacent.
            if u != v {
                assert!(graph.has_edge(u, v), "matched non-adjacent pair {u} {v}");
            }
        }
    }

    #[test]
    fn matching_on_path_is_valid_and_large() {
        let g = generators::path_graph(10);
        let m = heavy_edge_matching(&g, 1);
        check_valid(&g, &m);
        assert!(m.num_pairs >= 3);
    }

    #[test]
    fn matching_prefers_heavy_edges() {
        // Star with one heavy edge. The visiting order is random, so the
        // centre is only guaranteed to pick the heavy edge when it is visited
        // before its leaves; over several seeds this must happen at least
        // once, and the centre must always end up matched (it has neighbours).
        let mut b = tie_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 100);
        b.add_edge(0, 3, 1);
        let g = b.build();
        let mut saw_heavy = false;
        for seed in 0..10 {
            let m = heavy_edge_matching(&g, seed);
            check_valid(&g, &m);
            assert_ne!(m.mate[0], 0);
            if m.mate[0] == 2 {
                saw_heavy = true;
            }
        }
        assert!(
            saw_heavy,
            "the heavy edge should be chosen for at least one visiting order"
        );
    }

    #[test]
    fn matching_on_complete_graph_matches_almost_all() {
        let g = generators::complete_graph(9);
        let m = heavy_edge_matching(&g, 3);
        check_valid(&g, &m);
        assert_eq!(m.num_pairs, 4); // 9 vertices: 4 pairs + 1 single
    }

    #[test]
    fn matching_deterministic_in_seed() {
        let g = generators::barabasi_albert(100, 3, 5);
        let a = heavy_edge_matching(&g, 9);
        let b = heavy_edge_matching(&g, 9);
        assert_eq!(a.mate, b.mate);
    }

    #[test]
    fn isolated_vertices_stay_unmatched() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let m = heavy_edge_matching(&g, 0);
        check_valid(&g, &m);
        assert_eq!(m.mate[2], 2);
        assert_eq!(m.mate[3], 3);
        assert_eq!(m.mate[0], 1);
    }
}
