//! Seeded synthetic graph generators.
//!
//! The TIMER paper evaluates on 15 real-world complex networks (Table 1).
//! Those data sets are not redistributable here, so the benchmark harness
//! substitutes seeded synthetic networks from this module whose structural
//! class matches the originals: heavy-tailed degree distributions
//! (Barabási–Albert, R-MAT), small-world structure (Watts–Strogatz) and
//! near-random structure (Erdős–Rényi). All generators are deterministic in
//! the seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};

/// Simple path with `n` vertices `0 - 1 - ... - (n-1)`.
pub fn path_graph(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge((i - 1) as NodeId, i as NodeId, 1);
    }
    b.build()
}

/// Cycle with `n` vertices.
pub fn cycle_graph(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge((i - 1) as NodeId, i as NodeId, 1);
    }
    if n > 2 {
        b.add_edge((n - 1) as NodeId, 0, 1);
    }
    b.build()
}

/// Complete graph on `n` vertices.
pub fn complete_graph(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as NodeId, v as NodeId, 1);
        }
    }
    b.build()
}

/// Complete binary tree with `n` vertices (vertex 0 is the root, vertex `i`
/// has children `2i + 1` and `2i + 2`).
pub fn binary_tree(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let parent = (i - 1) / 2;
        b.add_edge(parent as NodeId, i as NodeId, 1);
    }
    b.build()
}

/// `nx × ny` rectangular mesh (4-neighbourhood).
pub fn grid2d(nx: usize, ny: usize) -> Graph {
    let idx = |x: usize, y: usize| (x * ny + y) as NodeId;
    let mut b = GraphBuilder::new(nx * ny);
    for x in 0..nx {
        for y in 0..ny {
            if x + 1 < nx {
                b.add_edge(idx(x, y), idx(x + 1, y), 1);
            }
            if y + 1 < ny {
                b.add_edge(idx(x, y), idx(x, y + 1), 1);
            }
        }
    }
    b.build()
}

/// `nx × ny × nz` cubic mesh (6-neighbourhood).
pub fn grid3d(nx: usize, ny: usize, nz: usize) -> Graph {
    let idx = |x: usize, y: usize, z: usize| (x * ny * nz + y * nz + z) as NodeId;
    let mut b = GraphBuilder::new(nx * ny * nz);
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                if x + 1 < nx {
                    b.add_edge(idx(x, y, z), idx(x + 1, y, z), 1);
                }
                if y + 1 < ny {
                    b.add_edge(idx(x, y, z), idx(x, y + 1, z), 1);
                }
                if z + 1 < nz {
                    b.add_edge(idx(x, y, z), idx(x, y, z + 1), 1);
                }
            }
        }
    }
    b.build()
}

/// Erdős–Rényi G(n, p) graph: every pair becomes an edge independently with
/// probability `p`.
pub fn erdos_renyi_gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(u as NodeId, v as NodeId, 1);
            }
        }
    }
    b.build()
}

/// Erdős–Rényi G(n, m) graph with exactly `m` distinct random edges (or fewer
/// if `m` exceeds the number of available pairs).
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_edges);
    let mut b = GraphBuilder::new(n);
    let mut added = 0usize;
    while added < m {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v, 1);
            added += 1;
        }
    }
    b.build()
}

/// Barabási–Albert preferential-attachment graph: starts from a small clique
/// and attaches each new vertex to `m_attach` existing vertices with
/// probability proportional to their degree. Produces heavy-tailed degree
/// distributions akin to citation and social networks.
///
/// # Panics
/// Panics if `m_attach` is zero.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Graph {
    assert!(m_attach >= 1, "attachment count must be at least 1");
    let m_attach = m_attach.min(n.saturating_sub(1)).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: vertices appear once per incident edge, which
    // makes degree-proportional sampling a uniform draw from the list.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);
    let seed_size = (m_attach + 1).min(n);
    for u in 0..seed_size {
        for v in (u + 1)..seed_size {
            b.add_edge(u as NodeId, v as NodeId, 1);
            endpoints.push(u as NodeId);
            endpoints.push(v as NodeId);
        }
    }
    for u in seed_size..n {
        let mut targets: Vec<NodeId> = Vec::with_capacity(m_attach);
        let mut guard = 0;
        while targets.len() < m_attach && guard < 50 * m_attach {
            guard += 1;
            let t = if endpoints.is_empty() {
                rng.gen_range(0..u) as NodeId
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if t != u as NodeId && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge(u as NodeId, t, 1);
            endpoints.push(u as NodeId);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Watts–Strogatz small-world graph: a ring lattice where every vertex is
/// connected to its `k` nearest neighbours, with each edge rewired with
/// probability `beta`.
///
/// # Panics
/// Panics if `k` is odd or `k >= n`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(k.is_multiple_of(2), "watts_strogatz requires even k");
    assert!(k < n, "k must be smaller than n");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for j in 1..=(k / 2) {
            let v = (u + j) % n;
            if rng.gen_bool(beta) {
                // Rewire: keep u, pick a random new endpoint.
                let mut w = rng.gen_range(0..n);
                let mut guard = 0;
                while (w == u || b.has_edge(u as NodeId, w as NodeId)) && guard < 100 {
                    w = rng.gen_range(0..n);
                    guard += 1;
                }
                if w != u && !b.has_edge(u as NodeId, w as NodeId) {
                    b.add_edge(u as NodeId, w as NodeId, 1);
                    continue;
                }
            }
            b.add_edge(u as NodeId, v as NodeId, 1);
        }
    }
    b.build()
}

/// R-MAT (recursive matrix) generator with partition probabilities
/// `(a, b, c, d)`, `a + b + c + d = 1`. Produces skewed, scale-free-like
/// graphs similar to web and social networks. `scale` is log2 of the vertex
/// count; `edge_factor` is the average degree / 2.
///
/// # Panics
/// Panics if the four probabilities do not sum to 1.
pub fn rmat(scale: u32, edge_factor: usize, probs: (f64, f64, f64, f64), seed: u64) -> Graph {
    let (a, b_p, c, d) = probs;
    let total = a + b_p + c + d;
    assert!(
        (total - 1.0).abs() < 1e-6,
        "R-MAT probabilities must sum to 1"
    );
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..m {
        let (mut x0, mut x1) = (0usize, n);
        let (mut y0, mut y1) = (0usize, n);
        while x1 - x0 > 1 {
            let r: f64 = rng.gen();
            let (dx, dy) = if r < a {
                (0, 0)
            } else if r < a + b_p {
                (0, 1)
            } else if r < a + b_p + c {
                (1, 0)
            } else {
                (1, 1)
            };
            let mx = (x0 + x1) / 2;
            let my = (y0 + y1) / 2;
            if dx == 0 {
                x1 = mx;
            } else {
                x0 = mx;
            }
            if dy == 0 {
                y1 = my;
            } else {
                y0 = my;
            }
        }
        let (u, v) = (x0 as NodeId, y0 as NodeId);
        if u != v {
            builder.add_edge(u, v, 1);
        }
    }
    builder.build()
}

/// Random geometric-ish community graph: `communities` dense clusters joined
/// by a sparse random backbone. Used as a stand-in for networks with strong
/// community structure (e.g. collaboration networks).
///
/// # Panics
/// Panics if `communities` is zero.
pub fn planted_partition(
    n: usize,
    communities: usize,
    p_in: f64,
    p_out_edges: usize,
    seed: u64,
) -> Graph {
    assert!(communities >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let comm_of = |v: usize| v * communities / n.max(1);
    // Dense intra-community edges.
    for u in 0..n {
        for v in (u + 1)..n {
            if comm_of(u) == comm_of(v) && rng.gen_bool(p_in) {
                b.add_edge(u as NodeId, v as NodeId, 1);
            }
        }
    }
    // Sparse inter-community backbone.
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < p_out_edges && guard < 100 * p_out_edges.max(1) {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && comm_of(u) != comm_of(v) && !b.has_edge(u as NodeId, v as NodeId) {
            b.add_edge(u as NodeId, v as NodeId, 1);
            added += 1;
        }
    }
    b.build()
}

/// Assigns random integer edge weights in `1..=max_weight` to an existing
/// graph, preserving its structure. Useful for turning unit-weight synthetic
/// networks into weighted communication workloads.
pub fn randomize_edge_weights(graph: &Graph, max_weight: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(graph.num_vertices());
    for (u, v, _) in graph.edges() {
        b.add_edge(u, v, rng.gen_range(1..=max_weight.max(1)));
    }
    for v in graph.vertices() {
        b.set_vertex_weight(v, graph.vertex_weight(v));
    }
    b.build()
}

/// Returns a uniformly random permutation of `0..n`.
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path_graph(10);
        assert_eq!(p.num_edges(), 9);
        assert!(is_connected(&p));
        let c = cycle_graph(10);
        assert_eq!(c.num_edges(), 10);
        for v in c.vertices() {
            assert_eq!(c.degree(v), 2);
        }
    }

    #[test]
    fn star_and_complete_shapes() {
        let k = complete_graph(5);
        assert_eq!(k.num_edges(), 10);
        for v in k.vertices() {
            assert_eq!(k.degree(v), 4);
        }
    }

    #[test]
    fn binary_tree_shape() {
        let t = binary_tree(7);
        assert_eq!(t.num_edges(), 6);
        assert_eq!(t.degree(0), 2);
        assert_eq!(t.degree(3), 1);
        assert!(is_connected(&t));
    }

    #[test]
    fn grid2d_shape() {
        let g = grid2d(4, 3);
        assert_eq!(g.num_vertices(), 12);
        // Edges: 3*(4-1) horizontal strips... compute: nx*(ny-1) + ny*(nx-1) = 4*2 + 3*3 = 17.
        assert_eq!(g.num_edges(), 17);
        assert!(is_connected(&g));
    }

    #[test]
    fn grid3d_shape() {
        let g = grid3d(2, 3, 4);
        assert_eq!(g.num_vertices(), 24);
        // nx*ny*(nz-1) + nx*(ny-1)*nz + (nx-1)*ny*nz = 2*3*3 + 2*2*4 + 1*3*4 = 18+16+12 = 46.
        assert_eq!(g.num_edges(), 46);
        assert!(is_connected(&g));
    }

    #[test]
    fn erdos_renyi_is_deterministic_in_seed() {
        let g1 = erdos_renyi_gnp(50, 0.1, 7);
        let g2 = erdos_renyi_gnp(50, 0.1, 7);
        let g3 = erdos_renyi_gnp(50, 0.1, 8);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
    }

    #[test]
    fn erdos_renyi_gnm_edge_count() {
        let g = erdos_renyi_gnm(40, 100, 3);
        assert_eq!(g.num_edges(), 100);
        let g_small = erdos_renyi_gnm(5, 1000, 3);
        assert_eq!(g_small.num_edges(), 10); // clamped to complete graph
    }

    #[test]
    fn barabasi_albert_properties() {
        let g = barabasi_albert(200, 3, 11);
        assert_eq!(g.num_vertices(), 200);
        assert!(g.num_edges() >= 3 * (200 - 4));
        assert!(is_connected(&g));
        // Heavy tail: max degree clearly above the attachment parameter.
        assert!(g.max_degree() > 10);
    }

    #[test]
    fn watts_strogatz_properties() {
        let g = watts_strogatz(100, 4, 0.1, 5);
        assert_eq!(g.num_vertices(), 100);
        // Ring lattice contributes ~ n*k/2 edges; rewiring keeps the count close.
        assert!(g.num_edges() >= 150 && g.num_edges() <= 200);
    }

    #[test]
    fn rmat_properties() {
        let g = rmat(8, 8, (0.57, 0.19, 0.19, 0.05), 42);
        assert_eq!(g.num_vertices(), 256);
        assert!(g.num_edges() > 256); // duplicates removed, still dense enough
        assert!(g.max_degree() > 16); // skew
    }

    #[test]
    fn planted_partition_connectivity_backbone() {
        let g = planted_partition(120, 4, 0.3, 30, 9);
        assert_eq!(g.num_vertices(), 120);
        assert!(g.num_edges() > 100);
    }

    #[test]
    fn randomize_edge_weights_preserves_structure() {
        let g = cycle_graph(12);
        let w = randomize_edge_weights(&g, 10, 1);
        assert_eq!(w.num_edges(), g.num_edges());
        assert!(w.total_edge_weight() >= g.total_edge_weight());
        for (u, v, wt) in w.edges() {
            assert!(g.has_edge(u, v));
            assert!((1..=10).contains(&wt));
        }
    }

    #[test]
    fn random_permutation_is_permutation() {
        let p = random_permutation(100, 3);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100u32).collect::<Vec<_>>());
        assert_ne!(p, (0..100u32).collect::<Vec<_>>()); // overwhelmingly likely
    }
}
