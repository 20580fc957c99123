//! Seeded inputs for the oracle proptests of the refinement and growing
//! kernels: weighted G(n, m) graphs, Barabási–Albert and R-MAT hub graphs,
//! and disconnected graphs with isolated vertices. Every family gets random
//! vertex weights and random edge weights, about a tenth of them zero.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tie_graph::{generators, Graph, GraphBuilder, NodeId};

/// Number of graph families [`oracle_graph`] draws from.
pub(crate) const KINDS: usize = 4;

/// A seeded graph of family `kind % KINDS` with about `n` vertices.
pub(crate) fn oracle_graph(kind: usize, n: usize, seed: u64) -> Graph {
    let n = n.max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let skeleton = match kind % KINDS {
        0 => generators::erdos_renyi_gnm(n, rng.gen_range(0..=3 * n), seed),
        1 => generators::barabasi_albert(n, rng.gen_range(1..4), seed),
        2 => {
            let scale = (n as f64).log2().ceil() as u32;
            generators::rmat(scale, 8, (0.57, 0.19, 0.19, 0.05), seed)
        }
        _ => disconnected(n, &mut rng),
    };
    let max_w: u64 = [1, 3, 50][rng.gen_range(0..3usize)];
    let mut builder = GraphBuilder::new(skeleton.num_vertices());
    for (u, v, _) in skeleton.edges() {
        let w = if rng.gen_bool(0.1) {
            0
        } else {
            rng.gen_range(1..=max_w)
        };
        builder.add_edge(u, v, w);
    }
    for v in skeleton.vertices() {
        builder.set_vertex_weight(v, rng.gen_range(1..=3));
    }
    builder.build()
}

/// Two random components and a tail of isolated vertices, relabelled by a
/// random permutation so no component is a contiguous id range.
fn disconnected(n: usize, rng: &mut StdRng) -> Graph {
    let mut label: Vec<NodeId> = (0..n as NodeId).collect();
    label.shuffle(rng);
    let split = rng.gen_range(1..=n);
    let isolated_from = rng.gen_range(split..=n);
    let mut builder = GraphBuilder::new(n);
    for range in [0..split, split..isolated_from] {
        if range.len() < 2 {
            continue;
        }
        for _ in 0..2 * range.len() {
            let u = rng.gen_range(range.clone());
            let v = rng.gen_range(range.clone());
            builder.add_edge(label[u], label[v], 1);
        }
    }
    builder.build()
}
