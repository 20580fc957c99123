//! Recursive bisection: k-way partitioning by recursively splitting the graph
//! (and the block-id range) in two, with proportional target weights.

use tie_graph::{induced_subgraph, Graph, NodeId};

use crate::multilevel::multilevel_bisection;
use crate::partition::Partition;
use crate::PartitionConfig;

/// Partitions `graph` into `config.k` blocks by recursive multilevel
/// bisection followed by a greedy k-way refinement pass.
///
/// # Panics
/// Panics if `config.k` is zero.
pub fn recursive_bisection(graph: &Graph, config: &PartitionConfig) -> Partition {
    assert!(config.k >= 1, "k must be positive");
    let n = graph.num_vertices();
    let mut assignment = vec![0u32; n];
    if config.k > 1 && n > 0 {
        let vertices: Vec<NodeId> = graph.vertices().collect();
        split_recursive(
            graph,
            &vertices,
            0,
            config.k,
            config,
            config.seed,
            &mut assignment,
        );
    }
    let mut partition = Partition::new(assignment, config.k);
    if config.k > 1 {
        // Recursive bisection is heuristic; make the balance constraint
        // (Eq. (1)) hold explicitly, then improve the cut locally without
        // violating it again.
        crate::kway_refine::rebalance(graph, &mut partition, config.epsilon);
        crate::kway_refine::greedy_kway_refine(graph, &mut partition, config.epsilon, 3);
    }
    partition
}

/// Recursively splits `vertices` (a subset of `graph`) into blocks
/// `first_block .. first_block + num_blocks`.
fn split_recursive(
    graph: &Graph,
    vertices: &[NodeId],
    first_block: u32,
    num_blocks: usize,
    config: &PartitionConfig,
    seed: u64,
    assignment: &mut [u32],
) {
    if num_blocks <= 1 || vertices.is_empty() {
        for &v in vertices {
            assignment[v as usize] = first_block;
        }
        return;
    }
    let sub = induced_subgraph(graph, vertices);
    let total = sub.graph.total_vertex_weight();
    // Split block counts as evenly as possible; target weights proportional.
    let k0 = num_blocks / 2;
    let k1 = num_blocks - k0;
    let target0 = (total as u128 * k0 as u128 / num_blocks as u128) as u64;

    // Tighten epsilon on inner levels so that the accumulated imbalance over
    // log2(k) levels still respects the outer bound (standard recursive
    // bisection trick).
    let levels_remaining = (num_blocks as f64).log2().ceil().max(1.0);
    let inner_eps = (1.0 + config.epsilon).powf(1.0 / levels_remaining) - 1.0;

    let inner_cfg = PartitionConfig {
        epsilon: inner_eps,
        ..config.clone()
    };
    let bisection = multilevel_bisection(&sub.graph, target0, &inner_cfg, seed);

    let mut part0: Vec<NodeId> = Vec::new();
    let mut part1: Vec<NodeId> = Vec::new();
    for (local, &orig) in sub.to_parent.iter().enumerate() {
        if bisection.side[local] == 0 {
            part0.push(orig);
        } else {
            part1.push(orig);
        }
    }
    split_recursive(
        graph,
        &part0,
        first_block,
        k0,
        config,
        seed.wrapping_add(1),
        assignment,
    );
    split_recursive(
        graph,
        &part1,
        first_block + k0 as u32,
        k1,
        config,
        seed.wrapping_add(2),
        assignment,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;

    #[test]
    fn kway_partition_of_grid() {
        let g = generators::grid2d(16, 16);
        let cfg = PartitionConfig::new(16, 1);
        let p = recursive_bisection(&g, &cfg);
        assert_eq!(p.k(), 16);
        assert_eq!(p.num_nonempty_blocks(), 16);
        assert!(
            p.is_balanced(&g, cfg.epsilon + 1e-9),
            "imbalance = {}",
            p.imbalance(&g)
        );
        // 16 blocks of a 16x16 grid: a sensible cut is far below total edges.
        assert!(p.edge_cut(&g) < 180, "cut = {}", p.edge_cut(&g));
    }

    #[test]
    fn kway_partition_of_complex_network() {
        let g = generators::barabasi_albert(2000, 3, 13);
        let cfg = PartitionConfig::new(32, 4);
        let p = recursive_bisection(&g, &cfg);
        assert_eq!(p.num_nonempty_blocks(), 32);
        assert!(
            p.is_balanced(&g, cfg.epsilon + 0.02),
            "imbalance = {}",
            p.imbalance(&g)
        );
        assert!(p.edge_cut(&g) < g.total_edge_weight());
    }

    #[test]
    fn non_power_of_two_k() {
        let g = generators::grid2d(9, 7);
        let cfg = PartitionConfig::new(5, 2);
        let p = recursive_bisection(&g, &cfg);
        assert_eq!(p.k(), 5);
        assert_eq!(p.num_nonempty_blocks(), 5);
        assert!(
            p.is_balanced(&g, cfg.epsilon + 0.05),
            "imbalance = {}",
            p.imbalance(&g)
        );
    }

    #[test]
    fn k_equal_one_puts_everything_in_block_zero() {
        let g = generators::cycle_graph(10);
        let p = recursive_bisection(&g, &PartitionConfig::new(1, 0));
        assert!(p.assignment().iter().all(|&b| b == 0));
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::watts_strogatz(300, 6, 0.1, 2);
        let a = recursive_bisection(&g, &PartitionConfig::new(8, 42));
        let b = recursive_bisection(&g, &PartitionConfig::new(8, 42));
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn k_larger_than_n_yields_singletons() {
        let g = generators::path_graph(3);
        let p = recursive_bisection(&g, &PartitionConfig::new(8, 0));
        // Every vertex alone; only 3 non-empty blocks.
        assert_eq!(p.num_nonempty_blocks(), 3);
    }
}
