//! Multilevel bisection: coarsen, initially bisect, project back and refine.

use tie_graph::{Graph, Weight};

use crate::coarsen::coarsen_until;
use crate::fm::refine_bisection;
use crate::initial::{greedy_graph_growing, Bisection};
use crate::PartitionConfig;

/// Bisects `graph` into two sides with target weights `target0` and
/// `total - target0` using the full multilevel pipeline.
pub fn multilevel_bisection(
    graph: &Graph,
    target0: Weight,
    config: &PartitionConfig,
    seed: u64,
) -> Bisection {
    let total = graph.total_vertex_weight();
    let target1 = total.saturating_sub(target0);
    if graph.num_vertices() <= config.coarsen_until {
        let mut b = greedy_graph_growing(
            graph,
            target0,
            config.epsilon,
            config.initial_attempts,
            seed,
        );
        refine_bisection(
            graph,
            &mut b,
            target0,
            target1,
            config.epsilon,
            config.fm_passes,
        );
        return b;
    }

    let hierarchy = coarsen_until(graph, config.coarsen_until, seed);
    let coarsest = hierarchy.coarsest(graph);
    let mut coarse = greedy_graph_growing(
        coarsest,
        target0,
        config.epsilon,
        config.initial_attempts,
        seed.wrapping_add(1),
    );
    refine_bisection(
        coarsest,
        &mut coarse,
        target0,
        target1,
        config.epsilon,
        config.fm_passes,
    );

    // Uncoarsen level by level, refining after each projection.
    let mut side_on_level: Vec<u8> = coarse.side;
    for (idx, level) in hierarchy.levels.iter().enumerate().rev() {
        let fine_graph = idx
            .checked_sub(1)
            .map_or(graph, |i| &hierarchy.levels[i].graph);
        let mut fine_side = vec![0u8; level.fine_to_coarse.len()];
        for (v, &c) in level.fine_to_coarse.iter().enumerate() {
            fine_side[v] = side_on_level[c as usize];
        }
        let mut bis = Bisection::from_sides(fine_graph, fine_side);
        refine_bisection(
            fine_graph,
            &mut bis,
            target0,
            target1,
            config.epsilon,
            config.fm_passes,
        );
        side_on_level = bis.side;
    }
    Bisection::from_sides(graph, side_on_level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;

    #[test]
    fn multilevel_bisection_of_grid_is_good() {
        let g = generators::grid2d(16, 16);
        let cfg = PartitionConfig::new(2, 3);
        let b = multilevel_bisection(&g, 128, &cfg, 3);
        assert_eq!(b.weight0 + b.weight1, 256);
        assert!(
            b.is_feasible(128, 128, cfg.epsilon),
            "w0={} w1={}",
            b.weight0,
            b.weight1
        );
        // The optimal bisection of a 16x16 grid cuts 16 edges; the multilevel
        // heuristic should come close.
        assert!(b.cut <= 28, "cut = {}", b.cut);
    }

    #[test]
    fn multilevel_bisection_of_complex_network() {
        let g = generators::barabasi_albert(1000, 4, 9);
        let cfg = PartitionConfig::new(2, 5);
        let total = g.total_vertex_weight();
        let b = multilevel_bisection(&g, total / 2, &cfg, 5);
        assert!(b.is_feasible(total / 2, total - total / 2, cfg.epsilon));
        assert!(
            b.cut < g.total_edge_weight(),
            "refinement should cut fewer than all edges"
        );
    }

    #[test]
    fn small_graph_skips_coarsening() {
        let g = generators::cycle_graph(12);
        let cfg = PartitionConfig::new(2, 1);
        let b = multilevel_bisection(&g, 6, &cfg, 1);
        assert_eq!(b.weight0, 6);
        assert_eq!(b.cut, 2, "optimal bisection of an even cycle cuts 2 edges");
    }

    #[test]
    fn unbalanced_targets_respected() {
        let g = generators::grid2d(10, 10);
        let cfg = PartitionConfig::new(2, 2).with_epsilon(0.05);
        let b = multilevel_bisection(&g, 25, &cfg, 7);
        assert!(
            b.weight0 as f64 <= 25.0 * 1.05 + 1.0,
            "weight0 = {}",
            b.weight0
        );
        assert!(b.weight0 >= 20, "weight0 = {}", b.weight0);
    }
}
