//! Graph contraction along a matching (the coarsening step of the multilevel
//! scheme).

use tie_graph::{contract_into, ContractScratch, Graph, NodeId};

use crate::matching::Matching;

/// One level of the coarsening hierarchy.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The contracted graph.
    pub graph: Graph,
    /// For every fine vertex, the coarse vertex it was contracted into.
    pub fine_to_coarse: Vec<NodeId>,
}

/// Contracts `graph` along `matching`: every matched pair becomes a single
/// coarse vertex whose weight is the sum of the pair's weights; unmatched
/// vertices are copied. Parallel edges arising from the contraction are
/// merged with accumulated weights; self-loops (edges inside a pair) vanish.
/// The coarse graph comes from the CSR kernel [`contract_into`], which
/// reuses `scratch`'s buffers across levels.
pub fn contract(graph: &Graph, matching: &Matching, scratch: &mut ContractScratch) -> CoarseLevel {
    let n = graph.num_vertices();
    let mut fine_to_coarse = vec![NodeId::MAX; n];
    let mut next = 0 as NodeId;
    for v in 0..n as NodeId {
        if fine_to_coarse[v as usize] != NodeId::MAX {
            continue;
        }
        let mate = matching.mate[v as usize];
        fine_to_coarse[v as usize] = next;
        if mate != v {
            fine_to_coarse[mate as usize] = next;
        }
        next += 1;
    }
    CoarseLevel {
        graph: contract_into(graph, &fine_to_coarse, next as usize, scratch),
        fine_to_coarse,
    }
}

/// A full coarsening hierarchy from the original graph down to a small one.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// `levels[0]` contracts the input graph; `levels.last()` is the coarsest.
    pub levels: Vec<CoarseLevel>,
}

impl Hierarchy {
    /// The coarsest graph (the input graph itself if no contraction happened).
    pub fn coarsest<'a>(&'a self, original: &'a Graph) -> &'a Graph {
        self.levels.last().map(|l| &l.graph).unwrap_or(original)
    }

    /// Projects an assignment on the coarsest graph back to the original
    /// vertices.
    pub fn project_to_finest(&self, coarse_assignment: &[u32]) -> Vec<u32> {
        let mut assignment: Vec<u32> = coarse_assignment.to_vec();
        for level in self.levels.iter().rev() {
            let mut fine = vec![0u32; level.fine_to_coarse.len()];
            for (v, &c) in level.fine_to_coarse.iter().enumerate() {
                fine[v] = assignment[c as usize];
            }
            assignment = fine;
        }
        assignment
    }
}

/// Repeatedly matches and contracts until the graph has at most
/// `target_size` vertices or contraction stalls (less than 10 % shrinkage),
/// which happens e.g. on star-like graphs where matchings are tiny.
pub fn coarsen_until(graph: &Graph, target_size: usize, seed: u64) -> Hierarchy {
    let mut hierarchy = Hierarchy { levels: Vec::new() };
    let mut scratch = ContractScratch::default();
    let mut round = 0u64;
    loop {
        let current = hierarchy.coarsest(graph);
        if current.num_vertices() <= target_size {
            break;
        }
        let matching = crate::matching::heavy_edge_matching(current, seed.wrapping_add(round));
        let level = contract(current, &matching, &mut scratch);
        let shrunk = level.graph.num_vertices();
        if shrunk as f64 > current.num_vertices() as f64 * 0.95 {
            break; // contraction stalled
        }
        hierarchy.levels.push(level);
        round += 1;
        if round > 200 {
            break;
        }
    }
    hierarchy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::heavy_edge_matching;
    use tie_graph::generators;

    #[test]
    fn contraction_preserves_total_vertex_weight() {
        let g = generators::grid2d(6, 6);
        let m = heavy_edge_matching(&g, 1);
        let level = contract(&g, &m, &mut ContractScratch::default());
        assert_eq!(level.graph.total_vertex_weight(), g.total_vertex_weight());
        assert_eq!(level.graph.num_vertices(), g.num_vertices() - m.num_pairs);
    }

    #[test]
    fn contraction_drops_only_intra_pair_weight() {
        let g = generators::cycle_graph(8);
        let m = heavy_edge_matching(&g, 2);
        let level = contract(&g, &m, &mut ContractScratch::default());
        // Total edge weight decreases exactly by the weight of matched edges.
        let matched_weight: u64 = g
            .edges()
            .filter(|&(u, v, _)| m.mate[u as usize] == v)
            .map(|(_, _, w)| w)
            .sum();
        assert_eq!(
            level.graph.total_edge_weight(),
            g.total_edge_weight() - matched_weight
        );
    }

    #[test]
    fn hierarchy_reaches_target_size() {
        let g = generators::barabasi_albert(500, 3, 4);
        let h = coarsen_until(&g, 50, 0);
        assert!(
            h.coarsest(&g).num_vertices() <= 120,
            "stalled too early: {}",
            h.coarsest(&g).num_vertices()
        );
        assert!(!h.levels.is_empty());
        // Weight conservation through the whole hierarchy.
        assert_eq!(
            h.coarsest(&g).total_vertex_weight(),
            g.total_vertex_weight()
        );
    }

    #[test]
    fn projection_roundtrip() {
        let g = generators::grid2d(8, 8);
        let h = coarsen_until(&g, 8, 3);
        let coarsest = h.coarsest(&g);
        // Assign alternating blocks on the coarsest graph and project.
        let coarse_assignment: Vec<u32> =
            (0..coarsest.num_vertices() as u32).map(|v| v % 2).collect();
        let fine = h.project_to_finest(&coarse_assignment);
        assert_eq!(fine.len(), g.num_vertices());
        // Every fine vertex inherits the block of its coarse representative.
        let mut v_to_c: Vec<u32> = (0..g.num_vertices() as u32).collect();
        for level in &h.levels {
            v_to_c = v_to_c
                .iter()
                .map(|&c| level.fine_to_coarse[c as usize])
                .collect();
        }
        for v in 0..g.num_vertices() {
            assert_eq!(fine[v], coarse_assignment[v_to_c[v] as usize]);
        }
    }

    #[test]
    fn empty_hierarchy_on_tiny_graph() {
        let g = generators::path_graph(3);
        let h = coarsen_until(&g, 10, 0);
        assert!(h.levels.is_empty());
        assert_eq!(h.project_to_finest(&[0, 1, 0]), vec![0, 1, 0]);
    }
}
