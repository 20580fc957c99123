//! Processor-graph builders.
//!
//! The paper evaluates on five processor graphs: a 16×16 grid, an 8×8×8 grid,
//! a 16×16 torus, an 8×8×8 torus and an 8-dimensional hypercube (Section 7.1).
//! All of them — and additionally trees and paths — are partial cubes, the
//! graph class TIMER requires.

use tie_graph::{generators, Graph, GraphBuilder, NodeId};

/// A processor graph together with descriptive metadata.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The processor graph `Gp`.
    pub graph: Graph,
    /// Human-readable name used in reports (e.g. `grid16x16`).
    pub name: String,
}

impl Topology {
    /// Number of processing elements.
    pub fn num_pes(&self) -> usize {
        self.graph.num_vertices()
    }

    /// 2D grid (mesh) topology with `nx × ny` PEs.
    pub fn grid2d(nx: usize, ny: usize) -> Self {
        Topology {
            graph: generators::grid2d(nx, ny),
            name: format!("grid{nx}x{ny}"),
        }
    }

    /// 3D grid (mesh) topology with `nx × ny × nz` PEs.
    pub fn grid3d(nx: usize, ny: usize, nz: usize) -> Self {
        Topology {
            graph: generators::grid3d(nx, ny, nz),
            name: format!("grid{nx}x{ny}x{nz}"),
        }
    }

    /// 2D torus topology with `nx × ny` PEs. Only tori with *even* extents in
    /// every dimension are partial cubes (the paper restricts itself to
    /// those); odd extents are still constructed but will be rejected by the
    /// partial-cube recognizer.
    pub fn torus2d(nx: usize, ny: usize) -> Self {
        let idx = |x: usize, y: usize| (x * ny + y) as NodeId;
        let mut b = GraphBuilder::new(nx * ny);
        for x in 0..nx {
            for y in 0..ny {
                if nx > 1 {
                    b.add_edge(idx(x, y), idx((x + 1) % nx, y), 1);
                }
                if ny > 1 {
                    b.add_edge(idx(x, y), idx(x, (y + 1) % ny), 1);
                }
            }
        }
        Topology {
            graph: b.build(),
            name: format!("torus{nx}x{ny}"),
        }
    }

    /// 3D torus topology with `nx × ny × nz` PEs.
    pub fn torus3d(nx: usize, ny: usize, nz: usize) -> Self {
        let idx = |x: usize, y: usize, z: usize| (x * ny * nz + y * nz + z) as NodeId;
        let mut b = GraphBuilder::new(nx * ny * nz);
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    if nx > 1 {
                        b.add_edge(idx(x, y, z), idx((x + 1) % nx, y, z), 1);
                    }
                    if ny > 1 {
                        b.add_edge(idx(x, y, z), idx(x, (y + 1) % ny, z), 1);
                    }
                    if nz > 1 {
                        b.add_edge(idx(x, y, z), idx(x, y, (z + 1) % nz), 1);
                    }
                }
            }
        }
        Topology {
            graph: b.build(),
            name: format!("torus{nx}x{ny}x{nz}"),
        }
    }

    /// `dim`-dimensional hypercube with `2^dim` PEs.
    ///
    /// # Panics
    /// Panics if `dim > 20` (over a million PEs — almost certainly a bug).
    pub fn hypercube(dim: usize) -> Self {
        assert!(dim <= 20, "hypercube dimension {dim} unreasonably large");
        let n = 1usize << dim;
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            for d in 0..dim {
                let u = v ^ (1 << d);
                if u > v {
                    b.add_edge(v as NodeId, u as NodeId, 1);
                }
            }
        }
        Topology {
            graph: b.build(),
            name: format!("{dim}-dimHQ"),
        }
    }

    /// Complete binary tree with `n` PEs (e.g. a fat-tree-like switch
    /// hierarchy collapsed to its tree skeleton). Trees are partial cubes.
    pub fn binary_tree(n: usize) -> Self {
        Topology {
            graph: generators::binary_tree(n),
            name: format!("tree{n}"),
        }
    }

    /// Simple path of `n` PEs (a 1×n grid).
    pub fn path(n: usize) -> Self {
        Topology {
            graph: generators::path_graph(n),
            name: format!("path{n}"),
        }
    }

    /// The five processor graphs of the paper's evaluation (Section 7.1), in
    /// the order of Table 2: 16×16 grid, 8×8×8 grid, 16×16 torus, 8×8×8
    /// torus, 8-dimensional hypercube.
    pub fn paper_topologies() -> Vec<Topology> {
        vec![
            Topology::grid2d(16, 16),
            Topology::grid3d(8, 8, 8),
            Topology::torus2d(16, 16),
            Topology::torus3d(8, 8, 8),
            Topology::hypercube(8),
        ]
    }

    /// Scaled-down variants of the paper's topologies (64 PEs each) for fast
    /// tests and examples: 8×8 grid, 4×4×4 grid, 8×8 torus, 4×4×4 torus,
    /// 6-dim hypercube.
    pub fn small_topologies() -> Vec<Topology> {
        vec![
            Topology::grid2d(8, 8),
            Topology::grid3d(4, 4, 4),
            Topology::torus2d(8, 8),
            Topology::torus3d(4, 4, 4),
            Topology::hypercube(6),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::traversal::is_connected;

    #[test]
    fn grid2d_metadata() {
        let t = Topology::grid2d(16, 16);
        assert_eq!(t.num_pes(), 256);
        assert_eq!(t.name, "grid16x16");
        assert!(is_connected(&t.graph));
        assert_eq!(t.graph.num_edges(), 2 * 16 * 15);
    }

    #[test]
    fn grid3d_edge_count() {
        let t = Topology::grid3d(8, 8, 8);
        assert_eq!(t.num_pes(), 512);
        assert_eq!(t.graph.num_edges(), 3 * 8 * 8 * 7);
    }

    #[test]
    fn torus2d_is_4_regular() {
        let t = Topology::torus2d(16, 16);
        assert_eq!(t.num_pes(), 256);
        for v in t.graph.vertices() {
            assert_eq!(t.graph.degree(v), 4);
        }
        assert_eq!(t.graph.num_edges(), 2 * 256);
    }

    #[test]
    fn torus3d_is_6_regular() {
        let t = Topology::torus3d(8, 8, 8);
        assert_eq!(t.num_pes(), 512);
        for v in t.graph.vertices() {
            assert_eq!(t.graph.degree(v), 6);
        }
    }

    #[test]
    fn small_torus_degenerate_extents() {
        // 2-extent tori: wrap-around edge coincides with the grid edge, so the
        // builder merges them; degree per dimension is 1, not 2.
        let t = Topology::torus2d(2, 2);
        assert_eq!(t.num_pes(), 4);
        for v in t.graph.vertices() {
            assert_eq!(t.graph.degree(v), 2);
        }
    }

    #[test]
    fn hypercube_shape() {
        let t = Topology::hypercube(8);
        assert_eq!(t.num_pes(), 256);
        for v in t.graph.vertices() {
            assert_eq!(t.graph.degree(v), 8);
        }
        assert_eq!(t.graph.num_edges(), 8 * 256 / 2);
        assert_eq!(t.name, "8-dimHQ");
    }

    #[test]
    fn hypercube_neighbors_differ_in_one_bit() {
        let t = Topology::hypercube(5);
        for (u, v, _) in t.graph.edges() {
            assert_eq!((u ^ v).count_ones(), 1);
        }
    }

    #[test]
    fn tree_and_path() {
        let t = Topology::binary_tree(31);
        assert_eq!(t.graph.num_edges(), 30);
        assert!(is_connected(&t.graph));
        let p = Topology::path(10);
        assert_eq!(p.graph.num_edges(), 9);
    }

    #[test]
    fn paper_topologies_inventory() {
        let ts = Topology::paper_topologies();
        assert_eq!(ts.len(), 5);
        let sizes: Vec<usize> = ts.iter().map(|t| t.num_pes()).collect();
        assert_eq!(sizes, vec![256, 512, 256, 512, 256]);
    }

    #[test]
    fn small_topologies_inventory() {
        let ts = Topology::small_topologies();
        assert_eq!(ts.len(), 5);
        assert!(ts.iter().all(|t| t.num_pes() == 64));
    }
}
