//! Partial-cube recognition and vertex labelling (Section 3 of the paper).
//!
//! A graph `Gp` is a partial cube iff (i) it is bipartite and (ii) the
//! cut-sets of its convex cuts partition the edge set; the equivalence
//! classes are given by the Djoković relation θ. The recognizer below follows
//! the paper's simple `O(|Ep|^2)` procedure: repeatedly pick an unclassified
//! edge, compute its θ-class, and fail if classes overlap. Each class `j`
//! contributes one digit of the vertex labels: bit `j` of `lp(u)` says on
//! which side of the `j`-th convex cut PE `u` lies. Afterwards the labelling
//! is verified against the (BFS) distance matrix, so that a successful result
//! is guaranteed to satisfy `d_Gp(u, v) = hamming(lp(u), lp(v))`.

use std::collections::VecDeque;

use tie_graph::traversal::{all_pairs_distances, DistanceMatrix};
use tie_graph::{Graph, NodeId};

use crate::label::{hamming, Label};

/// Reasons why a graph cannot be labelled as a partial cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecognitionError {
    /// The graph contains an odd cycle.
    NotBipartite,
    /// The graph is disconnected; partial-cube labels require connectivity.
    Disconnected,
    /// Two Djoković classes overlap — the graph is bipartite but not a
    /// partial cube. The payload names the offending edge (by endpoints).
    OverlappingClasses(NodeId, NodeId),
    /// The computed labelling does not reproduce graph distances (defensive
    /// check; also triggers for graphs where θ is not transitive).
    DistanceMismatch(NodeId, NodeId),
    /// The isometric dimension exceeds 64 and does not fit in a `u64` label.
    DimensionTooLarge(usize),
    /// A labeling was verified against a graph with a different vertex
    /// count (labeling size, graph size).
    SizeMismatch(usize, usize),
}

impl std::fmt::Display for RecognitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecognitionError::NotBipartite => write!(f, "graph is not bipartite"),
            RecognitionError::Disconnected => write!(f, "graph is not connected"),
            RecognitionError::OverlappingClasses(u, v) => {
                write!(
                    f,
                    "Djoković classes overlap at edge ({u}, {v}); not a partial cube"
                )
            }
            RecognitionError::DistanceMismatch(u, v) => {
                write!(
                    f,
                    "labelling does not reproduce the distance between {u} and {v}"
                )
            }
            RecognitionError::DimensionTooLarge(d) => {
                write!(
                    f,
                    "isometric dimension {d} exceeds the supported maximum of 64"
                )
            }
            RecognitionError::SizeMismatch(labels, vertices) => {
                write!(
                    f,
                    "labeling covers {labels} PEs but the graph has {vertices} vertices"
                )
            }
        }
    }
}

impl std::error::Error for RecognitionError {}

/// The result of a successful partial-cube recognition: per-vertex bitvector
/// labels such that graph distance equals Hamming distance.
#[derive(Clone, Debug)]
pub struct PartialCubeLabeling {
    /// Label of every PE; only the low [`Self::dim`] bits are meaningful.
    pub labels: Vec<Label>,
    /// Isometric dimension (number of Djoković classes / convex cuts).
    pub dim: usize,
    /// For every edge (in `graph.edges()` order) the θ-class it belongs to.
    pub edge_class: Vec<u32>,
}

impl PartialCubeLabeling {
    /// Distance between PEs `u` and `v`, computed from the labels.
    #[inline]
    pub fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        hamming(self.labels[u as usize], self.labels[v as usize])
    }

    /// Label of PE `u`.
    #[inline]
    pub fn label(&self, u: NodeId) -> Label {
        self.labels[u as usize]
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.labels.len()
    }

    /// Verifies this labeling against the processor graph it claims to
    /// describe: the PE count must match and Hamming distance between labels
    /// must equal graph distance for every pair (the partial-cube property).
    ///
    /// `recognize_partial_cube` output always verifies against its input
    /// graph; this check is for labelings that crossed a trust boundary —
    /// deserialized, transformed, or paired with a graph they may not
    /// belong to.
    pub fn verify(&self, graph: &Graph) -> Result<(), RecognitionError> {
        if self.labels.len() != graph.num_vertices() {
            return Err(RecognitionError::SizeMismatch(
                self.labels.len(),
                graph.num_vertices(),
            ));
        }
        let dist = all_pairs_distances(graph);
        verify_labeling(&self.labels, &dist)
    }
}

/// Two-colours the graph via BFS; returns `None` if an odd cycle exists.
pub fn is_bipartite(graph: &Graph) -> bool {
    bipartite_sides(graph).is_some()
}

fn bipartite_sides(graph: &Graph) -> Option<Vec<u8>> {
    let n = graph.num_vertices();
    let mut colour = vec![u8::MAX; n];
    let mut queue = VecDeque::new();
    for s in graph.vertices() {
        if colour[s as usize] != u8::MAX {
            continue;
        }
        colour[s as usize] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if colour[v as usize] == u8::MAX {
                    colour[v as usize] = 1 - colour[u as usize];
                    queue.push_back(v);
                } else if colour[v as usize] == colour[u as usize] {
                    return None;
                }
            }
        }
    }
    Some(colour)
}

/// Recognizes whether `graph` is a partial cube and, if so, returns the
/// vertex labelling `lp(·)` of Definition 2.2 / Section 3.
///
/// Runs in `O(|Vp| · |Ep| + |Ep|^2)` time, which for the paper's processor
/// graphs (≤ 512 PEs, ≤ ~1500 links) is instantaneous, and needs to be done
/// only once per parallel machine.
pub fn recognize_partial_cube(graph: &Graph) -> Result<PartialCubeLabeling, RecognitionError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(PartialCubeLabeling {
            labels: Vec::new(),
            dim: 0,
            edge_class: Vec::new(),
        });
    }
    if !tie_graph::is_connected(graph) {
        return Err(RecognitionError::Disconnected);
    }
    if bipartite_sides(graph).is_none() {
        return Err(RecognitionError::NotBipartite);
    }

    let dist = all_pairs_distances(graph);
    let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(u, v, _)| (u, v)).collect();
    let m = edges.len();
    let mut edge_class = vec![u32::MAX; m];
    let mut dim = 0usize;
    // Representative edge (x_j, y_j) of every class, in class order.
    let mut representatives: Vec<(NodeId, NodeId)> = Vec::new();

    for start in 0..m {
        if edge_class[start] != u32::MAX {
            continue;
        }
        let (x, y) = edges[start];
        let class = dim as u32;
        // side[u] = true iff u is closer to x than to y (W_{x,y}). In a
        // bipartite graph adjacent x, y admit no ties.
        let side: Vec<bool> = (0..n as NodeId)
            .map(|u| dist.get(u, x) < dist.get(u, y))
            .collect();
        for (idx, &(a, b)) in edges.iter().enumerate() {
            if side[a as usize] != side[b as usize] {
                if edge_class[idx] != u32::MAX {
                    return Err(RecognitionError::OverlappingClasses(a, b));
                }
                edge_class[idx] = class;
            }
        }
        representatives.push((x, y));
        dim += 1;
        if dim > 64 {
            return Err(RecognitionError::DimensionTooLarge(dim));
        }
    }

    // Label construction, Eq. (5): bit j of lp(u) is 0 iff u lies on the x_j
    // side of the j-th convex cut.
    let mut labels = vec![0 as Label; n];
    for (j, &(x, y)) in representatives.iter().enumerate() {
        for u in 0..n as NodeId {
            if dist.get(u, x) >= dist.get(u, y) {
                labels[u as usize] |= 1u64 << j;
            }
        }
    }

    verify_labeling(&labels, &dist)?;
    Ok(PartialCubeLabeling {
        labels,
        dim,
        edge_class,
    })
}

/// Checks `hamming(lp(u), lp(v)) == d_Gp(u, v)` for all pairs.
///
/// Public so that callers holding a (possibly transformed) labelling can
/// re-validate it against the distance matrix — e.g. after permuting label
/// digits — instead of trusting the transformation blindly.
pub fn verify_labeling(labels: &[Label], dist: &DistanceMatrix) -> Result<(), RecognitionError> {
    let n = labels.len();
    for u in 0..n {
        for v in (u + 1)..n {
            let h = hamming(labels[u], labels[v]);
            if h != dist.get(u as NodeId, v as NodeId) {
                return Err(RecognitionError::DistanceMismatch(u as NodeId, v as NodeId));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::Topology;
    use tie_graph::generators;

    fn assert_is_partial_cube(graph: &Graph, expected_dim: Option<usize>) -> PartialCubeLabeling {
        let labeling = recognize_partial_cube(graph).expect("expected a partial cube");
        if let Some(d) = expected_dim {
            assert_eq!(labeling.dim, d);
        }
        labeling
    }

    #[test]
    fn bipartiteness() {
        assert!(is_bipartite(&generators::cycle_graph(6)));
        assert!(!is_bipartite(&generators::cycle_graph(5)));
        assert!(is_bipartite(&generators::grid2d(4, 4)));
        assert!(!is_bipartite(&generators::complete_graph(3)));
        assert!(is_bipartite(&generators::binary_tree(15)));
    }

    #[test]
    fn hypercubes_are_partial_cubes_of_their_dimension() {
        for d in 1..=6usize {
            let t = Topology::hypercube(d);
            assert_is_partial_cube(&t.graph, Some(d));
        }
    }

    #[test]
    fn grid_dimensions_match_expected_counts() {
        // The paper (Section 7.2) quotes 30, 21, 32, 24, 8 convex cuts for its
        // five topologies. For the grids and the hypercube these equal the
        // isometric dimension computed here (30, 21, 8). For the tori the
        // isometric dimension is half the paper's figure (16 and 12): each
        // Djoković class of an even cycle C_2k contains a pair of antipodal
        // edges, so C_2k contributes k digits, not 2k. The labelling still
        // satisfies distance = Hamming distance (verified below), which is
        // the property TIMER relies on.
        assert_eq!(
            assert_is_partial_cube(&Topology::grid2d(4, 4).graph, None).dim,
            6
        );
        assert_eq!(
            assert_is_partial_cube(&Topology::grid2d(16, 16).graph, None).dim,
            30
        );
        assert_eq!(
            assert_is_partial_cube(&Topology::grid3d(8, 8, 8).graph, None).dim,
            21
        );
        assert_eq!(
            assert_is_partial_cube(&Topology::torus2d(16, 16).graph, None).dim,
            16
        );
        assert_eq!(
            assert_is_partial_cube(&Topology::torus3d(8, 8, 8).graph, None).dim,
            12
        );
        assert_eq!(
            assert_is_partial_cube(&Topology::hypercube(8).graph, None).dim,
            8
        );
    }

    #[test]
    fn even_cycles_are_partial_cubes_odd_are_not() {
        assert_is_partial_cube(&generators::cycle_graph(8), Some(4));
        assert_eq!(
            recognize_partial_cube(&generators::cycle_graph(7)).unwrap_err(),
            RecognitionError::NotBipartite
        );
    }

    #[test]
    fn trees_are_partial_cubes_with_dim_equal_edge_count() {
        let t = generators::binary_tree(15);
        let labeling = assert_is_partial_cube(&t, Some(14));
        assert_eq!(labeling.edge_class.len(), 14);
        // Every tree edge is its own class.
        let mut classes: Vec<u32> = labeling.edge_class.clone();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes.len(), 14);
    }

    #[test]
    fn odd_torus_rejected() {
        let t = Topology::torus2d(3, 4);
        assert_eq!(
            recognize_partial_cube(&t.graph).unwrap_err(),
            RecognitionError::NotBipartite
        );
    }

    #[test]
    fn complete_bipartite_k23_is_not_a_partial_cube() {
        // K_{2,3} is bipartite but not a partial cube.
        let mut b = tie_graph::GraphBuilder::new(5);
        for u in 0..2u32 {
            for v in 2..5u32 {
                b.add_edge(u, v, 1);
            }
        }
        let g = b.build();
        let err = recognize_partial_cube(&g).unwrap_err();
        assert!(matches!(
            err,
            RecognitionError::OverlappingClasses(_, _) | RecognitionError::DistanceMismatch(_, _)
        ));
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            recognize_partial_cube(&g).unwrap_err(),
            RecognitionError::Disconnected
        );
    }

    #[test]
    fn labels_reproduce_distances_on_grid() {
        let g = generators::grid2d(5, 4);
        let labeling = assert_is_partial_cube(&g, Some(4 + 3));
        let dist = all_pairs_distances(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(labeling.distance(u, v), dist.get(u, v));
            }
        }
    }

    #[test]
    fn figure3_style_small_example() {
        // The paper's Figure 3a: a 6-vertex partial cube with two convex cuts
        // is modelled here by a 3x2 grid (2 + 1 = 3 cuts) — check the edge
        // classes partition the edge set.
        let g = generators::grid2d(3, 2);
        let labeling = assert_is_partial_cube(&g, Some(3));
        assert_eq!(
            labeling
                .edge_class
                .iter()
                .filter(|&&c| c == u32::MAX)
                .count(),
            0
        );
    }

    #[test]
    fn edge_classes_partition_edges() {
        let t = Topology::torus2d(4, 6);
        let labeling = assert_is_partial_cube(&t.graph, Some(2 + 3));
        // Every edge belongs to exactly one class and classes are 0..dim.
        for &c in &labeling.edge_class {
            assert!((c as usize) < labeling.dim);
        }
    }

    #[test]
    fn verify_labeling_catches_corruption() {
        let g = generators::grid2d(4, 4);
        let labeling = recognize_partial_cube(&g).unwrap();
        let dist = all_pairs_distances(&g);
        assert!(verify_labeling(&labeling.labels, &dist).is_ok());
        // Flip one digit of one label: some pairwise distance must now break.
        let mut corrupted = labeling.labels.clone();
        corrupted[3] ^= 1;
        assert!(matches!(
            verify_labeling(&corrupted, &dist),
            Err(RecognitionError::DistanceMismatch(_, _))
        ));
    }

    #[test]
    fn empty_graph_is_trivially_labelled() {
        let g = Graph::from_edges(0, &[]);
        let labeling = recognize_partial_cube(&g).unwrap();
        assert_eq!(labeling.dim, 0);
        assert!(labeling.labels.is_empty());
    }

    #[test]
    fn single_vertex() {
        let g = Graph::from_edges(1, &[]);
        let labeling = recognize_partial_cube(&g).unwrap();
        assert_eq!(labeling.dim, 0);
        assert_eq!(labeling.labels, vec![0]);
    }
}
