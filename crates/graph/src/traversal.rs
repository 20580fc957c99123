//! Breadth-first traversal utilities: single-source distances, all-pairs
//! distances, connected components.

use std::collections::VecDeque;

use crate::csr::{Graph, NodeId};
use crate::UNREACHABLE;

/// Unweighted BFS distances from `source` to every vertex. Unreachable
/// vertices get [`UNREACHABLE`].
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    if n == 0 {
        return dist;
    }
    let mut queue = VecDeque::with_capacity(n);
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in graph.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// All-pairs unweighted distances as a dense `n x n` matrix in row-major
/// order. Intended for processor graphs (a few hundred vertices), not for
/// application graphs.
pub fn all_pairs_distances(graph: &Graph) -> DistanceMatrix {
    let n = graph.num_vertices();
    let mut data = Vec::with_capacity(n * n);
    for s in graph.vertices() {
        data.extend_from_slice(&bfs_distances(graph, s));
    }
    DistanceMatrix { n, data }
}

/// Dense distance matrix produced by [`all_pairs_distances`].
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<u32>,
}

impl DistanceMatrix {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Distance between `u` and `v` in hops.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> u32 {
        self.data[u as usize * self.n + v as usize]
    }

    /// Largest finite distance (graph diameter if connected).
    pub fn diameter(&self) -> u32 {
        self.data
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }
}

/// Assigns a component id to every vertex and returns `(components, count)`.
pub fn connected_components(graph: &Graph) -> (Vec<u32>, usize) {
    let n = graph.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for s in graph.vertices() {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        comp[s as usize] = count;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (comp, count as usize)
}

/// True if the graph is connected (the empty graph counts as connected).
pub fn is_connected(graph: &Graph) -> bool {
    graph.num_vertices() == 0 || connected_components(graph).1 == 1
}

/// Extracts the largest connected component as a new graph together with the
/// mapping `old id -> new id` (vertices outside the component map to `None`).
pub fn largest_connected_component(graph: &Graph) -> (Graph, Vec<Option<NodeId>>) {
    let n = graph.num_vertices();
    if n == 0 {
        return (graph.clone(), Vec::new());
    }
    let (comp, count) = connected_components(graph);
    let mut sizes = vec![0usize; count];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    let largest = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .map(|(i, _)| i as u32)
        .unwrap_or(0);
    let members: Vec<NodeId> = graph
        .vertices()
        .filter(|&v| comp[v as usize] == largest)
        .collect();
    let sub = crate::induced_subgraph(graph, &members);
    let mut remap = vec![None; n];
    for (child, &parent) in sub.to_parent.iter().enumerate() {
        remap[parent as usize] = Some(child as NodeId);
    }
    (sub.graph, remap)
}

/// Returns a BFS ordering of the vertices starting from `source`; vertices in
/// other components are appended in id order. Useful for locality-friendly
/// initial numberings.
pub fn bfs_order(graph: &Graph, source: NodeId) -> Vec<NodeId> {
    let n = graph.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    let mut start = source;
    loop {
        if !seen[start as usize] {
            seen[start as usize] = true;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                order.push(u);
                for &v in graph.neighbors(u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(next) => start = next as NodeId,
            None => break,
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path_graph(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn all_pairs_matches_single_source() {
        let g = generators::cycle_graph(6);
        let m = all_pairs_distances(&g);
        for s in g.vertices() {
            let d = bfs_distances(&g, s);
            for t in g.vertices() {
                assert_eq!(m.get(s, t), d[t as usize]);
            }
        }
        assert_eq!(m.diameter(), 3);
    }

    #[test]
    fn components_counts() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[5], comp[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_cycle() {
        let g = generators::cycle_graph(8);
        assert!(is_connected(&g));
    }

    #[test]
    fn largest_component_extraction() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]);
        let (lcc, remap) = largest_connected_component(&g);
        assert_eq!(lcc.num_vertices(), 3);
        assert_eq!(lcc.num_edges(), 3);
        assert!(remap[0].is_some() && remap[3].is_none() && remap[5].is_none());
        assert!(is_connected(&lcc));
    }

    #[test]
    fn bfs_order_visits_all_vertices() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let order = bfs_order(&g, 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_graph_traversal() {
        let g = Graph::from_edges(0, &[]);
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).1, 0);
    }
}
