//! The mapping objectives of Sections 1 and 5: `Coco`, the diversity term
//! `Div`, and the combined `Coco⁺ = Coco − Div`.
//!
//! With the label encoding of [`crate::Labeling`] the objectives become pure
//! bit arithmetic: for an edge `{u, v}` the Coco contribution is the Hamming
//! distance of the PE-label parts and the Div contribution the Hamming
//! distance of the extension parts, so
//!
//! ```text
//! Coco⁺ contribution = ω(u,v) · ( |(la(u)⊕la(v)) & p_mask| − |(la(u)⊕la(v)) & e_mask| ).
//! ```
//!
//! The same formula evaluated on the coarse graphs of a hierarchy (with the
//! masks truncated alongside the labels) yields the level-wise estimates used
//! during the multi-hierarchical search.

use tie_graph::{Graph, NodeId};

use crate::Labeling;

/// Signed objective value (Coco⁺ can be negative because Div is subtracted).
pub type Objective = i64;

/// Per-edge Coco⁺ cost of a pair of labels under the given digit masks.
#[inline]
pub fn label_cost(a: u64, b: u64, p_mask: u64, e_mask: u64) -> i64 {
    let x = a ^ b;
    (x & p_mask).count_ones() as i64 - (x & e_mask).count_ones() as i64
}

/// `Coco(µ)` (Eq. (3)): total communication cost of the mapping encoded in
/// the labeling.
pub fn coco(graph: &Graph, labeling: &Labeling) -> u64 {
    let p_mask = labeling.p_mask();
    graph
        .edges()
        .map(|(u, v, w)| {
            w * ((labeling.labels[u as usize] ^ labeling.labels[v as usize]) & p_mask).count_ones()
                as u64
        })
        .sum()
}

/// `Div(la)` (Eq. (12)): diversity of the extension labels.
pub fn diversity(graph: &Graph, labeling: &Labeling) -> u64 {
    let e_mask = labeling.ext_mask();
    graph
        .edges()
        .map(|(u, v, w)| {
            w * ((labeling.labels[u as usize] ^ labeling.labels[v as usize]) & e_mask).count_ones()
                as u64
        })
        .sum()
}

/// `Coco⁺(la) = Coco(la) − Div(la)` (Eq. (14)).
pub fn coco_plus(graph: &Graph, labeling: &Labeling) -> Objective {
    coco(graph, labeling) as i64 - diversity(graph, labeling) as i64
}

/// Generic objective over raw labels and masks (used on coarse levels, where
/// labels and masks have been truncated and possibly permuted).
pub fn objective_for_labels(graph: &Graph, labels: &[u64], p_mask: u64, e_mask: u64) -> Objective {
    graph
        .edges()
        .map(|(u, v, w)| {
            w as i64 * label_cost(labels[u as usize], labels[v as usize], p_mask, e_mask)
        })
        .sum()
}

/// Plain `Coco` and `Div` of raw labels in one edge scan. The driver seeds
/// its running totals from this instead of scanning the edges once per term.
pub fn coco_and_div_for_labels(
    graph: &Graph,
    labels: &[u64],
    p_mask: u64,
    e_mask: u64,
) -> (u64, u64) {
    let mut coco = 0u64;
    let mut div = 0u64;
    for (u, v, w) in graph.edges() {
        let x = labels[u as usize] ^ labels[v as usize];
        coco += w * (x & p_mask).count_ones() as u64;
        div += w * (x & e_mask).count_ones() as u64;
    }
    (coco, div)
}

/// Exact change of `(Coco, Div)` between two labelings of the same graph,
/// scanning only the edges incident to relabelled vertices. A hierarchy round
/// typically relabels a fraction of the vertices, so this replaces two full
/// edge scans per round.
pub fn coco_div_delta(
    graph: &Graph,
    old: &[u64],
    new: &[u64],
    p_mask: u64,
    e_mask: u64,
) -> (i64, i64) {
    debug_assert_eq!(old.len(), new.len());
    let changed: Vec<bool> = old.iter().zip(new).map(|(a, b)| a != b).collect();
    let mut coco = 0i64;
    let mut div = 0i64;
    for (u, &u_changed) in changed.iter().enumerate() {
        if !u_changed {
            continue;
        }
        for (w, wt) in graph.edges_of(u as NodeId) {
            let wi = w as usize;
            // Edges between two relabelled endpoints are counted once, from
            // the lower-indexed side.
            if changed[wi] && wi < u {
                continue;
            }
            let xo = old[u] ^ old[wi];
            let xn = new[u] ^ new[wi];
            coco +=
                wt as i64 * ((xn & p_mask).count_ones() as i64 - (xo & p_mask).count_ones() as i64);
            div +=
                wt as i64 * ((xn & e_mask).count_ones() as i64 - (xo & e_mask).count_ones() as i64);
        }
    }
    (coco, div)
}

/// Change of the objective if the labels of `u` and `v` were swapped
/// (negative = improvement). The edge `{u, v}` itself does not change.
pub fn swap_delta(
    graph: &Graph,
    labels: &[u64],
    p_mask: u64,
    e_mask: u64,
    u: NodeId,
    v: NodeId,
) -> i64 {
    let (lu, lv) = (labels[u as usize], labels[v as usize]);
    if lu == lv {
        return 0;
    }
    let mut delta = 0i64;
    for (w, wt) in graph.edges_of(u) {
        if w == v {
            continue;
        }
        let lw = labels[w as usize];
        delta +=
            wt as i64 * (label_cost(lv, lw, p_mask, e_mask) - label_cost(lu, lw, p_mask, e_mask));
    }
    for (w, wt) in graph.edges_of(v) {
        if w == u {
            continue;
        }
        let lw = labels[w as usize];
        delta +=
            wt as i64 * (label_cost(lu, lw, p_mask, e_mask) - label_cost(lv, lw, p_mask, e_mask));
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;
    use tie_graph::traversal::all_pairs_distances;
    use tie_mapping::{identity_mapping, Mapping};
    use tie_partition::{partition, PartitionConfig};
    use tie_topology::{recognize_partial_cube, Topology};

    fn setup() -> (Graph, Labeling, Mapping, Topology) {
        let ga = generators::randomize_edge_weights(&generators::barabasi_albert(250, 3, 3), 4, 5);
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let part = partition(&ga, &PartitionConfig::new(16, 1));
        let mapping = identity_mapping(&part, 16);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 3).unwrap();
        (ga, labeling, mapping, topo)
    }

    #[test]
    fn coco_matches_distance_definition() {
        // Coco from labels must equal the textbook definition with BFS
        // distances in Gp (Eq. (3)).
        let (ga, labeling, mapping, topo) = setup();
        let dist = all_pairs_distances(&topo.graph);
        let expected: u64 = ga
            .edges()
            .map(|(u, v, w)| w * dist.get(mapping.pe_of(u), mapping.pe_of(v)) as u64)
            .sum();
        assert_eq!(coco(&ga, &labeling), expected);
    }

    #[test]
    fn coco_plus_is_coco_minus_div() {
        let (ga, labeling, _, _) = setup();
        assert_eq!(
            coco_plus(&ga, &labeling),
            coco(&ga, &labeling) as i64 - diversity(&ga, &labeling) as i64
        );
    }

    #[test]
    fn objective_for_labels_agrees_with_struct_version() {
        let (ga, labeling, _, _) = setup();
        let obj = objective_for_labels(
            &ga,
            &labeling.labels,
            labeling.p_mask(),
            labeling.ext_mask(),
        );
        assert_eq!(obj, coco_plus(&ga, &labeling));
    }

    #[test]
    fn swap_delta_matches_recomputation() {
        let (ga, labeling, _, _) = setup();
        let (p_mask, e_mask) = (labeling.p_mask(), labeling.ext_mask());
        let base = objective_for_labels(&ga, &labeling.labels, p_mask, e_mask);
        // Check a spread of vertex pairs, adjacent and not.
        for (u, v) in [(0u32, 1u32), (5, 17), (3, 200), (10, 11), (40, 41)] {
            let mut swapped = labeling.labels.clone();
            swapped.swap(u as usize, v as usize);
            let expected = objective_for_labels(&ga, &swapped, p_mask, e_mask) - base;
            assert_eq!(
                swap_delta(&ga, &labeling.labels, p_mask, e_mask, u, v),
                expected
            );
        }
    }

    #[test]
    fn coco_and_div_single_scan_agrees_with_separate_scans() {
        let (ga, labeling, _, _) = setup();
        let (c, d) = coco_and_div_for_labels(
            &ga,
            &labeling.labels,
            labeling.p_mask(),
            labeling.ext_mask(),
        );
        assert_eq!(c, coco(&ga, &labeling));
        assert_eq!(d, diversity(&ga, &labeling));
    }

    #[test]
    fn coco_div_delta_matches_full_recomputation() {
        let (ga, labeling, _, _) = setup();
        let (p_mask, e_mask) = (labeling.p_mask(), labeling.ext_mask());
        let old = &labeling.labels;
        let (c0, d0) = coco_and_div_for_labels(&ga, old, p_mask, e_mask);
        // A wholesale relabeling touching a scattered set of vertices, the
        // shape a hierarchy round produces: swap several disjoint pairs and
        // rotate one triple (adjacent and non-adjacent vertices alike).
        let mut new = old.clone();
        for (u, v) in [(0usize, 1usize), (5, 17), (3, 200), (40, 41), (100, 7)] {
            new.swap(u, v);
        }
        let tmp = new[60];
        new[60] = new[61];
        new[61] = new[62];
        new[62] = tmp;
        let (c1, d1) = coco_and_div_for_labels(&ga, &new, p_mask, e_mask);
        assert_eq!(
            coco_div_delta(&ga, old, &new, p_mask, e_mask),
            (c1 as i64 - c0 as i64, d1 as i64 - d0 as i64)
        );
        // Identical labelings have zero delta.
        assert_eq!(coco_div_delta(&ga, old, old, p_mask, e_mask), (0, 0));
    }

    #[test]
    fn swapping_identical_labels_changes_nothing() {
        let g = generators::path_graph(3);
        let labels = vec![5u64, 5, 6];
        assert_eq!(swap_delta(&g, &labels, !0, 0, 0, 1), 0);
    }

    #[test]
    fn diversity_counts_extension_bits_only() {
        // Two adjacent vertices in the same block with different extensions
        // contribute to Div but not to Coco.
        let g = generators::path_graph(2);
        let mut labeling = {
            let topo = Topology::path(2);
            let pcube = recognize_partial_cube(&topo.graph).unwrap();
            let mapping = Mapping::new(vec![0, 0], 2);
            Labeling::from_mapping(&g, &pcube, &mapping, 0).unwrap()
        };
        // Force known labels: same lp part (PE 0), different extension bits.
        let lp0 = labeling.labels[0] >> labeling.ext_bits;
        labeling.labels[0] = lp0 << labeling.ext_bits;
        labeling.labels[1] = (lp0 << labeling.ext_bits) | 1;
        assert_eq!(coco(&g, &labeling), 0);
        assert_eq!(diversity(&g, &labeling), 1);
        assert_eq!(coco_plus(&g, &labeling), -1);
    }

    #[test]
    fn perfect_mapping_of_grid_onto_itself_has_minimal_coco() {
        // Application graph identical to the processor grid with the identity
        // mapping of one vertex per PE: every edge costs exactly one hop.
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let ga = topo.graph.clone();
        let mapping = Mapping::new((0..16u32).collect(), 16);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 0).unwrap();
        assert_eq!(coco(&ga, &labeling), ga.total_edge_weight());
    }
}
