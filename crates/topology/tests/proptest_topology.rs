//! Property-based tests for topology builders and partial-cube recognition.

use proptest::prelude::*;
use tie_graph::traversal::all_pairs_distances;
use tie_topology::label::{format_label, invert_permutation, permute_label_bits};
use tie_topology::{hamming, recognize_partial_cube, Topology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every even-extent 2D torus is a partial cube whose labelling
    /// reproduces graph distances exactly.
    #[test]
    fn even_tori_are_partial_cubes(nx in 1..5usize, ny in 1..5usize) {
        let t = Topology::torus2d(2 * nx, 2 * ny);
        let labeling = recognize_partial_cube(&t.graph).unwrap();
        let dist = all_pairs_distances(&t.graph);
        for u in t.graph.vertices() {
            for v in t.graph.vertices() {
                prop_assert_eq!(labeling.distance(u, v), dist.get(u, v));
            }
        }
    }

    /// Every grid is a partial cube with dimension (nx-1) + (ny-1).
    #[test]
    fn grids_have_expected_dimension(nx in 2..7usize, ny in 2..7usize) {
        let t = Topology::grid2d(nx, ny);
        let labeling = recognize_partial_cube(&t.graph).unwrap();
        prop_assert_eq!(labeling.dim, (nx - 1) + (ny - 1));
    }

    /// 3D grids: dimension is the sum of (extent - 1) over the axes.
    #[test]
    fn grid3d_dimension(nx in 2..4usize, ny in 2..4usize, nz in 2..4usize) {
        let t = Topology::grid3d(nx, ny, nz);
        let labeling = recognize_partial_cube(&t.graph).unwrap();
        prop_assert_eq!(labeling.dim, (nx - 1) + (ny - 1) + (nz - 1));
    }

    /// Hypercube labels of dimension d are a bijection onto {0,1}^d.
    #[test]
    fn hypercube_labels_are_bijective(d in 1..7usize) {
        let t = Topology::hypercube(d);
        let labeling = recognize_partial_cube(&t.graph).unwrap();
        prop_assert_eq!(labeling.dim, d);
        let mut labels = labeling.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        prop_assert_eq!(labels.len(), 1 << d);
    }

    /// Label permutation preserves pairwise Hamming distances and is
    /// invertible.
    #[test]
    fn label_permutation_isometry(labels in proptest::collection::vec(0u64..(1 << 10), 2..40), seed in 0..1_000u64) {
        let dim = 10usize;
        let perm = tie_graph::generators::random_permutation(dim, seed)
            .into_iter().map(|x| x as usize).collect::<Vec<_>>();
        let inv = invert_permutation(&perm);
        for i in 0..labels.len() {
            let p = permute_label_bits(labels[i], &perm, dim);
            prop_assert_eq!(permute_label_bits(p, &inv, dim), labels[i]);
            for j in (i + 1)..labels.len() {
                let q = permute_label_bits(labels[j], &perm, dim);
                prop_assert_eq!(hamming(p, q), hamming(labels[i], labels[j]));
            }
        }
    }

    /// format_label produces dim characters of 0/1 and round-trips through
    /// binary parsing.
    #[test]
    fn format_label_roundtrip(label in 0u64..(1 << 12)) {
        let s = format_label(label, 12);
        prop_assert_eq!(s.len(), 12);
        let parsed = u64::from_str_radix(&s, 2).unwrap();
        prop_assert_eq!(parsed, label);
    }
}

#[test]
fn paper_topologies_are_all_partial_cubes() {
    for t in Topology::paper_topologies() {
        let labeling = recognize_partial_cube(&t.graph)
            .unwrap_or_else(|e| panic!("{} should be a partial cube: {e}", t.name));
        assert_eq!(labeling.num_pes(), t.num_pes());
    }
}

#[test]
fn paper_convex_cut_counts() {
    // Section 7.2 quotes "30, 21, 32, 24 and 8 convex cuts". Our recognizer
    // returns the isometric dimension, which matches for grids and the
    // hypercube; for tori it is half the quoted figure because an even cycle
    // C_2k has isometric dimension k (each Djoković class pairs two antipodal
    // edges). The Hamming-distance property is verified either way.
    let expected = [30usize, 21, 16, 12, 8];
    for (t, &dim) in Topology::paper_topologies().iter().zip(expected.iter()) {
        let labeling = recognize_partial_cube(&t.graph).unwrap();
        assert_eq!(labeling.dim, dim, "{}", t.name);
    }
}
