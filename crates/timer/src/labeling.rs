//! Vertex labels of the application graph (Section 4 of the paper).
//!
//! Every application vertex `va` gets a label
//! `la(va) = lp(µ(va)) ∘ le(va)` — the partial-cube label of its PE (the
//! "left"/high part) concatenated with an extension (the "right"/low part)
//! that makes labels unique within each block. In the `u64` encoding used
//! here the extension occupies the low `ext_bits` bits and the PE label the
//! next `dim_p` bits, so truncating digits from the right (as the hierarchy
//! contraction does) first consumes the extension and then the PE label.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tie_graph::{Graph, NodeId};
use tie_mapping::Mapping;
use tie_topology::PartialCubeLabeling;

use crate::error::TieError;

/// The labeling `la : Va -> {0,1}^dim` of the application vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Labeling {
    /// Label of every application vertex (low `dim` bits meaningful).
    pub labels: Vec<u64>,
    /// Total number of digits `dim_Ga = dim_p + ext_bits`.
    pub dim: usize,
    /// Number of PE-label digits (`dim_Gp`).
    pub dim_p: usize,
    /// Number of extension digits.
    pub ext_bits: usize,
    /// PE id for every PE label, sorted by label for binary-search lookup
    /// (to convert labels back into a mapping).
    pe_of_label: Vec<(u64, u32)>,
    /// Number of PEs of the target machine.
    num_pes: usize,
}

impl Labeling {
    /// Builds the initial labeling from a mapping, following Section 4:
    /// the extension width is `max_vp ceil(log2 |µ^{-1}(vp)|)`; within each
    /// block the extension values `0..size` are assigned in a random order
    /// (the paper shuffles them to provide a good random starting point).
    ///
    /// # Errors
    /// Returns [`TieError::InvalidInput`] if the mapping and graph disagree
    /// on the vertex count, and [`TieError::IncompatibleTopology`] if the
    /// topology and mapping disagree on the PE count, the PE labels are not
    /// pairwise distinct, or the total label width would exceed 64 bits.
    pub fn from_mapping(
        graph: &Graph,
        pcube: &PartialCubeLabeling,
        mapping: &Mapping,
        seed: u64,
    ) -> Result<Self, TieError> {
        if graph.num_vertices() != mapping.num_tasks() {
            return Err(TieError::InvalidInput(format!(
                "graph/mapping size mismatch: graph has {} vertices, \
                 mapping covers {} tasks",
                graph.num_vertices(),
                mapping.num_tasks()
            )));
        }
        if pcube.num_pes() != mapping.num_pes() {
            return Err(TieError::IncompatibleTopology(format!(
                "topology/mapping PE count mismatch: labeling has {} PEs, \
                 mapping targets {}",
                pcube.num_pes(),
                mapping.num_pes()
            )));
        }
        let n = graph.num_vertices();
        let num_pes = mapping.num_pes();

        // Group vertices by PE.
        let mut blocks: Vec<Vec<NodeId>> = vec![Vec::new(); num_pes];
        for v in graph.vertices() {
            blocks[mapping.pe_of(v) as usize].push(v);
        }
        let max_block = blocks.iter().map(|b| b.len()).max().unwrap_or(0);
        let ext_bits = if max_block <= 1 {
            0
        } else {
            (usize::BITS - (max_block - 1).leading_zeros()) as usize
        };
        let dim_p = pcube.dim;
        let dim = dim_p + ext_bits;
        if dim > 64 {
            return Err(TieError::IncompatibleTopology(format!(
                "label width {dim} ({dim_p} PE digits + {ext_bits} extension \
                 digits) exceeds the 64-bit label encoding"
            )));
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut labels = vec![0u64; n];
        for (pe, block) in blocks.iter().enumerate() {
            let mut order = block.clone();
            order.shuffle(&mut rng);
            let lp = pcube.labels[pe];
            for (idx, &v) in order.iter().enumerate() {
                labels[v as usize] = (lp << ext_bits) | idx as u64;
            }
        }
        let mut pe_of_label: Vec<(u64, u32)> = pcube
            .labels
            .iter()
            .enumerate()
            .map(|(pe, &l)| (l, pe as u32))
            .collect();
        pe_of_label.sort_unstable_by_key(|&(l, _)| l);
        // A duplicate PE label would make `to_mapping` send two PEs' worth
        // of vertices to one PE — reject the inconsistent labeling instead.
        let distinct = num_pes - pe_of_label.windows(2).filter(|w| w[0].0 == w[1].0).count();
        if distinct != num_pes {
            return Err(TieError::IncompatibleTopology(format!(
                "PE labels are not pairwise distinct ({distinct} labels for {num_pes} \
                 PEs); the topology labeling is internally inconsistent"
            )));
        }
        Ok(Labeling {
            labels,
            dim,
            dim_p,
            ext_bits,
            pe_of_label,
            num_pes,
        })
    }

    /// Number of labelled vertices.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of PEs of the target machine.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// PE-label ("left") part of vertex `v`'s label.
    #[inline]
    pub fn lp_part(&self, v: NodeId) -> u64 {
        self.labels[v as usize] >> self.ext_bits
    }

    /// Bit mask of the extension digits.
    #[inline]
    pub fn ext_mask(&self) -> u64 {
        if self.ext_bits == 0 {
            0
        } else {
            (1u64 << self.ext_bits) - 1
        }
    }

    /// Bit mask of the PE-label digits (in un-permuted label space).
    #[inline]
    pub fn p_mask(&self) -> u64 {
        let full = if self.dim == 64 {
            u64::MAX
        } else {
            (1u64 << self.dim) - 1
        };
        full & !self.ext_mask()
    }

    /// PE encoded in vertex `v`'s label.
    ///
    /// # Panics
    /// Panics if the label's PE prefix is not in the labeling's PE table —
    /// only possible if an internal invariant broke, since the table is
    /// built from the same labels at construction.
    pub fn pe_of_vertex(&self, v: NodeId) -> u32 {
        let lp = self.lp_part(v);
        match self.pe_of_label.binary_search_by_key(&lp, |&(l, _)| l) {
            Ok(i) => self.pe_of_label[i].1,
            // tie-lint: allow(no-panic-paths) — documented invariant: PE table is derived from these labels
            Err(_) => panic!("label prefix {lp:#b} does not name a PE"),
        }
    }

    /// Converts the labeling back into a mapping `µ : Va -> Vp`.
    pub fn to_mapping(&self) -> Mapping {
        let assignment: Vec<u32> = (0..self.labels.len() as NodeId)
            .map(|v| self.pe_of_vertex(v))
            .collect();
        Mapping::new(assignment, self.num_pes)
    }

    /// True if the labels are pairwise distinct.
    pub fn is_unique(&self) -> bool {
        let mut sorted = self.labels.clone();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    }

    /// The label multiset as a sorted vector (used to verify that label swaps
    /// preserve the label set, which in turn preserves the balance of `µ`).
    pub fn sorted_label_set(&self) -> Vec<u64> {
        let mut sorted = self.labels.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Replaces the label vector (used by the driver after a hierarchy round).
    pub(crate) fn set_labels(&mut self, labels: Vec<u64>) {
        debug_assert_eq!(labels.len(), self.labels.len());
        self.labels = labels;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::generators;
    use tie_mapping::identity_mapping;
    use tie_partition::{partition, PartitionConfig};
    use tie_topology::{recognize_partial_cube, Topology};

    fn setup(seed: u64) -> (Graph, PartialCubeLabeling, Mapping) {
        let ga = generators::barabasi_albert(300, 3, seed);
        let topo = Topology::grid2d(4, 4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let part = partition(&ga, &PartitionConfig::new(16, seed));
        let mapping = identity_mapping(&part, 16);
        (ga, pcube, mapping)
    }

    #[test]
    fn labels_are_unique_and_encode_mapping() {
        let (ga, pcube, mapping) = setup(1);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 7).unwrap();
        assert!(labeling.is_unique());
        // Requirement 1 of Section 4: la encodes µ.
        for v in ga.vertices() {
            assert_eq!(labeling.pe_of_vertex(v), mapping.pe_of(v));
        }
        assert_eq!(labeling.to_mapping(), mapping);
    }

    #[test]
    fn dimensions_follow_equation_6() {
        let (ga, pcube, mapping) = setup(2);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 3).unwrap();
        let max_block = mapping.load_per_pe().into_iter().max().unwrap();
        let expected_ext = (max_block as f64).log2().ceil() as usize;
        assert_eq!(labeling.ext_bits, expected_ext);
        assert_eq!(labeling.dim, pcube.dim + expected_ext);
        assert_eq!(labeling.dim_p, pcube.dim);
    }

    #[test]
    fn lp_part_distance_equals_pe_distance() {
        // Requirement 2 of Section 4: the PE distance is readable from labels.
        let (ga, pcube, mapping) = setup(3);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 1).unwrap();
        let dist = tie_graph::traversal::all_pairs_distances(&Topology::grid2d(4, 4).graph);
        for (u, v, _) in ga.edges().take(500) {
            let h = (labeling.lp_part(u) ^ labeling.lp_part(v)).count_ones();
            assert_eq!(h, dist.get(mapping.pe_of(u), mapping.pe_of(v)));
        }
    }

    #[test]
    fn masks_are_disjoint_and_cover_dim() {
        let (ga, pcube, mapping) = setup(4);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 2).unwrap();
        assert_eq!(labeling.p_mask() & labeling.ext_mask(), 0);
        assert_eq!(
            (labeling.p_mask() | labeling.ext_mask()).count_ones() as usize,
            labeling.dim
        );
    }

    #[test]
    fn extension_shuffle_is_seed_dependent_but_structure_preserving() {
        let (ga, pcube, mapping) = setup(5);
        let a = Labeling::from_mapping(&ga, &pcube, &mapping, 1).unwrap();
        let b = Labeling::from_mapping(&ga, &pcube, &mapping, 2).unwrap();
        // Same label multiset, same mapping, (very likely) different order.
        assert_eq!(a.sorted_label_set(), b.sorted_label_set());
        assert_eq!(a.to_mapping(), b.to_mapping());
        assert_ne!(a.labels, b.labels);
    }

    #[test]
    fn single_vertex_per_pe_needs_no_extension() {
        let ga = generators::cycle_graph(16);
        let topo = Topology::hypercube(4);
        let pcube = recognize_partial_cube(&topo.graph).unwrap();
        let mapping = Mapping::new((0..16u32).collect(), 16);
        let labeling = Labeling::from_mapping(&ga, &pcube, &mapping, 0).unwrap();
        assert_eq!(labeling.ext_bits, 0);
        assert_eq!(labeling.dim, 4);
        assert!(labeling.is_unique());
    }

    #[test]
    fn size_mismatch_is_invalid_input() {
        let (_, pcube, mapping) = setup(6);
        let wrong = generators::cycle_graph(7); // mapping covers 300 tasks
        let err = Labeling::from_mapping(&wrong, &pcube, &mapping, 0).unwrap_err();
        assert!(matches!(err, TieError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn pe_count_mismatch_is_incompatible_topology() {
        let (ga, pcube, _) = setup(7);
        let wrong = Mapping::new(vec![0; ga.num_vertices()], 4); // pcube has 16 PEs
        let err = Labeling::from_mapping(&ga, &pcube, &wrong, 0).unwrap_err();
        assert!(matches!(err, TieError::IncompatibleTopology(_)), "{err}");
    }

    #[test]
    fn oversized_label_width_is_incompatible_topology() {
        // A 60-digit hypercube labeling plus ≥5 extension bits overflows u64.
        let ga = generators::cycle_graph(64);
        let pcube = PartialCubeLabeling {
            labels: (0..2u64).collect(),
            dim: 60,
            edge_class: Vec::new(),
        };
        let mapping = Mapping::new((0..64).map(|v| (v % 2) as u32).collect::<Vec<u32>>(), 2);
        let err = Labeling::from_mapping(&ga, &pcube, &mapping, 0).unwrap_err();
        assert!(matches!(err, TieError::IncompatibleTopology(_)), "{err}");
    }

    #[test]
    fn duplicate_pe_labels_are_rejected() {
        let ga = generators::cycle_graph(8);
        let pcube = PartialCubeLabeling {
            labels: vec![0, 1, 1, 2],
            dim: 2,
            edge_class: Vec::new(),
        };
        let mapping = Mapping::new((0..8).map(|v| (v % 4) as u32).collect::<Vec<u32>>(), 4);
        let err = Labeling::from_mapping(&ga, &pcube, &mapping, 0).unwrap_err();
        assert!(matches!(err, TieError::IncompatibleTopology(_)), "{err}");
    }
}
