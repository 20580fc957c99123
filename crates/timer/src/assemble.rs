//! Reassembling a fine-level labeling from a swapped hierarchy (function
//! `assemble()`, Algorithm 2 of the paper) as a push-down from the coarsest
//! level: `labels_i[v] = labels_{i+1}[fine_to_coarse_i[v]] << 1 |
//! (labels_i[v] & 1)`. Every digit of a fine label is the last digit of the
//! vertex's ancestor on the level that owns the digit, as swapped there.
//!
//! This deviates from the paper. Algorithm 2 writes an ancestor's digit only
//! when some original label carries the resulting prefix and inverts the
//! digit otherwise (lines 9–14). That check ignores multiplicity, so its
//! labels can collide or leave the original label set. Here the sweeps swap
//! only sibling groups of equal suffix class (see [`crate::hierarchy`]), so
//! no swap creates a prefix that no label carries and the inversion never
//! triggers. The composed labels are a permutation of the level-0 labels by
//! construction, which preserves the balance of `µ` (Section 4), and no
//! label ever needs a repair. `BENCH_quality.json` shows what the rule
//! costs: every cell of the quality matrix keeps all its rounds and ends
//! below its input.

use crate::hierarchy::HierarchyRun;

/// Composes the fine-level labels of `run` by pushing every level's labels
/// down to the next finer one. O(Σ level sizes); empty for an empty run.
pub fn assemble_labels(run: &HierarchyRun) -> Vec<u64> {
    let Some((coarsest, finer)) = run.levels.split_last() else {
        return Vec::new();
    };
    finer
        .iter()
        .rev()
        .fold(coarsest.labels.clone(), |coarse, level| {
            level
                .labels
                .iter()
                .zip(&level.fine_to_coarse)
                .map(|(&l, &c)| coarse[c as usize] << 1 | (l & 1))
                .collect()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::build_hierarchy;
    use tie_graph::generators;

    #[test]
    fn assemble_preserves_label_set() {
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(128, 3, 1), 3, 2);
        let labels: Vec<u64> = (0..128u64).collect();
        let run = build_hierarchy(&g, labels.clone(), 7, 0b111_1000, 0b000_0111);
        assert!(run.total_swaps > 0, "the fixture must swap");
        let mut composed = assemble_labels(&run);
        composed.sort_unstable();
        assert_eq!(composed, labels);
    }

    #[test]
    fn assemble_keeps_lsb_and_msb() {
        let g = generators::cycle_graph(16);
        let labels: Vec<u64> = (0..16u64).collect();
        let run = build_hierarchy(&g, labels, 4, 0b1100, 0b0011);
        for (v, &new) in assemble_labels(&run).iter().enumerate() {
            let old = run.levels[0].labels[v];
            assert_eq!(new & 1, old & 1, "LSB of vertex {v}");
            assert_eq!(new & 0b1000, old & 0b1000, "MSB of vertex {v}");
        }
    }

    #[test]
    fn assemble_on_trivial_hierarchy_returns_input() {
        let g = generators::path_graph(4);
        let labels = vec![0u64, 1, 2, 3];
        let run = build_hierarchy(&g, labels.clone(), 2, 0b10, 0b01);
        assert_eq!(assemble_labels(&run), labels);
    }
}
