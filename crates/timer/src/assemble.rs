//! Reassembling a fine-level labeling from a swapped hierarchy
//! (function `assemble()` — Algorithm 2 of the paper), plus a bijection
//! repair step that guarantees the result is a permutation of the original
//! label set.
//!
//! The least and most significant digit of every fine label are inherited
//! from the (post-sweep) level-1 label; every digit in between is taken from
//! the last digit of the vertex's ancestor on the corresponding level — the
//! *preferred* digit — unless no original label carries the resulting prefix,
//! in which case the inverted digit is written (lines 9–14 of Algorithm 2).
//!
//! Every prefix check is answered by one binary trie over the original
//! (level-0) labels, least significant digit first: a node at depth `i` is
//! one low-`i`-digit prefix, so "some original label carries this prefix" is
//! "the walk's current node has a child for the digit". A walk that writes a
//! digit whose prefix is absent leaves the trie, and every later check fails
//! — no extension of an absent prefix exists either.
//!
//! Because the preferred-digit rule only checks prefix *existence* (not
//! multiplicity), the assembled labels can occasionally collide or leave the
//! original label set. The paper accepts this as part of the heuristic; to
//! keep the hard invariant that TIMER never changes the label set — which is
//! what preserves the balance of `µ` (Section 4) — [`assemble_labels`]
//! finishes with a repair. Each trie leaf holds its label's multiplicity as
//! a budget: in vertex order, a vertex whose walk ends on a leaf with budget
//! left consumes one unit, every other vertex is repaired with a leftover
//! original label (nearest by Hamming distance, ties to the smaller label).

use tie_graph::NodeId;

use crate::hierarchy::{HierarchyRun, HierarchyScratch};

/// Outcome of [`assemble_labels`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssembleResult {
    /// New fine-level labels (same label set as the input hierarchy's level 0).
    pub labels: Vec<u64>,
    /// Number of vertices whose assembled label had to be repaired.
    pub repaired: usize,
}

/// Index of the absent node: the walk's position once its prefix is no
/// original label's. Both its children are itself and its budget stays 0.
const ABSENT: u32 = 0;
/// Index of the root (the empty prefix).
const ROOT: u32 = 1;

/// Reusable buffers of [`assemble_labels`], kept in [`HierarchyScratch`] so
/// a driver worker allocates them once per run. Results never depend on
/// leftover contents: every buffer is cleared before use.
#[derive(Clone, Debug, Default)]
pub(crate) struct AssembleScratch {
    /// Child array of the label trie, least significant digit first. Node
    /// ids are `u32` like the graph's vertex ids (`n` labels of `dim` digits
    /// make at most `2 + n·dim` nodes). A leaf (depth `dim`) has no
    /// children, so its slot 0 holds the leaf's remaining budget instead.
    nodes: Vec<[u32; 2]>,
    /// Leaf of every original vertex's label, by vertex.
    leaf_of: Vec<u32>,
    /// Vertices whose assembled label found no budget, in vertex order.
    needs_fix: Vec<NodeId>,
    /// Original labels whose budget the assembled labels left unconsumed.
    leftovers: Vec<u64>,
}

impl AssembleScratch {
    /// Rebuilds the trie over the low `dim` digits of `original`, every
    /// leaf's budget its label's multiplicity, and empties `needs_fix`.
    fn build(&mut self, original: &[u64], dim: usize) {
        self.nodes.clear();
        self.nodes.extend([[ABSENT; 2]; 2]); // ABSENT, ROOT
        self.leaf_of.clear();
        self.needs_fix.clear();
        for &label in original {
            let mut node = ROOT;
            for i in 0..dim {
                let digit = ((label >> i) & 1) as usize;
                node = match self.nodes[node as usize][digit] {
                    ABSENT => {
                        let child = self.nodes.len() as u32;
                        self.nodes.push([ABSENT; 2]);
                        self.nodes[node as usize][digit] = child;
                        child
                    }
                    child => child,
                };
            }
            self.nodes[node as usize][0] += 1;
            self.leaf_of.push(node);
        }
        debug_assert!(
            self.nodes.len() <= u32::MAX as usize,
            "label trie outgrew u32 node ids"
        );
    }

    /// The child of `node` for `digit` (0 or 1); [`ABSENT`] when no original
    /// label extends the node's prefix with that digit.
    #[inline]
    fn child(&self, node: u32, digit: u64) -> u32 {
        self.nodes[node as usize][digit as usize]
    }

    /// Consumes one unit of `leaf`'s budget; `false` when none is left
    /// (always for [`ABSENT`]).
    #[inline]
    fn take(&mut self, leaf: u32) -> bool {
        let budget = &mut self.nodes[leaf as usize][0];
        let available = *budget > 0;
        if available {
            *budget -= 1;
        }
        available
    }

    /// Makes `labels` a permutation of `original` after the budget pass:
    /// every vertex of `needs_fix` receives the leftover label nearest to
    /// its assembled one by Hamming distance (ties: numerically smallest).
    /// Returns the number of repaired vertices.
    fn repair(&mut self, labels: &mut [u64], original: &[u64]) -> usize {
        if self.needs_fix.is_empty() {
            return 0;
        }
        self.leftovers.clear();
        for (v, &label) in original.iter().enumerate() {
            if self.take(self.leaf_of[v]) {
                self.leftovers.push(label);
            }
        }
        // The minimum by (distance, label) is one label value whatever order
        // the leftovers are in, so they need no sorting.
        for &v in &self.needs_fix {
            let want = labels[v as usize];
            // Pigeonhole: every unmatched vertex left exactly one unit of
            // budget unconsumed, so a leftover always exists here.
            let (idx, _) = self
                .leftovers
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| ((l ^ want).count_ones(), l))
                // tie-lint: allow(no-panic-paths) — pigeonhole invariant: one leftover per unmatched vertex
                .expect("leftover label must exist for every unmatched vertex");
            labels[v as usize] = self.leftovers.swap_remove(idx);
        }
        self.needs_fix.len()
    }
}

/// Runs Algorithm 2 on a hierarchy and returns repaired fine-level labels.
///
/// `dim` is the total number of label digits at the finest level; the
/// level-0 labels have no digit at or above it. `scratch` provides the trie
/// buffers (see [`HierarchyScratch`]); the result never depends on what a
/// previous call left in it.
pub fn assemble_labels(
    run: &HierarchyRun,
    dim: usize,
    scratch: &mut HierarchyScratch,
) -> AssembleResult {
    let finest = &run.levels[0];
    let n = finest.labels.len();
    let original: &[u64] = &finest.labels;
    if n == 0 || dim < 2 || run.levels.len() < 2 {
        return AssembleResult {
            labels: original.to_vec(),
            repaired: 0,
        };
    }
    debug_assert!(
        dim >= 64 || original.iter().all(|&l| l >> dim == 0),
        "level-0 labels must fit in dim digits"
    );

    let trie = &mut scratch.assemble;
    trie.build(original, dim);
    let msb = dim - 1;
    let mut new_labels = vec![0u64; n];
    for v in 0..n {
        let old = original[v];
        // The digits written so far and their trie node; the least
        // significant digit is inherited.
        let mut label = old & 1;
        let mut node = trie.child(ROOT, label);
        let mut ancestor = v as u32;
        // Digits 1 .. dim-2 come from the ancestors' last digits.
        for digit in 1..msb {
            let bit = if digit >= run.levels.len() {
                // Hierarchy shorter than expected (tiny dim); keep old digit.
                (old >> digit) & 1
            } else {
                // Ancestor on level `digit` (labels there are truncated by `digit`).
                ancestor = run.levels[digit - 1].fine_to_coarse[ancestor as usize];
                let preferred = run.levels[digit].labels[ancestor as usize] & 1;
                if trie.child(node, preferred) != ABSENT {
                    preferred
                } else {
                    1 - preferred
                }
            };
            label |= bit << digit;
            node = trie.child(node, bit);
        }
        // Most significant digit inherited from the old label.
        let top = (old >> msb) & 1;
        label |= top << msb;
        new_labels[v] = label;
        if !trie.take(trie.child(node, top)) {
            trie.needs_fix.push(v as NodeId);
        }
    }

    let repaired = trie.repair(&mut new_labels, original);
    AssembleResult {
        labels: new_labels,
        repaired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::build_hierarchy;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};
    use tie_graph::generators;

    /// The pre-trie kernel — `dim` prefix-existence `HashSet`s and a
    /// `BTreeMap` repair budget — kept verbatim as the oracle the trie
    /// kernel is pinned against: [`assemble_labels`] must reproduce its
    /// labels and repair count byte for byte.
    fn assemble_labels_reference(run: &HierarchyRun, dim: usize) -> AssembleResult {
        let finest = &run.levels[0];
        let n = finest.labels.len();
        let original: &[u64] = &finest.labels;
        if n == 0 || dim < 2 || run.levels.len() < 2 {
            return AssembleResult {
                labels: original.to_vec(),
                repaired: 0,
            };
        }

        // Prefix-existence sets: prefixes[i] holds every original label truncated
        // to its lowest i digits (needed by the line-10 check of Algorithm 2).
        let mut prefixes: Vec<HashSet<u64>> = vec![HashSet::new(); dim + 1];
        for &l in original {
            for (i, set) in prefixes.iter_mut().enumerate().skip(1) {
                set.insert(l & low_mask(i));
            }
        }

        let msb = 1u64 << (dim - 1);
        let mut new_labels = vec![0u64; n];
        for v in 0..n {
            let old = original[v];
            let mut label = old & 1; // least significant digit inherited
            let mut ancestor = v as u32;
            // Digits 1 .. dim-2 come from the ancestors' last digits.
            for digit in 1..dim.saturating_sub(1) {
                // Ancestor on level `digit` (labels there are truncated by `digit`).
                if digit >= run.levels.len() {
                    // Hierarchy shorter than expected (tiny dim); keep old digit.
                    label |= old & (1u64 << digit);
                    continue;
                }
                ancestor = run.levels[digit - 1].fine_to_coarse[ancestor as usize];
                let parent_label = run.levels[digit].labels[ancestor as usize];
                let preferred = parent_label & 1;
                let candidate = label | (preferred << digit);
                if prefixes[digit + 1].contains(&candidate) {
                    label = candidate;
                } else {
                    label |= (1 - preferred) << digit;
                }
            }
            // Most significant digit inherited from the old label.
            label |= old & msb;
            new_labels[v] = label;
        }

        let repaired = repair_bijection_reference(&mut new_labels, original);
        AssembleResult {
            labels: new_labels,
            repaired,
        }
    }

    #[inline]
    fn low_mask(bits: usize) -> u64 {
        if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }

    /// Makes `labels` a permutation of `original`: vertices whose label is
    /// duplicated or absent from the original set receive leftover original
    /// labels, nearest first by Hamming distance. Returns the number of repaired
    /// vertices.
    fn repair_bijection_reference(labels: &mut [u64], original: &[u64]) -> usize {
        // Label-sorted so the leftover list below comes out ordered without an
        // extra sort (and never in hash order).
        let mut budget: BTreeMap<u64, u32> = BTreeMap::new();
        for &l in original {
            *budget.entry(l).or_insert(0) += 1;
        }
        // First pass: consume budget for labels that are fine.
        let mut needs_fix: Vec<usize> = Vec::new();
        for (v, &l) in labels.iter().enumerate() {
            match budget.get_mut(&l) {
                Some(count) if *count > 0 => *count -= 1,
                _ => needs_fix.push(v),
            }
        }
        if needs_fix.is_empty() {
            return 0;
        }
        let mut leftovers: Vec<u64> = budget
            .into_iter()
            .flat_map(|(l, c)| std::iter::repeat_n(l, c as usize))
            .collect();
        for &v in &needs_fix {
            let want = labels[v];
            // Nearest leftover by Hamming distance (ties: numerically smallest).
            // Pigeonhole: every unmatched vertex left exactly one unit of budget
            // unconsumed, so a leftover always exists here.
            let (idx, _) = leftovers
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| ((l ^ want).count_ones(), l))
                .expect("leftover label must exist for every unmatched vertex");
            labels[v] = leftovers.swap_remove(idx);
        }
        needs_fix.len()
    }

    /// The kernel's budget pass and repair on already assembled labels: each
    /// label's leaf is found by walking all 64 digits of the trie.
    fn repair_bijection(labels: &mut [u64], original: &[u64]) -> usize {
        let mut trie = AssembleScratch::default();
        trie.build(original, 64);
        for (v, &label) in labels.iter().enumerate() {
            let leaf = (0..64).fold(ROOT, |node, i| trie.child(node, (label >> i) & 1));
            if !trie.take(leaf) {
                trie.needs_fix.push(v as NodeId);
            }
        }
        trie.repair(labels, original)
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn assemble_preserves_label_set() {
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(128, 3, 1), 3, 2);
        let labels: Vec<u64> = (0..128u64).collect();
        let run = build_hierarchy(&g, labels.clone(), 7, 0b111_1000, 0b000_0111);
        let result = assemble_labels(&run, 7, &mut HierarchyScratch::default());
        assert_eq!(sorted(result.labels.clone()), sorted(labels));
    }

    #[test]
    fn assemble_keeps_lsb_and_msb() {
        let g = generators::cycle_graph(16);
        let labels: Vec<u64> = (0..16u64).collect();
        let run = build_hierarchy(&g, labels, 4, 0b1100, 0b0011);
        let result = assemble_labels(&run, 4, &mut HierarchyScratch::default());
        for (v, &new) in result.labels.iter().enumerate() {
            if result.repaired == 0 {
                let old = run.levels[0].labels[v];
                assert_eq!(new & 1, old & 1, "LSB of vertex {v}");
                assert_eq!(new & 0b1000, old & 0b1000, "MSB of vertex {v}");
            }
        }
    }

    #[test]
    fn assemble_on_trivial_hierarchy_returns_input() {
        let g = generators::path_graph(4);
        let labels = vec![0u64, 1, 2, 3];
        let run = build_hierarchy(&g, labels.clone(), 2, 0b10, 0b01);
        let result = assemble_labels(&run, 2, &mut HierarchyScratch::default());
        assert_eq!(result.labels, run.levels[0].labels);
        assert_eq!(result.repaired, 0);
    }

    #[test]
    fn repair_fixes_duplicates() {
        let original = vec![0u64, 1, 2, 3];
        let mut broken = vec![0u64, 1, 1, 7];
        let repaired = repair_bijection(&mut broken, &original);
        assert_eq!(repaired, 2);
        assert_eq!(sorted(broken), original);
    }

    #[test]
    fn repair_noop_on_permutation() {
        let original = vec![4u64, 9, 2, 7];
        let mut permuted = vec![7u64, 2, 9, 4];
        assert_eq!(repair_bijection(&mut permuted, &original), 0);
        assert_eq!(permuted, vec![7, 2, 9, 4]);
    }

    #[test]
    fn repair_prefers_hamming_nearest_label() {
        let original = vec![0b0000u64, 0b0001, 0b1000, 0b1111];
        // Vertex 3 wants 0b1110 (absent); nearest leftover is 0b1111.
        let mut broken = vec![0b0000u64, 0b0001, 0b1000, 0b1110];
        repair_bijection(&mut broken, &original);
        assert_eq!(broken[3], 0b1111);
    }

    /// A random `dim`-digit labeling of `n` vertices: distinct labels when
    /// `unique` (then `n` is capped at `2^dim`), a multiset with duplicates
    /// otherwise.
    fn random_labels(n: usize, dim: usize, unique: bool, seed: u64) -> Vec<u64> {
        if unique {
            let mut labels: Vec<u64> = generators::random_permutation(1 << dim, seed)
                .into_iter()
                .map(u64::from)
                .collect();
            labels.truncate(n);
            labels
        } else {
            // Vertex `v` shares its label with `v + n/2`: duplicates for
            // every n >= 2.
            let distinct = (n as u64 / 2).max(1);
            (0..n as u64)
                .map(|v| {
                    let x = (v % distinct)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(seed);
                    (x >> 17) & low_mask(dim)
                })
                .collect()
        }
    }

    /// The hierarchy of a random graph under a random labeling, with the
    /// low `1 + seed % (dim - 1)` digits as extension digits.
    fn random_run(n: usize, m: usize, dim: usize, unique: bool, seed: u64) -> HierarchyRun {
        let labels = random_labels(n, dim, unique, seed);
        let n = labels.len();
        let base = generators::erdos_renyi_gnm(n, m.min(n * (n - 1) / 2), seed);
        let g = generators::randomize_edge_weights(&base, 7, seed ^ 0xc0ffee);
        let e_mask = low_mask(1 + seed as usize % (dim - 1));
        build_hierarchy(&g, labels, dim, low_mask(dim) & !e_mask, e_mask)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On random graphs × random labelings (distinct labels or multisets
        /// with duplicates, `dim` 2–12), the trie kernel returns exactly the
        /// reference's labels and repair count — on a fresh scratch and on
        /// one dirtied by a larger instance, and also when asked for more
        /// digits than the hierarchy has levels for.
        #[test]
        fn trie_kernel_equivalent_to_hashset_reference(
            n in 1..200usize,
            m in 0..600usize,
            dim in 2..13usize,
            seed in 0..1000u64,
            unique in 0..3u32,
            dirty in 0..2u32,
            extra_digits in 0..4usize,
        ) {
            // Two thirds distinct labels, one third duplicates.
            let run = random_run(n, m, dim, unique > 0, seed);
            // Mostly the hierarchy's own `dim`; one case in four assembles
            // three digits more, which takes the short-hierarchy branch.
            let dim = if extra_digits == 3 { dim + 3 } else { dim };
            let reference = assemble_labels_reference(&run, dim);
            let mut scratch = HierarchyScratch::default();
            if dirty == 1 {
                let larger = random_run(n + 64, 4 * n, 12, false, seed ^ 0x5eed);
                let _ = assemble_labels(&larger, 12, &mut scratch);
            }
            prop_assert_eq!(assemble_labels(&run, dim, &mut scratch), reference);
        }
    }
}
