//! Label-driven hierarchy construction with interleaved swap sweeps
//! (the inner loop of Algorithm 1, lines 9–14).
//!
//! Starting from the application graph with (digit-permuted) labels, each
//! round first sweeps over all vertex pairs whose labels agree on everything
//! but the last digit and swaps their labels whenever that improves the
//! (level-local) `Coco⁺` estimate, and then contracts such pairs into single
//! vertices while cutting off the last digit. Repeating this until only two
//! digits remain yields a hierarchy of graphs `G¹, …, G^{dim−1}` whose labels
//! encode a recursive bipartition of `Ga` induced by the processor topology —
//! oblivious to `Ga`'s own edge structure, which is exactly the diversity the
//! TIMER search exploits.

use std::time::Instant;

use tie_graph::contract::{contract_into, ContractScratch};
use tie_graph::{Graph, NodeId};
use tie_trace::{Phase, PhaseTimes, TraceEvent, TraceHandle, TraceLevel};

use crate::objective::swap_delta;

/// One level of a TIMER hierarchy: what [`crate::assemble`] needs of it.
/// The level's graph is not kept — it lives only while the level is swept
/// and contracted.
#[derive(Clone, Debug)]
pub struct Level {
    /// Vertex labels at this level (already truncated by the level index);
    /// one per vertex of the level's graph.
    pub labels: Vec<u64>,
    /// For every vertex of this level, the vertex of the next coarser level
    /// it is contracted into. Empty for the coarsest level.
    pub fine_to_coarse: Vec<NodeId>,
}

/// A full hierarchy: `levels[0]` belongs to the application graph itself
/// (with the labels as left behind by the level-1 swap sweep),
/// `levels.last()` to the coarsest graph with 2-digit labels.
#[derive(Clone, Debug)]
pub struct HierarchyRun {
    /// Levels from finest to coarsest.
    pub levels: Vec<Level>,
    /// Number of label swaps performed across all sweeps.
    pub total_swaps: usize,
    /// Wall-clock spent in the sweeps and contractions of this hierarchy
    /// (accumulated per [`Phase`]; always collected, the cost is two
    /// monotonic-clock reads per level).
    pub phases: PhaseTimes,
}

/// Reusable buffers for the prefix-bucket pair search of
/// [`collect_swap_pairs`]. One hierarchy performs `dim − 1` sweeps; sharing
/// one scratch across all of them (and across candidate-pair collection in
/// the contraction) avoids reallocating the buckets on every level.
#[derive(Clone, Debug, Default)]
pub struct SweepScratch {
    /// `(label >> 1, vertex)` pairs, sorted to group prefix buckets.
    keyed: Vec<(u64, NodeId)>,
    /// The collected candidate pairs, in prefix order.
    pairs: Vec<(NodeId, NodeId)>,
}

/// Collects the candidate swap pairs of a level into `scratch.pairs`: for
/// every label prefix (`label >> 1`) shared by at least two vertices, the two
/// lowest-indexed such vertices, emitted in ascending prefix order. The
/// result is independent of whatever a previous collection left in the
/// scratch.
pub fn collect_swap_pairs(labels: &[u64], scratch: &mut SweepScratch) {
    scratch.keyed.clear();
    scratch.keyed.extend(
        labels
            .iter()
            .enumerate()
            .map(|(v, &l)| (l >> 1, v as NodeId)),
    );
    scratch.keyed.sort_unstable();
    scratch.pairs.clear();
    let mut i = 0;
    while i < scratch.keyed.len() {
        let key = scratch.keyed[i].0;
        let mut j = i + 1;
        while j < scratch.keyed.len() && scratch.keyed[j].0 == key {
            j += 1;
        }
        if j - i >= 2 {
            scratch
                .pairs
                .push((scratch.keyed[i].1, scratch.keyed[i + 1].1));
        }
        i = j;
    }
}

/// Swap sweep: for every candidate pair of [`collect_swap_pairs`], swap the
/// labels if that strictly decreases the objective. Returns the number of
/// swaps performed. `scratch` carries the pair-search buffers across the
/// levels of a hierarchy.
pub fn sweep_with(
    graph: &Graph,
    labels: &mut [u64],
    p_mask: u64,
    e_mask: u64,
    scratch: &mut SweepScratch,
) -> usize {
    collect_swap_pairs(labels, scratch);
    let mut swaps = 0usize;
    for &(u, v) in &scratch.pairs {
        if swap_delta(graph, labels, p_mask, e_mask, u, v) < 0 {
            labels.swap(u as usize, v as usize);
            swaps += 1;
        }
    }
    swaps
}

/// Reusable buffers for a full hierarchy construction: the sweep's
/// prefix-bucket pair search ([`SweepScratch`]), the sorted-deduped prefix
/// array of the contraction, and the counting-sort buffers of the CSR
/// contraction kernel ([`ContractScratch`]). One scratch serves all
/// `dim − 1` levels of a hierarchy — and, threaded through the driver's
/// speculative workers, all rounds a worker ever executes: buffers grow to
/// the largest level once and are never reallocated again. Results never
/// depend on leftover scratch contents.
#[derive(Clone, Debug, Default)]
pub struct HierarchyScratch {
    /// Pair-search buffers shared by the sweeps.
    sweep: SweepScratch,
    /// Sorted, deduped label prefixes of the level being contracted.
    prefixes: Vec<u64>,
    /// Sorted label multiset of the current level. Sweeps only swap labels,
    /// so the hierarchy loop sorts once per round and every contraction
    /// derives its prefix array from this set in linear time.
    sorted_set: Vec<u64>,
    /// Counting-sort buffers of the CSR contraction kernel.
    contract: ContractScratch,
}

impl HierarchyScratch {
    /// A scratch pre-sized for hierarchies over graphs of roughly `n`
    /// vertices (the finest level dominates every buffer's size). Purely a
    /// latency hint — an undersized scratch grows on first use and an
    /// oversized one only wastes memory; results never depend on it.
    pub fn with_vertex_capacity(n: usize) -> Self {
        HierarchyScratch {
            sweep: SweepScratch {
                keyed: Vec::with_capacity(n),
                pairs: Vec::with_capacity(n / 2),
            },
            prefixes: Vec::with_capacity(n),
            sorted_set: Vec::with_capacity(n),
            contract: ContractScratch::default(),
        }
    }
}

/// Contracts every candidate pair (vertices sharing all but the last label
/// digit) into a single coarse vertex and cuts the last digit off every
/// label. Unpaired vertices are carried over unchanged (minus the digit).
/// Allocating convenience wrapper around [`contract_level_with`].
pub fn contract_level(graph: &Graph, labels: &[u64]) -> (Graph, Vec<u64>, Vec<NodeId>) {
    contract_level_with(graph, labels, &mut HierarchyScratch::default())
}

/// [`contract_level`] with caller-provided scratch: the coarse vertex ids
/// are the ranks of the distinct label prefixes (sorted prefix order, for
/// determinism), found by binary search over the sorted-deduped prefix
/// array; the coarse graph is built by the sort-based CSR kernel
/// ([`contract_into`]) — no hash map anywhere on the path.
pub fn contract_level_with(
    graph: &Graph,
    labels: &[u64],
    scratch: &mut HierarchyScratch,
) -> (Graph, Vec<u64>, Vec<NodeId>) {
    scratch.sorted_set.clear();
    scratch.sorted_set.extend_from_slice(labels);
    scratch.sorted_set.sort_unstable();
    contract_level_presorted(graph, labels, scratch)
}

/// [`contract_level_with`] for callers that already hold the sorted label
/// multiset in `scratch.sorted_set` (the hierarchy loop: sweeps only swap
/// labels, and each contraction's `coarse_labels` is the next level's set
/// already sorted). Skips the per-level sort; everything else is identical.
fn contract_level_presorted(
    graph: &Graph,
    labels: &[u64],
    scratch: &mut HierarchyScratch,
) -> (Graph, Vec<u64>, Vec<NodeId>) {
    let n = graph.num_vertices();
    debug_assert!(
        {
            let mut set = labels.to_vec();
            set.sort_unstable();
            set == scratch.sorted_set
        },
        "sorted_set out of sync with the level's label multiset"
    );
    let prefixes = &mut scratch.prefixes;
    prefixes.clear();
    prefixes.extend(scratch.sorted_set.iter().map(|&l| l >> 1));
    prefixes.dedup();

    let mut fine_to_coarse = vec![0 as NodeId; n];
    for (v, &l) in labels.iter().enumerate() {
        fine_to_coarse[v] = match prefixes.binary_search(&(l >> 1)) {
            Ok(i) => i as NodeId,
            // Unreachable: every prefix was inserted into the array above.
            Err(_) => unreachable!("label prefix missing from its own prefix array"),
        };
    }
    let coarse_labels: Vec<u64> = prefixes.clone();
    // The coarse level's label multiset *is* the (sorted) prefix array:
    // keep `sorted_set` current so the next contraction skips its sort.
    scratch.sorted_set.clear();
    scratch.sorted_set.extend_from_slice(&coarse_labels);
    let coarse_graph = contract_into(
        graph,
        &fine_to_coarse,
        coarse_labels.len(),
        &mut scratch.contract,
    );
    (coarse_graph, coarse_labels, fine_to_coarse)
}

/// Builds the full hierarchy for one permutation round: alternating swap
/// sweeps and contractions until the labels have only two digits left
/// (Algorithm 1, lines 9–14). `p_mask`/`e_mask` are the PE/extension digit
/// masks *in the permuted label space*; they are truncated alongside the
/// labels on coarser levels. Every sweep runs on the calling thread;
/// parallel TIMER runs whole rounds concurrently instead (see
/// [`crate::driver`]).
pub fn build_hierarchy(
    graph: &Graph,
    labels: Vec<u64>,
    dim: usize,
    p_mask: u64,
    e_mask: u64,
) -> HierarchyRun {
    build_hierarchy_traced(
        graph,
        labels,
        dim,
        p_mask,
        e_mask,
        None,
        &TraceHandle::off(),
        &mut HierarchyScratch::default(),
    )
}

/// [`build_hierarchy`] with flight-recorder context and caller-provided
/// scratch: per-level sweep and contraction spans are emitted through
/// `trace` (at `TraceLevel::Debug`) and tagged with `hierarchy_round` so
/// concurrent speculated rounds stay distinguishable in the recording.
/// `scratch` carries the sweep and contraction buffers across all levels —
/// and, when the caller keeps it alive (as the driver's speculative workers
/// do), across hierarchy rounds. The result never depends on what a
/// previous run left in the scratch. `graph` is borrowed, and of the coarse
/// graphs only the one being swept and contracted is alive at any time.
#[allow(clippy::too_many_arguments)] // mirrors build_hierarchy + trace context
pub fn build_hierarchy_traced(
    graph: &Graph,
    labels: Vec<u64>,
    dim: usize,
    p_mask: u64,
    e_mask: u64,
    hierarchy_round: Option<usize>,
    trace: &TraceHandle,
    scratch: &mut HierarchyScratch,
) -> HierarchyRun {
    let mut levels: Vec<Level> = Vec::new();
    let mut total_swaps = 0usize;
    let mut coarse_graph: Option<Graph> = None;
    let mut current_labels = labels;
    let mut phases = PhaseTimes::default();
    // Cheap enough to collect always; only *emission* is gated on the level.
    let per_level = trace.enabled(TraceLevel::Debug);

    // Seed the sorted label multiset once per hierarchy: sweeps only swap
    // labels and every contraction leaves the next level's set behind
    // sorted, so this is the only full label sort of the whole round. Timed
    // as contract work — it exists purely to feed the contractions.
    let t = Instant::now();
    scratch.sorted_set.clear();
    scratch.sorted_set.extend_from_slice(&current_labels);
    scratch.sorted_set.sort_unstable();
    phases.add(Phase::Contract, t.elapsed().as_micros() as u64);

    // Paper: for i = 2 .. dim_Ga - 1; sweep on G^{i-1}, contract into G^i.
    let rounds = dim.saturating_sub(2);
    for round in 0..rounds {
        let current_graph = coarse_graph.as_ref().unwrap_or(graph);
        let (pm, em) = (p_mask >> round, e_mask >> round);
        let t = Instant::now();
        total_swaps += sweep_with(
            current_graph,
            &mut current_labels,
            pm,
            em,
            &mut scratch.sweep,
        );
        let sweep_us = t.elapsed().as_micros() as u64;
        phases.add(Phase::Sweep, sweep_us);
        if per_level {
            trace.emit(TraceEvent::Phase {
                phase: Phase::Sweep,
                round: hierarchy_round,
                level: Some(round),
                elapsed_us: sweep_us,
            });
        }
        let t = Instant::now();
        let (next_graph, coarse_labels, fine_to_coarse) =
            contract_level_presorted(current_graph, &current_labels, scratch);
        let contract_us = t.elapsed().as_micros() as u64;
        phases.add(Phase::Contract, contract_us);
        if per_level {
            trace.emit(TraceEvent::Phase {
                phase: Phase::Contract,
                round: hierarchy_round,
                level: Some(round),
                elapsed_us: contract_us,
            });
        }
        levels.push(Level {
            labels: current_labels,
            fine_to_coarse,
        });
        coarse_graph = Some(next_graph);
        current_labels = coarse_labels;
    }
    // Coarsest level (no further contraction).
    levels.push(Level {
        labels: current_labels,
        fine_to_coarse: Vec::new(),
    });
    HierarchyRun {
        levels,
        total_swaps,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::objective_for_labels;
    use proptest::prelude::*;
    use tie_graph::{generators, GraphBuilder};

    /// The pre-kernel contraction path (prefix `HashMap` + `GraphBuilder`
    /// edge coalescer), kept verbatim as the oracle the sort-based kernel is
    /// pinned against: `contract_level` must reproduce this byte for byte.
    fn contract_level_reference(graph: &Graph, labels: &[u64]) -> (Graph, Vec<u64>, Vec<NodeId>) {
        use std::collections::HashMap;
        let n = graph.num_vertices();
        let mut prefixes: Vec<u64> = labels.iter().map(|&l| l >> 1).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        let coarse_of_prefix: HashMap<u64, NodeId> = prefixes
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as NodeId))
            .collect();

        let mut fine_to_coarse = vec![0 as NodeId; n];
        for (v, &l) in labels.iter().enumerate() {
            fine_to_coarse[v] = coarse_of_prefix[&(l >> 1)];
        }
        let coarse_n = prefixes.len();
        let coarse_labels: Vec<u64> = prefixes;

        let mut builder = GraphBuilder::new(coarse_n);
        let mut coarse_weights = vec![0u64; coarse_n];
        for v in graph.vertices() {
            coarse_weights[fine_to_coarse[v as usize] as usize] += graph.vertex_weight(v);
        }
        for (c, &w) in coarse_weights.iter().enumerate() {
            builder.set_vertex_weight(c as NodeId, w);
        }
        for (u, v, w) in graph.edges() {
            let (cu, cv) = (fine_to_coarse[u as usize], fine_to_coarse[v as usize]);
            if cu != cv {
                builder.add_edge(cu, cv, w);
            }
        }
        (builder.build(), coarse_labels, fine_to_coarse)
    }

    /// A small instance with unique 4-digit labels on an 8-vertex graph.
    fn toy() -> (Graph, Vec<u64>) {
        let g = generators::cycle_graph(8);
        // Unique labels 0..8 (4 digits: one "extension" digit + 3 "PE" digits).
        let labels: Vec<u64> = (0..8u64).collect();
        (g, labels)
    }

    /// The candidate pairs of `labels`, collected on a fresh scratch.
    fn fresh_pairs(labels: &[u64]) -> Vec<(NodeId, NodeId)> {
        let mut scratch = SweepScratch::default();
        collect_swap_pairs(labels, &mut scratch);
        scratch.pairs
    }

    #[test]
    fn swap_pairs_are_disjoint_and_complete() {
        let labels: Vec<u64> = vec![0b000, 0b001, 0b010, 0b100, 0b101, 0b111];
        let pairs = fresh_pairs(&labels);
        // Prefixes: 00 -> (0,1), 01 -> (2) unpaired, 10 -> (3,4), 11 -> (5) unpaired.
        assert_eq!(pairs.len(), 2);
        let mut used = std::collections::HashSet::new();
        for (a, b) in &pairs {
            assert!(used.insert(*a));
            assert!(used.insert(*b));
            assert_eq!(labels[*a as usize] >> 1, labels[*b as usize] >> 1);
            assert_ne!(labels[*a as usize], labels[*b as usize]);
        }
    }

    #[test]
    fn sweep_never_increases_objective() {
        let (g, labels) = toy();
        let p_mask = 0b1110;
        let e_mask = 0b0001;
        let mut l = labels.clone();
        let before = objective_for_labels(&g, &l, p_mask, e_mask);
        let swaps = sweep_with(&g, &mut l, p_mask, e_mask, &mut SweepScratch::default());
        let after = objective_for_labels(&g, &l, p_mask, e_mask);
        assert!(after <= before, "sweep must not worsen the objective");
        if swaps == 0 {
            assert_eq!(after, before);
        }
        // The label multiset is preserved.
        let mut sl = l.clone();
        sl.sort_unstable();
        assert_eq!(sl, (0..8u64).collect::<Vec<_>>());
    }

    #[test]
    fn contraction_merges_pairs_and_cuts_digit() {
        let (g, labels) = toy();
        let (cg, cl, f2c) = contract_level(&g, &labels);
        assert_eq!(cg.num_vertices(), 4);
        assert_eq!(cl, vec![0, 1, 2, 3]);
        assert_eq!(f2c, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(cg.total_vertex_weight(), g.total_vertex_weight());
        // Cycle of 8 contracted along consecutive pairs is a cycle of 4.
        assert_eq!(cg.num_edges(), 4);
    }

    #[test]
    fn contraction_coalesces_parallel_coarse_edges() {
        // Vertices 0,1 share prefix 0 and 2,3 share prefix 1, so contraction
        // yields two coarse vertices. Three distinct fine edges cross between
        // the pairs; they must merge into ONE coarse edge of summed weight.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2, 2);
        b.add_edge(0, 3, 3);
        b.add_edge(1, 2, 5);
        b.add_edge(0, 1, 7); // intra-pair edge: vanishes in the coarse graph
        let g = b.build();
        let labels = vec![0b00u64, 0b01, 0b10, 0b11];
        let (cg, cl, f2c) = contract_level(&g, &labels);
        assert_eq!(cg.num_vertices(), 2);
        assert_eq!(
            cg.num_edges(),
            1,
            "fine edges between the same coarse pair must be coalesced"
        );
        assert_eq!(cg.edge_weight(0, 1), Some(2 + 3 + 5));
        assert_eq!(cl, vec![0, 1]);
        assert_eq!(f2c, vec![0, 0, 1, 1]);
    }

    #[test]
    fn scratch_reuse_is_stateless_and_matches_allocating_path() {
        let labels_a: Vec<u64> = vec![0b000, 0b001, 0b010, 0b100, 0b101, 0b111];
        let labels_b: Vec<u64> = (0..32u64).rev().collect();
        let mut scratch = SweepScratch::default();
        collect_swap_pairs(&labels_a, &mut scratch);
        let fresh_a = scratch.pairs.clone();
        // Dirty the scratch with a larger instance, then redo the first one:
        // the result must not depend on leftover scratch contents.
        collect_swap_pairs(&labels_b, &mut scratch);
        assert_eq!(scratch.pairs, fresh_pairs(&labels_b));
        collect_swap_pairs(&labels_a, &mut scratch);
        assert_eq!(scratch.pairs, fresh_a);
    }

    #[test]
    fn sweep_with_scratch_matches_sweep() {
        // A scratch dirtied by a larger level must sweep exactly like a
        // fresh one.
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(96, 3, 5), 4, 5);
        let labels: Vec<u64> = (0..96u64).collect();
        let (p_mask, e_mask) = (0b111_0000, 0b000_1111);
        let mut fresh = labels.clone();
        let fresh_swaps = sweep_with(&g, &mut fresh, p_mask, e_mask, &mut SweepScratch::default());
        let mut reused = labels.clone();
        let mut scratch = SweepScratch::default();
        collect_swap_pairs(&(0..256u64).rev().collect::<Vec<_>>(), &mut scratch);
        let reused_swaps = sweep_with(&g, &mut reused, p_mask, e_mask, &mut scratch);
        assert_eq!(fresh_swaps, reused_swaps);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn contraction_keeps_unpaired_vertices() {
        let g = generators::path_graph(3);
        let labels = vec![0b00u64, 0b01, 0b10];
        let (cg, cl, f2c) = contract_level(&g, &labels);
        assert_eq!(cg.num_vertices(), 2);
        assert_eq!(cl, vec![0, 1]);
        assert_eq!(f2c, vec![0, 0, 1]);
    }

    #[test]
    fn hierarchy_has_expected_depth_and_sizes() {
        let (g, labels) = toy();
        let dim = 4;
        let run = build_hierarchy(&g, labels, dim, 0b1110, 0b0001);
        // dim - 1 = 3 levels: 8, 4, 2 vertices.
        assert_eq!(run.levels.len(), 3);
        assert_eq!(run.levels[0].labels.len(), 8);
        assert_eq!(run.levels[1].labels.len(), 4);
        assert_eq!(run.levels[2].labels.len(), 2);
        // Coarsest labels have 2 digits.
        assert!(run.levels[2].labels.iter().all(|&l| l < 4));
        // fine_to_coarse chains are consistent. (Note: the coarse level's
        // stored labels may have been swapped by its own sweep afterwards, so
        // only structural consistency is checked here, not label prefixes.)
        for j in 0..run.levels.len() - 1 {
            let lvl = &run.levels[j];
            let next = &run.levels[j + 1];
            assert_eq!(lvl.fine_to_coarse.len(), lvl.labels.len());
            for &c in lvl.fine_to_coarse.iter() {
                assert!((c as usize) < next.labels.len());
            }
            // Labels are unique on every level.
            let mut labels = next.labels.clone();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), next.labels.len());
        }
    }

    #[test]
    fn hierarchy_on_two_digit_labels_is_single_level() {
        let g = generators::path_graph(4);
        let labels = vec![0u64, 1, 2, 3];
        let run = build_hierarchy(&g, labels.clone(), 2, 0b10, 0b01);
        assert_eq!(run.levels.len(), 1);
        assert_eq!(run.levels[0].labels, labels);
        assert_eq!(run.total_swaps, 0);
    }

    #[test]
    fn contract_level_matches_reference_oracle_on_fixtures() {
        let (g, labels) = toy();
        assert_eq!(
            contract_level(&g, &labels),
            contract_level_reference(&g, &labels)
        );
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(96, 3, 5), 4, 5);
        let labels: Vec<u64> = (0..96u64).collect();
        assert_eq!(
            contract_level(&g, &labels),
            contract_level_reference(&g, &labels)
        );
    }

    #[test]
    fn contract_scratch_reuse_is_stateless() {
        let (g_a, labels_a) = toy();
        let g_b = generators::randomize_edge_weights(&generators::barabasi_albert(64, 3, 2), 4, 3);
        let labels_b: Vec<u64> = (0..64u64).rev().collect();
        let mut scratch = HierarchyScratch::default();
        let fresh_a = contract_level_with(&g_a, &labels_a, &mut scratch);
        // Dirty the scratch with a larger instance, then redo the first one:
        // the result must not depend on leftover scratch contents.
        let fresh_b = contract_level_with(&g_b, &labels_b, &mut scratch);
        assert_eq!(fresh_b, contract_level_reference(&g_b, &labels_b));
        assert_eq!(contract_level_with(&g_a, &labels_a, &mut scratch), fresh_a);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On random graphs × random labelings, the sort-based contraction
        /// kernel's `(Graph, coarse_labels, fine_to_coarse)` triple is
        /// identical to the old HashMap path (the `GraphBuilder` coalescer),
        /// including the raw CSR arrays of the coarse graph — the invariant
        /// the whole refactor is pinned by.
        #[test]
        fn contraction_kernel_equivalent_to_hashmap_reference(
            n in 1..150usize,
            m in 0..400usize,
            dim in 2..8u32,
            seed in 0..1000u64,
            dirty_seed in 0..4u64,
        ) {
            let base = generators::erdos_renyi_gnm(n, m.min(n * (n - 1) / 2), seed);
            let g = generators::randomize_edge_weights(&base, 7, seed ^ 0xc0ffee);
            // Random labels over `dim` digits; duplicates are allowed (the
            // contraction only groups by prefix, uniqueness is not required).
            let labels: Vec<u64> = (0..n)
                .map(|v| {
                    let x = (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
                    (x >> 17) & ((1u64 << dim) - 1)
                })
                .collect();
            let mut scratch = HierarchyScratch::default();
            if dirty_seed > 0 {
                // Pre-dirty the scratch with an unrelated contraction so the
                // equivalence also covers reused buffers.
                let other: Vec<u64> = (0..n as u64).map(|v| v ^ dirty_seed).collect();
                let _ = contract_level_with(&g, &other, &mut scratch);
            }
            let kernel = contract_level_with(&g, &labels, &mut scratch);
            let reference = contract_level_reference(&g, &labels);
            prop_assert_eq!(kernel, reference);
        }
    }
}
