//! Label-driven hierarchy construction with interleaved swap sweeps
//! (the inner loop of Algorithm 1, lines 9–14).
//!
//! Starting from the application graph with (digit-permuted) labels, each
//! round first sweeps over all vertex pairs whose labels agree on everything
//! but the last digit and whose suffix classes match (see *Exact swaps*
//! below), swaps their labels whenever that improves the (level-local)
//! `Coco⁺` estimate, and then contracts such pairs into single vertices
//! while cutting off the last digit. Repeating this until only two digits
//! remain yields a hierarchy of graphs `G¹, …, G^{dim−1}` whose labels
//! encode a recursive bipartition of `Ga` induced by the processor topology
//! — oblivious to `Ga`'s own edge structure, which is exactly the diversity
//! the TIMER search exploits.
//!
//! # Levels are views
//!
//! Most levels are swept without building their graph. A level is a view
//! over a *base* graph — at first `Ga` itself, borrowed: `anc[b]` is the
//! level vertex that base vertex `b` belongs to, and the base vertices of
//! every level vertex form one contiguous range of a grouped order. Level 0
//! is the identity view, so one sweep serves every level.
//!
//! * **Closed-form swap delta.** A candidate pair's labels are equal or
//!   differ only in digit 0, so a swap changes only that digit's share of
//!   each arc's cost. With `s = [digit 0 ∈ p_mask] − [digit 0 ∈ e_mask]`,
//!   `Δ = s · Σ w · (2·[bit0(label[anc b]) = bit0(label[self])] − 1)`,
//!   summed over the base arcs `a → b` with `a` in the range of either pair
//!   member and `anc[b]` outside the pair (`self` is the member whose range
//!   holds `a`). This equals [`swap_delta`](crate::objective::swap_delta) on
//!   the contracted level graph exactly: contraction only sums arc weights
//!   and drops the arcs inside a group, and the skipped arcs are those
//!   dropped arcs plus the pair's own arc, which `swap_delta` skips too.
//! * **Contraction is bookkeeping.** Contracting a level ranks its label
//!   prefixes into the `fine_to_coarse` map its [`Level`] stores, moves
//!   every base vertex to its new level vertex, and regroups the ranges.
//! * **Materialization.** Once a level to be swept has at most a quarter of
//!   the base's vertices (`MATERIALIZE_FACTOR`), one [`contract_into`]
//!   call along the composed map — equal to the chain of per-level
//!   contractions — makes it the new base, and the view restarts as the
//!   identity. So deep levels do not re-read all of `Ga`, and the levels in
//!   between allocate no graph.
//!
//! # Exact swaps: a deviation from the paper
//!
//! The sweep swaps two sibling groups only when both carry the same
//! multiset of lower-digit suffixes, their *suffix class*:
//!
//! * every level-0 vertex has class LEAF (1). Repeated labels enter as
//!   multiplicities: a level-1 vertex's pair counts its children per digit;
//! * a coarser vertex's class is the interned pair (class of its digit-0
//!   child, class of its digit-1 child), EMPTY (0) for a missing child.
//!
//! A swap exchanges two equal classes, so no class changes during a sweep,
//! and each level's labels, every one extended by the suffixes under it,
//! stay the input's label multiset. [`crate::assemble`] is then plain
//! composition, and the round's `(ΔCoco, ΔDiv)` is the sum of the sweeps'
//! own deltas ([`HierarchyRun::coco_delta`], [`HierarchyRun::div_delta`]).
//! Algorithm 2 of the paper instead rebuilds every fine label with a
//! prefix-existence check that ignores multiplicity and inverts a digit
//! whose prefix no label carries (lines 9–14). No swap here creates such a
//! prefix, so that inversion never triggers, no label needs a repair, and
//! every round has `ΔCoco ≤ 0 ≤ ΔDiv`: a swap on a PE digit only lowers
//! Coco, one on an extension digit only raises Div. `BENCH_quality.json` holds the
//! evidence: all 60 cells of the quality matrix keep every round and end
//! below their input.

use tie_graph::contract::{contract_into, ContractScratch};
use tie_graph::{Graph, NodeId};
use tie_trace::{Phase, PhaseTimes, TraceHandle};

/// A level about to be swept becomes the new base graph once it has at most
/// `1 / MATERIALIZE_FACTOR` of the current base's vertices. Sequential
/// `hierarchy_build` of the quality matrix's grid8x8 / scr / Div on cell
/// (medium PGPgiantcompo, 40 rounds, 2 vCPUs):
/// never materializing 543–556 ms, factor 2 407–415 ms, factor 4 341–391 ms,
/// factor 8 324–340 ms, every level 769–792 ms. Results do not depend on it.
const MATERIALIZE_FACTOR: usize = 4;

/// One level of a TIMER hierarchy: what [`crate::assemble`] needs of it.
/// The level's graph is not kept — most levels never build one.
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, Default)]
pub struct HierarchyRun {
    /// Levels from finest to coarsest.
    pub levels: Vec<Level>,
    /// Number of label swaps performed across all sweeps.
    pub total_swaps: usize,
    /// Base-graph arcs the sweeps read while pricing candidate pairs. Like
    /// `total_swaps` a function of the input alone.
    pub sweep_arcs: usize,
    /// Arcs of the base graphs handed to [`contract_into`] to materialize a
    /// level. Deterministic as well.
    pub contract_arcs: usize,
    /// Summed `Coco` change (under `p_mask`) of the swaps on PE digits:
    /// exactly the change from the input labels to the composed ones.
    pub coco_delta: i64,
    /// Summed `Div` change (under `e_mask`) of the swaps on extension
    /// digits, exact in the same way.
    pub div_delta: i64,
}

/// Reusable buffers for the prefix-bucket pair search of
/// [`collect_swap_pairs`]. One hierarchy performs `dim − 1` sweeps; sharing
/// one scratch across all of them (and with the prefix ranking of the
/// contraction) avoids reallocating the buckets on every level.
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

/// The view a level is swept through (see the module docs): which level
/// vertex every base vertex belongs to, and the base vertices of every
/// level vertex as one range.
#[derive(Clone, Debug, Default)]
struct LevelView {
    /// Level vertex of every base vertex.
    anc: Vec<NodeId>,
    /// Base vertices grouped by level vertex, ascending within a group.
    order: Vec<NodeId>,
    /// `order[start[u]..start[u + 1]]` are the base vertices of level
    /// vertex `u`.
    start: Vec<usize>,
}

impl LevelView {
    /// The identity view of a base with `n` vertices.
    fn reset(&mut self, n: usize) {
        self.anc.clear();
        self.anc.extend(0..n as NodeId);
        self.order.clear();
        self.order.extend(0..n as NodeId);
        self.start.clear();
        self.start.extend(0..=n);
    }

    /// Moves the view one level down: every base vertex follows its level
    /// vertex through `fine_to_coarse`, and a counting sort over the
    /// `coarse_n` new level vertices regroups the ranges. Correct for any
    /// map; no order of the coarse ids is assumed.
    fn compose(&mut self, fine_to_coarse: &[NodeId], coarse_n: usize) {
        let start = &mut self.start;
        start.clear();
        start.resize(coarse_n + 1, 0);
        for a in &mut self.anc {
            *a = fine_to_coarse[*a as usize];
            start[*a as usize] += 1;
        }
        // Inclusive prefix sums make `start[c]` the end of group `c`; the
        // backward scatter then walks it down to the group's beginning and
        // leaves every group in ascending base-vertex order.
        let mut end = 0;
        for s in &mut start[..coarse_n] {
            end += *s;
            *s = end;
        }
        start[coarse_n] = end;
        for (b, &c) in self.anc.iter().enumerate().rev() {
            start[c as usize] -= 1;
            self.order[start[c as usize]] = b as NodeId;
        }
    }

    /// The sum of the closed-form swap delta of level vertices `u` and `v`
    /// (the delta is `s` times it) and the number of base arcs read.
    fn pair_sum(&self, base: &Graph, labels: &[u64], u: NodeId, v: NodeId) -> (i64, usize) {
        let (xadj, adjncy, adjwgt) = (base.xadj(), base.adjncy(), base.adjwgt());
        let mut sum = 0i64;
        let mut arcs = 0usize;
        for x in [u, v] {
            let bit = labels[x as usize] & 1;
            let group = &self.order[self.start[x as usize]..self.start[x as usize + 1]];
            for &a in group {
                let row = xadj[a as usize]..xadj[a as usize + 1];
                arcs += row.len();
                for (&b, &w) in adjncy[row.clone()].iter().zip(&adjwgt[row]) {
                    let c = self.anc[b as usize];
                    if c != u && c != v {
                        let w = w as i64;
                        sum += if labels[c as usize] & 1 == bit { w } else { -w };
                    }
                }
            }
        }
        (sum, arcs)
    }
}

/// Swap sweep of one level through `view`: for every candidate pair of
/// [`collect_swap_pairs`] whose members have the same suffix class, swap
/// the labels if the closed-form delta is negative. Adds the swaps, the
/// base arcs read and the swaps' Coco and Div changes to `run`.
fn sweep_level(
    base: &Graph,
    view: &LevelView,
    labels: &mut [u64],
    classes: &[u32],
    pairs: &[(NodeId, NodeId)],
    (p_mask, e_mask): (u64, u64),
    run: &mut HierarchyRun,
) {
    // Digit 0's cost per differing arc: +1 as a PE digit, −1 as an
    // extension digit.
    let (p, e) = ((p_mask & 1) as i64, (e_mask & 1) as i64);
    for &(u, v) in pairs {
        let (a, b) = (u as usize, v as usize);
        if labels[a] == labels[b] || classes[a] != classes[b] {
            continue;
        }
        let (sum, arcs) = view.pair_sum(base, labels, u, v);
        run.sweep_arcs += arcs;
        if (p - e) * sum < 0 {
            labels.swap(a, b);
            run.total_swaps += 1;
            run.coco_delta += p * sum;
            run.div_delta += e * sum;
        }
    }
}

/// The contraction's prefix ranking: every vertex maps to the rank of its
/// label prefix among the level's distinct prefixes, which are the coarse
/// labels in ascending order. Reads the `(prefix, vertex)` keys sorted by
/// [`collect_swap_pairs`]; they stay valid after the sweep, because a swap
/// exchanges two labels with the same prefix.
fn rank_prefixes(keyed: &[(u64, NodeId)]) -> (Vec<u64>, Vec<NodeId>) {
    let mut coarse_labels: Vec<u64> = Vec::new();
    let mut fine_to_coarse = vec![0 as NodeId; keyed.len()];
    for &(prefix, v) in keyed {
        if coarse_labels.last() != Some(&prefix) {
            coarse_labels.push(prefix);
        }
        fine_to_coarse[v as usize] = (coarse_labels.len() - 1) as NodeId;
    }
    (coarse_labels, fine_to_coarse)
}

/// Class of every level-0 vertex.
const LEAF: u32 = 1;
/// Class of a missing child.
const EMPTY: u32 = 0;

/// The suffix classes of the level being swept (see the module docs) and
/// the buffers that intern the next level's.
#[derive(Clone, Debug, Default)]
struct SuffixClasses {
    /// Class of every vertex of the level.
    class: Vec<u32>,
    /// Per coarse vertex, the summed classes of its digit-0 and its digit-1
    /// children.
    pairs: Vec<[u32; 2]>,
    /// Coarse vertices grouped by their digit-0 entry.
    order: Vec<NodeId>,
    /// Bucket starts of the counting sort.
    start: Vec<usize>,
    /// Per digit-1 entry, the digit-0 entry of the pair it was last seen in
    /// and that pair's class.
    seen: Vec<Option<(u32, u32)>>,
}

impl SuffixClasses {
    /// Every one of the `n` vertices of level 0 is a LEAF.
    fn reset(&mut self, n: usize) {
        self.class.clear();
        self.class.resize(n, LEAF);
    }

    /// Moves the classes one level down. `labels` are the swept level's and
    /// `fine_to_coarse` maps it onto `coarse_n` vertices. Children of one
    /// coarse vertex differ in digit 0 except for repeated level-0 labels,
    /// whose LEAF classes sum to their multiplicity; so summing classes per
    /// digit gives each coarse vertex its exact pair. A counting sort groups
    /// the pairs by their digit-0 entry, and within a group `seen` tells a
    /// repeated digit-1 entry from a new one, since no group recurs: equal
    /// pairs get equal classes `1, 2, …` in O(level size + largest fine
    /// class), with no hashing.
    fn contract(&mut self, labels: &[u64], fine_to_coarse: &[NodeId], coarse_n: usize) {
        self.pairs.clear();
        self.pairs.resize(coarse_n, [EMPTY; 2]);
        for ((&c, &l), &class) in fine_to_coarse.iter().zip(labels).zip(&self.class) {
            self.pairs[c as usize][(l & 1) as usize] += class;
        }
        let buckets = self
            .pairs
            .iter()
            .flatten()
            .max()
            .map_or(0, |&m| m as usize + 1);
        self.start.clear();
        self.start.resize(buckets + 1, 0);
        for &[a, _] in &self.pairs {
            self.start[a as usize + 1] += 1;
        }
        for k in 1..=buckets {
            self.start[k] += self.start[k - 1];
        }
        self.order.resize(coarse_n, 0);
        for (c, &[a, _]) in self.pairs.iter().enumerate() {
            self.order[self.start[a as usize]] = c as NodeId;
            self.start[a as usize] += 1;
        }
        self.seen.clear();
        self.seen.resize(buckets, None);
        self.class.clear();
        self.class.resize(coarse_n, EMPTY);
        let mut id = EMPTY;
        for &c in &self.order {
            let [a, b] = self.pairs[c as usize];
            let seen = &mut self.seen[b as usize];
            self.class[c as usize] = match *seen {
                Some((group, class)) if group == a => class,
                _ => {
                    id += 1;
                    *seen = Some((a, id));
                    id
                }
            };
        }
    }
}

/// Reusable buffers for a full hierarchy round: the sweep's prefix-bucket
/// pair search ([`SweepScratch`]), the level view, the suffix classes and
/// the counting-sort buffers of the CSR contraction kernel
/// ([`ContractScratch`]). One scratch serves all `dim − 1` levels of a
/// hierarchy — and, kept by the driver for the whole run, all of its
/// rounds: buffers grow to the largest level once and are never
/// reallocated again. Results never depend on leftover
/// scratch contents.
#[derive(Clone, Debug, Default)]
pub struct HierarchyScratch {
    /// Pair-search buffers shared by the sweeps and the prefix ranking.
    sweep: SweepScratch,
    /// The view of the level being swept.
    view: LevelView,
    /// Suffix classes of the level being swept.
    classes: SuffixClasses,
    /// Counting-sort buffers of the CSR contraction kernel.
    contract: ContractScratch,
}

/// Builds the full hierarchy for one permutation round: alternating swap
/// sweeps and contractions until the labels have only two digits left
/// (Algorithm 1, lines 9–14). `p_mask`/`e_mask` are the PE/extension digit
/// masks *in the permuted label space*; they are truncated alongside the
/// labels on coarser levels. Every sweep runs on the calling thread.
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
        &mut PhaseTimes::default(),
    )
}

/// [`build_hierarchy`] with flight-recorder context and caller-provided
/// scratch: every level's sweep and contraction is a span that adds to
/// `times` and emits through `trace` (at `TraceLevel::Debug`), tagged with
/// `hierarchy_round` so the rounds stay distinguishable in the recording. A
/// level's contraction span includes the materialization of the next level,
/// if any, and the interning of the next level's suffix classes. `scratch`
/// carries the sweep, view, class and contraction buffers across all levels
/// — and, when the caller keeps it alive (as the driver does), across
/// hierarchy rounds. The result never depends on what a
/// previous run left in the scratch. `graph` is borrowed, and of the
/// materialized graphs only the current base is alive.
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
    times: &mut PhaseTimes,
) -> HierarchyRun {
    debug_assert_eq!(labels.len(), graph.num_vertices(), "one label per vertex");
    let mut run = HierarchyRun::default();
    let mut materialized: Option<Graph> = None;
    let mut current_labels = labels;
    let HierarchyScratch {
        sweep,
        view,
        classes,
        contract,
    } = scratch;

    // Paper: for i = 2 .. dim_Ga - 1; sweep on G^{i-1}, contract into G^i.
    let rounds = dim.saturating_sub(2);
    if rounds > 0 {
        // Contract time of no level: timed on an off handle, so it adds to
        // `times` and emits nothing.
        let untraced = TraceHandle::off();
        let reset = untraced.span(Phase::Contract, None, None);
        view.reset(graph.num_vertices());
        classes.reset(graph.num_vertices());
        reset.end(times);
    }
    for round in 0..rounds {
        let base = materialized.as_ref().unwrap_or(graph);
        let sweep_span = trace.span(Phase::Sweep, hierarchy_round, Some(round));
        collect_swap_pairs(&current_labels, sweep);
        sweep_level(
            base,
            view,
            &mut current_labels,
            &classes.class,
            &sweep.pairs,
            (p_mask >> round, e_mask >> round),
            &mut run,
        );
        sweep_span.end(times);

        let contract_span = trace.span(Phase::Contract, hierarchy_round, Some(round));
        let (coarse_labels, fine_to_coarse) = rank_prefixes(&sweep.keyed);
        let coarse_n = coarse_labels.len();
        // The coarsest level is never swept, so it needs no view and no
        // classes.
        if round + 1 < rounds {
            view.compose(&fine_to_coarse, coarse_n);
            classes.contract(&current_labels, &fine_to_coarse, coarse_n);
            if MATERIALIZE_FACTOR * coarse_n <= base.num_vertices() {
                run.contract_arcs += base.num_arcs();
                let next = contract_into(base, &view.anc, coarse_n, contract);
                view.reset(coarse_n);
                materialized = Some(next);
            }
        }
        contract_span.end(times);
        run.levels.push(Level {
            labels: current_labels,
            fine_to_coarse,
        });
        current_labels = coarse_labels;
    }
    // Coarsest level (no further contraction).
    run.levels.push(Level {
        labels: current_labels,
        fine_to_coarse: Vec::new(),
    });
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_labels;
    use crate::objective::{coco_and_div_for_labels, objective_for_labels, swap_delta};
    use proptest::prelude::*;
    use tie_graph::contract::contract;
    use tie_graph::{generators, GraphBuilder};

    /// The pre-kernel contraction path (prefix `HashMap` + `GraphBuilder`
    /// edge coalescer): coarse vertex ids are the ranks of the distinct label
    /// prefixes, unpaired vertices are carried over, parallel coarse edges
    /// are coalesced.
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

    /// The sorted suffixes of the level-0 vertices under every vertex of a
    /// level with `n` vertices, below which `levels` are finished: each
    /// vertex's suffix takes one digit from every finished level, as it
    /// walks up its `fine_to_coarse` chain. The literal form of the suffix
    /// class, with no interning.
    fn suffixes_under(levels: &[Level], n: usize) -> Vec<Vec<u64>> {
        let mut under = vec![Vec::new(); n];
        for x in 0..levels.first().map_or(n, |l| l.labels.len()) {
            let (mut a, mut suffix) = (x, 0u64);
            for (digit, level) in levels.iter().enumerate() {
                suffix |= (level.labels[a] & 1) << digit;
                a = level.fine_to_coarse[a] as usize;
            }
            under[a].push(suffix);
        }
        for suffixes in &mut under {
            suffixes.sort_unstable();
        }
        under
    }

    /// The sweep before the closed form: every candidate pair whose members
    /// have the same suffixes `under` them is priced by [`swap_delta`] on
    /// the level's own graph. Returns the swaps and their summed `Coco` and
    /// `Div` changes.
    fn sweep_with(
        graph: &Graph,
        labels: &mut [u64],
        (p_mask, e_mask): (u64, u64),
        under: &[Vec<u64>],
        scratch: &mut SweepScratch,
    ) -> (usize, i64, i64) {
        collect_swap_pairs(labels, scratch);
        let (mut swaps, mut coco, mut div) = (0usize, 0i64, 0i64);
        for &(u, v) in &scratch.pairs {
            if under[u as usize] == under[v as usize]
                && swap_delta(graph, labels, p_mask, e_mask, u, v) < 0
            {
                coco += swap_delta(graph, labels, p_mask, 0, u, v);
                div -= swap_delta(graph, labels, 0, e_mask, u, v);
                labels.swap(u as usize, v as usize);
                swaps += 1;
            }
        }
        (swaps, coco, div)
    }

    /// The hierarchy loop before the level views, kept as the oracle: every
    /// level's graph is built by [`contract_level_reference`], every sweep
    /// is priced by [`swap_delta`], and a pair may swap only when
    /// [`suffixes_under`] finds the same suffixes under both members.
    /// Returns the levels, the swap count and the swaps' `Coco` and `Div`
    /// changes; the work counts stay zero.
    fn build_hierarchy_reference(
        graph: &Graph,
        labels: Vec<u64>,
        dim: usize,
        p_mask: u64,
        e_mask: u64,
    ) -> HierarchyRun {
        let mut run = HierarchyRun::default();
        let mut coarse_graph: Option<Graph> = None;
        let mut current_labels = labels;
        let mut scratch = SweepScratch::default();
        for round in 0..dim.saturating_sub(2) {
            let current_graph = coarse_graph.as_ref().unwrap_or(graph);
            let under = suffixes_under(&run.levels, current_labels.len());
            let masks = (p_mask >> round, e_mask >> round);
            let (swaps, coco, div) = sweep_with(
                current_graph,
                &mut current_labels,
                masks,
                &under,
                &mut scratch,
            );
            run.total_swaps += swaps;
            run.coco_delta += coco;
            run.div_delta += div;
            let (next_graph, coarse_labels, fine_to_coarse) =
                contract_level_reference(current_graph, &current_labels);
            run.levels.push(Level {
                labels: current_labels,
                fine_to_coarse,
            });
            coarse_graph = Some(next_graph);
            current_labels = coarse_labels;
        }
        run.levels.push(Level {
            labels: current_labels,
            fine_to_coarse: Vec::new(),
        });
        run
    }

    /// For every swept level, whether it was swept through a graph
    /// materialized for it (`true`) or through a view over a larger base.
    /// Replays [`MATERIALIZE_FACTOR`]'s rule on the level sizes; level 0 is
    /// swept on `Ga` itself and reported as materialized.
    fn materialized_levels(run: &HierarchyRun) -> Vec<bool> {
        let swept = run.levels.len() - 1;
        let mut base_n = run.levels[0].labels.len();
        (0..swept)
            .map(|i| {
                let n = run.levels[i].labels.len();
                let fresh = i == 0 || MATERIALIZE_FACTOR * n <= base_n;
                if fresh {
                    base_n = n;
                }
                fresh
            })
            .collect()
    }

    /// Asserts that `run` reproduces the reference loop level for level.
    fn assert_matches_reference(
        run: &HierarchyRun,
        graph: &Graph,
        labels: Vec<u64>,
        dim: usize,
        p_mask: u64,
        e_mask: u64,
    ) {
        let reference = build_hierarchy_reference(graph, labels, dim, p_mask, e_mask);
        assert_eq!(run.levels, reference.levels);
        assert_eq!(run.total_swaps, reference.total_swaps);
        assert_eq!(
            (run.coco_delta, run.div_delta),
            (reference.coco_delta, reference.div_delta)
        );
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

    /// `build_hierarchy_traced` on a caller-provided scratch.
    fn build_with(
        graph: &Graph,
        labels: Vec<u64>,
        dim: usize,
        p_mask: u64,
        e_mask: u64,
        scratch: &mut HierarchyScratch,
    ) -> HierarchyRun {
        build_hierarchy_traced(
            graph,
            labels,
            dim,
            p_mask,
            e_mask,
            None,
            &TraceHandle::off(),
            scratch,
            &mut PhaseTimes::default(),
        )
    }

    fn low_mask(digits: usize) -> u64 {
        (1u64 << digits) - 1
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
        let p_mask = 0b110;
        let e_mask = 0b001;
        let before = objective_for_labels(&g, &labels, p_mask, e_mask);
        // Three digits: one sweep (level 0), one contraction.
        let run = build_hierarchy(&g, labels, 3, p_mask, e_mask);
        let l = &run.levels[0].labels;
        let after = objective_for_labels(&g, l, p_mask, e_mask);
        assert!(after <= before, "sweep must not worsen the objective");
        if run.total_swaps == 0 {
            assert_eq!(after, before);
        }
        // The label multiset is preserved.
        let mut sl = l.clone();
        sl.sort_unstable();
        assert_eq!(sl, (0..8u64).collect::<Vec<_>>());
    }

    #[test]
    fn closed_form_delta_equals_swap_delta() {
        // Level vertices group the base vertices of a weighted random graph
        // through a scattered map; the closed form over the view must equal
        // `swap_delta` on the contracted graph for every pair whose labels
        // differ in digit 0, under every sign of that digit.
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(96, 3, 5), 9, 5);
        let coarse_n = 40;
        let f2c: Vec<NodeId> = (0..96u32).map(|v| (v * 17 + 3) % coarse_n).collect();
        let coarse = contract(&g, &f2c, coarse_n as usize);
        let mut grouped = LevelView::default();
        grouped.reset(g.num_vertices());
        grouped.compose(&f2c, coarse_n as usize);
        let mut identity = LevelView::default();
        identity.reset(g.num_vertices());
        let base_labels: Vec<u64> = (0..96u64).map(|v| (v * 37) % 64).collect();
        let coarse_labels: Vec<u64> = base_labels[..coarse_n as usize].to_vec();
        let masks = [(0b11_1110, 0b1), (0b1, 0b11_1110), (0b11, 0b1), (0b10, 0)];
        let mut checked = 0;
        // (view over `g`, the level graph it stands for, level labels)
        for (view, level_graph, labels) in [
            (&grouped, &coarse, &coarse_labels),
            (&identity, &g, &base_labels),
        ] {
            for u in 0..labels.len() as NodeId {
                for v in 0..labels.len() as NodeId {
                    if labels[u as usize] ^ labels[v as usize] != 1 {
                        continue;
                    }
                    let (sum, _) = view.pair_sum(&g, labels, u, v);
                    for (p_mask, e_mask) in masks {
                        let s = (p_mask & 1) as i64 - (e_mask & 1) as i64;
                        assert_eq!(
                            s * sum,
                            swap_delta(level_graph, labels, p_mask, e_mask, u, v),
                            "pair ({u}, {v}), masks ({p_mask:#b}, {e_mask:#b})"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 40, "too few pairs differ in digit 0: {checked}");
    }

    #[test]
    fn contraction_merges_pairs_and_cuts_digit() {
        let (g, labels) = toy();
        // Three digits: level 1 is the contraction of level 0, unswept.
        let run = build_hierarchy(&g, labels, 3, 0b110, 0b001);
        assert_eq!(run.levels.len(), 2);
        assert_eq!(run.levels[0].fine_to_coarse, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(run.levels[1].labels, vec![0, 1, 2, 3]);
    }

    /// Level-1 vertices A (fine 0, 1), B (2, 3), C (4, 5) and D (6), plus
    /// `padding` isolated fine vertices sharing one more prefix. A–C are
    /// joined by three fine edges of weight 2 + 3 + 5 = 10 and B–C by one of
    /// weight `bc`; the pair's own edge A–B and the edge inside A must not
    /// count. So A and B swap at level 1 exactly when `10 − bc < 0`.
    fn coalescing_instance(bc: u64, padding: usize) -> (Graph, Vec<u64>) {
        let mut b = GraphBuilder::new(7 + padding);
        b.add_edge(0, 4, 2);
        b.add_edge(0, 5, 3);
        b.add_edge(1, 4, 5);
        b.add_edge(2, 5, bc);
        b.add_edge(0, 2, 100); // the pair's own edge
        b.add_edge(0, 1, 50); // inside A
        let mut labels = vec![0b0000u64, 0b0001, 0b0010, 0b0011, 0b0100, 0b0101, 0b0110];
        labels.resize(7 + padding, 0b1111);
        (b.build(), labels)
    }

    #[test]
    fn contraction_coalesces_parallel_coarse_edges() {
        let (p_mask, e_mask) = (0b1110, 0b0001);
        // Without padding level 1 is swept through a view of `Ga`; with 16
        // padding vertices it has 5 of 23 vertices and is materialized.
        for padding in [0usize, 16] {
            for (bc, swapped) in [(9u64, false), (10, false), (11, true)] {
                let (g, labels) = coalescing_instance(bc, padding);
                let run = build_hierarchy(&g, labels.clone(), 4, p_mask, e_mask);
                assert_eq!(run.contract_arcs > 0, padding > 0);
                let ab = &run.levels[1].labels[..2];
                let expected: &[u64] = if swapped {
                    &[0b001, 0b000]
                } else {
                    &[0b000, 0b001]
                };
                assert_eq!(ab, expected, "bc {bc}, padding {padding}");
                assert_matches_reference(&run, &g, labels, 4, p_mask, e_mask);
            }
        }
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
        // A scratch whose pair search was dirtied by a larger level must
        // sweep exactly like a fresh one, and like the `swap_delta` sweep.
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(96, 3, 5), 4, 5);
        let labels: Vec<u64> = (0..96u64).collect();
        let (p_mask, e_mask) = (0b111_0000, 0b000_1111);
        let fresh = build_hierarchy(&g, labels.clone(), 7, p_mask, e_mask);
        let mut scratch = HierarchyScratch::default();
        collect_swap_pairs(&(0..256u64).rev().collect::<Vec<_>>(), &mut scratch.sweep);
        let reused = build_with(&g, labels.clone(), 7, p_mask, e_mask, &mut scratch);
        assert_eq!(fresh.total_swaps, reused.total_swaps);
        assert_eq!(fresh.levels, reused.levels);
        let mut swept = labels;
        let under = suffixes_under(&[], swept.len());
        let (swaps, ..) = sweep_with(
            &g,
            &mut swept,
            (p_mask, e_mask),
            &under,
            &mut SweepScratch::default(),
        );
        assert_eq!(fresh.levels[0].labels, swept);
        assert!(swaps > 0, "the fixture must exercise the sweep");
    }

    #[test]
    fn contraction_keeps_unpaired_vertices() {
        let g = generators::path_graph(3);
        let labels = vec![0b000u64, 0b001, 0b010];
        let run = build_hierarchy(&g, labels, 3, 0b110, 0b001);
        assert_eq!(run.levels[1].labels, vec![0, 1]);
        assert_eq!(run.levels[0].fine_to_coarse, vec![0, 0, 1]);
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
        assert_eq!((run.sweep_arcs, run.contract_arcs), (0, 0));
    }

    #[test]
    fn hierarchy_matches_reference_oracle_on_fixtures() {
        let (g, labels) = toy();
        for dim in [3, 4, 5] {
            let run = build_hierarchy(&g, labels.clone(), dim, low_mask(dim) - 1, 1);
            assert_matches_reference(&run, &g, labels.clone(), dim, low_mask(dim) - 1, 1);
        }
        // 600 distinct 12-digit labels: the first levels barely shrink and
        // are swept through views, the deep ones are materialized.
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(600, 3, 5), 4, 5);
        let labels: Vec<u64> = generators::random_permutation(1 << 12, 5)[..600]
            .iter()
            .map(|&l| u64::from(l))
            .collect();
        let (p_mask, e_mask) = (0b1111_1100_0000, 0b0000_0011_1111);
        let run = build_hierarchy(&g, labels.clone(), 12, p_mask, e_mask);
        let kinds = materialized_levels(&run);
        assert!(kinds[1..].contains(&false), "no level swept through a view");
        assert!(kinds[1..].contains(&true), "no level materialized");
        assert!(run.contract_arcs > 0 && run.sweep_arcs > 0);
        assert_matches_reference(&run, &g, labels, 12, p_mask, e_mask);
    }

    #[test]
    fn contract_scratch_reuse_is_stateless() {
        let (g_a, labels_a) = toy();
        let g_b = generators::randomize_edge_weights(&generators::barabasi_albert(256, 3, 2), 4, 3);
        let labels_b: Vec<u64> = (0..256u64).rev().collect();
        let mut scratch = HierarchyScratch::default();
        let fresh_a = build_with(&g_a, labels_a.clone(), 5, 0b11110, 1, &mut scratch);
        // Dirty the scratch with a larger instance that materializes levels,
        // then redo the first one: the result must not depend on leftover
        // scratch contents.
        let run_b = build_with(
            &g_b,
            labels_b.clone(),
            10,
            0b11_1111_0000,
            0b1111,
            &mut scratch,
        );
        assert!(run_b.contract_arcs > 0);
        assert_matches_reference(&run_b, &g_b, labels_b, 10, 0b11_1111_0000, 0b1111);
        let again_a = build_with(&g_a, labels_a, 5, 0b11110, 1, &mut scratch);
        assert_eq!(again_a.levels, fresh_a.levels);
        assert_eq!(again_a.total_swaps, fresh_a.total_swaps);
        assert_eq!(
            (again_a.sweep_arcs, again_a.contract_arcs),
            (fresh_a.sweep_arcs, fresh_a.contract_arcs)
        );
    }

    /// `n` labels of `dim` digits: distinct when `unique` and `2^dim ≥ n`;
    /// otherwise vertex `v` shares its label with `v + n/2`, so every
    /// `n ≥ 2` has duplicates.
    fn random_labels(n: usize, dim: usize, unique: bool, seed: u64) -> Vec<u64> {
        if unique && n <= 1 << dim {
            generators::random_permutation(1 << dim, seed)[..n]
                .iter()
                .map(|&l| u64::from(l))
                .collect()
        } else {
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

    /// A random weighted G(n, m) graph, its `random_labels` (two thirds
    /// distinct, one third with duplicates) and digit masks: mostly a
    /// PE/extension split of the digits, but when `seed % 4 == 0` both masks
    /// are raw bit draws, so digits fall in neither or both.
    fn random_instance(
        n: usize,
        m: usize,
        dim: usize,
        seed: u64,
        unique: u32,
        p_bits: u64,
        e_bits: u64,
    ) -> (Graph, Vec<u64>, u64, u64) {
        let labels = random_labels(n, dim, unique > 0, seed);
        let base = generators::erdos_renyi_gnm(n, m.min(n * (n - 1) / 2), seed);
        let g = generators::randomize_edge_weights(&base, 7, seed ^ 0xc0ffee);
        let e_mask = e_bits & low_mask(dim);
        let p_mask = if seed.is_multiple_of(4) {
            p_bits & low_mask(dim)
        } else {
            low_mask(dim) & !e_mask
        };
        (g, labels, p_mask, e_mask)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On random weighted G(n, m) graphs × random labelings (distinct
        /// labels or multisets with duplicates, `dim` 2–14) × random digit
        /// masks, the lazy hierarchy reproduces the per-level reference loop
        /// — every level's labels and `fine_to_coarse`, the swap count and
        /// the swaps' summed deltas — on a fresh scratch and on one dirtied
        /// by an unrelated hierarchy.
        #[test]
        fn lazy_hierarchy_equivalent_to_per_level_reference(
            n in 2..302usize,
            m in 0..1200usize,
            dim in 2..15usize,
            seed in 0..10_000u64,
            unique in 0..3u32,
            p_bits in 0..(1u64 << 14),
            e_bits in 0..(1u64 << 14),
            dirty in 0..2u32,
        ) {
            let (g, labels, p_mask, e_mask) = random_instance(n, m, dim, seed, unique, p_bits, e_bits);
            let mut scratch = HierarchyScratch::default();
            if dirty == 1 {
                let other = generators::barabasi_albert(n + 64, 3, seed ^ 0x5eed);
                let other_labels = random_labels(n + 64, 12, false, seed ^ 0x5eed);
                let _ = build_with(&other, other_labels, 12, 0b1111_1100_0000, 0b11_1111, &mut scratch);
            }
            let run = build_with(&g, labels.clone(), dim, p_mask, e_mask, &mut scratch);
            let reference = build_hierarchy_reference(&g, labels, dim, p_mask, e_mask);
            prop_assert_eq!(run.levels, reference.levels);
            prop_assert_eq!(run.total_swaps, reference.total_swaps);
            prop_assert_eq!(
                (run.coco_delta, run.div_delta),
                (reference.coco_delta, reference.div_delta)
            );
        }

        /// On the same random instances, exact swaps keep the label
        /// multiset: the composed labels are a permutation of the input, and
        /// a full recompute of `(ΔCoco, ΔDiv)` equals the sweeps' summed
        /// deltas.
        #[test]
        fn composed_labels_are_a_permutation_with_the_sweep_deltas(
            n in 1..302usize,
            m in 0..1200usize,
            dim in 2..15usize,
            seed in 0..10_000u64,
            unique in 0..3u32,
            p_bits in 0..(1u64 << 14),
            e_bits in 0..(1u64 << 14),
        ) {
            let (g, labels, p_mask, e_mask) = random_instance(n, m, dim, seed, unique, p_bits, e_bits);
            let run = build_hierarchy(&g, labels.clone(), dim, p_mask, e_mask);
            let composed = assemble_labels(&run);
            let (coco, div) = coco_and_div_for_labels(&g, &labels, p_mask, e_mask);
            let (new_coco, new_div) = coco_and_div_for_labels(&g, &composed, p_mask, e_mask);
            let mut sorted = composed;
            sorted.sort_unstable();
            let mut input = labels;
            input.sort_unstable();
            prop_assert_eq!(sorted, input);
            prop_assert_eq!(
                (new_coco as i64 - coco as i64, new_div as i64 - div as i64),
                (run.coco_delta, run.div_delta)
            );
        }
    }
}
