//! Sort-based CSR contraction kernel: the workspace's only code that
//! contracts a graph along a vertex map. The communication graph
//! (`tie-mapping`) and the partitioner's coarse levels (`tie-partition`)
//! call [`contract_into`], and so does TIMER's label-prefix hierarchy
//! (`tie-timer`) — but only for the levels it materializes, once a level has
//! shrunk 4×, along the map composed over all levels since the last one.
//!
//! The fine vertices are counting-sorted by coarse id (an O(n) pass), and
//! the arc list is then emitted head-major in that order, so every tail
//! bucket receives its heads already sorted and a single run-scan coalesces
//! parallel coarse arcs — no hash map and no comparison sort touch the
//! arcs. All intermediate state lives in a reusable [`ContractScratch`]; the
//! only allocations per call are the exact-size output arrays of the coarse
//! [`Graph`] itself.
//!
//! The kernel is pinned to produce **byte-identical** output to the
//! `GraphBuilder` path: same vertex order, same sorted adjacency lists, same
//! coalesced weights (see the equivalence proptest below). In `tie-timer`,
//! the whole-hierarchy oracle proptest of `hierarchy` checks the hierarchies
//! built on this kernel against a per-level `GraphBuilder` contraction.

use crate::csr::{Graph, NodeId, Weight};

/// Reusable buffers for [`contract_into`]. One scratch serves any number of
/// contractions of any sizes; buffers grow to the high-water mark and stay
/// allocated. The result of a contraction never depends on leftover scratch
/// contents.
#[derive(Clone, Debug, Default)]
pub struct ContractScratch {
    /// Bucket start offsets; length `coarse_n + 1`.
    starts: Vec<usize>,
    /// Bucket write cursors (end offsets after the scatter); length `coarse_n`.
    cursors: Vec<usize>,
    /// Fine vertices counting-sorted by coarse id; length `n`.
    order: Vec<NodeId>,
    /// Cross arcs `(coarse_head, weight)` bucketed by coarse tail, heads
    /// sorted within each bucket by construction.
    arcs: Vec<(NodeId, Weight)>,
    /// Coalesced adjacency staging (copied into the exact-size output).
    out_adjncy: Vec<NodeId>,
    /// Coalesced weight staging (copied into the exact-size output).
    out_adjwgt: Vec<Weight>,
}

/// Contracts `fine` along `fine_to_coarse` into a coarse graph with
/// `coarse_n` vertices, directly in CSR form.
///
/// * Every fine arc `u -> v` becomes the coarse arc
///   `fine_to_coarse[u] -> fine_to_coarse[v]`; arcs that collapse into a
///   coarse self-loop are dropped, parallel coarse arcs are coalesced with
///   summed weights, and every adjacency list comes out sorted by neighbour
///   id — exactly the invariants [`crate::GraphBuilder::build`] establishes.
/// * Coarse vertex weights are the sums of the fine vertex weights merged
///   into them (a coarse vertex with no fine preimage gets weight 0).
///
/// The kernel leans on [`Graph`]'s undirectedness invariant (every arc has
/// a mirror arc of equal weight, see [`Graph::is_symmetric`]): it reads the
/// weight of `u -> v` from `v`'s adjacency row. Every `Graph` meets it by
/// construction — [`crate::GraphBuilder::build`], this kernel and
/// [`crate::induced_subgraph`] are the only constructors, and the last keeps
/// exactly the arcs between selected vertices of a symmetric parent, so
/// each kept arc keeps its mirror — and it is only re-checked in debug
/// builds.
///
/// # Panics
/// Panics if `fine_to_coarse` is shorter than the vertex count of `fine` or
/// maps a vertex to an id `>= coarse_n`.
pub fn contract_into(
    fine: &Graph,
    fine_to_coarse: &[NodeId],
    coarse_n: usize,
    scratch: &mut ContractScratch,
) -> Graph {
    let n = fine.num_vertices();
    assert_eq!(
        fine_to_coarse.len(),
        n,
        "fine_to_coarse must map every vertex of the fine graph"
    );
    debug_assert!(
        fine.is_symmetric(),
        "contract_into requires the undirectedness invariant (mirrored arcs \
         with equal weights)"
    );
    let xadj = fine.xadj();
    let adjncy = fine.adjncy();
    let adjwgt = fine.adjwgt();

    let mut vwgt = vec![0 as Weight; coarse_n];
    for (v, &c) in fine_to_coarse.iter().enumerate() {
        let c = c as usize;
        assert!(
            c < coarse_n,
            "coarse id {c} out of range (coarse_n = {coarse_n})"
        );
        vwgt[c] += fine.vertex_weight(v as NodeId);
    }

    // Pass 1: counting-sort the fine vertices by coarse id. `starts` doubles
    // as the histogram; the stable scatter keeps ascending vertex-id order
    // within each coarse group.
    let starts = &mut scratch.starts;
    let cursors = &mut scratch.cursors;
    starts.clear();
    starts.resize(coarse_n + 1, 0);
    for &c in fine_to_coarse {
        starts[c as usize + 1] += 1;
    }
    for c in 0..coarse_n {
        starts[c + 1] += starts[c];
    }
    cursors.clear();
    cursors.extend_from_slice(&starts[..coarse_n]);
    scratch.order.clear();
    scratch.order.resize(n, 0);
    for (v, &c) in fine_to_coarse.iter().enumerate() {
        let c = c as usize;
        scratch.order[cursors[c]] = v as NodeId;
        cursors[c] += 1;
    }

    // Pass 2: bucket every cross arc by its coarse *tail*, visiting arcs
    // head-side in ascending coarse-head order (the vertex order from pass
    // 1). The fine graph is symmetric, so arc `u -> v` is emitted while
    // scanning head `v`'s row with `v`'s copy of the weight — and because
    // heads arrive in ascending coarse order, every tail bucket comes out
    // sorted by head with no comparison sort. Coarse self-loops are dropped
    // during the scatter, so the degree-sum bucket sizes are upper bounds
    // and `cursors[c]` tracks each bucket's actual end.
    starts.clear();
    starts.resize(coarse_n + 1, 0);
    for u in 0..n {
        let cu = fine_to_coarse[u] as usize;
        starts[cu + 1] += xadj[u + 1] - xadj[u];
    }
    for c in 0..coarse_n {
        starts[c + 1] += starts[c];
    }
    cursors.clear();
    cursors.extend_from_slice(&starts[..coarse_n]);
    scratch.arcs.clear();
    scratch.arcs.resize(starts[coarse_n], (0, 0));
    for &v in &scratch.order {
        let cv = fine_to_coarse[v as usize];
        let row = xadj[v as usize]..xadj[v as usize + 1];
        for (&u, &w) in adjncy[row.clone()].iter().zip(&adjwgt[row]) {
            let cu = fine_to_coarse[u as usize];
            if cu != cv {
                scratch.arcs[cursors[cu as usize]] = (cv, w);
                cursors[cu as usize] += 1;
            }
        }
    }

    // Pass 3: coalesce the head runs of each (sorted) bucket with summed
    // weights into the staging buffers. Equal heads arrive in fine-vertex
    // order rather than the reference path's insertion order, but the run
    // sum is the same for every order, so the output stays byte-stable.
    let mut cxadj = Vec::with_capacity(coarse_n + 1);
    cxadj.push(0usize);
    scratch.out_adjncy.clear();
    scratch.out_adjwgt.clear();
    for c in 0..coarse_n {
        let bucket = &scratch.arcs[starts[c]..cursors[c]];
        let mut i = 0;
        while i < bucket.len() {
            let cv = bucket[i].0;
            let mut w: Weight = 0;
            while i < bucket.len() && bucket[i].0 == cv {
                w += bucket[i].1;
                i += 1;
            }
            scratch.out_adjncy.push(cv);
            scratch.out_adjwgt.push(w);
        }
        cxadj.push(scratch.out_adjncy.len());
    }

    // The staging buffers keep their high-water capacity for the next call;
    // the coarse graph gets exact-size copies.
    let cadjncy = scratch.out_adjncy.clone();
    let cadjwgt = scratch.out_adjwgt.clone();
    Graph::from_adjacency(cxadj, cadjncy, cadjwgt, vwgt)
}

/// Allocating convenience wrapper around [`contract_into`] for one-shot
/// callers; loops should hold a [`ContractScratch`] and call the kernel.
pub fn contract(fine: &Graph, fine_to_coarse: &[NodeId], coarse_n: usize) -> Graph {
    contract_into(
        fine,
        fine_to_coarse,
        coarse_n,
        &mut ContractScratch::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    /// Reference contraction via the incremental `GraphBuilder` path — the
    /// pre-kernel implementation the kernel must reproduce byte for byte.
    fn contract_reference(fine: &Graph, fine_to_coarse: &[NodeId], coarse_n: usize) -> Graph {
        let mut builder = GraphBuilder::new(coarse_n);
        let mut vwgt = vec![0 as Weight; coarse_n];
        for v in fine.vertices() {
            vwgt[fine_to_coarse[v as usize] as usize] += fine.vertex_weight(v);
        }
        for (c, &w) in vwgt.iter().enumerate() {
            builder.set_vertex_weight(c as NodeId, w);
        }
        for (u, v, w) in fine.edges() {
            let (cu, cv) = (fine_to_coarse[u as usize], fine_to_coarse[v as usize]);
            if cu != cv {
                builder.add_edge(cu, cv, w);
            }
        }
        builder.build()
    }

    #[test]
    fn pairwise_contraction_of_a_cycle() {
        let g = generators::cycle_graph(8);
        let f2c: Vec<NodeId> = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let coarse = contract(&g, &f2c, 4);
        assert_eq!(coarse.num_vertices(), 4);
        assert_eq!(coarse.num_edges(), 4);
        assert_eq!(coarse.total_vertex_weight(), g.total_vertex_weight());
        assert!(coarse.is_symmetric());
        assert_eq!(coarse, contract_reference(&g, &f2c, 4));
    }

    #[test]
    fn parallel_coarse_arcs_are_coalesced_with_summed_weights() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2, 2);
        b.add_edge(0, 3, 3);
        b.add_edge(1, 2, 5);
        b.add_edge(0, 1, 7); // intra-group: must vanish
        let g = b.build();
        let f2c: Vec<NodeId> = vec![0, 0, 1, 1];
        let coarse = contract(&g, &f2c, 2);
        assert_eq!(coarse.num_edges(), 1);
        assert_eq!(coarse.edge_weight(0, 1), Some(2 + 3 + 5));
        assert_eq!(coarse, contract_reference(&g, &f2c, 2));
    }

    #[test]
    fn empty_and_edgeless_inputs() {
        let empty = Graph::from_edges(0, &[]);
        let coarse = contract(&empty, &[], 0);
        assert_eq!(coarse.num_vertices(), 0);
        assert_eq!(coarse.num_edges(), 0);

        let edgeless = Graph::from_edges(3, &[]);
        let coarse = contract(&edgeless, &[1, 0, 1], 2);
        assert_eq!(coarse.num_vertices(), 2);
        assert_eq!(coarse.num_edges(), 0);
        assert_eq!(coarse.vertex_weights(), &[1, 2]);
    }

    #[test]
    fn coarse_vertex_without_preimage_gets_weight_zero() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let coarse = contract(&g, &[0, 2], 3);
        assert_eq!(coarse.vertex_weights(), &[1, 0, 1]);
        assert_eq!(coarse.edge_weight(0, 2), Some(1));
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let a = generators::cycle_graph(8);
        let b = generators::randomize_edge_weights(&generators::barabasi_albert(64, 3, 1), 4, 2);
        let f2c_a: Vec<NodeId> = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let f2c_b: Vec<NodeId> = (0..64).map(|v| (v / 2) as NodeId).collect();
        let mut scratch = ContractScratch::default();
        let fresh_a = contract_into(&a, &f2c_a, 4, &mut scratch);
        // Dirty the scratch with a larger instance, then redo the first one.
        let fresh_b = contract_into(&b, &f2c_b, 32, &mut scratch);
        assert_eq!(fresh_b, contract_reference(&b, &f2c_b, 32));
        assert_eq!(contract_into(&a, &f2c_a, 4, &mut scratch), fresh_a);
    }

    #[test]
    #[should_panic]
    fn rejects_short_merge_map() {
        let g = generators::path_graph(3);
        let _ = contract(&g, &[0, 0], 1);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_coarse_id() {
        let g = generators::path_graph(2);
        let _ = contract(&g, &[0, 5], 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random weighted graphs with random merge maps, the kernel's
        /// output equals the `GraphBuilder` reference field for field
        /// (`Graph` derives `PartialEq` over its raw CSR arrays, so this is
        /// byte-identity of the representation, not just isomorphism).
        #[test]
        fn kernel_matches_builder_reference(
            n in 1..120usize,
            extra_edges in 0..300usize,
            groups in 1..40usize,
            seed in 0..1000u64,
        ) {
            let base = generators::erdos_renyi_gnm(n, extra_edges.min(n * (n - 1) / 2), seed);
            let g = generators::randomize_edge_weights(&base, 9, seed ^ 0x5eed);
            let coarse_n = groups.min(n);
            // Deterministic pseudo-random merge map touching all of 0..coarse_n.
            let f2c: Vec<NodeId> = (0..n)
                .map(|v| {
                    if v < coarse_n {
                        v as NodeId
                    } else {
                        ((v.wrapping_mul(2654435761).wrapping_add(seed as usize)) % coarse_n)
                            as NodeId
                    }
                })
                .collect();
            let kernel = contract(&g, &f2c, coarse_n);
            let reference = contract_reference(&g, &f2c, coarse_n);
            prop_assert_eq!(kernel, reference);
        }
    }
}
