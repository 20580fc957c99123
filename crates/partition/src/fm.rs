//! Boundary Fiduccia–Mattheyses (FM) refinement for bisections.
//!
//! Classic FM with gain buckets: in each pass, boundary vertices are inserted
//! into a [`tie_graph::bucket_queue::BucketQueue`]; repeatedly the
//! highest-gain vertex whose move keeps the bisection within the balance
//! bound is moved (and locked), neighbour gains are updated, and at the end
//! of the pass the best prefix of moves is kept. A pass ends when the queue
//! is empty or, as in METIS and KaHIP, once `FM_STALL_MOVES` moves have
//! followed its best cut without beating it; the queue is then emptied and
//! the moves after the best prefix are rolled back. Passes repeat until no
//! improvement is found or the pass limit is reached.
//!
//! The limit is what makes a pass cheap. On the medium PGPgiantcompo
//! stand-in at k = 64 (partition seed 1), `partition()` makes 72,334 moves
//! instead of the 265,894 it makes when every pass runs to an empty queue,
//! and keeps the same 4,194. It changes a partition only where a pass would
//! have beaten its best cut more than `FM_STALL_MOVES` moves later. Of 41
//! partitions checked (both pinned ones, the medium stand-in at k = 64, 256
//! and 512, and every end-to-end benchmark input at seeds 1–3), one
//! changed: the tiny web-Google stand-in at seed 3 and k = 64 cuts 27,079
//! edges instead of 26,977 (+0.4 %).
//!
//! Gains are incremental. A pass starts with one scan over the arcs that
//! computes every vertex's gain (external minus internal weight) and its
//! count of neighbours on the other side. Moving `v` then adds `±2w` to the
//! gain and `±1` to the count of each unlocked neighbour across an arc of
//! weight `w`, so a move costs `deg(v)` instead of the sum of its
//! neighbours' degrees. A vertex is on the boundary while its count is
//! non-zero, so zero-weight edges keep it there. The queue sees the same
//! calls in the same order as a from-scratch recomputation would make.
//!
//! The queue's bucket array is sized by the largest weighted degree, capped
//! at `MAX_GAIN_BUCKETS`. Edge weights come from outside (METIS files,
//! `mapd` requests), and an uncapped array grows with them. The queue
//! clamps gains to its range and the cut is booked from exact gains, so the
//! cap can only reorder pops among vertices whose |gain| exceeds it.

use tie_graph::bucket_queue::BucketQueue;
use tie_graph::{Gain, Graph, NodeId, Weight};

use crate::initial::Bisection;

/// Largest |gain| the bucket queue tells apart; larger gains share its end
/// buckets. It bounds the queue at `2^17 + 1` buckets whatever the edge
/// weights. Only the heavy-edge tests reach it: the weighted degrees of the
/// other tested and the benchmarked networks stay below.
const MAX_GAIN_BUCKETS: Weight = 1 << 16;

/// A pass ends once this many moves have followed its best cut. Over the
/// 41 partitions of the module docs, summed `partition()` time fell by 26 %
/// at 200, 31 % at 100 and 35 % at 50; 200 changed one of them, 100 four
/// (the pinned R-MAT partition's cut rose from 29,862 to 30,071) and 50
/// fifteen, both pinned ones among them. On the medium stand-in (2 vCPUs,
/// minimum of 5 calls, three alternated runs), k = 64 went from 136–138 to
/// 89–91 ms and k = 256 from 170–174 to 118 ms.
const FM_STALL_MOVES: usize = 200;

/// Balance bound for one side: the largest integer weight not exceeding
/// `(1 + eps) * target` (and at least `target`, so a perfectly balanced side
/// is always feasible). Using `floor` keeps this consistent with
/// [`crate::Partition::is_balanced`].
fn max_weight(target: Weight, eps: f64) -> Weight {
    ((((target as f64) * (1.0 + eps)).floor() as Weight).max(target)).max(1)
}

/// Runs up to `max_passes` FM passes on `bisection`, refining it in place.
/// `target0`/`target1` are the desired side weights and `eps` the allowed
/// relative overshoot. Returns the total cut improvement.
pub fn refine_bisection(
    graph: &Graph,
    bisection: &mut Bisection,
    target0: Weight,
    target1: Weight,
    eps: f64,
    max_passes: usize,
) -> Weight {
    let n = graph.num_vertices();
    if n == 0 {
        return 0;
    }
    let max0 = max_weight(target0, eps);
    let max1 = max_weight(target1, eps);
    let max_gain = graph
        .vertices()
        .map(|v| graph.weighted_degree(v))
        .max()
        .unwrap_or(1)
        .min(MAX_GAIN_BUCKETS) as Gain;
    let initial_cut = bisection.cut;

    // One queue and one set of arrays per call. A pass leaves the queue
    // empty, so it starts every pass empty.
    let mut queue = BucketQueue::new(n, max_gain);
    let mut locked = vec![false; n];
    // gain[v]: external minus internal weight; ext[v]: neighbours on the
    // other side. Exact for every unlocked vertex during a pass.
    let mut gain: Vec<Gain> = vec![0; n];
    let mut ext: Vec<u32> = vec![0; n];
    let mut moves: Vec<NodeId> = Vec::new();

    for _ in 0..max_passes {
        locked.fill(false);
        moves.clear();
        for v in graph.vertices() {
            let sv = bisection.side[v as usize];
            let (mut g, mut e): (Gain, u32) = (0, 0);
            for (u, w) in graph.edges_of(v) {
                if bisection.side[u as usize] == sv {
                    g -= w as Gain;
                } else {
                    g += w as Gain;
                    e += 1;
                }
            }
            gain[v as usize] = g;
            ext[v as usize] = e;
            if e > 0 {
                queue.insert(v, g);
            }
        }

        let mut best_cut = bisection.cut;
        let mut best_prefix = 0usize;
        let mut cur_cut = bisection.cut;
        let (mut w0, mut w1) = (bisection.weight0, bisection.weight1);
        let mut best_w = (w0, w1);

        while let Some((v, _)) = queue.pop_max() {
            let vi = v as usize;
            debug_assert!(!locked[vi], "a moved vertex is never queued again");
            let vw = graph.vertex_weight(v);
            let from0 = bisection.side[vi] == 0;
            // Feasibility of the move w.r.t. the balance bound.
            let feasible = if from0 {
                w1 + vw <= max1
            } else {
                w0 + vw <= max0
            };
            if !feasible {
                continue; // dropped; it may re-enter in a later pass
            }
            // The bucket gain may be clamped; the cut is booked from the
            // exact gain.
            let to = bisection.side[vi] ^ 1;
            bisection.side[vi] = to;
            locked[vi] = true;
            if from0 {
                w0 -= vw;
                w1 += vw;
            } else {
                w1 -= vw;
                w0 += vw;
            }
            cur_cut = (cur_cut as i64 - gain[vi]) as Weight;
            moves.push(v);
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = moves.len();
                best_w = (w0, w1);
            }
            if moves.len() - best_prefix >= FM_STALL_MOVES {
                queue.clear();
                break;
            }
            // Update neighbour gains. The entries of locked vertices (`v`
            // included) are not read again in this pass.
            for (u, w) in graph.edges_of(v) {
                let ui = u as usize;
                if locked[ui] {
                    continue;
                }
                if bisection.side[ui] == to {
                    gain[ui] -= 2 * w as Gain;
                    ext[ui] -= 1;
                } else {
                    gain[ui] += 2 * w as Gain;
                    ext[ui] += 1;
                }
                if queue.contains(u) {
                    queue.update_gain(u, gain[ui]);
                } else if ext[ui] > 0 {
                    queue.insert(u, gain[ui]);
                }
            }
        }
        debug_assert!(queue.is_empty());

        // Roll back every move after the best prefix.
        for &v in moves.iter().skip(best_prefix).rev() {
            bisection.side[v as usize] ^= 1;
        }
        if best_prefix == 0 {
            // No improvement this pass; stop.
            break;
        }
        bisection.cut = best_cut;
        bisection.weight0 = best_w.0;
        bisection.weight1 = best_w.1;
    }
    // Defensive recomputation keeps the struct internally consistent even if
    // incremental bookkeeping ever drifts.
    let fresh = Bisection::from_sides(graph, bisection.side.clone());
    debug_assert_eq!(
        fresh.cut, bisection.cut,
        "incremental cut bookkeeping diverged"
    );
    *bisection = fresh;
    initial_cut - bisection.cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial::greedy_graph_growing;
    use crate::test_graphs::{oracle_graph, KINDS};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tie_graph::generators;

    /// Gain of moving `v` to the other side: external minus internal connectivity.
    fn move_gain(graph: &Graph, side: &[u8], v: NodeId) -> Gain {
        let sv = side[v as usize];
        let mut gain: Gain = 0;
        for (u, w) in graph.edges_of(v) {
            if side[u as usize] == sv {
                gain -= w as Gain;
            } else {
                gain += w as Gain;
            }
        }
        gain
    }

    /// True if `v` has at least one neighbour on the other side.
    fn is_boundary(graph: &Graph, side: &[u8], v: NodeId) -> bool {
        let sv = side[v as usize];
        graph.neighbors(v).iter().any(|&u| side[u as usize] != sv)
    }

    /// FM with gains recomputed from scratch: after a move it rescans the
    /// adjacency of every neighbour, and a pass ends once `stall_moves`
    /// moves have followed its best cut (`usize::MAX` runs every pass to an
    /// empty queue). At `FM_STALL_MOVES` it is the oracle the incremental
    /// kernel must reproduce move for move.
    fn refine_bisection_reference(
        graph: &Graph,
        bisection: &mut Bisection,
        target0: Weight,
        target1: Weight,
        eps: f64,
        max_passes: usize,
        stall_moves: usize,
    ) -> Weight {
        let n = graph.num_vertices();
        if n == 0 {
            return 0;
        }
        let max0 = max_weight(target0, eps);
        let max1 = max_weight(target1, eps);
        let max_gain = graph
            .vertices()
            .map(|v| graph.weighted_degree(v))
            .max()
            .unwrap_or(1) as Gain;
        let initial_cut = bisection.cut;

        for _ in 0..max_passes {
            let mut queue = BucketQueue::new(n, max_gain);
            let mut locked = vec![false; n];
            for v in graph.vertices() {
                if is_boundary(graph, &bisection.side, v) {
                    queue.insert(v, move_gain(graph, &bisection.side, v));
                }
            }

            let mut moves: Vec<NodeId> = Vec::new();
            let mut best_cut = bisection.cut;
            let mut best_prefix = 0usize;
            let mut cur_cut = bisection.cut;
            let (mut w0, mut w1) = (bisection.weight0, bisection.weight1);
            let mut best_w = (w0, w1);

            while let Some((v, _)) = queue.pop_max() {
                if locked[v as usize] {
                    continue;
                }
                let vw = graph.vertex_weight(v);
                let from0 = bisection.side[v as usize] == 0;
                // Feasibility of the move w.r.t. the balance bound.
                let feasible = if from0 {
                    w1 + vw <= max1
                } else {
                    w0 + vw <= max0
                };
                if !feasible {
                    continue; // dropped; it may re-enter in a later pass
                }
                // Apply the move. The bucket gain may be stale due to clamping,
                // so recompute the exact gain for the cut bookkeeping.
                let exact_gain = move_gain(graph, &bisection.side, v);
                bisection.side[v as usize] ^= 1;
                locked[v as usize] = true;
                if from0 {
                    w0 -= vw;
                    w1 += vw;
                } else {
                    w1 -= vw;
                    w0 += vw;
                }
                cur_cut = (cur_cut as i64 - exact_gain) as Weight;
                moves.push(v);
                if cur_cut < best_cut {
                    best_cut = cur_cut;
                    best_prefix = moves.len();
                    best_w = (w0, w1);
                }
                if moves.len() - best_prefix >= stall_moves {
                    break;
                }
                // Update neighbour gains.
                for &u in graph.neighbors(v) {
                    if locked[u as usize] {
                        continue;
                    }
                    let g = move_gain(graph, &bisection.side, u);
                    if queue.contains(u) {
                        queue.update_gain(u, g);
                    } else if is_boundary(graph, &bisection.side, u) {
                        queue.insert(u, g);
                    }
                }
            }

            // Roll back every move after the best prefix.
            for &v in moves.iter().skip(best_prefix).rev() {
                bisection.side[v as usize] ^= 1;
            }
            if best_prefix == 0 {
                // No improvement this pass; stop.
                break;
            }
            bisection.cut = best_cut;
            bisection.weight0 = best_w.0;
            bisection.weight1 = best_w.1;
        }
        // Defensive recomputation keeps the struct internally consistent even if
        // incremental bookkeeping ever drifts.
        let fresh = Bisection::from_sides(graph, bisection.side.clone());
        debug_assert_eq!(
            fresh.cut, bisection.cut,
            "incremental cut bookkeeping diverged"
        );
        *bisection = fresh;
        initial_cut - bisection.cut
    }

    #[test]
    fn refinement_never_worsens_cut() {
        let g = generators::barabasi_albert(300, 3, 1);
        let total = g.total_vertex_weight();
        let t0 = total / 2;
        let t1 = total - t0;
        let mut b = greedy_graph_growing(&g, t0, 0.03, 4, 2);
        let before = b.cut;
        let improvement = refine_bisection(&g, &mut b, t0, t1, 0.03, 8);
        assert!(b.cut <= before);
        assert_eq!(before - b.cut, improvement);
    }

    #[test]
    fn refinement_respects_balance() {
        let g = generators::grid2d(10, 10);
        let total = g.total_vertex_weight();
        let (t0, t1) = (total / 2, total - total / 2);
        let mut b = greedy_graph_growing(&g, t0, 0.03, 4, 5);
        refine_bisection(&g, &mut b, t0, t1, 0.03, 8);
        assert!(b.weight0 <= max_weight(t0, 0.03));
        assert!(b.weight1 <= max_weight(t1, 0.03));
    }

    #[test]
    fn fm_strongly_improves_interleaved_cliques() {
        // Two 10-cliques joined by a single edge: optimal cut is 1. Start from
        // a deliberately bad, interleaved split; FM must improve the cut by a
        // large margin while staying balanced (a 10 % slack lets single-vertex
        // moves breathe).
        let mut builder = tie_graph::GraphBuilder::new(20);
        for a in 0..10u32 {
            for b in (a + 1)..10 {
                builder.add_edge(a, b, 1);
                builder.add_edge(a + 10, b + 10, 1);
            }
        }
        builder.add_edge(0, 10, 1);
        let g = builder.build();
        let side: Vec<u8> = (0..20).map(|v| (v % 2) as u8).collect();
        let mut b = Bisection::from_sides(&g, side);
        let before = b.cut;
        assert!(before > 40);
        refine_bisection(&g, &mut b, 10, 10, 0.1, 20);
        assert!(
            b.cut <= before / 2,
            "cut {} should be far below {}",
            b.cut,
            before
        );
        assert!(b.weight0 >= 9 && b.weight0 <= 11);
    }

    #[test]
    fn fm_cannot_empty_a_side() {
        // A path of 3 vertices with target weights 1 and 2: FM must not move
        // the single side-0 vertex away (that would leave side 0 empty and
        // overload side 1 beyond its floor-based bound).
        let g = generators::path_graph(3);
        let mut b = Bisection::from_sides(&g, vec![0, 1, 1]);
        refine_bisection(&g, &mut b, 1, 2, 0.03, 5);
        assert!(b.weight0 >= 1, "side 0 must not be emptied");
        assert!(b.weight1 >= 1);
    }

    #[test]
    fn gain_computation_matches_definition() {
        let g = generators::path_graph(4);
        let side = vec![0u8, 0, 1, 1];
        // Vertex 1: neighbour 0 same side (-1), neighbour 2 other side (+1) -> 0.
        assert_eq!(move_gain(&g, &side, 1), 0);
        // Vertex 0: neighbour 1 same side -> -1.
        assert_eq!(move_gain(&g, &side, 0), -1);
        assert!(is_boundary(&g, &side, 1));
        assert!(!is_boundary(&g, &side, 0));
    }

    #[test]
    fn refinement_on_empty_graph_is_noop() {
        let g = Graph::from_edges(0, &[]);
        let mut b = Bisection::from_sides(&g, vec![]);
        assert_eq!(refine_bisection(&g, &mut b, 0, 0, 0.03, 3), 0);
    }

    #[test]
    fn stall_limit_fires_at_exactly_fm_stall_moves() {
        // Weighted oracle graphs refined from a random half split, by the
        // kernel and by the reference at another limit:
        // - G(n, m), 1,600 vertices: one more move would have let a pass
        //   reach a better cut, which the unlimited reference keeps, so the
        //   limit changes the outcome;
        // - two components and isolated vertices, 1,000 vertices: the
        //   200th move after a pass's best cut is itself a new best, so it
        //   is booked before the limit is checked.
        let cases = [
            (0, 1600, 189, usize::MAX, (137, 105)),
            (0, 1600, 189, FM_STALL_MOVES + 1, (137, 105)),
            (3, 1000, 26, FM_STALL_MOVES - 1, (166, 4607)),
        ];
        for (kind, n, seed, other_limit, cuts) in cases {
            let g = oracle_graph(kind, n, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let side: Vec<u8> = g
                .vertices()
                .map(|_| u8::from(rng.gen_range(0..2u32) == 1))
                .collect();
            let total = g.total_vertex_weight();
            let (t0, t1) = (total / 2, total - total / 2);
            let mut fast = Bisection::from_sides(&g, side);
            let mut limited = fast.clone();
            let mut other = fast.clone();
            let gained = refine_bisection(&g, &mut fast, t0, t1, 0.03, 6);
            let expected =
                refine_bisection_reference(&g, &mut limited, t0, t1, 0.03, 6, FM_STALL_MOVES);
            refine_bisection_reference(&g, &mut other, t0, t1, 0.03, 6, other_limit);
            assert_eq!(gained, expected);
            assert_eq!(fast, limited);
            assert_eq!(
                (fast.cut, other.cut),
                cuts,
                "kind {kind}, limit {other_limit}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The incremental kernel equals the recomputing reference with the
        /// same stall limit on sides, cut, side weights and the returned
        /// improvement, from random starting sides with random targets, ε
        /// and pass limits. Up to 1,200 vertices, so passes run past the
        /// limit.
        #[test]
        fn incremental_fm_matches_reference(
            kind in 0..KINDS,
            n in 2..1200usize,
            seed in 0..100_000u64,
            side1_tenths in 0..=10u32,
            target_permille in 0..=1000u64,
            eps_permille in 0..=150u32,
            max_passes in 1..=8usize,
        ) {
            let g = oracle_graph(kind, n, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let side: Vec<u8> = g
                .vertices()
                .map(|_| u8::from(rng.gen_range(0..10u32) < side1_tenths))
                .collect();
            let total = g.total_vertex_weight();
            let target0 = total * target_permille / 1000;
            let target1 = total - target0;
            let eps = f64::from(eps_permille) / 1000.0;
            let mut fast = Bisection::from_sides(&g, side);
            let mut slow = fast.clone();
            let gained = refine_bisection(&g, &mut fast, target0, target1, eps, max_passes);
            let expected = refine_bisection_reference(
                &g, &mut slow, target0, target1, eps, max_passes, FM_STALL_MOVES,
            );
            prop_assert_eq!(gained, expected);
            prop_assert_eq!(fast, slow);
        }
    }
}
