//! Illustrates Figure 2 of the paper: two opposite hierarchies of the
//! 4-dimensional hypercube induced by permutations of the label digits, plus
//! the partial-cube labelling of Figure 3's style for a small grid.
//!
//! Run with: `cargo run --release --example hierarchies`

use std::collections::BTreeSet;

use tie_topology::label::{bit, format_label};
use tie_topology::{recognize_partial_cube, Topology};

fn main() {
    // Figure 2: hierarchies of the 4-D hypercube.
    let hq = Topology::hypercube(4);
    let labeling = recognize_partial_cube(&hq.graph).expect("hypercubes are partial cubes");
    println!(
        "4-dimensional hypercube: {} PEs, {} label digits\n",
        hq.num_pes(),
        labeling.dim
    );

    for (name, perm) in [
        (
            "pi = (1,2,3,4)  (identity)",
            (0..labeling.dim).rev().collect::<Vec<_>>(),
        ),
        (
            "pi = (4,3,2,1)  (opposite)",
            (0..labeling.dim).collect::<Vec<_>>(),
        ),
    ] {
        // Level i groups the PEs by the first i permuted label digits, so
        // its blocks are the distinct i-digit prefixes.
        println!("hierarchy {name}");
        for level in 0..=labeling.dim {
            let prefixes: BTreeSet<u64> = labeling
                .labels
                .iter()
                .map(|&l| {
                    perm[..level]
                        .iter()
                        .fold(0, |key, &d| (key << 1) | bit(l, d))
                })
                .collect();
            println!("  level {level}: {} block(s)", prefixes.len());
        }
        println!();
    }

    // Figure 3 style: labels of a small grid, distance = Hamming distance.
    let grid = Topology::grid2d(3, 2);
    let gl = recognize_partial_cube(&grid.graph).unwrap();
    println!("3x2 grid labels (distance in the grid = Hamming distance between labels):");
    for pe in grid.graph.vertices() {
        println!("  PE {pe}: {}", format_label(gl.label(pe), gl.dim));
    }
    let d = tie_graph::traversal::all_pairs_distances(&grid.graph);
    for u in grid.graph.vertices() {
        for v in grid.graph.vertices() {
            assert_eq!(gl.distance(u, v), d.get(u, v));
        }
    }
    println!("\nverified: Hamming distance equals graph distance for all PE pairs.");
}
