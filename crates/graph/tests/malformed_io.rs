//! Malformed-input corpus for the graph readers: every entry must produce a
//! **typed** `IoError` — never a panic, never an abort, never an unbounded
//! allocation. Run in release as part of the CI chaos job, where an OOM or
//! index panic would slip past debug-only checks.

use tie_fault::{FaultHandle, FaultPlan};
use tie_graph::generators;
use tie_graph::io::{
    from_edge_list_str, from_metis_bytes, from_metis_str, read_edge_list_with, read_metis,
    read_metis_with, to_metis_string, IoError,
};

/// The corpus: (name, content) pairs that exercise every rejection path of
/// the METIS parser. Each must fail with `IoError::Parse`.
fn metis_corpus() -> Vec<(&'static str, String)> {
    vec![
        ("empty file", String::new()),
        (
            "comment-only file",
            "% nothing here\n% still nothing\n".to_string(),
        ),
        ("header with one field", "42\n".to_string()),
        ("non-numeric vertex count", "many 3\n".to_string()),
        ("non-numeric edge count", "3 lots\n".to_string()),
        ("negative vertex count", "-5 2\n".to_string()),
        // Overflowing counts: headers promising more data than the file can
        // possibly hold must be rejected before any allocation is sized.
        (
            "overflowing vertex count",
            "18446744073709551615 1\n1 2\n".to_string(),
        ),
        (
            "huge vertex count, tiny file",
            "999999999 1\n2\n1\n".to_string(),
        ),
        (
            "huge edge count, tiny file",
            "2 999999999\n2\n1\n".to_string(),
        ),
        // Truncations.
        (
            "truncated: too few vertex lines",
            "3 2\n2 3\n1\n".to_string(),
        ),
        (
            "truncated mid-adjacency (edge count off)",
            "3 3\n2 3\n1\n1\n".to_string(),
        ),
        ("extra vertex lines", "2 1\n2\n1\n1\n".to_string()),
        // Body-level corruption.
        ("neighbour id zero (1-based ids)", "2 1\n0\n1\n".to_string()),
        ("neighbour id out of range", "2 1\n5\n1\n".to_string()),
        ("self-loop", "2 1\n1\n1\n".to_string()),
        ("non-numeric neighbour", "2 1\ntwo\n1\n".to_string()),
        ("bad edge weight", "2 1 1\n2 heavy\n1 heavy\n".to_string()),
        ("missing edge weight", "2 1 1\n2\n1 1\n".to_string()),
        ("bad vertex weight", "2 1 10\nheavy 2\n1 1\n".to_string()),
        ("missing vertex weight", "2 1 10\n\n1 1\n".to_string()),
        (
            "edge count disagrees with adjacency",
            "3 1\n2 3\n1 3\n1 2\n".to_string(),
        ),
        // Adjacency lines that disagree: each edge is read from the line of
        // its lower endpoint, so both lines must list it.
        (
            "one-sided neighbour (the higher line omits it)",
            "3 2\n2\n1 3\n\n".to_string(),
        ),
        (
            "one-sided neighbour (the lower line omits it)",
            "3 0\n\n1\n\n".to_string(),
        ),
        ("mismatched edge weight", "2 1 1\n2 5\n1 7\n".to_string()),
    ]
}

#[test]
fn malformed_metis_corpus_yields_typed_errors() {
    for (name, content) in metis_corpus() {
        match from_metis_str(&content) {
            Err(IoError::Parse(msg)) => {
                assert!(!msg.is_empty(), "{name}: error message must not be empty");
            }
            Err(other) => panic!("{name}: expected IoError::Parse, got {other:?}"),
            Ok(g) => panic!(
                "{name}: malformed input parsed into a {}-vertex graph",
                g.num_vertices()
            ),
        }
    }
}

#[test]
fn disagreeing_adjacency_lines_are_refused_naming_the_line() {
    for (content, message) in [
        // Line 2 gives edge {1, 2} weight 5 and line 3 weight 7; line 3 also
        // lists vertex 3, whose own line (line 4) lists nothing.
        (
            "3 2 1\n2 5\n1 7 3 1\n\n",
            "line 3: the edge between vertices 2 and 1 has weight 7 on this line but weight 5 on line 2",
        ),
        (
            "3 2 1\n2 5\n1 5 3 1\n\n",
            "line 4: the edge between vertices 3 and 2 has no entry on this line but weight 1 on line 3",
        ),
        // A line listing a lower neighbour whose line does not list it back,
        // alone and before a neighbour both lines list.
        (
            "3 0\n\n1\n\n",
            "line 3: the edge between vertices 2 and 1 has weight 1 on this line but no entry on line 2",
        ),
        (
            "3 2\n2\n1 3\n1 2\n",
            "line 4: the edge between vertices 3 and 1 has weight 1 on this line but no entry on line 2",
        ),
        // Repeated entries are merged on both sides before they are compared.
        (
            "2 1 1\n2 2 2 3\n1 4\n",
            "line 3: the edge between vertices 2 and 1 has weight 4 on this line but weight 5 on line 2",
        ),
    ] {
        assert_eq!(from_metis_str(content).unwrap_err().to_string(), format!("parse error: {message}"));
    }
    let merged = from_metis_str("2 1 1\n2 2 2 3\n1 5\n").unwrap();
    assert_eq!(merged.edge_weight(0, 1), Some(5));
}

#[test]
fn non_utf8_bytes_are_a_typed_error_naming_the_offset() {
    // Valid header, then a 0xFF byte at offset 4.
    let bytes: &[u8] = b"2 1\n\xff\n1\n";
    match from_metis_bytes(bytes) {
        Err(IoError::Parse(msg)) => {
            assert!(msg.contains("UTF-8"), "{msg}");
            assert!(msg.contains("offset 4"), "{msg}");
        }
        other => panic!("expected Parse error, got {other:?}"),
    }
    // A lone continuation byte at offset 0.
    assert!(matches!(
        from_metis_bytes(&[0x80, 0x80]),
        Err(IoError::Parse(_))
    ));
}

#[test]
fn malformed_edge_lists_yield_typed_errors() {
    for (name, content) in [
        ("endpoint out of range", "# 2 1\n0 7 1\n"),
        ("non-numeric endpoint", "# 2 1\nzero 1 1\n"),
        ("non-numeric weight", "# 2 1\n0 1 w\n"),
        ("single-token edge line", "# 2 1\n0\n"),
        ("huge vertex count, tiny file", "# 99999999 1\n0 1 1\n"),
    ] {
        match from_edge_list_str(content) {
            Err(IoError::Parse(msg)) => {
                assert!(!msg.is_empty(), "{name}: empty message");
            }
            Err(other) => panic!("{name}: expected IoError::Parse, got {other:?}"),
            Ok(_) => panic!("{name}: malformed edge list parsed successfully"),
        }
    }
}

#[test]
fn well_formed_round_trip_still_works() {
    // The corpus guards must not have broken the happy path: what the
    // writer emits, weights and hubs included, reads back unchanged.
    let g = generators::grid2d(4, 4);
    let text = to_metis_string(&g);
    let parsed = from_metis_str(&text).unwrap();
    assert_eq!(parsed.num_vertices(), g.num_vertices());
    assert_eq!(parsed.num_edges(), g.num_edges());
    let hubs = generators::randomize_edge_weights(&generators::barabasi_albert(300, 3, 5), 9, 4);
    assert_eq!(from_metis_str(&to_metis_string(&hubs)).unwrap(), hubs);
}

#[test]
fn missing_file_is_io_not_panic() {
    match read_metis("/nonexistent/definitely/not/here.metis") {
        Err(IoError::Io(_)) => {}
        other => panic!("expected IoError::Io, got {other:?}"),
    }
}

#[test]
fn injected_io_faults_surface_as_io_errors() {
    // Write a valid file, then arm one IO fault: the first read fails with
    // IoError::Io, the second (fault consumed) succeeds.
    let g = generators::grid2d(3, 3);
    let dir = std::env::temp_dir().join("tie_graph_chaos_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.metis");
    std::fs::write(&path, to_metis_string(&g)).unwrap();

    let faults = FaultHandle::new(FaultPlan::new().with_io_fault(1));
    match read_metis_with(&path, &faults) {
        Err(IoError::Io(e)) => assert!(e.to_string().contains("injected"), "{e}"),
        other => panic!("expected injected IoError::Io, got {other:?}"),
    }
    assert_eq!(faults.io_faults_fired(), 1);
    let parsed = read_metis_with(&path, &faults).unwrap();
    assert_eq!(parsed.num_vertices(), 9);

    // Same contract for the edge-list reader.
    let el_path = dir.join("grid.edges");
    std::fs::write(&el_path, tie_graph::io::to_edge_list_string(&g)).unwrap();
    let faults = FaultHandle::new(FaultPlan::new().with_io_fault(1));
    assert!(matches!(
        read_edge_list_with(&el_path, &faults),
        Err(IoError::Io(_))
    ));
    assert_eq!(
        read_edge_list_with(&el_path, &faults)
            .unwrap()
            .num_vertices(),
        9
    );

    std::fs::remove_dir_all(&dir).ok();
}
