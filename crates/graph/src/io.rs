//! Graph I/O: METIS graph format and plain edge lists.
//!
//! The METIS format is the de-facto exchange format of the partitioning
//! community (KaHIP, METIS, Scotch converters all read it), so supporting it
//! makes the reproduction usable with the paper's original inputs when those
//! are available locally.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use tie_fault::FaultHandle;

use crate::csr::{Graph, NodeId, Weight};
use crate::GraphBuilder;

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying file-system error.
    Io(io::Error),
    /// The file content violates the expected format.
    Parse(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Serializes a graph in METIS format.
///
/// The header line is `n m fmt` where `fmt` is `011` (vertex and edge
/// weights) — we always emit both weight kinds for simplicity. Vertex ids in
/// the body are 1-based per the format specification.
pub fn to_metis_string(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {} 011", graph.num_vertices(), graph.num_edges());
    for v in graph.vertices() {
        let mut line = String::new();
        let _ = write!(line, "{}", graph.vertex_weight(v));
        for (u, w) in graph.edges_of(v) {
            let _ = write!(line, " {} {}", u + 1, w);
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Writes a graph to `path` in METIS format.
pub fn write_metis<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), IoError> {
    fs::write(path, to_metis_string(graph))?;
    Ok(())
}

/// Parses a graph in METIS format from a string. Supports the `fmt` codes
/// `0`/`00`/`000` (no weights), `1`/`001` (edge weights), `10`/`010` (vertex
/// weights) and `11`/`011` (both). Comment lines start with `%`.
pub fn from_metis_str(content: &str) -> Result<Graph, IoError> {
    // Keep 1-based line numbers so parse errors can name the offending line;
    // '%' comment lines (possibly indented) are skipped everywhere.
    let mut lines = content
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim_start().starts_with('%'));
    let (_, header) = lines
        .next()
        .ok_or_else(|| IoError::Parse("empty METIS file".to_string()))?;
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 {
        return Err(IoError::Parse(format!("bad header line: {header:?}")));
    }
    let n: usize = head[0]
        .parse()
        .map_err(|_| IoError::Parse(format!("bad vertex count: {}", head[0])))?;
    let m: usize = head[1]
        .parse()
        .map_err(|_| IoError::Parse(format!("bad edge count: {}", head[1])))?;
    // OOM defense against overflowing header counts: a METIS file with `n`
    // vertices has at least `n` (possibly empty) body lines and an edge
    // needs at least two body bytes, so counts far beyond the file size are
    // certainly lies — reject them *before* sizing any allocation by them.
    if n > content.len() + 1 {
        return Err(IoError::Parse(format!(
            "header claims {n} vertices but the file is only {} bytes — \
             refusing to allocate for an impossible count",
            content.len()
        )));
    }
    if m > content.len() {
        return Err(IoError::Parse(format!(
            "header claims {m} edges but the file is only {} bytes — \
             refusing to allocate for an impossible count",
            content.len()
        )));
    }
    let fmt = if head.len() >= 3 { head[2] } else { "0" };
    let has_vwgt = fmt.len() >= 2 && fmt.as_bytes()[fmt.len() - 2] == b'1';
    let has_ewgt = !fmt.is_empty() && fmt.as_bytes()[fmt.len() - 1] == b'1';

    let mut builder = GraphBuilder::new(n);
    let mut vertex = 0usize;
    for (lineno, line) in lines {
        if vertex >= n {
            // Tolerate trailing whitespace-only lines after the last vertex.
            if line.trim().is_empty() {
                continue;
            }
            return Err(IoError::Parse(format!(
                "line {lineno}: unexpected content after all {n} vertex lines: {line:?}"
            )));
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let mut idx = 0usize;
        if has_vwgt {
            if tokens.is_empty() {
                return Err(IoError::Parse(format!(
                    "line {lineno}: vertex {} missing weight",
                    vertex + 1
                )));
            }
            let w: Weight = tokens[0].parse().map_err(|_| {
                IoError::Parse(format!("line {lineno}: bad vertex weight: {}", tokens[0]))
            })?;
            builder.set_vertex_weight(vertex as NodeId, w);
            idx = 1;
        }
        while idx < tokens.len() {
            let nb: usize = tokens[idx].parse().map_err(|_| {
                IoError::Parse(format!("line {lineno}: bad neighbour id: {}", tokens[idx]))
            })?;
            if nb == 0 {
                return Err(IoError::Parse(format!(
                    "line {lineno}: neighbour id 0 — METIS vertex ids are 1-based: {line:?}"
                )));
            }
            if nb > n {
                return Err(IoError::Parse(format!(
                    "line {lineno}: neighbour id {nb} out of range 1..={n}: {line:?}"
                )));
            }
            if nb == vertex + 1 {
                return Err(IoError::Parse(format!(
                    "line {lineno}: self-loop on vertex {nb}: {line:?}"
                )));
            }
            let w: Weight = if has_ewgt {
                idx += 1;
                if idx >= tokens.len() {
                    return Err(IoError::Parse(format!(
                        "line {lineno}: edge weight missing: {line:?}"
                    )));
                }
                tokens[idx].parse().map_err(|_| {
                    IoError::Parse(format!("line {lineno}: bad edge weight: {}", tokens[idx]))
                })?
            } else {
                1
            };
            let u = vertex as NodeId;
            let v = (nb - 1) as NodeId;
            // METIS lists each edge in both adjacency lines; add once.
            if u < v {
                builder.add_edge(u, v, w);
            }
            idx += 1;
        }
        vertex += 1;
    }
    if vertex != n {
        return Err(IoError::Parse(format!(
            "expected {n} vertex lines, found {vertex}"
        )));
    }
    let g = builder.build();
    if g.num_edges() != m {
        return Err(IoError::Parse(format!(
            "header promises {m} edges but adjacency lists define {}",
            g.num_edges()
        )));
    }
    Ok(g)
}

/// Parses a graph in METIS format from raw bytes, turning invalid UTF-8
/// into a typed [`IoError::Parse`] that names the first offending byte
/// offset (instead of the untyped `io::Error` a lossy `read_to_string`
/// would produce).
pub fn from_metis_bytes(bytes: &[u8]) -> Result<Graph, IoError> {
    let content = std::str::from_utf8(bytes).map_err(|e| {
        IoError::Parse(format!(
            "file is not valid UTF-8 (first invalid byte at offset {})",
            e.valid_up_to()
        ))
    })?;
    from_metis_str(content)
}

/// Reads a graph in METIS format from `path`.
pub fn read_metis<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    read_metis_with(path, &FaultHandle::off())
}

/// [`read_metis`] with a fault-injection handle: an armed IO fault surfaces
/// as `IoError::Io` exactly where a real file-system failure would. The
/// plain reader delegates here with a disabled handle.
pub fn read_metis_with<P: AsRef<Path>>(path: P, faults: &FaultHandle) -> Result<Graph, IoError> {
    if let Some(e) = faults.io_fault("read_metis") {
        return Err(IoError::Io(e));
    }
    from_metis_bytes(&fs::read(path)?)
}

/// Serializes a graph as a weighted edge list: one `u v w` triple per line,
/// 0-based vertex ids, preceded by a `# n m` header comment.
pub fn to_edge_list_string(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {} {}", graph.num_vertices(), graph.num_edges());
    for (u, v, w) in graph.edges() {
        let _ = writeln!(out, "{u} {v} {w}");
    }
    out
}

/// Parses a weighted edge list produced by [`to_edge_list_string`]. Lines
/// starting with `#` are comments except the first, which may carry the
/// vertex count; without it the vertex count is inferred from the ids.
pub fn from_edge_list_str(content: &str) -> Result<Graph, IoError> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(NodeId, NodeId, Weight)> = Vec::new();
    let mut max_id = 0 as NodeId;
    for line in content.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('#') {
            let tokens: Vec<&str> = trimmed.trim_start_matches('#').split_whitespace().collect();
            if n.is_none() && !tokens.is_empty() {
                if let Ok(parsed) = tokens[0].parse::<usize>() {
                    n = Some(parsed);
                }
            }
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        if tokens.len() < 2 {
            return Err(IoError::Parse(format!("bad edge line: {trimmed:?}")));
        }
        let u: NodeId = tokens[0]
            .parse()
            .map_err(|_| IoError::Parse(format!("bad vertex id: {}", tokens[0])))?;
        let v: NodeId = tokens[1]
            .parse()
            .map_err(|_| IoError::Parse(format!("bad vertex id: {}", tokens[1])))?;
        let w: Weight = if tokens.len() >= 3 {
            tokens[2]
                .parse()
                .map_err(|_| IoError::Parse(format!("bad edge weight: {}", tokens[2])))?
        } else {
            1
        };
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w));
    }
    let n = n.unwrap_or_else(|| {
        if edges.is_empty() {
            0
        } else {
            max_id as usize + 1
        }
    });
    // OOM defense for the declared header count. Unlike METIS, an edge-list
    // file legitimately omits isolated vertices, so the count may exceed the
    // line count — but a count beyond both the file size and a generous
    // 2^20-isolated-vertex allowance is certainly an overflow/typo.
    if n > content.len().max(1 << 20) {
        return Err(IoError::Parse(format!(
            "header claims {n} vertices for a {}-byte file — refusing to \
             allocate for an impossible count",
            content.len()
        )));
    }
    if (max_id as usize) >= n && !edges.is_empty() {
        return Err(IoError::Parse(format!(
            "vertex id {max_id} exceeds declared count {n}"
        )));
    }
    let mut builder = GraphBuilder::new(n);
    for (u, v, w) in edges {
        builder.add_edge(u, v, w);
    }
    Ok(builder.build())
}

/// Reads a weighted edge list from `path`.
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    read_edge_list_with(path, &FaultHandle::off())
}

/// [`read_edge_list`] with a fault-injection handle (see [`read_metis_with`]).
pub fn read_edge_list_with<P: AsRef<Path>>(
    path: P,
    faults: &FaultHandle,
) -> Result<Graph, IoError> {
    if let Some(e) = faults.io_fault("read_edge_list") {
        return Err(IoError::Io(e));
    }
    let bytes = fs::read(path)?;
    let content = std::str::from_utf8(&bytes).map_err(|e| {
        IoError::Parse(format!(
            "file is not valid UTF-8 (first invalid byte at offset {})",
            e.valid_up_to()
        ))
    })?;
    from_edge_list_str(content)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn metis_roundtrip_preserves_graph() {
        let g = generators::randomize_edge_weights(&generators::grid2d(5, 4), 9, 2);
        let s = to_metis_string(&g);
        let g2 = from_metis_str(&s).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn metis_unweighted_parse() {
        let content = "3 2\n2\n1 3\n2\n";
        let g = from_metis_str(content).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn metis_with_comments() {
        let content = "% a comment\n2 1 001\n2 5\n1 5\n";
        let g = from_metis_str(content).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(5));
    }

    #[test]
    fn metis_rejects_bad_neighbor() {
        let content = "2 1\n3\n1\n";
        assert!(from_metis_str(content).is_err());
    }

    #[test]
    fn metis_tolerates_interspersed_comments_and_trailing_whitespace() {
        // Comments between vertex lines, trailing spaces on body lines and
        // whitespace-only lines after the last vertex must all parse.
        let content =
            "% header comment\n3 2 001\n2 7  \n  % mid-body comment\n1 7 3 4\n2 4\n\n   \n";
        let g = from_metis_str(content).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(7));
        assert_eq!(g.edge_weight(1, 2), Some(4));
    }

    #[test]
    fn metis_rejects_self_loop_naming_line() {
        // Vertex 2's adjacency (line 3) lists vertex 2 itself.
        let content = "3 2\n2\n2 3\n2\n";
        let err = from_metis_str(content).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("self-loop"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn metis_rejects_zero_indexed_vertices_naming_line() {
        // METIS ids are 1-based; a 0 neighbour indicates a 0-indexed file.
        let content = "2 1\n0\n1\n";
        let err = from_metis_str(content).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("1-based"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn metis_rejects_trailing_garbage_naming_line() {
        let content = "2 1\n2\n1\nextra junk\n";
        let err = from_metis_str(content).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
    }

    #[test]
    fn metis_rejects_edge_count_mismatch() {
        let content = "3 5\n2\n1 3\n2\n";
        assert!(from_metis_str(content).is_err());
    }

    #[test]
    fn metis_rejects_empty() {
        assert!(from_metis_str("").is_err());
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::randomize_edge_weights(&generators::barabasi_albert(60, 2, 1), 5, 3);
        let s = to_edge_list_string(&g);
        let g2 = from_edge_list_str(&s).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_without_header_infers_size() {
        let g = from_edge_list_str("0 1\n1 2 4\n").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edge_weight(1, 2), Some(4));
        assert_eq!(g.edge_weight(0, 1), Some(1));
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(from_edge_list_str("hello world graph\n").is_err());
        assert!(from_edge_list_str("1\n").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let p1 = dir.join("tie_graph_io_test.metis");
        let p2 = dir.join("tie_graph_io_test.edges");
        let g = generators::watts_strogatz(40, 4, 0.2, 7);
        write_metis(&g, &p1).unwrap();
        std::fs::write(&p2, to_edge_list_string(&g)).unwrap();
        assert_eq!(read_metis(&p1).unwrap(), g);
        assert_eq!(read_edge_list(&p2).unwrap(), g);
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
    }
}
