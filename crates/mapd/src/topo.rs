//! Topology descriptor parsing: the textual names requests and CLI flags
//! use (`grid16x16`, `torus4x4x4`, `hypercube6`, `tree127`, `path64`),
//! resolved to concrete [`Topology`] instances. The canonical
//! `Topology::name` the builders generate is what keys the per-topology
//! cache, so two spellings of the same topology (`GRID4x4`, `grid4x4`)
//! share one cache entry.

use tie_topology::Topology;

/// Parses a topology descriptor. A descriptor asking for no PEs, or for
/// more than 2^20 (the bound [`Topology::hypercube`] asserts), is refused
/// before any builder allocates for it.
///
/// # Errors
/// A one-line message naming the offending descriptor.
pub fn parse_topology(spec: &str) -> Result<Topology, String> {
    let lower = spec.to_lowercase();
    let dims = |s: &str| -> Vec<usize> { s.split('x').filter_map(|t| t.parse().ok()).collect() };
    if let Some(rest) = lower.strip_prefix("grid") {
        let d = dims(rest);
        check_pe_count(spec, &d)?;
        return match d.len() {
            2 => Ok(Topology::grid2d(d[0], d[1])),
            3 => Ok(Topology::grid3d(d[0], d[1], d[2])),
            _ => Err(format!("grid topology needs 2 or 3 extents, got {spec:?}")),
        };
    }
    if let Some(rest) = lower.strip_prefix("torus") {
        let d = dims(rest);
        check_pe_count(spec, &d)?;
        return match d.len() {
            2 => Ok(Topology::torus2d(d[0], d[1])),
            3 => Ok(Topology::torus3d(d[0], d[1], d[2])),
            _ => Err(format!("torus topology needs 2 or 3 extents, got {spec:?}")),
        };
    }
    if let Some(rest) = lower.strip_prefix("hypercube") {
        let d: usize = rest
            .parse()
            .map_err(|_| format!("hypercube needs a dimension, got {rest:?}"))?;
        // 2^d PEs.
        if d > 20 {
            return Err(pe_count_error(spec));
        }
        return Ok(Topology::hypercube(d));
    }
    if let Some(rest) = lower.strip_prefix("tree") {
        let n = rest
            .parse()
            .map_err(|_| format!("tree needs a vertex count, got {rest:?}"))?;
        check_pe_count(spec, &[n])?;
        return Ok(Topology::binary_tree(n));
    }
    if let Some(rest) = lower.strip_prefix("path") {
        let n = rest
            .parse()
            .map_err(|_| format!("path needs a vertex count, got {rest:?}"))?;
        check_pe_count(spec, &[n])?;
        return Ok(Topology::path(n));
    }
    Err(format!("unknown topology {spec:?}"))
}

/// Refuses `extents` whose product, the PE count, is 0, overflows or
/// exceeds 2^20.
fn check_pe_count(spec: &str, extents: &[usize]) -> Result<(), String> {
    match extents
        .iter()
        .try_fold(1usize, |pes, &e| pes.checked_mul(e))
    {
        Some(pes) if (1..=1 << 20).contains(&pes) => Ok(()),
        _ => Err(pe_count_error(spec)),
    }
}

fn pe_count_error(spec: &str) -> String {
    format!("topology {spec:?} must have between 1 and 2^20 PEs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_supported_families() {
        assert_eq!(parse_topology("grid4x4").unwrap().num_pes(), 16);
        assert_eq!(parse_topology("grid2x2x2").unwrap().num_pes(), 8);
        assert_eq!(parse_topology("torus4x4").unwrap().num_pes(), 16);
        assert_eq!(parse_topology("hypercube3").unwrap().num_pes(), 8);
        assert_eq!(parse_topology("path5").unwrap().num_pes(), 5);
        assert!(parse_topology("tree7").is_ok());
    }

    #[test]
    fn spellings_share_one_canonical_name() {
        let a = parse_topology("GRID4x4").unwrap();
        let b = parse_topology("grid4x4").unwrap();
        assert_eq!(a.name, b.name);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse_topology("klein4").is_err());
        assert!(parse_topology("grid4").is_err());
        assert!(parse_topology("hypercubeX").is_err());
    }

    #[test]
    fn rejects_pe_counts_outside_1_to_2_pow_20_before_building() {
        // path1099511627776 aborted the process on an allocation,
        // hypercube21 panicked in its builder, and a topology without PEs
        // panicked in the partitioner; the others cross the bound or
        // overflow.
        for spec in [
            "path1099511627776",
            "hypercube21",
            "grid0x4",
            "path0",
            "tree1048577",
            "grid1024x1025",
            "torus4294967296x4294967296",
            "grid2x65536x65536",
        ] {
            let err = parse_topology(spec).unwrap_err();
            assert!(err.contains("between 1 and 2^20 PEs"), "{spec}: {err}");
        }
        // The bound itself is allowed.
        assert!(check_pe_count("grid1024x1024", &[1024, 1024]).is_ok());
        assert!(check_pe_count("path1048576", &[1 << 20]).is_ok());
    }
}
