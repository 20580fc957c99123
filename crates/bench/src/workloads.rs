//! Workload catalogue mirroring Table 1 of the paper.
//!
//! The paper benchmarks on 15 publicly known complex networks
//! (p2p-Gnutella, PGPgiantcompo, …, as-skitter) ranging from ~6 k to ~555 k
//! vertices. The raw data sets are not bundled here, so each network is
//! replaced by a seeded synthetic graph of the same structural family
//! (file-sharing/peer-to-peer → Erdős–Rényi-ish with skew, social/citation →
//! Barabási–Albert or R-MAT, router/AS topologies → heavy-tailed R-MAT,
//! collaboration → planted communities). Sizes are scaled down by a
//! configurable factor so the whole evaluation runs in minutes on one core,
//! while the *relative* behaviour of the mapping algorithms — which is what
//! Figures 5a–5d and Table 2 report — is preserved.

use tie_graph::traversal::largest_connected_component;
use tie_graph::{generators, Graph};

/// How large the synthetic stand-ins should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~0.5–2 k vertices per network: unit tests and smoke runs.
    Tiny,
    /// ~1.5–15 k vertices per network: `bench_paper`'s scale, the smallest
    /// at which every stand-in has more vertices than the 512-PE topologies
    /// have PEs.
    Small,
    /// ~8–30 k vertices per network: closer to the paper's smaller instances.
    Medium,
}

impl Scale {
    fn factor(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 4,
            Scale::Medium => 16,
        }
    }
}

/// The structural family a synthetic network is drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkFamily {
    /// Preferential attachment (citation / collaboration networks).
    PreferentialAttachment,
    /// Recursive-matrix graphs (web graphs, AS/router topologies).
    RMat,
    /// Small-world rewired lattice (email / interaction networks).
    SmallWorld,
    /// Dense communities plus sparse backbone (social networks).
    Communities,
}

/// Specification of one synthetic stand-in network.
#[derive(Clone, Debug)]
pub struct NetworkSpec {
    /// Name of the original network from Table 1.
    pub name: &'static str,
    /// Structural family of the synthetic replacement.
    pub family: NetworkFamily,
    /// Base vertex count at `Scale::Tiny` (multiplied by the scale factor).
    pub base_vertices: usize,
    /// Generator seed (fixed so all experiments are reproducible).
    pub seed: u64,
    /// Description of the original, copied from Table 1.
    pub description: &'static str,
}

impl NetworkSpec {
    /// Instantiates the synthetic network at the given scale. The largest
    /// connected component is returned (mirroring common practice for the
    /// real data sets) with unit edge weights.
    pub fn build(&self, scale: Scale) -> Graph {
        let n = self.base_vertices * scale.factor();
        let raw = match self.family {
            NetworkFamily::PreferentialAttachment => generators::barabasi_albert(n, 4, self.seed),
            NetworkFamily::RMat => {
                let scale_log = (n as f64).log2().ceil() as u32;
                generators::rmat(scale_log, 8, (0.57, 0.19, 0.19, 0.05), self.seed)
            }
            NetworkFamily::SmallWorld => generators::watts_strogatz(n, 6, 0.1, self.seed),
            NetworkFamily::Communities => {
                let communities = (n / 64).max(4);
                let community_size = (n / communities).max(2);
                // Aim for an average intra-community degree of ~10 plus a
                // random backbone of about n inter-community edges.
                let p_in = (10.0 / community_size as f64).min(0.9);
                generators::planted_partition(n, communities, p_in, n, self.seed)
            }
        };
        largest_connected_component(&raw).0
    }
}

/// The 15 networks of Table 1, with synthetic stand-ins.
pub fn paper_networks() -> Vec<NetworkSpec> {
    vec![
        NetworkSpec {
            name: "p2p-Gnutella",
            family: NetworkFamily::RMat,
            base_vertices: 400,
            seed: 101,
            description: "file-sharing network",
        },
        NetworkSpec {
            name: "PGPgiantcompo",
            family: NetworkFamily::Communities,
            base_vertices: 640,
            seed: 102,
            description: "largest connected component in network of PGP users",
        },
        NetworkSpec {
            name: "email-EuAll",
            family: NetworkFamily::SmallWorld,
            base_vertices: 1000,
            seed: 103,
            description: "network of connections via email",
        },
        NetworkSpec {
            name: "as-22july06",
            family: NetworkFamily::RMat,
            base_vertices: 1400,
            seed: 104,
            description: "network of internet routers",
        },
        NetworkSpec {
            name: "soc-Slashdot0902",
            family: NetworkFamily::PreferentialAttachment,
            base_vertices: 1700,
            seed: 105,
            description: "news network",
        },
        NetworkSpec {
            name: "loc-brightkite_edges",
            family: NetworkFamily::Communities,
            base_vertices: 2200,
            seed: 106,
            description: "location-based friendship network",
        },
        NetworkSpec {
            name: "loc-gowalla_edges",
            family: NetworkFamily::PreferentialAttachment,
            base_vertices: 2600,
            seed: 107,
            description: "location-based friendship network",
        },
        NetworkSpec {
            name: "citationCiteseer",
            family: NetworkFamily::PreferentialAttachment,
            base_vertices: 3000,
            seed: 108,
            description: "citation network",
        },
        NetworkSpec {
            name: "coAuthorsCiteseer",
            family: NetworkFamily::Communities,
            base_vertices: 2800,
            seed: 109,
            description: "citation network",
        },
        NetworkSpec {
            name: "wiki-Talk",
            family: NetworkFamily::RMat,
            base_vertices: 2900,
            seed: 110,
            description: "network of user interactions through edits",
        },
        NetworkSpec {
            name: "coAuthorsDBLP",
            family: NetworkFamily::Communities,
            base_vertices: 3100,
            seed: 111,
            description: "citation network",
        },
        NetworkSpec {
            name: "web-Google",
            family: NetworkFamily::RMat,
            base_vertices: 3400,
            seed: 112,
            description: "hyperlink network of web pages",
        },
        NetworkSpec {
            name: "coPapersCiteseer",
            family: NetworkFamily::PreferentialAttachment,
            base_vertices: 3600,
            seed: 113,
            description: "citation network",
        },
        NetworkSpec {
            name: "coPapersDBLP",
            family: NetworkFamily::PreferentialAttachment,
            base_vertices: 3800,
            seed: 114,
            description: "citation network",
        },
        NetworkSpec {
            name: "as-skitter",
            family: NetworkFamily::RMat,
            base_vertices: 4000,
            seed: 115,
            description: "network of internet service providers",
        },
    ]
}

/// A reduced selection (five structurally diverse networks) for quick runs
/// and integration tests.
pub fn quick_networks() -> Vec<NetworkSpec> {
    let all = paper_networks();
    [0usize, 2, 4, 8, 11]
        .iter()
        .map(|&i| all[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_graph::traversal::is_connected;

    #[test]
    fn catalogue_has_fifteen_networks_like_table1() {
        assert_eq!(paper_networks().len(), 15);
        let names: Vec<_> = paper_networks().iter().map(|s| s.name).collect();
        assert!(names.contains(&"as-skitter"));
        assert!(names.contains(&"PGPgiantcompo"));
    }

    #[test]
    fn networks_build_connected_and_nontrivial() {
        for spec in quick_networks() {
            let g = spec.build(Scale::Tiny);
            assert!(is_connected(&g), "{} must be connected", spec.name);
            assert!(
                g.num_vertices() >= 200,
                "{} too small: {}",
                spec.name,
                g.num_vertices()
            );
            assert!(
                g.num_edges() >= g.num_vertices(),
                "{} too sparse",
                spec.name
            );
        }
    }

    #[test]
    fn scale_controls_size() {
        let spec = &paper_networks()[4];
        let tiny = spec.build(Scale::Tiny);
        let small = spec.build(Scale::Small);
        assert!(small.num_vertices() > 2 * tiny.num_vertices());
    }

    #[test]
    fn builds_are_deterministic() {
        let spec = &paper_networks()[0];
        assert_eq!(spec.build(Scale::Tiny), spec.build(Scale::Tiny));
    }
}
