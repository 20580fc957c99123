//! Control baseline: a random block-to-PE bijection.
//!
//! Not a serious mapping algorithm — it calibrates the other baselines (any
//! topology-aware method must beat a random bijection on Coco).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A uniformly random bijection `block -> PE`.
///
/// # Panics
/// Panics if `k > num_pes` (no bijection exists).
pub fn random_bijection(k: usize, num_pes: usize, seed: u64) -> Vec<u32> {
    assert!(k <= num_pes, "need at least as many PEs as blocks");
    let mut pes: Vec<u32> = (0..num_pes as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    pes.shuffle(&mut rng);
    pes.truncate(k);
    pes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapping;
    use tie_graph::generators;
    use tie_partition::PartitionConfig;

    #[test]
    fn random_bijection_is_injective_and_seeded() {
        let a = random_bijection(16, 64, 5);
        let b = random_bijection(16, 64, 5);
        let c = random_bijection(16, 64, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let unique: std::collections::HashSet<u32> = a.iter().copied().collect();
        assert_eq!(unique.len(), 16);
        assert!(a.iter().all(|&p| p < 64));
    }

    #[test]
    fn random_mapping_composes_with_partition() {
        let ga = generators::watts_strogatz(320, 4, 0.1, 2);
        let part = tie_partition::partition(&ga, &PartitionConfig::new(16, 3));
        let m = Mapping::from_partition(&part, &random_bijection(part.k(), 16, 9), 16);
        assert_eq!(m.num_tasks(), 320);
        assert!(m.is_balanced(0.1));
    }

    #[test]
    #[should_panic]
    fn random_bijection_rejects_too_few_pes() {
        let _ = random_bijection(10, 4, 0);
    }
}
