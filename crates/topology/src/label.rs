//! Bitvector labels.
//!
//! Labels are stored as the low `dim` bits of a `u64`. This covers every
//! configuration in the paper: the largest processor graph (a 16×16 torus)
//! has 32 Djoković classes, and the extension bits needed to make
//! application-graph labels unique add `ceil(log2(max block size))` more —
//! comfortably below 64 for realistic block sizes. The recognizer rejects
//! topologies whose isometric dimension exceeds 64.

/// A bitvector label, stored in the low bits of a `u64`.
pub type Label = u64;

/// Hamming distance between two labels (number of differing bits).
#[inline]
pub fn hamming(a: Label, b: Label) -> u32 {
    (a ^ b).count_ones()
}

/// Returns bit `i` (0 = least significant) of `label` as 0 or 1.
#[inline]
pub fn bit(label: Label, i: usize) -> u64 {
    (label >> i) & 1
}

/// Permutes the low `dim` bits of `label`: bit `i` of the result is bit
/// `perm[i]` of the input. `perm` must be a permutation of `0..dim`.
///
/// The paper permutes label *digits* to generate diverse hierarchies
/// (Section 6); this is the corresponding bit-level operation.
///
/// # Panics
/// Panics if `perm.len() != dim` — in all build profiles. A wrong-length
/// permutation would silently drop or duplicate label digits, corrupting
/// every mapping derived from the labels downstream, so this is a hard
/// error rather than a debug-only assertion.
pub fn permute_label_bits(label: Label, perm: &[usize], dim: usize) -> Label {
    assert_eq!(
        perm.len(),
        dim,
        "digit permutation has length {} but the labels have {} digits",
        perm.len(),
        dim
    );
    let mut out = 0u64;
    for (i, &src) in perm.iter().enumerate() {
        debug_assert!(src < dim, "permutation entry {src} out of range 0..{dim}");
        out |= bit(label, src) << i;
    }
    out
}

/// Inverts a permutation of `0..n`.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Renders the low `dim` bits of `label` most-significant-bit first, matching
/// the paper's figures (e.g. `0110`).
pub fn format_label(label: Label, dim: usize) -> String {
    (0..dim)
        .rev()
        .map(|i| if bit(label, i) == 1 { '1' } else { '0' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_basic() {
        assert_eq!(hamming(0b1010, 0b1010), 0);
        assert_eq!(hamming(0b1010, 0b0101), 4);
        assert_eq!(hamming(0, u64::MAX), 64);
        assert_eq!(hamming(0b100, 0b101), 1);
    }

    #[test]
    fn bit_get_set() {
        let l = 0b1010u64;
        assert_eq!(bit(l, 0), 0);
        assert_eq!(bit(l, 1), 1);
    }

    #[test]
    fn permutation_identity_and_reverse() {
        let l = 0b1100u64;
        let id: Vec<usize> = (0..4).collect();
        assert_eq!(permute_label_bits(l, &id, 4), l);
        let rev: Vec<usize> = (0..4).rev().collect();
        assert_eq!(permute_label_bits(l, &rev, 4), 0b0011);
    }

    #[test]
    fn permutation_roundtrip_via_inverse() {
        let perm = vec![2usize, 0, 3, 1];
        let inv = invert_permutation(&perm);
        for label in 0..16u64 {
            let p = permute_label_bits(label, &perm, 4);
            let back = permute_label_bits(p, &inv, 4);
            assert_eq!(back, label);
        }
    }

    #[test]
    fn permutation_preserves_hamming() {
        let perm = vec![3usize, 1, 4, 0, 2];
        for a in 0..32u64 {
            for b in 0..32u64 {
                let pa = permute_label_bits(a, &perm, 5);
                let pb = permute_label_bits(b, &perm, 5);
                assert_eq!(hamming(a, b), hamming(pa, pb));
            }
        }
    }

    #[test]
    #[should_panic(expected = "digit permutation has length")]
    fn wrong_length_permutation_is_rejected_in_all_profiles() {
        // A short permutation must never silently mis-permute digits.
        let _ = permute_label_bits(0b1010, &[1, 0], 4);
    }

    #[test]
    fn format_label_matches_paper_style() {
        assert_eq!(format_label(0b0110, 4), "0110");
        assert_eq!(format_label(1, 3), "001");
        assert_eq!(format_label(0, 2), "00");
    }
}
