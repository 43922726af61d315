//! The arithmetic conditions of §6 (Lemmas 3–4, Corollary 3).

use cubemesh_topology::{ceil_pow2, Shape};

/// Lemma 3's minimality condition:
/// `⌈Π ℓᵢ⌉₂ = 2^k · ⌈Π ⌈ℓᵢ/2⌉⌉₂` — halving all axes keeps the cube
/// minimal. (Trivially true when every `ℓᵢ` is even.)
#[expect(
    clippy::cast_possible_truncation,
    reason = "a mesh rank is far below u32::MAX"
)]
pub fn lemma3_condition(shape: &Shape) -> bool {
    let k = shape.rank() as u32;
    let halves: u64 = shape.dims().iter().map(|&l| l.div_ceil(2) as u64).product();
    ceil_pow2(shape.nodes() as u64) == (1u64 << k) * ceil_pow2(halves)
}

/// Lemma 4's minimality condition:
/// `⌈Π ℓᵢ⌉₂ = 4^k · ⌈Π ⌈ℓᵢ/4⌉⌉₂`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a mesh rank is far below u32::MAX"
)]
pub fn lemma4_condition(shape: &Shape) -> bool {
    let k = shape.rank() as u32;
    let quarters: u64 = shape.dims().iter().map(|&l| l.div_ceil(4) as u64).product();
    ceil_pow2(shape.nodes() as u64) == (1u64 << (2 * k)) * ceil_pow2(quarters)
}

/// Corollary 3, first part: a 2-D wraparound mesh embeds in its minimal
/// cube with dilation ≤ 2 if the Lemma 4 condition holds or both axes are
/// even.
pub fn corollary3_dilation2(l1: usize, l2: usize) -> bool {
    let shape = Shape::new(&[l1, l2]);
    lemma4_condition(&shape) || (l1.is_multiple_of(2) && l2.is_multiple_of(2))
}

/// Corollary 3, second part: dilation ≤ 3 if the Lemma 3 condition holds.
pub fn corollary3_dilation3(l1: usize, l2: usize) -> bool {
    lemma3_condition(&Shape::new(&[l1, l2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_axes_satisfy_lemma3() {
        for (a, b) in [(4usize, 6usize), (2, 2), (10, 8), (6, 6)] {
            assert!(lemma3_condition(&Shape::new(&[a, b])), "{}x{}", a, b);
        }
    }

    #[test]
    fn lemma3_odd_cases() {
        // 5x5: ⌈25⌉₂ = 32; 4·⌈9⌉₂ = 64 — fails.
        assert!(!lemma3_condition(&Shape::new(&[5, 5])));
        // 7x9: ⌈63⌉₂ = 64; 4·⌈4·5⌉₂ = 128 — fails (the halves overflow).
        assert!(!lemma3_condition(&Shape::new(&[7, 9])));
        // 7x8: ⌈56⌉₂ = 64 = 4·⌈16⌉₂ — holds.
        assert!(lemma3_condition(&Shape::new(&[7, 8])));
        // 5x9: ⌈45⌉₂ = 64 = 4·⌈15⌉₂ — holds with an odd-odd pair.
        assert!(lemma3_condition(&Shape::new(&[5, 9])));
    }

    #[test]
    fn lemma4_cases() {
        // 8x8: ⌈64⌉₂ = 64 = 16·⌈4⌉₂ — holds.
        assert!(lemma4_condition(&Shape::new(&[8, 8])));
        // 7x9: 16·⌈2·3⌉₂ = 16·8 = 128 ≠ 64 — fails.
        assert!(!lemma4_condition(&Shape::new(&[7, 9])));
        // 7x9x5: ⌈315⌉₂ = 512; 64·⌈2·3·2⌉₂ = 64·16 — fails.
        assert!(!lemma4_condition(&Shape::new(&[7, 9, 5])));
    }

    #[test]
    fn corollary3_classes() {
        assert!(corollary3_dilation2(6, 10)); // both even
        assert!(corollary3_dilation2(8, 8)); // lemma 4
        assert!(!corollary3_dilation2(5, 5));
        assert!(corollary3_dilation3(7, 8)); // lemma 3
        assert!(!corollary3_dilation3(7, 9));
    }

    #[test]
    fn summary_formula_matches_section8() {
        // §8 restates Corollary 3 verbatim; spot-check a sweep agrees with
        // the two lemma conditions.
        for l1 in 1..=20usize {
            for l2 in 1..=20usize {
                let d2 = corollary3_dilation2(l1, l2);
                let shape = Shape::new(&[l1, l2]);
                assert_eq!(d2, lemma4_condition(&shape) || (l1 % 2 == 0 && l2 % 2 == 0));
            }
        }
    }
}
