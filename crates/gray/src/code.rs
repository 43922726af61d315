//! The binary-reflected Gray code and its inverse.

/// The binary-reflected Gray code of `i`: `G(i) = i ⊕ (i >> 1)`.
///
/// `G` is a bijection on `n`-bit integers for every `n`, and consecutive
/// codes differ in exactly one bit — the property that makes Gray-code
/// embeddings dilation-one.
///
/// ```
/// use cubemesh_gray::gray;
/// assert_eq!(gray(0), 0b00);
/// assert_eq!(gray(1), 0b01);
/// assert_eq!(gray(2), 0b11);
/// assert_eq!(gray(3), 0b10);
/// ```
#[inline]
pub fn gray(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// Inverse of [`gray`]: recover `i` from `G(i)`.
///
/// Uses the prefix-XOR identity `i = g ⊕ (g>>1) ⊕ (g>>2) ⊕ ⋯`, computed in
/// `log` steps.
///
/// ```
/// use cubemesh_gray::{gray, gray_inverse};
/// for i in 0..1000u64 {
///     assert_eq!(gray_inverse(gray(i)), i);
/// }
/// ```
#[inline]
pub fn gray_inverse(mut g: u64) -> u64 {
    g ^= g >> 32;
    g ^= g >> 16;
    g ^= g >> 8;
    g ^= g >> 4;
    g ^= g >> 2;
    g ^= g >> 1;
    g
}

/// The reflected code `G(2ⁿ − 1 − x)` used for odd instances in the product
/// construction (the `G̃(y, x)` of §4.1 with `y` odd).
///
/// For the binary-reflected code this equals `G(x) ⊕ 2ⁿ⁻¹` (flip the top
/// bit), which is what makes the reflection cheap; this function computes it
/// from the definition and the identity is checked in tests.
///
/// # Panics
/// Panics if `n == 0` or `x ≥ 2ⁿ`.
#[inline]
pub fn gray_reflected(x: u64, n: u32) -> u64 {
    assert!((1..=63).contains(&n) && x < (1u64 << n));
    gray((1u64 << n) - 1 - x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_topology::hamming;
    use proptest::prelude::*;

    #[test]
    fn gray_is_bijective_on_small_ranges() {
        for n in 0..=10u32 {
            let len = 1u64 << n;
            let mut seen = vec![false; usize::try_from(len).unwrap()];
            for i in 0..len {
                let g = gray(i);
                assert!(g < len, "G keeps the bit width");
                assert!(!seen[usize::try_from(g).unwrap()]);
                seen[usize::try_from(g).unwrap()] = true;
            }
        }
    }

    #[test]
    fn consecutive_codes_differ_in_one_bit() {
        for i in 0..(1u64 << 12) {
            assert_eq!(hamming(gray(i), gray(i + 1)), 1);
        }
    }

    #[test]
    fn cyclic_closure() {
        // G(2ⁿ−1) and G(0) also differ in one bit: the code is a cycle.
        for n in 1..=16u32 {
            assert_eq!(hamming(gray((1u64 << n) - 1), gray(0)), 1);
        }
    }

    #[test]
    fn reflection_is_top_bit_flip() {
        for n in 1..=10u32 {
            for x in 0..(1u64 << n) {
                assert_eq!(gray_reflected(x, n), gray(x) ^ (1u64 << (n - 1)));
            }
        }
    }

    #[test]
    fn reflected_code_meets_forward_code_at_seam() {
        // In the product construction, an even instance ends at x = 2ⁿ−1 and
        // the next (odd, reflected) instance starts at x = 2ⁿ−1 with the
        // same intra-axis code; crossing the seam flips only the M2 part.
        for n in 1..=8u32 {
            let top = (1u64 << n) - 1;
            assert_eq!(gray(top), gray_reflected(top, n) ^ (1 << (n - 1)));
            // Seam node codes are equal in the low n−1 bits:
            assert_eq!(gray(top) & (top >> 1), gray_reflected(top, n) & (top >> 1));
        }
    }

    proptest! {
        #[test]
        fn inverse_roundtrip(i in any::<u64>()) {
            prop_assert_eq!(gray_inverse(gray(i)), i);
            prop_assert_eq!(gray(gray_inverse(i)), i);
        }

        #[test]
        fn adjacent_anywhere(i in 0u64..u64::MAX) {
            prop_assert_eq!(hamming(gray(i), gray(i + 1)), 1);
        }
    }
}
