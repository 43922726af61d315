//! Per-axis bit layouts and the Gray-code mesh address function.
//!
//! A Gray-code embedding assigns each axis a contiguous bit field of the
//! cube address. We follow the paper's concatenation convention
//! `φ(x) = G(x₁)‖G(x₂)‖⋯‖G(x_k)`: axis 0 occupies the most significant
//! field, matching [`cubemesh_topology::Shape`]'s row-major node order.

use crate::code::{gray, gray_reflected};
use cubemesh_topology::{cube_dim, Shape};

/// Assignment of cube-address bit fields to mesh axes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AxisLayout {
    widths: Vec<u32>,
    /// Offset of each axis' field from the least significant bit.
    bit_offsets: Vec<u32>,
    total: u32,
}

impl AxisLayout {
    /// Layout with the minimal Gray-code widths `nᵢ = ⌈log₂ ℓᵢ⌉`.
    pub fn from_shape(shape: &Shape) -> Self {
        let widths: Vec<u32> = shape.dims().iter().map(|&d| cube_dim(d as u64)).collect();
        Self::with_widths(&widths)
    }

    /// Layout with explicit per-axis widths (used e.g. when an axis is given
    /// more room than minimal, as in Corollaries 4–5).
    ///
    /// # Panics
    /// Panics if the widths sum past 63 bits.
    pub fn with_widths(widths: &[u32]) -> Self {
        let total: u32 = widths.iter().sum();
        assert!(total <= 63, "cube address would exceed 63 bits");
        let mut bit_offsets = vec![0u32; widths.len()];
        let mut acc = 0;
        for i in (0..widths.len()).rev() {
            bit_offsets[i] = acc;
            acc += widths[i];
        }
        AxisLayout {
            widths: widths.to_vec(),
            bit_offsets,
            total,
        }
    }

    /// Total cube dimension `Σ nᵢ`.
    #[inline]
    pub fn total_dim(&self) -> u32 {
        self.total
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.widths.len()
    }

    /// Bit width of `axis`'s field.
    #[inline]
    pub fn width(&self, axis: usize) -> u32 {
        self.widths[axis]
    }

    /// Offset (from LSB) of `axis`'s field.
    #[inline]
    pub fn bit_offset(&self, axis: usize) -> u32 {
        self.bit_offsets[axis]
    }

    /// Assemble an address from per-axis field values.
    #[inline]
    pub fn assemble(&self, parts: &[u64]) -> u64 {
        debug_assert_eq!(parts.len(), self.rank());
        let mut addr = 0u64;
        for (i, &p) in parts.iter().enumerate() {
            debug_assert!(self.widths[i] == 64 || p < (1u64 << self.widths[i]));
            addr |= p << self.bit_offsets[i];
        }
        addr
    }

    /// Extract `axis`'s field value from an address.
    #[inline]
    pub fn extract(&self, addr: u64, axis: usize) -> u64 {
        (addr >> self.bit_offsets[axis]) & ((1u64 << self.widths[axis]) - 1)
    }
}

/// The Gray-code mesh address `G(x₁)‖G(x₂)‖⋯‖G(x_k)`.
#[inline]
pub fn gray_mesh_address(layout: &AxisLayout, coords: &[usize]) -> u64 {
    let mut addr = 0u64;
    for (i, &x) in coords.iter().enumerate() {
        addr |= gray(x as u64) << layout.bit_offset(i);
    }
    addr
}

/// The reflected Gray-code address `G̃(y₁,x₁)‖⋯‖G̃(y_k,x_k)` of §4.1:
/// axis `i` uses the forward code when `reflect[i]` is even and the
/// reflected code `G(2^{nᵢ}−1−xᵢ)` when odd.
///
/// Only meaningful for axes whose field width is ≥ 1; width-0 axes (length
/// 1) always contribute 0.
#[inline]
pub fn gray_mesh_address_reflected(
    layout: &AxisLayout,
    coords: &[usize],
    reflect: &[usize],
) -> u64 {
    debug_assert_eq!(coords.len(), reflect.len());
    let mut addr = 0u64;
    for (i, (&x, &r)) in coords.iter().zip(reflect).enumerate() {
        let w = layout.width(i);
        if w == 0 {
            continue;
        }
        let code = if r % 2 == 0 {
            gray(x as u64)
        } else {
            gray_reflected(x as u64, w)
        };
        addr |= code << layout.bit_offset(i);
    }
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_topology::hamming;

    #[test]
    fn layout_fields_are_disjoint_and_cover() {
        let layout = AxisLayout::with_widths(&[3, 0, 2, 4]);
        assert_eq!(layout.total_dim(), 9);
        assert_eq!(layout.bit_offset(0), 6);
        assert_eq!(layout.bit_offset(2), 4);
        assert_eq!(layout.bit_offset(3), 0);
        let addr = layout.assemble(&[0b101, 0, 0b11, 0b1001]);
        assert_eq!(layout.extract(addr, 0), 0b101);
        assert_eq!(layout.extract(addr, 2), 0b11);
        assert_eq!(layout.extract(addr, 3), 0b1001);
    }

    #[test]
    fn assemble_extract_roundtrip() {
        let layout = AxisLayout::with_widths(&[2, 3, 1]);
        for a in 0..4u64 {
            for b in 0..8u64 {
                for c in 0..2u64 {
                    let addr = layout.assemble(&[a, b, c]);
                    assert_eq!(layout.extract(addr, 0), a);
                    assert_eq!(layout.extract(addr, 1), b);
                    assert_eq!(layout.extract(addr, 2), c);
                }
            }
        }
    }

    #[test]
    fn gray_addresses_of_mesh_neighbors_differ_in_one_bit() {
        let shape = Shape::new(&[5, 3, 6]);
        let layout = AxisLayout::from_shape(&shape);
        assert_eq!(layout.total_dim(), 3 + 2 + 3);
        for c in shape.iter_coords() {
            let here = gray_mesh_address(&layout, &c);
            for axis in 0..3 {
                if c[axis] + 1 < shape.len(axis) {
                    let mut d = c.clone();
                    d[axis] += 1;
                    let there = gray_mesh_address(&layout, &d);
                    assert_eq!(hamming(here, there), 1);
                }
            }
        }
    }

    #[test]
    fn gray_addresses_are_injective() {
        let shape = Shape::new(&[5, 3, 6]);
        let layout = AxisLayout::from_shape(&shape);
        let mut seen = std::collections::HashSet::new();
        for c in shape.iter_coords() {
            assert!(seen.insert(gray_mesh_address(&layout, &c)));
        }
        assert_eq!(seen.len(), shape.nodes());
    }

    #[test]
    fn reflected_addresses_still_adjacent_within_instance() {
        let shape = Shape::new(&[4, 8]);
        let layout = AxisLayout::from_shape(&shape);
        for reflect in [[0usize, 0], [1, 0], [0, 1], [1, 1]] {
            for c in shape.iter_coords() {
                let here = gray_mesh_address_reflected(&layout, &c, &reflect);
                for axis in 0..2 {
                    if c[axis] + 1 < shape.len(axis) {
                        let mut d = c.clone();
                        d[axis] += 1;
                        let there = gray_mesh_address_reflected(&layout, &d, &reflect);
                        assert_eq!(hamming(here, there), 1);
                    }
                }
            }
        }
    }

    #[test]
    fn reflection_seam_property() {
        // Crossing from instance y (even) at x = ℓ−1 to instance y+1 (odd)
        // at x = ℓ−1… the reflected code of x = ℓ−1 equals the forward code
        // of x = ℓ−1 only in the sense needed by the seam: for full
        // power-of-two axes, G̃(odd, x) at x = 2ⁿ−1 equals G(2ⁿ−1−x) = G(0)…
        // The actual seam invariant used by Corollary 2 is that the M₁ part
        // of the address is unchanged across the seam; verify directly.
        let n = 3u32;
        let top = (1usize << n) - 1;
        let layout = AxisLayout::with_widths(&[n]);
        let even_end = gray_mesh_address_reflected(&layout, &[top], &[0]);
        let odd_start = gray_mesh_address_reflected(&layout, &[top], &[1]);
        // Same node of the axis instance; the two instances traverse the
        // axis in opposite directions, so instance y ends where instance
        // y+1 starts *in mesh coordinates*; their codes differ only by the
        // constant reflection relation.
        assert_eq!(odd_start, even_end ^ (1 << (n - 1)));
    }
}
