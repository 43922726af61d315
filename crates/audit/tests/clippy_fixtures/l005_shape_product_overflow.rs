//! Known-bad: a product of shape extents narrowed to a small integer
//! (formerly CM-L005). Extent products grow multiplicatively; widen
//! first, narrow never.
//!
//! trips: clippy::cast_possible_truncation

pub fn plane_nodes(len: usize, stride: usize) -> u16 {
    (len * stride) as u16
}
