//! Known-bad: a public function that can panic has no `# Panics` doc
//! section, and a waiver names no invariant (formerly CM-L003).
//!
//! trips: clippy::missing_panics_doc clippy::allow_attributes_without_reason

/// Halves an even number.
pub fn half(x: u32) -> u32 {
    assert!(x % 2 == 0, "odd input");
    x / 2
}

/// Narrows a length.
#[expect(clippy::cast_possible_truncation)]
pub fn narrow(len: usize) -> u32 {
    len as u32
}
