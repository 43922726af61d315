//! Known-bad: a cube address narrowed below 64 bits (formerly CM-L002).
//! Keep address arithmetic in `u64`.
//!
//! trips: clippy::cast_possible_truncation

pub fn low_word(addr: u64) -> u32 {
    addr as u32
}
