//! Known-bad: panic-family calls in library code (formerly CM-L001).
//! Return a `Result`, or waive one site with `#[expect(…, reason = …)]`
//! naming the invariant that keeps it from firing.
//!
//! trips: clippy::unwrap_used clippy::expect_used clippy::panic clippy::todo clippy::unreachable clippy::unimplemented

pub fn first(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn second(x: Result<u32, String>) -> u32 {
    x.expect("present")
}

pub fn third(x: u32) -> u32 {
    match x {
        0 => panic!("zero"),
        1 => todo!(),
        2 => unimplemented!(),
        3 => unreachable!(),
        n => n,
    }
}
