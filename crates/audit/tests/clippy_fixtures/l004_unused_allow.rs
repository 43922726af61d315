//! Known-bad: an `#[allow]` waiver, which can outlive the code it
//! excused, and an `#[expect]` with nothing left to suppress (formerly
//! CM-L004 and the panic allowlist file).
//!
//! trips: clippy::allow_attributes unfulfilled_lint_expectations

#[allow(clippy::unwrap_used, reason = "the caller checks first")]
pub fn first(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::unwrap_used, reason = "stale: the unwrap is gone")]
pub fn second(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}
