//! Known-bad: the `Result` of a fallible function is silently dropped
//! (formerly CM-A013). Propagate with `?`, match on the error, or keep a
//! read binding.
//!
//! trips: unused_must_use clippy::let_underscore_must_use unused_variables

pub fn save_counts(x: u32) -> Result<(), String> {
    if x > 0 {
        Ok(())
    } else {
        Err("zero".to_owned())
    }
}

pub fn bare_statement(x: u32) {
    save_counts(x);
}

pub fn wildcard_binding(x: u32) {
    let _ = save_counts(x);
}

pub fn dead_binding(x: u32) {
    let r = save_counts(x);
}
