//! Known-bad: span guards dropped on the spot, recording zero-length
//! spans (formerly CM-L008). `SpanTimer` is `#[must_use]`; bind the
//! guard (`let _span = span!(…);`) so it lives to the end of the scope.
//!
//! trips: clippy::let_underscore_must_use unused_must_use

pub fn wildcard_binding() {
    let _ = cubemesh_obs::span!("construct");
}

pub fn bare_statement() {
    cubemesh_obs::SpanTimer::new("construct");
}
