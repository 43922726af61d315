//! Fixture: trips exactly CM-A001 (worker-capture-mut) through the pool.
//!
//! The closure handed to `run_tasks` mutates `hits`, a binding captured
//! from the enclosing scope — every pool task would race on it.

pub fn count(n: usize) -> usize {
    let mut hits = 0usize;
    let _ = cubemesh_pool::run_tasks(n, |i| hits += i);
    hits
}
