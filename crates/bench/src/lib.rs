//! The library half of `cubemesh-bench`, the workspace's one timing
//! harness (its ladders live in `src/bin/bench.rs`): the bench-history
//! comparison ([`compare`]) the check.sh gate runs against
//! `BENCH_3.json`, and the tracing-overhead trials ([`overhead`]) every
//! bench run gates.

pub mod compare;
pub mod overhead;

pub use compare::{
    compare as compare_rungs, compare_kernels, compare_service, load_baseline,
    load_service_baseline, same_host, Baseline, CompareReport, Delta, HostId, KernelMetrics,
    RungMetrics, ServiceMetrics, DEFAULT_TOLERANCE, SERVICE_REPORT_ONLY,
};
