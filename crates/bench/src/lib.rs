//! Shared helpers for the cubemesh benchmarks, the `figures`
//! regeneration binary, and the `cubemesh-bench` perf-trajectory gate.
//! The timing ladders live in `benches/` and `src/bin/`; this crate
//! holds the bench-history comparison ([`compare`]) the check.sh gate
//! runs against `BENCH_3.json`.

pub mod compare;

pub use compare::{
    compare as compare_rungs, compare_kernels, compare_service, load_baseline,
    load_service_baseline, same_host, Baseline, CompareReport, Delta, HostId, KernelMetrics,
    RungMetrics, ServiceMetrics, DEFAULT_TOLERANCE, SERVICE_REPORT_ONLY,
};

/// Format a percentage with one decimal, paper-style.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x)
}
