//! Bench-history comparison: load a prior `BENCH_3.json` baseline and
//! gate the current run's per-rung throughput/memory against it.
//!
//! The comparison is deliberately narrow — it reads only the three
//! figures of merit the perf trajectory is judged on:
//!
//! * `construct_nodes_per_s` (higher is better),
//! * `metrics_hops_per_s` (higher is better),
//! * `peak_rss_kb` (lower is better).
//!
//! Rungs are matched by shape string; rungs present on only one side
//! (e.g. a `--quick` run against a full-ladder baseline) are skipped, so
//! the smoke gate in `scripts/check.sh` compares just the rung it ran. A
//! metric **regresses** when it moves in the bad direction by more than
//! the tolerance (throughput: `current < baseline·(1-tol)`; RSS:
//! `current > baseline·(1+tol)`). Stage timings are minimum-of-reps, so
//! the tolerance absorbs scheduler noise, not measurement noise; the
//! default (15%) sits below the 20% injected-regression self-test in
//! check.sh and well above observed rerun jitter on the pinned ladder.
//!
//! Every baseline header carries its [`HostId`] (CPU model, core count,
//! `rustc -V`). Numbers from another host or compiler are not
//! comparable, so [`same_host`] refuses such a pair outright, the way the
//! bench binary refuses a baseline from another `parallel_backend`.

use cubemesh_obs::{json_escape_into, parse_json, JsonValue};
use std::fmt::Write as _;

/// Default regression tolerance (fraction of the baseline value).
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// The machine and compiler a bench document was recorded with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostId {
    /// `model name` from `/proc/cpuinfo` (`"unknown"` elsewhere).
    pub cpu_model: String,
    /// `available_parallelism()` when recorded.
    pub host_cores: u64,
    /// First line of `rustc -V` (`"unknown"` without a toolchain).
    pub rustc: String,
}

impl HostId {
    /// The host this process runs on.
    pub fn current() -> HostId {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines().find_map(|l| {
                    let (key, value) = l.split_once(':')?;
                    (key.trim() == "model name").then(|| value.trim().to_owned())
                })
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_owned))
            .unwrap_or_else(|| "unknown".to_owned());
        HostId {
            cpu_model,
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            rustc,
        }
    }

    /// The header fields of a bench document, one `"key": value,` line
    /// each, indented two spaces.
    pub fn header_json(&self) -> String {
        let mut out = String::from("  \"cpu_model\": ");
        json_escape_into(&mut out, &self.cpu_model);
        out.push_str(&format!(
            ",\n  \"host_cores\": {},\n  \"rustc\": ",
            self.host_cores
        ));
        json_escape_into(&mut out, &self.rustc);
        out.push_str(",\n");
        out
    }

    /// The host identity in a bench document's header, if it has one.
    ///
    /// # Errors
    /// The document is not valid JSON.
    pub fn from_doc(json: &str) -> Result<Option<HostId>, String> {
        let doc = parse_json(json)
            .map_err(|(pos, msg)| format!("baseline is not valid JSON: {msg} at byte {pos}"))?;
        let text = |k: &str| doc.get(k).and_then(JsonValue::as_str).map(str::to_owned);
        Ok(match (text("cpu_model"), text("rustc")) {
            (Some(cpu_model), Some(rustc)) => Some(HostId {
                cpu_model,
                host_cores: doc
                    .get("host_cores")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                rustc,
            }),
            _ => None,
        })
    }
}

/// `Ok` only if a baseline recorded on `baseline` may be compared with a
/// run on `current`: same CPU model, core count and compiler. A baseline
/// without a host identity predates host-aware headers and is refused.
///
/// # Errors
/// Why the pair is not comparable.
pub fn same_host(baseline: Option<&HostId>, current: &HostId) -> Result<(), String> {
    let Some(base) = baseline else {
        return Err("baseline records no host identity (cpu_model, rustc)".to_owned());
    };
    let mut diffs = Vec::new();
    if base.cpu_model != current.cpu_model {
        diffs.push(format!(
            "cpu {:?} != {:?}",
            base.cpu_model, current.cpu_model
        ));
    }
    if base.host_cores != current.host_cores {
        diffs.push(format!(
            "cores {} != {}",
            base.host_cores, current.host_cores
        ));
    }
    if base.rustc != current.rustc {
        diffs.push(format!("rustc {:?} != {:?}", base.rustc, current.rustc));
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("baseline host differs: {}", diffs.join(", ")))
    }
}

/// The figures of merit one rung is compared on.
#[derive(Clone, Debug, PartialEq)]
pub struct RungMetrics {
    /// Shape string, e.g. `"64x64x64"` — the join key.
    pub shape: String,
    /// Construct throughput, nodes per second (higher is better).
    pub construct_nodes_per_s: f64,
    /// Metrics throughput, route hops per second (higher is better).
    pub metrics_hops_per_s: f64,
    /// Peak resident set size in kB (lower is better; 0 = unavailable).
    pub peak_rss_kb: u64,
}

/// One kernel micro-bench rung: a named single-core kernel and its
/// throughput in elements per second (higher is better).
#[derive(Clone, Debug, PartialEq)]
pub struct KernelMetrics {
    /// Kernel name, e.g. `"gray_encode"` — the join key.
    pub name: String,
    /// Throughput in elements per second.
    pub elems_per_s: f64,
}

/// A parsed baseline document (the subset of `BENCH_3.json` the compare
/// gate consumes).
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Worker-thread count the baseline ran with.
    pub threads: u64,
    /// Cores on the baseline host.
    pub host_cores: u64,
    /// Parallel backend name (absent in pre-trace baselines).
    pub parallel_backend: Option<String>,
    /// Per-rung figures of merit.
    pub rungs: Vec<RungMetrics>,
    /// Kernel micro-bench rungs (empty in pre-kernel baselines, in which
    /// case the kernel gate is skipped rather than failed).
    pub kernels: Vec<KernelMetrics>,
}

/// Parse a `BENCH_3.json` document into a [`Baseline`].
pub fn load_baseline(json: &str) -> Result<Baseline, String> {
    let doc = parse_json(json)
        .map_err(|(pos, msg)| format!("baseline is not valid JSON: {msg} at byte {pos}"))?;
    let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64);
    let rungs_json = doc
        .get("rungs")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "baseline has no \"rungs\" array".to_owned())?;
    let mut rungs = Vec::with_capacity(rungs_json.len());
    for (i, r) in rungs_json.iter().enumerate() {
        let shape = r
            .get("shape")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("rung {i} has no \"shape\""))?
            .to_owned();
        rungs.push(RungMetrics {
            shape,
            construct_nodes_per_s: num(r.get("construct_nodes_per_s")).unwrap_or(0.0),
            metrics_hops_per_s: num(r.get("metrics_hops_per_s")).unwrap_or(0.0),
            peak_rss_kb: r
                .get("peak_rss_kb")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
        });
    }
    let mut kernels = Vec::new();
    if let Some(arr) = doc.get("kernels").and_then(JsonValue::as_arr) {
        for (i, k) in arr.iter().enumerate() {
            let name = k
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("kernel {i} has no \"name\""))?
                .to_owned();
            kernels.push(KernelMetrics {
                name,
                elems_per_s: num(k.get("elems_per_s")).unwrap_or(0.0),
            });
        }
    }
    Ok(Baseline {
        threads: doc.get("threads").and_then(JsonValue::as_u64).unwrap_or(0),
        host_cores: doc
            .get("host_cores")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        parallel_backend: doc
            .get("parallel_backend")
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
        rungs,
        kernels,
    })
}

/// One metric's baseline-vs-current delta.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Rung shape.
    pub shape: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed change in percent of baseline, oriented so **negative is
    /// worse** for every metric (RSS growth reports as negative).
    pub change_pct: f64,
    /// Did this metric move past the tolerance in the bad direction?
    pub regressed: bool,
}

/// The result of comparing a run against a baseline.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Tolerance the comparison used (fraction of baseline).
    pub tolerance: f64,
    /// Every compared metric, in rung order.
    pub deltas: Vec<Delta>,
    /// Rungs present in the current run but not the baseline (or vice
    /// versa), skipped.
    pub skipped: Vec<String>,
}

impl CompareReport {
    /// Deltas that breached the tolerance.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Human-readable report, one line per metric.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fmt::Write for String never fails"
    )]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench compare (tolerance {:.0}%):",
            self.tolerance * 100.0
        );
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "  {:>12} {:<24} {:>14.1} -> {:>14.1}  {:>+7.1}%{}",
                d.shape,
                d.metric,
                d.baseline,
                d.current,
                d.change_pct,
                if d.regressed { "  REGRESSION" } else { "" }
            );
        }
        for s in &self.skipped {
            let _ = writeln!(out, "  {s:>12} not in both runs, skipped");
        }
        let n = self.regressions().len();
        let _ = writeln!(
            out,
            "  {} metric(s) compared, {} regression(s)",
            self.deltas.len(),
            n
        );
        out
    }

    /// Machine-readable report (the check.sh artifact).
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fmt::Write for String never fails"
    )]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"tolerance\": {:.4},", self.tolerance);
        let _ = writeln!(out, "  \"regressions\": {},", self.regressions().len());
        out.push_str("  \"deltas\": [\n");
        for (i, d) in self.deltas.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"shape\": \"{}\", \"metric\": \"{}\", \"baseline\": {:.1}, \
                 \"current\": {:.1}, \"change_pct\": {:.2}, \"regressed\": {}}}",
                d.shape.replace('"', "\\\""),
                d.metric,
                d.baseline,
                d.current,
                d.change_pct,
                d.regressed
            );
            out.push_str(if i + 1 < self.deltas.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"skipped\": [");
        let skipped: Vec<String> = self
            .skipped
            .iter()
            .map(|s| format!("\"{}\"", s.replace('"', "\\\"")))
            .collect();
        out.push_str(&skipped.join(", "));
        out.push_str("]\n}\n");
        out
    }
}

/// Compare `current` rungs against `baseline` rungs at `tolerance`.
/// Returns an error when no rung is present on both sides (a gate that
/// compares nothing must not pass silently).
pub fn compare(
    baseline: &[RungMetrics],
    current: &[RungMetrics],
    tolerance: f64,
) -> Result<CompareReport, String> {
    let mut deltas = Vec::new();
    let mut skipped = Vec::new();
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.shape == cur.shape) else {
            skipped.push(cur.shape.clone());
            continue;
        };
        push_delta(
            &mut deltas,
            &cur.shape,
            "construct_nodes_per_s",
            base.construct_nodes_per_s,
            cur.construct_nodes_per_s,
            Direction::HigherIsBetter,
            tolerance,
        );
        push_delta(
            &mut deltas,
            &cur.shape,
            "metrics_hops_per_s",
            base.metrics_hops_per_s,
            cur.metrics_hops_per_s,
            Direction::HigherIsBetter,
            tolerance,
        );
        push_delta(
            &mut deltas,
            &cur.shape,
            "peak_rss_kb",
            base.peak_rss_kb as f64,
            cur.peak_rss_kb as f64,
            Direction::LowerIsBetter,
            tolerance,
        );
    }
    for base in baseline {
        if !current.iter().any(|c| c.shape == base.shape) {
            skipped.push(base.shape.clone());
        }
    }
    if deltas.is_empty() {
        return Err(format!(
            "no rung appears in both baseline and current run \
             (baseline: {:?}, current: {:?})",
            baseline.iter().map(|r| &r.shape).collect::<Vec<_>>(),
            current.iter().map(|r| &r.shape).collect::<Vec<_>>()
        ));
    }
    Ok(CompareReport {
        tolerance,
        deltas,
        skipped,
    })
}

enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// One BENCH_5 query-service rung: a named figure of merit. The
/// direction is encoded in the name — `…_ns` latencies are
/// lower-is-better, everything else (throughput) is higher-is-better.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceMetrics {
    /// Rung name, e.g. `"lookup_p99_ns"` — the join key.
    pub name: String,
    /// The measured value.
    pub value: f64,
}

/// Parse a `BENCH_5.json` document into its service rungs.
pub fn load_service_baseline(json: &str) -> Result<Vec<ServiceMetrics>, String> {
    let doc = parse_json(json)
        .map_err(|(pos, msg)| format!("baseline is not valid JSON: {msg} at byte {pos}"))?;
    let rungs_json = doc
        .get("rungs")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "baseline has no \"rungs\" array".to_owned())?;
    let mut rungs = Vec::with_capacity(rungs_json.len());
    for (i, r) in rungs_json.iter().enumerate() {
        let name = r
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("service rung {i} has no \"name\""))?
            .to_owned();
        rungs.push(ServiceMetrics {
            name,
            value: r.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0),
        });
    }
    Ok(rungs)
}

/// Compare the BENCH_5 service rungs, matched by name; rungs present on
/// only one side are skipped (an empty baseline gates nothing). Returns
/// an error when both sides are non-empty but nothing matches — a
/// service gate that silently compares nothing must not pass.
///
/// Service rungs recorded for visibility but excluded from gating: a
/// cold miss takes the live plan-and-certify path exactly once per
/// shape, so the rung is a best case over one-shot samples and its
/// run-to-run spread (host CPU phase) exceeds any tolerance tight
/// enough to catch a real regression. The repeatable rungs (8k-sample
/// warm percentiles, thousand-request throughput) carry the gate.
pub const SERVICE_REPORT_ONLY: &[&str] = &["cold_miss_ns"];

/// All gated service rungs are judged at **twice** the shared tolerance:
/// these are sub-microsecond lookups and single-connection loopback
/// throughput, and both wobble with host scheduler jitter and CPU
/// frequency drift far more than the ladder's multi-millisecond rungs
/// do (observed swings approach 2x on shared hosts). A service gate
/// that trips on an idle-host rerun is worse than a looser one; the
/// injected-regression self-test uses multipliers well outside the
/// doubled band so the gate is still provably live. The `…_ns` suffix
/// only flips the direction: latency regresses upward, throughput
/// downward.
pub fn compare_service(
    baseline: &[ServiceMetrics],
    current: &[ServiceMetrics],
    tolerance: f64,
) -> Result<Vec<Delta>, String> {
    let mut deltas = Vec::new();
    for cur in current {
        if SERVICE_REPORT_ONLY.contains(&cur.name.as_str()) {
            continue;
        }
        let Some(base) = baseline.iter().find(|b| b.name == cur.name) else {
            continue;
        };
        let dir = if cur.name.ends_with("_ns") {
            Direction::LowerIsBetter
        } else {
            Direction::HigherIsBetter
        };
        let tol = tolerance * 2.0;
        push_delta(
            &mut deltas,
            &cur.name,
            "service",
            base.value,
            cur.value,
            dir,
            tol,
        );
    }
    if deltas.is_empty() && !baseline.is_empty() && !current.is_empty() {
        return Err(format!(
            "no service rung appears in both baseline and current run \
             (baseline: {:?}, current: {:?})",
            baseline.iter().map(|r| &r.name).collect::<Vec<_>>(),
            current.iter().map(|r| &r.name).collect::<Vec<_>>()
        ));
    }
    Ok(deltas)
}

/// Compare the kernel micro-rungs, matched by name; returns one
/// higher-is-better delta per kernel present on both sides. An empty
/// baseline list yields no deltas, so pre-kernel baselines pass untouched.
pub fn compare_kernels(
    baseline: &[KernelMetrics],
    current: &[KernelMetrics],
    tolerance: f64,
) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.name == cur.name) else {
            continue;
        };
        push_delta(
            &mut deltas,
            &cur.name,
            "kernel_elems_per_s",
            base.elems_per_s,
            cur.elems_per_s,
            Direction::HigherIsBetter,
            tolerance,
        );
    }
    deltas
}

fn push_delta(
    deltas: &mut Vec<Delta>,
    shape: &str,
    metric: &'static str,
    baseline: f64,
    current: f64,
    dir: Direction,
    tolerance: f64,
) {
    // A zero/absent baseline (pre-RSS platforms, older docs) can't be
    // compared meaningfully — record the delta but never flag it.
    if baseline <= 0.0 {
        deltas.push(Delta {
            shape: shape.to_owned(),
            metric,
            baseline,
            current,
            change_pct: 0.0,
            regressed: false,
        });
        return;
    }
    let (change_pct, regressed) = match dir {
        Direction::HigherIsBetter => {
            let change = (current - baseline) / baseline;
            (change * 100.0, current < baseline * (1.0 - tolerance))
        }
        Direction::LowerIsBetter => {
            // Oriented so negative is worse: RSS growth is negative change.
            let change = (baseline - current) / baseline;
            (change * 100.0, current > baseline * (1.0 + tolerance))
        }
    };
    deltas.push(Delta {
        shape: shape.to_owned(),
        metric,
        baseline,
        current,
        change_pct,
        regressed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(shape: &str, c: f64, m: f64, rss: u64) -> RungMetrics {
        RungMetrics {
            shape: shape.to_owned(),
            construct_nodes_per_s: c,
            metrics_hops_per_s: m,
            peak_rss_kb: rss,
        }
    }

    #[test]
    fn identical_runs_pass() {
        let base = vec![rung("16x16x16", 1e6, 2e6, 5000)];
        let rep = compare(&base, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(rep.regressions().is_empty(), "{}", rep.to_text());
        assert_eq!(rep.deltas.len(), 3);
    }

    #[test]
    fn twenty_percent_throughput_drop_fails() {
        let base = vec![rung("16x16x16", 1e6, 2e6, 5000)];
        let cur = vec![rung("16x16x16", 0.8e6, 2e6, 5000)];
        let rep = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        let regs = rep.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "construct_nodes_per_s");
        assert!(regs[0].change_pct < -19.0);
    }

    #[test]
    fn within_tolerance_wobble_passes() {
        let base = vec![rung("16x16x16", 1e6, 2e6, 5000)];
        let cur = vec![rung("16x16x16", 0.9e6, 1.9e6, 5400)];
        let rep = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(rep.regressions().is_empty(), "{}", rep.to_text());
    }

    #[test]
    fn rss_growth_is_a_regression() {
        let base = vec![rung("16x16x16", 1e6, 2e6, 5000)];
        let cur = vec![rung("16x16x16", 1e6, 2e6, 7000)];
        let rep = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        let regs = rep.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "peak_rss_kb");
        assert!(regs[0].change_pct < 0.0, "growth reports as negative");
    }

    #[test]
    fn improvements_never_flag() {
        let base = vec![rung("16x16x16", 1e6, 2e6, 5000)];
        let cur = vec![rung("16x16x16", 5e6, 9e6, 100)];
        let rep = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(rep.regressions().is_empty());
    }

    #[test]
    fn quick_run_compares_the_intersection() {
        let base = vec![
            rung("16x16x16", 1e6, 2e6, 5000),
            rung("64x64x64", 3e6, 4e6, 90000),
        ];
        let cur = vec![rung("16x16x16", 1e6, 2e6, 5000)];
        let rep = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(rep.deltas.len(), 3);
        assert_eq!(rep.skipped, vec!["64x64x64".to_owned()]);
    }

    #[test]
    fn disjoint_runs_error() {
        let base = vec![rung("8x8x8", 1e6, 2e6, 5000)];
        let cur = vec![rung("16x16x16", 1e6, 2e6, 5000)];
        assert!(compare(&base, &cur, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn zero_baseline_rss_never_flags() {
        let base = vec![rung("16x16x16", 1e6, 2e6, 0)];
        let cur = vec![rung("16x16x16", 1e6, 2e6, 123_456)];
        let rep = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(rep.regressions().is_empty());
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let doc = r#"{
          "bench": "BENCH_3",
          "threads": 1,
          "host_cores": 1,
          "parallel_backend": "shim-sequential",
          "rungs": [
            {"shape": "16x16x16", "construct_nodes_per_s": 123456.7,
             "metrics_hops_per_s": 891011.1, "peak_rss_kb": 4242}
          ]
        }"#;
        let base = load_baseline(doc).unwrap();
        assert_eq!(base.threads, 1);
        assert_eq!(base.parallel_backend.as_deref(), Some("shim-sequential"));
        assert_eq!(base.rungs.len(), 1);
        assert_eq!(base.rungs[0].shape, "16x16x16");
        assert_eq!(base.rungs[0].peak_rss_kb, 4242);
        let rep = compare(&base.rungs, &base.rungs, DEFAULT_TOLERANCE).unwrap();
        assert!(rep.regressions().is_empty());
        // The JSON artifact parses back.
        assert!(parse_json(&rep.to_json()).is_ok());
    }

    #[test]
    fn cross_host_pairs_are_refused() {
        let host = HostId {
            cpu_model: "Example CPU @ 2.0GHz".to_owned(),
            host_cores: 2,
            rustc: "rustc 1.0.0 (abc 2020-01-01)".to_owned(),
        };
        assert!(same_host(Some(&host), &host).is_ok());
        for other in [
            HostId {
                cpu_model: "Other CPU".to_owned(),
                ..host.clone()
            },
            HostId {
                host_cores: 1,
                ..host.clone()
            },
            HostId {
                rustc: "rustc 1.1.0".to_owned(),
                ..host.clone()
            },
        ] {
            let err = same_host(Some(&other), &host).unwrap_err();
            assert!(err.contains("host differs"), "{err}");
        }
        assert!(same_host(None, &host).is_err(), "a header without identity");
    }

    #[test]
    fn host_header_roundtrips_through_json() {
        let host = HostId {
            cpu_model: "Quoted \"CPU\" \\ model".to_owned(),
            host_cores: 4,
            rustc: "rustc 1.95.0".to_owned(),
        };
        let doc = format!("{{\n{}  \"rungs\": []\n}}", host.header_json());
        assert_eq!(HostId::from_doc(&doc).unwrap(), Some(host));
        assert_eq!(HostId::from_doc(r#"{"host_cores": 1}"#).unwrap(), None);
        assert!(HostId::current().host_cores >= 1);
    }

    #[test]
    fn kernel_rungs_gate_like_shape_rungs() {
        let kern = |n: &str, v: f64| KernelMetrics {
            name: n.to_owned(),
            elems_per_s: v,
        };
        let base = vec![kern("gray_encode", 1e9), kern("hamming", 2e9)];
        // Matching run: no regressions; unknown kernel skipped.
        let cur = vec![
            kern("gray_encode", 1.05e9),
            kern("hamming", 1.9e9),
            kern("brand_new", 9e9),
        ];
        let deltas = compare_kernels(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|d| !d.regressed));
        // A 20% drop trips.
        let cur = vec![kern("gray_encode", 0.8e9)];
        let deltas = compare_kernels(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].regressed);
        assert_eq!(deltas[0].metric, "kernel_elems_per_s");
        // Pre-kernel baseline: nothing compared, nothing failed.
        assert!(compare_kernels(&[], &cur, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn baseline_parses_kernel_rungs() {
        let doc = r#"{
          "bench": "BENCH_3",
          "threads": 1,
          "rungs": [
            {"shape": "16x16x16", "construct_nodes_per_s": 1.0,
             "metrics_hops_per_s": 2.0, "peak_rss_kb": 3}
          ],
          "kernels": [
            {"name": "gray_encode", "elems_per_s": 123456789.0}
          ]
        }"#;
        let base = load_baseline(doc).unwrap();
        assert_eq!(base.kernels.len(), 1);
        assert_eq!(base.kernels[0].name, "gray_encode");
        assert!((base.kernels[0].elems_per_s - 123456789.0).abs() < 1.0);
    }

    #[test]
    fn service_latency_and_throughput_gate_in_opposite_directions() {
        let rung = |n: &str, v: f64| ServiceMetrics {
            name: n.to_owned(),
            value: v,
        };
        let base = vec![
            rung("lookup_p99_ns", 10_000.0),
            rung("queries_per_s_batch_64", 1e6),
        ];
        // Latency up 40% AND throughput down 40%: both regress (every
        // service rung is judged at 2x tolerance, so 40% > 30% trips).
        let cur = vec![
            rung("lookup_p99_ns", 14_000.0),
            rung("queries_per_s_batch_64", 0.6e6),
        ];
        let deltas = compare_service(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|d| d.regressed), "{deltas:?}");
        // Latency up 20% and throughput down 20%: inside the doubled
        // service tolerance, both pass.
        let cur = vec![
            rung("lookup_p99_ns", 12_000.0),
            rung("queries_per_s_batch_64", 0.8e6),
        ];
        let deltas = compare_service(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed), "{deltas:?}");
        // Latency down and throughput up: improvements never flag.
        let cur = vec![
            rung("lookup_p99_ns", 5_000.0),
            rung("queries_per_s_batch_64", 2e6),
        ];
        let deltas = compare_service(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed), "{deltas:?}");
        // cold_miss_ns is report-only: even a 10x blowup produces no
        // delta, so it can never trip the gate.
        let base_cold = vec![rung("cold_miss_ns", 600.0), rung("lookup_p99_ns", 10_000.0)];
        let cur_cold = vec![
            rung("cold_miss_ns", 6_000.0),
            rung("lookup_p99_ns", 10_000.0),
        ];
        let deltas = compare_service(&base_cold, &cur_cold, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(deltas.len(), 1, "{deltas:?}");
        assert_eq!(deltas[0].shape, "lookup_p99_ns");
        assert!(SERVICE_REPORT_ONLY.contains(&"cold_miss_ns"));
        // Pre-service baseline gates nothing; disjoint non-empty errors.
        assert!(compare_service(&[], &cur, DEFAULT_TOLERANCE)
            .unwrap()
            .is_empty());
        let other = vec![rung("cold_miss_ns", 1.0)];
        assert!(compare_service(&other, &cur, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn service_baseline_roundtrips_through_json() {
        let doc = r#"{
          "bench": "BENCH_5",
          "rungs": [
            {"name": "lookup_p50_ns", "value": 1234.5},
            {"name": "queries_per_s_batch_1024", "value": 987654.3}
          ]
        }"#;
        let base = load_service_baseline(doc).unwrap();
        assert_eq!(base.len(), 2);
        assert_eq!(base[0].name, "lookup_p50_ns");
        assert!((base[1].value - 987654.3).abs() < 1e-6);
        assert!(load_service_baseline("{\"bench\": \"BENCH_5\"}").is_err());
    }

    #[test]
    fn missing_fields_are_an_error() {
        assert!(load_baseline("not json").is_err());
        assert!(load_baseline("{\"bench\": \"BENCH_3\"}").is_err());
    }
}
