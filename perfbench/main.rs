//! perfbench — the cubemesh benchmark.
//!
//! ```text
//! perfbench --workload serve-query|embed-pipeline|census-build --seed N
//!           --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//! ```
//!
//! Usually started through `run.py`, which builds it and `cubemesh-serve`
//! first. An untraced run (`--trace 0`) measures one workload end to end;
//! a traced run (`--trace 1`) times every layer's public calls from
//! outside and reports the per-layer metrics. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See README.md for the metric definitions.

mod census;
mod embed;
mod gen;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

/// End-to-end metrics of an untraced run: every workload reports each.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("items_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("service.protocol.parse_ns_per_shape", "ns"),
    ("service.protocol.render_ns_per_shape", "ns"),
    ("service.server.socket_us.p50", "us"),
    ("service.engine.lookup_db_ns.p50", "ns"),
    ("service.engine.lookup_db_ns.p99", "ns"),
    ("service.engine.lookup_live_ns.p50", "ns"),
    ("service.engine.lookup_live_ns.max", "ns"),
    ("service.engine.live_count", "count"),
    ("service.engine.db_hit_ratio", "ratio"),
    ("plandb.open_s", "s"),
    ("plandb.open_rss_mb", "MB"),
    ("plandb.get_ns.p50", "ns"),
    ("plandb.get_ns.p99", "ns"),
    ("plandb.encode_ns_per_record", "ns"),
    ("plandb.db_bytes_s", "s"),
    ("plandb.write_s", "s"),
    ("plandb.db_bytes_per_record", "B"),
    ("core.planner.plan_ns.p50", "ns"),
    ("core.planner.plan_ns.max", "ns"),
    ("audit.check_plan_ns.p50", "ns"),
    ("audit.floors_ns.p50", "ns"),
    ("core.construct_s", "s"),
    ("core.construct_nodes_per_s", "nodes/s"),
    ("embedding.metrics_s", "s"),
    ("embedding.metrics_hops_per_s", "hops/s"),
    ("embedding.verify_s", "s"),
    ("pool.construct_speedup", "ratio"),
    ("pool.metrics_speedup", "ratio"),
    ("pool.verify_speedup", "ratio"),
    ("pool.build_speedup", "ratio"),
    ("pool.embed.regions", "count"),
    ("pool.embed.tasks", "count"),
    ("pool.embed.steals", "count"),
    ("pool.build.regions", "count"),
    ("pool.build.tasks", "count"),
    ("pool.build.steals", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeQuery,
    EmbedPipeline,
    CensusBuild,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-query" => Some(Workload::ServeQuery),
            "embed-pipeline" => Some(Workload::EmbedPipeline),
            "census-build" => Some(Workload::CensusBuild),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeQuery => "serve-query",
            Workload::EmbedPipeline => "embed-pipeline",
            Workload::CensusBuild => "census-build",
        }
    }
}

/// What every workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub serve_bin: PathBuf,
    /// Scratch directory for databases, logs and the trace file.
    pub work: PathBuf,
    /// Time origin of every span.
    pub origin: Instant,
}

/// What a run, or one part of a traced run, measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable result lines, printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Count `ok` as one checked operation; the first failures are listed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        const LISTED: u64 = 20;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= LISTED {
                self.lines.push(format!("CHECK FAILED: {}", what()));
            } else if self.failed == LISTED + 1 {
                self.lines
                    .push("CHECK FAILED: further failures not listed".to_owned());
            }
        }
    }

    fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.lines.extend(other.lines);
    }
}

/// The pool's obs counters: regions, tasks, steals. They count only
/// while obs collection is enabled.
pub fn pool_counters() -> [u64; 3] {
    ["pool.regions", "pool.tasks", "pool.steals"].map(|n| cubemesh_obs::counter_named(n).get())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed: not a non-negative integer".to_owned())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        serve_bin: PathBuf::from(get("--serve-bin")?),
        work: PathBuf::from(get("--work-dir")?),
    })
}

fn header(args: &Args) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host cpu={:?} nproc={} rustc={:?} revision={}",
        stats::cpu_model(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        stats::command_line("rustc", &["-V"]),
        // Only the checkout's own repository, not one around it.
        if std::path::Path::new(".git").exists() {
            stats::command_line("git", &["rev-parse", "--short=12", "HEAD"])
        } else {
            "unknown".to_owned()
        },
    );
    println!(
        "# pool backend={} effective_threads={}",
        cubemesh_pool::backend_name(),
        cubemesh_pool::effective_threads()
    );
}

fn traced_run(ctx: &Ctx, workload: Workload) -> Result<(Report, Trace), String> {
    let mut report = Report::default();
    let mut trace = Trace::new(ctx.origin);
    // The census part writes the database the serve part then serves.
    let db = ctx.work.join("census96.db");
    let census = census::traced(ctx, workload == Workload::CensusBuild, &db, &mut trace)?;
    let embed = embed::traced(ctx, workload == Workload::EmbedPipeline, &mut trace)?;
    let serve = serve::traced(ctx, workload == Workload::ServeQuery, &db, &mut trace)?;
    let overhead = [census.1, embed.1, serve.1]
        .into_iter()
        .flatten()
        .next()
        .ok_or("no part measured the tracing overhead")?;
    for (part, _) in [census, embed, serve] {
        report.absorb(part);
    }
    report.metric("obs.trace_overhead_frac", overhead);
    for (name, value) in &report.metrics {
        if name.ends_with("_speedup") && *value < 1.0 {
            report.lines.push(format!(
                "WARNING: {name} = {value:.3} < 1.0: the parallel path is slower than width 1"
            ));
        }
    }
    Ok((report, trace))
}

fn untraced_run(ctx: &Ctx, workload: Workload) -> Result<Report, String> {
    match workload {
        Workload::ServeQuery => serve::run(ctx),
        Workload::EmbedPipeline => embed::run(ctx),
        Workload::CensusBuild => census::run(ctx),
    }
}

/// The result line; errors when the metric set is not exactly the
/// declared one or a value is not a finite number.
fn result_json(report: &Report, declared: &[(&str, &str)]) -> Result<String, String> {
    let mut names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    names.sort_unstable();
    let mut want: Vec<&str> = declared.iter().map(|m| m.0).collect();
    want.sort_unstable();
    if names != want {
        return Err(format!("reported metrics {names:?} != declared {want:?}"));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = report
            .metrics
            .iter()
            .find(|m| m.0 == *name)
            .map(|m| m.1)
            .unwrap_or(f64::NAN);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i > 0 { ", " } else { "" };
        out.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    Ok(out)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

fn real_main(argv: &[String]) -> Result<(), String> {
    // Set-up probes, run in fresh child processes by the workloads.
    match (argv.first().map(String::as_str), argv.get(1)) {
        (Some("--probe-embed-setup"), _) => {
            println!("{}", embed::setup_probe());
            return Ok(());
        }
        (Some("--probe-db-open"), Some(db)) => {
            println!("{}", serve::open_probe(std::path::Path::new(db))?);
            return Ok(());
        }
        _ => {}
    }
    let args = parse_args(argv)?;
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("work dir {}: {e}", args.work.display()))?;
    header(&args);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        serve_bin: args.serve_bin.clone(),
        work: args.work.clone(),
        origin: Instant::now(),
    };
    let (report, declared): (Report, &[(&str, &str)]) = if args.trace {
        let (report, trace) = traced_run(&ctx, args.workload)?;
        let path = ctx.work.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&path, trace.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# {} spans written to {}", trace.len(), path.display());
        (report, &PER_LAYER)
    } else {
        (untraced_run(&ctx, args.workload)?, &END_TO_END)
    };
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value) in &report.metrics {
        println!("metric {name} = {value} {}", unit_of(name));
    }
    println!(
        "failed_frac = {} ratio ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", result_json(&report, declared)?);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (name, unit) of every metric BENCHMARK.json declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = cubemesh_obs::parse_json(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|v| v.as_arr())
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn check_section(section: &str, ours: &[(&str, &str)]) {
        let declared = declared(section);
        for (name, unit) in ours {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.as_bytes()[0].is_ascii_alphanumeric()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad metric name {name:?}"
            );
            assert!(
                declared.contains(&(name.to_string(), unit.to_string())),
                "{name} [{unit}] missing from BENCHMARK.json {section}"
            );
        }
        assert_eq!(
            declared.len(),
            ours.len(),
            "BENCHMARK.json {section} has extra metrics"
        );
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        check_section("end_to_end", &END_TO_END);
        check_section("per_layer", &PER_LAYER);
    }

    #[test]
    fn result_json_refuses_a_wrong_metric_set() {
        let mut r = Report::default();
        r.check(true, String::new);
        for (name, _) in END_TO_END {
            r.metric(name, 1.5);
        }
        let line = result_json(&r, &END_TO_END).expect("complete set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(cubemesh_obs::parse_json(&line).is_ok());
        assert!(result_json(&r, &PER_LAYER).is_err());
        r.metrics[0].1 = f64::NAN;
        assert!(result_json(&r, &END_TO_END).is_err());
    }
}
