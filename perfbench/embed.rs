//! embed-pipeline: plan → `construct` → `metrics` → `verify` in process
//! for a seeded list of shapes, at the pool's default width.

use crate::gen::{self, Triple};
use crate::stats::{self, median};
use crate::trace::Trace;
use crate::{Ctx, Report};
use cubemesh_audit::check_plan;
use cubemesh_core::{
    construct, default_strategies, plan_with_strategies, Plan, PlanStrategy, Planner,
};
use cubemesh_obs as obs;
use cubemesh_topology::Shape;
use std::process::Command;
use std::time::Instant;

/// Shapes of the list the traced run takes per width.
const TRACED_SHAPES: usize = 24;
const SETUP_REPEATS: usize = 21;

type Strategies = Vec<Box<dyn PlanStrategy + Send + Sync>>;

/// Span names of one pipeline pass.
struct Stages {
    shape: &'static str,
    plan: &'static str,
    construct: &'static str,
    metrics: &'static str,
    verify: &'static str,
}

const DEFAULT_WIDTH: Stages = Stages {
    shape: "embed.shape",
    plan: "core.planner.plan_with_strategies",
    construct: "core.construct",
    metrics: "embedding.metrics",
    verify: "embedding.verify",
};

const WIDTH1: Stages = Stages {
    shape: "embed.shape.width1",
    plan: "core.planner.plan_with_strategies.width1",
    construct: "core.construct.width1",
    metrics: "embedding.metrics.width1",
    verify: "embedding.verify.width1",
};

struct ShapeRun {
    secs: f64,
    nodes: u64,
    /// Route hops of the constructed embedding (0 when construct failed).
    hops: u64,
    /// Why the output is wrong, if it is.
    problem: Option<String>,
}

fn stage<R>(trace: &mut Option<(&mut Trace, u32)>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some((t, parent)) => t.time(name, *parent, f),
        None => f(),
    }
}

/// One shape through the pipeline; timed, then checked. Uncovered shapes
/// take the whole-mesh Gray plan, as `embed_mesh` and the database do.
fn run_shape(
    planner: &mut Planner,
    strategies: &Strategies,
    dims: &Triple,
    trace: Option<(&mut Trace, &Stages)>,
) -> ShapeRun {
    let shape = Shape::new(dims);
    let (mut span, stages) = match trace {
        Some((t, st)) => {
            let id = t.open(st.shape, 0);
            (Some((t, id)), st)
        }
        None => (None, &DEFAULT_WIDTH),
    };
    let t0 = Instant::now();
    let plan = stage(&mut span, stages.plan, || {
        plan_with_strategies(planner, &shape, strategies).map_or(Plan::Gray, |hit| hit.plan)
    });
    let measured = stage(&mut span, stages.construct, || construct(&shape, &plan)).map(|emb| {
        let m = stage(&mut span, stages.metrics, || emb.metrics());
        let v = stage(&mut span, stages.verify, || emb.verify());
        (m, v, emb.routes().total_length())
    });
    let secs = t0.elapsed().as_secs_f64();
    if let Some((t, id)) = span {
        t.close(id);
    }
    let hops = measured.as_ref().map_or(0, |m| m.2);
    let problem = match (measured, check_plan(&shape, &plan)) {
        (Err(e), _) => Some(format!("construct {shape}: {e}")),
        (Ok((_, Err(e), _)), _) => Some(format!("verify {shape}: {e}")),
        (_, Err(e)) => Some(format!("certify {shape}: {e}")),
        (Ok((m, Ok(()), _)), Ok(cert)) => (m.host_dim != cert.host_dim
            || m.dilation > cert.dilation_bound
            || m.congestion > cert.congestion_bound)
            .then(|| {
                format!(
                    "{shape}: measured host {} dilation {} congestion {} outside certificate {} {} {}",
                    m.host_dim,
                    m.dilation,
                    m.congestion,
                    cert.host_dim,
                    cert.dilation_bound,
                    cert.congestion_bound
                )
            }),
    };
    ShapeRun {
        secs,
        nodes: shape.nodes() as u64,
        hops,
        problem,
    }
}

/// Set-up as a fresh process sees it: spawning the pool's workers and
/// creating the planner and its strategy ladder. Returns nanoseconds.
pub fn setup_probe() -> u128 {
    let t = Instant::now();
    std::hint::black_box(cubemesh_pool::run_tasks(64, |i| i));
    std::hint::black_box((Planner::new(), default_strategies()));
    t.elapsed().as_nanos()
}

/// Median set-up over fresh processes (the pool spawns once per process).
fn setup_s() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let out = Command::new(&exe)
            .arg("--probe-embed-setup")
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let ns: f64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|_| "setup probe printed no time".to_owned())?;
        times.push(ns * 1e-9);
    }
    Ok(median(&times))
}

fn record(report: &mut Report, run: &ShapeRun) {
    report.check(run.problem.is_none(), || {
        run.problem.clone().unwrap_or_default()
    });
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let setup = setup_s()?;
    let shapes = gen::embed_shapes(ctx.seed);
    let mut planner = Planner::new();
    let strategies = default_strategies();
    let (mut times_ms, mut nodes, mut busy_s) = (Vec::new(), 0u64, 0.0);
    let mut peak = None;
    let start = Instant::now();
    // Whole passes, so every shape of the list weighs the same.
    while times_ms.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        for dims in &shapes {
            let r = run_shape(&mut planner, &strategies, dims, None);
            record(&mut report, &r);
            times_ms.push(r.secs * 1e3);
            nodes += r.nodes;
            busy_s += r.secs;
            // The peak the largest shape, which runs first, needs; later
            // growth depends on the order freed blocks were left in.
            if peak.is_none() {
                peak = stats::peak_rss_mb(None);
            }
        }
    }
    let peak = peak.ok_or("no VmHWM")?;
    let (pct, tail) = stats::reported_tail(&times_ms);
    report.metric("setup_s", setup);
    report.metric("latency_p50_ms", median(&times_ms));
    report.metric("latency_tail_ms", tail);
    report.metric("items_per_s", nodes as f64 / busy_s);
    report.metric("peak_rss_mb", peak);
    report.lines.push(format!(
        "embed-pipeline embed_nodes_per_s = {} nodes/s ({} shapes, {} passes)",
        nodes as f64 / busy_s,
        times_ms.len(),
        times_ms.len() / shapes.len()
    ));
    report.lines.push(format!(
        "embed-pipeline embed_p50_ms = {} ms, p{pct:.1} = {tail} ms",
        median(&times_ms)
    ));
    Ok(report)
}

/// The construct, metrics, verify and pool layers, timed from outside:
/// every shape of the list at the default width and at width 1.
pub fn traced(
    ctx: &Ctx,
    overhead: bool,
    trace: &mut Trace,
) -> Result<(Report, Option<f64>), String> {
    let mut report = Report::default();
    let shapes = gen::embed_shapes(ctx.seed);
    let strategies = default_strategies();
    let (mut planner, mut planner1) = (Planner::new(), Planner::new());
    let (mut plain_s, mut traced_s, mut nodes, mut hops) = (0.0, 0.0, 0u64, 0u64);
    let mut counters = [0u64; 3];
    for (i, dims) in shapes.iter().take(TRACED_SHAPES).enumerate() {
        // Untraced and traced passes of a shape alternate which goes first.
        for traced_pass in [i % 2 == 0, i % 2 == 1] {
            if !traced_pass {
                if overhead {
                    let r = run_shape(&mut planner, &strategies, dims, None);
                    record(&mut report, &r);
                    plain_s += r.secs;
                }
                continue;
            }
            obs::set_enabled(true);
            let before = crate::pool_counters();
            let r = run_shape(
                &mut planner,
                &strategies,
                dims,
                Some((trace, &DEFAULT_WIDTH)),
            );
            let after = crate::pool_counters();
            for k in 0..3 {
                counters[k] += after[k] - before[k];
            }
            record(&mut report, &r);
            traced_s += r.secs;
            nodes += r.nodes;
            hops += r.hops;
            let r1 = cubemesh_pool::with_threads(1, || {
                run_shape(&mut planner1, &strategies, dims, Some((trace, &WIDTH1)))
            });
            record(&mut report, &r1);
            obs::set_enabled(false);
        }
    }
    let construct_s = trace.total_s(DEFAULT_WIDTH.construct);
    let metrics_s = trace.total_s(DEFAULT_WIDTH.metrics);
    let verify_s = trace.total_s(DEFAULT_WIDTH.verify);
    report.metric("core.construct_s", construct_s);
    report.metric("core.construct_nodes_per_s", nodes as f64 / construct_s);
    report.metric("embedding.metrics_s", metrics_s);
    report.metric("embedding.metrics_hops_per_s", hops as f64 / metrics_s);
    report.metric("embedding.verify_s", verify_s);
    report.metric(
        "pool.construct_speedup",
        trace.total_s(WIDTH1.construct) / construct_s,
    );
    report.metric(
        "pool.metrics_speedup",
        trace.total_s(WIDTH1.metrics) / metrics_s,
    );
    report.metric(
        "pool.verify_speedup",
        trace.total_s(WIDTH1.verify) / verify_s,
    );
    for (k, name) in [
        "pool.embed.regions",
        "pool.embed.tasks",
        "pool.embed.steals",
    ]
    .into_iter()
    .enumerate()
    {
        report.metric(name, counters[k] as f64);
    }
    let overhead = overhead.then(|| (traced_s - plain_s) / plain_s);
    Ok((report, overhead))
}
