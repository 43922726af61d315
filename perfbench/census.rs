//! census-build: `plandb::build` over the ≤96³ universe into a fresh
//! file, at the pool's default width.

use crate::gen::{self, DB_MAX_AXIS};
use crate::stats::{self, digest, median};
use crate::trace::Trace;
use crate::{Ctx, Report};
use cubemesh_audit::{check_plan, mesh_floors};
use cubemesh_core::{default_strategies, plan_with_strategies, Plan, Planner};
use cubemesh_obs as obs;
use cubemesh_plandb::{build, enumerate_keys, BuildConfig, PlanDb};
use cubemesh_topology::Shape;
use std::path::Path;
use std::time::Instant;

/// [`stats::digest`] of the ≤96³ database file, identical at every pool
/// width. A change to the file format or to any record changes it.
pub const DB_DIGEST: u64 = 0xe6b6_9e8e_9de7_7ab4;
/// Census records with a certified dilation-2 plan, and without one.
pub const CERTIFIED: usize = 135_388;
pub const UNCOVERED: usize = 16_708;
/// Keys per planner in `plandb::build`; the traced split mirrors it.
const BLOCK: usize = 32;
/// One block in this many is split into per-call spans.
const SAMPLE_EVERY: usize = 8;
const SETUP_REPEATS: usize = 15;

pub struct Built {
    pub secs: f64,
    pub records: usize,
    pub certified: usize,
    pub uncovered: usize,
    pub bytes: u64,
    pub digest: u64,
}

impl Built {
    /// What is wrong with the built file, if anything.
    fn problem(&self) -> Option<String> {
        if (self.certified, self.uncovered) != (CERTIFIED, UNCOVERED) {
            return Some(format!(
                "build certified/uncovered {}/{} != {CERTIFIED}/{UNCOVERED}",
                self.certified, self.uncovered
            ));
        }
        (self.digest != DB_DIGEST).then(|| {
            format!(
                "database digest {:#018x} != recorded {DB_DIGEST:#018x}",
                self.digest
            )
        })
    }
}

/// Build the database at the current pool width and read it back.
pub fn build_db(path: &Path) -> Result<Built, String> {
    let t = Instant::now();
    let report = build(&BuildConfig::new(DB_MAX_AXIS), path).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(Built {
        secs,
        records: report.shapes,
        certified: report.certified,
        uncovered: report.uncovered,
        bytes: bytes.len() as u64,
        digest: digest(&bytes),
    })
}

/// One build, checked against the counts and digest recorded here.
fn checked_build(path: &Path, report: &mut Report) -> Result<Built, String> {
    let built = build_db(path)?;
    let problem = built.problem();
    report.check(problem.is_none(), || problem.unwrap_or_default());
    Ok(built)
}

/// Provide the database the serve-query workload serves: the file left
/// at `path` by an earlier run when it is exactly the recorded one, else
/// a fresh build, which must be.
pub fn prepare_db(path: &Path) -> Result<(), String> {
    if std::fs::read(path).is_ok_and(|bytes| digest(&bytes) == DB_DIGEST) {
        return Ok(());
    }
    match build_db(path)?.problem() {
        Some(p) => Err(p),
        None => Ok(()),
    }
}

fn setup_s() -> f64 {
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let keys = enumerate_keys(DB_MAX_AXIS);
            std::hint::black_box(&keys);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let setup = setup_s();
    let path = ctx.work.join("census96.db");
    let start = Instant::now();
    let mut builds = Vec::new();
    while builds.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        builds.push(checked_build(&path, &mut report)?);
    }
    let peak = stats::peak_rss_mb(None).ok_or("no VmHWM")?;
    let width1 = cubemesh_pool::with_threads(1, || build_db(&path))?;
    report.check(width1.digest == builds[0].digest, || {
        "width-1 build differs from the default-width build".to_owned()
    });

    let times_ms: Vec<f64> = builds.iter().map(|b| b.secs * 1e3).collect();
    let records: usize = builds.iter().map(|b| b.records).sum();
    let total_s: f64 = builds.iter().map(|b| b.secs).sum();
    let (pct, tail) = stats::reported_tail(&times_ms);
    report.metric("setup_s", setup);
    report.metric("latency_p50_ms", median(&times_ms));
    report.metric("latency_tail_ms", tail);
    report.metric("items_per_s", records as f64 / total_s);
    report.metric("peak_rss_mb", peak);
    report.lines.push(format!(
        "census-build build_records_per_s = {} records/s ({} builds)",
        records as f64 / total_s,
        builds.len()
    ));
    report.lines.push(format!(
        "census-build db_bytes_per_record = {} B",
        builds[0].bytes as f64 / builds[0].records as f64
    ));
    report.lines.push(format!(
        "census-build build_ms p50 = {} ms, p{pct:.1} = {tail} ms (n={})",
        median(&times_ms),
        builds.len()
    ));
    Ok(report)
}

/// The census layers, timed from outside: whole traced builds at the
/// default width and at width 1, then a sampled per-call split of the
/// planning and certification `build` does, and the encoder and writer
/// over every record. Leaves the database at `db`.
pub fn traced(
    ctx: &Ctx,
    overhead: bool,
    db: &Path,
    trace: &mut Trace,
) -> Result<(Report, Option<f64>), String> {
    let mut report = Report::default();
    // Untraced and traced builds alternate (U T T U) when this workload's
    // tracing overhead is wanted.
    let order: &[bool] = if overhead {
        &[false, true, true, false]
    } else {
        &[true]
    };
    let (mut plain, mut traced_s) = (Vec::new(), Vec::new());
    let mut counters = [0u64; 3];
    for &on in order {
        if on {
            obs::set_enabled(true);
            let before = crate::pool_counters();
            let t = trace.start();
            let b = checked_build(db, &mut report);
            trace.end(t, "plandb.build", 0);
            let after = crate::pool_counters();
            for i in 0..3 {
                counters[i] += after[i] - before[i];
            }
            traced_s.push(b?.secs);
            obs::set_enabled(false);
        } else {
            plain.push(checked_build(db, &mut report)?.secs);
        }
    }
    obs::set_enabled(true);
    let t = trace.start();
    let width1 = cubemesh_pool::with_threads(1, || build_db(db));
    trace.end(t, "plandb.build.width1", 0);
    obs::set_enabled(false);
    let width1 = width1?;
    report.check(width1.digest == DB_DIGEST, || {
        "width-1 build differs from the recorded database".to_owned()
    });
    let per_build = traced_s.len() as f64;
    report.metric("pool.build_speedup", width1.secs / median(&traced_s));
    for (i, name) in [
        "pool.build.regions",
        "pool.build.tasks",
        "pool.build.steals",
    ]
    .into_iter()
    .enumerate()
    {
        report.metric(name, counters[i] as f64 / per_build);
    }

    split_planning(ctx, trace);
    report.metric(
        "core.planner.plan_ns.p50",
        median(&trace.durations("core.planner.plan")),
    );
    report.metric(
        "core.planner.plan_ns.max",
        stats::max(&trace.durations("core.planner.plan")),
    );
    report.metric(
        "audit.check_plan_ns.p50",
        median(&trace.durations("audit.check_plan")),
    );
    report.metric(
        "audit.floors_ns.p50",
        median(&trace.durations("audit.mesh_floors")),
    );

    // Encoder and writer over the records the build wrote.
    let reader = PlanDb::open(db).map_err(|e| e.to_string())?;
    let mut records = Vec::with_capacity(reader.len());
    for key in enumerate_keys(DB_MAX_AXIS) {
        match reader.get(&key).map_err(|e| e.to_string())? {
            Some(rec) => records.push(rec),
            None => return Err(format!("database lacks key {key:?}")),
        }
    }
    let mut buf = Vec::new();
    let encoded = trace.time("plandb.encode_into", 0, || {
        records.iter().try_for_each(|rec| {
            buf.clear();
            rec.encode_into(&mut buf)
        })
    });
    encoded.map_err(|e| e.to_string())?;
    let bytes = trace
        .time("plandb.format.db_bytes", 0, || {
            cubemesh_plandb::format::db_bytes(DB_MAX_AXIS as u32, &records)
        })
        .map_err(|e| e.to_string())?;
    let copy = ctx.work.join("census96-copy.db");
    trace
        .time("plandb.write", 0, || std::fs::write(&copy, &bytes))
        .map_err(|e| format!("write {}: {e}", copy.display()))?;
    report.check(digest(&bytes) == DB_DIGEST, || {
        "db_bytes over the stored records differs from the recorded database".to_owned()
    });
    let n = records.len() as f64;
    report.metric(
        "plandb.encode_ns_per_record",
        trace.total_s("plandb.encode_into") * 1e9 / n,
    );
    report.metric("plandb.db_bytes_s", trace.total_s("plandb.format.db_bytes"));
    report.metric("plandb.write_s", trace.total_s("plandb.write"));
    report.metric("plandb.db_bytes_per_record", bytes.len() as f64 / n);

    let overhead = overhead.then(|| (median(&traced_s) - median(&plain)) / median(&plain));
    Ok((report, overhead))
}

/// Plan, floor and certify a seeded sample of `build`'s key blocks one
/// call at a time, with a fresh planner per block as `build` has.
fn split_planning(ctx: &Ctx, trace: &mut Trace) {
    let keys = enumerate_keys(DB_MAX_AXIS);
    let mut rng = gen::stream(ctx.seed, 200);
    let strategies = default_strategies();
    for block in keys.chunks(BLOCK) {
        if rng.below(SAMPLE_EVERY) != 0 {
            continue;
        }
        let span = trace.open("census.block", 0);
        let mut planner = Planner::new();
        for key in block {
            let shape = Shape::new(key);
            let plan = trace
                .time("core.planner.plan", span, || {
                    plan_with_strategies(&mut planner, &shape, &strategies)
                })
                .map_or(Plan::Gray, |hit| hit.plan);
            let floors = trace.time("audit.mesh_floors", span, || {
                mesh_floors(&shape, shape.minimal_cube_dim())
            });
            let cert = trace.time("audit.check_plan", span, || check_plan(&shape, &plan));
            std::hint::black_box((floors, cert.ok()));
        }
        trace.close(span);
    }
}
