//! serve-query: a real `cubemesh-serve --workers 2` on the ≤96³ census
//! database, driven by a closed loop of two client connections sending
//! 64-shape `plan` requests.
//!
//! Every reply is checked after the timed window: the client keeps a
//! digest of each reply, and the check rebuilds the expected reply from
//! in-process `PlanDb::get` (hits) and `plan_record` (cold misses).

use crate::census;
use crate::gen::{self, Requests, Triple};
use crate::stats::{self, digest, median};
use crate::trace::Trace;
use crate::{Ctx, Report};
use cubemesh_core::{default_strategies, Planner};
use cubemesh_obs::{json_escape_into, parse_json, JsonValue};
use cubemesh_plandb::{plan_record, PlanDb, PlanRecord, RecordStatus};
use cubemesh_service::{handle_line, parse_request, EngineConfig, QueryEngine, Request, Source};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Client connections; the host has two cores, and so has the server.
const CLIENTS: usize = 2;
const WORKERS: &str = "2";
/// Server starts per run; the reported set-up time is their median.
const SETUP_SPAWNS: usize = 7;
/// Requests per client replayed in process for the per-layer split.
const LAYER_REQUESTS: usize = 256;
/// Fresh processes that time `PlanDb::open`.
const OPEN_PROBES: usize = 3;
/// Requests after which the server's peak resident set is read. The
/// server keeps every cold miss it answered, so its memory grows with the
/// requests served; reading it after a fixed amount of work keeps a
/// faster server from reading as a hungrier one.
const RSS_AT_REQUESTS: u64 = 30_000;

/// A running `cubemesh-serve`, killed on drop if not stopped.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Start the server and wait for its `listening` line. Returns the
    /// server and the seconds that took.
    fn spawn(ctx: &Ctx, db: &Path) -> Result<(Server, f64), String> {
        let overflow = ctx.work.join("overflow.ck");
        let _ = std::fs::remove_file(&overflow);
        let t = Instant::now();
        let mut child = Command::new(&ctx.serve_bin)
            .arg("--db")
            .arg(db)
            .args(["--workers", WORKERS, "--addr", "127.0.0.1:0", "--overflow"])
            .arg(&overflow)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start {}: {e}", ctx.serve_bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not piped")?;
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        let setup = t.elapsed().as_secs_f64();
        server.addr = parse_json(line.trim())
            .ok()
            .and_then(|v| {
                v.get("listening")
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
            })
            .ok_or(format!("server did not report listening: {line:?}"))?;
        Ok((server, setup))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a shutdown on a fresh connection and wait for a clean exit.
    /// Every client connection must be closed first: each one holds a
    /// server worker.
    fn stop(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        let mut reply = Vec::new();
        conn.call(b"{\"op\":\"shutdown\"}\n", &mut reply)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => return Err("server did not stop".to_owned()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// Send one request line and read its reply line, without the newline.
    fn call(&mut self, line: &[u8], reply: &mut Vec<u8>) -> Result<(), String> {
        self.writer
            .write_all(line)
            .map_err(|e| format!("send: {e}"))?;
        reply.clear();
        self.reader
            .read_until(b'\n', reply)
            .map_err(|e| format!("receive: {e}"))?;
        if reply.pop() != Some(b'\n') {
            return Err("server closed the connection".to_owned());
        }
        Ok(())
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tracing {
    Off,
    On,
    /// Off in even seconds of the run, on in odd ones.
    Alternate,
}

/// What one client sent and saw, in request order.
struct ClientLog {
    /// Send time, seconds after the loop started.
    sent_s: Vec<f64>,
    latency_us: Vec<f64>,
    traced: Vec<bool>,
    digests: Vec<u64>,
    trace: Trace,
    /// Open until the session reads the server's stats.
    conn: Option<Conn>,
}

struct Universe {
    hits: Vec<Triple>,
    misses: Vec<Triple>,
}

impl Universe {
    fn new(seed: u64) -> Universe {
        Universe {
            hits: gen::db_keys(),
            misses: gen::miss_keys(seed),
        }
    }

    fn requests(&self, seed: u64, client: usize) -> Requests<'_> {
        Requests::new(seed, client, CLIENTS, &self.hits, &self.misses)
    }
}

/// What the clients of one loop share: the server, the request count, and
/// the server's peak resident set once that count reached [`RSS_AT_REQUESTS`].
struct Shared<'a> {
    addr: &'a str,
    pid: u32,
    requests: AtomicU64,
    rss_mb: OnceLock<Option<f64>>,
}

fn client(
    ctx: &Ctx,
    shared: &Shared,
    uni: &Universe,
    client: usize,
    seconds: f64,
    tracing: Tracing,
) -> Result<ClientLog, String> {
    let addr = shared.addr;
    let mut conn = Conn::open(addr)?;
    let mut gen = uni.requests(ctx.seed, client);
    let mut log = ClientLog {
        sent_s: Vec::new(),
        latency_us: Vec::new(),
        traced: Vec::new(),
        digests: Vec::new(),
        trace: Trace::new(ctx.origin),
        conn: None,
    };
    let (mut shapes, mut reply) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        gen.next_batch(&mut shapes);
        let line = gen::request_line(&shapes);
        let traced = match tracing {
            Tracing::Off => false,
            Tracing::On => true,
            Tracing::Alternate => start.elapsed().as_secs() % 2 == 1,
        };
        let t = Instant::now();
        log.sent_s.push(t.duration_since(start).as_secs_f64());
        if traced {
            let s = log.trace.start();
            conn.call(line.as_bytes(), &mut reply)?;
            log.trace.end(s, "service.request.tcp", 0);
        } else {
            conn.call(line.as_bytes(), &mut reply)?;
        }
        log.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        log.traced.push(traced);
        log.digests.push(digest(&reply));
        if shared.requests.fetch_add(1, SeqCst) + 1 == RSS_AT_REQUESTS {
            let _ = shared.rss_mb.set(stats::peak_rss_mb(Some(shared.pid)));
        }
    }
    log.conn = Some(conn);
    Ok(log)
}

/// Length of the windows the end-to-end figures are taken over.
const WINDOW_S: f64 = 2.0;

/// The loop's figures per window of about [`WINDOW_S`] tiling the run:
/// (p50 µs, tail µs, shapes per second) over the requests sent in it.
/// Medians over windows keep a burst of host noise in one window from
/// moving the run's figures.
fn window_figures(logs: &[ClientLog], seconds: f64) -> Vec<(f64, f64, f64)> {
    let n = ((seconds / WINDOW_S).round() as usize).max(1);
    let width = seconds / n as f64;
    let mut windows = vec![Vec::new(); n];
    for log in logs {
        for (&t, &us) in log.sent_s.iter().zip(&log.latency_us) {
            if let Some(w) = windows.get_mut((t / width) as usize) {
                w.push(us);
            }
        }
    }
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let shapes_per_s = (w.len() * gen::BATCH) as f64 / width;
            (median(w), stats::reported_tail(w).1, shapes_per_s)
        })
        .collect()
}

/// Run the closed loop; returns each client's log and the wall time.
fn drive(
    ctx: &Ctx,
    shared: &Shared,
    uni: &Universe,
    seconds: f64,
    tracing: Tracing,
) -> Result<(Vec<ClientLog>, f64), String> {
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(ctx, shared, uni, c, seconds, tracing)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((logs, start.elapsed().as_secs_f64()))
}

/// The reply entry the protocol must carry for `rec`, written out from
/// the record's fields here rather than by the service's renderer.
fn expected_entry(rec: &PlanRecord, source: &str) -> String {
    let mut out = String::with_capacity(400);
    let key: Vec<String> = rec.key.iter().map(usize::to_string).collect();
    let status = match rec.status {
        RecordStatus::Certified => "certified",
        RecordStatus::NoDilation2Plan => "no-dilation2-plan",
    };
    let _ = write!(
        out,
        "{{\"shape\":[{}],\"status\":\"{status}\",\"source\":\"{source}\",\"strategy\":",
        key.join(",")
    );
    json_escape_into(&mut out, &rec.strategy);
    let _ = write!(out, ",\"confidence\":{},\"plan\":", rec.confidence);
    json_escape_into(&mut out, &rec.plan_text);
    let (c, f) = (&rec.cert, &rec.floors);
    let _ = write!(
        out,
        ",\"fingerprint\":\"0x{:016x}\",\"certificate\":{{\"host_dim\":{},\"dilation\":{},\"congestion\":{},\"load\":{},\"expansion\":{},\"minimal\":{}}},\"floors\":{{\"host_dim\":{},\"dilation\":{},\"congestion\":{},\"load\":{}}},\"gap\":{{\"host_dim\":{},\"dilation\":{}}}}}",
        rec.fingerprint,
        c.host_dim,
        c.dilation,
        c.congestion,
        c.load,
        c.expansion,
        c.minimal,
        f.host_dim,
        f.dilation,
        f.congestion,
        f.load,
        c.host_dim.saturating_sub(f.host_dim),
        c.dilation.saturating_sub(f.dilation),
    );
    out
}

/// The server's `stats` reply, as (db_hits, overlay_hits, live_plans, errors).
fn server_stats(conn: &mut Conn) -> Result<[u64; 4], String> {
    let mut reply = Vec::new();
    conn.call(b"{\"op\":\"stats\"}\n", &mut reply)?;
    let v = parse_json(&String::from_utf8_lossy(&reply)).map_err(|e| format!("stats: {e:?}"))?;
    let field = |name: &str| {
        v.get("stats")
            .and_then(|s| s.get(name))
            .and_then(JsonValue::as_u64)
            .ok_or(format!("stats reply lacks {name}"))
    };
    Ok([
        field("db_hits")?,
        field("overlay_hits")?,
        field("live_plans")?,
        field("errors")?,
    ])
}

/// What one server session measured: the client logs, the wall time of
/// the loop, the server's `stats`, and its peak resident set after
/// [`RSS_AT_REQUESTS`] requests (at the end, if the loop sent fewer).
struct Session {
    logs: Vec<ClientLog>,
    wall_s: f64,
    stats: [u64; 4],
    peak_rss_mb: f64,
}

/// Drive a started server, read its stats and memory, and stop it.
fn session(
    ctx: &Ctx,
    server: Server,
    uni: &Universe,
    seconds: f64,
    tracing: Tracing,
) -> Result<Session, String> {
    let shared = Shared {
        addr: &server.addr,
        pid: server.pid(),
        requests: AtomicU64::new(0),
        rss_mb: OnceLock::new(),
    };
    let (mut logs, wall_s) = drive(ctx, &shared, uni, seconds, tracing)?;
    let stats = server_stats(logs[0].conn.as_mut().ok_or("client 0 has no connection")?)?;
    let peak_rss_mb = match shared.rss_mb.into_inner() {
        Some(rss) => rss,
        None => stats::peak_rss_mb(Some(server.pid())),
    }
    .ok_or("no server VmHWM")?;
    // Close the client connections so the shutdown request finds a worker.
    for log in &mut logs {
        log.conn = None;
    }
    server.stop()?;
    Ok(Session {
        logs,
        wall_s,
        stats,
        peak_rss_mb,
    })
}

/// One client's replies checked: per request whether its digest matched,
/// and how many shapes were database hits and cold misses.
struct ClientCheck {
    ok: Vec<bool>,
    hits: u64,
    misses: u64,
}

/// Rebuild each expected reply of one client from in-process records and
/// compare digests.
fn check_client(
    ctx: &Ctx,
    db: &PlanDb,
    uni: &Universe,
    client: usize,
    log: &ClientLog,
) -> Result<ClientCheck, String> {
    // Expected entry per shape, and whether it is a database hit.
    let mut entries: HashMap<Triple, (String, bool)> = HashMap::new();
    let mut planner = Planner::new();
    let strategies = default_strategies();
    let mut out = ClientCheck {
        ok: Vec::with_capacity(log.digests.len()),
        hits: 0,
        misses: 0,
    };
    let mut gen = uni.requests(ctx.seed, client);
    let (mut shapes, mut expected) = (Vec::new(), String::new());
    for &got in &log.digests {
        gen.next_batch(&mut shapes);
        expected.clear();
        expected.push_str("{\"ok\":true,\"results\":[");
        for (j, dims) in shapes.iter().enumerate() {
            if j > 0 {
                expected.push(',');
            }
            let (entry, hit) = match entries.entry(*dims) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(match db.get(dims).map_err(|e| e.to_string())? {
                    Some(rec) => (expected_entry(&rec, "db"), true),
                    None => {
                        let rec = plan_record(&mut planner, &strategies, dims)
                            .map_err(|e| e.to_string())?;
                        (expected_entry(&rec, "live"), false)
                    }
                }),
            };
            if *hit {
                out.hits += 1;
            } else {
                out.misses += 1;
            }
            expected.push_str(entry);
        }
        expected.push_str("]}");
        out.ok.push(digest(expected.as_bytes()) == got);
    }
    Ok(out)
}

/// Check every logged reply against the expected bytes, each wrong reply
/// one failed request, and that the server's counters agree with what
/// was sent: every hit from the database, every miss planned live once.
fn check_session(
    ctx: &Ctx,
    db: &Path,
    uni: &Universe,
    s: &Session,
    report: &mut Report,
) -> Result<(), String> {
    let db = PlanDb::open(db).map_err(|e| e.to_string())?;
    let checks = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .logs
            .iter()
            .enumerate()
            .map(|(c, log)| {
                let db = &db;
                scope.spawn(move || check_client(ctx, db, uni, c, log))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "check thread panicked".to_owned())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let (mut hits, mut misses) = (0, 0);
    for (c, check) in checks.iter().enumerate() {
        hits += check.hits;
        misses += check.misses;
        for (i, &ok) in check.ok.iter().enumerate() {
            report.check(ok, || {
                format!("client {c} request {i}: reply differs from the expected answers")
            });
        }
    }
    let want = [hits, 0, misses, 0];
    report.check(s.stats == want, || {
        format!(
            "server stats db/overlay/live/errors {:?} != sent {want:?}",
            s.stats
        )
    });
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let db = ctx.work.join("census96.db");
    census::prepare_db(&db)?;
    let uni = Universe::new(ctx.seed);
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        let (s, setup) = Server::spawn(ctx, &db)?;
        setups.push(setup);
        if i + 1 < SETUP_SPAWNS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no server")?;
    let s = session(ctx, server, &uni, ctx.seconds, Tracing::Off)?;
    check_session(ctx, &db, &uni, &s, &mut report)?;

    let windows = window_figures(&s.logs, ctx.seconds);
    let of =
        |pick: fn(&(f64, f64, f64)) -> f64| median(&windows.iter().map(pick).collect::<Vec<_>>());
    let (p50_us, tail_us, shapes_per_s) = (of(|w| w.0), of(|w| w.1), of(|w| w.2));
    let requests: usize = s.logs.iter().map(|l| l.latency_us.len()).sum();
    report.metric("setup_s", median(&setups));
    report.metric("latency_p50_ms", p50_us / 1e3);
    report.metric("latency_tail_ms", tail_us / 1e3);
    report.metric("items_per_s", shapes_per_s);
    report.metric("peak_rss_mb", s.peak_rss_mb);
    report.lines.push(format!(
        "serve-query query_p50_us = {p50_us} us, query_p99_us = {tail_us} us, query_shapes_per_s = {shapes_per_s} shapes/s (medians over {} windows)",
        windows.len()
    ));
    report.lines.push(format!(
        "serve-query {requests} requests, {} live misses, {} shapes/s over the whole loop",
        s.stats[2],
        (requests * gen::BATCH) as f64 / s.wall_s
    ));
    Ok(report)
}

/// `PlanDb::open` as a fresh process sees it: seconds, and the resident
/// memory it added in kB. A process that has already built or freed
/// large buffers would reuse them and hide the growth.
pub fn open_probe(db: &Path) -> Result<String, String> {
    let rss0 = stats::status_kb(None, "VmRSS").ok_or("no VmRSS")?;
    let t = Instant::now();
    let reader = PlanDb::open(db).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let rss1 = stats::status_kb(None, "VmRSS").ok_or("no VmRSS")?;
    std::hint::black_box(&reader);
    Ok(format!("{secs} {}", rss1.saturating_sub(rss0)))
}

/// Medians of [`open_probe`] over fresh processes.
fn open_probes(db: &Path) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut secs, mut kb) = (Vec::new(), Vec::new());
    for _ in 0..OPEN_PROBES {
        let out = Command::new(&exe)
            .arg("--probe-db-open")
            .arg(db)
            .output()
            .map_err(|e| format!("open probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut fields = text.split_whitespace().map(str::parse::<f64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(s)), Some(Ok(k))) => {
                secs.push(s);
                kb.push(k);
            }
            _ => return Err(format!("open probe printed {text:?}")),
        }
    }
    Ok((median(&secs), median(&kb)))
}

/// The service and plandb read layers, timed from outside: the traced
/// TCP loop, then the same request lines replayed in process through
/// `parse_request`, `handle_line`, `QueryEngine::lookup` and `PlanDb::get`.
pub fn traced(
    ctx: &Ctx,
    overhead: bool,
    db: &Path,
    trace: &mut Trace,
) -> Result<(Report, Option<f64>), String> {
    let mut report = Report::default();
    let uni = Universe::new(ctx.seed);
    let (server, _) = Server::spawn(ctx, db)?;
    let (seconds, tracing) = if overhead {
        (ctx.seconds, Tracing::Alternate)
    } else {
        (ctx.seconds / 2.0, Tracing::On)
    };
    let s = session(ctx, server, &uni, seconds, tracing)?;
    check_session(ctx, db, &uni, &s, &mut report)?;
    let pick = |on: bool| -> Vec<f64> {
        s.logs
            .iter()
            .flat_map(|l| {
                l.latency_us
                    .iter()
                    .zip(&l.traced)
                    .filter(move |(_, &t)| t == on)
                    .map(|(&x, _)| x)
            })
            .collect()
    };
    let tcp_p50_us = median(&pick(true));
    let overhead = overhead.then(|| {
        let plain = median(&pick(false));
        (tcp_p50_us - plain) / plain
    });
    let [db_hits, overlay_hits, live, errors] = s.stats;
    report.metric(
        "service.engine.db_hit_ratio",
        db_hits as f64 / (db_hits + overlay_hits + live + errors) as f64,
    );

    let (open_s, open_kb) = open_probes(db)?;
    report.metric("plandb.open_s", open_s);
    report.metric("plandb.open_rss_mb", open_kb / 1024.0);
    let reader = trace
        .time("plandb.open", 0, || PlanDb::open(db))
        .map_err(|e| e.to_string())?;

    let cfg = EngineConfig {
        db: Some(db.to_path_buf()),
        overflow: None,
    };
    let handler = QueryEngine::new(&cfg).map_err(|e| e.to_string())?;
    let looker = QueryEngine::new(&cfg).map_err(|e| e.to_string())?;
    let mut shapes_seen = 0usize;
    let mut shapes = Vec::new();
    for (c, log) in s.logs.iter().enumerate() {
        let mut gen = uni.requests(ctx.seed, c);
        for i in 0..LAYER_REQUESTS.min(log.digests.len()) {
            gen.next_batch(&mut shapes);
            let line = gen::request_line(&shapes);
            let body = line.trim_end();
            let req = trace.time("service.protocol.parse_request", 0, || parse_request(body));
            let (reply, _) = trace.time("service.protocol.handle_line", 0, || {
                handle_line(&handler, body)
            });
            report.check(digest(reply.as_bytes()) == log.digests[i], || {
                format!("client {c} request {i}: in-process reply differs from the TCP reply")
            });
            let Ok(Request::Plan { shapes: dims }) = req else {
                return Err(format!("request line did not parse as a plan: {body}"));
            };
            for d in &dims {
                let t = trace.start();
                let found = looker.lookup(d);
                let name = match found.as_ref().map(|f| f.1) {
                    Ok(Source::Db) => "service.engine.lookup.db",
                    Ok(Source::Live) => "service.engine.lookup.live",
                    _ => "service.engine.lookup.other",
                };
                trace.end(t, name, 0);
            }
            for d in &dims {
                let got = trace.time("plandb.get", 0, || reader.get(d));
                std::hint::black_box(got.ok());
            }
            shapes_seen += dims.len();
        }
    }
    let per_shape = |total_s: f64| total_s * 1e9 / shapes_seen as f64;
    let parse_s = trace.total_s("service.protocol.parse_request");
    let lookup_s: f64 = ["db", "live", "other"]
        .iter()
        .map(|k| trace.total_s(&format!("service.engine.lookup.{k}")))
        .sum();
    report.metric("service.protocol.parse_ns_per_shape", per_shape(parse_s));
    report.metric(
        "service.protocol.render_ns_per_shape",
        per_shape(trace.total_s("service.protocol.handle_line") - parse_s - lookup_s),
    );
    report.metric(
        "service.server.socket_us.p50",
        tcp_p50_us - median(&trace.durations("service.protocol.handle_line")) / 1e3,
    );
    let db_ns = trace.durations("service.engine.lookup.db");
    let live_ns = trace.durations("service.engine.lookup.live");
    report.metric("service.engine.lookup_db_ns.p50", median(&db_ns));
    report.metric(
        "service.engine.lookup_db_ns.p99",
        stats::reported_tail(&db_ns).1,
    );
    report.metric("service.engine.lookup_live_ns.p50", median(&live_ns));
    report.metric("service.engine.lookup_live_ns.max", stats::max(&live_ns));
    report.metric("service.engine.live_count", live_ns.len() as f64);
    let get_ns = trace.durations("plandb.get");
    report.metric("plandb.get_ns.p50", median(&get_ns));
    report.metric("plandb.get_ns.p99", stats::reported_tail(&get_ns).1);
    for log in s.logs {
        trace.absorb(log.trace);
    }
    Ok((report, overhead))
}
