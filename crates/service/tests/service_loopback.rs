//! End-to-end service behavior over a real loopback TCP connection:
//! batched queries mixing database hits with a cold miss, certificate
//! presence on every answer, the overlay on repeat misses, deferred
//! resolution, graceful shutdown, and the write-behind overflow log.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test on a broken socket or fixture"
)]

use cubemesh_obs::{parse_json, JsonValue};
use cubemesh_plandb::{build, load_checkpoint, BuildConfig, RecordStatus};
use cubemesh_service::{serve, EngineConfig, QueryEngine, ServerConfig, Source, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cubemesh-service-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn mini_db(dir: &Path, max_axis: usize) -> PathBuf {
    let out = dir.join("plans.db");
    build(&BuildConfig::new(max_axis), &out).expect("build mini db");
    out
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> JsonValue {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    stream.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    parse_json(reply.trim()).expect("reply parses")
}

#[test]
fn batched_queries_over_tcp_with_cold_miss_and_shutdown() {
    let dir = scratch("tcp");
    let db = mini_db(&dir, 6);
    let overflow = dir.join("cold.ck");
    let engine = Arc::new(
        QueryEngine::new(&EngineConfig {
            db: Some(db),
            overflow: Some(overflow.clone()),
        })
        .expect("engine"),
    );
    let server = serve(
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
        },
        Arc::clone(&engine),
    )
    .expect("serve");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A batch mixing db hits ([2,3,4], [5,5] via [1,5,5]), the 5x5x5
    // fallback, a cold miss outside the universe (7x7x7), and one
    // inadmissible shape (extent 0).
    let v = roundtrip(
        &mut stream,
        &mut reader,
        "{\"op\":\"plan\",\"shapes\":[[2,3,4],[1,5,5],[5,5,5],[7,7,7],[0,3]]}",
    );
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
    let results = v
        .get("results")
        .and_then(JsonValue::as_arr)
        .expect("results");
    assert_eq!(results.len(), 5);

    let src = |r: &JsonValue| {
        r.get("source")
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
    };
    // Every non-error result carries certificate, floors, plan, fingerprint.
    for r in &results[..4] {
        assert!(r.get("certificate").is_some(), "{r:?}");
        assert!(r.get("floors").is_some(), "{r:?}");
        assert!(r.get("plan").and_then(JsonValue::as_str).is_some(), "{r:?}");
        let fp = r
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .expect("fp");
        assert!(fp.starts_with("0x") && fp.len() == 18, "{fp}");
    }
    assert_eq!(src(&results[0]).as_deref(), Some("db"));
    assert_eq!(src(&results[1]).as_deref(), Some("db"));
    assert_eq!(
        results[2].get("status").and_then(JsonValue::as_str),
        Some("no-dilation2-plan")
    );
    assert_eq!(src(&results[3]).as_deref(), Some("live"));
    assert!(results[4].get("error").is_some(), "extent 0 must error");

    // Same cold shape again: now served from the overlay.
    let v = roundtrip(
        &mut stream,
        &mut reader,
        "{\"op\":\"plan\",\"shapes\":[[7,7,7]]}",
    );
    let results = v
        .get("results")
        .and_then(JsonValue::as_arr)
        .expect("results");
    assert_eq!(src(&results[0]).as_deref(), Some("overlay"));

    // Deferred construction: resolve measures a real embedding within
    // its certificate.
    let v = roundtrip(
        &mut stream,
        &mut reader,
        "{\"op\":\"resolve\",\"shape\":[5,6,3]}",
    );
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
    let r = v.get("resolved").expect("resolved");
    assert_eq!(r.get("nodes").and_then(JsonValue::as_u64), Some(90));
    assert_eq!(r.get("within_certificate"), Some(&JsonValue::Bool(true)));

    // Stats reflect the traffic.
    let v = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    let s = v.get("stats").expect("stats");
    assert!(s.get("db_hits").and_then(JsonValue::as_u64) >= Some(2));
    assert_eq!(s.get("live_plans").and_then(JsonValue::as_u64), Some(1));
    assert!(s.get("errors").and_then(JsonValue::as_u64) >= Some(1));

    // Malformed line: typed protocol error, connection stays usable.
    let v = roundtrip(&mut stream, &mut reader, "{\"op\":\"nope\"}");
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));

    // Graceful shutdown via the protocol.
    let v = roundtrip(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
    assert_eq!(v.get("shutting_down"), Some(&JsonValue::Bool(true)));
    assert_eq!(server.join(), 0, "no worker may panic");

    // The cold miss landed in the write-behind overflow log, certified.
    engine.flush_overflow();
    let cold = load_checkpoint(&overflow).expect("overflow log loads");
    assert_eq!(cold.len(), 1);
    assert_eq!(cold[0].key, vec![7, 7, 7]);
    assert_eq!(cold[0].status, RecordStatus::Certified);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_without_database_plans_everything_live() {
    let engine = QueryEngine::new(&EngineConfig::default()).expect("engine");
    let (rec, source) = engine.lookup(&[4, 4, 4]).expect("lookup");
    assert_eq!(source, Source::Live);
    assert_eq!(rec.status, RecordStatus::Certified);
    let (_, source) = engine.lookup(&[4, 4, 4]).expect("lookup again");
    assert_eq!(source, Source::Overlay);
    let stats = engine.stats();
    assert_eq!(stats.db_records, 0);
    assert_eq!(stats.live_plans, 1);
    assert_eq!(stats.overlay_hits, 1);
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let dir = scratch("concurrent");
    let db = mini_db(&dir, 5);
    let engine = Arc::new(
        QueryEngine::new(&EngineConfig {
            db: Some(db),
            overflow: None,
        })
        .expect("engine"),
    );
    let server = serve(
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
        },
        Arc::clone(&engine),
    )
    .expect("serve");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let v = roundtrip(
                    &mut stream,
                    &mut reader,
                    "{\"op\":\"plan\",\"shapes\":[[2,3,5],[4,4,4],[5,5,5]]}",
                );
                let results = v
                    .get("results")
                    .and_then(JsonValue::as_arr)
                    .expect("results")
                    .to_vec();
                results
                    .iter()
                    .map(|r| {
                        r.get("fingerprint")
                            .and_then(JsonValue::as_str)
                            .expect("fp")
                            .to_owned()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let answers: Vec<Vec<String>> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    for a in &answers[1..] {
        assert_eq!(
            a, &answers[0],
            "all clients must see identical fingerprints"
        );
    }
    server.request_shutdown();
    assert_eq!(server.join(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A live-planning server on an ephemeral port, for the hostile-input
/// tests below.
fn live_server() -> cubemesh_service::Server {
    let engine = Arc::new(QueryEngine::new(&EngineConfig::default()).expect("engine"));
    serve(
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
        },
        engine,
    )
    .expect("serve")
}

fn connect(server: &cubemesh_service::Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    // A server that never answers fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn error_text(v: &JsonValue) -> &str {
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)), "{v:?}");
    v.get("error")
        .and_then(JsonValue::as_str)
        .expect("error text")
}

#[test]
fn deeply_nested_request_is_rejected_and_the_server_survives() {
    let server = live_server();
    let (mut stream, mut reader) = connect(&server);
    // Half a million `[`: deep enough to overflow a worker's stack (and
    // abort the whole server) if the parser had no depth cap.
    let v = roundtrip(&mut stream, &mut reader, &"[".repeat(500_000));
    assert!(error_text(&v).contains("nesting"), "{v:?}");

    // The same server still answers, on this connection and a new one.
    let v = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)), "{v:?}");
    let (mut fresh, mut fresh_reader) = connect(&server);
    let v = roundtrip(&mut fresh, &mut fresh_reader, "{\"op\":\"stats\"}");
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)), "{v:?}");

    roundtrip(&mut fresh, &mut fresh_reader, "{\"op\":\"shutdown\"}");
    assert_eq!(server.join(), 0, "no worker may panic");
}

#[test]
fn oversized_request_line_gets_an_error_and_a_close() {
    let server = live_server();
    let (mut stream, mut reader) = connect(&server);
    // One byte past the cap and no newline: a client streaming an
    // endless line. The server must answer once it has read the cap,
    // not keep buffering.
    stream
        .write_all(&vec![b' '; MAX_LINE_BYTES + 1])
        .expect("write");
    stream.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    let v = parse_json(reply.trim()).expect("reply parses");
    assert!(error_text(&v).contains("exceeds"), "{v:?}");
    // ...and then closes that connection.
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("read close"), 0);

    // Lines within the cap, split across torn reads, still work.
    let (mut fresh, mut fresh_reader) = connect(&server);
    fresh.write_all(b"{\"op\":").expect("write half");
    fresh.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(300));
    let v = roundtrip(&mut fresh, &mut fresh_reader, "\"stats\"}");
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)), "{v:?}");

    roundtrip(&mut fresh, &mut fresh_reader, "{\"op\":\"shutdown\"}");
    assert_eq!(server.join(), 0, "no worker may panic");
}
