//! The event-driven connection front-end, exercised over real TCP against
//! a live server: protocol robustness (frames split at arbitrary byte
//! boundaries, many frames in one write, oversized frames, slow-loris
//! half-frames, statements nested past the SQL parser's depth cap) and
//! the recorded-log transcript — the server must answer a recorded request
//! log with **byte-identical** response frames to the ones
//! `testdata/recorded-log-replies.jsonl` holds.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use astore_datagen::ssb;
use astore_server::json::Json;
use astore_server::{start, Engine, ServerConfig, ServerHandle};
use astore_storage::snapshot::SharedDatabase;

fn serve(idle_timeout_ms: u64) -> ServerHandle {
    let db = ssb::generate(0.002, 42);
    let engine = Arc::new(Engine::new(SharedDatabase::new(db)));
    start(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 64,
            idle_timeout_ms,
            ..Default::default()
        },
    )
    .unwrap()
}

fn read_line(stream: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    stream.read_line(&mut line).unwrap();
    line
}

#[test]
fn frames_split_at_every_byte_boundary_against_live_server() {
    let server = serve(0);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let request = b"{\"sql\":\"SELECT count(*) AS c FROM date\"}\n";
    // Drip the same request one byte per write, three times over: the
    // reactor must reassemble every split identically.
    for _ in 0..3 {
        for b in request {
            stream.write_all(std::slice::from_ref(b)).unwrap();
            stream.flush().unwrap();
        }
        let resp = read_line(&mut reader);
        let frame = astore_server::json::parse(resp.trim()).unwrap();
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        assert!(frame.get("rows").is_some(), "{resp}");
    }
    server.shutdown();
}

#[test]
fn pipelined_frames_in_one_write_answered_in_order() {
    let server = serve(0);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Session statement ids are handed out sequentially, so pipelining N
    // prepare frames proves responses come back in request order: the
    // i-th response must carry stmt_id i+1. Interleave empty and
    // whitespace-only frames — both are skipped without a response.
    const N: usize = 32;
    let mut batch = String::new();
    for _ in 0..N {
        batch.push_str("{\"prepare\":\"SELECT count(*) AS c FROM date WHERE d_year = ?\"}\n");
        batch.push('\n');
        batch.push_str("   \n");
    }
    stream.write_all(batch.as_bytes()).unwrap();
    stream.flush().unwrap();
    for i in 0..N {
        let resp = read_line(&mut reader);
        let frame = astore_server::json::parse(resp.trim()).unwrap();
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        assert_eq!(
            frame.get("stmt_id").and_then(Json::as_i64),
            Some(i as i64 + 1),
            "response {i} out of order: {resp}"
        );
    }
    // The session is intact: execute the first prepared statement.
    stream.write_all(b"{\"execute\":{\"id\":1,\"params\":[1993]}}\n").unwrap();
    let resp = read_line(&mut reader);
    let frame = astore_server::json::parse(resp.trim()).unwrap();
    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    server.shutdown();
}

#[test]
fn oversized_frame_gets_typed_error_then_close() {
    let server = serve(0);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // 1 MiB + change of newline-free garbage.
    let blob = vec![b'a'; (1 << 20) + 4096];
    stream.write_all(&blob).unwrap();
    stream.flush().unwrap();
    let resp = read_line(&mut reader);
    let frame = astore_server::json::parse(resp.trim()).unwrap();
    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
    assert_eq!(frame.get("code").and_then(Json::as_str), Some("bad_request"), "{resp}");
    assert_eq!(frame.get("error").and_then(Json::as_str), Some("request exceeds 1 MiB"));
    // The server hangs up after the error frame.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unexpected bytes after oversize error: {rest:?}");
    server.shutdown();
}

/// A 4 KB frame of 2 000 nested parentheses is a typed `parse_error`, not
/// a worker thread's stack overflow, and the connection keeps serving.
#[test]
fn deeply_nested_sql_gets_parse_error_and_connection_survives() {
    let server = serve(0);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let sql = format!(
        "SELECT count(*) AS c FROM lineorder, date WHERE lo_orderdate = d_datekey AND \
         {}d_year = 1993{}",
        "(".repeat(2000),
        ")".repeat(2000)
    );
    let frame = Json::obj([("sql", Json::Str(sql))]).frame();
    assert!(frame.len() > 4096, "{}", frame.len());
    stream.write_all(&frame).unwrap();
    let resp = read_line(&mut reader);
    let reply = astore_server::json::parse(resp.trim()).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("parse_error"), "{resp}");
    assert!(resp.contains("nesting too deep"), "{resp}");
    stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    let resp = read_line(&mut reader);
    let reply = astore_server::json::parse(resp.trim()).unwrap();
    assert_eq!(reply.get("pong").and_then(Json::as_bool), Some(true), "{resp}");
    server.shutdown();
}

#[test]
fn slow_loris_half_frame_reaped_while_idle_connection_survives() {
    let server = serve(250);
    // Connection A stalls mid-frame; connection B is connected but silent.
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    loris.write_all(b"{\"sql\":\"SELECT co").unwrap();
    loris.flush().unwrap();
    std::thread::sleep(Duration::from_millis(1200));
    // The half-open frame was reaped: the socket reads EOF (or reset).
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    match loris.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("slow-loris connection still served {n} bytes"),
        Err(_) => {} // reset is an acceptable way to die
    }
    // The idle connection (no buffered bytes) was NOT reaped and still works.
    idle.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    idle.flush().unwrap();
    let resp = read_line(&mut BufReader::new(idle));
    let frame = astore_server::json::parse(resp.trim()).unwrap();
    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Recorded-log transcript: the replies are pinned byte for byte.
// ---------------------------------------------------------------------------

/// A recorded request log covering the whole protocol surface: text SQL
/// (reads and writes), prepare/execute/close, malformed JSON, parse
/// errors, unknown commands, unknown statement ids, wrong parameter
/// counts. Stats/metrics frames are excluded — their payloads carry
/// clocks and counters that legitimately differ between two servers.
fn request_log() -> Vec<String> {
    let mut log: Vec<String> = vec![
        r#"{"sql":"SELECT count(*) AS c FROM date"}"#.into(),
        r#"{"sql":"SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year"}"#.into(),
        r#"{"sql":"SELEKT nonsense"}"#.into(),
        r#"this is not json"#.into(),
        r#"{"cmd":"no_such_command"}"#.into(),
        r#"{"prepare":"SELECT count(*) AS c FROM date WHERE d_year = ?"}"#.into(),
        r#"{"execute":{"id":1,"params":[1993]}}"#.into(),
        r#"{"execute":{"id":1,"params":[1994]}}"#.into(),
        r#"{"execute":{"id":1,"params":[]}}"#.into(),
        r#"{"execute":{"id":999,"params":[1]}}"#.into(),
        r#"{"sql":"UPDATE customer SET c_mktsegment = 'MACHINERY' WHERE rowid = 3"}"#.into(),
        r#"{"sql":"SELECT count(*) AS c FROM customer WHERE c_mktsegment = 'MACHINERY'"}"#.into(),
        r#"{"close":1}"#.into(),
        r#"{"close":1}"#.into(),
        r#"{"execute":{"id":1,"params":[1995]}}"#.into(),
        r#"{"prepare":"UPDATE customer SET c_mktsegment = ? WHERE rowid = ?"}"#.into(),
        r#"{"execute":{"id":2,"params":["BUILDING",5]}}"#.into(),
        r#"{"sql":""}"#.into(),
    ];
    // A few parameterized scans with rotating literals.
    for year in [1992, 1994, 1996, 1998] {
        log.push(format!(
            "{{\"sql\":\"SELECT sum(lo_extendedprice * lo_discount) AS revenue \
             FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = {year} \
             AND lo_discount BETWEEN 1 AND 3\"}}"
        ));
    }
    log
}

/// Replays the log on one connection, one frame per round trip, and
/// returns every response with its volatile `elapsed_us` stamp removed.
fn replay(addr: std::net::SocketAddr, log: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    log.iter()
        .map(|req| {
            stream.write_all(req.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            stream.flush().unwrap();
            let resp = read_line(&mut reader);
            let mut frame = astore_server::json::parse(resp.trim())
                .unwrap_or_else(|e| panic!("unparseable response to {req}: {e}"));
            if let Json::Object(m) = &mut frame {
                m.remove("elapsed_us");
            }
            frame.to_string()
        })
        .collect()
}

/// The replies the recorded log drew when the reactor and the retired
/// thread-per-connection model still served it side by side and agreed
/// byte for byte; `elapsed_us` stripped, one frame a line.
const RECORDED_REPLIES: &str = include_str!("../testdata/recorded-log-replies.jsonl");

#[test]
fn io_models_serve_byte_identical_frames_for_recorded_log() {
    let log = request_log();
    let server = serve(0);
    let replies = replay(server.addr(), &log);
    let recorded: Vec<&str> = RECORDED_REPLIES.lines().collect();
    assert_eq!(replies.len(), recorded.len(), "one recorded reply per request");
    for (i, (got, want)) in replies.iter().zip(&recorded).enumerate() {
        assert_eq!(got, want, "response {i} diverged for request {:?}", log[i]);
    }
    server.shutdown();
}
