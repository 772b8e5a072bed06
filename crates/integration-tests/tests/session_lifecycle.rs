//! Session-registry lifecycle under connection churn: thousands of
//! open/close cycles against a live server must leave no registries (and
//! no connection-gauge drift) behind.
//!
//! Lives in its own test binary: [`astore_server::session::live_registries`]
//! is process-global, so concurrent tests creating sessions would make the
//! baseline race.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use astore_datagen::ssb;
use astore_server::json::Json;
use astore_server::session::live_registries;
use astore_server::{start, Engine, ServerConfig, ServerHandle};
use astore_storage::snapshot::SharedDatabase;

fn serve() -> ServerHandle {
    let db = ssb::generate(0.001, 7);
    let engine = Arc::new(Engine::new(SharedDatabase::new(db)));
    start(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 64,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Opens and closes `cycles` connections; every `probe_every`-th sends one
/// request first (so some sessions do real work before dying). Then waits
/// for the server to tear every session down.
fn churn(cycles: usize, probe_every: usize) {
    let server = serve();
    let baseline = live_registries();
    for i in 0..cycles {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        if i % probe_every == 0 {
            stream.write_all(b"{\"prepare\":\"SELECT count(*) AS c FROM date\"}\n").unwrap();
            let mut line = String::new();
            BufReader::new(stream.try_clone().unwrap()).read_line(&mut line).unwrap();
            assert!(line.contains("\"ok\":true"), "probe {i} failed: {line}");
        }
        // Drop closes the socket; the server must notice and free the
        // session registry promptly.
    }
    // Teardown is asynchronous (the reactor reaps on its next event batch)
    // — poll, bounded.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let live = live_registries();
        if live <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{live} registries still alive after churn (baseline {baseline})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The connection gauge drains too, under the same deadline.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    loop {
        stream.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let frame = astore_server::json::parse(line.trim()).unwrap();
        let open = frame
            .get("stats")
            .and_then(|s| s.get("open_connections"))
            .and_then(Json::as_i64)
            .unwrap();
        if open == 1 {
            break; // only the probing connection
        }
        assert!(Instant::now() < deadline, "{open} connections still counted open after churn");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(reader);
    drop(stream);
    server.shutdown();
    assert_eq!(live_registries(), baseline, "shutdown leaked registries");
}

#[test]
fn reactor_survives_10k_open_close_cycles_without_leaking() {
    churn(10_000, 100);
}
