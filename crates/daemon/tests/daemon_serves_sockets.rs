//! End-to-end exercise of the `rvaas` daemon over real sockets: the HTTP
//! query API, concurrent TCP delta-sync sessions riding an epoch publish,
//! the Prometheus scrape, protocol-version negotiation and clean shutdown
//! — all in-process on ephemeral ports.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rvaas_client::{
    decode_inband, read_frame, write_frame, InbandMessage, SyncPayload, SyncSession,
    SYNC_PROTOCOL_VERSION,
};
use rvaas_daemon::{json, Daemon, DaemonConfig, HttpRequest};
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_types::{ClientId, SimTime, SwitchId};

fn started_daemon() -> Daemon {
    let mut config = DaemonConfig::default();
    config.set("topology", "line(4,2)").unwrap();
    config.set("workers", "2").unwrap();
    config.set("sync_listen", "127.0.0.1:0").unwrap();
    config.set("http_listen", "127.0.0.1:0").unwrap();
    Daemon::start(&config).unwrap()
}

/// One raw HTTP/1.1 exchange; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: rvaas\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Reads exactly one response off a persistent connection: headers, then
/// `Content-Length` body bytes — without waiting for EOF.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "EOF inside headers");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw).unwrap();
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// A sync client connection with the socket defaults (Nagle on): one frame
/// is one write, so a request never waits for the ACK of its own prefix.
fn sync_connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).unwrap()
}

/// Runs one sync exchange on an open connection and applies the response.
fn sync_roundtrip(stream: &mut TcpStream, session: &mut SyncSession, client: ClientId) {
    let request = session.request(client);
    write_frame(stream, &request.encode()).unwrap();
    let frame = read_frame(stream).unwrap().expect("server closed early");
    let InbandMessage::SyncResponse(response) = decode_inband(&frame).unwrap() else {
        panic!("expected a SyncResponse");
    };
    session.apply(&response).unwrap();
}

#[test]
fn daemon_serves_http_and_concurrent_sync_sessions_over_an_epoch_publish() {
    let daemon = started_daemon();
    let http_addr = daemon.http_addr().unwrap();
    let sync_addr = daemon.sync_addr().unwrap();

    // --- HTTP query API -------------------------------------------------
    let (status, body) = http(
        http_addr,
        "POST",
        "/v1/query",
        r#"{"client": 1, "query": "isolation"}"#,
    );
    assert_eq!(status, 200, "query failed: {body}");
    let verdict = json::parse(&body).unwrap();
    assert_eq!(verdict.get("client").unwrap().as_int(), Some(1));
    assert_eq!(verdict.get("epoch_serial").unwrap().as_int(), Some(1));
    assert!(verdict.get("result").unwrap().get("isolated").is_some());

    let (status, body) = http(
        http_addr,
        "POST",
        "/v1/query",
        r#"{"client": 1, "query": "seance"}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown query"), "{body}");
    let (status, _) = http(http_addr, "GET", "/v1/query", "");
    assert_eq!(status, 405);
    let (status, _) = http(http_addr, "GET", "/v1/nonsense", "");
    assert_eq!(status, 404);

    // --- two concurrent sync sessions + concurrent HTTP queries ---------
    // Both connections stay open across the epoch publish; each issues its
    // baseline reset in its own thread while HTTP queries run alongside.
    let mut conn1 = sync_connect(sync_addr);
    let mut conn2 = sync_connect(sync_addr);
    let mut session1 = SyncSession::new();
    let mut session2 = SyncSession::new();
    std::thread::scope(|scope| {
        scope.spawn(|| sync_roundtrip(&mut conn1, &mut session1, ClientId(1)));
        scope.spawn(|| sync_roundtrip(&mut conn2, &mut session2, ClientId(2)));
        scope.spawn(|| {
            let (status, _) = http(
                http_addr,
                "POST",
                "/v1/query",
                r#"{"client": 2, "query": "neutrality"}"#,
            );
            assert_eq!(status, 200);
        });
    });
    assert_eq!(session1.serial(), 1);
    assert_eq!(session2.serial(), 1);

    // Publish epoch 2 through the daemon's service handle; both live
    // sessions must ride the delta (not a reset) to the new serial. Client
    // 1 holds a standing query so the delta re-verifies it — the epoch's
    // provenance record must account for exactly that.
    daemon
        .sync_server()
        .subscribe(ClientId(1), rvaas_client::QuerySpec::Isolation);
    let mut snapshot = daemon.service().store().current().snapshot.clone();
    snapshot.record_installed(
        SwitchId(1),
        FlowEntry::new(7, FlowMatch::to_ip(0x2000), vec![Action::Drop]),
        SimTime::from_millis(20),
    );
    let serial = daemon
        .service()
        .try_publish(&snapshot, SimTime::from_millis(20))
        .unwrap();
    assert_eq!(serial, 2);

    for (conn, session, client) in [
        (&mut conn1, &mut session1, ClientId(1)),
        (&mut conn2, &mut session2, ClientId(2)),
    ] {
        let request = session.request(client);
        write_frame(conn, &request.encode()).unwrap();
        let frame = read_frame(conn).unwrap().unwrap();
        let InbandMessage::SyncResponse(response) = decode_inband(&frame).unwrap() else {
            panic!("expected a SyncResponse");
        };
        assert!(
            matches!(response.payload, SyncPayload::Delta { .. }),
            "live session must get a delta, got {:?}",
            response.payload
        );
        session.apply(&response).unwrap();
        assert_eq!(session.serial(), 2);
    }

    // --- /v1/epoch reflects the publish ---------------------------------
    let (status, body) = http(http_addr, "GET", "/v1/epoch", "");
    assert_eq!(status, 200);
    let epoch = json::parse(&body).unwrap();
    assert_eq!(epoch.get("serial").unwrap().as_int(), Some(2));
    let rules = daemon.service().store().current().snapshot.rule_count();
    assert!(rules > 0);
    assert_eq!(epoch.get("rules").unwrap().as_int(), Some(rules as u64));

    // --- /v1/epoch/2/provenance audits the publish -----------------------
    // The record must carry the exact delta size and the re-verification
    // work the two sync sessions just observed: one rule added, one
    // standing query re-verified, two delta-serving sessions.
    let (status, body) = http(http_addr, "GET", "/v1/epoch/2/provenance", "");
    assert_eq!(status, 200, "{body}");
    let record = json::parse(&body).unwrap();
    assert_eq!(record.get("serial").unwrap().as_int(), Some(2));
    assert_eq!(record.get("added").unwrap().as_int(), Some(1));
    assert_eq!(record.get("delta_rules").unwrap().as_int(), Some(1));
    assert_eq!(
        record.get("reverified").unwrap().as_int(),
        Some(1),
        "one standing query rode the delta"
    );
    assert_eq!(record.get("reverify_sessions").unwrap().as_int(), Some(2));
    assert!(record.get("trace").unwrap().as_int().unwrap() > 0);
    let (status, _) = http(http_addr, "GET", "/v1/epoch/99/provenance", "");
    assert_eq!(status, 404);
    let (status, _) = http(http_addr, "GET", "/v1/epoch/seance/provenance", "");
    assert_eq!(status, 400);

    // --- /metrics parses and carries the daemon's counters --------------
    let (status, text) = http(http_addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let samples = rvaas_telemetry::parse_text(&text).unwrap();
    let value_of = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from scrape"))
            .value
    };
    assert!(
        value_of("rvaas_http_requests_total") >= 1.0,
        "the scrape observes itself"
    );
    assert!(value_of("rvaas_sync_sessions_total") >= 2.0);
    assert!(value_of("rvaas_queries_total") >= 1.0);
    // Both sync sessions are still open, each holding a connection thread.
    assert_eq!(value_of("rvaas_sync_sessions_active"), 2.0);

    // Closed, they release their threads — once each thread's next read
    // notices the EOF.
    drop(conn1);
    drop(conn2);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let still_active = || {
        let (_, text) = http(http_addr, "GET", "/metrics", "");
        let samples = rvaas_telemetry::parse_text(&text).unwrap();
        let active = samples
            .iter()
            .find(|s| s.name == "rvaas_sync_sessions_active");
        active.expect("gauge missing from scrape").value
    };
    while still_active() != 0.0 {
        assert!(
            std::time::Instant::now() < deadline,
            "sessions still counted 10 s after their sockets closed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // --- clean shutdown drains everything -------------------------------
    daemon.shutdown();
}

#[test]
fn http_queries_expose_causal_trace_chains_and_status() {
    let daemon = started_daemon();
    let http_addr = daemon.http_addr().unwrap();

    let (status, body) = http(
        http_addr,
        "POST",
        "/v1/query",
        r#"{"client": 3, "query": "isolation"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let verdict = json::parse(&body).unwrap();
    let trace = verdict.get("trace").unwrap().as_int().unwrap();
    assert!(trace > 0, "verdicts echo a trace id");

    // Fetch the chain by the echoed id: it must be causal — ingress first,
    // the cache lookup then eval in the middle, the verdict after, all under
    // the same trace id with monotone timestamps.
    let (status, body) = http(http_addr, "GET", &format!("/v1/trace/{trace}"), "");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("trace").unwrap().as_int(), Some(trace));
    let Some(json::Json::Array(events)) = doc.get("events") else {
        panic!("trace export lost its events array: {body}");
    };
    let stages: Vec<&str> = events
        .iter()
        .map(|e| e.get("stage").unwrap().as_str().unwrap())
        .collect();
    let pos = |name: &str| {
        stages
            .iter()
            .position(|s| *s == name)
            .unwrap_or_else(|| panic!("{name} missing from chain {stages:?}"))
    };
    assert_eq!(pos("ingress.http"), 0, "ingress leads the chain");
    assert!(pos("ingress.http") < pos("cache.miss"));
    assert!(pos("cache.miss") < pos("pool.eval"));
    assert!(pos("pool.eval") < pos("verdict"));
    let times: Vec<u64> = events
        .iter()
        .map(|e| e.get("at_us").unwrap().as_int().unwrap())
        .collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "timestamps must be monotone: {times:?}"
    );
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| e.get("seq").unwrap().as_int().unwrap())
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seq must be strictly increasing: {seqs:?}"
    );

    // Unknown and malformed trace ids.
    let (status, _) = http(http_addr, "GET", "/v1/trace/18446744073709551615", "");
    assert_eq!(status, 404);
    let (status, _) = http(http_addr, "GET", "/v1/trace/seance", "");
    assert_eq!(status, 400);

    // The slow-capture endpoint is well-formed even when nothing is slow.
    let (status, body) = http(http_addr, "GET", "/v1/trace/slow", "");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert!(doc.get("slow_threshold_us").unwrap().as_int().is_some());
    assert!(matches!(doc.get("retained"), Some(json::Json::Array(_))));

    // The health snapshot reflects the running daemon.
    let (status, body) = http(http_addr, "GET", "/v1/status", "");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("epoch_serial").unwrap().as_int(), Some(1));
    assert_eq!(doc.get("workers").unwrap().as_int(), Some(2));
    assert_eq!(
        doc.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let trace_info = doc.get("trace").unwrap();
    assert_eq!(trace_info.get("enabled"), Some(&json::Json::Bool(true)));
    assert!(trace_info.get("ring_capacity").unwrap().as_int().unwrap() > 0);

    // The scrape carries the connection gauge and the build-info marker.
    let (_, text) = http(http_addr, "GET", "/metrics", "");
    assert!(
        text.contains("rvaas_http_connections_active"),
        "active-connection gauge missing from scrape"
    );
    assert!(
        text.contains(concat!(
            "rvaas_build_info{version=\"",
            env!("CARGO_PKG_VERSION"),
            "\"} 1"
        )),
        "build info gauge missing from scrape"
    );

    daemon.shutdown();
}

#[test]
fn http_connections_persist_across_requests() {
    let daemon = started_daemon();
    let addr = daemon.http_addr().unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    // HTTP/1.1 defaults to keep-alive: several requests ride one socket.
    for _ in 0..2 {
        write!(stream, "GET /v1/epoch HTTP/1.1\r\nHost: rvaas\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert!(body.contains("\"serial\""), "{body}");
    }
    // Asking to close is honoured: response arrives, then EOF.
    write!(
        stream,
        "GET /v1/epoch HTTP/1.1\r\nHost: rvaas\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after Connection: close");
    daemon.shutdown();
}

#[test]
fn rules_file_seeds_the_initial_epoch() {
    let path = std::env::temp_dir().join(format!("rvaas-rules-{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "# seed: one tenant route plus a blanket filter\n\
         1 400 src=10.0.0.1 dst=10.0.0.3 output:2\n\
         2 400 drop\n",
    )
    .unwrap();
    let mut config = DaemonConfig::default();
    config.set("topology", "line(4,2)").unwrap();
    config.set("workers", "1").unwrap();
    config.set("rules_file", path.to_str().unwrap()).unwrap();
    let daemon = Daemon::start(&config).unwrap();
    assert_eq!(
        daemon.service().store().current().snapshot.rule_count(),
        2,
        "the epoch holds exactly the file's rules, not the benign routing"
    );
    daemon.shutdown();

    // A missing or malformed rules file is a config error at start.
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        Daemon::start(&config),
        Err(rvaas_service::ServiceError::Config(_))
    ));
}

#[test]
fn unsupported_sync_version_is_answered_with_a_reject_frame() {
    let daemon = started_daemon();
    let mut stream = sync_connect(daemon.sync_addr().unwrap());
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // A valid request with the version byte bumped to a future major.
    let mut payload = SyncSession::new().request(ClientId(1)).encode();
    payload[1] = 0x20;
    write_frame(&mut stream, &payload).unwrap();
    let frame = read_frame(&mut stream).unwrap().expect("no reject frame");
    let InbandMessage::SyncReject(reject) = decode_inband(&frame).unwrap() else {
        panic!("expected a SyncReject");
    };
    assert_eq!(reject.supported, SYNC_PROTOCOL_VERSION);
    assert_eq!(reject.got, 0x20);
    // The server hangs up after rejecting.
    assert!(read_frame(&mut stream).unwrap().is_none());
    daemon.shutdown();
}

#[test]
fn a_sync_peer_that_stalls_mid_frame_is_dropped_while_another_keeps_syncing() {
    let daemon = started_daemon();
    let sync_addr = daemon.sync_addr().unwrap();
    let mut healthy = sync_connect(sync_addr);
    let mut session = SyncSession::new();
    sync_roundtrip(&mut healthy, &mut session, ClientId(2));

    // Half a length prefix, a pause past the daemon's 100 ms sync read
    // timeout, then the rest. The two bytes the daemon consumed are gone, so
    // it must not start a fresh frame in the middle of this one — that would
    // read 0x000c6865 as a length and wait for 800 KB that never come.
    let mut wire = Vec::new();
    write_frame(&mut wire, b"hello sync!!").unwrap();
    let (head, tail) = wire.split_at(2);
    let mut stalled = sync_connect(sync_addr);
    stalled
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stalled.write_all(head).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    sync_roundtrip(&mut healthy, &mut session, ClientId(2));
    // The daemon may already have hung up on us; that is the point.
    let _ = stalled.write_all(tail);
    // Closed (EOF, or a reset because `tail` arrived after the close) —
    // not answered, and not left waiting for the rest of a phantom frame.
    match stalled.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the torn connection must be closed, got {other:?}"),
    }

    sync_roundtrip(&mut healthy, &mut session, ClientId(2));
    assert_eq!(session.serial(), daemon.service().current_serial());
    daemon.shutdown();
}

#[test]
fn back_to_back_sync_exchanges_are_not_held_back_by_delayed_acks() {
    // A response written as a 4-byte prefix and then the payload, on a socket
    // with Nagle on, waits for the client's delayed ACK of the prefix: about
    // 40 ms per exchange, so these 50 would take two seconds.
    let daemon = started_daemon();
    let mut stream = sync_connect(daemon.sync_addr().unwrap());
    let mut session = SyncSession::new();
    sync_roundtrip(&mut stream, &mut session, ClientId(1));
    let started = Instant::now();
    for _ in 0..50 {
        sync_roundtrip(&mut stream, &mut session, ClientId(1));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "50 sync exchanges took {elapsed:?}"
    );
    assert_eq!(session.serial(), daemon.service().current_serial());
    daemon.shutdown();
}

/// `workers` is a daemon setting: the daemon reports it through the
/// service's registry, and `/v1/status` reads it back from there.
#[test]
fn the_workers_setting_is_reported_in_metrics_and_status() {
    let mut config = DaemonConfig::default();
    config.set("workers", "3").unwrap();
    let daemon = Daemon::start(&config).unwrap();
    let get = |target: &str| {
        let request = HttpRequest {
            method: "GET".to_string(),
            target: target.to_string(),
            body: String::new(),
            close: false,
        };
        rvaas_daemon::http::route(daemon.service(), daemon.sync_server(), &request, 0)
    };
    let metrics = get("/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.lines().any(|line| line == "rvaas_workers 3"),
        "{}",
        metrics.body
    );
    let status = get("/v1/status");
    assert_eq!(status.status, 200);
    assert!(status.body.contains("\"workers\":3,"), "{}", status.body);
    daemon.shutdown();
}

/// The value of an unlabelled series in the daemon's own registry (read in
/// process: a scrape would need a connection thread of its own).
fn gauge(daemon: &Daemon, name: &str) -> i64 {
    let scrape = daemon.service().registry().render_text();
    let sample = scrape
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '));
    sample
        .unwrap_or_else(|| panic!("{name} is not exported"))
        .parse()
        .unwrap()
}

/// Asserts nothing arrives on `stream` for a while (and that it stays open).
fn assert_unanswered(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .unwrap();
    match stream.read(&mut [0u8; 1]) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("expected to be kept waiting, got {other:?}"),
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
}

/// `workers` sizes the one thread tier there is: each listener serves that
/// many connections at a time, each on a thread that answers its own
/// requests. One more is neither refused nor given a thread of its own: it
/// waits, and is served as soon as one of the others closes.
#[test]
fn a_connection_beyond_the_workers_waits_until_one_closes() {
    let daemon = started_daemon(); // workers = 2
    let get = "GET /v1/epoch HTTP/1.1\r\nHost: rvaas\r\n\r\n";

    let http_addr = daemon.http_addr().unwrap();
    let mut served: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(http_addr).unwrap())
        .collect();
    let mut third = TcpStream::connect(http_addr).expect("not refused");
    write!(third, "{get}").unwrap();
    // Both threads are taken, and stay taken while the third waits (an idle
    // keep-alive connection is dropped after a second: keep them busy).
    for stream in &mut served {
        write!(stream, "{get}").unwrap();
        assert_eq!(read_response(stream).0, 200);
    }
    assert_eq!(gauge(&daemon, "rvaas_http_connections_active"), 2);
    assert_unanswered(&mut third);
    assert_eq!(gauge(&daemon, "rvaas_http_connections_active"), 2);
    // A waiting connection is in the kernel's backlog, not the daemon's
    // count: it is counted when a connection thread accepts it.
    assert_eq!(gauge(&daemon, "rvaas_http_connections_total"), 2);
    drop(served.pop());
    assert_eq!(
        read_response(&mut third).0,
        200,
        "served by the freed thread"
    );
    assert_eq!(gauge(&daemon, "rvaas_http_connections_total"), 3);
    drop((served, third));

    // The same for sync sessions, which never idle out.
    let sync_addr = daemon.sync_addr().unwrap();
    let mut sessions: Vec<(TcpStream, SyncSession)> = (0..2)
        .map(|_| (sync_connect(sync_addr), SyncSession::new()))
        .collect();
    for (stream, session) in &mut sessions {
        sync_roundtrip(stream, session, ClientId(1));
    }
    assert_eq!(gauge(&daemon, "rvaas_sync_sessions_active"), 2);
    let (mut third, mut session) = (sync_connect(sync_addr), SyncSession::new());
    write_frame(&mut third, &session.request(ClientId(2)).encode()).unwrap();
    assert_unanswered(&mut third);
    assert_eq!(gauge(&daemon, "rvaas_sync_sessions_active"), 2);
    drop(sessions.pop());
    let frame = read_frame(&mut third).unwrap().expect("served, not closed");
    let InbandMessage::SyncResponse(response) = decode_inband(&frame).unwrap() else {
        panic!("expected a SyncResponse");
    };
    session.apply(&response).unwrap();
    assert_eq!(session.serial(), daemon.service().current_serial());
    drop((sessions, third));
    daemon.shutdown();
}

/// Shutdown does not wait for connections no thread has taken: with every
/// connection thread busy, a waiting connection is closed unanswered, the
/// busy ones end, and `shutdown` returns with both listeners closed.
#[test]
fn shutdown_closes_a_waiting_connection_unanswered() {
    let daemon = started_daemon(); // workers = 2
    let get = "GET /v1/epoch HTTP/1.1\r\nHost: rvaas\r\n\r\n";
    let http_addr = daemon.http_addr().unwrap();
    let sync_addr = daemon.sync_addr().unwrap();
    let mut served: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(http_addr).unwrap())
        .collect();
    for stream in &mut served {
        write!(stream, "{get}").unwrap();
        assert_eq!(read_response(stream).0, 200);
    }
    let mut sessions: Vec<(TcpStream, SyncSession)> = (0..2)
        .map(|_| (sync_connect(sync_addr), SyncSession::new()))
        .collect();
    for (stream, session) in &mut sessions {
        sync_roundtrip(stream, session, ClientId(1));
    }
    let mut waiting = TcpStream::connect(http_addr).expect("not refused");
    write!(waiting, "{get}").unwrap();
    assert_unanswered(&mut waiting);

    let begun = Instant::now();
    daemon.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        begun.elapsed()
    );
    let mut raw = Vec::new();
    match waiting.read_to_end(&mut raw) {
        Ok(_) => assert!(
            raw.is_empty(),
            "answered: {:?}",
            String::from_utf8_lossy(&raw)
        ),
        Err(e) => assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "still open after shutdown: {e}"
        ),
    }
    assert!(
        TcpStream::connect(http_addr).is_err(),
        "http listener must be closed after shutdown"
    );
    drop((served, sessions));
}

#[test]
fn shutdown_stops_accepting_new_connections() {
    let daemon = started_daemon();
    let http_addr = daemon.http_addr().unwrap();
    let sync_addr = daemon.sync_addr().unwrap();
    let (status, _) = http(http_addr, "GET", "/v1/epoch", "");
    assert_eq!(status, 200);
    daemon.shutdown();
    assert!(
        TcpStream::connect(http_addr).is_err(),
        "http listener must be closed after shutdown"
    );
    assert!(
        TcpStream::connect(sync_addr).is_err(),
        "sync listener must be closed after shutdown"
    );
}
