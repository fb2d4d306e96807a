//! A hand-rolled, deliberately minimal HTTP/1.1 server face.
//!
//! The build environment vendors no HTTP crate, so this module implements
//! just enough of RFC 9112 to serve the daemon's API: request-line +
//! headers + `Content-Length` body, persistent connections with
//! HTTP/1.0-vs-1.1 `Connection` header semantics (pipelined requests are
//! answered in order), and a segment router.
//! No chunked encoding, no TLS. Routes:
//!
//! * `POST /v1/query` — run one verification query (trace minted at
//!   ingress, echoed in the verdict JSON).
//! * `GET /v1/epoch` — current epoch serial, session and content digest.
//! * `GET /v1/epoch/<serial>/provenance` — the provenance record for one
//!   published epoch.
//! * `GET /v1/status` — liveness/health snapshot.
//! * `GET /v1/trace/<id>` — the flight-recorder event chain for a trace.
//! * `GET /v1/trace/slow` — the retained slow/error captures.
//! * `GET /metrics` — Prometheus text exposition.

use std::io::{self, BufRead, ErrorKind, Write};

use rvaas_service::{ServiceError, SyncServer, VerificationService};
use rvaas_telemetry::{trace::recorder, CaptureReason, TraceContext, TraceStage};

use rvaas_types::json::{boolean, object, quote, uint};

use crate::json;

/// Upper bound on request head + body; a query body is tens of bytes.
const MAX_REQUEST_LEN: usize = 64 * 1024;

/// A parsed HTTP request: just the parts the router needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method, upper-case as received.
    pub method: String,
    /// The request target (path; any query string is kept verbatim).
    pub target: String,
    /// The body, UTF-8 decoded.
    pub body: String,
    /// Whether the client asked for the connection to close after this
    /// exchange (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

/// A response ready for serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body.
    pub body: String,
}

impl HttpResponse {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        HttpResponse::json(status, object([("error", quote(message))]))
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serialises status line, headers and body onto `w`. `keep_alive`
    /// selects the `Connection` header; the caller decides based on the
    /// request's wishes and its own shutdown state.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }
}

/// Reads and parses one HTTP request off `r`, consuming exactly its bytes:
/// whatever follows it (a pipelined request) stays in `r` for the next call.
///
/// Returns `Ok(None)` when the connection went idle-quiet: a clean EOF or
/// a read timeout before any request byte arrived — the keep-alive loop
/// closes without answering. A timeout or EOF *mid*-request is an error.
///
/// # Errors
///
/// Returns a human-readable message for malformed, oversized or truncated
/// requests (the caller answers 400 and closes).
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Option<HttpRequest>, String> {
    // Take buffered bytes up to the blank line terminating the header block,
    // and no further.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        let available = match r.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if idle_timeout(&e) && buf.is_empty() => return Ok(None),
            Err(e) => return Err(format!("read failed: {e}")),
        };
        if available.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err("connection closed mid-request".to_string());
        }
        let seen = buf.len();
        buf.extend_from_slice(available);
        // The terminator may straddle the previous read.
        let from = seen.saturating_sub(3);
        let end = find_head_end(&buf[from..]).map(|at| from + at + 4);
        let taken = end.unwrap_or(buf.len());
        if taken > MAX_REQUEST_LEN {
            return Err("request head too large".to_string());
        }
        r.consume(taken - seen);
        if let Some(end) = end {
            break end - 4;
        }
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(format!("malformed request line {request_line:?}"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    // HTTP/1.0 closes by default; HTTP/1.1 keeps alive by default.
    let mut close = version == "HTTP/1.0";
    // The body is framed by one all-digit Content-Length or not at all: a
    // Transfer-Encoding or a second length could make the bytes after this
    // request parse differently than a front end read them (RFC 9112 §6.3).
    // A field name followed by whitespace (`Content-Length : 26`) is refused
    // for the same reason, as RFC 9112 §5.1 requires: read as an unknown
    // field, its length would go unseen.
    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.ends_with([' ', '\t']) {
                return Err(format!("whitespace before the colon of {name:?}"));
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err("Transfer-Encoding is not supported".to_string());
            } else if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                if content_length.is_some() {
                    return Err("repeated Content-Length".to_string());
                }
                let digits = value
                    .parse()
                    .ok()
                    .filter(|_| value.bytes().all(|b| b.is_ascii_digit()));
                content_length =
                    Some(digits.ok_or_else(|| format!("bad Content-Length {value:?}"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_REQUEST_LEN {
        return Err("request body too large".to_string());
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => "connection closed mid-body".to_string(),
        _ => format!("read failed: {e}"),
    })?;
    Ok(Some(HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        body: String::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?,
        close,
    }))
}

fn idle_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a request target into its non-empty path segments, dropping any
/// query string. `"/v1/trace/7?x=1"` → `["v1", "trace", "7"]`.
#[must_use]
pub fn path_segments(target: &str) -> Vec<&str> {
    let path = target.split('?').next().unwrap_or("");
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// Maps a [`ServiceError`] onto the HTTP status that describes it.
#[must_use]
pub fn status_for(error: &ServiceError) -> u16 {
    match error {
        ServiceError::InvalidQuery(_)
        | ServiceError::Codec(_)
        | ServiceError::Config(_)
        | ServiceError::VersionMismatch { .. } => 400,
        ServiceError::PublishRejected(_) => 500,
    }
}

/// Routes one request against the running service. `uptime_secs` is the
/// daemon's wall-clock age, surfaced by `/v1/status`.
#[must_use]
pub fn route(
    service: &VerificationService,
    sync_server: &SyncServer,
    request: &HttpRequest,
    uptime_secs: u64,
) -> HttpResponse {
    let segments = path_segments(&request.target);
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "query"]) => match handle_query(service, &request.body) {
            Ok(body) => HttpResponse::json(200, body),
            Err(err) => HttpResponse::error(status_for(&err), &err.to_string()),
        },
        ("GET", ["v1", "epoch"]) => HttpResponse::json(200, epoch_body(service, sync_server)),
        ("GET", ["v1", "epoch", serial, "provenance"]) => match serial.parse::<u64>() {
            Ok(serial) => match service.store().provenance(serial) {
                Some(record) => HttpResponse::json(200, json::render_provenance(&record)),
                None => HttpResponse::error(404, &format!("no provenance for epoch {serial}")),
            },
            Err(_) => HttpResponse::error(400, &format!("bad epoch serial {serial:?}")),
        },
        ("GET", ["v1", "status"]) => {
            HttpResponse::json(200, status_body(service, sync_server, uptime_secs))
        }
        ("GET", ["v1", "trace", "slow"]) => {
            let rec = recorder();
            HttpResponse::json(
                200,
                json::render_retained(&rec.retained(), rec.slow_threshold_us()),
            )
        }
        ("GET", ["v1", "trace", id]) => match id.parse::<u64>() {
            Ok(id) => trace_body(id),
            Err(_) => HttpResponse::error(400, &format!("bad trace id {id:?}")),
        },
        ("GET", ["metrics"]) => HttpResponse::text(200, service.registry().render_text()),
        (_, ["v1", "query"] | ["v1", "epoch"] | ["v1", "status"] | ["metrics"])
        | (_, ["v1", "epoch", _, "provenance"] | ["v1", "trace", _]) => {
            HttpResponse::error(405, &format!("method {} not allowed", request.method))
        }
        _ => HttpResponse::error(404, &format!("no route for {}", request.target)),
    }
}

fn handle_query(service: &VerificationService, body: &str) -> Result<String, ServiceError> {
    let (client, spec) = json::parse_query_request(body)?;
    let trace = TraceContext::mint();
    trace.event(
        TraceStage::IngressHttp,
        u64::from(client.0),
        body.len() as u64,
    );
    let trace_id = trace.id;
    match service.try_query_traced(client, spec, trace) {
        Ok(response) => Ok(json::render_response(&response)),
        Err(err) => {
            let rec = recorder();
            TraceContext::from_id(trace_id.0).event(
                TraceStage::QueryError,
                u64::from(client.0),
                u64::from(status_for(&err)),
            );
            rec.capture(trace_id, CaptureReason::Error);
            Err(err)
        }
    }
}

/// The `/v1/trace/<id>` body: the live ring chain, falling back to the
/// retained captures when the ring has already been overwritten.
fn trace_body(id: u64) -> HttpResponse {
    let rec = recorder();
    let trace = rvaas_telemetry::TraceId(id);
    let events = rec.chain(trace);
    if !events.is_empty() {
        return HttpResponse::json(200, json::render_trace(id, &events));
    }
    if let Some(retained) = rec.retained().into_iter().find(|r| r.trace == trace) {
        return HttpResponse::json(200, json::render_trace(id, &retained.events));
    }
    HttpResponse::error(404, &format!("no events recorded for trace {id}"))
}

fn epoch_body(service: &VerificationService, sync_server: &SyncServer) -> String {
    let epoch = service.store().current();
    // A stable content digest over the published digest set, so two scrapes
    // can tell "same serial" from "same rules".
    object([
        ("serial", uint(epoch.serial)),
        ("session", uint(sync_server.session_id())),
        ("rules", uint(epoch.rules.len() as u64)),
        ("digest", quote(&format!("{:016x}", epoch.content_digest()))),
    ])
}

fn status_body(
    service: &VerificationService,
    sync_server: &SyncServer,
    uptime_secs: u64,
) -> String {
    let epoch = service.store().current();
    // Set from the `workers` count at start, so never negative.
    let workers = crate::daemon::workers_gauge(&service.registry()).get();
    let rec = recorder();
    let trace = object([
        ("enabled", boolean(rec.is_enabled())),
        ("ring_capacity", uint(rec.capacity() as u64)),
        ("occupancy", uint(rec.occupancy() as u64)),
        ("retained", uint(rec.retained().len() as u64)),
        ("slow_threshold_us", uint(rec.slow_threshold_us())),
    ]);
    object([
        ("version", quote(env!("CARGO_PKG_VERSION"))),
        ("session", uint(sync_server.session_id())),
        ("epoch_serial", uint(epoch.serial)),
        ("uptime_secs", uint(uptime_secs)),
        ("workers", uint(u64::try_from(workers).unwrap_or_default())),
        ("cache_entries", uint(service.cache_entries() as u64)),
        ("trace", trace),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn requests_parse_with_and_without_bodies() {
        let raw = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_request(&mut Cursor::new(raw.to_vec()))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/query");
        assert_eq!(req.body, "body");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");

        let raw = b"GET /metrics HTTP/1.0\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw.to_vec()))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
        assert!(req.close, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn connection_headers_override_version_defaults() {
        let raw = b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw.to_vec()))
            .unwrap()
            .unwrap();
        assert!(req.close);

        let raw = b"GET /metrics HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw.to_vec()))
            .unwrap()
            .unwrap();
        assert!(!req.close);
    }

    #[test]
    fn pipelined_requests_parse_one_per_call() {
        let raw = b"POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody\
                    GET /v1/status HTTP/1.1\r\n\r\n";
        // Small read buffers split the head terminator across reads.
        for capacity in [raw.len(), 1, 2, 3, 5] {
            let mut r = std::io::BufReader::with_capacity(capacity, &raw[..]);
            let first = read_request(&mut r).unwrap().unwrap();
            assert_eq!(
                (first.method.as_str(), first.body.as_str()),
                ("POST", "body")
            );
            let second = read_request(&mut r).unwrap().unwrap();
            assert_eq!(
                (second.method.as_str(), second.target.as_str()),
                ("GET", "/v1/status")
            );
            assert_eq!(read_request(&mut r).unwrap(), None);
        }
    }

    #[test]
    fn idle_connections_read_as_none() {
        // Clean EOF before any byte: idle keep-alive close, not an error.
        let raw: &[u8] = b"";
        assert_eq!(read_request(&mut Cursor::new(raw.to_vec())).unwrap(), None);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let oversized = format!(
            "GET /x HTTP/1.1\r\nX: {}\r\n\r\n",
            "a".repeat(MAX_REQUEST_LEN)
        );
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"[..],
            &b"POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1a\r\n{\"client\":1,\"query\":\"geo\"}\r\n0\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: 26\r\nContent-Length: 0\r\n\r\nGET /v1/epoch HTTP/1.1\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nab"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length : 26\r\n\r\nGET /v1/epoch HTTP/1.1\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nConnection\t: close\r\n\r\n"[..],
            oversized.as_bytes(),
        ] {
            assert!(
                read_request(&mut Cursor::new(raw.to_vec())).is_err(),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn targets_split_into_segments() {
        assert_eq!(path_segments("/v1/trace/7"), vec!["v1", "trace", "7"]);
        assert_eq!(
            path_segments("/v1/trace/7?verbose=1"),
            vec!["v1", "trace", "7"]
        );
        assert_eq!(path_segments("//v1///status/"), vec!["v1", "status"]);
        assert!(path_segments("/").is_empty());
        assert!(path_segments("?x=1").is_empty());
    }

    #[test]
    fn responses_serialise_with_content_length_and_connection() {
        let mut out = Vec::new();
        HttpResponse::json(200, "{\"ok\":true}".to_string())
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        HttpResponse::json(200, "{}".to_string())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn error_and_epoch_bodies_keep_their_bytes() {
        assert_eq!(
            HttpResponse::error(404, "no \"route\" for \\x\n\u{2}").body,
            "{\"error\":\"no \\\"route\\\" for \\\\x\\n\\u0002\"}"
        );
        let topology = rvaas_topology::generators::line(4, 2);
        let service = VerificationService::new(topology.clone(), true);
        let sync_server = SyncServer::new(7, &service.registry());
        assert_eq!(
            epoch_body(&service, &sync_server),
            "{\"serial\":0,\"session\":7,\"rules\":0,\"digest\":\"0000000000000000\"}"
        );
        let at = rvaas_types::SimTime::from_millis(1);
        let rules = rvaas_controlplane::benign_rules(&topology);
        let snapshot = rvaas::NetworkSnapshot::with_rules(at, rules, at);
        service.try_publish(&snapshot, at).unwrap();
        assert_eq!(
            epoch_body(&service, &sync_server),
            "{\"serial\":1,\"session\":7,\"rules\":24,\"digest\":\"b2e47ab437030f1f\"}"
        );
    }

    #[test]
    fn a_verdict_trace_read_as_a_double_still_fetches_its_chain() {
        let topology = rvaas_topology::generators::line(4, 2);
        let service = VerificationService::new(topology.clone(), true);
        let sync_server = SyncServer::new(7, &service.registry());
        let at = rvaas_types::SimTime::from_millis(1);
        let rules = rvaas_controlplane::benign_rules(&topology);
        let snapshot = rvaas::NetworkSnapshot::with_rules(at, rules, at);
        service.try_publish(&snapshot, at).unwrap();
        let request = |method: &str, target: String, body: &str| HttpRequest {
            method: method.to_string(),
            target,
            body: body.to_string(),
            close: false,
        };
        let query = r#"{"client":1,"query":"isolation"}"#;
        let verdict = route(
            &service,
            &sync_server,
            &request("POST", "/v1/query".to_string(), query),
            0,
        );
        assert_eq!(verdict.status, 200, "{}", verdict.body);
        let trace = json::parse(&verdict.body)
            .unwrap()
            .get("trace")
            .unwrap()
            .as_int()
            .unwrap();
        // What a reader that parses every JSON number as a double reads.
        let read: f64 = trace.to_string().parse().unwrap();
        let target = format!("/v1/trace/{}", read as u64);
        let chain = route(&service, &sync_server, &request("GET", target, ""), 0);
        assert_eq!(
            chain.status, 200,
            "trace {trace} read as {read}: {}",
            chain.body
        );
        let served = json::parse(&chain.body)
            .unwrap()
            .get("trace")
            .unwrap()
            .as_int();
        assert_eq!(served, Some(trace));
    }

    #[test]
    fn status_body_keeps_its_key_order() {
        let service = VerificationService::new(rvaas_topology::generators::line(4, 2), true);
        let sync_server = SyncServer::new(7, &service.registry());
        let doc = json::parse(&status_body(&service, &sync_server, 9)).unwrap();
        let keys = |doc: &json::Json| match doc {
            json::Json::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("expected an object, got {other:?}"),
        };
        assert_eq!(
            keys(&doc),
            [
                "version",
                "session",
                "epoch_serial",
                "uptime_secs",
                "workers",
                "cache_entries",
                "trace"
            ]
        );
        assert_eq!(
            keys(doc.get("trace").unwrap()),
            [
                "enabled",
                "ring_capacity",
                "occupancy",
                "retained",
                "slow_threshold_us"
            ]
        );
        assert_eq!(
            doc.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(doc.get("uptime_secs").unwrap().as_int(), Some(9));
    }

    #[test]
    fn service_errors_map_onto_meaningful_statuses() {
        assert_eq!(
            status_for(&ServiceError::InvalidQuery("x".to_string())),
            400
        );
        assert_eq!(
            status_for(&ServiceError::PublishRejected("full".to_string())),
            500
        );
    }
}
