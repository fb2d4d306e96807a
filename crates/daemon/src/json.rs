//! Hand-rolled JSON for the HTTP API.
//!
//! The build environment vendors no JSON crate, so the daemon carries its
//! own minimal JSON: a recursive-descent parser for request bodies and
//! direct string rendering for verdicts, whose string literals [`quote`]
//! escapes (the one escaper, [`rvaas_types::json::quote`], which the
//! experiment reports share). The parser accepts standard JSON
//! objects/arrays/strings/unsigned integers/booleans/null — everything the
//! query API needs — and rejects the rest with a position-tagged message.

use rvaas_client::QuerySpec;
use rvaas_service::{EpochProvenance, QueryResponse, ServiceError};
use rvaas_telemetry::{CaptureReason, RetainedTrace, TraceEvent};
use rvaas_types::ClientId;

pub use rvaas_types::json::quote;

/// A parsed JSON value (no floats: the API's numbers are all unsigned
/// integers, and rejecting floats keeps round-trips exact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Maximum nesting depth the parser accepts. The API's documents are nearly
/// flat; the cap turns a `[[[[…` recursion bomb from a stack overflow (an
/// abort taking the whole daemon down) into an ordinary parse error.
pub const MAX_JSON_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, why: &str) -> String {
        format!("JSON parse error at byte {}: {why}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'0'..=b'9') => self.number(),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        let value = self.object_body();
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        let value = self.array_body();
        self.depth -= 1;
        value
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        Ok(())
    }

    fn object_body(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array_body(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unsupported escape")),
                    }
                }
                _ => {
                    // Copy one UTF-8 scalar, however many bytes it spans.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// The code-unit part of a `\uXXXX` escape, positioned just past the
    /// `u`. Handles UTF-16 surrogate pairs (`😀`); lone surrogates
    /// are rejected — they have no scalar-value representation, so accepting
    /// them would break render→parse round-trips.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        match unit {
            0xD800..=0xDBFF => {
                if !(self.eat_literal("\\u")) {
                    return Err(self.error("high surrogate not followed by \\u escape"));
                }
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error("high surrogate not followed by a low surrogate"));
                }
                let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                char::from_u32(scalar).ok_or_else(|| self.error("invalid surrogate pair"))
            }
            0xDC00..=0xDFFF => Err(self.error("lone low surrogate")),
            _ => char::from_u32(unit).ok_or_else(|| self.error("invalid \\u escape")),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.error("expected 4 hex digits after \\u")),
            };
            self.pos += 1;
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.error("floating-point numbers are not accepted"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<u64>()
            .map(Json::Int)
            .map_err(|_| self.error("number out of range or empty"))
    }
}

/// Parses one JSON document; trailing garbage is an error.
///
/// # Errors
///
/// Returns a position-tagged message describing the first problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing data after JSON document"));
    }
    Ok(value)
}

/// Resolves a query name (as used by the HTTP API and the `verify`
/// subcommand) to a [`QuerySpec`]. `path_length` requires `to_ip`.
///
/// # Errors
///
/// Returns [`ServiceError::InvalidQuery`] for unknown names or a missing
/// `to_ip`.
pub fn query_by_name(name: &str, to_ip: Option<u64>) -> Result<QuerySpec, ServiceError> {
    match name {
        "reachable_destinations" => Ok(QuerySpec::ReachableDestinations),
        "reaching_sources" => Ok(QuerySpec::ReachingSources),
        "isolation" => Ok(QuerySpec::Isolation),
        "geo_location" => Ok(QuerySpec::GeoLocation),
        "neutrality" => Ok(QuerySpec::Neutrality),
        "path_length" => {
            let to_ip = to_ip.ok_or_else(|| {
                ServiceError::InvalidQuery("path_length requires \"to_ip\"".to_string())
            })?;
            let to_ip = u32::try_from(to_ip)
                .map_err(|_| ServiceError::InvalidQuery("to_ip out of range".to_string()))?;
            Ok(QuerySpec::PathLength { to_ip })
        }
        other => Err(ServiceError::InvalidQuery(format!(
            "unknown query {other:?} (known: reachable_destinations, reaching_sources, \
             isolation, geo_location, path_length, neutrality)"
        ))),
    }
}

/// Parses a `POST /v1/query` body: `{"client": N, "query": "name"}` plus
/// `"to_ip"` for `path_length`.
///
/// # Errors
///
/// Returns [`ServiceError::InvalidQuery`] for malformed JSON or fields.
pub fn parse_query_request(body: &str) -> Result<(ClientId, QuerySpec), ServiceError> {
    let doc = parse(body).map_err(ServiceError::InvalidQuery)?;
    let client = doc
        .get("client")
        .and_then(Json::as_int)
        .ok_or_else(|| ServiceError::InvalidQuery("\"client\" must be an integer".to_string()))?;
    let client = u32::try_from(client)
        .map(ClientId)
        .map_err(|_| ServiceError::InvalidQuery("\"client\" out of range".to_string()))?;
    let name = doc
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::InvalidQuery("\"query\" must be a string".to_string()))?;
    let spec = query_by_name(name, doc.get("to_ip").and_then(Json::as_int))?;
    Ok((client, spec))
}

/// The canonical name of a query spec, inverse of [`query_by_name`].
#[must_use]
pub fn query_name(spec: &QuerySpec) -> &'static str {
    match spec {
        QuerySpec::ReachableDestinations => "reachable_destinations",
        QuerySpec::ReachingSources => "reaching_sources",
        QuerySpec::Isolation => "isolation",
        QuerySpec::GeoLocation => "geo_location",
        QuerySpec::PathLength { .. } => "path_length",
        QuerySpec::Neutrality => "neutrality",
    }
}

fn render_endpoints(reports: &[rvaas_client::EndpointReport]) -> String {
    let items: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"ip\":{},\"client\":{},\"authenticated\":{}}}",
                r.ip, r.client.0, r.authenticated
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Renders a query result as a JSON object string.
#[must_use]
pub fn render_result(result: &rvaas_client::QueryResult) -> String {
    use rvaas_client::QueryResult;
    match result {
        QueryResult::Endpoints { endpoints } => {
            format!("{{\"endpoints\":{}}}", render_endpoints(endpoints))
        }
        QueryResult::Sources { sources } => {
            format!("{{\"sources\":{}}}", render_endpoints(sources))
        }
        QueryResult::IsolationStatus {
            isolated,
            foreign_endpoints,
        } => format!(
            "{{\"isolated\":{isolated},\"foreign_endpoints\":{}}}",
            render_endpoints(foreign_endpoints)
        ),
        QueryResult::Regions { regions } => {
            let items: Vec<String> = regions.iter().map(|r| quote(r)).collect();
            format!("{{\"regions\":[{}]}}", items.join(","))
        }
        QueryResult::PathLength {
            min_hops,
            max_hops,
            reachable,
        } => {
            format!("{{\"min_hops\":{min_hops},\"max_hops\":{max_hops},\"reachable\":{reachable}}}")
        }
        QueryResult::Neutrality { fair, violations } => {
            let items: Vec<String> = violations
                .iter()
                .map(|v| {
                    format!(
                        "{{\"victim\":{},\"favoured\":{},\"victim_rate_kbps\":{},\
                         \"favoured_rate_kbps\":{}}}",
                        v.victim.0, v.favoured.0, v.victim_rate_kbps, v.favoured_rate_kbps
                    )
                })
                .collect();
            format!("{{\"fair\":{fair},\"violations\":[{}]}}", items.join(","))
        }
        QueryResult::Rejected { reason } => {
            format!("{{\"rejected\":{}}}", quote(reason))
        }
    }
}

/// Renders a full verdict: the query echo, the epoch it was answered
/// against, the latency, the result and the flight-recorder trace id (fetch
/// the event chain at `GET /v1/trace/<id>` while it is still in the ring).
#[must_use]
pub fn render_response(response: &QueryResponse) -> String {
    format!(
        "{{\"client\":{},\"query\":{},\"epoch_serial\":{},\"latency_us\":{},\"trace\":{},\
         \"result\":{}}}",
        response.client.0,
        quote(query_name(&response.spec)),
        response.epoch_serial,
        response.latency.as_micros(),
        response.trace.0,
        render_result(&response.result)
    )
}

fn render_trace_event(event: &TraceEvent) -> String {
    let (a_name, b_name) = event.stage.arg_names();
    format!(
        "{{\"seq\":{},\"at_us\":{},\"stage\":{},\"{a_name}\":{},\"{b_name}\":{}}}",
        event.seq,
        event.at_us,
        quote(event.stage.as_str()),
        event.a,
        event.b
    )
}

/// Renders one reconstructed event chain, as served by `GET /v1/trace/<id>`
/// and printed by `rvaas trace`.
#[must_use]
pub fn render_trace(trace: u64, events: &[TraceEvent]) -> String {
    let items: Vec<String> = events.iter().map(render_trace_event).collect();
    format!("{{\"trace\":{trace},\"events\":[{}]}}", items.join(","))
}

fn render_retained_trace(retained: &RetainedTrace) -> String {
    let reason = match retained.reason {
        CaptureReason::Slow { latency_us } => {
            format!("\"reason\":\"slow\",\"latency_us\":{latency_us}")
        }
        CaptureReason::Error => "\"reason\":\"error\"".to_string(),
    };
    let items: Vec<String> = retained.events.iter().map(render_trace_event).collect();
    format!(
        "{{\"trace\":{},{reason},\"captured_at_us\":{},\"events\":[{}]}}",
        retained.trace.0,
        retained.captured_at_us,
        items.join(",")
    )
}

/// Renders the retained slow/error trace set, as served by
/// `GET /v1/trace/slow`.
#[must_use]
pub fn render_retained(retained: &[RetainedTrace], slow_threshold_us: u64) -> String {
    let items: Vec<String> = retained.iter().map(render_retained_trace).collect();
    format!(
        "{{\"slow_threshold_us\":{slow_threshold_us},\"retained\":[{}]}}",
        items.join(",")
    )
}

/// Renders one epoch provenance record, as served by
/// `GET /v1/epoch/<serial>/provenance`.
#[must_use]
pub fn render_provenance(p: &EpochProvenance) -> String {
    format!(
        "{{\"serial\":{},\"digest\":\"{:016x}\",\"added\":{},\"removed\":{},\"delta_rules\":{},\
         \"affected_queries\":{},\"affected_everything\":{},\"bulk_rebuild\":{},\
         \"published_at_ms\":{},\"trace\":{},\"reverified\":{},\"reverify_sessions\":{}}}",
        p.serial,
        p.digest,
        p.added,
        p.removed,
        p.delta_rules,
        p.affected_queries,
        p.affected_everything,
        p.bulk_rebuild,
        p.published_at.as_millis(),
        p.trace.0,
        p.reverified,
        p.reverify_sessions
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_bodies_parse_into_specs() {
        let (client, spec) = parse_query_request(r#"{"client": 1, "query": "isolation"}"#).unwrap();
        assert_eq!(client, ClientId(1));
        assert_eq!(spec, QuerySpec::Isolation);

        let (_, spec) =
            parse_query_request(r#"{"client":2,"query":"path_length","to_ip":4242}"#).unwrap();
        assert_eq!(spec, QuerySpec::PathLength { to_ip: 4242 });
    }

    #[test]
    fn bad_bodies_are_invalid_query_errors() {
        for body in [
            "not json",
            r#"{"query": "isolation"}"#,
            r#"{"client": 1}"#,
            r#"{"client": 1, "query": "tarot_reading"}"#,
            r#"{"client": 1, "query": "path_length"}"#,
            r#"{"client": 4294967296, "query": "isolation"}"#,
            r#"{"client": 1, "query": "isolation"} trailing"#,
        ] {
            assert!(
                matches!(
                    parse_query_request(body),
                    Err(ServiceError::InvalidQuery(_))
                ),
                "{body:?} must be rejected"
            );
        }
    }

    #[test]
    fn parser_handles_nesting_strings_and_escapes() {
        let doc = parse(r#"{"a": [1, {"b": "x\n\"y\""}, true, null], "c": 0}"#).unwrap();
        let Json::Array(items) = doc.get("a").unwrap() else {
            panic!("expected array");
        };
        assert_eq!(items[0], Json::Int(1));
        assert_eq!(items[1].get("b").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(items[2], Json::Bool(true));
        assert_eq!(items[3], Json::Null);
        assert_eq!(doc.get("c").unwrap().as_int(), Some(0));
    }

    #[test]
    fn unicode_escapes_parse_including_surrogate_pairs() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".to_string()));
        assert_eq!(
            parse("\"\\u0001\"").unwrap(),
            Json::Str("\u{1}".to_string())
        );
        // Astral-plane scalar via a surrogate pair (GRINNING FACE).
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        for bad in [
            "\"\\u12\"",          // too few digits
            "\"\\uZZZZ\"",        // not hex
            "\"\\ud83d\"",        // lone high surrogate
            "\"\\udc00\"",        // lone low surrogate
            "\"\\ud83d\\u0041\"", // high surrogate + non-surrogate
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn control_characters_round_trip_through_quote_and_parse() {
        // quote() emits \u00XX for control characters; the parser must read
        // them back — this exact asymmetry was a render→parse defect found
        // by the fuzz harness (rvaas-fuzz json target).
        let original = "bell\u{7} and \u{1} and tab\t";
        let quoted = quote(original);
        assert_eq!(parse(&quoted).unwrap(), Json::Str(original.to_string()));
    }

    #[test]
    fn nesting_bomb_is_a_parse_error_not_a_stack_overflow() {
        // 10k open brackets previously recursed until the thread's stack
        // ran out, aborting the process (found by the fuzz harness).
        let bomb = "[".repeat(10_000);
        let err = parse(&bomb).unwrap_err();
        assert!(err.contains("nesting"), "unexpected error: {err}");
        // A document at exactly the cap still parses.
        let deep = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse(&deep).is_ok());
        let too_deep = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn trace_chain_renders_the_golden_shape_and_reparses() {
        use rvaas_telemetry::{TraceId, TraceStage};
        let events = vec![
            TraceEvent {
                trace: TraceId(7),
                seq: 1,
                at_us: 10,
                stage: TraceStage::IngressHttp,
                a: 1,
                b: 42,
            },
            TraceEvent {
                trace: TraceId(7),
                seq: 2,
                at_us: 15,
                stage: TraceStage::Verdict,
                a: 3,
                b: 900,
            },
        ];
        let rendered = render_trace(7, &events);
        // The golden shape: per-stage argument names, dotted stage tags.
        assert_eq!(
            rendered,
            "{\"trace\":7,\"events\":[\
             {\"seq\":1,\"at_us\":10,\"stage\":\"ingress.http\",\"client\":1,\"request_bytes\":42},\
             {\"seq\":2,\"at_us\":15,\"stage\":\"verdict\",\"epoch_serial\":3,\"latency_us\":900}]}"
        );
        let doc = parse(&rendered).unwrap();
        assert_eq!(doc.get("trace").unwrap().as_int(), Some(7));
        let Json::Array(items) = doc.get("events").unwrap() else {
            panic!("expected an events array");
        };
        assert_eq!(
            items[0].get("stage").unwrap().as_str(),
            Some("ingress.http")
        );
        assert_eq!(items[1].get("latency_us").unwrap().as_int(), Some(900));

        // Retained captures reparse too, including u64::MAX payload words
        // (the "affects everything" sentinel).
        let retained = RetainedTrace {
            trace: TraceId(9),
            reason: CaptureReason::Slow { latency_us: 12_000 },
            captured_at_us: 99,
            events: vec![TraceEvent {
                trace: TraceId(9),
                seq: 4,
                at_us: 20,
                stage: TraceStage::EpochDigest,
                a: u64::MAX,
                b: u64::MAX,
            }],
        };
        let rendered = render_retained(&[retained], 10_000);
        let doc = parse(&rendered).unwrap();
        assert_eq!(doc.get("slow_threshold_us").unwrap().as_int(), Some(10_000));
        let Json::Array(items) = doc.get("retained").unwrap() else {
            panic!("expected a retained array");
        };
        assert_eq!(items[0].get("reason").unwrap().as_str(), Some("slow"));
        assert_eq!(items[0].get("latency_us").unwrap().as_int(), Some(12_000));
        let Json::Array(events) = items[0].get("events").unwrap() else {
            panic!("expected an events array");
        };
        assert_eq!(
            events[0].get("affected_queries").unwrap().as_int(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn provenance_records_render_and_reparse() {
        use rvaas_telemetry::TraceId;
        use rvaas_types::SimTime;
        let rendered = render_provenance(&EpochProvenance {
            serial: 3,
            digest: 0x00ab_cdef_0123_4567,
            added: 2,
            removed: 1,
            delta_rules: 3,
            affected_queries: 5,
            affected_everything: false,
            bulk_rebuild: false,
            published_at: SimTime::from_millis(17),
            trace: TraceId(11),
            reverified: 4,
            reverify_sessions: 2,
        });
        let doc = parse(&rendered).unwrap();
        assert_eq!(doc.get("serial").unwrap().as_int(), Some(3));
        assert_eq!(
            doc.get("digest").unwrap().as_str(),
            Some("00abcdef01234567")
        );
        assert_eq!(doc.get("delta_rules").unwrap().as_int(), Some(3));
        assert_eq!(doc.get("published_at_ms").unwrap().as_int(), Some(17));
        assert_eq!(doc.get("affected_everything"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("reverified").unwrap().as_int(), Some(4));
    }

    #[test]
    fn rendered_results_reparse_as_json() {
        use rvaas_client::{EndpointReport, QueryResult};
        let rendered = render_result(&QueryResult::IsolationStatus {
            isolated: false,
            foreign_endpoints: vec![EndpointReport {
                ip: 7,
                client: ClientId(2),
                authenticated: true,
            }],
        });
        let doc = parse(&rendered).unwrap();
        assert_eq!(doc.get("isolated"), Some(&Json::Bool(false)));
        let rejected = render_result(&QueryResult::Rejected {
            reason: "no \"rules\"\n".to_string(),
        });
        assert_eq!(
            parse(&rejected).unwrap().get("rejected").unwrap().as_str(),
            Some("no \"rules\"\n")
        );
    }
}
