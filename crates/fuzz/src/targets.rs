//! The fuzz targets: one function per untrusted-input surface.
//!
//! Every target upholds the same contract on **arbitrary** bytes:
//!
//! * no panic (errors must be `Result`s, not `unwrap`s deep in a decoder),
//! * no input-controlled allocation beyond the input's own size (the
//!   allocate-before-validate class), and
//! * where the surface has an encoder, the parse → encode → parse
//!   fixpoint: re-encoding a successfully parsed value yields bytes that
//!   parse to the same value.
//!
//! The cube target is different in kind: its bytes are a little *program*
//! of rule-table operations, and its properties are differential — the
//! incremental update path must agree with a from-scratch rebuild, and the
//! cube algebra must be consistent with sampled-header membership.

use rvaas_client::{
    decode_inband, read_frame, write_frame, FrameError, InbandMessage, MAX_FRAME_LEN,
};
use rvaas_daemon::{http, json, parse_rules, DaemonConfig};
use rvaas_hsa::{Cube, HeaderSpace, RuleAction, RuleTransfer, SwitchTransfer};
use rvaas_types::{Field, FlowCookie, Header, PortId};

use crate::Target;

/// Name → function for every shipped target (used by tests and the CLI).
pub const TARGETS: &[(&str, Target)] = &[
    ("frame", frame_target),
    ("sync", sync_target),
    ("http", http_target),
    ("json", json_target),
    ("cube", cube_target),
    ("config", config_target),
    ("trace", trace_target),
];

/// Looks a target up by name.
#[must_use]
pub fn find_target(name: &str) -> Option<Target> {
    TARGETS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, target)| *target)
}

/// Length-prefixed frame decoder: arbitrary bytes as a TCP byte stream.
///
/// Properties: decoded payloads respect the 16 MiB guard *and* the input's
/// own length (no allocate-before-validate); a decoded payload re-framed
/// by `write_frame` decodes back byte-identically.
pub fn frame_target(data: &[u8]) {
    let mut stream = data;
    // A stream may hold many frames; bound the walk by the input length.
    for _ in 0..=data.len() {
        match read_frame(&mut stream) {
            Ok(None) => break, // clean EOF
            Ok(Some(payload)) => {
                assert!(payload.len() <= MAX_FRAME_LEN, "guard violated");
                assert!(payload.len() <= data.len(), "payload invented bytes");
                let mut reframed = Vec::new();
                write_frame(&mut reframed, &payload).expect("re-framing a valid payload");
                let echoed = read_frame(&mut reframed.as_slice())
                    .expect("re-reading a written frame")
                    .expect("written frame is not EOF");
                assert_eq!(echoed, payload, "frame round-trip changed the payload");
            }
            Err(FrameError::Oversized { len }) => {
                assert!(len > MAX_FRAME_LEN, "oversized error for in-bounds length");
                break;
            }
            Err(_) => break, // torn or I/O: fine, just must not panic
        }
    }
}

/// Re-encodes a decoded in-band message through its variant's encoder.
fn encode_inband(message: &InbandMessage) -> Vec<u8> {
    match message {
        InbandMessage::Query(m) => m.encode(),
        InbandMessage::AuthRequest(m) => m.encode(),
        InbandMessage::AuthReply(m) => m.encode(),
        InbandMessage::Reply(m) => m.encode(),
        InbandMessage::SyncRequest(m) => m.encode(),
        InbandMessage::SyncResponse(m) => m.encode(),
        InbandMessage::SyncReject(m) => m.encode(),
    }
}

/// In-band sync/query codec: arbitrary bytes as one message payload.
///
/// Properties: decode never panics; a decoded message re-encodes to bytes
/// that decode again and re-encode to the *same* bytes (the encode side of
/// the fixpoint — byte equality avoids requiring `Eq` on every message).
pub fn sync_target(data: &[u8]) {
    let Ok(message) = decode_inband(data) else {
        return;
    };
    let encoded = encode_inband(&message);
    // The codecs validate element counts against remaining bytes, so a
    // decoded message can never be larger than its wire form plus fixed
    // per-message overhead. A blow-up here means a count guard regressed.
    assert!(
        encoded.len() <= data.len().saturating_mul(2) + 64,
        "re-encoded message ({} bytes) dwarfs its wire form ({} bytes)",
        encoded.len(),
        data.len()
    );
    let redecoded = decode_inband(&encoded).expect("re-encoded message must decode");
    assert_eq!(
        encode_inband(&redecoded),
        encoded,
        "encode → decode → encode is not a fixpoint"
    );
}

/// Daemon HTTP request parser: arbitrary bytes as one connection's data.
///
/// Properties: parse never panics; a parsed request re-rendered in
/// canonical form re-parses to the same method, target and body.
pub fn http_target(data: &[u8]) {
    let request = match http::read_request(&mut &data[..]) {
        Ok(Some(request)) => request,
        Ok(None) | Err(_) => return, // idle-quiet or malformed: must not panic
    };
    assert!(request.body.len() <= data.len(), "body invented bytes");
    let canonical = format!(
        "{} {} HTTP/1.1\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{}",
        request.method,
        request.target,
        request.body.len(),
        if request.close { "close" } else { "keep-alive" },
        request.body
    );
    let reparsed = http::read_request(&mut canonical.as_bytes())
        .expect("canonical re-render must re-parse")
        .expect("canonical re-render is not idle-quiet");
    assert_eq!(reparsed, request, "HTTP round-trip changed the request");

    // The router's segment splitter must survive whatever target the
    // request smuggled in, and never invent path material.
    let segments = http::path_segments(&request.target);
    assert!(
        segments.iter().map(|s| s.len()).sum::<usize>() <= request.target.len(),
        "segments invented bytes"
    );
    for segment in segments {
        assert!(!segment.is_empty(), "empty segments must be dropped");
        assert!(!segment.contains('/'), "segments must not contain slashes");
    }
}

/// Renders a parsed JSON value back to source text.
fn render_json(value: &json::Json) -> String {
    match value {
        json::Json::Null => "null".to_string(),
        json::Json::Bool(b) => b.to_string(),
        json::Json::Int(n) => n.to_string(),
        json::Json::Str(s) => json::quote(s),
        json::Json::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_json).collect();
            format!("[{}]", inner.join(","))
        }
        json::Json::Object(pairs) => {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}:{}", json::quote(k), render_json(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// Daemon JSON codec: arbitrary bytes as request-body text.
///
/// Properties: parse never panics and never recurses past the depth cap;
/// a parsed value rendered back through `quote` re-parses to an equal
/// value (escape handling is symmetric).
pub fn json_target(data: &[u8]) {
    let Ok(text) = std::str::from_utf8(data) else {
        return;
    };
    let Ok(value) = json::parse(text) else {
        return;
    };
    let rendered = render_json(&value);
    let reparsed = json::parse(&rendered)
        .unwrap_or_else(|e| panic!("render of a parsed value must re-parse: {e}\n{rendered}"));
    assert_eq!(reparsed, value, "JSON round-trip changed the value");
}

/// Renders one config value the way [`DaemonConfig::parse`] will read it
/// back: values are stored verbatim after comment stripping and a single
/// unquote pass, so only a value that *starts* with a quote needs to be
/// re-wrapped to survive another unquote.
fn render_config_value(value: &str) -> String {
    if value.starts_with('"') {
        format!("\"{value}\"")
    } else {
        value.to_string()
    }
}

/// Renders a parsed daemon config back to canonical file form.
fn render_config(config: &DaemonConfig) -> String {
    let mut out = format!("topology = {}\n", render_config_value(&config.topology));
    if let Some(path) = &config.rules_file {
        out.push_str(&format!("rules_file = {}\n", render_config_value(path)));
    }
    out.push_str(&format!("workers = {}\n", config.workers));
    out.push_str(&format!(
        "cache = {}\n",
        if config.cache { "on" } else { "off" }
    ));
    if let Some(addr) = &config.sync_listen {
        out.push_str(&format!("sync_listen = {}\n", render_config_value(addr)));
    }
    if let Some(addr) = &config.http_listen {
        out.push_str(&format!("http_listen = {}\n", render_config_value(addr)));
    }
    out
}

/// Daemon TOML-subset config parser (every `DaemonConfig::set` path)
/// plus the rules-file parser behind the `rules_file` key: arbitrary bytes
/// as file text.
///
/// Properties: neither parser panics on arbitrary (lossily decoded) text;
/// a successfully parsed config re-rendered in canonical `key = value`
/// form re-parses to an equal config (comment stripping, section headers
/// and unquoting are all absorbed by one parse); a successfully parsed
/// rules file never yields more entries than it has lines.
pub fn config_target(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    if let Ok(config) = DaemonConfig::parse(&text) {
        let canonical = render_config(&config);
        let reparsed = DaemonConfig::parse(&canonical)
            .unwrap_or_else(|e| panic!("canonical re-render must re-parse: {e}\n{canonical}"));
        assert_eq!(reparsed, config, "config round-trip changed a setting");
    }
    if let Ok(rules) = parse_rules(&text) {
        assert!(
            rules.len() <= text.lines().count(),
            "rules parser invented entries"
        );
    }
}

/// Flight-recorder JSON export: arbitrary bytes as a recorder "program"
/// plus an adversarial request target.
///
/// Properties: the router's path splitter never panics on arbitrary
/// targets (hostile trace ids and serials arrive as path segments); a
/// recorder driven through arbitrary appends and captures renders — via
/// the daemon's real `render_trace` / `render_retained` — to JSON that
/// re-parses, preserves the event count, and echoes each event's trace id.
pub fn trace_target(data: &[u8]) {
    use rvaas_telemetry::{CaptureReason, FlightRecorder, TraceStage};

    // Adversarial path handling first: whatever bytes decode to, the
    // splitter must cope (the daemon feeds it raw request targets).
    if let Ok(target) = std::str::from_utf8(data) {
        for segment in http::path_segments(target) {
            let _ = segment.parse::<u64>(); // the router's id/serial parse
        }
    }

    let mut dna = Dna::new(data);
    let capacity = 8 + usize::from(dna.byte()) % 64;
    let recorder = FlightRecorder::with_capacity(capacity, u64::from(dna.u16()));
    let traces: Vec<_> = (0..4).map(|_| recorder.mint()).collect();
    for _ in 0..usize::from(dna.byte()) % 64 {
        let trace = traces[usize::from(dna.byte()) % traces.len()];
        if dna.byte() % 8 == 7 {
            let reason = if dna.byte().is_multiple_of(2) {
                CaptureReason::Error
            } else {
                CaptureReason::Slow {
                    latency_us: u64::from(dna.u32()),
                }
            };
            recorder.capture(trace, reason);
        } else {
            let stage = TraceStage::from_code(u64::from(dna.byte() % 14) + 1)
                .expect("codes 1..=14 are valid stages");
            recorder.append(trace, stage, u64::from(dna.u32()), u64::from(dna.u32()));
        }
    }
    for trace in &traces {
        let chain = recorder.chain(*trace);
        let rendered = json::render_trace(trace.0, &chain);
        let doc = json::parse(&rendered)
            .unwrap_or_else(|e| panic!("trace render must re-parse: {e}\n{rendered}"));
        assert_eq!(doc.get("trace").and_then(json::Json::as_int), Some(trace.0));
        let Some(json::Json::Array(events)) = doc.get("events") else {
            panic!("rendered trace lost its events array:\n{rendered}");
        };
        assert_eq!(events.len(), chain.len(), "render changed the event count");
    }
    let retained = recorder.retained();
    let rendered = json::render_retained(&retained, recorder.slow_threshold_us());
    let doc = json::parse(&rendered)
        .unwrap_or_else(|e| panic!("retained render must re-parse: {e}\n{rendered}"));
    let Some(json::Json::Array(captures)) = doc.get("retained") else {
        panic!("rendered retained set lost its array:\n{rendered}");
    };
    assert_eq!(
        captures.len(),
        retained.len(),
        "render changed the capture count"
    );
}

/// A byte-stream "DNA" the cube target decodes into rules and headers.
/// Reads wrap around, so any input length yields a complete program.
struct Dna<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dna<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dna { bytes, pos: 0 }
    }

    fn byte(&mut self) -> u8 {
        if self.bytes.is_empty() {
            return 0;
        }
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos += 1;
        b
    }

    fn u16(&mut self) -> u16 {
        u16::from_be_bytes([self.byte(), self.byte()])
    }

    fn u32(&mut self) -> u32 {
        u32::from_be_bytes([self.byte(), self.byte(), self.byte(), self.byte()])
    }

    fn header(&mut self) -> Header {
        Header {
            eth_type: self.u16(),
            vlan: self.u16() & 0x0fff,
            ip_src: self.u32(),
            ip_dst: self.u32(),
            ip_proto: self.byte(),
            l4_src: self.u16(),
            l4_dst: self.u16(),
        }
    }

    fn cube(&mut self) -> Cube {
        let mut cube = Cube::wildcard();
        let constraints = self.byte() % 4;
        for _ in 0..constraints {
            let field = Field::ALL[self.byte() as usize % Field::ALL.len()];
            if self.byte().is_multiple_of(2) {
                cube = cube.with_field(field, u64::from(self.u32()));
            } else {
                let prefix = usize::from(self.byte()) % 33;
                cube = cube.with_field_prefix(field, u64::from(self.u32()), prefix);
            }
        }
        cube
    }

    fn rule(&mut self, index: usize) -> RuleTransfer {
        let priority = self.u16() % 512;
        let action = match self.byte() % 4 {
            0 => RuleAction::Drop,
            1 => RuleAction::ToController,
            2 => RuleAction::Forward {
                ports: [PortId(u32::from(self.byte() % 4))].into(),
                rewrite: None,
            },
            _ => RuleAction::Forward {
                ports: [PortId(u32::from(self.byte() % 4))].into(),
                rewrite: Some(Cube::wildcard().with_field(Field::Vlan, u64::from(self.byte()))),
            },
        };
        let mut rule = RuleTransfer::new(priority, self.cube(), action)
            .with_cookie(FlowCookie(index as u64 + 1));
        if self.byte().is_multiple_of(3) {
            rule = rule.on_port(PortId(u32::from(self.byte() % 4)));
        }
        rule
    }

    /// One to ten rules, in arrival order, cookies `1..` in that order.
    fn table(&mut self) -> Vec<RuleTransfer> {
        let rule_count = 1 + usize::from(self.byte()) % 10;
        (0..rule_count).map(|i| self.rule(i)).collect()
    }

    /// A cube holding `header`: exact but for one or two decoded fields left
    /// free. Never the VLAN — the one field [`Dna::rule`]'s rewrites set —
    /// so two members of such a cube never rewrite to one header; and never
    /// more than two, which bounds what subtracting ten rules' matches from
    /// it can shatter it into.
    fn widen(&mut self, header: &Header) -> Cube {
        const FREED: [Field; 6] = [
            Field::EthType,
            Field::IpSrc,
            Field::IpDst,
            Field::IpProto,
            Field::L4Src,
            Field::L4Dst,
        ];
        let mut cube = Cube::exact(header);
        for _ in 0..1 + self.byte() % 2 {
            let spec = FREED[usize::from(self.byte()) % FREED.len()].spec();
            for bit in spec.offset..spec.offset + spec.width {
                cube.clear_bit(bit);
            }
        }
        cube
    }
}

/// [`SwitchTransfer::apply`] against the concrete first-match semantics for
/// one header `h` of `input`: the first rule in table order that applies to
/// `port` and contains `h` serves it, so `h` (after that rule's rewrite)
/// sits in that rule's outputs — exactly its ports, or the controller — and
/// in the output of no other rule; in none at all when that rule drops or no
/// rule matches. Rules are told apart by cookie ([`Dna::table`] numbers
/// them); `input`'s cubes must pin the VLAN (see [`Dna::widen`]).
fn assert_first_match_serves(
    table: &SwitchTransfer,
    port: PortId,
    input: &HeaderSpace,
    h: &Header,
) {
    let outputs = table.apply(port, input);
    for out in &outputs {
        assert!(
            out.out_port.is_some() != out.to_controller && !out.space.is_empty(),
            "apply reported traffic that does not leave: {out:?}"
        );
    }
    let first = table
        .rules()
        .iter()
        .find(|r| r.in_port.is_none_or(|p| p == port) && r.match_cube.contains(h));
    for rule in table.rules() {
        let served = first.is_some_and(|first| first.cookie == rule.cookie);
        let mut expected: Vec<(Option<PortId>, bool)> = match &rule.action {
            RuleAction::Forward { ports, .. } if served => {
                ports.iter().map(|p| (Some(*p), false)).collect()
            }
            RuleAction::ToController if served => vec![(None, true)],
            _ => Vec::new(),
        };
        let rewritten = match &rule.action {
            RuleAction::Forward {
                rewrite: Some(rw), ..
            } => Cube::exact(h).rewrite(rw).sample(),
            _ => *h,
        };
        let mut holding: Vec<(Option<PortId>, bool)> = outputs
            .iter()
            .filter(|o| o.cookie == rule.cookie && o.space.contains(&rewritten))
            .map(|o| (o.out_port, o.to_controller))
            .collect();
        expected.sort();
        holding.sort();
        assert_eq!(
            holding, expected,
            "apply({port}, {input}) and the first match disagree on {h:?} under rule {rule:?} \
             (first match: {first:?})"
        );
    }
}

/// HSA cube algebra and incremental rule-table maintenance.
///
/// The input is decoded into a rule table and probe headers, then:
///
/// * **insert differential** — building the table with the `O(log n)`
///   [`SwitchTransfer::insert_rule`] path must yield exactly the table a
///   full [`SwitchTransfer::from_rules`] rebuild produces;
/// * **exposed-region soundness** — every rule's exposed region is
///   contained in its match cube (the over-approximation direction the
///   incremental verifier depends on);
/// * **removal consistency** — `remove_rule` of a present rule succeeds,
///   shrinks the table by one, and keeps it equal to a rebuild of the
///   surviving rules;
/// * **cube algebra vs. membership** — `intersect` / `overlap_region` /
///   `overlaps` agree with each other and with sampled-header membership,
///   and `subtract` / `complement` results exclude what they must;
/// * **apply vs. concrete first match** — for probe headers pulled into
///   decoded rules' matches, on every port, [`SwitchTransfer::apply`] of the
///   probe alone and of a decoded multi-cube space around it puts the probe
///   on exactly the outputs of the first rule in table order that applies
///   to the port and contains it (rewritten; flagged `to_controller` iff
///   that rule punts), and nowhere when that rule drops or none matches.
pub fn cube_target(data: &[u8]) {
    let mut dna = Dna::new(data);

    // --- incremental insert vs. full rebuild -------------------------------
    let rules = dna.table();
    let mut incremental = SwitchTransfer::new();
    for rule in &rules {
        let index = incremental.insert_rule(rule.clone());
        assert!(index < incremental.len(), "insert index out of bounds");
    }
    let rebuilt = SwitchTransfer::from_rules(rules.clone());
    assert_eq!(
        incremental, rebuilt,
        "insert_rule diverged from a full rebuild"
    );

    // --- exposed-region soundness ------------------------------------------
    for (index, rule) in rebuilt.rules().iter().enumerate() {
        let exposed = rebuilt.exposed_region(index);
        assert!(
            exposed.is_subset_of(&HeaderSpace::from(rule.match_cube)),
            "exposed region escapes the rule's match cube"
        );
        if index == 0 {
            assert_eq!(
                exposed,
                HeaderSpace::from(rule.match_cube),
                "the top rule is never shadowed"
            );
        }
    }

    // --- removal consistency -----------------------------------------------
    let victim = rules[usize::from(dna.byte()) % rules.len()].clone();
    let before = incremental.len();
    let removed = incremental.remove_rule(&victim);
    assert!(removed.is_some(), "a present rule must be removable");
    assert_eq!(incremental.len(), before - 1);
    let resorted = SwitchTransfer::from_rules(incremental.rules().to_vec());
    assert_eq!(
        incremental, resorted,
        "removal broke the priority-sort invariant"
    );

    // --- cube algebra vs. sampled membership -------------------------------
    let a = dna.cube();
    let b = dna.cube();
    let intersection = a.intersect(&b);
    assert_eq!(a.overlaps(&b), intersection.is_some());
    assert_eq!(
        a.overlap_region(&b).is_some(),
        intersection.is_some(),
        "overlap_region and intersect disagree on emptiness"
    );
    if let Some(both) = &intersection {
        let witness = both.sample();
        assert!(a.contains(&witness) && b.contains(&witness));
        assert!(both.is_subset_of(&a) && both.is_subset_of(&b));
    }
    for piece in a.subtract(&b) {
        let witness = piece.sample();
        assert!(a.contains(&witness), "subtract left the minuend");
        assert!(!b.contains(&witness), "subtract kept the subtrahend");
    }
    for piece in a.complement() {
        assert!(!a.contains(&piece.sample()), "complement overlaps the cube");
    }
    let own = a.sample();
    assert!(a.contains(&own), "a cube must contain its own sample");

    // Probe headers: membership in both cubes implies a non-empty
    // intersection containing the probe.
    let probes: Vec<Header> = (0..4).map(|_| dna.header()).collect();
    for probe in &probes {
        if a.contains(probe) && b.contains(probe) {
            let both = intersection.as_ref().expect("common member, no overlap");
            assert!(both.contains(probe), "intersection lost a common member");
        }
    }

    // --- apply vs. concrete first match ------------------------------------
    for probe in &probes {
        // A raw probe misses every exact match: take the fixed bits of a
        // decoded rule's match, so it lands where rules compete for it.
        let anchor = &rebuilt.rules()[usize::from(dna.byte()) % rebuilt.len()];
        let h = Cube::exact(probe).rewrite(&anchor.match_cube).sample();
        let cubes = 1 + dna.byte() % 3;
        let wide = HeaderSpace::from_cubes((0..cubes).map(|_| dna.widen(&h)));
        for port in (0..4).map(PortId) {
            assert_first_match_serves(&rebuilt, port, &HeaderSpace::singleton(&h), &h);
            assert_first_match_serves(&rebuilt, port, &wide, &h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Corpus;

    /// The two structured cube seeds are hand-encoded DNA; they must keep
    /// decoding to the table shape their names promise — `(src, dst)`
    /// admissions pinned to the host port, over that port's wildcard drop,
    /// over unpinned `dst` transit rules, alone and under a block of inert
    /// high-priority drops — or a change to [`Dna`] silently turns them into
    /// two more random inputs.
    #[test]
    fn ingress_seeds_decode_to_the_ingress_table() {
        let corpus = Corpus::load("cube");
        for (name, flood) in [("seed-ingress.bin", 0), ("seed-ingress-inert-flood.bin", 3)] {
            let entry = corpus.entries.iter().find(|e| e.name == name);
            let bytes = &entry.unwrap_or_else(|| panic!("{name} shipped")).bytes;
            let table = SwitchTransfer::from_rules(Dna::new(bytes).table());
            let shape: Vec<(u16, Option<PortId>, bool, u32)> = table
                .rules()
                .iter()
                .map(|r| {
                    let fixed = Cube::wildcard().free_bits() - r.match_cube.free_bits();
                    (r.priority, r.in_port, r.action == RuleAction::Drop, fixed)
                })
                .collect();
            let host_port = Some(PortId(1));
            let mut expected = vec![(400, None, true, 32); flood];
            expected.extend([(300, host_port, false, 64); 3]);
            expected.push((200, host_port, true, 0));
            expected.extend([(100, None, false, 32); 3]);
            assert_eq!(shape, expected, "{name}");
        }
    }
}
