//! Regenerates the checked-in corpus seeds from the real encoders:
//! `cargo run -p rvaas-fuzz --bin corpus-seed`.
//!
//! Seeds are *valid* inputs (the mutators need structure to start from);
//! `regress-*` entries are the exact hostile inputs that exposed fixed
//! defects, handcrafted at the byte level so they stay hostile even if
//! the encoders evolve. Running this tool is idempotent: the content is
//! fully deterministic.

use std::fs;

use rvaas_client::{
    write_frame, AuthReply, AuthRequest, EndpointReport, FlowDigest, QueryReply, QueryRequest,
    QueryResult, QuerySpec, ReverifiedQuery, SyncPayload, SyncReject, SyncRequest, SyncResponse,
    MAX_FRAME_LEN, SYNC_PROTOCOL_VERSION,
};
use rvaas_crypto::{sha256::Digest, Signature};
use rvaas_fuzz::corpus_dir;
use rvaas_types::{ClientId, QueryId};

fn write_seed(target: &str, name: &str, bytes: &[u8]) {
    let dir = corpus_dir(target);
    fs::create_dir_all(&dir).expect("create corpus dir");
    let path = dir.join(name);
    fs::write(&path, bytes).expect("write corpus entry");
    println!("{} ({} bytes)", path.display(), bytes.len());
}

fn oracle_signature(fill: u8) -> Signature {
    Signature::Oracle(Digest([fill; 32]))
}

fn frame_seeds() {
    write_seed("frame", "seed-empty.bin", &[]);
    let mut one = Vec::new();
    write_frame(&mut one, b"hello rvaas").expect("frame");
    write_seed("frame", "seed-hello.bin", &one);
    let mut two = Vec::new();
    write_frame(&mut two, &[0u8; 64]).expect("frame");
    write_frame(&mut two, b"second frame").expect("frame");
    write_seed("frame", "seed-two-frames.bin", &two);
    // A header claiming exactly the guard, with no payload behind it: must
    // surface as a torn frame, not a 16 MiB allocation feeding a blocked
    // read.
    let mut torn = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
    torn.extend_from_slice(b"xyz");
    write_seed("frame", "seed-guard-torn.bin", &torn);
    // The allocate-before-validate probe: one past the guard.
    write_seed(
        "frame",
        "regress-oversized-prefix.bin",
        &((MAX_FRAME_LEN + 1) as u32).to_be_bytes(),
    );
}

fn sync_seeds() {
    write_seed(
        "sync",
        "seed-sync-request.bin",
        &SyncRequest {
            client: ClientId(7),
            session: 3,
            have_serial: 41,
        }
        .encode(),
    );
    write_seed(
        "sync",
        "seed-sync-response-delta.bin",
        &SyncResponse {
            session: 3,
            serial: 42,
            payload: SyncPayload::Delta {
                added: vec![FlowDigest(1), FlowDigest(0xdead_beef)],
                removed: vec![FlowDigest(2)],
                reverified: vec![ReverifiedQuery {
                    spec: QuerySpec::Isolation,
                    result: QueryResult::IsolationStatus {
                        isolated: true,
                        foreign_endpoints: Vec::new(),
                    },
                }],
            },
            trace: 0,
        }
        .encode(),
    );
    write_seed(
        "sync",
        "seed-sync-response-reset.bin",
        &SyncResponse {
            session: 9,
            serial: 7,
            payload: SyncPayload::Reset {
                full: vec![FlowDigest(10), FlowDigest(11), FlowDigest(12)],
            },
            trace: 0,
        }
        .encode(),
    );
    write_seed(
        "sync",
        "seed-sync-reject.bin",
        &SyncReject {
            supported: SYNC_PROTOCOL_VERSION,
            got: 0x11,
        }
        .encode(),
    );
    write_seed(
        "sync",
        "seed-query.bin",
        &QueryRequest {
            client: ClientId(5),
            nonce: 99,
            spec: QuerySpec::PathLength { to_ip: 0x0a00_0001 },
            signature: oracle_signature(7),
        }
        .encode(),
    );
    write_seed(
        "sync",
        "seed-reply.bin",
        &QueryReply {
            query: QueryId(3),
            nonce: 99,
            result: QueryResult::Endpoints {
                endpoints: vec![EndpointReport {
                    ip: 0x0a00_0002,
                    client: ClientId(2),
                    authenticated: true,
                }],
            },
            auth_requests_sent: 2,
            auth_replies_received: 1,
            signature: oracle_signature(9),
        }
        .encode(),
    );
    write_seed(
        "sync",
        "seed-auth-request.bin",
        &AuthRequest {
            query: QueryId(3),
            nonce: 123,
            requester: ClientId(5),
        }
        .encode(),
    );
    write_seed(
        "sync",
        "seed-auth-reply.bin",
        &AuthReply {
            query: QueryId(3),
            nonce: 123,
            responder: ClientId(2),
            host_ip: 0x0a00_0002,
            signature: oracle_signature(2),
        }
        .encode(),
    );

    // The fixed allocate-before-validate defects, byte for byte. Layout:
    // tag, version, session u16, serial u64, payload tag, then the lists.
    // A digest list is a varint count n, the Rice parameter k, n k-bit
    // remainders and then n unary quotients (0s ended by a 1), least
    // significant bit first.
    let head = |payload: u8| {
        vec![
            0x56,
            SYNC_PROTOCOL_VERSION,
            0,
            1,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            2,
            payload,
        ]
    };
    let reset_list = |list: &[u8]| [head(3).as_slice(), list].concat();
    // u64::MAX digests claimed, in 8 bytes that hold 2 at k = 31.
    write_seed(
        "sync",
        "regress-huge-digest-count.bin",
        &reset_list(&[
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 31, 0, 0, 0, 0, 0, 0, 0,
            0xc0,
        ]),
    );

    let mut huge_reverified = head(2);
    huge_reverified.extend_from_slice(&[0, 31]); // added: none
    huge_reverified.extend_from_slice(&[0, 31]); // removed: none
    huge_reverified.extend_from_slice(&u32::MAX.to_be_bytes()); // reverified
    write_seed(
        "sync",
        "regress-huge-reverified-count.bin",
        &huge_reverified,
    );

    // The digest-list coder's hostile inputs. A Rice parameter past 63:
    write_seed(
        "sync",
        "regress-rice-parameter-above-63.bin",
        &reset_list(&[1, 64, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    );
    // One below the floor that bounds a list to 2x its wire bytes:
    write_seed(
        "sync",
        "regress-rice-parameter-below-31.bin",
        &reset_list(&[1, 30, 0, 0, 0, 0x80]),
    );
    // A 31-bit remainder, then a unary quotient of 0 bits that the bytes
    // end inside:
    write_seed(
        "sync",
        "regress-unterminated-unary-run.bin",
        &reset_list(&[1, 31, 0, 0, 0, 0, 0, 0, 0, 0]),
    );
    // u64::MAX (63 remainder 1s, quotient 1), then one more digest, which
    // no gap can place past it:
    write_seed(
        "sync",
        "regress-gap-sum-overflow.bin",
        &reset_list(&[
            2, 63, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x01,
        ]),
    );

    // QueryReply claiming u32::MAX endpoint reports after a 4-byte result
    // tag prefix: tag, query u32, nonce u64, result tag 1, count.
    let mut huge_endpoints = vec![0x54];
    huge_endpoints.extend_from_slice(&1u32.to_be_bytes());
    huge_endpoints.extend_from_slice(&2u64.to_be_bytes());
    huge_endpoints.push(1);
    huge_endpoints.extend_from_slice(&u32::MAX.to_be_bytes());
    write_seed("sync", "regress-huge-endpoint-count.bin", &huge_endpoints);
}

fn http_seeds() {
    write_seed(
        "http",
        "seed-get-epoch.bin",
        b"GET /v1/epoch HTTP/1.1\r\n\r\n",
    );
    write_seed(
        "http",
        "seed-get-metrics.bin",
        b"GET /metrics HTTP/1.1\r\naccept: text/plain\r\n\r\n",
    );
    let body = r#"{"client":1,"query":"isolation"}"#;
    let post = format!(
        "POST /v1/query HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    write_seed("http", "seed-post-query.bin", post.as_bytes());
    // Parses with an empty method (split keeps empty tokens) — the
    // canonical-render fixpoint must hold here too.
    write_seed("http", "seed-empty-method.bin", b" / HTTP/1.1\r\n\r\n");
}

fn json_seeds() {
    write_seed(
        "json",
        "seed-query-body.bin",
        br#"{"client":1,"query":"path_length","to_ip":167772161}"#,
    );
    write_seed(
        "json",
        "seed-nested.bin",
        br#"{"a":[1,2,{"b":null,"c":[true,false]}],"d":"text with \"quotes\" and \\ slash"}"#,
    );
    // The fixed recursion defect: deep nesting must be a parse error, not
    // a stack overflow. 4096 unclosed arrays, far past MAX_JSON_DEPTH.
    write_seed("json", "regress-depth-bomb.bin", &vec![b'['; 4096]);
    // The fixed escape asymmetry: quote() emits \u00XX for control
    // characters, so parse() must accept \u escapes (incl. surrogates).
    write_seed(
        "json",
        "regress-control-escape.bin",
        b"[\"\\u0001\",\"\\u0041\",\"\\ud83d\\ude00\"]",
    );
    write_seed("json", "regress-lone-surrogate.bin", br#""\ud800""#);
}

fn cube_seeds() {
    // The cube target reads its input as an operation program; any bytes
    // are valid. Ship deterministic pseudo-random blobs of varied length.
    let mut state = 0x243f_6a88_85a3_08d3u64; // pi, nothing up the sleeve
    let mut blob = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    };
    write_seed("cube", "seed-zeros.bin", &[0u8; 32]);
    write_seed("cube", "seed-small.bin", &blob(48));
    write_seed("cube", "seed-medium.bin", &blob(160));
    write_seed("cube", "seed-large.bin", &blob(512));
}

fn config_seeds() {
    // A full daemon config exercising every `DaemonConfig::set` path,
    // comment stripping, section headers and value unquoting.
    write_seed(
        "config",
        "seed-daemon-config.bin",
        br#"# rvaas daemon configuration
topology = "leaf_spine(2, 4, 2, 7)"
rules_file = "/etc/rvaas/rules.txt"

[service]
workers = 3
cache = off          # trailing comment
sync_listen = "127.0.0.1:8282"
http_listen = 127.0.0.1:8080
"#,
    );
    write_seed(
        "config",
        "seed-minimal.bin",
        b"topology = line(4,2)\nworkers = 1\n",
    );
    // A valid rules file: the config target also feeds its input through
    // the rules-file parser, so rules texts belong in the same corpus.
    write_seed(
        "config",
        "seed-rules-file.bin",
        b"# tenant 1 routing plus a blanket filter\n\
          1 400 src=10.0.0.1 dst=10.0.0.3 output:2\n\
          2 300 dst=10.0.0.0/24 vlan=7 output:1\n\
          3 200 proto=6 l4dst=443 controller\n\
          4 100 ethtype=0x0800 drop\n",
    );
    // The unquote asymmetry: a value wrapped in *two* quote pairs keeps
    // exactly one pair after parsing, and must survive re-rendering.
    write_seed(
        "config",
        "regress-double-quoted-value.bin",
        b"rules_file = \"\"abc\"\"\n",
    );
    // Integer overflow in a numeric setting must be a config error, not a
    // panic or a silent wrap.
    write_seed(
        "config",
        "regress-workers-overflow.bin",
        b"workers = 18446744073709551616\n",
    );
    // An IPv4 prefix past /32 must be rejected by the rules parser (and
    // the embedded `=` makes this an unknown-key error as a config file).
    write_seed(
        "config",
        "regress-prefix-past-32.bin",
        b"1 10 src=10.0.0.1/33 drop\n",
    );
    // The `incremental` switch is retired: a config that still sets it is
    // an unknown-setting error (exit 2), never silently accepted.
    write_seed(
        "config",
        "regress-retired-incremental-key.bin",
        b"topology = line(4,2)\nworkers = 2\nincremental = on\n",
    );
    // A well-formed spec that breaks a generator's precondition (fat-tree
    // arity must be even) is a config error, not a panic in the generator.
    write_seed(
        "config",
        "regress-topology-precondition.bin",
        b"topology = fat_tree(3,2)\nworkers = 2\n",
    );
}

fn main() {
    frame_seeds();
    sync_seeds();
    http_seeds();
    json_seeds();
    cube_seeds();
    config_seeds();
}
