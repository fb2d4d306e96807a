//! The RVaaS in-band wire protocol.
//!
//! Clients talk to RVaaS exclusively through ordinary packets carrying a
//! *magic header*: UDP traffic addressed to [`RVAAS_SERVICE_IP`] on
//! [`QUERY_PORT`] (queries and replies) or [`AUTH_PORT`] (authentication
//! round). The RVaaS controller installs interception rules for these headers
//! on every ingress switch, receives the packets as Packet-Ins, and answers
//! with Packet-Outs — the service is "only reachable via a very simple
//! OpenFlow interface and indirectly; no special protocols and servers are
//! needed" (paper Section IV-A3).

use rvaas_crypto::{merkle::MerkleSignature, sha256::Digest, Signature, WotsSignature};
use rvaas_types::{ClientId, Error, Header, Packet, PacketKind, QueryId, Result};

use crate::codec::{ByteReader, ByteWriter};

/// The reserved service address clients send queries to. No real host owns
/// this address; matching rules punt it to the controller.
pub const RVAAS_SERVICE_IP: u32 = 0x0aff_fffe; // 10.255.255.254

/// Magic UDP destination port for query requests and replies.
pub const QUERY_PORT: u16 = 47_999;

/// Magic UDP destination port for authentication requests and replies.
pub const AUTH_PORT: u16 = 48_000;

/// What a client asks RVaaS about its traffic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QuerySpec {
    /// Which destinations (other clients/hosts) can traffic from my access
    /// point reach?
    ReachableDestinations,
    /// Which sources currently have routing paths that reach my access point?
    ReachingSources,
    /// Is my sub-network isolated from other clients (no foreign access
    /// points can reach my hosts and vice versa)?
    Isolation,
    /// Which geographic regions can my traffic traverse?
    GeoLocation,
    /// How long are the paths from my access point to the given destination?
    PathLength {
        /// Destination IP address.
        to_ip: u32,
    },
    /// Is my traffic treated neutrally (no discriminatory rate limits
    /// compared to other clients)?
    Neutrality,
}

impl QuerySpec {
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        match self {
            QuerySpec::ReachableDestinations => w.put_u8(1),
            QuerySpec::ReachingSources => w.put_u8(2),
            QuerySpec::Isolation => w.put_u8(3),
            QuerySpec::GeoLocation => w.put_u8(4),
            QuerySpec::PathLength { to_ip } => {
                w.put_u8(5);
                w.put_u32(*to_ip);
            }
            QuerySpec::Neutrality => w.put_u8(6),
        }
    }

    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            1 => QuerySpec::ReachableDestinations,
            2 => QuerySpec::ReachingSources,
            3 => QuerySpec::Isolation,
            4 => QuerySpec::GeoLocation,
            5 => QuerySpec::PathLength {
                to_ip: r.get_u32()?,
            },
            6 => QuerySpec::Neutrality,
            tag => return Err(Error::codec(format!("unknown query spec tag {tag}"))),
        })
    }
}

fn encode_signature(sig: &Signature, w: &mut ByteWriter) {
    match sig {
        Signature::Oracle(tag) => {
            w.put_u8(2);
            w.put_bytes(tag.as_bytes());
        }
        Signature::Merkle(m) => {
            w.put_u8(1);
            w.put_u32(m.leaf_index);
            w.put_u16(m.wots.chains().len() as u16);
            for c in m.wots.chains() {
                w.put_bytes(c.as_bytes());
            }
            w.put_u16(m.auth_path.len() as u16);
            for d in &m.auth_path {
                w.put_bytes(d.as_bytes());
            }
        }
    }
}

fn decode_digest(r: &mut ByteReader<'_>) -> Result<Digest> {
    let bytes = r.get_bytes()?;
    let arr: [u8; 32] = bytes
        .try_into()
        .map_err(|_| Error::codec("digest must be 32 bytes"))?;
    Ok(Digest(arr))
}

fn decode_signature(r: &mut ByteReader<'_>) -> Result<Signature> {
    match r.get_u8()? {
        2 => Ok(Signature::Oracle(decode_digest(r)?)),
        1 => {
            let leaf_index = r.get_u32()?;
            let n_chains = r.get_u16()? as usize;
            let mut chains = Vec::with_capacity(n_chains);
            for _ in 0..n_chains {
                chains.push(decode_digest(r)?);
            }
            let n_path = r.get_u16()? as usize;
            let mut auth_path = Vec::with_capacity(n_path);
            for _ in 0..n_path {
                auth_path.push(decode_digest(r)?);
            }
            Ok(Signature::Merkle(MerkleSignature {
                leaf_index,
                wots: WotsSignature::from_chains(chains),
                auth_path,
            }))
        }
        tag => Err(Error::codec(format!("unknown signature tag {tag}"))),
    }
}

/// A client query travelling to RVaaS inside a magic-header packet.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The querying client.
    pub client: ClientId,
    /// Client-chosen nonce echoed in the reply (detects replays and lets the
    /// client match replies to queries).
    pub nonce: u64,
    /// What is being asked.
    pub spec: QuerySpec,
    /// Client signature over the fields above.
    pub signature: Signature,
}

impl QueryRequest {
    /// The bytes covered by the client signature.
    #[must_use]
    pub fn signed_bytes(client: ClientId, nonce: u64, spec: &QuerySpec) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str("rvaas-query");
        w.put_u32(client.0);
        w.put_u64(nonce);
        spec.encode(&mut w);
        w.into_bytes()
    }

    /// Encodes the request for embedding into a packet payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WIRE_TAG_QUERY);
        w.put_u32(self.client.0);
        w.put_u64(self.nonce);
        self.spec.encode(&mut w);
        encode_signature(&self.signature, &mut w);
        w.into_bytes()
    }

    fn decode_body(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(QueryRequest {
            client: ClientId(r.get_u32()?),
            nonce: r.get_u64()?,
            spec: QuerySpec::decode(r)?,
            signature: decode_signature(r)?,
        })
    }
}

/// An authentication request RVaaS sends to candidate endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthRequest {
    /// The query this authentication round belongs to.
    pub query: QueryId,
    /// Fresh nonce the responder must sign.
    pub nonce: u64,
    /// The client on whose behalf the check runs (so responders can log it).
    pub requester: ClientId,
}

impl AuthRequest {
    /// Encodes the request.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WIRE_TAG_AUTH_REQUEST);
        w.put_u32(self.query.0);
        w.put_u64(self.nonce);
        w.put_u32(self.requester.0);
        w.into_bytes()
    }

    fn decode_body(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(AuthRequest {
            query: QueryId(r.get_u32()?),
            nonce: r.get_u64()?,
            requester: ClientId(r.get_u32()?),
        })
    }
}

/// A signed authentication reply from an endpoint's client agent.
#[derive(Debug, Clone, PartialEq)]
pub struct AuthReply {
    /// The query being answered.
    pub query: QueryId,
    /// The nonce from the corresponding request.
    pub nonce: u64,
    /// The responding client.
    pub responder: ClientId,
    /// IP address of the responding host.
    pub host_ip: u32,
    /// Responder signature over the fields above.
    pub signature: Signature,
}

impl AuthReply {
    /// The bytes covered by the responder signature.
    #[must_use]
    pub fn signed_bytes(query: QueryId, nonce: u64, responder: ClientId, host_ip: u32) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str("rvaas-auth-reply");
        w.put_u32(query.0);
        w.put_u64(nonce);
        w.put_u32(responder.0);
        w.put_u32(host_ip);
        w.into_bytes()
    }

    /// Encodes the reply.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WIRE_TAG_AUTH_REPLY);
        w.put_u32(self.query.0);
        w.put_u64(self.nonce);
        w.put_u32(self.responder.0);
        w.put_u32(self.host_ip);
        encode_signature(&self.signature, &mut w);
        w.into_bytes()
    }

    fn decode_body(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(AuthReply {
            query: QueryId(r.get_u32()?),
            nonce: r.get_u64()?,
            responder: ClientId(r.get_u32()?),
            host_ip: r.get_u32()?,
            signature: decode_signature(r)?,
        })
    }
}

/// One endpoint reported in a query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointReport {
    /// IP address of the endpoint host.
    pub ip: u32,
    /// Owning client as known to the provider/RVaaS.
    pub client: ClientId,
    /// True if the endpoint proved liveness with a valid signed auth reply.
    pub authenticated: bool,
}

/// One detected network-neutrality violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeutralityViolation {
    /// The disadvantaged client.
    pub victim: ClientId,
    /// The favoured client used as the comparison point.
    pub favoured: ClientId,
    /// Rate limit applied to the victim (kbit/s), if any.
    pub victim_rate_kbps: u64,
    /// Rate limit applied to the favoured client (kbit/s; `u64::MAX` = none).
    pub favoured_rate_kbps: u64,
}

/// The result payload of a query reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Destinations reachable from the querying client's access points.
    Endpoints {
        /// The reachable endpoints.
        endpoints: Vec<EndpointReport>,
    },
    /// Sources able to reach the querying client's access points.
    Sources {
        /// The reaching sources.
        sources: Vec<EndpointReport>,
    },
    /// Isolation status of the client's sub-network.
    IsolationStatus {
        /// True if only the client's own access points can reach its hosts.
        isolated: bool,
        /// Foreign endpoints with connectivity into the client's sub-network.
        foreign_endpoints: Vec<EndpointReport>,
    },
    /// Regions the client's traffic may traverse.
    Regions {
        /// Region labels, sorted and de-duplicated.
        regions: Vec<String>,
    },
    /// Path-length bounds towards a destination.
    PathLength {
        /// Minimum number of switch hops, or 0 if unreachable.
        min_hops: u32,
        /// Maximum number of switch hops, or 0 if unreachable.
        max_hops: u32,
        /// True if the destination is reachable at all.
        reachable: bool,
    },
    /// Network-neutrality / fairness assessment.
    Neutrality {
        /// True if no discriminatory treatment was found.
        fair: bool,
        /// The violations found, if any.
        violations: Vec<NeutralityViolation>,
    },
    /// The query could not be answered.
    Rejected {
        /// Why the query was rejected.
        reason: String,
    },
}

impl QueryResult {
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        match self {
            QueryResult::Endpoints { endpoints } => {
                w.put_u8(1);
                encode_endpoints(endpoints, w);
            }
            QueryResult::Sources { sources } => {
                w.put_u8(2);
                encode_endpoints(sources, w);
            }
            QueryResult::IsolationStatus {
                isolated,
                foreign_endpoints,
            } => {
                w.put_u8(3);
                w.put_u8(u8::from(*isolated));
                encode_endpoints(foreign_endpoints, w);
            }
            QueryResult::Regions { regions } => {
                w.put_u8(4);
                w.put_u32(regions.len() as u32);
                for r in regions {
                    w.put_str(r);
                }
            }
            QueryResult::PathLength {
                min_hops,
                max_hops,
                reachable,
            } => {
                w.put_u8(5);
                w.put_u32(*min_hops);
                w.put_u32(*max_hops);
                w.put_u8(u8::from(*reachable));
            }
            QueryResult::Neutrality { fair, violations } => {
                w.put_u8(6);
                w.put_u8(u8::from(*fair));
                w.put_u32(violations.len() as u32);
                for v in violations {
                    w.put_u32(v.victim.0);
                    w.put_u32(v.favoured.0);
                    w.put_u64(v.victim_rate_kbps);
                    w.put_u64(v.favoured_rate_kbps);
                }
            }
            QueryResult::Rejected { reason } => {
                w.put_u8(7);
                w.put_str(reason);
            }
        }
    }

    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            1 => QueryResult::Endpoints {
                endpoints: decode_endpoints(r)?,
            },
            2 => QueryResult::Sources {
                sources: decode_endpoints(r)?,
            },
            3 => QueryResult::IsolationStatus {
                isolated: r.get_u8()? != 0,
                foreign_endpoints: decode_endpoints(r)?,
            },
            4 => {
                // Each region is at least its 4-byte length prefix.
                let n = r.get_count(4)?;
                let mut regions = Vec::with_capacity(n);
                for _ in 0..n {
                    regions.push(r.get_str()?);
                }
                QueryResult::Regions { regions }
            }
            5 => QueryResult::PathLength {
                min_hops: r.get_u32()?,
                max_hops: r.get_u32()?,
                reachable: r.get_u8()? != 0,
            },
            6 => {
                let fair = r.get_u8()? != 0;
                // A violation is two u32 client ids plus two u64 rates.
                let n = r.get_count(24)?;
                let mut violations = Vec::with_capacity(n);
                for _ in 0..n {
                    violations.push(NeutralityViolation {
                        victim: ClientId(r.get_u32()?),
                        favoured: ClientId(r.get_u32()?),
                        victim_rate_kbps: r.get_u64()?,
                        favoured_rate_kbps: r.get_u64()?,
                    });
                }
                QueryResult::Neutrality { fair, violations }
            }
            7 => QueryResult::Rejected {
                reason: r.get_str()?,
            },
            tag => return Err(Error::codec(format!("unknown result tag {tag}"))),
        })
    }
}

fn encode_endpoints(endpoints: &[EndpointReport], w: &mut ByteWriter) {
    w.put_u32(endpoints.len() as u32);
    for e in endpoints {
        w.put_u32(e.ip);
        w.put_u32(e.client.0);
        w.put_u8(u8::from(e.authenticated));
    }
}

fn decode_endpoints(r: &mut ByteReader<'_>) -> Result<Vec<EndpointReport>> {
    // An endpoint report is two u32s plus a flag byte: bound the claimed
    // count by the bytes present before reserving the output vector.
    let n = r.get_count(9)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(EndpointReport {
            ip: r.get_u32()?,
            client: ClientId(r.get_u32()?),
            authenticated: r.get_u8()? != 0,
        });
    }
    Ok(out)
}

/// The signed reply RVaaS sends back to the querying client.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Identifier RVaaS assigned to the query.
    pub query: QueryId,
    /// Nonce echoed from the request.
    pub nonce: u64,
    /// The result.
    pub result: QueryResult,
    /// Total number of authentication requests issued for this query (lets
    /// the client detect non-responding access points, per the paper).
    pub auth_requests_sent: u32,
    /// Number of valid authentication replies received.
    pub auth_replies_received: u32,
    /// RVaaS signature over all fields above.
    pub signature: Signature,
}

impl QueryReply {
    /// The bytes covered by the RVaaS signature.
    #[must_use]
    pub fn signed_bytes(
        query: QueryId,
        nonce: u64,
        result: &QueryResult,
        auth_requests_sent: u32,
        auth_replies_received: u32,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str("rvaas-reply");
        w.put_u32(query.0);
        w.put_u64(nonce);
        result.encode(&mut w);
        w.put_u32(auth_requests_sent);
        w.put_u32(auth_replies_received);
        w.into_bytes()
    }

    /// Encodes the reply.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WIRE_TAG_REPLY);
        w.put_u32(self.query.0);
        w.put_u64(self.nonce);
        self.result.encode(&mut w);
        w.put_u32(self.auth_requests_sent);
        w.put_u32(self.auth_replies_received);
        encode_signature(&self.signature, &mut w);
        w.into_bytes()
    }

    fn decode_body(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(QueryReply {
            query: QueryId(r.get_u32()?),
            nonce: r.get_u64()?,
            result: QueryResult::decode(r)?,
            auth_requests_sent: r.get_u32()?,
            auth_replies_received: r.get_u32()?,
            signature: decode_signature(r)?,
        })
    }
}

const WIRE_TAG_QUERY: u8 = 0x51;
const WIRE_TAG_AUTH_REQUEST: u8 = 0x52;
const WIRE_TAG_AUTH_REPLY: u8 = 0x53;
const WIRE_TAG_REPLY: u8 = 0x54;

/// Any in-band protocol message, decoded from a packet payload.
#[derive(Debug, Clone, PartialEq)]
pub enum InbandMessage {
    /// A client query.
    Query(QueryRequest),
    /// An RVaaS authentication request.
    AuthRequest(AuthRequest),
    /// A client authentication reply.
    AuthReply(AuthReply),
    /// An RVaaS query reply.
    Reply(QueryReply),
    /// A client delta-sync request ("what changed since serial S").
    SyncRequest(crate::sync::SyncRequest),
    /// A service-plane delta-sync response.
    SyncResponse(crate::sync::SyncResponse),
    /// A typed rejection of a sync message whose major protocol version the
    /// receiver does not speak.
    SyncReject(crate::sync::SyncReject),
}

/// Decodes an in-band message from a raw packet payload.
///
/// # Errors
///
/// Returns a codec error if the payload is not a well-formed protocol
/// message.
pub fn decode_inband(payload: &[u8]) -> Result<InbandMessage> {
    let mut r = ByteReader::new(payload);
    match r.get_u8()? {
        WIRE_TAG_QUERY => Ok(InbandMessage::Query(QueryRequest::decode_body(&mut r)?)),
        WIRE_TAG_AUTH_REQUEST => Ok(InbandMessage::AuthRequest(AuthRequest::decode_body(
            &mut r,
        )?)),
        WIRE_TAG_AUTH_REPLY => Ok(InbandMessage::AuthReply(AuthReply::decode_body(&mut r)?)),
        WIRE_TAG_REPLY => Ok(InbandMessage::Reply(QueryReply::decode_body(&mut r)?)),
        crate::sync::WIRE_TAG_SYNC_REQUEST => Ok(InbandMessage::SyncRequest(
            crate::sync::SyncRequest::decode_body(&mut r)?,
        )),
        crate::sync::WIRE_TAG_SYNC_RESPONSE => Ok(InbandMessage::SyncResponse(
            crate::sync::SyncResponse::decode_body(&mut r)?,
        )),
        crate::sync::WIRE_TAG_SYNC_REJECT => Ok(InbandMessage::SyncReject(
            crate::sync::SyncReject::decode_body(&mut r)?,
        )),
        tag => Err(Error::codec(format!("unknown in-band message tag {tag}"))),
    }
}

/// Builds the packet a client injects to query RVaaS.
#[must_use]
pub fn query_packet(src_ip: u32, request: &QueryRequest) -> Packet {
    let header = Header::builder()
        .ip_src(src_ip)
        .ip_dst(RVAAS_SERVICE_IP)
        .ip_proto(Header::PROTO_UDP)
        .l4_dst(QUERY_PORT)
        .build();
    Packet::with_payload(header, PacketKind::Query, request.encode())
}

/// Builds the packet RVaaS emits (via Packet-Out) towards a candidate
/// endpoint during the authentication round.
#[must_use]
pub fn auth_request_packet(dst_ip: u32, request: &AuthRequest) -> Packet {
    let header = Header::builder()
        .ip_src(RVAAS_SERVICE_IP)
        .ip_dst(dst_ip)
        .ip_proto(Header::PROTO_UDP)
        .l4_dst(AUTH_PORT)
        .build();
    Packet::with_payload(header, PacketKind::AuthRequest, request.encode())
}

/// Builds the packet a client agent sends back in response to an
/// authentication request. It is addressed to the service IP with the magic
/// auth port so that ingress switches punt it to the controller.
#[must_use]
pub fn auth_reply_packet(src_ip: u32, reply: &AuthReply) -> Packet {
    let header = Header::builder()
        .ip_src(src_ip)
        .ip_dst(RVAAS_SERVICE_IP)
        .ip_proto(Header::PROTO_UDP)
        .l4_dst(AUTH_PORT)
        .build();
    Packet::with_payload(header, PacketKind::AuthReply, reply.encode())
}

/// Builds the packet RVaaS emits (via Packet-Out) carrying the final reply
/// back to the querying client.
#[must_use]
pub fn reply_packet(dst_ip: u32, reply: &QueryReply) -> Packet {
    let header = Header::builder()
        .ip_src(RVAAS_SERVICE_IP)
        .ip_dst(dst_ip)
        .ip_proto(Header::PROTO_UDP)
        .l4_dst(QUERY_PORT)
        .build();
    Packet::with_payload(header, PacketKind::QueryReply, reply.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_crypto::{Keypair, SignatureScheme};

    fn oracle_sig(seed: u64, bytes: &[u8]) -> Signature {
        Keypair::generate(SignatureScheme::HmacOracle, seed)
            .sign(bytes)
            .expect("oracle signs")
    }

    #[test]
    fn query_request_roundtrip() {
        let spec = QuerySpec::PathLength { to_ip: 42 };
        let signed = QueryRequest::signed_bytes(ClientId(3), 99, &spec);
        let req = QueryRequest {
            client: ClientId(3),
            nonce: 99,
            spec,
            signature: oracle_sig(1, &signed),
        };
        let decoded = decode_inband(&req.encode()).unwrap();
        assert_eq!(decoded, InbandMessage::Query(req));
    }

    #[test]
    fn all_query_specs_roundtrip() {
        for spec in [
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip: 7 },
            QuerySpec::Neutrality,
        ] {
            let req = QueryRequest {
                client: ClientId(1),
                nonce: 5,
                spec: spec.clone(),
                signature: oracle_sig(1, b"x"),
            };
            match decode_inband(&req.encode()).unwrap() {
                InbandMessage::Query(q) => assert_eq!(q.spec, spec),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn auth_request_and_reply_roundtrip() {
        let req = AuthRequest {
            query: QueryId(9),
            nonce: 1234,
            requester: ClientId(2),
        };
        assert_eq!(
            decode_inband(&req.encode()).unwrap(),
            InbandMessage::AuthRequest(req.clone())
        );

        let signed = AuthReply::signed_bytes(QueryId(9), 1234, ClientId(4), 0x0a000004);
        let reply = AuthReply {
            query: QueryId(9),
            nonce: 1234,
            responder: ClientId(4),
            host_ip: 0x0a000004,
            signature: oracle_sig(2, &signed),
        };
        assert_eq!(
            decode_inband(&reply.encode()).unwrap(),
            InbandMessage::AuthReply(reply)
        );
    }

    #[test]
    fn all_query_results_roundtrip() {
        let results = vec![
            QueryResult::Endpoints {
                endpoints: vec![EndpointReport {
                    ip: 1,
                    client: ClientId(1),
                    authenticated: true,
                }],
            },
            QueryResult::Sources { sources: vec![] },
            QueryResult::IsolationStatus {
                isolated: false,
                foreign_endpoints: vec![EndpointReport {
                    ip: 9,
                    client: ClientId(7),
                    authenticated: false,
                }],
            },
            QueryResult::Regions {
                regions: vec!["EU".to_string(), "US".to_string()],
            },
            QueryResult::PathLength {
                min_hops: 3,
                max_hops: 5,
                reachable: true,
            },
            QueryResult::Neutrality {
                fair: false,
                violations: vec![NeutralityViolation {
                    victim: ClientId(1),
                    favoured: ClientId(2),
                    victim_rate_kbps: 100,
                    favoured_rate_kbps: u64::MAX,
                }],
            },
            QueryResult::Rejected {
                reason: "unknown client".to_string(),
            },
        ];
        for result in results {
            let reply = QueryReply {
                query: QueryId(1),
                nonce: 2,
                result: result.clone(),
                auth_requests_sent: 4,
                auth_replies_received: 3,
                signature: oracle_sig(3, b"y"),
            };
            match decode_inband(&reply.encode()).unwrap() {
                InbandMessage::Reply(r) => assert_eq!(r.result, result),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn merkle_signatures_survive_the_wire() {
        let mut kp = Keypair::generate(SignatureScheme::MerkleWots { height: 2 }, 77);
        let spec = QuerySpec::Isolation;
        let signed = QueryRequest::signed_bytes(ClientId(5), 11, &spec);
        let sig = kp.sign(&signed).expect("capacity");
        let req = QueryRequest {
            client: ClientId(5),
            nonce: 11,
            spec,
            signature: sig,
        };
        match decode_inband(&req.encode()).unwrap() {
            InbandMessage::Query(decoded) => {
                assert!(kp.public_key().verify(
                    &QueryRequest::signed_bytes(decoded.client, decoded.nonce, &decoded.spec),
                    &decoded.signature
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn packet_builders_use_magic_headers() {
        let req = QueryRequest {
            client: ClientId(1),
            nonce: 1,
            spec: QuerySpec::Isolation,
            signature: oracle_sig(1, b"z"),
        };
        let p = query_packet(0x0a000001, &req);
        assert_eq!(p.header.ip_dst, RVAAS_SERVICE_IP);
        assert_eq!(p.header.l4_dst, QUERY_PORT);
        assert_eq!(p.header.ip_proto, Header::PROTO_UDP);
        assert_eq!(p.kind, PacketKind::Query);

        let auth = AuthRequest {
            query: QueryId(1),
            nonce: 1,
            requester: ClientId(1),
        };
        let p = auth_request_packet(0x0a000002, &auth);
        assert_eq!(p.header.l4_dst, AUTH_PORT);
        assert_eq!(p.header.ip_src, RVAAS_SERVICE_IP);

        let reply = AuthReply {
            query: QueryId(1),
            nonce: 1,
            responder: ClientId(2),
            host_ip: 0x0a000002,
            signature: oracle_sig(2, b"w"),
        };
        let p = auth_reply_packet(0x0a000002, &reply);
        assert_eq!(p.header.ip_dst, RVAAS_SERVICE_IP);
        assert_eq!(p.header.l4_dst, AUTH_PORT);
        assert_eq!(p.kind, PacketKind::AuthReply);
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_inband(&[]).is_err());
        assert!(decode_inband(&[0xff, 1, 2, 3]).is_err());
        let req = AuthRequest {
            query: QueryId(1),
            nonce: 1,
            requester: ClientId(1),
        };
        let mut bytes = req.encode();
        bytes.truncate(bytes.len() - 2);
        assert!(decode_inband(&bytes).is_err());
    }
}
