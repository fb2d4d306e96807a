//! Delta-based state synchronisation, modelled on the RTR (RPKI-to-Router)
//! session/serial protocol.
//!
//! The service plane publishes validated network state as *epochs* with a
//! monotonically increasing serial. A client holding epoch `S` asks "what
//! changed since `S`" ([`SyncRequest`]) and receives one of three answers
//! ([`SyncResponse`]):
//!
//! * [`SyncPayload::Unchanged`] — the client is already current;
//! * [`SyncPayload::Delta`] — only the flow-entry digests added and removed
//!   since `S`, plus re-verified results for any of the client's standing
//!   queries the delta invalidated;
//! * [`SyncPayload::Reset`] — the full digest set, sent when the requested
//!   serial predates the server's retained delta history (cache reset in RTR
//!   terms) or the session id does not match.
//!
//! The client-side state machine is [`SyncSession`]; the server side lives
//! in the `rvaas-service` crate.

use std::collections::BTreeSet;

use rvaas_types::{ClientId, Error, Result};

use crate::codec::{ByteReader, ByteWriter};
use crate::protocol::{QueryResult, QuerySpec};

/// Compact digest of one installed flow entry `(switch, priority, match,
/// actions)`. Digests identify entries across the sync protocol without
/// shipping the entries themselves; the service plane computes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowDigest(pub u64);

/// A client's "what changed since serial S" request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncRequest {
    /// The requesting client.
    pub client: ClientId,
    /// The server session the client believes it is synchronised with
    /// (0 = none yet; any mismatch forces a reset).
    pub session: u16,
    /// The epoch serial the client currently holds (0 = none).
    pub have_serial: u64,
}

/// One re-verified standing query included in a delta.
#[derive(Debug, Clone, PartialEq)]
pub struct ReverifiedQuery {
    /// The standing query.
    pub spec: QuerySpec,
    /// Its result at the new epoch.
    pub result: QueryResult,
}

/// The body of a [`SyncResponse`].
#[derive(Debug, Clone, PartialEq)]
pub enum SyncPayload {
    /// The client's serial is current; nothing to transfer.
    Unchanged,
    /// The digests added/removed between the client's serial and the
    /// response serial, plus re-verified standing queries.
    Delta {
        /// Digests of entries installed since the client's serial.
        added: Vec<FlowDigest>,
        /// Digests of entries removed since the client's serial.
        removed: Vec<FlowDigest>,
        /// Standing queries invalidated by the delta, re-answered at the
        /// new epoch.
        reverified: Vec<ReverifiedQuery>,
    },
    /// Full state: the complete digest set at the response serial.
    Reset {
        /// Every digest at the response serial.
        full: Vec<FlowDigest>,
    },
}

/// The service plane's answer to a [`SyncRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SyncResponse {
    /// The server's session id; the client must adopt it.
    pub session: u16,
    /// The serial the payload brings the client to.
    pub serial: u64,
    /// What changed.
    pub payload: SyncPayload,
    /// The trace id the server minted for this exchange (0 = untraced),
    /// echoed so a client can quote it back to the operator when asking
    /// "why did this sync reverify/reset me?". Wire-wise this is an
    /// optional trailing field introduced by the 0x11 minor version: old
    /// decoders ignore it, and this decoder reads it only when present.
    pub trace: u64,
}

pub(crate) const WIRE_TAG_SYNC_REQUEST: u8 = 0x55;
pub(crate) const WIRE_TAG_SYNC_RESPONSE: u8 = 0x56;
pub(crate) const WIRE_TAG_SYNC_REJECT: u8 = 0x57;

/// Current sync wire-protocol version: major in the high nibble, minor in
/// the low nibble. Every [`SyncRequest`]/[`SyncResponse`] carries this byte
/// right after its wire tag; a peer that receives an unknown *major* version
/// must reject the message (minor bumps are compatible extensions).
///
/// History: 0x10 — initial framing; 0x11 — responses may carry a trailing
/// server-minted trace id ([`SyncResponse::trace`]).
pub const SYNC_PROTOCOL_VERSION: u8 = 0x11;

/// The major half of a sync protocol version byte.
#[must_use]
pub const fn sync_version_major(version: u8) -> u8 {
    version >> 4
}

/// Checks a received version byte against [`SYNC_PROTOCOL_VERSION`].
///
/// # Errors
///
/// Returns [`Error::UnsupportedVersion`] when the major versions differ.
pub fn check_sync_version(got: u8) -> Result<()> {
    if sync_version_major(got) == sync_version_major(SYNC_PROTOCOL_VERSION) {
        Ok(())
    } else {
        Err(Error::UnsupportedVersion {
            supported: SYNC_PROTOCOL_VERSION,
            got,
        })
    }
}

/// The server's typed rejection of a sync message whose major version it
/// does not speak. Carries both version bytes so the client can decide
/// whether it is able to downgrade — the negotiation half of the version
/// handshake. Deliberately version-less itself: any implementation must be
/// able to read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReject {
    /// The highest version the server speaks.
    pub supported: u8,
    /// The version byte the server received.
    pub got: u8,
}

impl SyncReject {
    /// Encodes the rejection for embedding into a packet payload or frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WIRE_TAG_SYNC_REJECT);
        w.put_u8(self.supported);
        w.put_u8(self.got);
        w.into_bytes()
    }

    pub(crate) fn decode_body(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(SyncReject {
            supported: r.get_u8()?,
            got: r.get_u8()?,
        })
    }
}

const PAYLOAD_UNCHANGED: u8 = 1;
const PAYLOAD_DELTA: u8 = 2;
const PAYLOAD_RESET: u8 = 3;

fn encode_digests(digests: &[FlowDigest], w: &mut ByteWriter) {
    w.put_u32(digests.len() as u32);
    for d in digests {
        w.put_u64(d.0);
    }
}

fn decode_digests(r: &mut ByteReader<'_>) -> Result<Vec<FlowDigest>> {
    // get_count bounds the claimed digest count by the bytes actually present
    // (8 per digest), so a hostile 4-byte prefix cannot demand gigabytes.
    let n = r.get_count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(FlowDigest(r.get_u64()?));
    }
    Ok(out)
}

impl SyncRequest {
    /// Encodes the request for embedding into a packet payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WIRE_TAG_SYNC_REQUEST);
        w.put_u8(SYNC_PROTOCOL_VERSION);
        w.put_u32(self.client.0);
        w.put_u16(self.session);
        w.put_u64(self.have_serial);
        w.into_bytes()
    }

    pub(crate) fn decode_body(r: &mut ByteReader<'_>) -> Result<Self> {
        check_sync_version(r.get_u8()?)?;
        Ok(SyncRequest {
            client: ClientId(r.get_u32()?),
            session: r.get_u16()?,
            have_serial: r.get_u64()?,
        })
    }
}

impl SyncResponse {
    /// Encodes the response for embedding into a packet payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WIRE_TAG_SYNC_RESPONSE);
        w.put_u8(SYNC_PROTOCOL_VERSION);
        w.put_u16(self.session);
        w.put_u64(self.serial);
        match &self.payload {
            SyncPayload::Unchanged => w.put_u8(PAYLOAD_UNCHANGED),
            SyncPayload::Delta {
                added,
                removed,
                reverified,
            } => {
                w.put_u8(PAYLOAD_DELTA);
                encode_digests(added, &mut w);
                encode_digests(removed, &mut w);
                w.put_u32(reverified.len() as u32);
                for rq in reverified {
                    rq.spec.encode(&mut w);
                    rq.result.encode(&mut w);
                }
            }
            SyncPayload::Reset { full } => {
                w.put_u8(PAYLOAD_RESET);
                encode_digests(full, &mut w);
            }
        }
        // Optional trailing trace id (0x11 extension): omitted when
        // untraced so the wire image of an untraced response is identical
        // to what a 0x10 encoder produced.
        if self.trace != 0 {
            w.put_u64(self.trace);
        }
        w.into_bytes()
    }

    /// Size of the encoded response in bytes (what the sync protocol's
    /// bandwidth accounting measures).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }

    pub(crate) fn decode_body(r: &mut ByteReader<'_>) -> Result<Self> {
        check_sync_version(r.get_u8()?)?;
        let session = r.get_u16()?;
        let serial = r.get_u64()?;
        let payload = match r.get_u8()? {
            PAYLOAD_UNCHANGED => SyncPayload::Unchanged,
            PAYLOAD_DELTA => {
                let added = decode_digests(r)?;
                let removed = decode_digests(r)?;
                // A reverified entry is at least a spec tag + a result tag.
                let n = r.get_count(2)?;
                let mut reverified = Vec::with_capacity(n);
                for _ in 0..n {
                    reverified.push(ReverifiedQuery {
                        spec: QuerySpec::decode(r)?,
                        result: QueryResult::decode(r)?,
                    });
                }
                SyncPayload::Delta {
                    added,
                    removed,
                    reverified,
                }
            }
            PAYLOAD_RESET => SyncPayload::Reset {
                full: decode_digests(r)?,
            },
            tag => return Err(Error::codec(format!("unknown sync payload tag {tag}"))),
        };
        // The 0x11 trailing trace id, absent from 0x10-era encoders (and
        // from untraced 0x11 responses). Fewer than 8 trailing bytes is
        // garbage every version has always ignored.
        let trace = if r.remaining() >= 8 { r.get_u64()? } else { 0 };
        Ok(SyncResponse {
            session,
            serial,
            payload,
            trace,
        })
    }
}

/// Why a [`SyncSession`] could not apply a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// The response's session id differs from the session's; the client must
    /// restart from serial 0.
    SessionMismatch {
        /// The session id the client held.
        expected: u16,
        /// The session id the server answered with.
        got: u16,
    },
    /// A delta removed a digest the client does not hold (state corruption);
    /// the client must request a reset.
    UnknownRemoval(FlowDigest),
    /// A delta arrived while the client holds no state at all.
    DeltaWithoutState,
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::SessionMismatch { expected, got } => {
                write!(
                    f,
                    "session mismatch: held {expected}, server answered {got}"
                )
            }
            SyncError::UnknownRemoval(d) => {
                write!(
                    f,
                    "delta removed digest {:#018x} the client does not hold",
                    d.0
                )
            }
            SyncError::DeltaWithoutState => write!(f, "delta received before any reset"),
        }
    }
}

/// A point-in-time copy of a [`SyncSession`]'s protocol counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncClientStats {
    /// Delta payloads successfully applied.
    pub deltas_applied: u64,
    /// Reset payloads applied (full state transfers).
    pub resets_applied: u64,
    /// "Unchanged" answers received.
    pub unchanged: u64,
    /// Re-verified standing-query results received inside deltas.
    pub reverified_received: u64,
}

/// Client-side sync state: the digest set and serial the client currently
/// mirrors, advanced by applying [`SyncResponse`]s.
#[derive(Debug, Clone, Default)]
pub struct SyncSession {
    session: u16,
    serial: u64,
    digests: BTreeSet<FlowDigest>,
    synchronised: bool,
    stats: SyncClientStats,
    last_trace: u64,
}

impl SyncSession {
    /// A fresh, unsynchronised session.
    #[must_use]
    pub fn new() -> Self {
        SyncSession::default()
    }

    /// The request this client should send next.
    #[must_use]
    pub fn request(&self, client: ClientId) -> SyncRequest {
        SyncRequest {
            client,
            session: self.session,
            have_serial: if self.synchronised { self.serial } else { 0 },
        }
    }

    /// The serial the client currently holds.
    #[must_use]
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// Whether the client has completed at least one reset.
    #[must_use]
    pub fn is_synchronised(&self) -> bool {
        self.synchronised
    }

    /// The digests the client currently mirrors.
    #[must_use]
    pub fn digests(&self) -> &BTreeSet<FlowDigest> {
        &self.digests
    }

    /// A point-in-time copy of the session's protocol counters.
    #[must_use]
    pub fn stats(&self) -> SyncClientStats {
        self.stats
    }

    /// The server-minted trace id echoed in the last applied response
    /// (0 until a traced response arrives) — quote it to the operator to
    /// look the exchange up at `GET /v1/trace/<id>`.
    #[must_use]
    pub fn last_server_trace(&self) -> u64 {
        self.last_trace
    }

    /// Applies a response, advancing the mirrored state.
    ///
    /// # Errors
    ///
    /// Returns a [`SyncError`] when the response cannot be applied (session
    /// mismatch, removal of an unknown digest, delta before any reset); the
    /// caller should drop its state and re-request from serial 0.
    pub fn apply(&mut self, response: &SyncResponse) -> std::result::Result<(), SyncError> {
        if response.trace != 0 {
            self.last_trace = response.trace;
        }
        match &response.payload {
            SyncPayload::Unchanged => {
                if self.synchronised && response.session != self.session {
                    return Err(SyncError::SessionMismatch {
                        expected: self.session,
                        got: response.session,
                    });
                }
                // "Unchanged" means the net delta up to `response.serial` is
                // empty, so the mirror already equals that serial's state:
                // adopt it, otherwise a long stream of cancelling epochs
                // would outgrow the server's delta history and force a
                // spurious full reset.
                if self.synchronised {
                    self.serial = self.serial.max(response.serial);
                }
                self.stats.unchanged += 1;
                Ok(())
            }
            SyncPayload::Delta {
                added,
                removed,
                reverified,
            } => {
                if !self.synchronised {
                    return Err(SyncError::DeltaWithoutState);
                }
                if response.session != self.session {
                    return Err(SyncError::SessionMismatch {
                        expected: self.session,
                        got: response.session,
                    });
                }
                for d in removed {
                    if !self.digests.remove(d) {
                        return Err(SyncError::UnknownRemoval(*d));
                    }
                }
                for d in added {
                    self.digests.insert(*d);
                }
                self.serial = response.serial;
                self.stats.deltas_applied += 1;
                self.stats.reverified_received += reverified.len() as u64;
                Ok(())
            }
            SyncPayload::Reset { full } => {
                self.session = response.session;
                self.serial = response.serial;
                self.digests = full.iter().copied().collect();
                self.synchronised = true;
                self.stats.resets_applied += 1;
                Ok(())
            }
        }
    }

    /// Drops all mirrored state (after an unrecoverable [`SyncError`]). The
    /// protocol counters survive the reset.
    pub fn desynchronise(&mut self) {
        *self = SyncSession {
            stats: self.stats,
            last_trace: self.last_trace,
            ..SyncSession::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_inband, InbandMessage};

    fn digests(vals: &[u64]) -> Vec<FlowDigest> {
        vals.iter().map(|v| FlowDigest(*v)).collect()
    }

    #[test]
    fn sync_request_roundtrip() {
        let req = SyncRequest {
            client: ClientId(9),
            session: 1234,
            have_serial: 77,
        };
        match decode_inband(&req.encode()).unwrap() {
            InbandMessage::SyncRequest(decoded) => assert_eq!(decoded, req),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sync_response_payloads_roundtrip() {
        let payloads = vec![
            SyncPayload::Unchanged,
            SyncPayload::Delta {
                added: digests(&[1, 2]),
                removed: digests(&[3]),
                reverified: vec![ReverifiedQuery {
                    spec: QuerySpec::Isolation,
                    result: QueryResult::IsolationStatus {
                        isolated: true,
                        foreign_endpoints: vec![],
                    },
                }],
            },
            SyncPayload::Reset {
                full: digests(&[5, 6, 7]),
            },
        ];
        for payload in payloads {
            let resp = SyncResponse {
                session: 42,
                serial: 1000,
                payload,
                trace: 0,
            };
            match decode_inband(&resp.encode()).unwrap() {
                InbandMessage::SyncResponse(decoded) => assert_eq!(decoded, resp),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn traced_responses_roundtrip_and_untraced_wire_is_unchanged() {
        let untraced = SyncResponse {
            session: 42,
            serial: 1000,
            payload: SyncPayload::Unchanged,
            trace: 0,
        };
        let traced = SyncResponse {
            trace: 0xdead_beef_cafe_f00d,
            ..untraced.clone()
        };
        // The trailing trace id is the only wire difference.
        assert_eq!(traced.encode().len(), untraced.encode().len() + 8);
        match decode_inband(&traced.encode()).unwrap() {
            InbandMessage::SyncResponse(decoded) => assert_eq!(decoded, traced),
            other => panic!("unexpected {other:?}"),
        }
        // A 0x10-era image (no trailing field) decodes with trace = 0.
        match decode_inband(&untraced.encode()).unwrap() {
            InbandMessage::SyncResponse(decoded) => assert_eq!(decoded.trace, 0),
            other => panic!("unexpected {other:?}"),
        }
        // The session surfaces the echoed trace.
        let mut session = SyncSession::new();
        assert_eq!(session.last_server_trace(), 0);
        let _ = session.apply(&SyncResponse {
            session: 42,
            serial: 1,
            payload: SyncPayload::Reset { full: vec![] },
            trace: 77,
        });
        assert_eq!(session.last_server_trace(), 77);
        session.desynchronise();
        assert_eq!(
            session.last_server_trace(),
            77,
            "diagnostics survive desync"
        );
    }

    #[test]
    fn session_applies_reset_then_delta() {
        let mut session = SyncSession::new();
        assert!(!session.is_synchronised());
        assert_eq!(session.request(ClientId(1)).have_serial, 0);

        session
            .apply(&SyncResponse {
                session: 7,
                serial: 10,
                payload: SyncPayload::Reset {
                    full: digests(&[1, 2, 3]),
                },
                trace: 0,
            })
            .unwrap();
        assert!(session.is_synchronised());
        assert_eq!(session.serial(), 10);
        assert_eq!(session.digests().len(), 3);
        assert_eq!(session.request(ClientId(1)).have_serial, 10);

        session
            .apply(&SyncResponse {
                session: 7,
                serial: 11,
                payload: SyncPayload::Delta {
                    added: digests(&[4]),
                    removed: digests(&[2]),
                    reverified: vec![],
                },
                trace: 0,
            })
            .unwrap();
        assert_eq!(session.serial(), 11);
        assert_eq!(
            session.digests(),
            &digests(&[1, 3, 4]).into_iter().collect()
        );
    }

    #[test]
    fn unchanged_adopts_the_server_serial() {
        // A stream of net-cancelling epochs answers "Unchanged" at ever
        // higher serials; the mirror must ride along, or its stale serial
        // would eventually outlive the server's delta history and force a
        // spurious full reset.
        let mut session = SyncSession::new();
        session
            .apply(&SyncResponse {
                session: 7,
                serial: 10,
                payload: SyncPayload::Reset {
                    full: digests(&[1]),
                },
                trace: 0,
            })
            .unwrap();
        session
            .apply(&SyncResponse {
                session: 7,
                serial: 15,
                payload: SyncPayload::Unchanged,
                trace: 0,
            })
            .unwrap();
        assert_eq!(session.serial(), 15);
        assert_eq!(session.request(ClientId(1)).have_serial, 15);
    }

    #[test]
    fn session_rejects_bad_deltas() {
        let mut session = SyncSession::new();
        let delta = SyncResponse {
            session: 7,
            serial: 11,
            payload: SyncPayload::Delta {
                added: vec![],
                removed: digests(&[99]),
                reverified: vec![],
            },
            trace: 0,
        };
        assert_eq!(session.apply(&delta), Err(SyncError::DeltaWithoutState));

        session
            .apply(&SyncResponse {
                session: 7,
                serial: 10,
                payload: SyncPayload::Reset {
                    full: digests(&[1]),
                },
                trace: 0,
            })
            .unwrap();
        // Unknown removal is state corruption.
        assert_eq!(
            session.apply(&delta),
            Err(SyncError::UnknownRemoval(FlowDigest(99)))
        );
        // Session id change forces a reset.
        let other_session = SyncResponse {
            session: 8,
            serial: 11,
            payload: SyncPayload::Delta {
                added: digests(&[2]),
                removed: vec![],
                reverified: vec![],
            },
            trace: 0,
        };
        assert!(matches!(
            session.apply(&other_session),
            Err(SyncError::SessionMismatch {
                expected: 7,
                got: 8
            })
        ));
        session.desynchronise();
        assert!(!session.is_synchronised());
        assert_eq!(session.stats().resets_applied, 1, "counters survive");
    }

    #[test]
    fn sync_messages_carry_the_protocol_version() {
        let req = SyncRequest {
            client: ClientId(1),
            session: 2,
            have_serial: 3,
        };
        assert_eq!(req.encode()[1], SYNC_PROTOCOL_VERSION);
        let resp = SyncResponse {
            session: 2,
            serial: 3,
            payload: SyncPayload::Unchanged,
            trace: 0,
        };
        assert_eq!(resp.encode()[1], SYNC_PROTOCOL_VERSION);
    }

    #[test]
    fn future_minor_versions_decode_future_majors_are_rejected() {
        let req = SyncRequest {
            client: ClientId(9),
            session: 5,
            have_serial: 7,
        };

        // A minor bump is a compatible extension: still decodes.
        let mut minor = req.encode();
        minor[1] = SYNC_PROTOCOL_VERSION + 1;
        assert!(sync_version_major(minor[1]) == sync_version_major(SYNC_PROTOCOL_VERSION));
        match decode_inband(&minor).unwrap() {
            InbandMessage::SyncRequest(decoded) => assert_eq!(decoded, req),
            other => panic!("unexpected {other:?}"),
        }

        // A major bump is rejected with the typed version error, for both
        // requests and responses.
        let mut major = req.encode();
        major[1] = SYNC_PROTOCOL_VERSION.wrapping_add(0x10);
        assert_eq!(
            decode_inband(&major).unwrap_err(),
            rvaas_types::Error::UnsupportedVersion {
                supported: SYNC_PROTOCOL_VERSION,
                got: SYNC_PROTOCOL_VERSION.wrapping_add(0x10),
            }
        );
        let mut resp = SyncResponse {
            session: 5,
            serial: 7,
            payload: SyncPayload::Unchanged,
            trace: 0,
        }
        .encode();
        resp[1] = 0x20;
        assert!(matches!(
            decode_inband(&resp),
            Err(rvaas_types::Error::UnsupportedVersion { got: 0x20, .. })
        ));
    }

    #[test]
    fn sync_reject_roundtrips_and_reports_the_typed_error() {
        let reject = SyncReject {
            supported: SYNC_PROTOCOL_VERSION,
            got: 0x20,
        };
        match decode_inband(&reject.encode()).unwrap() {
            InbandMessage::SyncReject(decoded) => {
                assert_eq!(decoded, reject);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delta_is_smaller_than_reset_for_small_changes() {
        let full: Vec<FlowDigest> = (0..100).map(FlowDigest).collect();
        let reset = SyncResponse {
            session: 1,
            serial: 2,
            payload: SyncPayload::Reset { full },
            trace: 0,
        };
        let delta = SyncResponse {
            session: 1,
            serial: 2,
            payload: SyncPayload::Delta {
                added: (0..5).map(FlowDigest).collect(),
                removed: (5..10).map(FlowDigest).collect(),
                reverified: vec![],
            },
            trace: 0,
        };
        assert!(delta.encoded_len() < reset.encoded_len());
    }
}
