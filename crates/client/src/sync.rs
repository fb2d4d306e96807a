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
//! Every digest list on the wire — a Reset's full set, a Delta's added and
//! removed — is one sorted-gap Golomb-Rice code: the gaps between
//! ascending digests, each a `k`-bit remainder and a unary quotient, with
//! `k` picked from the list's mean gap. A set of `n` uniform 64-bit digests
//! carries about `64 - log2(n) + 1.44` bits a member; the code spends
//! about `64 - log2(n) + 1.5`, so a `fat_tree(8,32)` Reset of 10 752
//! digests is 52 bits a digest instead of 64, and the saving grows with
//! the network. The decoder yields digests ascending.
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
    /// response serial, plus re-verified standing queries. Both digest
    /// lists are strictly ascending, as the wire codes them.
    Delta {
        /// Digests of entries installed since the client's serial.
        added: Vec<FlowDigest>,
        /// Digests of entries removed since the client's serial.
        removed: Vec<FlowDigest>,
        /// Standing queries invalidated by the delta, re-answered at the
        /// new epoch.
        reverified: Vec<ReverifiedQuery>,
    },
    /// Full state: the complete digest set at the response serial,
    /// strictly ascending.
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
    /// optional trailing field, omitted when 0 and read only when present.
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
/// server-minted trace id ([`SyncResponse::trace`]); 0x20 — every digest
/// list is Golomb-Rice coded instead of raw 8-byte digests behind a `u32`
/// count, so a 0x1x peer is answered with a [`SyncReject`].
pub const SYNC_PROTOCOL_VERSION: u8 = 0x20;

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

/// The smallest Rice parameter a digest list may carry. Each digest then
/// costs at least `MIN_RICE_K + 1` = 32 bits on the wire, so a list decodes
/// to at most twice the bytes that carried it (a digest is 8 bytes in
/// memory), whatever count it claims. Real lists never come near the
/// floor: the mean gap of `n` uniform 64-bit digests is `2^64 / n`, below
/// `2^31` only past `2^33` digests.
const MIN_RICE_K: u32 = 31;

/// The Rice parameter for a strictly ascending list of `n` digests ending
/// at `last`: `floor(log2)` of the mean coded gap, within
/// [`MIN_RICE_K`]`..=63`. The coded gaps sum to `last - (n - 1)`, so the
/// list's own gaps set it without a pass over them; every quotient then
/// averages under 2, and the list costs under `k + 3` bits a digest.
fn rice_parameter(n: usize, last: Option<FlowDigest>) -> u32 {
    let Some(last) = last else {
        return MIN_RICE_K;
    };
    let mean = last.0.saturating_sub(n as u64 - 1) / n as u64;
    (mean.max(1).ilog2()).clamp(MIN_RICE_K, 63)
}

/// Appends the low bits of values to a byte vector, least significant bit
/// first, a 64-bit word at a time.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Bits not yet written, in the low `fill` bits; the rest are 0.
    acc: u64,
    fill: u32,
}

impl BitWriter<'_> {
    /// Appends the low `width` bits of `value`; `width` is 1..=64 and no
    /// bit of `value` above it is set.
    #[inline]
    fn put(&mut self, value: u64, width: u32) {
        self.acc |= value << self.fill;
        let end = self.fill + width;
        if end >= 64 {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
            self.acc = if self.fill == 0 {
                0
            } else {
                value >> (64 - self.fill)
            };
            self.fill = end - 64;
        } else {
            self.fill = end;
        }
    }

    /// Appends `count` 0 bits.
    fn zeros(&mut self, count: u64) {
        let mut end = u64::from(self.fill) + count;
        while end >= 64 {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
            self.acc = 0;
            end -= 64;
        }
        self.fill = end as u32;
    }

    /// Writes out the last partial word, padded with 0 bits to a byte.
    fn finish(self) {
        let bytes = self.fill.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
    }
}

/// The bits of `bytes` from bit `bit` on, least significant first: at
/// least 57 of them, 0 past the end.
#[inline]
fn bits_from(bytes: &[u8], bit: usize) -> u64 {
    let at = bit / 8;
    let word = match bytes.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
        None => {
            let mut tail = [0; 8];
            let rest = bytes.get(at..).unwrap_or_default();
            tail[..rest.len()].copy_from_slice(rest);
            u64::from_le_bytes(tail)
        }
    };
    word >> (bit % 8)
}

/// The low `width` (below 64) bits set.
#[inline]
fn low_bits(width: u32) -> u64 {
    (1 << width) - 1
}

/// Appends one digest list, which must be strictly ascending. The list is
/// a sorted-gap Golomb-Rice code: a varint count `n`, one byte for the
/// Rice parameter `k` ([`rice_parameter`]), then the bit stream, least
/// significant bit first. Each digest's gap — the digest itself for the
/// first, its distance from the one before less one after that — is coded
/// as its low `k` bits and the quotient `gap >> k` in unary (that many 0
/// bits, then a 1). The stream holds the `n` remainders first and the `n`
/// quotients after them, so that a decoder reads each remainder at a fixed
/// offset instead of after the quotient before it, and is padded with 0
/// bits to a byte.
///
/// # Panics
///
/// When `list` is not strictly ascending.
fn put_digests(w: &mut ByteWriter, list: &[FlowDigest]) {
    let n = list.len();
    let k = rice_parameter(n, list.last().copied());
    w.put_varint(n as u64);
    w.put_u8(k as u8);
    let out = w.bytes_mut();
    // Every quotient averages under 2 (see `rice_parameter`).
    out.reserve(n * (k as usize + 3) / 8 + 8);
    let mut bits = BitWriter {
        out,
        acc: 0,
        fill: 0,
    };
    let mask = low_bits(k);
    // The least value the next digest may take; none after `u64::MAX`.
    let mut next = Some(0u64);
    for digest in list {
        let gap = next.and_then(|least| digest.0.checked_sub(least));
        next = digest.0.checked_add(1);
        bits.put(gap.expect("digest lists are strictly ascending") & mask, k);
    }
    // The order is checked, so no digest follows `u64::MAX` here.
    let mut next = 0u64;
    for digest in list {
        let q = (digest.0 - next) >> k;
        next = digest.0.wrapping_add(1);
        if q < 64 {
            bits.put(1 << q, q as u32 + 1);
        } else {
            bits.zeros(q);
            bits.put(1, 1);
        }
    }
    bits.finish();
}

/// Reads one [`put_digests`] list, ascending. A count the bytes present
/// could not hold at `k + 1` bits a digest is refused before anything is
/// allocated, and so are a Rice parameter outside [`MIN_RICE_K`]`..=63`, a
/// list that ends inside a unary quotient and gaps that overflow `u64`.
fn get_digests(r: &mut ByteReader<'_>) -> Result<Vec<FlowDigest>> {
    let n = r.get_varint()?;
    let k = u32::from(r.get_u8()?);
    if !(MIN_RICE_K..=63).contains(&k) {
        return Err(Error::codec(format!(
            "Rice parameter {k} outside {MIN_RICE_K}..=63"
        )));
    }
    let bytes = r.rest();
    let fits = bytes.len() as u64 * 8 / u64::from(k + 1);
    if n > fits {
        return Err(Error::codec(format!(
            "implausible digest count {n}: {} bytes hold at most {fits}",
            bytes.len()
        )));
    }
    let n = n as usize;
    let (width, mask) = (k as usize, low_bits(k));
    // The remainders first, each at a fixed offset.
    let mut out: Vec<FlowDigest> = Vec::with_capacity(n);
    if k <= 56 {
        out.extend((0..n).map(|i| FlowDigest(bits_from(bytes, i * width) & mask)));
    } else {
        out.extend((0..n).map(|i| {
            let bit = i * width;
            let high = bits_from(bytes, bit + 32) & mask >> 32;
            FlowDigest(bits_from(bytes, bit) & low_bits(32) | high << 32)
        }));
    }
    // Then the quotients' unary codes, each gap added to the digest before
    // it. `unread` is the first bit of the next code, and `window` holds
    // the terminating 1s not yet used among the 56 bits from `base` on.
    let mut unread = n * width;
    let mut base = unread;
    let mut window = bits_from(bytes, base) & low_bits(56);
    // The least value the next digest may take. A quotient of `2^(64 - k)`
    // or more is a gap past `u64` on its own, which the OR of them all
    // shows. Any other overflow, a sum past `u64` or a digest after
    // `u64::MAX`, leaves the list not strictly ascending. Both are checked
    // after the loop, so that no step branches on them, and the order only
    // when a step `wrapped` (a last digest of `u64::MAX` is fine).
    let (mut next, mut quotients, mut wrapped) = (0u64, 0u64, false);
    for digest in &mut out {
        while window == 0 {
            base += 56;
            if base >= bytes.len() * 8 {
                return Err(Error::codec("digest list ends inside a unary quotient"));
            }
            window = bits_from(bytes, base) & low_bits(56);
        }
        let end = base + window.trailing_zeros() as usize;
        window &= window - 1;
        let q = (end - unread) as u64;
        unread = end + 1;
        quotients |= q;
        let (value, carry) = next.overflowing_add(q << k | digest.0);
        next = value.wrapping_add(1);
        wrapped |= carry | (next == 0);
        digest.0 = value;
    }
    if quotients >> (64 - k) != 0 || wrapped && !out.windows(2).all(|pair| pair[0] < pair[1]) {
        return Err(Error::codec("digest gaps sum past u64::MAX"));
    }
    r.skip(unread.div_ceil(8))?;
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
    ///
    /// # Panics
    ///
    /// When a digest list is not strictly ascending.
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
                put_digests(&mut w, added);
                put_digests(&mut w, removed);
                w.put_u32(reverified.len() as u32);
                for rq in reverified {
                    rq.spec.encode(&mut w);
                    rq.result.encode(&mut w);
                }
            }
            SyncPayload::Reset { full } => {
                w.put_u8(PAYLOAD_RESET);
                put_digests(&mut w, full);
            }
        }
        // The optional trailing trace id, omitted when untraced (0).
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
                let added = get_digests(r)?;
                let removed = get_digests(r)?;
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
                full: get_digests(r)?,
            },
            tag => return Err(Error::codec(format!("unknown sync payload tag {tag}"))),
        };
        // The trailing trace id, absent from untraced responses. Fewer
        // than 8 trailing bytes is garbage every version has ignored.
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
                // Decoded lists are ascending, so the collect's sort is
                // one pass and the tree is built bottom-up.
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
        // A 0x1x response, whose digest lists were raw, is refused too.
        let mut resp = SyncResponse {
            session: 5,
            serial: 7,
            payload: SyncPayload::Unchanged,
            trace: 0,
        }
        .encode();
        resp[1] = 0x11;
        assert!(matches!(
            decode_inband(&resp),
            Err(rvaas_types::Error::UnsupportedVersion { got: 0x11, .. })
        ));
    }

    #[test]
    fn sync_reject_roundtrips_and_reports_the_typed_error() {
        let reject = SyncReject {
            supported: SYNC_PROTOCOL_VERSION,
            got: 0x11,
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

    /// A Reset's encoding, then its digest list alone: what follows the
    /// 13-byte head (tag, version, session, serial, payload tag).
    fn reset_list(full: &[u64]) -> Vec<u8> {
        SyncResponse {
            session: 1,
            serial: 2,
            payload: SyncPayload::Reset {
                full: digests(full),
            },
            trace: 0,
        }
        .encode()[13..]
            .to_vec()
    }

    /// A Reset response around a hand-made digest list.
    fn reset_with_list(list: &[u8]) -> Vec<u8> {
        let mut bytes = SyncResponse {
            session: 1,
            serial: 2,
            payload: SyncPayload::Reset { full: vec![] },
            trace: 0,
        }
        .encode()[..13]
            .to_vec();
        bytes.extend_from_slice(list);
        bytes
    }

    fn decoded_reset(bytes: &[u8]) -> rvaas_types::Result<Vec<FlowDigest>> {
        match decode_inband(bytes)? {
            InbandMessage::SyncResponse(SyncResponse {
                payload: SyncPayload::Reset { full },
                ..
            }) => Ok(full),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn digest_lists_are_rice_coded_gaps() {
        // Empty: a zero count and the floor parameter, no bits.
        assert_eq!(reset_list(&[]), [0, MIN_RICE_K as u8]);
        // [0, 1]: two zero gaps at k = 31, two 31-bit remainders of 0 and
        // then two quotients of 0, a 1 bit each.
        assert_eq!(
            reset_list(&[0, 1]),
            [2, 31, 0, 0, 0, 0, 0, 0, 0, 0b1100_0000],
            "count, k, 62 remainder bits, 2 quotient bits"
        );
        // One digest: its value is its gap, coded at k = floor(log2): 63
        // remainder 1s, then the quotient 1 as a 0 and a 1.
        assert_eq!(
            reset_list(&[u64::MAX]),
            [1, 63, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0b01]
        );
        // A uniform set costs about 64 - log2(n) + 1.5 bits a digest.
        let mut state = 7u64;
        let mut set: Vec<u64> = (0..4096)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect();
        set.sort_unstable();
        set.dedup();
        let bits = reset_list(&set).len() as f64 * 8.0 / set.len() as f64;
        assert!((53.0..54.0).contains(&bits), "{bits} bits a digest");
        assert_eq!(
            decoded_reset(&reset_with_list(&reset_list(&set))).unwrap(),
            digests(&set)
        );
    }

    #[test]
    fn digest_list_edges_roundtrip() {
        for full in [
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![0, u64::MAX],
            vec![u64::MAX - 1, u64::MAX],
            (0..1000).collect(),
            (0..64).map(|b| 1u64 << b).collect(),
            (0..64).map(|b| u64::MAX >> b).rev().collect(),
            // One huge gap among tiny ones: a quotient far past a word.
            (0..100).chain([u64::MAX / 2]).collect(),
        ] {
            let bytes = reset_with_list(&reset_list(&full));
            assert_eq!(decoded_reset(&bytes).unwrap(), digests(&full), "{full:?}");
        }
    }

    #[test]
    fn unsorted_lists_are_refused_by_the_encoder() {
        // `[u64::MAX, 5]`: no digest may follow `u64::MAX`, though 5 is
        // past the wrapped-around least value 0.
        for list in [vec![5, 3], vec![5, 5], vec![u64::MAX, 5], vec![u64::MAX, 0]] {
            let panic = std::panic::catch_unwind(|| reset_list(&list)).unwrap_err();
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_default();
            assert!(
                message.contains("strictly ascending"),
                "{list:?}: {message}"
            );
        }
    }

    #[test]
    fn hostile_digest_lists_are_typed_errors() {
        let hostile: [(&str, Vec<u8>); 9] = [
            ("outside 31..=63", vec![1, 64, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            ("outside 31..=63", vec![1, 30, 1, 0, 0, 0]),
            // 2^32 digests claimed in 16 bytes: at 32 bits each, 4 fit.
            ("implausible digest count 4294967296", {
                let mut list = vec![0x80, 0x80, 0x80, 0x80, 0x10, 31];
                list.extend([0xff; 16]);
                list
            }),
            ("implausible digest count 2", vec![2, 31, 1, 0, 0, 0]),
            // Eight bytes of 0 bits: the unary run never ends.
            (
                "inside a unary quotient",
                vec![1, 31, 0, 0, 0, 0, 0, 0, 0, 0],
            ),
            // Two 31-bit remainders, then a first quotient of 1 (a 0 and a
            // 1) that leaves no bit for the second.
            (
                "inside a unary quotient",
                vec![2, 31, 0, 0, 0, 0, 0, 0, 0, 0b1000_0000],
            ),
            // A quotient whose gap overflows u64 on its own: 2 at k = 63.
            (
                "sum past u64::MAX",
                vec![1, 63, 0, 0, 0, 0, 0, 0, 0, 0, 0b10],
            ),
            // Two gaps of 2^63 (remainders 0, quotients 1 at k = 63): the
            // second digest's sum carries past u64.
            ("sum past u64::MAX", {
                let mut list = vec![2, 63];
                list.extend([0; 15]);
                list.extend([0b1000_0000, 0b10]);
                list
            }),
            // u64::MAX (63 remainder 1s, quotient 1), then a gap of 0
            // (remainder 0, quotient 0) past it.
            ("sum past u64::MAX", {
                let mut list = vec![2, 63, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
                list.extend([0, 0, 0, 0, 0, 0, 0, 0b1000_0000, 0b1]);
                list
            }),
        ];
        for (reason, list) in hostile {
            match decoded_reset(&reset_with_list(&list)) {
                Err(rvaas_types::Error::Codec(message)) if message.contains(reason) => {}
                other => panic!("{reason}: {other:?}"),
            }
        }
    }

    #[test]
    fn decoded_lists_take_at_most_twice_their_wire_bytes() {
        // The densest list the floor allows: gaps of 0 at k = 31, 4 bytes
        // a digest on the wire, 8 in memory.
        let full: Vec<u64> = (0..10_000).collect();
        let list = reset_list(&full);
        assert_eq!(list[2], MIN_RICE_K as u8, "after a 2-byte count");
        assert!(full.len() * 8 <= 2 * list.len(), "{} bytes", list.len());
    }
}
