//! Length-prefixed framing for the served TCP sync endpoint.
//!
//! The in-band codec ([`crate::codec`]) produces self-describing payloads
//! (wire tag + version byte + body), but a TCP stream needs message
//! boundaries on top. The `rvaas` daemon and its clients frame every payload
//! as a big-endian `u32` length followed by the payload bytes — the same
//! shape RTR uses for its PDUs, minus the per-PDU header (ours lives inside
//! the payload).
//!
//! The reader enforces [`MAX_FRAME_LEN`] so a hostile peer cannot make the
//! server allocate unbounded memory from a four-byte prefix. Failures are
//! reported as the typed [`FrameError`] so callers can tell an oversized
//! peer from a torn stream from a plain transport failure without string
//! matching.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload. A full reset for a million-rule
/// network is ~8 MB of digests; 16 MiB leaves headroom without letting one
/// connection hold the heap hostage.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix (read side) or the payload (write side) exceeds
    /// [`MAX_FRAME_LEN`]. Nothing is allocated for such a frame.
    Oversized {
        /// The offending length.
        len: usize,
    },
    /// The stream ended — or a read timed out — mid-prefix or mid-payload:
    /// the peer disconnected, or stalled, with a frame in flight. The bytes
    /// already consumed are gone, so the stream cannot be resynchronised.
    Torn {
        /// How many more bytes the frame still owed.
        missing: usize,
    },
    /// Underlying transport failure (including retryable read timeouts).
    Io(io::Error),
}

impl FrameError {
    /// True when retrying the read is safe and may succeed: a timeout
    /// (`WouldBlock`/`TimedOut`) fired before any byte of the frame was
    /// consumed.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, FrameError::Io(e) if is_timeout(e))
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"
                )
            }
            FrameError::Torn { missing } => {
                write!(f, "stream ended mid-frame ({missing} bytes missing)")
            }
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Oversized { .. } => {
                io::Error::new(io::ErrorKind::InvalidData, e.to_string())
            }
            FrameError::Torn { .. } => io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()),
            FrameError::Io(inner) => inner,
        }
    }
}

/// Writes one length-prefixed frame, prefix and payload in one write, and
/// flushes the stream. One write matters on a socket with Nagle's algorithm
/// on: a separate 4-byte prefix goes out alone and holds the payload back
/// until the peer acknowledges it, which a delayed ack stretches to tens of
/// milliseconds per frame.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] when `payload` exceeds
/// [`MAX_FRAME_LEN`] (nothing is written), or [`FrameError::Io`] when the
/// underlying writer fails.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len: payload.len() });
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end of stream (the peer closed between
/// frames). A timeout before the first length byte arrives surfaces as a
/// retryable [`FrameError::Io`] (see [`FrameError::is_retryable`]): nothing
/// has been consumed.
///
/// # Errors
///
/// Returns [`FrameError::Torn`] on a mid-frame disconnect,
/// [`FrameError::Oversized`] for a length prefix beyond [`MAX_FRAME_LEN`]
/// (rejected before any payload allocation), or [`FrameError::Io`] for any
/// other I/O failure.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no frame" (clean EOF / retryable timeout before any byte)
    // from "torn frame" (EOF or timeout after a partial prefix).
    let first = loop {
        match r.read(&mut len_buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            first => break first?,
        }
    };
    if first == 0 {
        return Ok(None);
    }
    read_exactly(r, &mut len_buf[first..])?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len];
    read_exactly(r, &mut payload)?;
    Ok(Some(payload))
}

/// `read_exact` with EOF and read timeouts mapped to [`FrameError::Torn`]:
/// once any byte of a frame has been consumed, running out of stream is a
/// protocol violation, not a clean close, and a timeout is not retryable —
/// a fresh [`read_frame`] would take the middle of this frame for a length
/// prefix.
fn read_exactly<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    let len = buf.len();
    let torn = |filled: usize| FrameError::Torn {
        missing: len - filled,
    };
    let mut filled = 0;
    while filled < len {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(torn(filled)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(torn(filled)),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"third frame").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"third frame");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF is None");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { len } if len == u32::MAX as usize));
        // The typed error converts to the io::Error the seed returned.
        assert_eq!(io::Error::from(err).kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_exactly_at_the_guard_is_accepted() {
        // len == MAX_FRAME_LEN is legal: the guard rejects strictly larger.
        let payload = vec![0xA5u8; MAX_FRAME_LEN];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = Cursor::new(buf);
        let back = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(back.len(), MAX_FRAME_LEN);
        assert_eq!(back, payload);
    }

    #[test]
    fn frame_one_past_the_guard_is_rejected() {
        // A prefix of exactly MAX_FRAME_LEN + 1 must fail even though the
        // declared payload never follows: the guard fires before allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes());
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { len } if len == MAX_FRAME_LEN + 1));
    }

    #[test]
    fn torn_frame_is_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Torn { missing: 3 })
        ));
    }

    #[test]
    fn truncated_length_prefix_is_torn() {
        // One, two and three header bytes: all torn, never clean EOF.
        for partial in 1..4usize {
            let mut r = Cursor::new(vec![0u8; partial]);
            let err = read_frame(&mut r).unwrap_err();
            assert!(
                matches!(err, FrameError::Torn { missing } if missing == 4 - partial),
                "{partial}-byte header gave {err:?}"
            );
        }
    }

    /// A socket with a read timeout, scripted: each `read` hands out the
    /// next chunk (sized to fit what `read_frame` asks for) or fails.
    struct Scripted(std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let chunk = self.0.pop_front().expect("script ran out")?;
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn a_stall_inside_a_frame_tears_it_and_only_an_idle_timeout_retries() {
        use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello sync").unwrap();
        let (prefix, payload) = (wire[..4].to_vec(), wire[4..].to_vec());
        // Idle: the timeout fires before the first byte. Retry, then read.
        let script = [
            Err(WouldBlock),
            Err(Interrupted),
            Ok(prefix.clone()),
            Ok(payload),
        ];
        let mut idle = Scripted(script.into());
        assert!(read_frame(&mut idle).unwrap_err().is_retryable());
        assert_eq!(read_frame(&mut idle).unwrap().unwrap(), b"hello sync");
        // Stalled after 2 of the 4 prefix bytes, and after 3 payload bytes:
        // the consumed bytes are gone, so a retry would read the middle of
        // the frame as a length. Torn, not retryable.
        for (script, missing) in [
            (vec![Ok(wire[..2].to_vec()), Err(WouldBlock)], 2),
            (vec![Ok(prefix), Ok(wire[4..7].to_vec()), Err(TimedOut)], 7),
        ] {
            let err = read_frame(&mut Scripted(script.into())).unwrap_err();
            assert!(matches!(err, FrameError::Torn { missing: m } if m == missing));
            assert!(!err.is_retryable(), "{err:?}");
        }
    }

    #[test]
    fn oversized_write_is_rejected() {
        let mut sink = Vec::new();
        let too_big = vec![0u8; MAX_FRAME_LEN + 1];
        let err = write_frame(&mut sink, &too_big).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { len } if len == MAX_FRAME_LEN + 1));
        assert!(sink.is_empty(), "nothing may be written for a bad frame");
    }

    #[test]
    fn retryable_timeouts_are_recognised() {
        let timeout = FrameError::Io(io::Error::new(io::ErrorKind::WouldBlock, "later"));
        assert!(timeout.is_retryable());
        let torn = FrameError::Torn { missing: 1 };
        assert!(!torn.is_retryable());
        let hard = FrameError::Io(io::Error::new(io::ErrorKind::ConnectionReset, "gone"));
        assert!(!hard.is_retryable());
    }
}
