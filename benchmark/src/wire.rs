//! The load generator's side of the two sockets: a keep-alive HTTP/1.1
//! client for `POST /v1/query` and a framed sync client. Both set
//! `TCP_NODELAY` and send each request with a single `write_all`, so a stall
//! on the wire is never the generator's doing; neither closes its connection
//! between requests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;

use rvaas_client::{
    decode_inband, read_frame, write_frame, InbandMessage, QuerySpec, SyncResponse, SyncSession,
};
use rvaas_daemon::json;
use rvaas_types::ClientId;

/// An operation that has not completed after this long counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(OP_TIMEOUT))?;
    stream.set_write_timeout(Some(OP_TIMEOUT))?;
    Ok(stream)
}

/// The bytes of one `POST /v1/query` request for `(client, spec)`.
pub fn query_request(client: ClientId, spec: &QuerySpec) -> Vec<u8> {
    let name = json::query_name(spec);
    let body = match spec {
        QuerySpec::PathLength { to_ip } => {
            format!(
                "{{\"client\":{},\"query\":\"{name}\",\"to_ip\":{to_ip}}}",
                client.0
            )
        }
        _ => format!("{{\"client\":{},\"query\":\"{name}\"}}", client.0),
    };
    format!(
        "POST /v1/query HTTP/1.1\r\nHost: rvaas\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn bad_response(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

/// Reads HTTP/1.1 responses with a `Content-Length` body off a byte stream.
/// Bytes that arrive beyond one response (two responses coalesced into one
/// read) are kept for the next call; a response split over many reads is
/// reassembled.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that belong to the response already
    /// returned.
    consumed: usize,
    body: Range<usize>,
}

impl ResponseReader {
    /// Reads one whole response and returns its status code; the body is
    /// available from [`ResponseReader::body`] until the next call.
    pub fn read_response<R: Read>(&mut self, r: &mut R) -> io::Result<u16> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.body = 0..0;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((status, body)) = parse_response(&self.buf)? {
                self.consumed = body.end;
                self.body = body;
                return Ok(status);
            }
            let n = r.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// The body of the response last returned.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.clone()]
    }
}

/// Parses one response from the front of `buf`: `None` while it is still
/// incomplete, otherwise its status and the range its body occupies.
fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, Range<usize>)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad_response("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad_response("malformed status line"))?;
    let length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok())
        .ok_or_else(|| bad_response("missing Content-Length"))?;
    let body = head_end + 4..head_end + 4 + length;
    Ok((buf.len() >= body.end).then_some((status, body)))
}

/// One keep-alive HTTP connection to the daemon.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    reader: ResponseReader,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(HttpClient {
            stream: connect(addr)?,
            reader: ResponseReader::default(),
        })
    }

    /// Sends `request` (one write) and reads the whole response.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<u16> {
        self.stream.write_all(request)?;
        self.reader.read_response(&mut self.stream)
    }

    pub fn body(&self) -> &[u8] {
        self.reader.body()
    }
}

/// One long-lived sync connection and the session state riding on it.
#[derive(Debug)]
pub struct SyncClient {
    stream: TcpStream,
    pub session: SyncSession,
    out: Vec<u8>,
}

impl SyncClient {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(SyncClient {
            stream: connect(addr)?,
            session: SyncSession::new(),
            out: Vec::with_capacity(64),
        })
    }

    /// One sync exchange as `client`: request frame out (one write), response
    /// frame in, decoded and applied to the session. Returns the bytes the
    /// response occupied on the wire and the decoded response.
    pub fn exchange(&mut self, client: ClientId) -> Result<(usize, SyncResponse), String> {
        self.out.clear();
        write_frame(&mut self.out, &self.session.request(client).encode())
            .map_err(|e| e.to_string())?;
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("sync write: {e}"))?;
        let frame = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("sync connection closed")?;
        let response = match decode_inband(&frame).map_err(|e| e.to_string())? {
            InbandMessage::SyncResponse(response) => response,
            other => return Err(format!("expected a SyncResponse, got {other:?}")),
        };
        self.session
            .apply(&response)
            .map_err(|e| format!("sync apply: {e}"))?;
        Ok((frame.len() + 4, response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its script one chunk per `read` call.
    struct Chunks(Vec<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let chunk = self.0.remove(0);
            out[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    fn response(body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn a_response_split_across_reads_is_reassembled() {
        let raw = response("{\"ok\":true}");
        // Split inside the head, inside the blank line and inside the body.
        let cuts = [7, raw.len() - 14, raw.len() - 5];
        let mut chunks = Vec::new();
        let mut from = 0;
        for cut in cuts {
            chunks.push(raw[from..cut].to_vec());
            from = cut;
        }
        chunks.push(raw[from..].to_vec());
        let mut reader = ResponseReader::default();
        let status = reader.read_response(&mut Chunks(chunks)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(reader.body(), b"{\"ok\":true}");
    }

    #[test]
    fn coalesced_responses_are_read_one_at_a_time() {
        let mut raw = response("first");
        raw.extend(response("second, longer"));
        let mut source = Chunks(vec![raw]);
        let mut reader = ResponseReader::default();
        assert_eq!(reader.read_response(&mut source).unwrap(), 200);
        assert_eq!(reader.body(), b"first");
        // The second response is already buffered: no further read needed.
        assert_eq!(reader.read_response(&mut source).unwrap(), 200);
        assert_eq!(reader.body(), b"second, longer");
        // Nothing left: a third read hits end of stream.
        assert!(reader.read_response(&mut source).is_err());
    }

    #[test]
    fn error_statuses_and_garbage_are_told_apart() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\r\n{}".to_vec();
        let mut reader = ResponseReader::default();
        assert_eq!(reader.read_response(&mut Chunks(vec![raw])).unwrap(), 503);
        let raw = b"garbage\r\n\r\n".to_vec();
        assert!(ResponseReader::default()
            .read_response(&mut Chunks(vec![raw]))
            .is_err());
    }

    #[test]
    fn request_bytes_parse_back_into_the_same_query() {
        for (client, spec) in [
            (ClientId(3), QuerySpec::Isolation),
            (ClientId(9), QuerySpec::PathLength { to_ip: 0x0a00_0001 }),
        ] {
            let raw = query_request(client, &spec);
            let request = rvaas_daemon::http::read_request(&mut io::Cursor::new(raw))
                .unwrap()
                .unwrap();
            assert_eq!(request.method, "POST");
            assert_eq!(request.target, "/v1/query");
            assert!(!request.close, "the generator keeps connections alive");
            assert_eq!(
                json::parse_query_request(&request.body).unwrap(),
                (client, spec)
            );
        }
    }
}
