//! The `sam_serviced` wire protocol: length-prefixed little-endian
//! frames over a Unix-domain or TCP socket, with a fully fallible codec —
//! a malformed or truncated frame from one client produces an error
//! response (or closes that connection), never a server panic, and an
//! unencodable field fails the *encoder* ([`WireError::FieldTooLong`])
//! instead of silently truncating on the wire.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! frame    := u32 payload_len, payload           (payload_len <= MAX_FRAME)
//! request  := 0x00 scan | 0x01 shutdown
//! scan     := u8 kind (0 inclusive, 1 exclusive)
//!             u16 tenant_len, tenant (utf-8)
//!             u32 n, n * i32 values
//!             u8 has_heads, [n * u8 heads if 1]
//!             u8 has_recurrence, [u16 k, k * i32 coeffs if 1]
//!             u8 stream_flags (bit0 keep streaming, bit1 has checkpoint)
//!             [u32 ckpt_len, ckpt bytes if bit1]
//! response := u8 status (0 ok, 1 error, 2 ok + checkpoint)
//!             0:   u32 n, n * i32 outputs
//!             1:   u16 msg_len, msg (utf-8)
//!             2:   u32 n, n * i32 outputs, u32 ckpt_len, ckpt bytes
//! ```
//!
//! The stream-flags byte is mandatory (a scan frame without it is
//! [`WireError::Truncated`]); undefined flag bits are rejected rather
//! than ignored so they stay available for future revisions.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use crate::{ScanKind, ScanOutput, ScanRequest};

/// Hard ceiling on a frame's payload, bounding what one client can make
/// the server allocate (a scan of `MAX_FRAME / 4` elements is already far
/// past any sane micro-request).
pub const MAX_FRAME: usize = 64 << 20;

/// Request opcode: execute a scan.
pub const OP_SCAN: u8 = 0;
/// Request opcode: ask the server to shut down gracefully.
pub const OP_SHUTDOWN: u8 = 1;

/// Stream-flags bit: the client wants a carry checkpoint back
/// ([`ScanRequest::streaming`]).
pub const FLAG_STREAMING: u8 = 1;
/// Stream-flags bit: the frame carries a resume checkpoint
/// ([`ScanRequest::checkpoint`]).
pub const FLAG_HAS_CHECKPOINT: u8 = 2;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute a scan on behalf of a tenant.
    Scan(ScanRequest),
    /// Drain and stop the server.
    Shutdown,
}

/// Why a frame could not be encoded or decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a declared field.
    Truncated,
    /// A declared length exceeds [`MAX_FRAME`]: a frame, a checkpoint, or
    /// a value count. The length is in bytes; a value count is reported
    /// as the bytes its values take (4 each).
    Oversized(usize),
    /// Unknown request opcode.
    BadOpcode(u8),
    /// Unknown scan-kind byte.
    BadKind(u8),
    /// Undefined stream-flags bits were set.
    BadStreamFlags(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Tenant bytes are not UTF-8.
    BadTenant,
    /// Unconsumed bytes after the declared fields.
    TrailingBytes(usize),
    /// An *encoder-side* rejection: the named field does not fit its wire
    /// representation. The request is refused before any bytes are
    /// written — never clamped to fit, which would silently change its
    /// meaning (a truncated tenant misattributes metrics; a truncated
    /// coefficient list computes a different recurrence).
    FieldTooLong {
        /// Which field overflowed (`"tenant"`, `"recurrence coefficients"`,
        /// `"values"`, `"checkpoint"`, `"error message"`).
        field: &'static str,
        /// The field's actual length.
        len: usize,
        /// The wire format's ceiling for it.
        max: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized(n) => {
                write!(f, "a declared length of {n} bytes exceeds MAX_FRAME")
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::BadKind(k) => write!(f, "unknown scan kind {k}"),
            WireError::BadStreamFlags(b) => write!(f, "undefined stream-flag bits in {b:#04x}"),
            WireError::BadStatus(s) => write!(f, "unknown response status {s}"),
            WireError::BadTenant => write!(f, "tenant is not valid utf-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after request"),
            WireError::FieldTooLong { field, len, max } => {
                write!(f, "{field} of length {len} exceeds the wire maximum {max}")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if bytes.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    Ok(head)
}

fn take_u8(bytes: &mut &[u8]) -> Result<u8, WireError> {
    Ok(take(bytes, 1)?[0])
}

fn take_u16(bytes: &mut &[u8]) -> Result<u16, WireError> {
    let raw = take(bytes, 2)?;
    Ok(u16::from_le_bytes([raw[0], raw[1]]))
}

fn take_u32(bytes: &mut &[u8]) -> Result<u32, WireError> {
    let raw = take(bytes, 4)?;
    Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
}

/// Decodes one request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut rest = payload;
    let request = match take_u8(&mut rest)? {
        OP_SHUTDOWN => Request::Shutdown,
        OP_SCAN => {
            let kind = match take_u8(&mut rest)? {
                0 => ScanKind::Inclusive,
                1 => ScanKind::Exclusive,
                k => return Err(WireError::BadKind(k)),
            };
            let tenant_len = take_u16(&mut rest)? as usize;
            let tenant = std::str::from_utf8(take(&mut rest, tenant_len)?)
                .map_err(|_| WireError::BadTenant)?
                .to_owned();
            let n = take_u32(&mut rest)? as usize;
            // n is bounded by the frame cap the caller already enforced;
            // still guard the multiply so a lying header cannot wrap.
            if n > MAX_FRAME / 4 {
                return Err(WireError::Oversized(n.saturating_mul(4)));
            }
            let raw = take(&mut rest, n * 4)?;
            let values = raw
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            let heads = match take_u8(&mut rest)? {
                0 => Vec::new(),
                _ => take(&mut rest, n)?.iter().map(|&b| b != 0).collect(),
            };
            let recurrence = match take_u8(&mut rest)? {
                0 => None,
                _ => {
                    let k = take_u16(&mut rest)? as usize;
                    let raw = take(&mut rest, k * 4)?;
                    Some(
                        raw.chunks_exact(4)
                            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect(),
                    )
                }
            };
            let flags = take_u8(&mut rest)?;
            if flags & !(FLAG_STREAMING | FLAG_HAS_CHECKPOINT) != 0 {
                return Err(WireError::BadStreamFlags(flags));
            }
            let checkpoint = if flags & FLAG_HAS_CHECKPOINT != 0 {
                let ckpt_len = take_u32(&mut rest)? as usize;
                if ckpt_len > MAX_FRAME {
                    return Err(WireError::Oversized(ckpt_len));
                }
                Some(take(&mut rest, ckpt_len)?.to_vec())
            } else {
                None
            };
            Request::Scan(ScanRequest {
                tenant,
                kind,
                values,
                heads,
                recurrence,
                streaming: flags & FLAG_STREAMING != 0,
                checkpoint,
            })
        }
        op => return Err(WireError::BadOpcode(op)),
    };
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes(rest.len()));
    }
    Ok(request)
}

/// Encodes a scan request payload (without the length prefix).
///
/// # Errors
///
/// [`WireError::FieldTooLong`] when the tenant name or recurrence
/// coefficient list overflows its `u16` length prefix, or when `values`
/// could not fit a [`MAX_FRAME`] payload — the request is *rejected*, not
/// clamped, because a silently shortened field would execute a different
/// request than the caller built. [`WireError::Oversized`] when the
/// assembled payload nevertheless exceeds [`MAX_FRAME`] (e.g. values plus
/// a large checkpoint).
pub fn encode_scan(request: &ScanRequest) -> Result<Vec<u8>, WireError> {
    let tenant = request.tenant.as_bytes();
    if tenant.len() > u16::MAX as usize {
        return Err(WireError::FieldTooLong {
            field: "tenant",
            len: tenant.len(),
            max: u16::MAX as usize,
        });
    }
    if request.values.len() > MAX_FRAME / 4 {
        // Client-side bound: a request this large dies at the server's
        // frame cap anyway — fail before the doomed round-trip.
        return Err(WireError::FieldTooLong {
            field: "values",
            len: request.values.len(),
            max: MAX_FRAME / 4,
        });
    }
    if let Some(coeffs) = &request.recurrence {
        if coeffs.len() > u16::MAX as usize {
            return Err(WireError::FieldTooLong {
                field: "recurrence coefficients",
                len: coeffs.len(),
                max: u16::MAX as usize,
            });
        }
    }
    if let Some(ckpt) = &request.checkpoint {
        if ckpt.len() > MAX_FRAME {
            return Err(WireError::FieldTooLong {
                field: "checkpoint",
                len: ckpt.len(),
                max: MAX_FRAME,
            });
        }
    }
    let mut out = Vec::with_capacity(16 + tenant.len() + request.values.len() * 5);
    out.push(OP_SCAN);
    out.push(match request.kind {
        ScanKind::Inclusive => 0,
        ScanKind::Exclusive => 1,
    });
    out.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
    out.extend_from_slice(tenant);
    out.extend_from_slice(&(request.values.len() as u32).to_le_bytes());
    for v in &request.values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    if request.heads.is_empty() {
        out.push(0);
    } else {
        out.push(1);
        out.extend(request.heads.iter().map(|&h| u8::from(h)));
    }
    match &request.recurrence {
        None => out.push(0),
        Some(coeffs) => {
            out.push(1);
            out.extend_from_slice(&(coeffs.len() as u16).to_le_bytes());
            for c in coeffs {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    let mut flags = 0u8;
    if request.streaming {
        flags |= FLAG_STREAMING;
    }
    if request.checkpoint.is_some() {
        flags |= FLAG_HAS_CHECKPOINT;
    }
    out.push(flags);
    if let Some(ckpt) = &request.checkpoint {
        out.extend_from_slice(&(ckpt.len() as u32).to_le_bytes());
        out.extend_from_slice(ckpt);
    }
    if out.len() > MAX_FRAME {
        return Err(WireError::Oversized(out.len()));
    }
    Ok(out)
}

/// Encodes the shutdown request payload.
pub fn encode_shutdown() -> Vec<u8> {
    vec![OP_SHUTDOWN]
}

/// Encodes a response payload: `Ok` outputs (with status 2 when a
/// checkpoint rides along) or an error message.
///
/// # Errors
///
/// [`WireError::FieldTooLong`] when the error message overflows its `u16`
/// length prefix (see [`encode_response_lossy`] for the server-side
/// fallback); [`WireError::Oversized`] when the outputs cannot fit a
/// [`MAX_FRAME`] payload.
pub fn encode_response(result: &Result<ScanOutput, String>) -> Result<Vec<u8>, WireError> {
    match result {
        Ok(output) => {
            let mut out = Vec::with_capacity(13 + output.values.len() * 4);
            out.push(if output.checkpoint.is_some() { 2 } else { 0 });
            out.extend_from_slice(&(output.values.len() as u32).to_le_bytes());
            for v in &output.values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            if let Some(ckpt) = &output.checkpoint {
                out.extend_from_slice(&(ckpt.len() as u32).to_le_bytes());
                out.extend_from_slice(ckpt);
            }
            if out.len() > MAX_FRAME {
                return Err(WireError::Oversized(out.len()));
            }
            Ok(out)
        }
        Err(msg) if msg.len() > u16::MAX as usize => Err(WireError::FieldTooLong {
            field: "error message",
            len: msg.len(),
            max: u16::MAX as usize,
        }),
        Err(msg) => Ok(error_frame(msg)),
    }
}

/// The status-1 frame carrying `msg`. Callers pass a message that fits
/// the `u16` length prefix; the clamp only keeps the frame consistent,
/// so building it cannot fail.
fn error_frame(msg: &str) -> Vec<u8> {
    let bytes = &msg.as_bytes()[..msg.len().min(u16::MAX as usize)];
    let mut out = Vec::with_capacity(3 + bytes.len());
    out.push(1);
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Server-side [`encode_response`] that always produces a frame: an error
/// message too long for the wire is *explicitly* shortened (at a UTF-8
/// character boundary, with a marker) rather than byte-clamped, and an
/// unencodable success degrades to an error response. A daemon must reply
/// with *something* or the client hangs — but the shortening happens
/// here, visibly, not as a silent side effect of the codec.
pub fn encode_response_lossy(result: &Result<ScanOutput, String>) -> Vec<u8> {
    match (result, encode_response(result)) {
        (_, Ok(frame)) => frame,
        (Err(msg), Err(_)) => shortened_error_frame(msg),
        (Ok(_), Err(err)) => shortened_error_frame(&format!("response unencodable: {err}")),
    }
}

/// [`error_frame`] for any message: one too long for the `u16` length
/// prefix is cut at a UTF-8 character boundary and marked.
fn shortened_error_frame(msg: &str) -> Vec<u8> {
    const MARKER: &str = "…[shortened]";
    if msg.len() <= u16::MAX as usize {
        return error_frame(msg);
    }
    let mut cut = u16::MAX as usize - MARKER.len();
    while !msg.is_char_boundary(cut) {
        cut -= 1;
    }
    error_frame(&format!("{}{MARKER}", &msg[..cut]))
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Result<ScanOutput, String>, WireError> {
    let mut rest = payload;
    let status = take_u8(&mut rest)?;
    let result = match status {
        0 | 2 => {
            let n = take_u32(&mut rest)? as usize;
            if n > MAX_FRAME / 4 {
                return Err(WireError::Oversized(n.saturating_mul(4)));
            }
            let raw = take(&mut rest, n * 4)?;
            let values = raw
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            let checkpoint = if status == 2 {
                let ckpt_len = take_u32(&mut rest)? as usize;
                if ckpt_len > MAX_FRAME {
                    return Err(WireError::Oversized(ckpt_len));
                }
                Some(take(&mut rest, ckpt_len)?.to_vec())
            } else {
                None
            };
            Ok(ScanOutput { values, checkpoint })
        }
        1 => {
            let len = take_u16(&mut rest)? as usize;
            let msg = String::from_utf8_lossy(take(&mut rest, len)?).into_owned();
            Err(msg)
        }
        s => return Err(WireError::BadStatus(s)),
    };
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes(rest.len()));
    }
    Ok(result)
}

/// Writes one length-prefixed frame: the header and the payload go out in
/// one vectored write (one `writev` on a socket), and a short write is
/// finished with `write_all` on what is left. A payload whose length does
/// not fit the 4-byte header fails with `ErrorKind::InvalidInput` before
/// any bytes are written.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let header = u32::try_from(payload.len())
        .map_err(|_| invalid_input(WireError::Oversized(payload.len())))?
        .to_le_bytes();
    // An interrupted first write sent nothing; `write_all` retries it.
    let written = match stream.write_vectored(&[IoSlice::new(&header), IoSlice::new(payload)]) {
        Ok(n) => n,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
        Err(e) => return Err(e),
    };
    stream.write_all(&header[written.min(header.len())..])?;
    stream.write_all(&payload[written.saturating_sub(header.len())..])?;
    stream.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on a clean EOF at a frame
/// boundary (client hung up); oversized declarations fail without
/// allocating.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversized(len),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

fn invalid_input(err: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, err)
}

fn invalid_data(err: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, err)
}

/// A minimal blocking client for `sam_serviced`, over a Unix socket
/// ([`Client::connect`]) or TCP ([`Client::connect_tcp`]) — or any other
/// byte stream via [`Client::from_stream`].
///
/// Besides the one-round-trip [`Client::scan`], the split
/// [`Client::send_scan`] / [`Client::recv`] pair pipelines: a load
/// generator can keep several requests in flight per connection and the
/// server answers in order, which is what hides a real network's
/// round-trip latency (the framing carries no request IDs — responses are
/// strictly FIFO per connection).
#[derive(Debug)]
pub struct Client<S: Read + Write = UnixStream> {
    stream: S,
    /// Responses owed by the server (sent but not yet received).
    in_flight: usize,
}

impl Client<UnixStream> {
    /// Connects to a running server's Unix socket.
    pub fn connect(path: impl AsRef<std::path::Path>) -> std::io::Result<Client<UnixStream>> {
        Ok(Client::from_stream(UnixStream::connect(path)?))
    }
}

impl Client<TcpStream> {
    /// Connects to a running server's TCP listener. Disables Nagle's
    /// algorithm: the protocol is request/response and a delayed partial
    /// frame would stall the pipeline.
    pub fn connect_tcp(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Client<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client::from_stream(stream))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected byte stream.
    pub fn from_stream(stream: S) -> Client<S> {
        Client {
            stream,
            in_flight: 0,
        }
    }

    /// Responses currently owed by the server ([`Client::send_scan`] calls
    /// not yet matched by [`Client::recv`]).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Sends one scan request without waiting for its response
    /// (pipelining). An unencodable request fails with
    /// `ErrorKind::InvalidInput` before any bytes are written.
    pub fn send_scan(&mut self, request: &ScanRequest) -> std::io::Result<()> {
        let payload = encode_scan(request).map_err(invalid_input)?;
        write_frame(&mut self.stream, &payload)?;
        self.in_flight += 1;
        Ok(())
    }

    /// Receives the next pipelined response, in send order.
    pub fn recv(&mut self) -> std::io::Result<Result<ScanOutput, String>> {
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server hung up")
        })?;
        self.in_flight = self.in_flight.saturating_sub(1);
        decode_response(&payload).map_err(invalid_data)
    }

    /// Executes one scan request and returns its outputs, or the server's
    /// error message. Streaming checkpoints are discarded; use
    /// [`Client::scan_output`] to keep them.
    pub fn scan(&mut self, request: &ScanRequest) -> std::io::Result<Result<Vec<i32>, String>> {
        Ok(self.scan_output(request)?.map(|output| output.values))
    }

    /// [`Client::scan`] keeping the full [`ScanOutput`], including the
    /// next-frame checkpoint of a streaming request.
    pub fn scan_output(
        &mut self,
        request: &ScanRequest,
    ) -> std::io::Result<Result<ScanOutput, String>> {
        self.send_scan(request)?;
        self.recv()
    }

    /// Asks the server to shut down gracefully; returns its acknowledgment.
    pub fn shutdown_server(&mut self) -> std::io::Result<Result<Vec<i32>, String>> {
        write_frame(&mut self.stream, &encode_shutdown())?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server hung up")
        })?;
        Ok(decode_response(&payload)
            .map_err(invalid_data)?
            .map(|output| output.values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: &ScanRequest) {
        let decoded = decode_request(&encode_scan(req).unwrap()).unwrap();
        assert_eq!(decoded, Request::Scan(req.clone()));
    }

    #[test]
    fn scan_request_roundtrips() {
        roundtrip(
            &ScanRequest::exclusive("tenant-x", vec![1, -2, 3]).with_heads(vec![true, false, true]),
        );
        assert_eq!(
            decode_request(&encode_shutdown()).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn recurrence_requests_roundtrip() {
        roundtrip(&ScanRequest::inclusive("iir", vec![4, 5, 6]).with_recurrence(vec![2, -1]));
        // Empty coefficient vectors survive too (rejection is the
        // service's call, not the codec's).
        roundtrip(&ScanRequest::inclusive("iir", vec![1]).with_recurrence(Vec::new()));
    }

    #[test]
    fn streaming_requests_roundtrip() {
        roundtrip(&ScanRequest::inclusive("s", vec![1, 2]).streaming());
        roundtrip(&ScanRequest::inclusive("s", vec![3]).with_checkpoint(vec![7; 40]));
        // Final frame: checkpoint, no further streaming.
        let mut last = ScanRequest::inclusive("s", vec![4]).with_checkpoint(vec![0xab; 8]);
        last.streaming = false;
        roundtrip(&last);
        // A zero-length checkpoint is distinct from no checkpoint.
        roundtrip(&ScanRequest::inclusive("s", vec![5]).with_checkpoint(Vec::new()));
    }

    #[test]
    fn undefined_stream_flags_are_rejected() {
        let mut frame = encode_scan(&ScanRequest::inclusive("t", vec![1])).unwrap();
        let flags = frame.len() - 1;
        frame[flags] = 4;
        assert_eq!(decode_request(&frame), Err(WireError::BadStreamFlags(4)));
        // A lying checkpoint length is bounded before allocation.
        frame[flags] = FLAG_HAS_CHECKPOINT;
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&frame),
            Err(WireError::Oversized(_))
        ));
    }

    /// A writer that takes at most `max` bytes per call, like a socket
    /// whose send buffer is nearly full.
    struct Trickle {
        out: Vec<u8>,
        max: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.max);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(self.max - n);
                self.out.extend_from_slice(&buf[..take]);
                n += take;
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_vectored_writes_still_send_the_whole_frame() {
        let payload: Vec<u8> = (0..11).collect();
        let mut expected = 11u32.to_le_bytes().to_vec();
        expected.extend_from_slice(&payload);
        for max in 1..=expected.len() {
            let mut w = Trickle {
                out: Vec::new(),
                max,
            };
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.out, expected, "max {max} bytes per write");
        }
    }

    #[test]
    fn response_roundtrips() {
        let ok: Result<ScanOutput, String> = Ok(ScanOutput {
            values: vec![5, 10, -3],
            checkpoint: None,
        });
        assert_eq!(decode_response(&encode_response(&ok).unwrap()).unwrap(), ok);
        let ok_ckpt: Result<ScanOutput, String> = Ok(ScanOutput {
            values: vec![1],
            checkpoint: Some(vec![0xca, 0xfe]),
        });
        let frame = encode_response(&ok_ckpt).unwrap();
        assert_eq!(frame[0], 2);
        assert_eq!(decode_response(&frame).unwrap(), ok_ckpt);
        let err: Result<ScanOutput, String> = Err("queue full".into());
        assert_eq!(
            decode_response(&encode_response(&err).unwrap()).unwrap(),
            err
        );
        assert_eq!(decode_response(&[9]), Err(WireError::BadStatus(9)));
    }

    #[test]
    fn oversized_tenant_is_an_error_not_a_truncation() {
        let req = ScanRequest::inclusive("t".repeat(u16::MAX as usize + 1), vec![1]);
        assert_eq!(
            encode_scan(&req),
            Err(WireError::FieldTooLong {
                field: "tenant",
                len: u16::MAX as usize + 1,
                max: u16::MAX as usize,
            })
        );
        // Exactly at the ceiling still round-trips.
        roundtrip(&ScanRequest::inclusive(
            "t".repeat(u16::MAX as usize),
            vec![1],
        ));
    }

    #[test]
    fn oversized_coefficient_list_is_an_error_not_a_truncation() {
        let req =
            ScanRequest::inclusive("iir", vec![1]).with_recurrence(vec![1; u16::MAX as usize + 1]);
        assert_eq!(
            encode_scan(&req),
            Err(WireError::FieldTooLong {
                field: "recurrence coefficients",
                len: u16::MAX as usize + 1,
                max: u16::MAX as usize,
            })
        );
    }

    #[test]
    fn oversized_values_fail_client_side_before_the_round_trip() {
        let req = ScanRequest::inclusive("t", vec![0; MAX_FRAME / 4 + 1]);
        assert!(matches!(
            encode_scan(&req),
            Err(WireError::FieldTooLong {
                field: "values",
                ..
            })
        ));
    }

    #[test]
    fn oversized_error_message_is_shortened_explicitly_not_clamped() {
        let long = "é".repeat(40_000); // 2 bytes per char: 80k > u16::MAX
        let result: Result<ScanOutput, String> = Err(long);
        assert!(matches!(
            encode_response(&result),
            Err(WireError::FieldTooLong {
                field: "error message",
                ..
            })
        ));
        let frame = encode_response_lossy(&result);
        let decoded = decode_response(&frame).unwrap().unwrap_err();
        assert!(decoded.ends_with("…[shortened]"), "visible marker");
        assert!(decoded
            .chars()
            .all(|c| c == 'é' || "…[shortened]".contains(c)));
    }

    #[test]
    fn oversized_success_falls_back_to_a_decodable_error_frame() {
        // Status, count and values: five bytes past the payload limit.
        let result: Result<ScanOutput, String> = Ok(ScanOutput {
            values: vec![0; MAX_FRAME / 4],
            checkpoint: None,
        });
        assert!(matches!(
            encode_response(&result),
            Err(WireError::Oversized(_))
        ));
        let frame = encode_response_lossy(&result);
        let decoded = decode_response(&frame).unwrap().unwrap_err();
        assert!(decoded.starts_with("response unencodable: "), "{decoded}");
        assert!(decoded.contains("exceeds MAX_FRAME"), "{decoded}");
    }

    #[test]
    fn truncated_and_malformed_frames_are_errors_not_panics() {
        let full = encode_scan(
            &ScanRequest::inclusive("t", vec![1, 2, 3]).with_checkpoint(vec![1, 2, 3, 4]),
        )
        .unwrap();
        for cut in 0..full.len() {
            assert!(
                decode_request(&full[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert_eq!(decode_request(&[9]), Err(WireError::BadOpcode(9)));
        assert_eq!(decode_request(&[OP_SCAN, 7]), Err(WireError::BadKind(7)));
        let mut trailing = full;
        trailing.push(0);
        assert_eq!(decode_request(&trailing), Err(WireError::TrailingBytes(1)));
        // A header declaring more values than any frame can carry is
        // rejected before the allocation it implies.
        let mut lying = vec![OP_SCAN, 0, 0, 0];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&lying),
            Err(WireError::Oversized(_))
        ));
    }

    /// The value-count guard of both decoders at its bound: one value past
    /// what a frame can carry is `Oversized` (in bytes), however short the
    /// payload; a count at the bound passes the guard and the missing
    /// values are `Truncated`.
    #[test]
    fn value_count_past_the_frame_cap_is_oversized() {
        for (n, oversized) in [(MAX_FRAME / 4 + 1, true), (MAX_FRAME / 4, false)] {
            let count = u32::try_from(n).unwrap().to_le_bytes();
            // Opcode, kind, an empty tenant, then the count.
            let mut request = vec![OP_SCAN, 0, 0, 0];
            request.extend_from_slice(&count);
            // Status, then the count.
            let mut response = vec![0];
            response.extend_from_slice(&count);
            let want = if oversized {
                WireError::Oversized(4 * n)
            } else {
                WireError::Truncated
            };
            assert_eq!(decode_request(&request), Err(want), "n={n}");
            assert!(
                matches!(decode_response(&response), Err(e) if e == want),
                "n={n}"
            );
        }
        assert_eq!(
            WireError::Oversized(MAX_FRAME + 4).to_string(),
            format!(
                "a declared length of {} bytes exceeds MAX_FRAME",
                MAX_FRAME + 4
            )
        );
    }

    #[test]
    fn random_bytes_never_panic_the_decoders() {
        let mut state = 0x9e3779b97f4a7c15u64;
        for len in 0..256usize {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as u8
                })
                .collect();
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }
    }

    #[test]
    fn mutated_valid_frames_decode_or_error_without_panicking() {
        // Flip bytes of a structurally valid frame (a cheap fuzz pass over
        // the field boundaries the TCP transport also exercises).
        let base = encode_scan(
            &ScanRequest::exclusive("fuzz", vec![1, -2, 3])
                .with_heads(vec![true, false, true])
                .with_checkpoint(vec![9; 16]),
        )
        .unwrap();
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut frame = base.clone();
                frame[i] ^= 1 << bit;
                let _ = decode_request(&frame);
            }
        }
    }
}
