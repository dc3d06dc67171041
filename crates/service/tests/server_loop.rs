//! In-process tests of the daemon's connection loop, `server::serve`: over
//! a socket pair for framing edge cases (partial frames, pipelined
//! frames, frames larger than the read buffer, a bad frame or a shutdown
//! behind good ones, with more frames pipelined behind it), and over a
//! counting stream for the number of `read` and `write` calls each
//! request costs.

use std::io::{Cursor, IoSlice, IoSliceMut, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sam_service::server::{serve, Connection};
use sam_service::wire;
use sam_service::{ScanOutput, ScanRequest, ScanService, ServiceConfig};

/// `BufReader`'s default capacity, which `serve` reads through.
const READ_BUF: usize = 8 * 1024;

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

/// Request `i` of a test: `n` values that differ from every other
/// request's, so a reply answered out of order cannot match.
fn values(i: usize, n: usize) -> Vec<i32> {
    (0..n).map(|j| (i * 7 + j % 13) as i32 - 5).collect()
}

fn scan_frame(values: &[i32]) -> Vec<u8> {
    frame(&wire::encode_scan(&ScanRequest::inclusive("loop", values.to_vec())).unwrap())
}

fn inclusive(values: &[i32]) -> Vec<i32> {
    values
        .iter()
        .scan(0i32, |acc, &v| {
            *acc = acc.wrapping_add(v);
            Some(*acc)
        })
        .collect()
}

fn recv(stream: &mut impl Read) -> Option<Result<ScanOutput, String>> {
    let payload = wire::read_frame(stream).expect("read reply")?;
    Some(wire::decode_response(&payload).expect("decode reply"))
}

fn expect_values(stream: &mut impl Read, values: &[i32]) {
    let reply = recv(stream).expect("a reply, not EOF");
    assert_eq!(reply.expect("scan succeeds").values, inclusive(values));
}

/// Runs `serve` on one end of a socket pair and `client` on the other,
/// then closes the client's write half so the loop sees EOF. Returns
/// whether `serve` set its stop flag.
fn with_server(client: impl FnOnce(&mut UnixStream)) -> bool {
    let service = ScanService::start(ServiceConfig::default());
    let stop = AtomicBool::new(false);
    let (mut client_end, server_end) = UnixStream::pair().unwrap();
    client_end
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| serve(server_end, &service, &stop));
        client(&mut client_end);
        let _ = client_end.shutdown(Shutdown::Write);
    });
    service.shutdown();
    stop.load(Ordering::Acquire)
}

#[test]
fn a_frame_sent_one_byte_at_a_time_is_answered() {
    let stopped = with_server(|stream| {
        let first = values(0, 5);
        for byte in scan_frame(&first) {
            stream.write_all(&[byte]).unwrap();
            std::thread::sleep(Duration::from_micros(200));
        }
        expect_values(stream, &first);
        // The loop's buffer is back at a frame boundary.
        let second = values(1, 3);
        stream.write_all(&scan_frame(&second)).unwrap();
        expect_values(stream, &second);
    });
    assert!(!stopped);
}

#[test]
fn fifty_frames_in_one_write_are_answered_in_order() {
    with_server(|stream| {
        let requests: Vec<Vec<i32>> = (0..50).map(|i| values(i, 1 + i % 9)).collect();
        let bytes: Vec<u8> = requests.iter().flat_map(|v| scan_frame(v)).collect();
        stream.write_all(&bytes).unwrap();
        for request in &requests {
            expect_values(stream, request);
        }
    });
}

#[test]
fn a_frame_longer_than_the_read_buffer_is_answered() {
    with_server(|stream| {
        let big = values(3, 16 * 1024);
        let small = values(4, 7);
        let mut bytes = scan_frame(&big);
        assert!(bytes.len() > READ_BUF);
        bytes.extend(scan_frame(&small));
        stream.write_all(&bytes).unwrap();
        expect_values(stream, &big);
        expect_values(stream, &small);
    });
}

#[test]
fn replies_to_good_frames_precede_the_bad_frame_error_and_the_close() {
    let stopped = with_server(|stream| {
        let requests: Vec<Vec<i32>> = (0..3).map(|i| values(i, 4)).collect();
        let mut bytes: Vec<u8> = requests.iter().flat_map(|v| scan_frame(v)).collect();
        bytes.extend(frame(&[0xFF]));
        stream.write_all(&bytes).unwrap();
        for request in &requests {
            expect_values(stream, request);
        }
        let err = recv(stream)
            .expect("an error reply, not EOF")
            .expect_err("a bad frame is an error");
        assert!(err.starts_with("bad frame"), "{err}");
        assert!(recv(stream).is_none(), "the connection closes");
    });
    assert!(!stopped);
}

#[test]
fn replies_to_requests_precede_the_shutdown_ack() {
    let stopped = with_server(|stream| {
        let requests: Vec<Vec<i32>> = (0..3).map(|i| values(i, 6)).collect();
        let mut bytes: Vec<u8> = requests.iter().flat_map(|v| scan_frame(v)).collect();
        bytes.extend(frame(&wire::encode_shutdown()));
        stream.write_all(&bytes).unwrap();
        for request in &requests {
            expect_values(stream, request);
        }
        let ack = recv(stream).expect("an ack, not EOF").expect("ack is ok");
        assert_eq!(
            ack,
            ScanOutput {
                values: Vec::new(),
                checkpoint: None
            }
        );
        assert!(recv(stream).is_none(), "the connection closes");
    });
    assert!(stopped);
}

/// A client that pipelined more than a read buffer of frames behind a bad
/// frame reads every earlier reply, then the error, then a clean EOF: the
/// loop shuts its write half and drains the rest before it closes, so
/// the close does not reset the connection.
#[test]
fn frames_pipelined_past_a_bad_frame_end_in_a_clean_eof() {
    let stopped = with_server(|stream| {
        let requests: Vec<Vec<i32>> = (0..3).map(|i| values(i, 4)).collect();
        let mut bytes: Vec<u8> = requests.iter().flat_map(|v| scan_frame(v)).collect();
        bytes.extend(frame(&[0xFF]));
        let behind: Vec<u8> = (0..200).flat_map(|i| scan_frame(&values(i, 8))).collect();
        assert!(
            behind.len() > READ_BUF,
            "frames must reach past the read-ahead"
        );
        bytes.extend(behind);
        stream.write_all(&bytes).unwrap();
        for request in &requests {
            expect_values(stream, request);
        }
        let err = recv(stream)
            .expect("an error reply, not EOF")
            .expect_err("a bad frame is an error");
        assert!(err.starts_with("bad frame"), "{err}");
        let mut rest = Vec::new();
        let read = stream.read_to_end(&mut rest);
        assert!(
            matches!(read, Ok(0)),
            "a clean EOF after the error, not {read:?}"
        );
    });
    assert!(!stopped);
}

/// A stream preloaded with the client's bytes that records the replies
/// and counts every call that would be a syscall on a socket.
struct Counted {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
    reads: usize,
    writes: usize,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        self.input.read(buf)
    }
    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> std::io::Result<usize> {
        self.reads += 1;
        self.input.read_vectored(bufs)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.output.write(buf)
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.writes += 1;
        self.output.write_vectored(bufs)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Connection for Counted {}

#[test]
fn each_small_request_costs_one_write_and_a_share_of_one_read() {
    const N: usize = 200;
    let requests: Vec<Vec<i32>> = (0..N).map(|i| values(i, 8)).collect();
    let input: Vec<u8> = requests.iter().flat_map(|v| scan_frame(v)).collect();
    assert!(input.len() > READ_BUF, "frames must straddle a refill");
    let read_bound = input.len().div_ceil(READ_BUF) + 1;
    let mut stream = Counted {
        input: Cursor::new(input),
        output: Vec::new(),
        reads: 0,
        writes: 0,
    };
    let service = ScanService::start(ServiceConfig::default());
    serve(&mut stream, &service, &AtomicBool::new(false));
    service.shutdown();

    let mut replies = Cursor::new(std::mem::take(&mut stream.output));
    for request in &requests {
        expect_values(&mut replies, request);
    }
    assert!(recv(&mut replies).is_none(), "one reply per request");
    assert_eq!(stream.writes, N, "one write per reply");
    assert!(
        stream.reads <= read_bound,
        "{} reads for {N} frames, bound {read_bound}",
        stream.reads
    );
}
