//! The connection loop of `sam_serviced`: one thread per connection,
//! frames in and replies out, over any byte stream.
//!
//! [`accept_loop`] accepts connections on a [`Listen`]er (a Unix or TCP
//! listener) until a stop flag is set, and runs [`serve`] on a thread of
//! its own for each. [`serve`] is the whole per-connection protocol: it
//! decodes length-prefixed frames ([`crate::wire`]), submits each scan to
//! the shared [`ScanService`], and writes the replies back strictly in
//! request order, which is what lets clients pipeline.
//!
//! A request costs one `read` and one `write` on the socket when its
//! frame is small. [`serve`] reads through a [`BufReader`] at std's
//! default capacity (8 KiB), so one `read` brings in a whole small frame
//! (or many pipelined ones), and [`wire::write_frame`] sends a reply's
//! header and payload in one vectored write. Each reply is written as
//! soon as it is ready, so there is no reply buffer to flush before the
//! next read that can block (DESIGN §16.4).
//!
//! A connection that [`serve`] ends itself, after a bad frame or a
//! shutdown, is closed without a reset: the write half is shut down first,
//! so the client reads EOF after the last reply, and then up to 64 KiB of
//! what the client sent behind that frame are read and dropped, for at
//! most about 200 ms (see [`Connection`]).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::wire::{self, Request};
use crate::{ScanOutput, ScanService};

/// How many bytes that a client sent behind a bad frame or a shutdown
/// [`serve`] reads and drops before it closes the connection.
const LINGER_BYTES: usize = 64 << 10;

/// How long [`serve`] waits for those bytes: the bound of each read, and
/// of the whole drain past its last read.
const LINGER_TIME: Duration = Duration::from_millis(200);

/// A byte stream [`serve`] runs on.
///
/// Closing a socket whose receive queue holds unread bytes resets the
/// connection, and the peer's next read fails with `ConnectionReset`
/// where it expected EOF. So before [`serve`] drops a connection it ends
/// itself, it shuts the write half with [`Connection::close_write`] and
/// drains the rest of the client's bytes, up to 64 KiB and about 200 ms,
/// so that a hostile client cannot hold the thread.
pub trait Connection: Read + Write {
    /// Shuts down the write half (the peer then reads EOF after what was
    /// written) and bounds every later read by `timeout`. `false`, having
    /// done nothing, for a stream without those controls (the default),
    /// which [`serve`] then drops without draining.
    fn close_write(&mut self, _timeout: Duration) -> bool {
        false
    }
}

impl Connection for UnixStream {
    fn close_write(&mut self, timeout: Duration) -> bool {
        self.shutdown(Shutdown::Write).is_ok() && self.set_read_timeout(Some(timeout)).is_ok()
    }
}

impl Connection for TcpStream {
    fn close_write(&mut self, timeout: Duration) -> bool {
        self.shutdown(Shutdown::Write).is_ok() && self.set_read_timeout(Some(timeout)).is_ok()
    }
}

impl<C: Connection + ?Sized> Connection for &mut C {
    fn close_write(&mut self, timeout: Duration) -> bool {
        (**self).close_write(timeout)
    }
}

/// The two listener flavors, unified for one accept loop. [`accept_loop`]
/// polls, so the listener must be nonblocking: the stop flag then stays
/// cooperative without extra fds.
pub trait Listen: Send + 'static {
    /// The connection type a successful accept yields.
    type Conn: Connection + Send + 'static;
    /// Accepts one pending connection (`WouldBlock` when none is).
    fn accept_conn(&self) -> std::io::Result<Self::Conn>;
}

impl Listen for UnixListener {
    type Conn = UnixStream;
    fn accept_conn(&self) -> std::io::Result<UnixStream> {
        self.accept().map(|(stream, _)| stream)
    }
}

impl Listen for TcpListener {
    type Conn = TcpStream;
    fn accept_conn(&self) -> std::io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        // Request/response framing: a Nagle-delayed partial frame would
        // stall the client's pipeline.
        stream.set_nodelay(true)?;
        Ok(stream)
    }
}

/// Accepts connections until `stop`, spawning one [`serve`] thread each
/// and reaping the finished ones; joins them all before returning.
/// Accept errors log and back off exponentially (5ms doubling to 1s)
/// instead of killing the daemon — transient failures like fd exhaustion
/// resolve when connections close.
pub fn accept_loop<L: Listen>(listener: L, service: Arc<ScanService>, stop: Arc<AtomicBool>) {
    const BACKOFF_START: Duration = Duration::from_millis(5);
    const BACKOFF_CAP: Duration = Duration::from_secs(1);
    let mut backoff = BACKOFF_START;
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept_conn() {
            Ok(stream) => {
                backoff = BACKOFF_START;
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                // A finished handler that is never joined keeps its thread
                // stack mapped, so reap them here or every connection ever
                // accepted pins memory until shutdown.
                handlers.retain(|h| !h.is_finished());
                handlers.push(std::thread::spawn(move || serve(stream, &service, &stop)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(BACKOFF_START);
            }
            Err(e) => {
                eprintln!("sam_serviced: accept failed (retrying in {backoff:?}): {e}");
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// One connection: frames in, replies out, one frame at a time and
/// strictly in order. A frame that does not decode is answered with a
/// `bad frame` error reply and closes the connection; a shutdown frame
/// sets `stop`, is acknowledged with an empty success reply and closes
/// it; an IO failure just closes it. Replies to the frames before either
/// are written first, since each reply is written before the next frame
/// is read. The two closes of its own linger (see [`Connection`]), so a
/// pipelining client reads EOF after the last reply, not a reset.
pub fn serve(stream: impl Connection, service: &ScanService, stop: &AtomicBool) {
    let mut conn = BufReader::new(stream);
    loop {
        let payload = match wire::read_frame(&mut conn) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        let response = match wire::decode_request(&payload) {
            Ok(Request::Scan(request)) => {
                service.scan_streaming(request).map_err(|e| e.to_string())
            }
            Ok(Request::Shutdown) => {
                stop.store(true, Ordering::Release);
                let ack = Ok(ScanOutput {
                    values: Vec::new(),
                    checkpoint: None,
                });
                let _ = wire::write_frame(conn.get_mut(), &wire::encode_response_lossy(&ack));
                return linger(&mut conn);
            }
            Err(e) => {
                let _ = wire::write_frame(
                    conn.get_mut(),
                    &wire::encode_response_lossy(&Err(format!("bad frame: {e}"))),
                );
                return linger(&mut conn);
            }
        };
        if wire::write_frame(conn.get_mut(), &wire::encode_response_lossy(&response)).is_err() {
            return;
        }
    }
}

/// Shuts the write half of `conn` and reads and drops what the client
/// sent, until EOF, an error, [`LINGER_BYTES`] or [`LINGER_TIME`].
fn linger(conn: &mut BufReader<impl Connection>) {
    if !conn.get_mut().close_write(LINGER_TIME) {
        return;
    }
    let deadline = Instant::now() + LINGER_TIME;
    let mut left = LINGER_BYTES;
    while left > 0 && Instant::now() < deadline {
        let n = match conn.fill_buf() {
            Ok(buf) if !buf.is_empty() => buf.len().min(left),
            _ => return,
        };
        conn.consume(n);
        left -= n;
    }
}
