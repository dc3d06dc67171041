//! `sam_serviced` — a thin socket server over [`sam_service::ScanService`],
//! listening on a Unix socket, a TCP address, or both.
//!
//! One thread per connection decodes length-prefixed frames
//! ([`sam_service::wire`]) and submits them to the shared service, and
//! while it waits for a reply it may run its lane's next batch for every
//! connection queued there (the service has no threads of its own). The
//! service coalesces across *all* connections and transports, so
//! concurrent clients' micro-scans share per-lane batches.
//! Every request path is panic-free: malformed frames get error
//! responses, malformed scans get per-request errors, and a handler panic
//! fails one batch without taking the process down. Accept-loop errors
//! are non-fatal: the loop logs and retries with exponential backoff (fd
//! exhaustion, say, should shed load, not kill the daemon).
//!
//! ```text
//! sam_serviced [--socket /tmp/sam.sock] [--tcp 127.0.0.1:7070] [--queue N]
//!              [--batch-requests N] [--batch-elems N] [--max-lanes N]
//!              [--engine serial|auto|cpu:N] [--trace]
//!              [--chaos-panic-tenant NAME]
//! ```
//!
//! At least one of `--socket` / `--tcp` is required.
//!
//! Exit codes: 0 clean shutdown, 1 bind failure, 2 usage, 3 listener
//! configuration failure (the listener bound but could not be set up).
//!
//! Shutdown: a client frame with the shutdown opcode drains in-flight
//! work, stops every listener, and exits 0 (see `Client::shutdown_server`).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sam_service::wire::{self, Request};
use sam_service::{Engine, ScanService, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: sam_serviced [--socket PATH] [--tcp ADDR] [--queue N] \
         [--batch-requests N] [--batch-elems N] [--max-lanes N] \
         [--engine serial|auto|cpu:N] [--trace] [--chaos-panic-tenant NAME] \
         (at least one of --socket / --tcp)"
    );
    std::process::exit(2);
}

fn parse_engine(arg: &str) -> Engine {
    match arg {
        "serial" => Engine::Serial,
        "auto" => Engine::auto(),
        other => match other.strip_prefix("cpu:").and_then(|n| n.parse().ok()) {
            Some(workers) if workers > 0 => Engine::cpu(workers),
            _ => {
                eprintln!("sam_serviced: bad --engine {other:?}");
                usage()
            }
        },
    }
}

/// The two listener flavors, unified for one accept loop. Both poll
/// nonblocking so the shutdown flag stays cooperative without extra fds.
trait Listen: Send + 'static {
    type Conn: Read + Write + Send + 'static;
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

/// Accepts connections until `stop`, spawning one handler thread each
/// and reaping the finished ones.
/// Accept errors log and back off exponentially (5ms doubling to 1s)
/// instead of killing the daemon — transient failures like fd exhaustion
/// resolve when connections close.
fn accept_loop<L: Listen>(listener: L, service: Arc<ScanService>, stop: Arc<AtomicBool>) {
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

/// Makes a bound listener nonblocking, or exits with the distinct
/// listener-configuration code (3) — *after* logging which listener
/// failed, instead of dying in a panic message.
fn configure_nonblocking(set: std::io::Result<()>, what: &str) {
    if let Err(e) = set {
        eprintln!("sam_serviced: cannot configure {what} listener as nonblocking: {e}");
        std::process::exit(3);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut socket: Option<std::path::PathBuf> = None;
    let mut tcp: Option<String> = None;
    let mut cfg = ServiceConfig::default();
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--socket" => socket = Some(value().into()),
            "--tcp" => tcp = Some(value()),
            "--queue" => cfg.queue_capacity = value().parse().unwrap_or_else(|_| usage()),
            "--batch-requests" => {
                cfg.max_batch_requests = value().parse().unwrap_or_else(|_| usage());
            }
            "--batch-elems" => cfg.max_batch_elems = value().parse().unwrap_or_else(|_| usage()),
            "--max-lanes" => cfg.max_lanes = value().parse().unwrap_or_else(|_| usage()),
            "--engine" => cfg.engine = parse_engine(&value()),
            "--trace" => cfg.trace = true,
            "--chaos-panic-tenant" => cfg.chaos_panic_tenant = Some(value()),
            _ => usage(),
        }
    }
    if socket.is_none() && tcp.is_none() {
        usage()
    }

    let unix_listener = socket.as_ref().map(|socket| {
        // A stale socket file from a crashed predecessor would fail the bind.
        let _ = std::fs::remove_file(socket);
        match UnixListener::bind(socket) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("sam_serviced: cannot bind {}: {e}", socket.display());
                std::process::exit(1);
            }
        }
    });
    let tcp_listener = tcp.as_ref().map(|addr| match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sam_serviced: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    });
    if let Some(listener) = &unix_listener {
        configure_nonblocking(listener.set_nonblocking(true), "unix");
    }
    if let Some(listener) = &tcp_listener {
        configure_nonblocking(listener.set_nonblocking(true), "tcp");
    }

    let service = Arc::new(ScanService::start(cfg));
    let stop = Arc::new(AtomicBool::new(false));
    if let Some(socket) = &socket {
        println!("sam_serviced: listening on {}", socket.display());
    }
    if let Some(listener) = &tcp_listener {
        // Report the *resolved* address: `--tcp 127.0.0.1:0` picks a port.
        match listener.local_addr() {
            Ok(addr) => println!("sam_serviced: listening on tcp {addr}"),
            Err(_) => println!("sam_serviced: listening on tcp"),
        }
    }

    let mut acceptors = Vec::new();
    if let Some(listener) = unix_listener {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        acceptors.push(std::thread::spawn(move || accept_loop(listener, service, stop)));
    }
    if let Some(listener) = tcp_listener {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        acceptors.push(std::thread::spawn(move || accept_loop(listener, service, stop)));
    }
    for acceptor in acceptors {
        let _ = acceptor.join();
    }
    service.shutdown();
    if let Some(socket) = &socket {
        let _ = std::fs::remove_file(socket);
    }
    println!("sam_serviced: clean shutdown");
}

/// One connection: frames in, responses out (strictly in order, which is
/// what lets clients pipeline). Decode failures answer with an error
/// frame and close the connection; IO failures just close it.
fn serve(mut stream: impl Read + Write, service: &ScanService, stop: &AtomicBool) {
    loop {
        let payload = match wire::read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        let response = match wire::decode_request(&payload) {
            Ok(Request::Scan(request)) => {
                service.scan_streaming(request).map_err(|e| e.to_string())
            }
            Ok(Request::Shutdown) => {
                stop.store(true, Ordering::Release);
                let ack = Ok(sam_service::ScanOutput {
                    values: Vec::new(),
                    checkpoint: None,
                });
                let _ = wire::write_frame(&mut stream, &wire::encode_response_lossy(&ack));
                return;
            }
            Err(e) => {
                let _ = wire::write_frame(
                    &mut stream,
                    &wire::encode_response_lossy(&Err(format!("bad frame: {e}"))),
                );
                return;
            }
        };
        if wire::write_frame(&mut stream, &wire::encode_response_lossy(&response)).is_err() {
            return;
        }
    }
}
