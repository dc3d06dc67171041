//! `sam_serviced` — a thin socket server over [`sam_service::ScanService`],
//! listening on a Unix socket, a TCP address, or both.
//!
//! The binary parses its arguments, binds the listeners and runs one
//! [`sam_service::server::accept_loop`] per listener; the connection loop
//! itself ([`sam_service::server::serve`]: frame decoding, submission to
//! the shared service, in-order replies) lives in the library. The
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

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use sam_service::server::accept_loop;
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
        acceptors.push(std::thread::spawn(move || {
            accept_loop(listener, service, stop)
        }));
    }
    if let Some(listener) = tcp_listener {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        acceptors.push(std::thread::spawn(move || {
            accept_loop(listener, service, stop)
        }));
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
