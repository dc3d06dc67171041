//! End-to-end smoke over the real binary: spawn `sam_serviced` on a Unix
//! socket, drive concurrent clients against it, check every response
//! against a local oracle, then ask for a graceful shutdown and assert a
//! clean exit. This is the CI "service smoke job" — it proves the wire
//! decoding, the shared coalescing service, and the shutdown path hold
//! together as a process, not just as a library.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sam_service::wire::Client;
use sam_service::{ScanKind, ScanRequest};

fn socket_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sam-smoke-{tag}-{}.sock", std::process::id()))
}

fn spawn_server(socket: &std::path::Path, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sam_serviced"))
        .arg("--socket")
        .arg(socket)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sam_serviced")
}

/// Retry until the server's socket accepts connections.
fn connect_with_retry(socket: &std::path::Path) -> Client {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match Client::connect(socket) {
            Ok(client) => return client,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("server never came up on {}: {e}", socket.display()),
        }
    }
}

/// Spawns the daemon in TCP mode on an OS-picked port and returns the
/// resolved address it announces on stdout.
fn spawn_tcp_server(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sam_serviced"))
        .arg("--tcp")
        .arg("127.0.0.1:0")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sam_serviced --tcp");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its port")
            .expect("read server stdout");
        if let Some(addr) = line.strip_prefix("sam_serviced: listening on tcp ") {
            break addr.to_string();
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    std::thread::spawn(move || lines.for_each(drop));
    (child, addr)
}

fn await_clean_exit(server: &mut Child, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match server.try_wait().expect("wait") {
            Some(status) => {
                assert!(status.success(), "{what} exit status: {status:?}");
                break;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            None => {
                let _ = server.kill();
                panic!("{what} did not exit after shutdown request");
            }
        }
    }
}

fn linrec_oracle(values: &[i32], coeffs: &[i32]) -> Vec<i32> {
    let mut hist = vec![0i32; coeffs.len()];
    values
        .iter()
        .map(|&b| {
            let y = coeffs
                .iter()
                .zip(&hist)
                .fold(b, |acc, (&c, &h)| acc.wrapping_add(c.wrapping_mul(h)));
            hist.rotate_right(1);
            hist[0] = y;
            y
        })
        .collect()
}

fn oracle(values: &[i32], heads: &[bool], kind: ScanKind) -> Vec<i32> {
    let mut out = Vec::with_capacity(values.len());
    let mut run = 0i32;
    for (i, &v) in values.iter().enumerate() {
        let head = i == 0 || heads.get(i).copied().unwrap_or(false);
        if head {
            run = 0;
        }
        match kind {
            ScanKind::Inclusive => {
                run = run.wrapping_add(v);
                out.push(run);
            }
            ScanKind::Exclusive => {
                out.push(run);
                run = run.wrapping_add(v);
            }
        }
    }
    out
}

#[test]
fn concurrent_clients_get_correct_results_and_clean_shutdown() {
    let socket = socket_path("main");
    let mut server = spawn_server(
        &socket,
        &["--batch-requests", "64", "--batch-elems", "4096"],
    );
    connect_with_retry(&socket);

    let clients = 4;
    let per_client = 40;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let socket = socket.clone();
            scope.spawn(move || {
                let mut client = connect_with_retry(&socket);
                let mut state = (c as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
                for r in 0..per_client {
                    let n = (state % 40) as usize + 1;
                    let mut values = Vec::with_capacity(n);
                    let mut heads = Vec::with_capacity(n);
                    for _ in 0..n {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        values.push((state >> 40) as i32 % 1000);
                        heads.push(state.is_multiple_of(11));
                    }
                    let kind = if state.is_multiple_of(2) {
                        ScanKind::Inclusive
                    } else {
                        ScanKind::Exclusive
                    };
                    let request = ScanRequest::new(format!("client-{c}"), kind, values.clone())
                        .with_heads(heads.clone());
                    let got = client
                        .scan(&request)
                        .expect("io")
                        .expect("server-side success");
                    assert_eq!(got, oracle(&values, &heads, kind), "client {c} request {r}");
                }
            });
        }
    });

    // A frame the decoder cannot parse (heads shorter than values — the
    // wire format cannot even express it) gets an error response before
    // the server closes that connection.
    let mut client = connect_with_retry(&socket);
    let bad = ScanRequest::inclusive("bad", vec![1, 2, 3]).with_heads(vec![true]);
    let response = client.scan(&bad).expect("io");
    assert!(
        response.is_err(),
        "undecodable frame must answer with an error"
    );

    // A well-formed frame the *service* rejects (over the element cap) is
    // a per-request error and the connection keeps serving.
    let mut client = connect_with_retry(&socket);
    let response = client
        .scan(&ScanRequest::inclusive("big", vec![0; 5000]))
        .expect("io");
    assert!(
        response.is_err(),
        "oversized request must be an error response"
    );
    let good = client
        .scan(&ScanRequest::inclusive("big", vec![1, 2, 3]))
        .expect("io");
    assert_eq!(good.unwrap(), vec![1, 3, 6]);

    // Graceful shutdown: acknowledged, exits 0, socket removed.
    assert!(client.shutdown_server().expect("io").is_ok());
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        match server.try_wait().expect("wait") {
            Some(status) => break status,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            None => {
                let _ = server.kill();
                panic!("server did not exit after shutdown request");
            }
        }
    };
    assert!(status.success(), "server exit status: {status:?}");
    assert!(!socket.exists(), "socket file cleaned up");
}

#[test]
fn chaos_panic_fails_the_batch_but_not_the_server() {
    let socket = socket_path("chaos");
    let mut server = spawn_server(&socket, &["--chaos-panic-tenant", "evil"]);
    let mut client = connect_with_retry(&socket);

    // The poisoned tenant's request fails...
    let response = client
        .scan(&ScanRequest::inclusive("evil", vec![1, 2, 3]))
        .expect("io");
    assert!(response.is_err(), "chaos batch must fail");
    // ...but the server keeps serving other tenants on a fresh session.
    let good = client
        .scan(&ScanRequest::inclusive("fine", vec![1, 2, 3]))
        .expect("io");
    assert_eq!(good.unwrap(), vec![1, 3, 6]);

    assert!(client.shutdown_server().expect("io").is_ok());
    await_clean_exit(&mut server, "chaos server");
}

/// TCP transport end-to-end: mixed sum/recurrence specs execute on their
/// own lanes, streaming frames chain through wire checkpoints, oversized
/// fields are refused client-side before any bytes move, and pipelined
/// requests come back strictly in order.
#[test]
fn tcp_mode_serves_mixed_specs_streaming_and_field_bounds() {
    let (mut server, addr) = spawn_tcp_server(&[]);
    let mut client = Client::connect_tcp(&addr).expect("connect tcp");

    // Plain segmented sums work over TCP exactly as over the Unix socket.
    let values = vec![5, -2, 7, 1];
    let heads = vec![false, false, true, false];
    let request = ScanRequest::inclusive("tcp-sum", values.clone()).with_heads(heads.clone());
    let got = client.scan(&request).expect("io").expect("sum served");
    assert_eq!(got, oracle(&values, &heads, ScanKind::Inclusive));

    // A linear-recurrence request executes on its own lane instead of
    // bouncing with "unsupported spec".
    let values = vec![1, 1, 2, -3, 5, 8];
    let coeffs = vec![1, 1];
    let request = ScanRequest::inclusive("tcp-fib", values.clone()).with_recurrence(coeffs.clone());
    let got = client
        .scan(&request)
        .expect("io")
        .expect("recurrence served");
    assert_eq!(got, linrec_oracle(&values, &coeffs));

    // Streaming: three frames chained by wire checkpoints reproduce the
    // one-shot scan over the concatenated input. Non-final frames carry a
    // checkpoint; the final frame (streaming cleared) must not.
    let frames: [&[i32]; 3] = [&[1, 2, 3], &[4], &[5, 6, 7, 8]];
    let flat: Vec<i32> = frames.concat();
    let mut collected = Vec::new();
    let mut checkpoint: Option<Vec<u8>> = None;
    for (f, frame) in frames.iter().enumerate() {
        let last = f + 1 == frames.len();
        let mut request = ScanRequest::inclusive("tcp-stream", frame.to_vec())
            .with_recurrence(vec![2, -1])
            .streaming();
        if let Some(ckpt) = checkpoint.take() {
            request = request.with_checkpoint(ckpt);
        }
        if last {
            request.streaming = false;
        }
        let output = client
            .scan_output(&request)
            .expect("io")
            .expect("streaming frame served");
        assert_eq!(
            output.checkpoint.is_some(),
            !last,
            "checkpoint only on non-final frames"
        );
        collected.extend(output.values);
        checkpoint = output.checkpoint;
    }
    assert_eq!(collected, linrec_oracle(&flat, &[2, -1]));

    // A tenant name the wire format cannot carry is refused before the
    // round trip — no truncated alias ever reaches the server — and the
    // connection stays usable because nothing was written.
    let oversized = ScanRequest::inclusive("t".repeat(70_000), vec![1, 2, 3]);
    let err = client
        .send_scan(&oversized)
        .expect_err("oversized tenant must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(
        client.in_flight(),
        0,
        "refused request left no frame in flight"
    );

    // Pipelining: several requests on the wire at once, responses FIFO.
    let depth = 16;
    for i in 0..depth {
        client
            .send_scan(&ScanRequest::inclusive("tcp-pipe", vec![i, i, i]))
            .expect("io");
    }
    assert_eq!(client.in_flight(), depth as usize);
    for i in 0..depth {
        let got = client.recv().expect("io").expect("pipelined response");
        assert_eq!(got.values, vec![i, 2 * i, 3 * i]);
    }

    assert!(client.shutdown_server().expect("io").is_ok());
    await_clean_exit(&mut server, "tcp server");
}

/// The daemon's virtual size, from `/proc/<pid>/status`.
fn vm_size_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize line")
}

/// Connection churn does not grow the daemon: each finished handler
/// thread is reaped, so its stack is unmapped instead of held until
/// shutdown. 400 short-lived connections with unreaped handlers keep
/// about 800 MiB of stacks mapped; the bound below allows 256 MiB.
#[test]
fn connection_churn_does_not_grow_the_daemon() {
    let socket = socket_path("churn");
    let mut server = spawn_server(&socket, &[]);
    let cycle = |i: i32| {
        let mut client = connect_with_retry(&socket);
        let got = client
            .scan(&ScanRequest::inclusive("churn", vec![i, 1, 2]))
            .expect("io")
            .expect("scan served");
        assert_eq!(got, vec![i, i + 1, i + 3]);
    };
    for i in 0..10 {
        cycle(i);
    }
    let settled = vm_size_kib(server.id());
    for i in 10..400 {
        cycle(i);
    }
    let after = vm_size_kib(server.id());
    // Shut down before asserting, so a failure leaves no daemon behind.
    let mut client = connect_with_retry(&socket);
    assert!(client.shutdown_server().expect("io").is_ok());
    await_clean_exit(&mut server, "churn server");
    assert!(
        after <= settled + 256 * 1024,
        "VmSize grew from {settled} KiB to {after} KiB over 390 connections"
    );
}

/// `--engine` picks the daemon's scan engine: each accepted spelling
/// serves a multi-chunk segmented scan equal to the oracle, and a CPU
/// engine without workers is a usage error (exit 2).
#[test]
fn engine_flag_selects_the_scan_engine() {
    let values: Vec<i32> = (0..100_000).map(|i| i % 19 - 9).collect();
    let heads: Vec<bool> = (0..values.len()).map(|i| i % 40_000 == 7).collect();
    for engine in ["serial", "auto", "cpu:2"] {
        let socket = socket_path(&format!("engine-{}", engine.replace(':', "")));
        let mut server = spawn_server(&socket, &["--engine", engine]);
        let mut client = connect_with_retry(&socket);
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let request =
                ScanRequest::new("engine", kind, values.clone()).with_heads(heads.clone());
            let got = client.scan(&request).expect("io").expect("scan served");
            assert_eq!(
                got,
                oracle(&values, &heads, kind),
                "--engine {engine} {kind:?}"
            );
        }
        assert!(client.shutdown_server().expect("io").is_ok());
        await_clean_exit(&mut server, engine);
    }
    let socket = socket_path("engine-cpu0");
    let status = Command::new(env!("CARGO_BIN_EXE_sam_serviced"))
        .arg("--socket")
        .arg(&socket)
        .args(["--engine", "cpu:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run sam_serviced");
    assert_eq!(status.code(), Some(2), "--engine cpu:0 is a usage error");
    assert!(!socket.exists(), "a usage error binds nothing");
}
