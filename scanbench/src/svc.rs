//! Service workloads, `svc_rtt` and `svc_pipelined`: the real
//! `sam_serviced` binary driven over a Unix socket, plus a replica of its
//! private per-connection loop built from public `sam_service` calls, so
//! the layer probes can put spans inside the server.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use sam_service::wire::{self, Request};
use sam_service::{ScanKind, ScanOutput, ScanRequest, ScanService, ServiceConfig, ServiceMetrics};

use crate::host;
use crate::oracle::{segmented_sum, Reference};
use crate::rng::Rng;
use crate::stats;
use crate::trace::{Span, Tracer};
use crate::workload::{metric, overhead_frac, Ctx, EndToEnd, Report};

/// A request family; requests cycle through the workload's families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Inclusive,
    Exclusive,
    /// Inclusive sum restarting at random segment heads.
    Segmented,
    /// Linear recurrence with these coefficients (its own service lane).
    Rec(&'static [i32]),
    /// The next frame of the connection's streaming chain.
    Stream,
}

pub const RTT_FAMILIES: [Family; 7] = [
    Family::Inclusive,
    Family::Exclusive,
    Family::Segmented,
    Family::Rec(&[2]),
    Family::Rec(&[2, -1]),
    Family::Rec(&[1, 1]),
    Family::Stream,
];

pub const PIPELINED_FAMILIES: [Family; 6] = [
    Family::Inclusive,
    Family::Exclusive,
    Family::Segmented,
    Family::Rec(&[2]),
    Family::Rec(&[2, -1]),
    Family::Rec(&[1, 1]),
];

const TENANTS: [&str; 8] = [
    "tenant-0", "tenant-1", "tenant-2", "tenant-3", "tenant-4", "tenant-5", "tenant-6", "tenant-7",
];

/// Elements per request (inclusive range, log-uniform).
pub const RTT_SIZES: (usize, usize) = (32, 32);
pub const PIPELINED_SIZES: (usize, usize) = (16, 4096);
const PIPELINE_DEPTH: usize = 32;
const PIPELINED_CONNECTIONS: usize = 2;
/// Untimed requests between set-up and the timed window.
const WARM_UP: Duration = Duration::from_secs(1);
/// Daemon starts per run; `setup_s` is their mean. A start waits up to
/// 5 ms for the daemon's accept loop to poll (it sleeps 5 ms whenever no
/// connection is pending), so single starts fall near 2 ms or near 7 ms
/// by chance, and the median of a run flips between the two; the mean of
/// many starts does not.
const SETUP_REPS: usize = 100;
/// A reply slower than this is a dropped connection.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A seeded request stream.
pub struct Gen {
    rng: Rng,
    families: &'static [Family],
    sizes: (usize, usize),
    next: usize,
}

impl Gen {
    pub fn new(seed: u64, stream: u64, families: &'static [Family], sizes: (usize, usize)) -> Gen {
        Gen {
            rng: Rng::new(seed, stream),
            families,
            sizes,
            next: 0,
        }
    }

    pub fn next(&mut self) -> (Family, ScanRequest) {
        let family = self.families[self.next % self.families.len()];
        let tenant = TENANTS[self.next % TENANTS.len()];
        self.next += 1;
        let n = self.rng.log_uniform(self.sizes.0, self.sizes.1);
        let values: Vec<i32> = (0..n).map(|_| self.rng.small_i32(1000)).collect();
        let request = match family {
            Family::Inclusive => ScanRequest::inclusive(tenant, values),
            Family::Exclusive => ScanRequest::exclusive(tenant, values),
            Family::Segmented => {
                let heads = (0..n).map(|_| self.rng.below(8) == 0).collect();
                ScanRequest::inclusive(tenant, values).with_heads(heads)
            }
            Family::Rec(coeffs) => {
                ScanRequest::inclusive(tenant, values).with_recurrence(coeffs.to_vec())
            }
            Family::Stream => ScanRequest::inclusive(tenant, values).streaming(),
        };
        (family, request)
    }
}

/// One connection's streaming chain: the checkpoint the server returned
/// for the last frame, and a reference that has seen every frame.
pub struct Chain {
    checkpoint: Option<Vec<u8>>,
    reference: Reference<i32>,
}

impl Default for Chain {
    fn default() -> Chain {
        Chain {
            checkpoint: None,
            reference: Reference::sum(1, 1, false),
        }
    }
}

impl Chain {
    /// Continues the chain from the last returned checkpoint.
    fn attach(&self, request: &mut ScanRequest) {
        request.checkpoint.clone_from(&self.checkpoint);
    }
}

/// Checks one response against the references; returns its number of
/// wrong outputs (every output, if the request failed). A failed stream
/// frame restarts the chain.
pub fn check(
    family: Family,
    request: &ScanRequest,
    response: &Result<ScanOutput, String>,
    chain: &mut Chain,
) -> usize {
    let n = request.values.len();
    let mut next_ref = chain.reference.clone();
    let expect: Vec<i32> = match family {
        Family::Inclusive | Family::Exclusive | Family::Segmented => segmented_sum(
            &request.values,
            &request.heads,
            request.kind == ScanKind::Exclusive,
        ),
        Family::Rec(coeffs) => {
            let mut reference = Reference::linrec(coeffs, false);
            request.values.iter().map(|&x| reference.next(x)).collect()
        }
        Family::Stream => request.values.iter().map(|&x| next_ref.next(x)).collect(),
    };
    let bad = match response {
        Ok(out) if out.values.len() == n => expect
            .iter()
            .zip(&out.values)
            .filter(|(e, g)| e != g)
            .count(),
        Ok(_) => n.max(1),
        Err(msg) => {
            eprintln!("scanbench: request failed: {msg}");
            n.max(1)
        }
    };
    if family == Family::Stream {
        match response {
            Ok(out) if bad == 0 && out.checkpoint.is_some() => {
                chain.checkpoint.clone_from(&out.checkpoint);
                chain.reference = next_ref;
            }
            _ => *chain = Chain::default(),
        }
    }
    bad
}

fn invalid(err: wire::WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

/// The client's side of the frame format (a 4-byte little-endian length,
/// then the payload). It is written here rather than taken from
/// `sam_service::wire` so that the echo roof runs no program code: a
/// faster `wire::write_frame` must speed the daemon, not its roof too.
fn send_frame(stream: &mut UnixStream, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| invalid(wire::WireError::Oversized(payload.len())))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)
}

/// Reads one frame; `Ok(None)` when the peer closed between frames.
fn recv_frame(stream: &mut UnixStream) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > wire::MAX_FRAME {
        return Err(invalid(wire::WireError::Oversized(len)));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// The timed window of a run; requests sent before `start` are warm-up,
/// `start..mid` the untraced half and `mid..end` the traced half.
pub struct Window {
    pub start: Instant,
    pub mid: Instant,
    pub end: Instant,
}

impl Window {
    fn half(&self, sent: Instant) -> Option<usize> {
        if sent < self.start || sent >= self.end {
            None
        } else if sent < self.mid {
            Some(0)
        } else {
            Some(1)
        }
    }

    /// Nanoseconds of `[a, b)` inside each half.
    fn overlap(&self, a: Instant, b: Instant) -> [u64; 2] {
        let seg = |lo: Instant, hi: Instant| {
            b.min(hi).saturating_duration_since(a.max(lo)).as_nanos() as u64
        };
        [seg(self.start, self.mid), seg(self.mid, self.end)]
    }
}

/// Requests of one kind (to the daemon, or to the echo roof) in one half.
#[derive(Debug, Default, Clone)]
pub struct Side {
    pub lat_ns: Vec<u64>,
    pub elems: u64,
    /// Time this connection spent on this kind of request.
    pub busy_ns: u64,
}

impl Side {
    fn rate(&self) -> f64 {
        self.elems as f64 * 1e9 / self.busy_ns.max(1) as f64
    }

    fn p50(&self) -> f64 {
        let mut lat = self.lat_ns.clone();
        lat.sort_unstable();
        stats::percentile(&lat, 50.0).max(1) as f64
    }
}

#[derive(Debug, Default)]
pub struct ClientStats {
    /// Daemon requests, per half of the window.
    pub work: [Side; 2],
    /// Echo round trips (the transport roof), per half.
    pub echo: [Side; 2],
    pub attempted: u64,
    pub failed: u64,
}

/// One connection's request stream and where its measurements go.
pub struct Conn<'a> {
    pub stream: &'a mut UnixStream,
    pub gen: Gen,
    pub chain: Chain,
    /// The peer only echoes frames back: the transport roof.
    pub echo: bool,
    pub tracer: &'a Tracer,
    /// Hands each round trip's span id to an in-process replica server.
    pub ids: Option<&'a Sender<u64>>,
}

struct InFlight {
    sent: Instant,
    family: Family,
    request: ScanRequest,
    payload: Vec<u8>,
    rtt: crate::trace::Open,
}

/// Keeps `depth` requests in flight on `conn` (depth 1 is a closed loop:
/// the next request goes out when the previous reply is in) until `until`
/// or `max` requests, then drains. Replies are FIFO per connection.
/// Returns false when the connection failed.
pub fn run_loop(
    conn: &mut Conn<'_>,
    depth: usize,
    until: Instant,
    max: u64,
    window: &Window,
    st: &mut ClientStats,
) -> bool {
    let began = Instant::now();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    let mut sent = 0u64;
    let mut ok = true;
    'run: loop {
        while in_flight.len() < depth && sent < max && Instant::now() < until {
            let (family, mut request) = conn.gen.next();
            if family == Family::Stream {
                conn.chain.attach(&mut request);
            }
            let rtt = conn.tracer.open();
            let t0 = Instant::now();
            let payload = match conn
                .tracer
                .span("wire.encode_scan", rtt.id, || wire::encode_scan(&request))
            {
                Ok(payload) => payload,
                Err(e) => {
                    eprintln!("scanbench: cannot encode a request: {e}");
                    st.failed += 1;
                    continue;
                }
            };
            if let Some(ids) = conn.ids {
                // The replica server takes one parent span id per frame,
                // in order.
                let _ = ids.send(rtt.id);
            }
            sent += 1;
            st.attempted += u64::from(!conn.echo);
            if let Err(e) = send_frame(conn.stream, &payload) {
                eprintln!("scanbench: connection dropped: {e}");
                ok = false;
                break 'run;
            }
            in_flight.push_back(InFlight {
                sent: t0,
                family,
                request,
                payload,
                rtt,
            });
        }
        let Some(f) = in_flight.pop_front() else {
            break;
        };
        let frame = match recv_frame(conn.stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => {
                eprintln!("scanbench: connection dropped");
                in_flight.push_front(f);
                ok = false;
                break;
            }
        };
        let lat = f.sent.elapsed();
        let bad = if conn.echo {
            usize::from(frame != f.payload)
        } else {
            let response = conn
                .tracer
                .span("wire.decode_response", f.rtt.id, || {
                    wire::decode_response(&frame)
                })
                .map_err(|e| invalid(e).to_string())
                .and_then(|r| r);
            check(f.family, &f.request, &response, &mut conn.chain)
        };
        conn.tracer.close(f.rtt, "client.rtt", 0);
        if bad > 0 {
            st.failed += 1;
        } else if let Some(h) = window.half(f.sent) {
            let side = if conn.echo {
                &mut st.echo[h]
            } else {
                &mut st.work[h]
            };
            side.lat_ns.push(lat.as_nanos() as u64);
            side.elems += f.request.values.len() as u64;
        }
    }
    if !conn.echo {
        st.failed += in_flight.len() as u64;
    }
    for (h, ns) in window
        .overlap(began, Instant::now())
        .into_iter()
        .enumerate()
    {
        let side = if conn.echo {
            &mut st.echo[h]
        } else {
            &mut st.work[h]
        };
        side.busy_ns += ns;
    }
    ok
}

/// The transport roof's peer: sends every frame straight back.
fn echo_peer(mut stream: UnixStream) {
    while let Ok(Some(frame)) = recv_frame(&mut stream) {
        if send_frame(&mut stream, &frame).is_err() {
            return;
        }
    }
}

/// Each `SLICE_PERIOD`, a connection spends `SLICE_WORK` on the daemon
/// and the rest echoing the same kind of frames, at the same depth, off a
/// thread that only sends them back. A shared host's speed drifts by tens
/// of percent over minutes; the interleaved echo drifts with it, so the
/// ratio of the two holds steady where either alone does not.
const SLICE_PERIOD: Duration = Duration::from_millis(550);
const SLICE_WORK: Duration = Duration::from_millis(500);

/// One client connection for the length of the window, alternating daemon
/// slices with echo slices on slice boundaries shared by all connections
/// (so the daemon is idle while any connection echoes).
#[allow(clippy::too_many_arguments)]
fn client(
    stream: &mut UnixStream,
    c: u64,
    ctx: &Ctx,
    families: &'static [Family],
    sizes: (usize, usize),
    depth: usize,
    origin: Instant,
    window: &Window,
    tracer: &Tracer,
) -> ClientStats {
    let mut st = ClientStats::default();
    let Ok((mut echo_stream, peer)) = UnixStream::pair() else {
        st.failed += 1;
        return st;
    };
    let quiet = Tracer::new(false);
    std::thread::scope(|scope| {
        let echo_thread = scope.spawn(|| echo_peer(peer));
        let mut work = Conn {
            stream,
            gen: Gen::new(ctx.seed, 200 + c, families, sizes),
            chain: Chain::default(),
            echo: false,
            tracer,
            ids: None,
        };
        let mut echo = Conn {
            stream: &mut echo_stream,
            gen: Gen::new(ctx.seed, 400 + c, families, sizes),
            chain: Chain::default(),
            echo: true,
            tracer: &quiet,
            ids: None,
        };
        for k in 0u32.. {
            let begin = origin + SLICE_PERIOD * k;
            if begin >= window.end {
                break;
            }
            if !run_loop(
                &mut work,
                depth,
                (begin + SLICE_WORK).min(window.end),
                u64::MAX,
                window,
                &mut st,
            ) || !run_loop(
                &mut echo,
                depth,
                (begin + SLICE_PERIOD).min(window.end),
                u64::MAX,
                window,
                &mut st,
            ) {
                break;
            }
        }
        drop(echo);
        drop(echo_stream);
        echo_thread.join().expect("echo peer does not panic");
    });
    st
}

/// A running `sam_serviced`, killed on drop if it has not exited.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    pub fn spawn(exe: &Path, socket: PathBuf) -> io::Result<Daemon> {
        let child = Command::new(exe)
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        Ok(Daemon { child, socket })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects, retrying until the daemon listens.
    pub fn connect(&mut self) -> io::Result<UnixStream> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(IO_TIMEOUT))?;
                    stream.set_write_timeout(Some(IO_TIMEOUT))?;
                    return Ok(stream);
                }
                Err(e) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("sam_serviced exited: {status}")));
                    }
                    if Instant::now() > deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    /// Shuts the daemon down through the wire protocol (every other
    /// connection must be closed first) and waits for it. Returns whether
    /// it exited cleanly; one that does not within 5 s is killed on drop.
    pub fn stop(mut self) -> bool {
        let asked = self
            .connect()
            .and_then(|s| wire::Client::from_stream(s).shutdown_server())
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return asked && status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A closed loop of `max` requests (or until `until`) on `stream`,
/// everything inside `window` recorded.
pub fn closed_loop(
    stream: &mut UnixStream,
    gen: Gen,
    until: Instant,
    max: u64,
    window: &Window,
    tracer: &Tracer,
    ids: Option<&Sender<u64>>,
) -> ClientStats {
    let mut st = ClientStats::default();
    let mut conn = Conn {
        stream,
        gen,
        chain: Chain::default(),
        echo: false,
        tracer,
        ids,
    };
    run_loop(&mut conn, 1, until, max, window, &mut st);
    st
}

/// Starts a daemon and sends one request of each family, checking every
/// reply. Returns the daemon, its connection, and the seconds from spawn
/// to the last first reply.
pub fn start_daemon(
    ctx: &Ctx,
    k: u64,
    families: &'static [Family],
    report: &mut Report,
) -> io::Result<(Daemon, UnixStream, f64)> {
    let exe = ctx
        .daemon
        .as_ref()
        .ok_or_else(|| io::Error::other("no sam_serviced executable"))?;
    let t = Instant::now();
    let mut daemon = Daemon::spawn(exe, ctx.workdir.join(format!("d{k}.sock")))?;
    let mut stream = daemon.connect()?;
    let gen = Gen::new(ctx.seed, 100 + k, families, RTT_SIZES);
    let window = Window {
        start: t,
        mid: t,
        end: t,
    };
    let n = families.len() as u64;
    let st = closed_loop(
        &mut stream,
        gen,
        t + Duration::from_secs(60),
        n,
        &window,
        &Tracer::new(false),
        None,
    );
    let secs = t.elapsed().as_secs_f64();
    report.attempted += st.attempted;
    report.failed += st.failed;
    if st.attempted != n || st.failed > 0 {
        return Err(io::Error::other("set-up requests failed"));
    }
    Ok((daemon, stream, secs))
}

pub fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// `svc_rtt` (one connection, closed loop) or `svc_pipelined` (two
/// connections, `PIPELINE_DEPTH` in flight each).
pub fn run(ctx: &Ctx, pipelined: bool) -> Report {
    let mut report = Report::default();
    let (families, sizes): (&'static [Family], _) = if pipelined {
        (&PIPELINED_FAMILIES, PIPELINED_SIZES)
    } else {
        (&RTT_FAMILIES, RTT_SIZES)
    };
    // Every start but the last is killed once timed; the last serves the
    // timed window and is shut down through the protocol at the end.
    let mut setup_s = Vec::new();
    let mut live: Option<(Daemon, UnixStream)> = None;
    for k in 0..SETUP_REPS as u64 {
        drop(live.take());
        match start_daemon(ctx, k, families, &mut report) {
            Ok((daemon, stream, secs)) => {
                setup_s.push(secs);
                live = Some((daemon, stream));
            }
            Err(e) => {
                eprintln!("scanbench: cannot start sam_serviced: {e}");
                report.failed += 1;
                return report;
            }
        }
    }
    let (mut daemon, first) = live.expect("at least one set-up repetition");
    let (connections, depth) = if pipelined {
        (PIPELINED_CONNECTIONS, PIPELINE_DEPTH)
    } else {
        (1, 1)
    };
    let mut streams = vec![first];
    while streams.len() < connections {
        match daemon.connect() {
            Ok(s) => streams.push(s),
            Err(e) => {
                eprintln!("scanbench: cannot connect: {e}");
                report.failed += 1;
                return report;
            }
        }
    }

    let tracer = Tracer::new(false);
    let secs = Duration::from_secs_f64(ctx.seconds);
    let origin = Instant::now();
    let start = origin + WARM_UP;
    let end = start + secs;
    let mid = if ctx.traced { start + secs / 2 } else { end };
    let window = Window { start, mid, end };
    let pid = daemon.pid();
    let mut cpu = [0u64; 2];
    let mut steal = [None; 2];
    let per_conn: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let (window, tracer) = (&window, &tracer);
                scope.spawn(move || {
                    client(
                        stream, c as u64, ctx, families, sizes, depth, origin, window, tracer,
                    )
                })
            })
            .collect();
        sleep_until(start);
        cpu[0] = host::process_cpu_ticks_ns(pid).unwrap_or(0);
        steal[0] = host::cpu_jiffies();
        sleep_until(mid);
        cpu[1] = host::process_cpu_ticks_ns(pid).unwrap_or(0);
        tracer.set_on(ctx.traced);
        sleep_until(end);
        steal[1] = host::cpu_jiffies();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    tracer.set_on(false);
    let peak_rss = host::peak_rss_bytes(Some(pid)).unwrap_or(0);
    drop(streams);
    report.check("daemon shutdown", usize::from(!daemon.stop()));
    report.steal_frac = host::steal_frac(steal[0], steal[1]);

    // Connections run side by side: their rates add up. Latency is taken
    // per connection (each sees its own queue of `depth` requests, and
    // the daemon need not serve the two evenly), then weighted by the
    // connection's share of requests.
    let (mut work_rate, mut echo_rate, mut req_rate) = ([0.0; 2], [0.0; 2], 0.0);
    let (mut lat_roofs, mut weight) = (0.0, 0.0);
    let mut lat_ns = Vec::new();
    for (c, st) in per_conn.iter().enumerate() {
        let mean_us =
            |s: &Side| s.lat_ns.iter().sum::<u64>() as f64 / s.lat_ns.len().max(1) as f64 / 1e3;
        report.info(&format!("conn{c}.lat_p50_us"), st.work[0].p50() / 1e3);
        report.info(&format!("conn{c}.lat_mean_us"), mean_us(&st.work[0]));
        report.info(&format!("conn{c}.echo_p50_us"), st.echo[0].p50() / 1e3);
        report.info(&format!("conn{c}.echo_mean_us"), mean_us(&st.echo[0]));
        report.info(&format!("conn{c}.requests"), st.work[0].lat_ns.len());
        report.attempted += st.attempted;
        report.failed += st.failed;
        for h in 0..2 {
            work_rate[h] += st.work[h].rate();
            echo_rate[h] += st.echo[h].rate();
        }
        let n = st.work[0].lat_ns.len() as f64;
        req_rate += n * 1e9 / st.work[0].busy_ns.max(1) as f64;
        lat_roofs += n * st.work[0].p50() / st.echo[0].p50();
        weight += n;
        lat_ns.extend_from_slice(&st.work[0].lat_ns);
    }
    let roof_frac = [0, 1].map(|h| work_rate[h] / echo_rate[h]);
    if ctx.traced {
        report.metrics.push(metric(
            "trace.overhead_frac",
            overhead_frac(roof_frac[0], roof_frac[1]),
            "ratio",
        ));
    }
    let daemon_cpu = cpu[1].saturating_sub(cpu[0]) as f64;
    let fast = setup_s.iter().filter(|&&s| s < 0.004).count();
    report.info(
        "setup_starts_under_4ms",
        format!("{fast}/{}", setup_s.len()),
    );
    report.info("elems_per_s", format!("{:.1}", work_rate[0]));
    report.info("reqs_per_s", format!("{req_rate:.1}"));
    report.info(
        "srv_cpu_us_per_req",
        format!("{:.3}", daemon_cpu / 1e3 / lat_ns.len().max(1) as f64),
    );
    report.info("connections", connections);
    EndToEnd {
        setup_s: stats::mean(&setup_s),
        roof_frac: roof_frac[0],
        lat_p50_roofs: lat_roofs / weight.max(1.0),
        lat_ns,
        peak_rss_bytes: peak_rss,
    }
    .into_report(&mut report);
    report.spans = tracer.take();
    report
}

/// The daemon's per-connection loop (`serve` in `sam_serviced`, which is
/// private), rebuilt from the same public calls with a span around each.
/// `ids` yields, per frame, the client round-trip span that sent it.
fn serve_replica(
    mut stream: UnixStream,
    service: &ScanService,
    tracer: &Tracer,
    ids: Receiver<u64>,
) {
    loop {
        let payload = match wire::read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        let parent = ids.recv().unwrap_or(0);
        let response = match tracer.span("wire.decode_request", parent, || {
            wire::decode_request(&payload)
        }) {
            Ok(Request::Scan(request)) => tracer
                .span("service.submit", parent, || service.submit(request))
                .and_then(|handle| tracer.span("service.wait", parent, || handle.wait_output()))
                .map_err(|e| e.to_string()),
            Ok(Request::Shutdown) => return,
            Err(e) => Err(format!("bad frame: {e}")),
        };
        let frame = tracer.span("wire.encode_response", parent, || {
            wire::encode_response_lossy(&response)
        });
        if tracer
            .span("transport.write_frame", parent, || {
                wire::write_frame(&mut stream, &frame)
            })
            .is_err()
        {
            return;
        }
    }
}

pub struct ReplicaRun {
    /// Round trips of the measured (traced) requests.
    pub rtt_ns: Vec<u64>,
    pub spans: Vec<Span>,
    pub metrics: ServiceMetrics,
    pub attempted: u64,
    pub failed: u64,
}

/// Replays the `svc_rtt` request stream through the replica over a
/// socket pair, against an in-process `ScanService` with the daemon's
/// default configuration: `warm` untraced requests, then `requests`
/// traced ones.
pub fn replica(seed: u64, warm: u64, requests: u64) -> io::Result<ReplicaRun> {
    let service = ScanService::start(ServiceConfig::default());
    let tracer = Tracer::new(false);
    let (mut client, server) = UnixStream::pair()?;
    client.set_read_timeout(Some(IO_TIMEOUT))?;
    let (tx, rx) = mpsc::channel();
    let never = Instant::now() + Duration::from_secs(3600);
    let st = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| serve_replica(server, &service, &tracer, rx));
        let mut conn = Conn {
            stream: &mut client,
            gen: Gen::new(seed, 300, &RTT_FAMILIES, RTT_SIZES),
            chain: Chain::default(),
            echo: false,
            tracer: &tracer,
            ids: Some(&tx),
        };
        let mut st = ClientStats::default();
        run_loop(
            &mut conn,
            1,
            never,
            warm,
            &Window {
                start: never,
                mid: never,
                end: never,
            },
            &mut st,
        );
        tracer.set_on(true);
        let window = Window {
            start: Instant::now(),
            mid: never,
            end: never,
        };
        run_loop(&mut conn, 1, never, requests, &window, &mut st);
        tracer.set_on(false);
        drop(conn);
        drop(client);
        server_thread.join().expect("replica server does not panic");
        st
    });
    let metrics = service.metrics();
    service.shutdown();
    let [measured, _] = st.work;
    Ok(ReplicaRun {
        rtt_ns: measured.lat_ns,
        spans: tracer.take(),
        metrics,
        attempted: st.attempted,
        failed: st.failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{mean_self_ns, self_times};

    fn stream_of(seed: u64) -> Vec<ScanRequest> {
        let mut gen = Gen::new(seed, 0, &PIPELINED_FAMILIES, PIPELINED_SIZES);
        (0..50).map(|_| gen.next().1).collect()
    }

    #[test]
    fn request_streams_follow_the_seed() {
        assert_eq!(stream_of(1), stream_of(1));
        assert_ne!(stream_of(1), stream_of(2));
    }

    #[test]
    fn replica_smoke_checks_every_reply_and_traces_every_layer() {
        let run = replica(5, 20, 200).expect("socket pair");
        assert_eq!(run.failed, 0);
        assert_eq!(run.attempted, 220);
        assert_eq!(run.rtt_ns.len(), 200);
        let times = self_times(&run.spans);
        for name in [
            "client.rtt",
            "wire.encode_scan",
            "wire.decode_request",
            "service.submit",
            "service.wait",
            "wire.encode_response",
            "transport.write_frame",
            "wire.decode_response",
        ] {
            assert_eq!(times.get(name).map(|t| t.0), Some(200), "{name}");
            assert!(mean_self_ns(&times, name) > 0.0, "{name}");
        }
    }

    #[test]
    fn echo_slices_check_frames_and_record_the_roof() {
        let (mut stream, peer) = UnixStream::pair().expect("socket pair");
        let quiet = Tracer::new(false);
        let now = Instant::now();
        let window = Window {
            start: now,
            mid: now + Duration::from_secs(60),
            end: now + Duration::from_secs(60),
        };
        let mut st = ClientStats::default();
        std::thread::scope(|scope| {
            let echo = scope.spawn(|| echo_peer(peer));
            let mut conn = Conn {
                stream: &mut stream,
                gen: Gen::new(1, 0, &PIPELINED_FAMILIES, PIPELINED_SIZES),
                chain: Chain::default(),
                echo: true,
                tracer: &quiet,
                ids: None,
            };
            assert!(run_loop(&mut conn, 8, window.end, 100, &window, &mut st));
            drop(conn);
            drop(stream);
            echo.join().expect("echo peer");
        });
        assert_eq!((st.attempted, st.failed), (0, 0));
        assert_eq!(st.echo[0].lat_ns.len(), 100);
        assert!(st.echo[0].busy_ns > 0 && st.work[0].lat_ns.is_empty());
    }

    #[test]
    fn a_wrong_reply_is_counted_and_restarts_the_chain() {
        let mut chain = Chain::default();
        let request = ScanRequest::inclusive("t", vec![1, 2, 3]).streaming();
        let good = Ok(ScanOutput {
            values: vec![1, 3, 6],
            checkpoint: Some(vec![9]),
        });
        assert_eq!(check(Family::Stream, &request, &good, &mut chain), 0);
        assert_eq!(chain.checkpoint, Some(vec![9]));
        let wrong = Ok(ScanOutput {
            values: vec![7, 9, 13],
            checkpoint: Some(vec![9]),
        });
        assert_eq!(check(Family::Stream, &request, &wrong, &mut chain), 1);
        assert!(chain.checkpoint.is_none());
        assert_eq!(
            check(Family::Inclusive, &request, &Err("boom".into()), &mut chain),
            3
        );
    }
}
