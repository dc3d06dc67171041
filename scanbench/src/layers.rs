//! Per-layer probes for the traced run. Each probe calls one layer's
//! public entry points from outside, inside spans, on fixed seeded
//! inputs; the same probes run for every workload, so a per-layer number
//! means the same thing whichever workload's traced run printed it.
//! Every probe's output is checked like the workloads'.

use std::time::{Duration, Instant};

use sam_core::cpu::CpuScanner;
use sam_core::op::{LinRec, Sum};
use sam_core::plan::{CarryState, PlanHint, ScanPlan, ScanSession};
use sam_core::segmented::{try_feed_segmented_into, SegmentedOp};
use sam_core::{serial, DriverPhase, Engine, ScanSpec};

use crate::host;
use crate::oracle::segmented_sum;
use crate::rng::Rng;
use crate::stats;
use crate::svc::{self, Daemon, Gen, Window, RTT_FAMILIES, RTT_SIZES};
use crate::trace::{mean_self_ns, self_times, Span, Tracer};
use crate::workload::{metric, tag, Ctx, Report, Shape, REC_TAGS, SUM_TAGS};

/// How much work each probe does.
pub struct Scale {
    /// Elements per kernel, CPU and feed probe call.
    kernel_n: usize,
    adapt_calls: usize,
    segmented_batches: usize,
    replica_requests: u64,
}

/// The traced run's probes: kernel calls of 16 MiB of `i64`,
/// L3-resident, so the kernels' compute speed shows rather than DRAM's.
pub const FULL: Scale = Scale {
    kernel_n: 1 << 21,
    adapt_calls: 600,
    segmented_batches: 1000,
    replica_requests: 20_000,
};

/// Small enough for the self-tests in a debug build.
#[cfg(test)]
pub const QUICK: Scale = Scale {
    kernel_n: 4096,
    adapt_calls: 30,
    segmented_batches: 20,
    replica_requests: 200,
};

const KERNEL_REPS: usize = 5;

/// Median of `reps` timed runs of `f`, in ns, each inside a span.
fn median_ns(tracer: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            tracer.span(name, 0, &mut f);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&times)
}

/// Median per-call ns of `f`, timed in batches so clock reads do not
/// swamp calls of tens of nanoseconds.
fn per_call_ns(tracer: &Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    const BATCH: u32 = 64;
    median_ns(tracer, name, 31, || {
        for _ in 0..BATCH {
            f();
        }
    }) / f64::from(BATCH)
}

/// `simd`/`chunk_kernel` through single-thread `serial::scan_into`, and
/// `cpu` through `CpuScanner::scan_into` with default workers.
fn kernel_and_cpu(ctx: &Ctx, scale: &Scale, tracer: &Tracer, report: &mut Report) {
    let n = scale.kernel_n;
    let mut input = vec![0i64; n];
    Rng::new(ctx.seed, 10).fill_i64(&mut input);
    let mut out = vec![0i64; n];
    // The first pass faults the output buffer in; time copies after it.
    out.copy_from_slice(&input);
    let copy_ns = median_ns(tracer, "kernel.copy", KERNEL_REPS, || {
        out.copy_from_slice(&input)
    });
    let cpu = CpuScanner::default();
    let rate = |ns: f64| n as f64 * 1e9 / ns;
    let mut sum_ns = 0.0;
    for tag in SUM_TAGS.iter().chain(&REC_TAGS) {
        let (op, spec) = (tag.op(), tag.spec());
        op.serial_into(&spec, &input, &mut out);
        report.check(tag.name, tag.reference().mismatches(&input, &out));
        let kernel_ns = median_ns(tracer, "kernel.serial_scan_into", KERNEL_REPS, || {
            op.serial_into(&spec, &input, &mut out)
        });
        let cpu_ns = median_ns(tracer, "cpu.scan_into", KERNEL_REPS, || {
            op.cpu_into(&cpu, &spec, &input, &mut out)
        });
        report.check(tag.name, tag.reference().mismatches(&input, &out));
        let traced = ScanPlan::new(
            spec,
            Engine::Cpu(CpuScanner::default()),
            PlanHint::default().with_trace(),
        );
        let waits: Vec<f64> = (0..3)
            .map(|_| {
                op.plan_into(&traced, &input, &mut out);
                traced
                    .last_report()
                    .map_or(0.0, |r| r.carry_wait_fraction())
            })
            .collect();
        if tag.name == "o1t1" {
            sum_ns = kernel_ns;
            report.metrics.push(metric(
                "kernel.roof_frac.o1t1",
                copy_ns / kernel_ns,
                "ratio",
            ));
        }
        if tag.name.starts_with("rec") {
            report.metrics.push(metric(
                format!("kernel.rec_vs_sum.{}", tag.name),
                sum_ns / kernel_ns,
                "ratio",
            ));
        }
        report.metrics.extend([
            metric(
                format!("kernel.elems_per_s.{}", tag.name),
                rate(kernel_ns),
                "1/s",
            ),
            metric(
                format!("cpu.speedup.{}", tag.name),
                kernel_ns / cpu_ns,
                "ratio",
            ),
            metric(
                format!("cpu.carry_wait_frac.{}", tag.name),
                stats::median(&waits),
                "ratio",
            ),
        ]);
    }
    report.info("kernel_n", n);
    report.info("cpu_workers", cpu.workers());
}

/// `plan`: resolution, per-call overhead over the bare kernel, and `feed`.
fn plan(ctx: &Ctx, scale: &Scale, tracer: &Tracer, report: &mut Report) {
    let o1t1 = tag("o1t1").spec();
    let resolve: Vec<f64> = (0..101)
        .map(|_| {
            let t = Instant::now();
            let plan = tracer.span("plan.resolve", 0, || {
                ScanPlan::new(o1t1, Engine::auto(), PlanHint::expected_len(1 << 20))
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(plan);
            us
        })
        .collect();
    report
        .metrics
        .push(metric("plan.resolve_us", stats::median(&resolve), "us"));

    let mut small = vec![0i64; 256];
    Rng::new(ctx.seed, 11).fill_i64(&mut small);
    let mut out = vec![0i64; 256];
    let bare = per_call_ns(tracer, "kernel.serial_scan_into", || {
        serial::scan_into(&small, &mut out, &Sum, &o1t1)
    });
    for (name, hint) in [
        ("frozen", PlanHint::default()),
        ("adaptive", PlanHint::adaptive()),
    ] {
        let session = ScanPlan::new(o1t1, Engine::auto(), hint).session::<i64, _>(Sum);
        let ns = per_call_ns(tracer, "plan.scan_into", || {
            session.scan_into(&small, &mut out)
        });
        report.check(
            "plan.scan_into",
            tag("o1t1").reference().mismatches(&small, &out),
        );
        report
            .metrics
            .push(metric(format!("plan.call_ns.{name}"), ns - bare, "ns"));
    }

    let o2t2 = tag("o2t2");
    let mut input = vec![0i64; scale.kernel_n];
    Rng::new(ctx.seed, 12).fill_i64(&mut input);
    let mut session =
        ScanPlan::new(o2t2.spec(), Engine::auto(), PlanHint::default()).session::<i64, _>(Sum);
    let mut rates = Vec::new();
    for _ in 0..3 {
        session.reset();
        let mut reference = o2t2.reference();
        let mut bad = 0;
        let mut busy = Duration::ZERO;
        for frame in input.chunks(4096) {
            let t = Instant::now();
            let got = tracer.span("plan.feed", 0, || session.feed(frame));
            busy += t.elapsed();
            bad += reference.mismatches(frame, got);
        }
        report.check("plan.feed", bad);
        rates.push(input.len() as f64 / busy.as_secs_f64());
    }
    report.metrics.push(metric(
        "plan.feed_elems_per_s.o2t2",
        stats::median(&rates),
        "1/s",
    ));
}

/// `adapt`: one seeded call sequence on a fresh adaptive plan, then again
/// on a frozen plan.
fn adapt(ctx: &Ctx, scale: &Scale, tracer: &Tracer, report: &mut Report) {
    let mut pool = vec![0i64; 1 << 19];
    Rng::new(ctx.seed, 13).fill_i64(&mut pool);
    let mut out = vec![0i64; 1 << 18];
    let mut calls = Rng::new(ctx.seed, 14);
    let seq: Vec<(usize, usize)> = (0..scale.adapt_calls)
        .map(|_| {
            let n = calls.log_uniform(1 << 12, 1 << 18);
            (calls.below(pool.len() - n), n)
        })
        .collect();
    for name in ["o1t1", "o2t2"] {
        let spec = tag(name).spec();
        let mut run = |hint: PlanHint| {
            let plan = ScanPlan::new(spec, Engine::auto(), hint);
            let session = plan.session::<i64, _>(Sum);
            let (mut busy, mut elems, mut steady_at) = (Duration::ZERO, 0usize, None);
            for (i, &(off, n)) in seq.iter().enumerate() {
                let t = Instant::now();
                tracer.span("plan.scan_into", 0, || {
                    session.scan_into(&pool[off..off + n], &mut out[..n])
                });
                busy += t.elapsed();
                elems += n;
                if i % 50 == 0 {
                    report.check(
                        name,
                        tag(name)
                            .reference()
                            .mismatches(&pool[off..off + n], &out[..n]),
                    );
                }
                let snap = plan.adaptive_snapshot();
                if steady_at.is_none() && snap.is_some_and(|s| s.phase == DriverPhase::Steady) {
                    steady_at = snap.map(|s| s.episodes);
                }
            }
            let episodes = plan.adaptive_snapshot().map_or(0, |s| s.episodes);
            (elems as f64 / busy.as_secs_f64(), steady_at, episodes)
        };
        let (adaptive, steady_at, episodes) = run(PlanHint::adaptive());
        let (frozen, _, _) = run(PlanHint::default());
        report.metrics.extend([
            metric(
                format!("adapt.vs_frozen.{name}"),
                adaptive / frozen,
                "ratio",
            ),
            metric(
                format!("adapt.episodes_to_steady.{name}"),
                steady_at.unwrap_or(episodes) as f64,
                "count",
            ),
            metric(
                format!("adapt.steady.{name}"),
                f64::from(u8::from(steady_at.is_some())),
                "flag",
            ),
        ]);
    }
}

/// `carry`: checkpoint out of one session, through bytes, into another.
fn carry(ctx: &Ctx, tracer: &Tracer, report: &mut Report) {
    let mut data = vec![0i64; 10_007];
    Rng::new(ctx.seed, 15).fill_i64(&mut data);
    fn probe<Op: sam_core::ChunkKernel<i64>>(
        tracer: &Tracer,
        plan: &ScanPlan,
        op: impl Fn() -> Op,
        data: &[i64],
    ) -> (f64, bool) {
        let mut from: ScanSession<i64, Op> = plan.session(op());
        let mut to: ScanSession<i64, Op> = plan.session(op());
        let expect = from.feed(data).to_vec();
        let mut ok = true;
        let ns = per_call_ns(tracer, "carry.checkpoint", || {
            let bytes = from.carry_state().to_bytes();
            ok &= CarryState::from_bytes(&bytes)
                .and_then(|c| to.resume(&c))
                .is_ok();
        });
        // The resumed session continues the stream exactly where the
        // original would.
        ok &= to.feed(data) == from.feed(data);
        ok &= from.elements_seen() == 2 * data.len() as u64 && expect.len() == data.len();
        (ns, ok)
    }
    let o2t2 = ScanPlan::new(tag("o2t2").spec(), Engine::auto(), PlanHint::default());
    let (ns, ok) = probe(tracer, &o2t2, || Sum, &data);
    report.check("carry.o2t2", usize::from(!ok));
    report
        .metrics
        .push(metric("carry.checkpoint_ns.o2t2", ns, "ns"));
    let rec2 = tag("rec2");
    let plan = ScanPlan::new(rec2.spec(), Engine::auto(), PlanHint::default());
    let (ns, ok) = probe(
        tracer,
        &plan,
        || match rec2.shape {
            Shape::Rec(c) => LinRec::new(c.to_vec()).expect("i64 is an exact ring"),
            _ => unreachable!("rec2 is a recurrence"),
        },
        &data,
    );
    report.check("carry.rec2", usize::from(!ok));
    report
        .metrics
        .push(metric("carry.checkpoint_ns.rec2", ns, "ns"));
}

/// A batch of requests as the service fuses them: values, with a head at
/// each request start and random heads inside.
fn fused_batch(rng: &mut Rng, requests: usize, sizes: (usize, usize)) -> (Vec<i32>, Vec<bool>) {
    let (mut values, mut heads) = (Vec::new(), Vec::new());
    for _ in 0..requests {
        let n = rng.log_uniform(sizes.0, sizes.1);
        for i in 0..n {
            values.push(rng.small_i32(1000));
            heads.push(i == 0 || rng.below(8) == 0);
        }
    }
    (values, heads)
}

/// `segmented`: the Sum lane's fused launch, bare. Returns its time per
/// `svc_rtt`-sized request in ns.
fn segmented(ctx: &Ctx, scale: &Scale, tracer: &Tracer, report: &mut Report) -> f64 {
    let plan = ScanPlan::new(
        ScanSpec::inclusive(),
        Engine::auto(),
        PlanHint::expected_len(1 << 20),
    );
    let mut session = plan.session(SegmentedOp::new(Sum));
    let (mut scratch, mut out) = (Vec::new(), Vec::new());
    let mut rng = Rng::new(ctx.seed, 16);
    // Shaped like svc_pipelined's launches: one request per connection.
    let batches: Vec<_> = (0..scale.segmented_batches)
        .map(|_| fused_batch(&mut rng, 2, svc::PIPELINED_SIZES))
        .collect();
    let (mut busy, mut elems) = (Duration::ZERO, 0usize);
    for (values, heads) in &batches {
        let t = Instant::now();
        let fed = tracer.span("segmented.feed", 0, || {
            session.reset();
            try_feed_segmented_into(&mut session, values, heads, &mut scratch, &mut out)
        });
        busy += t.elapsed();
        elems += values.len();
        let bad = if fed.is_ok() {
            let expect = segmented_sum(values, heads, false);
            expect.iter().zip(&out).filter(|(e, g)| e != g).count()
        } else {
            values.len()
        };
        report.check("segmented", bad);
    }
    report.metrics.push(metric(
        "segmented.elems_per_s",
        elems as f64 / busy.as_secs_f64(),
        "1/s",
    ));
    let (values, heads) = fused_batch(&mut rng, 1, RTT_SIZES);
    per_call_ns(tracer, "segmented.feed", || {
        session.reset();
        let _ = try_feed_segmented_into(&mut session, &values, &heads, &mut scratch, &mut out);
    })
}

/// `service`, `wire` and `transport` through the replica of the daemon's
/// connection loop, compared with the real daemon on the same stream.
fn service(ctx: &Ctx, scale: &Scale, kernel_ns_per_request: f64, report: &mut Report) -> Vec<Span> {
    let run = match svc::replica(
        ctx.seed,
        scale.replica_requests / 20,
        scale.replica_requests,
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("scanbench: replica failed: {e}");
            report.failed += 1;
            return Vec::new();
        }
    };
    report.attempted += run.attempted;
    report.failed += run.failed;
    let times = self_times(&run.spans);
    let mut rtt = run.rtt_ns.clone();
    rtt.sort_unstable();
    let mean_rtt = rtt.iter().sum::<u64>() as f64 / rtt.len().max(1) as f64;
    let (queue_us, exec_us, requests) = run.metrics.tenants.values().fold((0, 0, 0), |acc, t| {
        (
            acc.0 + t.queue_wait_us,
            acc.1 + t.exec_us,
            acc.2 + t.requests,
        )
    });
    let per_request = |us: u64| us as f64 / requests.max(1) as f64;
    for (name, span) in [
        ("wire.encode_scan_ns", "wire.encode_scan"),
        ("wire.decode_request_ns", "wire.decode_request"),
        ("wire.encode_response_ns", "wire.encode_response"),
        ("wire.decode_response_ns", "wire.decode_response"),
        ("service.submit_ns", "service.submit"),
        ("service.wait_ns", "service.wait"),
        ("transport.write_frame_ns", "transport.write_frame"),
        ("transport.residual_ns", "client.rtt"),
    ] {
        report
            .metrics
            .push(metric(name, mean_self_ns(&times, span), "ns"));
    }
    report.metrics.extend([
        metric("service.queue_wait_us_mean", per_request(queue_us), "us"),
        metric("service.exec_us_mean", per_request(exec_us), "us"),
        metric(
            "service.coalescing_factor",
            run.metrics.coalescing_factor(),
            "ratio",
        ),
        metric(
            "service.kernel_share",
            kernel_ns_per_request / mean_rtt,
            "ratio",
        ),
    ]);

    report.info(
        "replica_rtt_p50_us",
        stats::percentile(&rtt, 50.0) as f64 / 1e3,
    );
    // The real daemon on the same stream, closed loop, for the ratio and
    // for the daemon's CPU time per request (from `/proc`, in 10 ms ticks,
    // so over a window of seconds).
    let Some(exe) = &ctx.daemon else {
        return run.spans;
    };
    let daemon = (|| -> std::io::Result<(f64, f64)> {
        let mut daemon = Daemon::spawn(exe, ctx.workdir.join("layers.sock"))?;
        let mut stream = daemon.connect()?;
        let gen = Gen::new(ctx.seed, 300, &RTT_FAMILIES, RTT_SIZES);
        let start = Instant::now() + Duration::from_millis(200);
        let end = start + Duration::from_secs(2);
        let window = Window {
            start,
            mid: end,
            end,
        };
        let cpu_ns = || host::process_cpu_ticks_ns(daemon.pid()).unwrap_or(0);
        let (st, cpu_ns) = std::thread::scope(|scope| {
            let client = scope.spawn(|| {
                svc::closed_loop(
                    &mut stream,
                    gen,
                    end,
                    u64::MAX,
                    &window,
                    &Tracer::new(false),
                    None,
                )
            });
            svc::sleep_until(start);
            let before = cpu_ns();
            svc::sleep_until(end);
            let used = cpu_ns().saturating_sub(before);
            (client.join().expect("client thread does not panic"), used)
        });
        drop(stream);
        report.attempted += st.attempted;
        report.failed += st.failed;
        report.check("daemon shutdown", usize::from(!daemon.stop()));
        let [mut lat, _] = st.work.map(|side| side.lat_ns);
        lat.sort_unstable();
        let cpu_us_per_req = cpu_ns as f64 / 1e3 / lat.len().max(1) as f64;
        Ok((stats::percentile(&lat, 50.0) as f64, cpu_us_per_req))
    })();
    match daemon {
        Ok((p50, cpu_us_per_req)) => report.metrics.extend([
            metric(
                "transport.replica_ratio",
                stats::percentile(&rtt, 50.0) as f64 / p50,
                "ratio",
            ),
            metric("service.daemon_cpu_us_per_req", cpu_us_per_req, "us"),
        ]),
        Err(e) => {
            eprintln!("scanbench: sam_serviced failed: {e}");
            report.failed += 1;
        }
    }
    run.spans
}

/// Runs every probe; the parent adds the workload's own
/// `trace.overhead_frac` and `host.steal_frac`.
pub fn probes(ctx: &Ctx, scale: &Scale) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::new(true);
    kernel_and_cpu(ctx, scale, &tracer, &mut report);
    plan(ctx, scale, &tracer, &mut report);
    adapt(ctx, scale, &tracer, &mut report);
    carry(ctx, &tracer, &mut report);
    let kernel_ns = segmented(ctx, scale, &tracer, &mut report);
    let mut spans = tracer.take();
    spans.extend(service(ctx, scale, kernel_ns, &mut report));
    report.spans = spans;
    report
}
