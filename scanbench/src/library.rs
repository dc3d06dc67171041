//! Library workloads: `bulk_sum`, `bulk_linrec` and `mid_calls`, timed
//! through the public `sam_core` plan/session layer.

use std::time::Instant;

use sam_core::op::Sum;
use sam_core::plan::{CarryState, PlanHint, ScanPlan, ScanSession};
use sam_core::Engine;

use crate::host;
use crate::oracle::Reference;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    metric, overhead_frac, run_reps, tag, warm_up, Acc, Ctx, EndToEnd, Report, Session, Tag,
    WARM_UP_S,
};

/// Elements per bulk array: 384 MiB of `i64`. That is more than the
/// 300 MiB L3 of the reference host on its own, and 2.5x it for input
/// plus output, so every pass streams from DRAM. It is not 4x L3 per
/// array so that a run stays under 1 GiB resident on a shared host.
pub const BULK_N: usize = 3 << 24;
/// Elements of each plan's first call in set-up: two of the CPU engine's
/// 32 Ki-element chunks, so both workers start.
const BULK_SETUP_CALL: usize = 1 << 16;
/// Set-up repetitions per run; `setup_s` is their median.
const BULK_SETUP_REPS: usize = 31;

/// `bulk_sum` / `bulk_linrec`: one-shot out-of-place scans of DRAM-sized
/// arrays on default plans, one session per tag.
pub fn bulk(ctx: &Ctx, tags: &[Tag]) -> Report {
    let mut report = Report::default();
    let n = BULK_N;
    let mut input = vec![0i64; n];
    Rng::new(ctx.seed, 1).fill_i64(&mut input);
    let mut out = vec![0i64; n];
    warm_up(&input, &mut out, WARM_UP_S);

    // Set-up: resolve each plan, open its session, and run its first call
    // on a prefix of the input, from scratch each repetition; the last
    // repetition's sessions are the ones timed. A full-size first call
    // would only repeat a timed rep, and its time would follow the host's
    // memory speed rather than the program's set-up work.
    let mut setup_s = Vec::new();
    let mut sessions: Vec<Session> = Vec::new();
    let prefix = ..BULK_SETUP_CALL;
    for _ in 0..BULK_SETUP_REPS {
        sessions.clear();
        let mut secs = 0.0;
        for tag in tags {
            let t = Instant::now();
            let plan = ScanPlan::new(tag.spec(), Engine::auto(), PlanHint::expected_len(n));
            let session = tag.op().session(&plan);
            session.scan_into(&input[prefix], &mut out[prefix]);
            secs += t.elapsed().as_secs_f64();
            report.check(
                tag.name,
                tag.reference().mismatches(&input[prefix], &out[prefix]),
            );
            sessions.push(session);
        }
        setup_s.push(secs);
    }

    let tracer = Tracer::new(false);
    let mut accs = Vec::new();
    let steal0 = host::cpu_jiffies();
    let phases = ctx.phases();
    for (i, &(budget, traced)) in phases.iter().enumerate() {
        tracer.set_on(traced);
        let final_phase = i + 1 == phases.len();
        let mut acc = Acc::new(tags.len());
        run_reps(budget, |last| {
            let t = Instant::now();
            out.copy_from_slice(&input);
            acc.record_roof(n, t.elapsed());
            for (k, (tag, session)) in tags.iter().zip(&sessions).enumerate() {
                let t = Instant::now();
                tracer.span("plan.scan_into", 0, || session.scan_into(&input, &mut out));
                acc.record(k, n, t.elapsed());
                if last && final_phase {
                    report.check(tag.name, tag.reference().mismatches(&input, &out));
                }
            }
            acc.end_rep();
        });
        accs.push(acc);
    }
    report.steal_frac = host::steal_frac(steal0, host::cpu_jiffies());
    finish_library(ctx, &mut report, &accs, setup_s, &tracer);

    let copy = 1e9 / accs[0].roof_ns_per_elem();
    for (k, tag) in tags.iter().enumerate() {
        let rate = accs[0].shape_rate(k);
        report.info(&format!("{}.elems_per_s", tag.name), format!("{rate:.4e}"));
        report.info(
            &format!("{}.roof_frac", tag.name),
            format!("{:.4}", rate / copy),
        );
    }
    report
}

/// Calls per `mid_calls` rep, cycling through the three call shapes.
const MID_CALLS_PER_REP: usize = 2000;
/// Input pool the calls slice from (16 MiB of `i64`).
const MID_POOL: usize = 1 << 21;
/// Call sizes are log-uniform over `2^12..2^20` elements: 32 KiB to
/// 8 MiB, from L1/L2-resident to L3-resident.
const MID_SIZES: (usize, usize) = (1 << 12, 1 << 20);
const MID_CHECK_EVERY: usize = 16;
/// Every this many calls, the call's slice is also copied: the roof.
const MID_ROOF_EVERY: usize = 8;
const MID_CHECKPOINT_EVERY: u64 = 64;
const MID_SHAPES: [&str; 3] = ["adaptive_o1t1", "adaptive_o2t2", "feed_o2t2"];
/// Set-up repetitions per run (each with a whole warm-up rep); `setup_s`
/// is their median.
const MID_SETUP_REPS: usize = 3;

/// The live state of `mid_calls`: two adaptive one-shot sessions and one
/// o2t2 stream (with a spare session the stream hops to on checkpoint).
struct Mid {
    a: ScanSession<i64, Sum>,
    b: ScanSession<i64, Sum>,
    stream: ScanSession<i64, Sum>,
    spare: ScanSession<i64, Sum>,
    stream_ref: Reference<i64>,
    frames: u64,
}

impl Mid {
    fn new() -> Mid {
        let adaptive =
            |name: &str| ScanPlan::new(tag(name).spec(), Engine::auto(), PlanHint::adaptive());
        let o2t2 = tag("o2t2");
        let stream_plan = ScanPlan::new(
            o2t2.spec(),
            Engine::auto(),
            PlanHint::expected_len(MID_SIZES.1),
        );
        Mid {
            a: adaptive("o1t1").session(Sum),
            b: adaptive("o2t2").session(Sum),
            stream: stream_plan.session(Sum),
            spare: stream_plan.session(Sum),
            stream_ref: o2t2.reference(),
            frames: 0,
        }
    }

    /// One rep of calls drawn from `rng`. Every `MID_CHECK_EVERY`th
    /// one-shot call is checked; every stream frame is checked, since the
    /// stream reference must see each frame anyway.
    fn rep(
        &mut self,
        rng: &mut Rng,
        pool: &[i64],
        out: &mut [i64],
        acc: &mut Acc,
        tracer: &Tracer,
        report: &mut Report,
    ) {
        for i in 0..MID_CALLS_PER_REP {
            let n = rng.log_uniform(MID_SIZES.0, MID_SIZES.1);
            let off = rng.below(pool.len() - n);
            let input = &pool[off..off + n];
            let shape = i % 3;
            match shape {
                0 | 1 => {
                    let session = if shape == 0 { &self.a } else { &self.b };
                    let out = &mut out[..n];
                    let t = Instant::now();
                    tracer.span("plan.scan_into", 0, || session.scan_into(input, out));
                    acc.record(shape, n, t.elapsed());
                    if i % MID_CHECK_EVERY == 0 {
                        let mut reference =
                            tag(if shape == 0 { "o1t1" } else { "o2t2" }).reference();
                        report.check(MID_SHAPES[shape], reference.mismatches(input, out));
                    }
                }
                _ => {
                    self.frames += 1;
                    let hop = self.frames.is_multiple_of(MID_CHECKPOINT_EVERY);
                    let (stream, spare) = (&mut self.stream, &mut self.spare);
                    let t = Instant::now();
                    let resumed = if hop {
                        tracer.span("carry.checkpoint", 0, || {
                            let bytes = stream.carry_state().to_bytes();
                            CarryState::from_bytes(&bytes).and_then(|state| spare.resume(&state))
                        })
                    } else {
                        Ok(())
                    };
                    if hop && resumed.is_ok() {
                        std::mem::swap(stream, spare);
                    }
                    let got = tracer.span("plan.feed", 0, || stream.feed(input));
                    acc.record(shape, n, t.elapsed());
                    let bad = match resumed {
                        Ok(()) => self.stream_ref.mismatches(input, got),
                        Err(e) => {
                            eprintln!("scanbench: checkpoint round trip failed: {e}");
                            n
                        }
                    };
                    report.check(MID_SHAPES[shape], bad);
                }
            }
            if i % MID_ROOF_EVERY == 0 {
                let t = Instant::now();
                out[..n].copy_from_slice(input);
                acc.record_roof(n, t.elapsed());
            }
        }
        acc.end_rep();
    }
}

/// `mid_calls`: a seeded sequence of mid-sized calls on adaptive plans
/// and one checkpointed stream.
pub fn mid_calls(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut pool = vec![0i64; MID_POOL];
    Rng::new(ctx.seed, 1).fill_i64(&mut pool);
    let mut out = vec![0i64; MID_SIZES.1];
    warm_up(&pool[..MID_SIZES.1], &mut out, WARM_UP_S);
    let mut calls = Rng::new(ctx.seed, 2);

    // Set-up: fresh plans and a fresh tuning store each repetition, then
    // one warm-up rep, in which the adaptive plans explore. Only the plan
    // construction and the calls are timed, not the checks.
    let mut setup_s = Vec::new();
    let mut mid: Option<Mid> = None;
    for k in 0..MID_SETUP_REPS {
        let store = ctx.workdir.join(format!("mid-setup-{k}"));
        // The store directory is read when an adaptive plan is built; no
        // other thread is running here.
        std::env::set_var(sam_core::TuningStore::ENV_DIR, &store);
        drop(mid.take());
        let t = Instant::now();
        let mut state = Mid::new();
        let build = t.elapsed();
        let mut warm = Acc::new(MID_SHAPES.len());
        state.rep(
            &mut calls,
            &pool,
            &mut out,
            &mut warm,
            &Tracer::new(false),
            &mut report,
        );
        setup_s.push(build.as_secs_f64() + warm.lat_ns.iter().sum::<u64>() as f64 / 1e9);
        mid = Some(state);
    }
    let mut mid = mid.expect("at least one set-up repetition");

    let tracer = Tracer::new(false);
    let mut accs = Vec::new();
    let steal0 = host::cpu_jiffies();
    for (budget, traced) in ctx.phases() {
        tracer.set_on(traced);
        let mut acc = Acc::new(MID_SHAPES.len());
        run_reps(budget, |_| {
            mid.rep(&mut calls, &pool, &mut out, &mut acc, &tracer, &mut report);
        });
        accs.push(acc);
    }
    report.steal_frac = host::steal_frac(steal0, host::cpu_jiffies());
    finish_library(ctx, &mut report, &accs, setup_s, &tracer);
    for (k, name) in MID_SHAPES.iter().enumerate() {
        report.info(
            &format!("{name}.elems_per_s"),
            format!("{:.4e}", accs[0].shape_rate(k)),
        );
    }
    for (name, session) in [("adaptive_o1t1", &mid.a), ("adaptive_o2t2", &mid.b)] {
        if let Some(snap) = session.plan().adaptive_snapshot() {
            report.info(
                &format!("{name}.phase"),
                format!("{:?}@{}", snap.phase, snap.episodes),
            );
        }
    }
    report
}

/// End-to-end metrics from the untraced phase; trace overhead from the
/// traced one, when there is one.
fn finish_library(
    ctx: &Ctx,
    report: &mut Report,
    accs: &[Acc],
    setup_s: Vec<f64>,
    tracer: &Tracer,
) {
    let plain = &accs[0];
    if let Some(traced) = accs.get(1) {
        report.metrics.push(metric(
            "trace.overhead_frac",
            overhead_frac(plain.roof_frac(), traced.roof_frac()),
            "ratio",
        ));
    }
    report.info("setup_s_all", format!("{setup_s:.4?}"));
    EndToEnd {
        setup_s: stats::median(&setup_s),
        roof_frac: plain.roof_frac(),
        lat_p50_roofs: plain.lat_p50_roofs(),
        lat_ns: plain.lat_ns.clone(),
        peak_rss_bytes: host::peak_rss_bytes(None).unwrap_or(0),
    }
    .into_report(report);
    report.info("calls", plain.calls);
    report.info("seed", ctx.seed);
    report.spans = tracer.take();
}
