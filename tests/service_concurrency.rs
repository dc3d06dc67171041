//! Service-layer concurrency invariants: coalesced batches are
//! bit-identical to per-request serial scans across the engine grid
//! (hostile schedules included), mixed-spec submission streams (Sum
//! lanes × recurrence lanes, interleaved tenants) route and execute
//! correctly, streaming checkpoint chains continue scans exactly, a
//! panicking handler fails only its batch, backpressure sheds instead of
//! blocking, metrics attribute work per tenant and per lane, and the
//! daemon's connection loop answers pipelined frames in request order
//! under hostile schedules.
//!
//! The oracle is [`sam_core::segmented::scan_serial`] applied
//! per-request (or, for recurrence requests, the serial recurrence
//! loop) — the definition the routed execution must be indistinguishable
//! from.

use std::io::Write;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;
use sam_core::cpu::CpuScanner;
use sam_core::op::Sum;
use sam_core::segmented::scan_serial;
use sam_core::{Engine, ScanKind};
use sam_service::server::serve;
use sam_service::{wire, RequestError, ScanRequest, ScanService, ServiceConfig};

/// The per-request oracle: exactly what the tenant would get from a
/// dedicated serial scan of their own request — the segmented sum, or
/// the serial recurrence loop (`y_i = b_i + Σ_j c_j·y_{i-1-j}`,
/// exclusive outputs being the prediction `y_i - b_i`).
fn oracle(request: &ScanRequest) -> Vec<i32> {
    if let Some(coeffs) = &request.recurrence {
        return serial_linrec(&request.values, coeffs, request.kind);
    }
    let mut heads = if request.heads.is_empty() {
        vec![false; request.values.len()]
    } else {
        request.heads.clone()
    };
    if let Some(first) = heads.first_mut() {
        *first = true;
    }
    scan_serial(&request.values, &heads, &Sum, request.kind)
}

fn serial_linrec(values: &[i32], coeffs: &[i32], kind: ScanKind) -> Vec<i32> {
    let mut hist = vec![0i32; coeffs.len()];
    values
        .iter()
        .map(|&b| {
            let pred = coeffs
                .iter()
                .zip(&hist)
                .fold(0i32, |a, (&c, &h)| a.wrapping_add(c.wrapping_mul(h)));
            let y = b.wrapping_add(pred);
            hist.rotate_right(1);
            hist[0] = y;
            match kind {
                ScanKind::Inclusive => y,
                ScanKind::Exclusive => pred,
            }
        })
        .collect()
}

/// Runs `body` on its own thread and fails the test if it has not
/// finished within two minutes: a lane nobody runs hangs instead of
/// failing. A hung thread is leaked and reaped by libtest's process exit.
fn with_watchdog(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("watchdog expired: a lane was left with nobody to run it");
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
}

/// A seeded request of 1 to 881 elements (long enough to span several
/// engine chunks) on the Sum lane or, every third one, a recurrence lane.
fn seeded_request(tenant: &str, i: i32) -> ScanRequest {
    let values: Vec<i32> = (0..(i % 23) * 40 + 1).map(|j| j * 7 - i).collect();
    let request = ScanRequest::inclusive(tenant, values);
    if i % 3 == 0 {
        request.with_recurrence(vec![2, -1])
    } else {
        request
    }
}

fn engine_grid() -> Vec<Engine> {
    vec![
        Engine::Serial,
        Engine::cpu(1),
        Engine::Cpu(CpuScanner::new(3).with_chunk_elems(64)),
        Engine::auto(),
    ]
}

fn hostile_engine(seed: u64) -> Engine {
    use gpu_sim::sched::{SchedPolicy, Scheduler};
    Engine::Cpu(
        CpuScanner::new(3)
            .with_chunk_elems(32)
            .with_scheduler(Arc::new(Scheduler::new(SchedPolicy::hostile(seed)))),
    )
}

fn request_strategy() -> impl Strategy<Value = ScanRequest> {
    (
        0usize..4,
        prop_oneof![Just(ScanKind::Inclusive), Just(ScanKind::Exclusive)],
        prop::collection::vec(any::<i32>(), 0..60),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(tenant, kind, values, with_heads, head_seed)| {
            let heads = if with_heads {
                let mut state = head_seed | 1;
                (0..values.len())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state % 5 == 0
                    })
                    .collect()
            } else {
                Vec::new()
            };
            ScanRequest::new(format!("tenant-{tenant}"), kind, values).with_heads(heads)
        })
}

/// Mixed-spec requests: plain/segmented sums interleaved with
/// linear-recurrence requests over a small coefficient pool (so distinct
/// requests share lanes often enough to coalesce, while several lanes
/// stay live at once). Recurrence requests carry no heads — the service
/// rejects that combination by design.
fn mixed_request_strategy() -> impl Strategy<Value = ScanRequest> {
    let maybe_coeffs = prop_oneof![
        Just(None),
        Just(None),
        Just(Some(vec![2i32])),
        Just(Some(vec![1i32])),
        Just(Some(vec![2i32, -1])),
        Just(Some(vec![1i32, 1])),
        Just(Some(vec![1i32, 0, 1])),
    ];
    (request_strategy(), maybe_coeffs).prop_map(|(request, coeffs)| match coeffs {
        None => request,
        Some(coeffs) => {
            let mut request = request.with_recurrence(coeffs);
            request.heads = Vec::new();
            request
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Coalesced execution is invisible: whatever mix of tenants, kinds,
    /// head patterns, engines, and batch limits, every response is
    /// bit-identical to the per-request serial oracle.
    #[test]
    fn coalesced_batches_match_per_request_serial_scans(
        requests in prop::collection::vec(request_strategy(), 1..40),
        engine_idx in 0usize..4,
        max_batch_requests in prop_oneof![Just(1usize), Just(3), Just(256)],
        submit_threads in 1usize..4,
    ) {
        let cfg = ServiceConfig::default()
            .with_engine(engine_grid().swap_remove(engine_idx))
            .with_batch_limits(max_batch_requests, 1 << 20);
        let service = ScanService::start(cfg);
        let expected: Vec<Vec<i32>> = requests.iter().map(oracle).collect();
        // Concurrent submitters round-robin the request list; the queue
        // interleaves them arbitrarily — responses must not care.
        let results: Vec<Vec<i32>> = std::thread::scope(|scope| {
            let service = &service;
            let chunks: Vec<Vec<(usize, ScanRequest)>> = (0..submit_threads)
                .map(|t| {
                    requests
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(submit_threads)
                        .map(|(i, r)| (i, r.clone()))
                        .collect()
                })
                .collect();
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|(i, request)| {
                                (i, service.scan(request).expect("request succeeds"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut results = vec![Vec::new(); requests.len()];
            for handle in handles {
                for (i, out) in handle.join().expect("submitter") {
                    results[i] = out;
                }
            }
            results
        });
        prop_assert_eq!(results, expected);
        let metrics = service.metrics();
        prop_assert_eq!(metrics.requests, requests.len() as u64);
        service.shutdown();
    }

    /// Same identity under adversarial scheduling of the engine's worker
    /// pool: seeded hostile schedules reorder publishes and stall
    /// predecessors under the coalesced launch.
    #[test]
    fn coalesced_batches_survive_hostile_schedules(
        requests in prop::collection::vec(request_strategy(), 1..20),
        seed in any::<u64>(),
    ) {
        let cfg = ServiceConfig::default().with_engine(hostile_engine(seed));
        let service = ScanService::start(cfg);
        for request in &requests {
            let expect = oracle(request);
            let got = service.scan(request.clone()).expect("request succeeds");
            prop_assert_eq!(got, expect);
        }
        service.shutdown();
    }

    /// The sharded router is invisible: mixed-spec submission streams
    /// (Sum × several recurrence families, interleaved tenants, concurrent
    /// submitters) return exactly what a dedicated serial execution of
    /// each request would, and lane metrics account for every request.
    #[test]
    fn mixed_spec_streams_match_per_request_serial_oracles(
        requests in prop::collection::vec(mixed_request_strategy(), 1..40),
        engine_idx in 0usize..4,
        max_batch_requests in prop_oneof![Just(1usize), Just(3), Just(256)],
        submit_threads in 1usize..4,
    ) {
        let cfg = ServiceConfig::default()
            .with_engine(engine_grid().swap_remove(engine_idx))
            .with_batch_limits(max_batch_requests, 1 << 20);
        let service = ScanService::start(cfg);
        let expected: Vec<Vec<i32>> = requests.iter().map(oracle).collect();
        let results: Vec<Vec<i32>> = std::thread::scope(|scope| {
            let service = &service;
            let chunks: Vec<Vec<(usize, ScanRequest)>> = (0..submit_threads)
                .map(|t| {
                    requests
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(submit_threads)
                        .map(|(i, r)| (i, r.clone()))
                        .collect()
                })
                .collect();
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|(i, request)| {
                                (i, service.scan(request).expect("request succeeds"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut results = vec![Vec::new(); requests.len()];
            for handle in handles {
                for (i, out) in handle.join().expect("submitter") {
                    results[i] = out;
                }
            }
            results
        });
        prop_assert_eq!(results, expected);
        let metrics = service.metrics();
        prop_assert_eq!(metrics.requests, requests.len() as u64);
        let lane_requests: u64 = metrics.lanes.values().map(|l| l.requests).sum();
        prop_assert_eq!(lane_requests, requests.len() as u64);
        service.shutdown();
    }

    /// Mixed-spec identity under adversarial worker scheduling: the
    /// recurrence lanes ride the same engine pool as the Sum lane, and
    /// hostile publish orders must not change a single output bit.
    #[test]
    fn mixed_spec_streams_survive_hostile_schedules(
        requests in prop::collection::vec(mixed_request_strategy(), 1..20),
        seed in any::<u64>(),
    ) {
        let cfg = ServiceConfig::default().with_engine(hostile_engine(seed));
        let service = ScanService::start(cfg);
        for request in &requests {
            let expect = oracle(request);
            let got = service.scan(request.clone()).expect("request succeeds");
            prop_assert_eq!(got, expect);
        }
        service.shutdown();
    }

    /// Streaming checkpoint chains are exact: any partition of a sequence
    /// into frames, fed with checkpoints carried between requests,
    /// concatenates to the one-shot result — for sums and recurrences
    /// alike, even when unrelated traffic interleaves with the stream.
    #[test]
    fn streaming_checkpoint_chains_match_one_shot_scans(
        values in prop::collection::vec(any::<i32>(), 0..120),
        frame_len in 1usize..17,
        kind in prop_oneof![Just(ScanKind::Inclusive), Just(ScanKind::Exclusive)],
        coeffs in prop_oneof![
            Just(None),
            Just(Some(vec![2i32])),
            Just(Some(vec![2i32, -1])),
        ],
        noise in any::<bool>(),
    ) {
        let service = ScanService::start(ServiceConfig::default());
        let one_shot_request = match &coeffs {
            None => ScanRequest::new("stream", kind, values.clone()),
            Some(c) => {
                ScanRequest::new("stream", kind, values.clone()).with_recurrence(c.clone())
            }
        };
        let expect = oracle(&one_shot_request);
        prop_assert_eq!(
            service.scan(one_shot_request.clone()).expect("one-shot"),
            expect.clone(),
            "one-shot request disagrees with the serial oracle"
        );

        let mut got = Vec::new();
        let mut checkpoint: Option<Vec<u8>> = None;
        let frames: Vec<&[i32]> = values.chunks(frame_len).collect();
        for (f, frame) in frames.iter().enumerate() {
            let mut request = match &coeffs {
                None => ScanRequest::new("stream", kind, frame.to_vec()),
                Some(c) => {
                    ScanRequest::new("stream", kind, frame.to_vec()).with_recurrence(c.clone())
                }
            }
            .streaming();
            if let Some(ck) = checkpoint.take() {
                request = request.with_checkpoint(ck);
            }
            if f == frames.len() - 1 {
                request.streaming = false;
            }
            let output = service.scan_streaming(request).expect("frame succeeds");
            got.extend_from_slice(&output.values);
            checkpoint = output.checkpoint;
            prop_assert_eq!(checkpoint.is_some(), f < frames.len() - 1);
            if noise {
                // Foreign traffic between frames shares the lane's cached
                // sessions; it must not perturb the resumed stream.
                service.scan(ScanRequest::inclusive("noise", vec![9, 9, 9]))
                    .expect("noise succeeds");
                if let Some(c) = &coeffs {
                    service
                        .scan(ScanRequest::inclusive("noise", vec![1, 2])
                            .with_recurrence(c.clone()))
                        .expect("noise succeeds");
                }
            }
        }
        prop_assert_eq!(got, expect);
        service.shutdown();
    }
}

/// A handler panic fails its own batch with [`RequestError::Panicked`]
/// and nothing else: the executor pool keeps draining, later requests
/// succeed on a rebuilt session, and the panic is counted.
#[test]
fn panicking_handler_fails_batch_without_stranding_the_pool() {
    let cfg = ServiceConfig {
        chaos_panic_tenant: Some("evil".into()),
        ..ServiceConfig::default()
    };
    let service = ScanService::start(cfg);
    for round in 0..5 {
        let err = service
            .scan(ScanRequest::inclusive("evil", vec![1, 2, 3]))
            .unwrap_err();
        assert_eq!(err, RequestError::Panicked, "round {round}");
        // The pool survived: a clean tenant gets correct results from the
        // rebuilt session immediately afterwards.
        let got = service
            .scan(ScanRequest::inclusive("fine", vec![1, 2, 3, 4]))
            .unwrap();
        assert_eq!(got, vec![1, 3, 6, 10], "round {round}");
    }
    let metrics = service.metrics();
    assert_eq!(metrics.panicked_batches, 5);
    assert_eq!(metrics.tenants["evil"].errors, 5);
    assert_eq!(metrics.tenants["fine"].errors, 0);
    service.shutdown();
}

/// Concurrent mixed traffic with a chaos tenant: every response is either
/// the exact oracle output or `Panicked` (when coalesced with the chaos
/// tenant) — never silently wrong — and the service survives it all.
#[test]
fn chaos_traffic_never_corrupts_other_tenants() {
    let cfg = ServiceConfig {
        chaos_panic_tenant: Some("evil".into()),
        ..ServiceConfig::default()
    };
    let service = ScanService::start(cfg);
    std::thread::scope(|scope| {
        let service = &service;
        for t in 0..3 {
            scope.spawn(move || {
                for r in 0..30 {
                    let tenant = if (t + r) % 4 == 0 { "evil" } else { "good" };
                    let values: Vec<i32> = (0..20).map(|i| i * (t + 1) - r).collect();
                    let request = ScanRequest::inclusive(tenant, values);
                    let expect = oracle(&request);
                    match service.scan(request) {
                        Ok(got) => assert_eq!(got, expect, "correct or failed, never wrong"),
                        Err(err) => assert_eq!(err, RequestError::Panicked),
                    }
                }
            });
        }
    });
    // Still alive and correct afterwards.
    assert_eq!(
        service
            .scan(ScanRequest::inclusive("good", vec![7, 7]))
            .unwrap(),
        vec![7, 14]
    );
    service.shutdown();
}

/// Backpressure: a zero-capacity queue sheds every `try_submit`
/// immediately, and a small queue under a thundering herd sheds the
/// overflow while everything admitted completes correctly.
#[test]
fn bounded_queue_sheds_load_instead_of_growing() {
    let service = ScanService::start(ServiceConfig::default().with_queue_capacity(0));
    let err = service
        .try_submit(ScanRequest::inclusive("t", vec![1]))
        .unwrap_err();
    assert_eq!(err, RequestError::QueueFull);
    assert_eq!(service.metrics().shed, 1);
    service.shutdown();

    let service = ScanService::start(ServiceConfig::default().with_queue_capacity(4));
    let outcomes: Vec<bool> = std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = (0..4)
            .map(|t| {
                scope.spawn(move || {
                    let mut accepted = Vec::new();
                    let mut admitted = Vec::new();
                    for r in 0..50 {
                        let request = ScanRequest::inclusive(format!("t{t}"), vec![t, r]);
                        let expect = oracle(&request);
                        match service.try_submit(request) {
                            Ok(handle) => admitted.push((handle, expect)),
                            Err(RequestError::QueueFull) => accepted.push(false),
                            Err(other) => panic!("unexpected: {other}"),
                        }
                    }
                    for (handle, expect) in admitted {
                        assert_eq!(handle.wait().unwrap(), expect);
                        accepted.push(true);
                    }
                    accepted
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("herd thread"))
            .collect()
    });
    assert_eq!(outcomes.len(), 200);
    let metrics = service.metrics();
    assert_eq!(
        metrics.requests + metrics.shed,
        200,
        "every request either executed or was shed"
    );
    service.shutdown();
}

/// The poll-driven front-end path: `try_take` returns `None` until the
/// batch completes, then yields the result exactly once.
#[test]
fn response_handles_support_polling() {
    let service = ScanService::start(ServiceConfig::default());
    let handle = service
        .submit(ScanRequest::inclusive("poll", vec![2, 4, 6]))
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let result = loop {
        if let Some(result) = handle.try_take() {
            break result;
        }
        assert!(std::time::Instant::now() < deadline, "poll never completed");
        std::thread::yield_now();
    };
    assert_eq!(result.unwrap(), vec![2, 6, 12]);
    assert!(handle.try_take().is_none(), "a response is consumed once");
    service.shutdown();
}

/// Coalescing observably happens on every lane family: requests enqueued
/// while a lane's executor is busy ride one launch. `families` names the
/// lanes by recurrence coefficients (`None` is the Sum lane); each gets
/// one chunky request to occupy its lone executor, then a burst of
/// micro-requests interleaved across the families queues behind them.
fn assert_micro_requests_coalesce_per_lane(families: &[Option<Vec<i32>>]) {
    let service = ScanService::start(ServiceConfig::default());
    let on_lane = |request: ScanRequest, family: &Option<Vec<i32>>| match family {
        Some(coeffs) => request.with_recurrence(coeffs.clone()),
        None => request,
    };
    let busy: Vec<_> = families
        .iter()
        .map(|family| {
            let request = on_lane(
                ScanRequest::inclusive("big", (0..200_000).map(|i| i % 7).collect()),
                family,
            );
            service.submit(request).unwrap()
        })
        .collect();
    // Build the burst (and its oracles) first so it queues back to back.
    let burst: Vec<_> = (0..32)
        .flat_map(|i| families.iter().map(move |family| (i, family)))
        .map(|(i, family)| {
            let micro = ScanRequest::inclusive(format!("micro-{i}"), vec![i, i + 1]);
            let request = on_lane(micro, family);
            let expect = oracle(&request);
            (request, expect)
        })
        .collect();
    let micros: Vec<_> = burst
        .into_iter()
        .map(|(request, expect)| (service.submit(request).unwrap(), expect))
        .collect();
    for handle in busy {
        handle.wait().unwrap();
    }
    for (handle, expect) in micros {
        assert_eq!(handle.wait().unwrap(), expect);
    }
    let metrics = service.metrics();
    assert_eq!(metrics.lanes.len(), families.len());
    for (label, lane) in &metrics.lanes {
        assert!(
            lane.batches < lane.requests,
            "lane {label}: {} launches for {} requests is no coalescing",
            lane.batches,
            lane.requests
        );
    }
    service.shutdown();
}

#[test]
fn queued_micro_requests_coalesce_into_shared_launches() {
    assert_micro_requests_coalesce_per_lane(&[None]);
}

/// Recurrence lanes coalesce too: a burst of Sum, `[3]` and `[2, -1]`
/// micro-requests fuses on each of the three lanes.
#[test]
fn queued_recurrence_micro_requests_coalesce_on_every_lane() {
    assert_micro_requests_coalesce_per_lane(&[None, Some(vec![3]), Some(vec![2, -1])]);
}

/// A single thread `submit`s far past the queue bound before waiting on
/// anything. With no lane threads, the blocked submitter must run the
/// lane itself to make room; otherwise this deadlocks.
#[test]
fn blocking_submit_past_capacity_runs_the_lane_from_one_thread() {
    with_watchdog(|| {
        let service = ScanService::start(ServiceConfig::default().with_queue_capacity(8));
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let request = seeded_request("solo", i);
                let expect = oracle(&request);
                (
                    service.submit(request).expect("submit blocks, then admits"),
                    expect,
                )
            })
            .collect();
        for (handle, expect) in handles {
            assert_eq!(handle.wait().unwrap(), expect);
        }
        assert_eq!(service.metrics().requests, 64);
        service.shutdown();
    });
}

/// One request per batch, four threads contending: the combining role
/// changes hands on nearly every batch, and every reply still matches
/// the oracle on the default and on a hostile-scheduled engine.
#[test]
fn combining_role_changes_hands_without_losing_replies() {
    for engine in [Engine::auto(), hostile_engine(19)] {
        with_watchdog(move || {
            let cfg = ServiceConfig::default()
                .with_engine(engine)
                .with_batch_limits(1, 1 << 20);
            let service = ScanService::start(cfg);
            let start = Barrier::new(4);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let (service, start) = (&service, &start);
                    scope.spawn(move || {
                        start.wait();
                        for r in 0..200 {
                            let request = seeded_request(&format!("t{t}"), t * 1000 + r);
                            let expect = oracle(&request);
                            assert_eq!(service.scan(request).unwrap(), expect, "t{t} r{r}");
                        }
                    });
                }
            });
            let metrics = service.metrics();
            assert_eq!(metrics.requests, 800);
            assert_eq!(metrics.batches, 800, "every batch holds one request");
            service.shutdown();
        });
    }
}

/// A request whose handle is dropped unwaited still runs, in the next
/// batch anyone runs on its lane: it is counted, and the requests queued
/// behind it complete.
#[test]
fn abandoned_requests_run_in_the_next_batch_and_hold_nothing_up() {
    with_watchdog(|| {
        let cfg = ServiceConfig::default().with_batch_limits(1, 1 << 20);
        let service = ScanService::start(cfg);
        for i in 0..5 {
            let request = ScanRequest::inclusive("abandoned", vec![i; 8]);
            drop(service.submit(request).unwrap());
        }
        let request = ScanRequest::inclusive("kept", vec![4, 5, 6]);
        assert_eq!(service.scan(request).unwrap(), vec![4, 9, 15]);
        let metrics = service.metrics();
        assert_eq!(metrics.requests, 6);
        assert_eq!(metrics.tenants["abandoned"].requests, 5);
        assert_eq!(metrics.tenants["abandoned"].errors, 0);
        service.shutdown();
    });
}

/// Request `i` of a pipelined mix: 1 to 300 values (up to ten of the
/// hostile engine's 32-element chunks) on one of five families — a plain
/// inclusive sum, a segmented exclusive sum, two recurrences and an
/// exclusive third-order one.
fn mixed_request(seed: u64, i: usize) -> ScanRequest {
    let n = (i * 37 + seed as usize) % 300 + 1;
    let values: Vec<i32> = (0..n)
        .map(|j| (j as i32).wrapping_mul(7919) ^ (seed as i32).wrapping_add(i as i32))
        .collect();
    match i % 5 {
        0 => ScanRequest::inclusive("pipe-a", values),
        1 => {
            let heads = (0..n).map(|j| (j * 13 + i).is_multiple_of(7)).collect();
            ScanRequest::exclusive("pipe-b", values).with_heads(heads)
        }
        2 => ScanRequest::inclusive("pipe-a", values).with_recurrence(vec![2]),
        3 => ScanRequest::inclusive("pipe-c", values).with_recurrence(vec![2, -1]),
        _ => ScanRequest::exclusive("pipe-b", values).with_recurrence(vec![1, 0, 1]),
    }
}

/// The daemon's connection loop (`server::serve`) over a socket pair, on
/// a service whose engine runs under hostile schedules: 64 mixed-family
/// scan frames sent in one write are answered in request order, each
/// bit-identical to its serial oracle, for three seeds.
#[test]
fn pipelined_frames_are_answered_in_order_under_hostile_schedules() {
    for seed in [3u64, 17, 29] {
        with_watchdog(move || {
            let cfg = ServiceConfig::default().with_engine(hostile_engine(seed));
            let service = ScanService::start(cfg);
            let stop = AtomicBool::new(false);
            let requests: Vec<ScanRequest> = (0..64).map(|i| mixed_request(seed, i)).collect();
            let mut bytes = Vec::new();
            for request in &requests {
                let payload = wire::encode_scan(request).expect("encodable request");
                wire::write_frame(&mut bytes, &payload).unwrap();
            }
            let (mut client, server) = UnixStream::pair().unwrap();
            let mut writer = client.try_clone().unwrap();
            std::thread::scope(|scope| {
                scope.spawn(|| serve(server, &service, &stop));
                // A writer of its own, so that neither side's socket buffer
                // can fill while the other waits.
                scope.spawn(move || writer.write_all(&bytes).unwrap());
                for (i, request) in requests.iter().enumerate() {
                    let payload = wire::read_frame(&mut client)
                        .unwrap()
                        .expect("a reply, not EOF");
                    let reply = wire::decode_response(&payload).unwrap();
                    let got = reply.expect("scan succeeds").values;
                    assert_eq!(got, oracle(request), "seed={seed} request {i}");
                }
                client.shutdown(Shutdown::Write).unwrap();
            });
            service.shutdown();
        });
    }
}
