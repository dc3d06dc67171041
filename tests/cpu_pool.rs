//! The CPU engine's persistent workers: the calling thread is worker 0 and
//! workers `1..k` come from one process-wide pool of parked threads named
//! `sam-scan-<b>`. These tests pin what that pool promises: warm scans
//! create no thread however many scanners are made, a panic on either
//! side of the pool propagates as the original payload only after every
//! worker has stopped, and a scan that finds the pool busy (a concurrent
//! scan, or one nested inside a worker) runs on scoped threads instead.
//!
//! Each test runs alone in a child process of this binary
//! ([`common::isolated`]), so that no other test's scan holds the pool or
//! starts a thread while it counts.

mod common;

use common::{isolated, thread_count};
use sam_core::cpu::CpuScanner;
use sam_core::op::Sum;
use sam_core::{serial, ChunkKernel, ScanOp, ScanSpec, SegmentHandoff};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

const CHUNK: usize = 1024;

fn input(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 7919) % 1013 - 500).collect()
}

/// The current thread's name, or `""` for an unnamed thread.
fn thread_name() -> String {
    std::thread::current().name().unwrap_or_default().to_owned()
}

fn is_pool_thread(name: &str) -> bool {
    name.starts_with("sam-scan-")
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string payload>")
}

/// Runs `body` on a thread named `watched` and fails if it has not
/// finished within a minute: a pool that lost a worker would hang the scan
/// instead of failing it. The body's panic propagates.
fn watched(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name("watched".into())
        .spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(body)));
        })
        .expect("spawn the watched thread");
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(result) => result.unwrap_or_else(|p| std::panic::resume_unwind(p)),
        Err(_) => panic!("the test hung"),
    }
}

/// Wrapping `Sum` on the cascade protocol that calls `hook(c)` at the
/// start of chunk `c`'s first sweep, on the worker that owns the chunk
/// (chunks of [`CHUNK`] elements).
struct Probe<F>(F);

impl<F: Fn(usize) + Send + Sync> ScanOp<i64> for Probe<F> {
    fn identity(&self) -> i64 {
        0
    }
    fn combine(&self, a: i64, b: i64) -> i64 {
        a.wrapping_add(b)
    }
}

impl<F: Fn(usize) + Send + Sync> ChunkKernel<i64> for Probe<F> {
    fn supports_cascade(&self) -> bool {
        true
    }
    fn carry_weight(&self, w: u64) -> i64 {
        ChunkKernel::<i64>::carry_weight(&Sum, w)
    }
    fn weight_apply(&self, v: i64, w: i64) -> i64 {
        ChunkKernel::<i64>::weight_apply(&Sum, v, w)
    }
    fn cascade_totals(
        &self,
        src: &[i64],
        base: usize,
        s: usize,
        state: &mut [i64],
        handoff: Option<&mut SegmentHandoff<i64>>,
    ) {
        (self.0)(base / CHUNK);
        Sum.cascade_totals(src, base, s, state, handoff);
    }
    fn cascade_scan_from(
        &self,
        src: &[i64],
        dst: &mut [i64],
        base: usize,
        s: usize,
        state: &mut [i64],
        exclusive: bool,
        handoff: Option<&SegmentHandoff<i64>>,
    ) {
        Sum.cascade_scan_from(src, dst, base, s, state, exclusive, handoff);
    }
}

/// A probe that records, per chunk, the name of the thread that ran it.
fn recorder(seen: &Mutex<Vec<(usize, String)>>) -> Probe<impl Fn(usize) + Send + Sync + '_> {
    Probe(move |c| seen.lock().unwrap().push((c, thread_name())))
}

/// The thread that ran chunk `c`.
fn ran(seen: &Mutex<Vec<(usize, String)>>, c: usize) -> String {
    let seen = seen.lock().unwrap();
    seen.iter()
        .find(|&&(chunk, _)| chunk == c)
        .map(|(_, name)| name.clone())
        .unwrap()
}

/// A thousand multi-chunk scans, each on a fresh scanner of 2–4 workers,
/// leave the thread count where the first 4-worker scan put it: three
/// pool workers beside the test's own threads.
#[test]
fn thread_count_stays_flat_over_fresh_scanners() {
    if !isolated("thread_count_stays_flat_over_fresh_scanners") {
        return;
    }
    watched(|| {
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        let data = input(4 * CHUNK + 3);
        let expect = serial::scan(&data, &Sum, &spec);
        let before = thread_count();
        let warm = CpuScanner::new(4).with_chunk_elems(CHUNK);
        assert_eq!(warm.scan(&data, &Sum, &spec), expect);
        let pooled = thread_count();
        assert_eq!(
            pooled,
            before + 3,
            "a 4-worker scan grows the pool to 3 threads"
        );
        for i in 0..1000 {
            let workers = 2 + i % 3;
            let scanner = CpuScanner::new(workers).with_chunk_elems(CHUNK);
            assert_eq!(
                scanner.scan(&data, &Sum, &spec),
                expect,
                "scan {i}, {workers} workers"
            );
        }
        assert_eq!(
            thread_count(),
            pooled,
            "scans on fresh scanners created threads"
        );
    });
}

/// Pool worker 1 panics in chunk 1, before publishing it; the caller,
/// waiting on chunk 1 for chunk 2, unwinds with the cooperative
/// `Cancelled`. The scan propagates the original payload, the next scan on
/// the same scanner is correct, and the pool lost no thread.
#[test]
fn pool_worker_panic_propagates_the_original_payload() {
    if !isolated("pool_worker_panic_propagates_the_original_payload") {
        return;
    }
    watched(|| {
        let spec = ScanSpec::inclusive();
        let data = input(3 * CHUNK);
        let expect = serial::scan(&data, &Sum, &spec);
        let scanner = CpuScanner::new(2).with_chunk_elems(CHUNK);
        assert_eq!(scanner.scan(&data, &Sum, &spec), expect); // grows the pool
        let threads = thread_count();

        let panicked_on = Mutex::new(String::new());
        let op = Probe(|c| {
            if c == 1 {
                *panicked_on.lock().unwrap() = thread_name();
                panic!("chunk 1 panicked");
            }
        });
        let payload = catch_unwind(AssertUnwindSafe(|| scanner.scan(&data, &op, &spec)))
            .expect_err("the worker panic propagates");
        assert_eq!(panic_message(payload.as_ref()), "chunk 1 panicked");
        assert_eq!(
            *panicked_on.lock().unwrap(),
            "sam-scan-1",
            "chunk 1 ran on pool worker 1"
        );

        let seen = Mutex::new(Vec::new());
        assert_eq!(scanner.scan(&data, &recorder(&seen), &spec), expect);
        assert_eq!(
            ran(&seen, 1),
            "sam-scan-1",
            "the pool worker survived its panic"
        );
        assert_eq!(thread_count(), threads);
    });
}

/// The caller panics in chunk 0 while pool worker 1 is still in chunk 1.
/// The scan unwinds only after the sibling has stopped, with the caller's
/// payload. The sibling's sleep only widens the window in which a scan
/// that did not wait would be caught; a scan that waits passes whatever
/// the timing.
#[test]
fn caller_panic_waits_for_its_siblings() {
    if !isolated("caller_panic_waits_for_its_siblings") {
        return;
    }
    watched(|| {
        let spec = ScanSpec::inclusive();
        let data = input(2 * CHUNK);
        let scanner = CpuScanner::new(2).with_chunk_elems(CHUNK);
        let caller = thread_name();
        let sibling_done = AtomicBool::new(false);
        let op = Probe(|c| {
            if c == 0 {
                assert_eq!(thread_name(), caller, "chunk 0 runs on the calling thread");
                panic!("chunk 0 panicked");
            }
            std::thread::sleep(Duration::from_millis(100));
            sibling_done.store(true, Ordering::SeqCst);
        });
        let payload = catch_unwind(AssertUnwindSafe(|| scanner.scan(&data, &op, &spec)))
            .expect_err("the caller's panic propagates");
        assert!(
            sibling_done.load(Ordering::SeqCst),
            "the scan unwound before its sibling stopped"
        );
        assert_eq!(panic_message(payload.as_ref()), "chunk 0 panicked");
        assert_eq!(
            scanner.scan(&data, &Sum, &spec),
            serial::scan(&data, &Sum, &spec)
        );
    });
}

/// Scanner B scans while scanner A's scan holds the pool (A's caller is
/// parked inside chunk 0 until B is done), and a scan runs nested inside
/// each worker of another scan. Every scan is correct, and each that found
/// the pool busy ran its worker 1 on a scoped thread, not a pool thread.
#[test]
fn busy_pool_falls_back_to_scoped_threads() {
    if !isolated("busy_pool_falls_back_to_scoped_threads") {
        return;
    }
    watched(|| {
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        let data = input(4 * CHUNK);
        let expect = serial::scan(&data, &Sum, &spec);

        let (inside_tx, inside_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let (inside_tx, done_rx) = (Mutex::new(inside_tx), Mutex::new(done_rx));
        let a_seen = Mutex::new(Vec::new());
        let a_op = Probe(|c| {
            a_seen.lock().unwrap().push((c, thread_name()));
            if c == 0 {
                inside_tx.lock().unwrap().send(()).unwrap();
                done_rx.lock().unwrap().recv().unwrap();
            }
        });
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                CpuScanner::new(2)
                    .with_chunk_elems(CHUNK)
                    .scan(&data, &a_op, &spec)
            });
            inside_rx.recv().unwrap();
            let b_seen = Mutex::new(Vec::new());
            let b =
                CpuScanner::new(2)
                    .with_chunk_elems(CHUNK)
                    .scan(&data, &recorder(&b_seen), &spec);
            done_tx.send(()).unwrap();
            assert_eq!(b, expect, "concurrent scan");
            assert!(
                !is_pool_thread(&ran(&b_seen, 1)),
                "B's worker 1 is a scoped thread"
            );
            assert_eq!(a.join().unwrap(), expect, "the scan holding the pool");
        });
        assert_eq!(ran(&a_seen, 1), "sam-scan-1", "A ran on the pool");

        let inner_seen = Mutex::new(Vec::new());
        let outer_seen = Mutex::new(Vec::new());
        let outer = Probe(|c| {
            outer_seen.lock().unwrap().push((c, thread_name()));
            let seen = Mutex::new(Vec::new());
            let got =
                CpuScanner::new(2)
                    .with_chunk_elems(CHUNK)
                    .scan(&data, &recorder(&seen), &spec);
            assert_eq!(got, expect, "scan nested in chunk {c}");
            inner_seen
                .lock()
                .unwrap()
                .push((c, ran(&seen, 0), ran(&seen, 1)));
        });
        let outer_scan = CpuScanner::new(2).with_chunk_elems(CHUNK);
        assert_eq!(outer_scan.scan(&data, &outer, &spec), expect, "outer scan");
        assert_eq!(
            ran(&outer_seen, 1),
            "sam-scan-1",
            "the outer scan ran on the pool"
        );
        let inner = inner_seen.into_inner().unwrap();
        assert_eq!(inner.len(), 4, "one nested scan per outer chunk");
        for (c, worker0, worker1) in inner {
            assert_eq!(
                worker0,
                ran(&outer_seen, c),
                "a nested scan's caller is worker 0"
            );
            assert!(
                !is_pool_thread(&worker1),
                "nested in chunk {c}: worker 1 is scoped"
            );
        }
    });
}
