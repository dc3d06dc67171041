//! Steady-state allocation discipline of [`CpuScanner::scan_into`]: after
//! the first scan has grown the worker pool's arena, further scans must
//! not allocate per chunk, whichever scanner runs them. A counting global allocator measures exact
//! allocation counts. The counter spans every thread (a thread-local one
//! would miss allocations on CPU worker threads) but the harness's: each
//! test runs alone in a child process of this binary
//! ([`common::isolated`]), and the main thread, which only runs the
//! harness, is not counted.

mod common;

use common::{isolated, thread_count};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sam_core::cpu::CpuScanner;
use sam_core::op::{LinRec, Max, Sum};
use sam_core::plan::{PlanHint, ScanPlan};
use sam_core::Engine;
use sam_core::ScanSpec;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`thread_id`] of the main thread: the first thread to allocate, since
/// the process has no other thread until the harness spawns one.
static MAIN_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_MARK: u8 = const { 0 };
}

/// Tells live threads apart without allocating: the address of a
/// thread-local that has no destructor, so it stays readable while the
/// thread exits.
fn thread_id() -> usize {
    THREAD_MARK.with(|m| m as *const u8 as usize)
}

/// Counts one allocation, unless the main thread made it. Even with one
/// test thread, the harness's main thread may still be recording the test
/// it has just started while that test's first count is open.
fn count() {
    let me = thread_id();
    let main = match MAIN_THREAD.compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => me,
        Err(main) => main,
    };
    if me != main {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    assert_ne!(
        thread_id(),
        MAIN_THREAD.load(Ordering::Relaxed),
        "the main thread's allocations are not counted"
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn scan_into_does_not_allocate_per_chunk() {
    if !isolated("scan_into_does_not_allocate_per_chunk") {
        return;
    }
    let spec = ScanSpec::inclusive()
        .with_order(2)
        .unwrap()
        .with_tuple(3)
        .unwrap();
    let input: Vec<i64> = (0..65_536).map(|i| (i % 977) - 400).collect();
    let mut out = vec![0i64; input.len()];
    let expect = sam_core::serial::scan(&input, &Sum, &spec);

    // Single-worker path: degenerates to the fused serial kernel, which
    // needs no scratch at all once `out` exists.
    let serial_scanner = CpuScanner::new(1);
    serial_scanner.scan_into(&input, &mut out, &Sum, &spec); // warm-up
    let single = allocs_during(|| {
        for _ in 0..5 {
            serial_scanner.scan_into(&input, &mut out, &Sum, &spec);
        }
    });
    assert_eq!(
        single, 0,
        "single-worker steady state must be allocation-free"
    );
    assert_eq!(out, expect);

    // Multi-worker path: compare a few-chunks geometry against a
    // many-chunks geometry on the same input. Per-worker scratch may
    // allocate a bounded number of times per scan, but nothing may scale
    // with the chunk count. And warm scans create no thread: their workers
    // are the calling thread and the parked pool.
    let few = CpuScanner::new(3).with_chunk_elems(32_768); // 2 chunks
    let many = CpuScanner::new(3).with_chunk_elems(32); // 2048 chunks
    few.scan_into(&input, &mut out, &Sum, &spec); // warm-up (grows arena)
    many.scan_into(&input, &mut out, &Sum, &spec); // warm-up (grows arena)

    let threads = thread_count();
    let allocs_few = allocs_during(|| few.scan_into(&input, &mut out, &Sum, &spec));
    let allocs_many = allocs_during(|| many.scan_into(&input, &mut out, &Sum, &spec));
    assert_eq!(out, expect);
    assert_eq!(
        thread_count(),
        threads,
        "a warm multi-chunk scan creates no thread"
    );

    // 2048 chunks vs 2 chunks: any per-chunk allocation would add ≥ 2046.
    // Per-worker scratch costs a handful of allocations per scan, so allow
    // a fixed (chunk-independent) budget.
    assert!(
        allocs_many <= allocs_few + 64 && allocs_many < 256,
        "allocations scale with chunk count: {allocs_few} for 2 chunks, \
         {allocs_many} for 2048 chunks"
    );

    // Linear recurrences: the totals sweep of every chunk folds its chains
    // with a companion-matrix power, which must stay on the stack. Chunks
    // of 2048 are long enough to split at order 2; order 4 runs the
    // single-chain register sweep.
    let input: Vec<i64> = (0..196_608).map(|i| (i % 977) - 400).collect();
    let mut out = vec![0i64; input.len()];
    for coeffs in [vec![2i64, -1], vec![1, -2, 0, 1]] {
        let spec = ScanSpec::inclusive()
            .with_order(coeffs.len() as u32)
            .unwrap();
        let op = LinRec::new(coeffs).unwrap();
        let expect = sam_core::serial::scan(&input, &op, &spec);
        let few = CpuScanner::new(3).with_chunk_elems(98_304); // 2 chunks
        let many = CpuScanner::new(3).with_chunk_elems(2_048); // 96 chunks
        few.scan_into(&input, &mut out, &op, &spec); // warm-up
        many.scan_into(&input, &mut out, &op, &spec); // warm-up
        let allocs_few = allocs_during(|| few.scan_into(&input, &mut out, &op, &spec));
        let allocs_many = allocs_during(|| many.scan_into(&input, &mut out, &op, &spec));
        assert_eq!(out, expect, "order {}", spec.order());
        assert!(
            allocs_many <= allocs_few + 64 && allocs_many < 256,
            "order-{} recurrence allocations scale with chunk count: \
             {allocs_few} for 2 chunks, {allocs_many} for 96 chunks",
            spec.order()
        );
    }
}

/// The carry arena belongs to the worker pool, not to a scanner: once one
/// scanner has grown it, a fresh scanner of the same geometry allocates
/// on its first scan exactly what a warm scan allocates (the per-worker
/// scratch), and its output is still right.
#[test]
fn fresh_scanners_share_the_pool_arena() {
    if !isolated("fresh_scanners_share_the_pool_arena") {
        return;
    }
    let spec = ScanSpec::inclusive().with_order(2).unwrap();
    let input: Vec<i64> = (0..65_536).map(|i| (i % 977) - 400).collect();
    let mut out = vec![0i64; input.len()];
    let warm = CpuScanner::new(2).with_chunk_elems(64); // 1024 chunks
    warm.scan_into(&input, &mut out, &Sum, &spec); // warm-up (grows the pool and its arena)
    let warm_allocs = allocs_during(|| warm.scan_into(&input, &mut out, &Sum, &spec));

    let fresh = CpuScanner::new(2).with_chunk_elems(64);
    out.fill(0);
    let fresh_allocs = allocs_during(|| fresh.scan_into(&input, &mut out, &Sum, &spec));
    assert_eq!(
        fresh_allocs, warm_allocs,
        "a fresh scanner's first scan must reuse the pool's arena"
    );
    assert_eq!(out, sam_core::serial::scan(&input, &Sum, &spec));
}

/// Plan-once sessions are allocation-free in steady state: after the
/// `PlanHint`-sized output buffer exists, `feed` allocates nothing in any
/// stream mode (cascade, continuous, chunked), and one-shot
/// `ScanSession::scan_into` on a warmed single-worker plan allocates
/// nothing either.
#[test]
fn session_steady_state_is_allocation_free() {
    if !isolated("session_steady_state_is_allocation_free") {
        return;
    }
    let spec = ScanSpec::inclusive()
        .with_order(2)
        .unwrap()
        .with_tuple(3)
        .unwrap();
    let input: Vec<i64> = (0..32_768).map(|i| (i % 613) - 300).collect();

    // Cascade mode (integer sums, serial engine). The hint pre-sizes the
    // output buffer, so even the *first* feed is allocation-free.
    let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::expected_len(input.len()));
    let mut cascade = plan.session::<i64, _>(Sum);
    let first = allocs_during(|| {
        let _ = cascade.feed(&input);
    });
    assert_eq!(first, 0, "hinted first feed must be allocation-free");
    let steady = allocs_during(|| {
        for _ in 0..4 {
            cascade.reset();
            let _ = cascade.feed(&input[..10_000]);
            let _ = cascade.feed(&input[10_000..]);
        }
    });
    assert_eq!(
        steady, 0,
        "cascade-mode feed steady state must be allocation-free"
    );

    // Continuous and chunked modes (Max has no cascade weights). The
    // chunked fold runs in the session, not on the workers, so it is
    // strictly allocation-free too.
    for eng in [
        Engine::Cpu(CpuScanner::new(1)),
        Engine::Cpu(CpuScanner::new(3).with_chunk_elems(256)),
    ] {
        let plan = ScanPlan::new(spec, eng, PlanHint::expected_len(input.len()));
        let mut session = plan.session::<i64, _>(Max);
        let _ = session.feed(&input); // warm-up
        session.reset();
        let steady = allocs_during(|| {
            for _ in 0..4 {
                session.reset();
                for batch in input.chunks(1111) {
                    let _ = session.feed(batch);
                }
            }
        });
        assert_eq!(steady, 0, "feed steady state must be allocation-free");
    }

    // One-shot scans through a session reuse the plan's engine: the
    // single-worker CPU path needs no scratch once `out` exists.
    let plan = ScanPlan::new(spec, Engine::Cpu(CpuScanner::new(1)), PlanHint::default());
    let session = plan.session::<i64, _>(Sum);
    let mut out = vec![0i64; input.len()];
    session.scan_into(&input, &mut out); // warm-up
    let one_shot = allocs_during(|| {
        for _ in 0..5 {
            session.scan_into(&input, &mut out);
        }
    });
    assert_eq!(
        one_shot, 0,
        "session scan_into steady state must be allocation-free"
    );
    assert_eq!(out, sam_core::serial::scan(&input, &Sum, &spec));
}

/// The adaptive feedback path is allocation-free once converged: driving
/// a `PlanHint::adaptive()` plan to `DriverPhase::Steady` and scanning
/// again must allocate nothing — geometry resolution, the wall-clock cost
/// measurement, and `Driver::observe` all run on pre-allocated state (the
/// one-time persistence write happened at the convergence transition).
#[test]
fn converged_adaptive_feedback_is_allocation_free() {
    use sam_core::adapt::DriverPhase;
    if !isolated("converged_adaptive_feedback_is_allocation_free") {
        return;
    }

    let spec = ScanSpec::inclusive().with_order(2).unwrap();
    let input: Vec<i64> = (0..32_768).map(|i| (i % 811) - 400).collect();
    let mut out = vec![0i64; input.len()];
    // Single worker: the scan itself is allocation-free once warmed, so
    // any steady-state allocation is attributable to the adaptive layer.
    let plan = ScanPlan::new(spec, Engine::Cpu(CpuScanner::new(1)), PlanHint::adaptive());
    assert!(plan.is_adaptive());

    // Drive the search to convergence (episodes above the observation
    // floor; warmup + climb need a few hundred).
    for _ in 0..3000 {
        plan.scan_into(&input, &mut out, &Sum);
        if plan.adaptive_snapshot().unwrap().phase == DriverPhase::Steady {
            break;
        }
    }
    assert_eq!(
        plan.adaptive_snapshot().unwrap().phase,
        DriverPhase::Steady,
        "driver must converge before the allocation gate"
    );

    plan.scan_into(&input, &mut out, &Sum); // settle
    let steady = allocs_during(|| {
        for _ in 0..10 {
            plan.scan_into(&input, &mut out, &Sum);
        }
    });
    assert_eq!(
        steady, 0,
        "converged adaptive feedback must be allocation-free"
    );
    assert_eq!(out, sam_core::serial::scan(&input, &Sum, &spec));
}
