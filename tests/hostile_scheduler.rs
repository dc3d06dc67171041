//! Hostile-scheduler tests for the full scan engines: the CPU engine's
//! publish/wait protocol and the simulated-GPU SAM kernel, both driven
//! through `gpu_sim::sched` adversarial schedules — reverse block start
//! order, a stalled predecessor, ring-slot reuse under delay injection —
//! and through fault injection (a worker panicking mid-scan before its
//! ready bump, historically a permanent hang in `wait_for_slow`).
//!
//! Every test runs under a watchdog: the interesting failure mode here is
//! not a wrong answer but no answer at all.

use gpu_sim::sched::{SchedPolicy, Scheduler};
use gpu_sim::{DeviceSpec, Gpu};
use sam_core::cpu::CpuScanner;
use sam_core::kernel::{scan_on_gpu, AuxMode, SamParams};
use sam_core::op::{Sum, Xor};
use sam_core::{serial, ChunkKernel, ScanOp, ScanSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `body` on its own thread and fails the test if it has not
/// finished before the watchdog expires. The body's panic (if any) is
/// returned as a value so tests can assert on the payload; a hung thread
/// is leaked and reaped by libtest's process exit.
fn with_watchdog<R: Send + 'static>(
    body: impl FnOnce() -> R + Send + 'static,
) -> std::thread::Result<R> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)));
    });
    rx.recv_timeout(WATCHDOG)
        .expect("watchdog expired: the scan hung instead of terminating")
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string payload>")
}

fn pseudo_random(n: usize, seed: u64) -> Vec<i64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64) - (1 << 30)
        })
        .collect()
}

/// Wrapping-sum operator that panics on its `at`-th combine — a worker
/// dies mid-chunk, *before* bumping the chunk's ready counter, which used
/// to leave every sibling spinning in `wait_for_slow` forever.
struct PanicAfter {
    combines: AtomicU64,
    at: u64,
    cascade: bool,
}

impl PanicAfter {
    fn at(at: u64) -> Self {
        PanicAfter {
            combines: AtomicU64::new(0),
            at,
            cascade: false,
        }
    }

    fn at_cascade(at: u64) -> Self {
        PanicAfter {
            combines: AtomicU64::new(0),
            at,
            cascade: true,
        }
    }
}

impl ScanOp<i64> for PanicAfter {
    fn identity(&self) -> i64 {
        0
    }
    fn combine(&self, a: i64, b: i64) -> i64 {
        if self.combines.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            panic!("injected worker panic");
        }
        a.wrapping_add(b)
    }
}

impl ChunkKernel<i64> for PanicAfter {
    fn supports_cascade(&self) -> bool {
        self.cascade
    }
    fn carry_weight(&self, w: u64) -> i64 {
        w as i64
    }
    fn weight_apply(&self, v: i64, w: i64) -> i64 {
        v.wrapping_mul(w)
    }
}

/// The known CPU-engine liveness bug: a worker panic before the `ready[c]`
/// bump must complete the scan call with the panic *propagated* — sibling
/// workers unwind out of `wait_for` cooperatively instead of deadlocking
/// `std::thread::scope`.
#[test]
fn cpu_worker_panic_mid_scan_propagates_instead_of_hanging() {
    let result = with_watchdog(|| {
        let input = pseudo_random(100_000, 1);
        // ~4 chunks in flight per worker round; the panic lands mid-stream
        // while siblings genuinely wait on the dying worker's chunks.
        let op = PanicAfter::at(40_000);
        let scanner = CpuScanner::new(4).with_chunk_elems(512);
        scanner.scan(&input, &op, &ScanSpec::inclusive());
    });
    let payload = result.expect_err("the scan must propagate the worker panic");
    assert_eq!(panic_message(payload.as_ref()), "injected worker panic");
}

/// Same guarantee on the single-pass cascade path (`scan_into_cascade`),
/// which has its own publish/wait loop.
#[test]
fn cpu_worker_panic_on_cascade_path_propagates() {
    let result = with_watchdog(|| {
        let input = pseudo_random(100_000, 2);
        let op = PanicAfter::at_cascade(40_000);
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        let scanner = CpuScanner::new(4).with_chunk_elems(512);
        scanner.scan(&input, &op, &spec);
    });
    let payload = result.expect_err("the scan must propagate the worker panic");
    assert_eq!(panic_message(payload.as_ref()), "injected worker panic");
}

/// A panicked scan must not permanently break the scanner or the worker
/// pool it leased with its arena: subsequent scans are correct.
#[test]
fn scanner_survives_a_panicked_scan() {
    let result = with_watchdog(|| {
        let scanner = CpuScanner::new(4).with_chunk_elems(256);
        let input = pseudo_random(50_000, 3);
        let op = PanicAfter::at(20_000);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scanner.scan(&input, &op, &ScanSpec::inclusive());
        }));
        assert!(panicked.is_err(), "injection did not fire");

        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        assert_eq!(
            scanner.scan(&input, &Sum, &spec),
            serial::scan(&input, &Sum, &spec)
        );
    });
    result.expect("post-panic scan failed");
}

/// CPU protocol under the adversarial presets: reverse worker start order
/// and a stalled worker 0, across the spec space, with `Sum` on the
/// cascade publish protocol and `Xor` on the multi-pass one. `Sum` runs
/// once more under a 1 KiB scoped NT-store threshold, which the scan's
/// output crosses and each 64-element chunk does not: its output sweeps
/// then stream, fence and publish under the same schedules.
#[test]
fn cpu_scan_correct_under_adversarial_schedules() {
    let result = with_watchdog(|| {
        let input = pseudo_random(20_000, 4);
        let specs = [
            ScanSpec::inclusive(),
            ScanSpec::exclusive()
                .with_order(2)
                .unwrap()
                .with_tuple(3)
                .unwrap(),
            ScanSpec::inclusive().with_order(3).unwrap(),
        ];
        let policies = [
            SchedPolicy::reverse_start(11),
            SchedPolicy::stalled_predecessor(12, 0),
            SchedPolicy::hostile(13),
        ];
        fn check(
            op: &impl ChunkKernel<i64>,
            input: &[i64],
            spec: &ScanSpec,
            expect: &[i64],
            policy: &SchedPolicy,
        ) {
            let sched = Arc::new(Scheduler::new(policy.clone()));
            let scanner = CpuScanner::new(4)
                .with_chunk_elems(64)
                .with_scheduler(sched);
            assert_eq!(
                scanner.scan(input, op, spec),
                expect,
                "spec={spec:?} policy={policy:?}"
            );
        }
        // The `Sum` oracle is computed here, before the streaming threshold
        // below is installed, so it stays on cacheable stores.
        let sum_expect: Vec<Vec<i64>> = specs
            .iter()
            .map(|spec| serial::scan(&input, &Sum, spec))
            .collect();
        for (spec, expect) in specs.iter().zip(&sum_expect) {
            let xor_expect = serial::scan(&input, &Xor, spec);
            for policy in &policies {
                check(&Sum, &input, spec, expect, policy);
                check(&Xor, &input, spec, &xor_expect, policy);
            }
        }
        let _nt = sam_core::simd::nt_store_override(1 << 10);
        for (spec, expect) in specs.iter().zip(&sum_expect) {
            for policy in &policies {
                check(&Sum, &input, spec, expect, policy);
            }
        }
    });
    result.expect("adversarial CPU scan panicked");
}

/// Record a jittered CPU scan's schedule, then replay it: identical
/// operation linearization, identical output.
#[test]
fn cpu_scan_schedule_replays_deterministically() {
    let result = with_watchdog(|| {
        let input = pseudo_random(4_000, 5);
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        let expect = serial::scan(&input, &Sum, &spec);

        let rec_sched = Arc::new(Scheduler::new(SchedPolicy::jitter(21).with_record()));
        let scanner = CpuScanner::new(4)
            .with_chunk_elems(128)
            .with_scheduler(Arc::clone(&rec_sched));
        assert_eq!(scanner.scan(&input, &Sum, &spec), expect);
        let recording = rec_sched.recording();
        assert_eq!(recording.dropped, 0, "recording was truncated");

        let replayer = Arc::new(Scheduler::replay(&recording));
        let scanner = CpuScanner::new(4)
            .with_chunk_elems(128)
            .with_scheduler(Arc::clone(&replayer));
        assert_eq!(scanner.scan(&input, &Sum, &spec), expect);
        assert_eq!(
            replayer.recording().events,
            recording.events,
            "replay diverged from the recorded schedule"
        );
    });
    result.expect("record/replay round-trip panicked");
}

/// A deliberately tiny device so ring-wrap stress is cheap: k = 4
/// persistent blocks, 32-thread blocks, ring of 16 slots.
fn tiny_device() -> DeviceSpec {
    DeviceSpec {
        name: "tiny-hostile",
        sms: 2,
        min_blocks_per_sm: 2,
        threads_per_block: 32,
        ..DeviceSpec::k40()
    }
}

/// The acceptance scenario: reverse block start order + stalled
/// predecessor + `ring_len < chunks` (slot reuse races live readers),
/// seeded and deterministic per seed, against the serial oracle.
#[test]
fn gpu_ring_reuse_survives_hostile_schedules() {
    let result = with_watchdog(|| {
        let n = 2_560; // 80 chunks of 32 against a 16-slot ring
        let input = pseudo_random(n, 6);
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        let expect = serial::scan(&input, &Sum, &spec);
        let params = SamParams {
            items_per_thread: 1,
            aux: AuxMode::Ring,
            ..SamParams::default()
        };
        for seed in [1u64, 2, 3] {
            let sched = Arc::new(Scheduler::new(SchedPolicy::hostile(seed)));
            let gpu = Gpu::new(tiny_device()).with_scheduler(sched);
            let (got, info) = scan_on_gpu(&gpu, &input, &Sum, &spec, &params);
            assert!(
                info.ring_len < info.chunks as usize,
                "scenario must exercise ring-slot reuse"
            );
            assert_eq!(got, expect, "seed={seed}");
        }
    });
    result.expect("hostile ring-mode scan panicked");
}

/// Record a jittered ring-mode kernel run and replay its schedule: the
/// minimized-repro workflow end to end on the real SAM kernel.
#[test]
fn gpu_kernel_schedule_replays_deterministically() {
    let result = with_watchdog(|| {
        let n = 640; // 20 chunks against a 16-slot ring
        let input = pseudo_random(n, 7);
        let spec = ScanSpec::inclusive();
        let expect = serial::scan(&input, &Sum, &spec);
        let params = SamParams {
            items_per_thread: 1,
            aux: AuxMode::Ring,
            ..SamParams::default()
        };

        let rec_sched = Arc::new(Scheduler::new(SchedPolicy::jitter(31).with_record()));
        let gpu = Gpu::new(tiny_device()).with_scheduler(Arc::clone(&rec_sched));
        let (got, _) = scan_on_gpu(&gpu, &input, &Sum, &spec, &params);
        assert_eq!(got, expect);
        let recording = rec_sched.recording();
        assert_eq!(recording.dropped, 0, "recording was truncated");

        let replayer = Arc::new(Scheduler::replay(&recording));
        let gpu = Gpu::new(tiny_device()).with_scheduler(Arc::clone(&replayer));
        let (got, _) = scan_on_gpu(&gpu, &input, &Sum, &spec, &params);
        assert_eq!(got, expect);
        assert_eq!(
            replayer.recording().events,
            recording.events,
            "replay diverged from the recorded schedule"
        );
    });
    result.expect("kernel record/replay round-trip panicked");
}

/// A GPU-kernel block panic mid-protocol (injected through the operator)
/// terminates with the original payload even while siblings wait on its
/// flags — the gpu-sim counterpart of the CPU hang fix.
#[test]
fn gpu_kernel_worker_panic_propagates() {
    let result = with_watchdog(|| {
        let input = pseudo_random(2_560, 8);
        let op = PanicAfter::at(3_000);
        let params = SamParams {
            items_per_thread: 1,
            aux: AuxMode::Ring,
            ..SamParams::default()
        };
        let gpu = Gpu::new(tiny_device());
        scan_on_gpu(&gpu, &input, &op, &ScanSpec::inclusive(), &params);
    });
    let payload = result.expect_err("the launch must propagate the panic");
    assert_eq!(panic_message(payload.as_ref()), "injected worker panic");
}
