//! Quickstart: the SAM scan API in five minutes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the conventional prefix sum, the two generalizations of
//! the paper (higher-order and tuple-based scans), other associative
//! operators, the multi-threaded CPU engine, and a fully instrumented run
//! on the simulated GPU.

use gpu_sim::DeviceSpec;
use sam_core::kernel::SamParams;
use sam_core::op::{Max, Sum};
use sam_core::plan::{PlanHint, ScanPlan};
use sam_core::{Engine, ScanSpec};

fn main() {
    // --- 1. Conventional prefix sums -----------------------------------
    // The paper's running example: decoding a delta-encoded sequence.
    let differences = [1i32, 1, 1, 1, 1, -3, 2, 2, 2, 2];
    let values = sam_core::prefix_sum(&differences);
    println!("prefix sum  : {values:?}");
    assert_eq!(values, vec![1, 2, 3, 4, 5, 2, 4, 6, 8, 10]);

    // --- 2. Higher-order scans ------------------------------------------
    // A 2nd-order difference sequence needs an order-2 prefix sum.
    let second_order = [1i32, 0, 0, 0, 0, -4, 5, 0, 0, 0];
    let spec = ScanSpec::inclusive().with_order(2).expect("valid order");
    let decoded = sam_core::scan(&second_order, &Sum, &spec);
    println!("order-2 scan: {decoded:?}");
    assert_eq!(decoded, values);

    // --- 3. Tuple-based scans --------------------------------------------
    // Interleaved (x, y) pairs scan independently, lanes never mix.
    let pairs = [1i32, 100, 2, 200, 3, 300];
    let spec = ScanSpec::inclusive().with_tuple(2).expect("valid tuple");
    println!("2-tuple scan: {:?}", sam_core::scan(&pairs, &Sum, &spec));

    // --- 4. Any associative operator -------------------------------------
    let running_max = sam_core::scan(&[3i64, 1, 4, 1, 5, 9, 2, 6], &Max, &ScanSpec::inclusive());
    println!("max scan    : {running_max:?}");

    // --- 5. The multi-threaded CPU engine, planned once ------------------
    // Persistent workers, circular carry buffers, ready flags — the SAM
    // protocol on host threads. A `ScanPlan` resolves the engine once;
    // every call reuses the process-wide worker pool and its arena.
    let big: Vec<i64> = (0..2_000_000).map(|i| i % 1000 - 500).collect();
    let plan = ScanPlan::new(
        ScanSpec::inclusive(),
        Engine::auto(),
        PlanHint::expected_len(big.len()),
    );
    let session = plan.session::<i64, _>(Sum);
    let start = std::time::Instant::now();
    let scanned = session.scan(&big);
    println!(
        "CPU engine  : {} elements with {} workers in {:.1} ms (last = {})",
        big.len(),
        plan.cpu()
            .expect("adaptive plan owns a CPU engine")
            .workers(),
        start.elapsed().as_secs_f64() * 1e3,
        scanned.last().expect("non-empty")
    );

    // --- 6. The simulated GPU, fully instrumented ------------------------
    // Plans own their device too: every scan through this plan reuses one
    // simulated GPU and accumulates onto its metrics.
    let input: Vec<i32> = (0..1 << 18).map(|i| i % 17 - 8).collect();
    let gpu_plan = ScanPlan::new(
        ScanSpec::inclusive().with_order(3).expect("valid order"),
        Engine::Simulated {
            device: DeviceSpec::titan_x(),
            params: SamParams::default(),
        },
        PlanHint::expected_len(input.len()),
    );
    let out = gpu_plan.scan(&input, &Sum);
    let gpu = gpu_plan.gpu().expect("simulated plan owns a device");
    let counts = gpu.metrics().snapshot();
    println!(
        "GPU kernel  : order-3 scan of {} words on {}",
        out.len(),
        gpu.spec().name,
    );
    println!(
        "              element words moved: {} (communication-optimal 2n = {})",
        counts.elem_words(),
        2 * input.len()
    );
    assert_eq!(counts.elem_words(), 2 * input.len() as u64);

    // Streaming scans — batches, checkpoints, resume — are the subject of
    // `examples/streaming.rs`.
}
