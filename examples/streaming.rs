//! Streaming scans: plan once, feed batches, checkpoint, resume.
//!
//! ```text
//! cargo run --release --example streaming
//! ```
//!
//! Real decompression and analytics workloads do not hand the scan engine
//! one monolithic buffer — data arrives in batches. A [`ScanSession`]
//! streams a scan across batches of any size with outputs bit-identical
//! to the one-shot scan, and its carry state ([`CarryState`]) serializes
//! to a few dozen bytes, so a stream can be checkpointed, shipped to
//! another process, and continued exactly where it left off.

use sam_core::op::Sum;
use sam_core::plan::{CarryState, PlanHint, ScanPlan};
use sam_core::{Engine, ScanKind, ScanSpec};

fn main() {
    // An order-2, tuple-2 inclusive sum: two interleaved lanes, each
    // integrated twice — the paper's higher-order, tuple-based scan.
    let spec = ScanSpec::new(ScanKind::Inclusive, 2, 2).expect("valid spec");
    let input: Vec<i64> = (0..100_000).map(|i| i % 97 - 48).collect();

    // Plan once: engine resources, chunk geometry and kernel selection
    // are all resolved here, not per call.
    let plan = ScanPlan::new(spec, Engine::auto(), PlanHint::expected_len(4096));
    let one_shot = plan.scan(&input, &Sum);

    // --- 1. Feed the stream in uneven batches ---------------------------
    let mut session = plan.session::<i64, _>(Sum);
    let mut streamed = Vec::with_capacity(input.len());
    for batch in input.chunks(4096) {
        streamed.extend_from_slice(session.feed(batch));
    }
    assert_eq!(streamed, one_shot, "batched == one-shot, bit for bit");
    println!(
        "streamed {} elements in 4096-element batches; outputs identical to the one-shot scan",
        session.elements_seen()
    );

    // --- 2. Checkpoint mid-stream ---------------------------------------
    // Scan the first 60%, snapshot the carry state, serialize it.
    let split = 60_000;
    let mut first_process = plan.session::<i64, _>(Sum);
    let mut head = Vec::new();
    for batch in input[..split].chunks(7777) {
        head.extend_from_slice(first_process.feed(batch));
    }
    let checkpoint: CarryState = first_process.carry_state();
    let bytes = checkpoint.to_bytes();
    drop(first_process); // the first process exits here
    println!(
        "checkpointed after {} elements: {} bytes ({} lane sums + position + spec echo)",
        checkpoint.elements_seen(),
        bytes.len(),
        checkpoint.lane_sums().len(),
    );

    // --- 3. Resume in a "new process" -----------------------------------
    // Deserialize the checkpoint into a fresh session (in reality: after
    // a restart, on another machine, ...) and finish the stream.
    let restored = CarryState::from_bytes(&bytes).expect("well-formed checkpoint");
    let mut second_process = plan.session::<i64, _>(Sum);
    second_process
        .resume(&restored)
        .expect("checkpoint matches the plan's spec");
    let mut tail = Vec::new();
    for batch in input[split..].chunks(9999) {
        tail.extend_from_slice(second_process.feed(batch));
    }
    head.extend_from_slice(&tail);
    assert_eq!(head, one_shot, "resumed stream == one-shot, bit for bit");
    println!(
        "resumed at element {} and finished: outputs still identical to the one-shot scan",
        restored.elements_seen()
    );

    // --- 4. Mismatched checkpoints are rejected --------------------------
    let other_plan = ScanPlan::new(
        ScanSpec::new(ScanKind::Exclusive, 2, 2).expect("valid spec"),
        Engine::auto(),
        PlanHint::default(),
    );
    let mut wrong = other_plan.session::<i64, _>(Sum);
    let err = wrong.resume(&restored).expect_err("kind differs");
    println!("resume under the wrong spec fails loudly: {err}");
}
