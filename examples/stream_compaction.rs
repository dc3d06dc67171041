//! Stream compaction with exclusive prefix sums — a classic scan
//! application (Blelloch's list from Section 3, also used in GPU stream
//! processing).
//!
//! ```text
//! cargo run --release --example stream_compaction
//! ```
//!
//! Filters a large event stream down to the "interesting" events without
//! any serial pass: a predicate produces a 0/1 flag vector, an *exclusive*
//! prefix sum of the flags yields each survivor's output slot, and a
//! scatter finishes the job. The scan is the only step with a sequential
//! data dependency, and SAM runs it in parallel.

use sam_core::cpu::CpuScanner;
use sam_core::op::Sum;
use sam_core::ScanSpec;

/// A synthetic sensor event.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    sensor: u16,
    value: i32,
}

fn generate(n: usize) -> Vec<Event> {
    let mut state = 0x1234_5678_9abc_def0u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Event {
                sensor: ((state >> 48) % 64) as u16,
                value: ((state >> 16) % 10_000) as i32 - 5_000,
            }
        })
        .collect()
}

/// Compacts `events` to those satisfying `keep`, using an exclusive scan
/// to compute destination indices.
fn compact(events: &[Event], keep: impl Fn(&Event) -> bool + Sync) -> Vec<Event> {
    // 1. Predicate -> 0/1 flags (embarrassingly parallel).
    let flags: Vec<i64> = events.iter().map(|e| i64::from(keep(e))).collect();

    // 2. Exclusive prefix sum -> output slot per survivor.
    let scanner = CpuScanner::default();
    let slots = scanner.scan(&flags, &Sum, &ScanSpec::exclusive());

    // 3. Scatter survivors to their slots.
    let total = match (slots.last(), flags.last()) {
        (Some(&s), Some(&f)) => (s + f) as usize,
        _ => 0,
    };
    let mut out = vec![
        Event {
            sensor: 0,
            value: 0
        };
        total
    ];
    for (i, e) in events.iter().enumerate() {
        if flags[i] == 1 {
            out[slots[i] as usize] = *e;
        }
    }
    out
}

fn main() {
    let n = 4_000_000;
    let events = generate(n);
    println!("generated {n} events from 64 sensors");

    let start = std::time::Instant::now();
    let alarms = compact(&events, |e| e.value > 4_500);
    let dt = start.elapsed();
    println!(
        "compacted to {} alarm events ({:.2}% kept) in {:.1} ms",
        alarms.len(),
        100.0 * alarms.len() as f64 / n as f64,
        dt.as_secs_f64() * 1e3
    );

    // Verify against the obvious serial filter.
    let expect: Vec<Event> = events.iter().copied().filter(|e| e.value > 4_500).collect();
    assert_eq!(alarms, expect, "scan-based compaction must preserve order");
    println!("verified: order-preserving and identical to a serial filter");

    // Second pass: per-sensor selection, demonstrating reuse of the same
    // machinery with a different predicate.
    let sensor7 = compact(&events, |e| e.sensor == 7);
    println!("sensor 7 produced {} events", sensor7.len());
    assert!(sensor7.iter().all(|e| e.sensor == 7));
}
