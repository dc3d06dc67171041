//! The communication-optimality invariant gate.
//!
//! SAM's headline claim (paper §4) is that a scan moves exactly one global
//! read and one global write per element, *independent of the order `q`
//! and tuple size `s`*. This gate asserts it from the observability layer
//! itself: every traced scan's [`sam_core::ScanReport`] must show
//! `elem_read_words == n`, `elem_write_words == n`, and element
//! transaction counts that do not vary across orders for a fixed
//! `(engine, tuple, n)` — on both the CPU engine and the simulated GPU,
//! over the full {1,2,5,8} × {1,2,5,8} order/tuple grid.

use gpu_sim::DeviceSpec;
use sam_core::cpu::CpuScanner;
use sam_core::op::Sum;
use sam_core::plan::{PlanHint, ScanPlan};
use sam_core::Engine;
use sam_core::{SamParams, ScanReport, ScanSpec};
use std::collections::BTreeMap;

const ORDERS: [u32; 4] = [1, 2, 5, 8];
const TUPLES: [usize; 4] = [1, 2, 5, 8];

fn pseudo_random(n: usize) -> Vec<i64> {
    let mut state = 0x5851f42d4c957f2du64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64) - (1 << 30)
        })
        .collect()
}

fn traced_report(engine: Engine, spec: ScanSpec, input: &[i64]) -> ScanReport {
    let plan = ScanPlan::new(
        spec,
        engine,
        PlanHint::expected_len(input.len()).with_trace(),
    );
    let session = plan.session::<i64, _>(Sum);
    let mut out = vec![0i64; input.len()];
    session.scan_into(input, &mut out);
    session
        .last_report()
        .expect("traced plan produces a report")
}

/// Asserts the 1R + 1W invariant and order-independence over the grid for
/// one engine constructor.
fn gate(engine_name: &str, make_engine: &dyn Fn() -> Engine, n: usize) {
    let input = pseudo_random(n);
    // (tuple) -> (read_tx, write_tx) recorded at the first order; every
    // other order must match exactly.
    let mut tx_by_tuple: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for order in ORDERS {
        for tuple in TUPLES {
            let spec = ScanSpec::inclusive()
                .with_order(order)
                .expect("valid order")
                .with_tuple(tuple)
                .expect("valid tuple");
            let report = traced_report(make_engine(), spec, &input);
            let m = &report.metrics;
            assert_eq!(
                m.elem_read_words, n as u64,
                "{engine_name} q={order} s={tuple}: one read per element"
            );
            assert_eq!(
                m.elem_write_words, n as u64,
                "{engine_name} q={order} s={tuple}: one write per element"
            );
            assert_eq!(m.elem_words(), 2 * n as u64);
            let tx = (m.elem_read_transactions, m.elem_write_transactions);
            assert!(
                tx.0 > 0 && tx.1 > 0,
                "{engine_name}: transactions are counted"
            );
            match tx_by_tuple.get(&tuple) {
                None => {
                    tx_by_tuple.insert(tuple, tx);
                }
                Some(&first) => assert_eq!(
                    tx, first,
                    "{engine_name} s={tuple}: transaction count varies with order \
                     (q={order} vs q={})",
                    ORDERS[0]
                ),
            }
        }
    }
    // Element traffic is tuple-independent too: same words, same
    // transactions for every lane interleaving of the same array.
    let all: Vec<(u64, u64)> = tx_by_tuple.values().copied().collect();
    assert!(
        all.windows(2).all(|w| w[0] == w[1]),
        "{engine_name}: transaction counts vary with tuple: {tx_by_tuple:?}"
    );
}

#[test]
fn cpu_engine_is_communication_optimal_across_the_grid() {
    gate(
        "cpu",
        &|| Engine::Cpu(CpuScanner::new(4).with_chunk_elems(1 << 10)),
        40_000,
    );
}

#[test]
fn simulated_gpu_is_communication_optimal_across_the_grid() {
    gate(
        "gpu-sim",
        &|| Engine::Simulated {
            device: DeviceSpec::k40(),
            params: SamParams {
                items_per_thread: 4,
                ..SamParams::default()
            },
        },
        1 << 15,
    );
}

#[test]
fn serial_engine_is_communication_optimal_across_the_grid() {
    gate("serial", &|| Engine::Serial, 10_000);
}

#[test]
fn traced_cpu_scan_reports_spans_and_waits() {
    // Sanity of the span side of the report: a multi-worker CPU scan
    // records kernel spans for every chunk and its wall time covers them.
    let n = 64 * 1024;
    let input = pseudo_random(n);
    let spec = ScanSpec::inclusive().with_order(2).expect("valid order");
    let engine = Engine::Cpu(CpuScanner::new(4).with_chunk_elems(1 << 12));
    let report = traced_report(engine, spec, &input);
    assert_eq!(report.engine, "cpu");
    assert_eq!(report.n, n);
    assert!(report.phase_us(sam_core::Phase::ChunkScan) <= report.wall_us * 4);
    let scan_spans = report
        .spans
        .iter()
        .filter(|s| s.phase == sam_core::Phase::ChunkScan)
        .count();
    // Cascade path: one publish sweep + one output sweep per chunk would
    // be ChunkScan + CarryApply; at minimum one ChunkScan span per chunk.
    assert!(
        scan_spans >= 16,
        "one kernel span per chunk, got {scan_spans}"
    );
    assert!(report.max_chunks_in_flight() >= 1);
    let json = report.chrome_trace_json();
    assert!(json.contains("chunk-scan"));
}
