//! Single-pass cascade equivalence: every engine must produce bit-exact
//! results against a hand-rolled iterated q-pass oracle across the full
//! (order × tuple × kind) grid, including wrapping-overflow inputs — the
//! cascade state vectors and binomial carry weights (see `sam_core::carry`)
//! are a pure algebraic reformulation, never a numerical approximation.
//!
//! Also pins the payoff on the simulated GPU: with the single-pass carry
//! scheme, the instrumented global-memory transaction count of an order-q
//! sum scan is *independent of q*.

use gpu_sim::{DeviceSpec, Gpu};
use sam_core::cpu::CpuScanner;
use sam_core::kernel::{scan_on_gpu, SamParams};
use sam_core::op::{LinRec, Sum};
use sam_core::{serial, ScanElement, ScanKind, ScanSpec};

/// The definitional oracle: `q` strided passes, each the scalar textbook
/// recurrence, with no `ChunkKernel` dispatch anywhere — fully independent
/// of the cascade kernels under test.
fn iterated_oracle<T: ScanElement>(input: &[T], spec: &ScanSpec) -> Vec<T> {
    let s = spec.tuple();
    let q = spec.order() as usize;
    let n = input.len();
    let mut data = input.to_vec();
    for iter in 0..q {
        if iter + 1 == q && spec.kind() == ScanKind::Exclusive {
            let src = data.clone();
            let mut out = vec![T::ZERO; n];
            for i in s..n {
                out[i] = out[i - s].add(src[i - s]);
            }
            data = out;
        } else {
            for i in s..n {
                data[i] = data[i - s].add(data[i]);
            }
        }
    }
    data
}

fn check_engines<T: ScanElement>(input: &[T], spec: &ScanSpec, label: &str) {
    let expect = iterated_oracle(input, spec);

    let got_serial = serial::scan(input, &Sum, spec);
    assert_eq!(got_serial, expect, "serial {label}");

    // Chunk size deliberately not a multiple of any grid tuple: exercises
    // the cascade path's lane-aligned rounding.
    let cpu = CpuScanner::new(4).with_chunk_elems(771);
    assert_eq!(cpu.scan(input, &Sum, spec), expect, "cpu {label}");

    let gpu = Gpu::new(DeviceSpec::k40());
    let params = SamParams {
        items_per_thread: 1,
        ..SamParams::default()
    };
    let (got_gpu, _) = scan_on_gpu(&gpu, input, &Sum, spec, &params);
    assert_eq!(got_gpu, expect, "gpu-sim {label}");
}

/// The recurrence oracle: the obvious per-lane serial loop for
/// `x_i = b_i + Σ_j coeffs[j]·x_{i-1-j}` — no companion matrices, no
/// carry plan, just a rotating history per tuple lane. The exclusive
/// kind emits the prediction (the recurrence's contribution without the
/// fresh input), mirroring exclusive-sum semantics.
fn recurrence_oracle<T: ScanElement>(
    input: &[T],
    coeffs: &[T],
    s: usize,
    exclusive: bool,
) -> Vec<T> {
    let k = coeffs.len();
    let mut hist = vec![T::ZERO; k * s];
    input
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let lane = i % s;
            let mut pred = T::ZERO;
            for (j, &c) in coeffs.iter().enumerate() {
                pred = pred.add(hist[j * s + lane].mul(c));
            }
            let y = x.add(pred);
            for j in (1..k).rev() {
                hist[j * s + lane] = hist[(j - 1) * s + lane];
            }
            hist[lane] = y;
            if exclusive {
                pred
            } else {
                y
            }
        })
        .collect()
}

fn check_recurrence_engines<T: ScanElement>(
    input: &[T],
    coeffs: &[T],
    spec: &ScanSpec,
    label: &str,
) {
    let op = LinRec::new(coeffs.to_vec()).expect("exact-ring coefficients");
    let expect = recurrence_oracle(
        input,
        coeffs,
        spec.tuple(),
        spec.kind() == ScanKind::Exclusive,
    );

    let got_serial = serial::scan(input, &op, spec);
    assert_eq!(got_serial, expect, "serial {label}");

    let cpu = CpuScanner::new(4).with_chunk_elems(771);
    assert_eq!(cpu.scan(input, &op, spec), expect, "cpu {label}");
    // Chunks long enough for the multi-chain totals sweep (four chains of
    // at least 512 elements at order 1), with a short last chunk.
    let cpu = CpuScanner::new(3).with_chunk_elems(2_560);
    assert_eq!(
        cpu.scan(input, &op, spec),
        expect,
        "cpu long chunks {label}"
    );

    let gpu = Gpu::new(DeviceSpec::k40());
    let params = SamParams {
        items_per_thread: 1,
        ..SamParams::default()
    };
    let (got_gpu, _) = scan_on_gpu(&gpu, input, &op, spec, &params);
    assert_eq!(got_gpu, expect, "gpu-sim {label}");
}

fn pseudo_random_u64(n: usize, seed: u64) -> impl Iterator<Item = u64> {
    let mut state = seed | 1;
    (0..n).map(move |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    })
}

#[test]
fn grid_matches_iterated_oracle_i64() {
    let input: Vec<i64> = pseudo_random_u64(10_007, 0xfeed)
        .map(|v| ((v >> 20) as i64) - (1 << 42))
        .collect();
    for order in [1u32, 2, 5, 8] {
        for tuple in [1usize, 2, 5, 8] {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let spec = ScanSpec::new(kind, order, tuple).expect("valid spec");
                check_engines(&input, &spec, &format!("q={order} s={tuple} {kind:?}"));
            }
        }
    }
}

/// The recurrence grid: orders 1..=9 (order = coefficient count, the
/// spec's `order()` doubling as the recurrence depth; 9 is past the
/// register kernels) × tuples {1,2,5,8} × both kinds, against the per-lane
/// serial loop on every engine. The coefficient vectors include zeros,
/// negatives, and pure-delay taps so the companion-matrix powers are
/// genuinely non-diagonal.
#[test]
fn recurrence_grid_matches_serial_loop_i64() {
    let input: Vec<i64> = pseudo_random_u64(6_007, 0xabcd)
        .map(|v| ((v >> 40) as i64) - (1 << 23))
        .collect();
    let grid: [(u32, Vec<i64>); 9] = [
        (1, vec![3]),
        (2, vec![1, 1]),
        (3, vec![0, 2, -1]),
        (4, vec![1, -2, 0, 1]),
        (5, vec![2, -1, 0, 3, -2]),
        (6, vec![-1, 0, 2, 1, 0, -1]),
        (7, vec![2, 1, 0, 0, -1, 3, 1]),
        (8, vec![1, 0, -1, 2, 0, 0, 1, -3]),
        (9, vec![1, 0, 0, -2, 1, 0, 3, -1, 1]),
    ];
    for (order, coeffs) in &grid {
        for tuple in [1usize, 2, 5, 8] {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let spec = ScanSpec::new(kind, *order, tuple).expect("valid spec");
                check_recurrence_engines(
                    &input,
                    coeffs,
                    &spec,
                    &format!("rec k={order} s={tuple} {kind:?}"),
                );
            }
        }
    }
}

/// Recurrence outputs grow geometrically, so almost every element of this
/// test wraps many times over — every engine must wrap identically to the
/// serial loop (bit-identity is unconditional; integer meaning holds only
/// inside the exactness envelope, see DESIGN.md §15).
#[test]
fn recurrence_wrapping_matches_serial_loop_u32() {
    let input: Vec<u32> = pseudo_random_u64(4_003, 0x5eed)
        .map(|v| (v as u32) | 0x8000_0000)
        .collect();
    let grid: [(u32, Vec<u32>); 2] = [
        (2, vec![0xdead_beef, 7]),
        (5, vec![3, 0, 0x0100_0001, 0, 11]),
    ];
    for (order, coeffs) in &grid {
        for tuple in [1usize, 3] {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let spec = ScanSpec::new(kind, *order, tuple).expect("valid spec");
                check_recurrence_engines(
                    &input,
                    coeffs,
                    &spec,
                    &format!("rec u32 k={order} s={tuple} {kind:?}"),
                );
            }
        }
    }
}

/// Wrapping overflow for narrow widths: order-8 binomial weights are huge
/// (the carry weights wrap many times over), so inputs near the type bounds
/// overflow constantly — every engine must wrap identically to the
/// pass-by-pass oracle.
#[test]
fn wrapping_overflow_matches_iterated_oracle_u32_i32() {
    let raw: Vec<u64> = pseudo_random_u64(6_011, 0xdead).collect();
    let as_u32: Vec<u32> = raw
        .iter()
        .map(|&v| (v as u32) | 0xc000_0000) // top quarter of the range
        .collect();
    let as_i32: Vec<i32> = raw
        .iter()
        .map(|&v| {
            if v & 1 == 0 {
                i32::MAX - (v % 1000) as i32
            } else {
                i32::MIN + (v % 1000) as i32
            }
        })
        .collect();
    for order in [2u32, 8] {
        for tuple in [1usize, 3] {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let spec = ScanSpec::new(kind, order, tuple).expect("valid spec");
                let label = format!("q={order} s={tuple} {kind:?}");
                check_engines(&as_u32, &spec, &format!("u32 {label}"));
                check_engines(&as_i32, &spec, &format!("i32 {label}"));
            }
        }
    }
}

/// Multi-worker CPU cascade against the oracle at several worker counts,
/// including more workers than chunks and a chunk size smaller than the
/// carry window.
#[test]
fn cpu_cascade_is_worker_count_invariant() {
    let input: Vec<i64> = pseudo_random_u64(20_011, 0xbeef)
        .map(|v| (v >> 30) as i64 - (1 << 33))
        .collect();
    let spec = ScanSpec::new(ScanKind::Inclusive, 8, 2).expect("valid spec");
    let expect = iterated_oracle(&input, &spec);
    for workers in [2usize, 3, 7, 16] {
        let got = CpuScanner::new(workers)
            .with_chunk_elems(640)
            .scan(&input, &Sum, &spec);
        assert_eq!(got, expect, "workers={workers}");
    }
}

/// The headline instrumentation claim: with the single-pass carry scheme,
/// the total global-memory transaction count (element + auxiliary) of an
/// order-q sum scan on the simulated GPU does not depend on q. Flag polls
/// are scheduling-dependent and tracked in a separate counter, so this
/// comparison is deterministic.
/// The recurrence kernel path keeps the communication-optimal element
/// traffic of the decoupled single-pass scheme: every element is read
/// exactly once and written exactly once (elem words == 2n total), even
/// though the operator is a depth-k linear recurrence — the extra work is
/// all in registers and the q×s carry windows, never in element traffic.
#[test]
fn gpu_recurrence_path_keeps_one_read_one_write() {
    let n = 50_000usize;
    let input: Vec<i64> = (0..n as i64).map(|i| i % 19 - 9).collect();
    let coeffs = vec![2i64, -1];
    let op = LinRec::new(coeffs.clone()).expect("exact-ring coefficients");
    let spec = ScanSpec::new(ScanKind::Inclusive, 2, 3).expect("valid spec");
    let params = SamParams {
        items_per_thread: 1,
        ..SamParams::default()
    };
    let gpu = Gpu::new(DeviceSpec::k40());
    let (out, _) = scan_on_gpu(&gpu, &input, &op, &spec, &params);
    assert_eq!(out, recurrence_oracle(&input, &coeffs, 3, false));
    let snap = gpu.metrics().snapshot();
    assert_eq!(snap.elem_read_words, n as u64, "each element read once");
    assert_eq!(snap.elem_write_words, n as u64, "each element written once");
}

#[test]
fn gpu_transactions_are_order_independent() {
    let n = 100_000usize;
    let input: Vec<i64> = (0..n as i64).map(|i| i % 17 - 8).collect();
    let params = SamParams {
        items_per_thread: 1,
        ..SamParams::default()
    };
    let mut baseline: Option<(u64, u64)> = None;
    for order in [1u32, 2, 4, 8] {
        let gpu = Gpu::new(DeviceSpec::k40());
        let spec = ScanSpec::inclusive()
            .with_order(order)
            .expect("valid order");
        let (out, _) = scan_on_gpu(&gpu, &input, &Sum, &spec, &params);
        assert_eq!(out, iterated_oracle(&input, &spec), "order={order}");
        let snap = gpu.metrics().snapshot();
        let elem = snap.elem_read_transactions + snap.elem_write_transactions;
        let aux = snap.aux_read_transactions + snap.aux_write_transactions;
        match baseline {
            None => baseline = Some((elem, aux)),
            Some((e1, a1)) => {
                assert_eq!(elem, e1, "element transactions grew at order {order}");
                assert_eq!(aux, a1, "auxiliary transactions grew at order {order}");
            }
        }
    }
}
