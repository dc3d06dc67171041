//! Cross-engine agreement: every scan engine in the workspace — serial
//! oracle, multi-threaded CPU SAM, simulated-GPU SAM (decoupled, chained,
//! ring-buffer aux), CUB-style look-back and the hierarchical baselines —
//! must compute identical results across
//! the full specification space (kind × order × tuple), including
//! non-power-of-two sizes and wrapping arithmetic.

use gpu_sim::{DeviceSpec, Gpu};
use sam_baselines::{iterate_scan, HierarchicalScan, LookbackScan};
use sam_core::chunk_kernel::ChunkKernel;
use sam_core::cpu::CpuScanner;
use sam_core::kernel::{scan_on_gpu, AuxMode, CarryPropagation, SamParams};
use sam_core::op::{Sum, Xor};
use sam_core::{serial, ScanKind, ScanSpec};

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

fn spec(kind: ScanKind, order: u32, tuple: usize) -> ScanSpec {
    ScanSpec::new(kind, order, tuple).expect("valid spec")
}

/// The CPU engine and the simulated GPU kernel against the serial oracle
/// for `op`, over kind × order × tuple.
fn engines_agree_for<Op: ChunkKernel<i64>>(gpu: &Gpu, input: &[i64], op: &Op, name: &str) {
    for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
        for order in [1u32, 2, 3] {
            for tuple in [1usize, 2, 5] {
                let spec = spec(kind, order, tuple);
                let oracle = serial::scan(input, op, &spec);

                let cpu = CpuScanner::new(4)
                    .with_chunk_elems(1500)
                    .scan(input, op, &spec);
                assert_eq!(cpu, oracle, "cpu engine, {name}, {spec:?}");

                let (sim, _) = scan_on_gpu(
                    gpu,
                    input,
                    op,
                    &spec,
                    &SamParams {
                        items_per_thread: 2,
                        ..SamParams::default()
                    },
                );
                assert_eq!(sim, oracle, "gpu kernel, {name}, {spec:?}");
            }
        }
    }
}

/// `Sum` takes the cascade sweeps; `Xor` has no cascade, so every engine
/// runs it through the iterated loops of `serial` and `chunkops`.
#[test]
fn all_engines_agree_on_the_full_spec_matrix() {
    let gpu = Gpu::new(DeviceSpec::k40());
    let input = pseudo_random(40_000, 42);
    engines_agree_for(&gpu, &input, &Sum, "Sum");
    engines_agree_for(&gpu, &input, &Xor, "Xor");
}

/// Chained carries and the ring-buffer aux mode against the serial oracle
/// for `op`, at tuple 3.
fn carry_variants_agree_for<Op: ChunkKernel<i64>>(gpu: &Gpu, input: &[i64], op: &Op, name: &str) {
    let spec = ScanSpec::inclusive().with_tuple(3).expect("valid spec");
    let oracle = serial::scan(input, op, &spec);

    for (carry, aux) in [
        (CarryPropagation::Chained, AuxMode::PerChunk),
        (CarryPropagation::Decoupled, AuxMode::Ring),
        (CarryPropagation::Chained, AuxMode::Ring),
    ] {
        let params = SamParams {
            items_per_thread: 1,
            carry,
            aux,
            ..SamParams::default()
        };
        let (out, info) = scan_on_gpu(gpu, input, op, &spec, &params);
        assert_eq!(out, oracle, "{name} carry={carry:?} aux={aux:?}");
        if aux == AuxMode::Ring {
            assert!(
                info.ring_len < info.chunks as usize,
                "ring test must exercise slot reuse (ring {} chunks {})",
                info.ring_len,
                info.chunks
            );
        }
    }
}

#[test]
fn chained_and_ring_variants_agree_with_decoupled() {
    let gpu = Gpu::new(DeviceSpec::k40());
    let input = pseudo_random(150_000, 7);
    carry_variants_agree_for(&gpu, &input, &Sum, "Sum");
    carry_variants_agree_for(&gpu, &input, &Xor, "Xor");
}

#[test]
fn baselines_agree_via_iteration_on_higher_orders() {
    let gpu = Gpu::new(DeviceSpec::titan_x());
    let input = pseudo_random(30_000, 99);
    let order = 3;
    let spec = ScanSpec::inclusive().with_order(order).expect("valid spec");
    let oracle = serial::scan(&input, &Sum, &spec);

    let lookback = LookbackScan::default();
    let got = iterate_scan(&input, order, |d| {
        lookback.scan(&gpu, d, &Sum, &ScanSpec::inclusive())
    });
    assert_eq!(got, oracle, "iterated lookback");

    for scanner in [
        HierarchicalScan::thrust(),
        HierarchicalScan::cudpp(),
        HierarchicalScan::mgpu(),
    ] {
        let got = iterate_scan(&input, order, |d| {
            scanner
                .scan(&gpu, d, &Sum, &ScanSpec::inclusive())
                .expect("size within limits")
        });
        assert_eq!(got, oracle, "{scanner:?}");
    }
}

#[test]
fn tuple_engines_agree_including_ragged_tails() {
    let gpu = Gpu::new(DeviceSpec::titan_x());
    // 25_000 is divisible by 5 (for CUB tuples) but the chunking is ragged.
    let input = pseudo_random(25_000, 1234);
    let s = 5;
    let spec = ScanSpec::inclusive().with_tuple(s).expect("valid spec");
    let oracle = serial::scan(&input, &Sum, &spec);

    let lookback = LookbackScan {
        items_per_thread: 3,
    }
    .scan_tuples(&gpu, &input, &Sum, ScanKind::Inclusive, s);
    assert_eq!(lookback, oracle);
}

#[test]
fn float_results_are_bitwise_reproducible_per_engine() {
    let input: Vec<f64> = pseudo_random(60_000, 5)
        .iter()
        .map(|&v| v as f64 * 1e-9)
        .collect();
    let spec = ScanSpec::inclusive();
    let scanner = CpuScanner::new(4).with_chunk_elems(2048);
    let a = scanner.scan(&input, &Sum, &spec);
    let b = scanner.scan(&input, &Sum, &spec);
    let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a),
        bits(&b),
        "SAM's fixed carry order is deterministic"
    );
}
