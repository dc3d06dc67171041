//! Integration: segmented scans on both engines (including the simulated
//! GPU kernel via the packed-pair trick) and the scan-application pipelines
//! end to end.

use gpu_sim::{DeviceSpec, Gpu};
use sam_core::cpu::CpuScanner;
use sam_core::kernel::{scan_on_gpu, SamParams};
use sam_core::op::{FnOp, Sum};
use sam_core::segmented::{self, Packed32, SegmentedOp};
use sam_core::{ScanKind, ScanSpec};

fn pseudo(n: usize, seed: u64) -> Vec<i32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as i32) - (1 << 22)
        })
        .collect()
}

/// The segmented-scan operator transformation runs unchanged on the
/// persistent-block GPU kernel: SAM scans an associative operation it has
/// never heard of.
#[test]
fn segmented_scan_on_the_gpu_kernel() {
    let n = 60_000;
    let values = pseudo(n, 5);
    let heads: Vec<bool> = (0..n).map(|i| i % 97 == 0).collect();
    let expect = segmented::scan_serial(&values, &heads, &Sum, ScanKind::Inclusive);

    let packed: Vec<Packed32<i32>> = values
        .iter()
        .zip(&heads)
        .map(|(&v, &h)| Packed32::new(h, v))
        .collect();
    let seg_op = SegmentedOp::new(FnOp::new(0i32, |a: i32, b: i32| a.wrapping_add(b)));

    let gpu = Gpu::new(DeviceSpec::k40());
    let (scanned, _info) = scan_on_gpu(
        &gpu,
        &packed,
        &seg_op,
        &ScanSpec::inclusive(),
        &SamParams {
            items_per_thread: 1,
            ..SamParams::default()
        },
    );
    let got: Vec<i32> = scanned.iter().map(Packed32::value).collect();
    assert_eq!(got, expect);
    // Still one read + one write per (packed) element.
    assert_eq!(gpu.metrics().snapshot().elem_words(), 2 * n as u64);
}

#[test]
fn sort_then_rle_pipeline() {
    // Sort a stream with heavy duplication, then RLE it: the run count
    // must equal the number of distinct values.
    let scanner = CpuScanner::new(4).with_chunk_elems(512);
    let mut values: Vec<u32> = pseudo(30_000, 9)
        .iter()
        .map(|&v| (v & 0x3f) as u32)
        .collect();
    sam_apps::radix_sort(&mut values);
    assert!(values.windows(2).all(|w| w[0] <= w[1]));

    let runs = sam_apps::rle::encode(&values, &scanner);
    let distinct: std::collections::BTreeSet<u32> = values.iter().copied().collect();
    assert_eq!(runs.len(), distinct.len());
    assert_eq!(sam_apps::rle::decode(&runs, &scanner), values);
}

#[test]
fn lexer_token_lengths_via_segmented_scan() {
    // Cross-application check: token byte-lengths computed two ways —
    // from the lexer's token list, and by a segmented count scan whose
    // segments are the token boundaries.
    let src = b"alpha = beta_2 * 1024 + gamma ;";
    let scanner = CpuScanner::new(2).with_chunk_elems(8);
    let tokens = sam_apps::tokenize(src, &scanner);

    // Build per-byte segment heads from token starts (non-token bytes are
    // their own one-byte segments).
    let mut heads = vec![true; src.len()];
    for t in &tokens {
        heads[t.start + 1..t.end].fill(false);
    }
    let ones = vec![1i32; src.len()];
    let counts = segmented::scan_parallel(&ones, &heads, &Sum, ScanKind::Inclusive, &scanner);
    for t in &tokens {
        assert_eq!(counts[t.end - 1] as usize, t.end - t.start, "{t:?}");
    }
}

#[test]
fn split_sort_agrees_with_radix_sort() {
    let mut a: Vec<u32> = pseudo(4000, 13)
        .iter()
        .map(|&v| v as u32 & 0xffff)
        .collect();
    let mut b = a.clone();
    sam_apps::split_sort(&mut a);
    sam_apps::radix_sort(&mut b);
    assert_eq!(a, b);
}

#[test]
fn polynomial_evaluation_cross_check() {
    let scanner = CpuScanner::new(2).with_chunk_elems(64);
    let coeffs: Vec<f64> = (0..64).map(|i| ((i * 31) % 11) as f64 - 5.0).collect();
    let x = 0.99;
    let scan = sam_apps::polynomial::eval_scan(&coeffs, x, &scanner);
    let horner = sam_apps::polynomial::eval_horner(&coeffs, x);
    assert!((scan - horner).abs() < 1e-9 * horner.abs().max(1.0));
}
