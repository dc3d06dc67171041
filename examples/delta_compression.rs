//! Delta compression end-to-end: the workload that motivates the paper.
//!
//! ```text
//! cargo run --release --example delta_compression
//! ```
//!
//! Compresses three synthetic datasets with delta codecs of different
//! orders and tuple sizes, reports the compression ratios, and decompresses
//! through the parallel prefix-sum engine — verifying losslessness.
//! Higher orders win on smooth data; tuple-aware models win on interleaved
//! multi-channel data; neither helps on noise (as expected).

use sam_delta::DeltaCodec;

/// A smooth sensor-like ramp with curvature: ideal for order 2-3.
fn smooth(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| i * i / 500 + 3 * i + 1000).collect()
}

/// Interleaved 3-channel telemetry: each lane trends separately.
fn telemetry(frames: usize) -> Vec<i64> {
    let mut state = 1u64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as i64
    };
    (0..frames)
        .flat_map(|f| {
            let t = f as i64;
            [
                20_000 + 7 * t,          // channel 0: linear drift
                -5_000 + t * t / 1000,   // channel 1: slow quadratic
                1_000 + (rng() % 9) - 4, // channel 2: nearly constant + jitter
            ]
        })
        .collect()
}

/// Uncompressible noise: the control.
fn noise(n: usize) -> Vec<i64> {
    let mut state = 0xabcdef123u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 20) as i64 - (1 << 43)
        })
        .collect()
}

fn report(name: &str, data: &[i64], codecs: &[(&str, DeltaCodec)]) {
    let raw_bytes = data.len() * 8;
    println!(
        "\n{name} ({} values, {} KiB raw)",
        data.len(),
        raw_bytes / 1024
    );
    for (label, codec) in codecs {
        let start = std::time::Instant::now();
        let packed = codec.compress(data);
        let t_compress = start.elapsed();
        let start = std::time::Instant::now();
        let restored: Vec<i64> = codec.decompress(&packed).expect("stream is well-formed");
        let t_decompress = start.elapsed();
        assert_eq!(&restored, data, "lossless round-trip");
        println!(
            "  {label:<24} {:>9} bytes  ratio {:>6.2}x  compress {:>6.1} ms  decompress {:>6.1} ms",
            packed.len(),
            raw_bytes as f64 / packed.len() as f64,
            t_compress.as_secs_f64() * 1e3,
            t_decompress.as_secs_f64() * 1e3,
        );
    }
}

fn main() {
    let n = 1 << 20;
    let c = |order, tuple| DeltaCodec::new(order, tuple).expect("valid codec parameters");

    report(
        "smooth sensor ramp",
        &smooth(n),
        &[
            ("order 1", c(1, 1)),
            ("order 2", c(2, 1)),
            ("order 3", c(3, 1)),
        ],
    );

    report(
        "3-channel telemetry",
        &telemetry(n / 3),
        &[
            ("order 1 (mixes lanes)", c(1, 1)),
            ("order 1, 3-tuples", c(1, 3)),
            ("order 2, 3-tuples", c(2, 3)),
        ],
    );

    report(
        "white noise (control)",
        &noise(n / 4),
        &[("order 1", c(1, 1)), ("order 2", c(2, 1))],
    );

    println!("\nAll round-trips verified lossless; decompression ran on the");
    println!("parallel prefix-sum engine (higher-order, tuple-based scans).");
}
