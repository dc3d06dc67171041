//! Image analytics with 2D prefix sums (summed-area tables) and the
//! width-tuple image codec.
//!
//! ```text
//! cargo run --release --example image_analytics
//! ```
//!
//! Builds a synthetic "sensor frame", compresses it with the 2D delta
//! codec (whose up-predictor is a width-sized tuple encoding), then builds
//! a summed-area table — the column pass is one tuple-based prefix sum —
//! and answers box-filter queries in O(1) each.

use sam_apps::Sat;
use sam_core::cpu::CpuScanner;
use sam_delta::image::{GrayImage, ImageCodec};

const W: usize = 320;
const H: usize = 240;

/// A synthetic frame: smooth vignette + two bright blobs + scanline noise.
fn synthesize() -> GrayImage {
    let mut pixels = Vec::with_capacity(W * H);
    for r in 0..H {
        for c in 0..W {
            let (x, y) = (c as f64 / W as f64 - 0.5, r as f64 / H as f64 - 0.5);
            let vignette = 900.0 * (1.0 - (x * x + y * y));
            let blob = |cx: f64, cy: f64, amp: f64| {
                let d2 = (x - cx).powi(2) + (y - cy).powi(2);
                amp * (-d2 * 80.0).exp()
            };
            let noise = ((r * 7 + c * 13) % 5) as f64;
            pixels.push(
                (vignette + blob(-0.2, -0.1, 700.0) + blob(0.25, 0.15, 500.0) + noise) as i32,
            );
        }
    }
    GrayImage::new(W, H, pixels)
}

fn main() {
    let frame = synthesize();
    println!("frame: {}x{} ({} KiB raw)", W, H, W * H * 4 / 1024);

    // --- Compress with the 2D predictor codec -----------------------------
    let (bytes, predictor) = ImageCodec.compress(&frame).expect("compresses");
    println!(
        "compressed with {predictor:?} predictor: {} KiB ({:.2}x)",
        bytes.len() / 1024,
        (W * H * 4) as f64 / bytes.len() as f64
    );
    let restored = ImageCodec.decompress(&bytes, W, H).expect("decodes");
    assert_eq!(restored, frame, "lossless");

    // --- Summed-area table: column pass = width-tuple scan ----------------
    let scanner = CpuScanner::default();
    let start = std::time::Instant::now();
    let wide: Vec<i64> = frame.pixels().iter().map(|&p| i64::from(p)).collect();
    let sat = Sat::build(&wide, W, H, &scanner);
    println!(
        "summed-area table built in {:.1} ms (column pass = one {}-tuple prefix sum)",
        start.elapsed().as_secs_f64() * 1e3,
        W
    );

    // --- O(1) box-filter queries ------------------------------------------
    let mean = |r0: usize, c0: usize, r1: usize, c1: usize| {
        let area = ((r1 - r0 + 1) * (c1 - c0 + 1)) as f64;
        sat.rect_sum(r0, c0, r1, c1) as f64 / area
    };
    println!("\nregion means (each one rectangle-sum, 4 lookups):");
    println!("  whole frame       : {:>8.1}", mean(0, 0, H - 1, W - 1));
    println!("  upper-left blob   : {:>8.1}", mean(70, 70, 120, 130));
    println!("  lower-right blob  : {:>8.1}", mean(140, 220, 190, 280));
    println!("  dark corner       : {:>8.1}", mean(0, 0, 20, 20));

    // Find the brightest 32x32 tile with a sliding-window sweep of
    // rectangle sums (each O(1) thanks to the SAT).
    let start = std::time::Instant::now();
    let mut best = (0usize, 0usize, i64::MIN);
    for r in (0..H - 32).step_by(4) {
        for c in (0..W - 32).step_by(4) {
            let s = sat.rect_sum(r, c, r + 31, c + 31);
            if s > best.2 {
                best = (r, c, s);
            }
        }
    }
    println!(
        "\nbrightest 32x32 tile at (row {}, col {}) — {} window sums in {:.1} ms",
        best.0,
        best.1,
        ((H - 32) / 4) * ((W - 32) / 4),
        start.elapsed().as_secs_f64() * 1e3
    );
}
