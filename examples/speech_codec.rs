//! A G.726-flavoured speech codec built on SAM prefix sums.
//!
//! ```text
//! cargo run --release --example speech_codec
//! ```
//!
//! Section 1 points at speech compression standards like G.726, which are
//! built on differential (delta) coding: the decoder reconstructs each
//! sample from previously decoded samples — a seemingly serial dependency
//! that prefix sums parallelize. This example implements a small ADPCM-like
//! pipeline:
//!
//! 1. synthesize a "voice" signal (formant-ish tone mix + envelope);
//! 2. delta-encode per channel (stereo = 2-tuples) at order 2;
//! 3. byte-code the residuals (zigzag + LEB128);
//! 4. decode everything back through tuple-based, higher-order prefix sums
//!    on the multi-threaded engine, and verify bit-exactness.

use sam_delta::DeltaCodec;

const SAMPLE_RATE: f64 = 8000.0;

/// Synthesizes `n` frames of a stereo "voice": a gliding fundamental with
/// formant-like overtones, amplitude-modulated into syllable bursts. The
/// right channel is a delayed, attenuated copy (room echo), so the two
/// channels correlate with *themselves* over time more than with each
/// other at one instant — exactly the structure tuple-based encoding
/// exploits.
fn synthesize_stereo(frames: usize) -> Vec<i32> {
    let mut out = Vec::with_capacity(frames * 2);
    let two_pi = 2.0 * std::f64::consts::PI;
    for i in 0..frames {
        let t = i as f64 / SAMPLE_RATE;
        let syllable = (two_pi * 2.5 * t).sin().max(0.0).powi(2);
        let f0 = 140.0 + 30.0 * (two_pi * 0.7 * t).sin();
        let voice = (two_pi * f0 * t).sin()
            + 0.5 * (two_pi * 2.0 * f0 * t).sin()
            + 0.25 * (two_pi * 3.1 * f0 * t).sin();
        let left = (9000.0 * syllable * voice) as i32;
        let j = i.saturating_sub(40); // ~5 ms echo delay
        let t_echo = j as f64 / SAMPLE_RATE;
        let syllable_e = (two_pi * 2.5 * t_echo).sin().max(0.0).powi(2);
        let f0_e = 140.0 + 30.0 * (two_pi * 0.7 * t_echo).sin();
        let voice_e = (two_pi * f0_e * t_echo).sin()
            + 0.5 * (two_pi * 2.0 * f0_e * t_echo).sin()
            + 0.25 * (two_pi * 3.1 * f0_e * t_echo).sin();
        let right = (6300.0 * syllable_e * voice_e) as i32;
        out.push(left);
        out.push(right);
    }
    out
}

fn main() {
    let seconds = 20;
    let frames = (SAMPLE_RATE as usize) * seconds;
    let pcm = synthesize_stereo(frames);
    let raw_bytes = pcm.len() * 4;
    println!(
        "synthesized {seconds} s of stereo speech at {} Hz ({} KiB of 32-bit PCM)",
        SAMPLE_RATE as u32,
        raw_bytes / 1024
    );

    // Compare model choices like a codec designer would.
    println!("\n{:<34}{:>12}{:>9}", "model", "bytes", "ratio");
    let mut best: Option<(String, Vec<u8>)> = None;
    for (label, order, tuple) in [
        ("order 1, interleaved (naive)", 1, 1),
        ("order 1, stereo 2-tuples", 1, 2),
        ("order 2, stereo 2-tuples", 2, 2),
        ("order 3, stereo 2-tuples", 3, 2),
    ] {
        let codec = DeltaCodec::new(order, tuple).expect("valid codec");
        let packed = codec.compress(&pcm);
        println!(
            "{label:<34}{:>12}{:>8.2}x",
            packed.len(),
            raw_bytes as f64 / packed.len() as f64
        );
        if best.as_ref().is_none_or(|(_, b)| packed.len() < b.len()) {
            best = Some((label.to_string(), packed));
        }
    }

    let (best_label, best_bytes) = best.expect("at least one model");
    println!("\nbest model: {best_label}");

    // Decode through the parallel prefix-sum engine and verify.
    let start = std::time::Instant::now();
    let decoded: Vec<i32> = sam_delta::decompress(&best_bytes).expect("well-formed stream");
    let dt = start.elapsed();
    assert_eq!(decoded, pcm, "decoder must be bit-exact");
    let decoded_rate = pcm.len() as f64 / dt.as_secs_f64() / 1e6;
    println!(
        "decoded {} samples in {:.1} ms ({decoded_rate:.1} M samples/s) — bit-exact",
        pcm.len(),
        dt.as_secs_f64() * 1e3
    );
    println!(
        "decoding = byte-decode + order-2, 2-tuple prefix sum (the paper's Section 1 pipeline)"
    );
}
