//! Lossy differential coding (ADPCM-style), with a parallel decoder.
//!
//! Speech standards like G.726 (Section 1 of the paper) are *lossy*: the
//! transmitted residual is quantized. The encoder must then predict from
//! the *reconstructed* signal — a serial feedback loop — so encoding stays
//! sequential. The decoder, however, reconstructs by accumulating the
//! dequantized residuals: for a first-order predictor that is exactly a
//! prefix sum, so decoding parallelizes on the scan engine even though
//! encoding cannot. That asymmetry (decode-side parallelism) is precisely
//! the paper's motivation.
//!
//! The quantizer here is a uniform mid-rise quantizer with a fixed step;
//! real ADPCM adapts the step, which would not change the decode-side
//! structure (the step sequence would just be decoded first).

use crate::varint::{put_uvarint, zigzag64};
use sam_core::op::Sum;
use sam_core::ScanSpec;

/// A fixed-step, first-order lossy differential codec for 16-bit-ish PCM
/// held in `i32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossyCodec {
    step: u32,
}

impl LossyCodec {
    /// Creates a codec with the given quantizer step (1 = lossless).
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn new(step: u32) -> Self {
        assert!(step > 0, "quantizer step must be positive");
        LossyCodec { step }
    }

    /// The quantizer step.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Encodes `samples` into quantized residual indices.
    ///
    /// Serial by necessity: each prediction uses the *reconstructed*
    /// previous sample, closing the quantization-error feedback loop so
    /// errors do not accumulate.
    pub fn encode(&self, samples: &[i32]) -> Vec<i32> {
        let step = self.step as i64;
        let mut reconstructed: i64 = 0;
        samples
            .iter()
            .map(|&x| {
                let residual = i64::from(x) - reconstructed;
                // Mid-rise rounding to the nearest step multiple.
                let q = if residual >= 0 {
                    (residual + step / 2) / step
                } else {
                    (residual - step / 2) / step
                };
                reconstructed += q * step;
                q as i32
            })
            .collect()
    }

    /// Decodes quantized residuals back to samples — a dequantization map
    /// followed by one parallel prefix sum.
    pub fn decode(&self, residuals: &[i32]) -> Vec<i32> {
        let step = self.step as i64;
        let deltas: Vec<i64> = residuals.iter().map(|&q| i64::from(q) * step).collect();
        let sums = sam_core::scan(&deltas, &Sum, &ScanSpec::inclusive());
        sums.into_iter().map(|v| v as i32).collect()
    }

    /// Encodes and byte-packs (zigzag varint) in one call, returning the
    /// packed size — handy for rate measurements.
    pub fn compressed_size(&self, samples: &[i32]) -> usize {
        let mut bytes = Vec::new();
        for q in self.encode(samples) {
            put_uvarint(&mut bytes, zigzag64(i64::from(q)));
        }
        bytes.len()
    }

    /// Signal-to-noise ratio (dB) of a round trip through the codec.
    ///
    /// Returns `f64::INFINITY` for an exact reconstruction.
    pub fn snr_db(&self, samples: &[i32]) -> f64 {
        let decoded = self.decode(&self.encode(samples));
        let signal: f64 = samples.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        let noise: f64 = samples
            .iter()
            .zip(&decoded)
            .map(|(&x, &y)| {
                let e = f64::from(x) - f64::from(y);
                e * e
            })
            .sum();
        if noise == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (signal / noise).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| (12_000.0 * (i as f64 * 0.03).sin()) as i32)
            .collect()
    }

    #[test]
    fn step_one_is_lossless() {
        let samples = tone(4000);
        let codec = LossyCodec::new(1);
        assert_eq!(codec.decode(&codec.encode(&samples)), samples);
        assert_eq!(codec.snr_db(&samples), f64::INFINITY);
    }

    #[test]
    fn reconstruction_error_is_bounded_by_half_step() {
        let samples = tone(4000);
        for step in [4u32, 16, 64] {
            let codec = LossyCodec::new(step);
            let decoded = codec.decode(&codec.encode(&samples));
            let max_err = samples
                .iter()
                .zip(&decoded)
                .map(|(&x, &y)| (x - y).abs())
                .max()
                .unwrap();
            // Feedback quantization keeps the error within one step
            // (no drift), unlike open-loop differential coding.
            assert!(max_err <= step as i32, "step {step}: max error {max_err}");
        }
    }

    #[test]
    fn snr_improves_with_finer_steps() {
        let samples = tone(8000);
        let coarse = LossyCodec::new(256).snr_db(&samples);
        let fine = LossyCodec::new(16).snr_db(&samples);
        assert!(
            fine > coarse + 10.0,
            "fine {fine:.1} dB vs coarse {coarse:.1} dB"
        );
    }

    #[test]
    fn rate_distortion_tradeoff() {
        // A fast tone, so per-sample deltas are in the thousands: coarse
        // quantization yields single-byte residuals, fine quantization
        // multi-byte ones.
        let samples: Vec<i32> = (0..8000)
            .map(|i| (12_000.0 * (i as f64 * 0.3).sin()) as i32)
            .collect();
        let small = LossyCodec::new(512).compressed_size(&samples);
        let large = LossyCodec::new(8).compressed_size(&samples);
        assert!(
            small < large,
            "coarser steps give smaller streams: {small} vs {large}"
        );
    }

    #[test]
    fn decode_is_scan_shaped() {
        // Deltas of +step decode to a staircase: prefix-sum semantics.
        let codec = LossyCodec::new(10);
        let out = codec.decode(&[1, 1, 1, -3]);
        assert_eq!(out, vec![10, 20, 30, 0]);
    }

    #[test]
    fn empty_input() {
        let codec = LossyCodec::new(4);
        assert!(codec.encode(&[]).is_empty());
        assert!(codec.decode(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_rejected() {
        LossyCodec::new(0);
    }
}
