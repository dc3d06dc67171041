//! Difference-sequence decoding — the prefix-sum side.
//!
//! "Delta decoding is tantamount to computing the prefix sum and can,
//! therefore, be computed in parallel" (Section 1); an order-`q`,
//! tuple-`s` encoding decodes with an order-`q`, tuple-`s` prefix sum.
//! This module is a thin veneer over [`sam_core::scan`]: the whole point of
//! the paper is that the generalized scan *is* the decoder.

use sam_core::element::ScanElement;
use sam_core::op::Sum;
use sam_core::plan::{CarryState, CarryStateError, PlanHint, ScanPlan, ScanSession};
use sam_core::Engine;
use sam_core::ScanSpec;

/// Decodes a difference sequence produced with the same `spec`
/// (order/tuple) by [`crate::encode::encode_iterated`] or
/// [`crate::encode::encode_direct`], using the parallel scan engine.
///
/// The spec's kind is ignored; decoding is always the inclusive scan.
///
/// # Examples
///
/// ```
/// use sam_delta::{encode::encode_iterated, decode::decode};
/// use sam_core::ScanSpec;
///
/// let spec = ScanSpec::inclusive().with_order(2).unwrap();
/// let values = [1i32, 2, 3, 4, 5, 2, 4, 6, 8, 10];
/// let residuals = encode_iterated(&values, &spec);
/// assert_eq!(decode(&residuals, &spec), values);
/// ```
pub fn decode<T: ScanElement>(residuals: &[T], spec: &ScanSpec) -> Vec<T> {
    let inclusive = spec.with_kind(sam_core::ScanKind::Inclusive);
    sam_core::scan(residuals, &Sum, &inclusive)
}

/// Decodes with the serial engine — used as the oracle in tests and for
/// tiny buffers.
pub fn decode_serial<T: ScanElement>(residuals: &[T], spec: &ScanSpec) -> Vec<T> {
    let inclusive = spec.with_kind(sam_core::ScanKind::Inclusive);
    sam_core::serial::scan(residuals, &Sum, &inclusive)
}

/// A resumable streaming delta decoder: residual batches in, decoded
/// values out, backed by a [`ScanSession`].
///
/// Where [`decode`] needs the whole residual sequence in memory, a
/// `StreamingDecoder` consumes it in arbitrary batches —
/// [`StreamingDecoder::feed`] returns each batch's decoded values,
/// bit-identical to one-shot [`decode`] over the concatenation. The
/// decoder's position is the serializable [`CarryState`] (the `q x s`
/// lane-sum vector), so decoding can be checkpointed mid-stream with
/// [`StreamingDecoder::checkpoint`] and continued — in another process,
/// after a crash — with [`StreamingDecoder::resume`]. For the integer
/// sums delta decoding uses, a checkpoint is exact at any element.
///
/// # Examples
///
/// ```
/// use sam_delta::{encode::encode_iterated, decode::{decode, StreamingDecoder}};
/// use sam_core::ScanSpec;
///
/// let spec = ScanSpec::inclusive().with_order(2).unwrap();
/// let values: Vec<i64> = (0..1000).map(|i| i * i % 4001).collect();
/// let residuals = encode_iterated(&values, &spec);
///
/// let mut decoder = StreamingDecoder::new(&spec);
/// let mut out = Vec::new();
/// for batch in residuals.chunks(300) {
///     out.extend_from_slice(decoder.feed(batch));
/// }
/// assert_eq!(out, values);
/// ```
#[derive(Debug)]
pub struct StreamingDecoder<T: ScanElement> {
    session: ScanSession<T, Sum>,
}

impl<T: ScanElement> StreamingDecoder<T> {
    /// Creates a decoder for `spec` on the default engine
    /// ([`Engine::auto`]). The spec's kind is ignored; decoding is always
    /// the inclusive scan.
    pub fn new(spec: &ScanSpec) -> Self {
        StreamingDecoder::with_engine(spec, Engine::auto())
    }

    /// Creates a decoder for `spec` executing on `engine`.
    pub fn with_engine(spec: &ScanSpec, engine: Engine) -> Self {
        let inclusive = spec.with_kind(sam_core::ScanKind::Inclusive);
        let plan = ScanPlan::new(inclusive, engine, PlanHint::default());
        StreamingDecoder {
            session: plan.session(Sum),
        }
    }

    /// The (inclusive) spec this decoder scans with.
    pub fn spec(&self) -> &ScanSpec {
        self.session.spec()
    }

    /// Decodes the next batch of residuals; the returned slice is valid
    /// until the next call.
    pub fn feed(&mut self, residuals: &[T]) -> &[T] {
        self.session.feed(residuals)
    }

    /// Snapshots the decoder position as a serializable [`CarryState`].
    pub fn checkpoint(&self) -> CarryState {
        self.session.carry_state()
    }

    /// Restores the decoder from a [`StreamingDecoder::checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`CarryStateError`] if the checkpoint belongs to a
    /// different spec or is malformed.
    pub fn resume(&mut self, checkpoint: &CarryState) -> Result<(), CarryStateError> {
        self.session.resume(checkpoint)
    }

    /// Clears the decoder state: the next [`StreamingDecoder::feed`]
    /// starts a fresh sequence. Buffers are kept, so decoding many
    /// independent frames through one decoder allocates nothing in steady
    /// state.
    pub fn reset(&mut self) {
        self.session.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_direct, encode_iterated};

    fn spec(q: u32, s: usize) -> ScanSpec {
        ScanSpec::inclusive()
            .with_order(q)
            .unwrap()
            .with_tuple(s)
            .unwrap()
    }

    fn waveform(n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.05;
                (1000.0 * (t.sin() + 0.3 * (3.1 * t).cos())) as i64
            })
            .collect()
    }

    #[test]
    fn roundtrip_all_orders_and_tuples() {
        let values = waveform(5000);
        for q in 1..=4 {
            for s in [1usize, 2, 3, 8] {
                let spec = spec(q, s);
                let residuals = encode_iterated(&values, &spec);
                assert_eq!(decode(&residuals, &spec), values, "q={q} s={s}");
                assert_eq!(decode_serial(&residuals, &spec), values, "q={q} s={s}");
            }
        }
    }

    #[test]
    fn roundtrip_direct_encoder() {
        let values = waveform(2000);
        let spec = spec(3, 2);
        let residuals = encode_direct(&values, &spec);
        assert_eq!(decode(&residuals, &spec), values);
    }

    #[test]
    fn roundtrip_with_overflow() {
        let values = vec![i64::MAX, i64::MIN, 0, i64::MAX / 2, -1];
        let spec = spec(2, 1);
        let residuals = encode_iterated(&values, &spec);
        assert_eq!(decode(&residuals, &spec), values);
    }

    #[test]
    fn streaming_decoder_matches_one_shot_decode() {
        let values = waveform(6000);
        for (q, s) in [(1u32, 1usize), (3, 2), (2, 8)] {
            let spec = spec(q, s);
            let residuals = encode_iterated(&values, &spec);
            let mut decoder = StreamingDecoder::new(&spec);
            let mut out = Vec::new();
            for batch in residuals.chunks(777) {
                out.extend_from_slice(decoder.feed(batch));
            }
            assert_eq!(out, values, "q={q} s={s}");
        }
    }

    #[test]
    fn streaming_decoder_checkpoint_resumes_in_a_new_decoder() {
        let values = waveform(3000);
        let spec = spec(2, 3);
        let residuals = encode_iterated(&values, &spec);

        let mut first = StreamingDecoder::new(&spec);
        let mut out = first.feed(&residuals[..1234]).to_vec();
        // Serialize the checkpoint as a second process would receive it.
        let bytes = first.checkpoint().to_bytes();
        drop(first);

        let restored = sam_core::plan::CarryState::from_bytes(&bytes).expect("well-formed");
        let mut second = StreamingDecoder::new(&spec);
        second.resume(&restored).expect("matching spec");
        out.extend_from_slice(second.feed(&residuals[1234..]));
        assert_eq!(out, values);
    }

    #[test]
    fn streaming_decoder_reset_reuses_for_independent_frames() {
        let values = waveform(800);
        let spec = spec(2, 1);
        let residuals = encode_iterated(&values, &spec);
        let mut decoder = StreamingDecoder::new(&spec);
        for _ in 0..3 {
            decoder.reset();
            assert_eq!(decoder.feed(&residuals), &values[..]);
        }
    }

    #[test]
    fn exclusive_spec_kind_is_ignored() {
        let values = waveform(100);
        let inc = spec(2, 2);
        let exc = inc.with_kind(sam_core::ScanKind::Exclusive);
        let residuals = encode_iterated(&values, &inc);
        assert_eq!(decode(&residuals, &exc), values);
    }
}
