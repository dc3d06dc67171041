//! The end-to-end compression pipeline: model + coder.
//!
//! [`DeltaCodec`] combines the delta-encoding data model (order `q`, tuple
//! size `s`) with the zigzag/LEB128 byte coder — the two-component
//! structure Section 1 describes for most data-compression algorithms.
//! Compression differences the data (embarrassingly parallel);
//! decompression byte-decodes the residuals and *prefix-sums* them back,
//! which is where SAM's generalized scans do the heavy lifting.

use crate::encode::encode_iterated;
use crate::varint::{get_uvarint, put_uvarint, unzigzag64, zigzag64, VarintError};
use bytes::Buf;
use sam_core::element::IntElement;
use sam_core::{ScanSpec, SpecError};

/// File magic of the serialized format.
const MAGIC: &[u8; 4] = b"SAMD";
/// Format version.
const VERSION: u8 = 1;

/// A delta-encoding compressor/decompressor with a fixed order and tuple
/// size.
///
/// # Examples
///
/// ```
/// use sam_delta::DeltaCodec;
///
/// // Second-order model: a linear ramp's residuals are all zero, so the
/// // 80 KB of raw i64s shrink to about a byte per value.
/// let codec = DeltaCodec::new(2, 1)?;
/// let values: Vec<i64> = (0..10_000).map(|i| 3 * i + 7).collect();
/// let compressed = codec.compress(&values);
/// assert!(compressed.len() < values.len() + 16);
/// assert_eq!(codec.decompress::<i64>(&compressed)?, values);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaCodec {
    spec: ScanSpec,
}

impl DeltaCodec {
    /// Creates a codec with prediction order `order` and tuple size `tuple`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if either parameter is out of range.
    pub fn new(order: u32, tuple: usize) -> Result<Self, SpecError> {
        Ok(DeltaCodec {
            spec: ScanSpec::inclusive().with_order(order)?.with_tuple(tuple)?,
        })
    }

    /// The scan specification the codec encodes against.
    pub fn spec(&self) -> &ScanSpec {
        &self.spec
    }

    /// Compresses `values` into a self-describing byte stream.
    pub fn compress<T>(&self, values: &[T]) -> Vec<u8>
    where
        T: IntElement + Into<i64>,
    {
        let residuals = encode_iterated(values, &self.spec);
        let mut out = Vec::with_capacity(16 + residuals.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.spec.order() as u8);
        put_uvarint(&mut out, self.spec.tuple() as u64);
        put_uvarint(&mut out, residuals.len() as u64);
        for r in residuals {
            put_uvarint(&mut out, zigzag64(r.into()));
        }
        out
    }

    /// Decompresses a stream produced by [`DeltaCodec::compress`].
    ///
    /// The order and tuple size are read from the stream header; the
    /// codec's own parameters are not consulted, so any codec instance can
    /// decompress any stream. Decoding runs the parallel prefix-sum engine.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed input.
    pub fn decompress<T>(&self, bytes: &[u8]) -> Result<Vec<T>, CodecError>
    where
        T: IntElement,
    {
        decompress(bytes)
    }
}

/// Decompresses a [`DeltaCodec`] stream without needing a codec instance.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
pub fn decompress<T: IntElement>(bytes: &[u8]) -> Result<Vec<T>, CodecError> {
    let (residuals, spec) = parse_residuals(bytes)?;
    Ok(crate::decode::decode(&residuals, &spec))
}

/// Byte-decodes a [`DeltaCodec`] stream into its residuals and spec
/// without running the decoding scan — the parse half of [`decompress`].
///
/// Callers that decode many streams (e.g. [`crate::stream`] frames) parse
/// each body with this and feed the residuals through one reused
/// [`crate::decode::StreamingDecoder`] instead of paying a scan-engine
/// setup per stream.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
pub fn parse_residuals<T: IntElement>(bytes: &[u8]) -> Result<(Vec<T>, ScanSpec), CodecError> {
    let mut buf = bytes;
    if buf.remaining() < 6 {
        return Err(CodecError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let order = u32::from(buf.get_u8());
    let tuple = get_uvarint(&mut buf)? as usize;
    let spec = ScanSpec::inclusive()
        .with_order(order)
        .and_then(|s| s.with_tuple(tuple))
        .map_err(CodecError::Spec)?;
    let count = get_uvarint(&mut buf)? as usize;
    if count > bytes.len().saturating_mul(64) {
        // Each residual needs at least one byte; reject absurd counts
        // before allocating.
        return Err(CodecError::Truncated);
    }
    let mut residuals = Vec::with_capacity(count);
    for _ in 0..count {
        residuals.push(T::from_i64(unzigzag64(get_uvarint(&mut buf)?)));
    }
    if buf.has_remaining() {
        return Err(CodecError::TrailingBytes(buf.remaining()));
    }
    Ok((residuals, spec))
}

/// Error decompressing a delta-coded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Stream does not start with the `SAMD` magic.
    BadMagic([u8; 4]),
    /// Stream version is newer than this library.
    UnsupportedVersion(u8),
    /// Stream ended prematurely.
    Truncated,
    /// Header carried an invalid order/tuple combination.
    Spec(SpecError),
    /// Bytes remained after the last residual.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic(m) => write!(f, "bad magic {m:02x?}, expected \"SAMD\""),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported stream version {v}"),
            CodecError::Truncated => f.write_str("stream ended prematurely"),
            CodecError::Spec(e) => write!(f, "invalid stream header: {e}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last residual"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VarintError> for CodecError {
    fn from(_: VarintError) -> Self {
        CodecError::Truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speech_like(n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| {
                let t = i as f64 / 8000.0;
                let sample = 8000.0 * (2.0 * std::f64::consts::PI * 440.0 * t).sin()
                    + 2000.0 * (2.0 * std::f64::consts::PI * 1330.0 * t).sin();
                sample as i32
            })
            .collect()
    }

    #[test]
    fn roundtrip_various_parameters() {
        let values = speech_like(4096);
        for (q, s) in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 4)] {
            let codec = DeltaCodec::new(q, s).unwrap();
            let bytes = codec.compress(&values);
            let back: Vec<i32> = codec.decompress(&bytes).unwrap();
            assert_eq!(back, values, "q={q} s={s}");
        }
    }

    #[test]
    fn smooth_data_compresses() {
        let values = speech_like(8192); // 32 KiB raw as i32
        let codec = DeltaCodec::new(2, 1).unwrap();
        let bytes = codec.compress(&values);
        assert!(
            bytes.len() * 2 < values.len() * 4,
            "expected >2x compression, got {} -> {}",
            values.len() * 4,
            bytes.len()
        );
    }

    #[test]
    fn higher_order_beats_lower_on_quadratic_data() {
        let values: Vec<i64> = (0..4000).map(|i| i * i / 7 + 3 * i).collect();
        let c1 = DeltaCodec::new(1, 1).unwrap().compress(&values);
        let c3 = DeltaCodec::new(3, 1).unwrap().compress(&values);
        assert!(
            c3.len() < c1.len(),
            "order 3 {} vs order 1 {}",
            c3.len(),
            c1.len()
        );
    }

    #[test]
    fn header_is_self_describing() {
        let values = speech_like(100);
        let bytes = DeltaCodec::new(3, 2).unwrap().compress(&values);
        // Any codec can decompress; parameters come from the header.
        let other = DeltaCodec::new(1, 1).unwrap();
        assert_eq!(other.decompress::<i32>(&bytes).unwrap(), values);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut bytes = DeltaCodec::new(1, 1).unwrap().compress(&[1i32, 2, 3]);
        bytes[0] = b'X';
        assert!(matches!(
            decompress::<i32>(&bytes),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let bytes = DeltaCodec::new(1, 1).unwrap().compress(&[1i32, 2, 3]);
        assert!(matches!(
            decompress::<i32>(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(decompress::<i32>(&[]), Err(CodecError::Truncated)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = DeltaCodec::new(1, 1).unwrap().compress(&[1i32, 2, 3]);
        bytes.push(0);
        assert!(matches!(
            decompress::<i32>(&bytes),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn version_check() {
        let mut bytes = DeltaCodec::new(1, 1).unwrap().compress(&[1i32]);
        bytes[4] = 99;
        assert!(matches!(
            decompress::<i32>(&bytes),
            Err(CodecError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn empty_input_roundtrip() {
        let codec = DeltaCodec::new(2, 3).unwrap();
        let bytes = codec.compress::<i64>(&[]);
        assert_eq!(codec.decompress::<i64>(&bytes).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn error_display_messages() {
        assert!(CodecError::Truncated.to_string().contains("prematurely"));
        assert!(CodecError::UnsupportedVersion(7).to_string().contains('7'));
    }
}
