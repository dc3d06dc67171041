//! Grayscale image compression with 2D delta predictors.
//!
//! Section 1 names image compression among delta encoding's deployments.
//! For a row-major image the two classic linear predictors map directly
//! onto this crate's generalized specs:
//!
//! * **left** (predict from the previous pixel): order 1, tuple 1;
//! * **up** (predict from the pixel above): order 1, tuple = width — the
//!   tuple-based encoding of the paper, no transpose required.
//!
//! [`ImageCodec::compress`] measures both predictors on the image (via
//! [`crate::model::residual_cost`]) and keeps the cheaper one; the choice
//! rides in the standard self-describing header, so decompression — a
//! conventional or width-tuple prefix sum — needs no side channel.

use crate::coder::{decompress, CodecError, DeltaCodec};
use crate::model::residual_cost;
use sam_core::{ScanSpec, SpecError};

/// A grayscale image with 16-bit-range pixels stored as `i32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<i32>,
}

impl GrayImage {
    /// Wraps row-major pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height` or a dimension is zero.
    pub fn new(width: usize, height: usize, pixels: Vec<i32>) -> Self {
        assert!(width > 0 && height > 0, "dimensions must be positive");
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        GrayImage {
            width,
            height,
            pixels,
        }
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major pixels.
    pub fn pixels(&self) -> &[i32] {
        &self.pixels
    }
}

/// Which predictor a compressed image used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predictor {
    /// Previous pixel in the row (order 1, tuple 1).
    Left,
    /// Pixel above (order 1, tuple = width).
    Up,
}

/// Image compressor choosing between the left and up predictors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageCodec;

impl ImageCodec {
    /// Compresses the image, returning the bytes and the predictor chosen.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the image width exceeds the supported
    /// tuple size.
    pub fn compress(&self, image: &GrayImage) -> Result<(Vec<u8>, Predictor), SpecError> {
        let left = ScanSpec::inclusive(); // order 1, tuple 1
        let up = ScanSpec::inclusive().with_tuple(image.width)?;
        let sample = &image.pixels[..image.pixels.len().min(1 << 14)];
        let predictor = if residual_cost(sample, &up) < residual_cost(sample, &left) {
            Predictor::Up
        } else {
            Predictor::Left
        };
        let codec = match predictor {
            Predictor::Left => DeltaCodec::new(1, 1)?,
            Predictor::Up => DeltaCodec::new(1, image.width)?,
        };
        Ok((codec.compress(&image.pixels), predictor))
    }

    /// Decompresses an image of known dimensions.
    ///
    /// The predictor is recovered from the stream header (a tuple size of
    /// 1 means left, anything else up); decoding runs the corresponding
    /// prefix sum in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for malformed streams or a pixel-count
    /// mismatch (reported as [`CodecError::Truncated`]).
    pub fn decompress(
        &self,
        bytes: &[u8],
        width: usize,
        height: usize,
    ) -> Result<GrayImage, CodecError> {
        let pixels: Vec<i32> = decompress(bytes)?;
        if pixels.len() != width * height {
            return Err(CodecError::Truncated);
        }
        Ok(GrayImage::new(width, height, pixels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vertical gradient: each row is constant, so the left predictor's
    /// residuals are zero almost everywhere.
    fn vertical_gradient(w: usize, h: usize) -> GrayImage {
        let pixels = (0..h)
            .flat_map(|r| std::iter::repeat_n((r * 13) as i32, w))
            .collect();
        GrayImage::new(w, h, pixels)
    }

    /// Steep horizontal gradient: each column is constant, so the up
    /// predictor's residuals are zero after row 0, while left residuals
    /// need two LEB128 bytes each.
    fn horizontal_gradient(w: usize, h: usize) -> GrayImage {
        let pixels = (0..h)
            .flat_map(|_| (0..w).map(|c| (c * 70) as i32))
            .collect();
        GrayImage::new(w, h, pixels)
    }

    #[test]
    fn chooses_up_for_column_coherent_images() {
        let img = horizontal_gradient(128, 64);
        let (bytes, predictor) = ImageCodec.compress(&img).expect("compresses");
        assert_eq!(predictor, Predictor::Up);
        let back = ImageCodec.decompress(&bytes, 128, 64).expect("decodes");
        assert_eq!(back, img);
    }

    #[test]
    fn chooses_left_for_row_coherent_images() {
        let img = vertical_gradient(128, 64);
        let (bytes, predictor) = ImageCodec.compress(&img).expect("compresses");
        assert_eq!(predictor, Predictor::Left);
        assert_eq!(
            ImageCodec.decompress(&bytes, 128, 64).expect("decodes"),
            img
        );
    }

    #[test]
    fn photographic_like_texture_roundtrips() {
        let (w, h) = (96usize, 80usize);
        let pixels: Vec<i32> = (0..w * h)
            .map(|i| {
                let (r, c) = (i / w, i % w);
                (128.0
                    + 60.0 * ((r as f64) * 0.1).sin()
                    + 40.0 * ((c as f64) * 0.15).cos()
                    + ((r * c) % 7) as f64) as i32
            })
            .collect();
        let img = GrayImage::new(w, h, pixels);
        let (bytes, _) = ImageCodec.compress(&img).expect("compresses");
        assert!(bytes.len() < w * h * 4, "smooth image compresses below raw");
        assert_eq!(ImageCodec.decompress(&bytes, w, h).expect("decodes"), img);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let img = vertical_gradient(16, 16);
        let (bytes, _) = ImageCodec.compress(&img).expect("compresses");
        assert!(ImageCodec.decompress(&bytes, 16, 15).is_err());
    }

    #[test]
    #[should_panic(expected = "pixel count mismatch")]
    fn bad_construction_rejected() {
        GrayImage::new(4, 4, vec![0; 15]);
    }
}
