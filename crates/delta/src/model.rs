//! Data-model selection for delta compression.
//!
//! Section 1: "the goal of the model is to accurately predict the next
//! value in the input sequence". An order-`q` delta encoder predicts by
//! degree-`q−1` polynomial extrapolation — order 1 is constant
//! extrapolation, order 2 linear, order 3 quadratic. Which order (and
//! tuple size) fits best depends on the data; this module measures
//! candidate models on the actual residuals and picks the cheapest.

use crate::encode::encode_iterated;
use crate::varint::zigzag64;
use sam_core::element::IntElement;
use sam_core::{ScanSpec, SpecError};

/// Prediction for the next value of a sequence by order-`q` extrapolation
/// from its trailing window.
///
/// `predict(history, q)` uses the last `q` values: constant (`q = 1`),
/// linear (`q = 2`), quadratic (`q = 3`), ... — the alternating binomial
/// form `Σ_{j=1..q} (−1)^{j+1} C(q, j) · h[len−j]`.
pub fn predict<T: IntElement>(history: &[T], order: u32) -> T {
    let q = order.min(history.len() as u32);
    let mut coeff: i64 = 1;
    let mut acc = T::ZERO;
    for j in 1..=i64::from(q) {
        // C(q, j) with alternating sign, built incrementally.
        coeff = coeff * (i64::from(q) - j + 1) / j;
        let h = history[history.len() - j as usize];
        let mut term = T::ZERO;
        for _ in 0..coeff.unsigned_abs() {
            term = term.add(h);
        }
        if j % 2 == 1 {
            acc = acc.add(term);
        } else {
            acc = acc.sub(term);
        }
    }
    acc
}

/// Estimated compressed size, in bytes, of the residual stream a model
/// would produce on `sample` — the exact LEB128 cost of the zigzagged
/// residuals, without materializing the byte stream.
pub fn residual_cost<T>(sample: &[T], spec: &ScanSpec) -> u64
where
    T: IntElement + Into<i64>,
{
    encode_iterated(sample, spec)
        .into_iter()
        .map(|r| {
            let z = zigzag64(r.into());
            // ceil(bits / 7) LEB128 bytes, minimum 1.
            u64::from((64 - z.leading_zeros()).max(1).div_ceil(7))
        })
        .sum()
}

/// Result of a model search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelChoice {
    /// Best prediction order.
    pub order: u32,
    /// Best tuple size.
    pub tuple: usize,
    /// Estimated residual bytes on the sample.
    pub cost: u64,
}

impl ModelChoice {
    /// The spec this choice describes.
    pub fn spec(&self) -> ScanSpec {
        ScanSpec::inclusive()
            .with_order(self.order)
            .expect("searched orders are valid")
            .with_tuple(self.tuple)
            .expect("searched tuples are valid")
    }
}

/// Searches orders `1..=max_order` × the given tuple candidates on (a
/// sample of) the data and returns the cheapest model.
///
/// # Errors
///
/// Returns [`SpecError`] if `max_order` is out of range.
///
/// # Examples
///
/// ```
/// use sam_delta::model::choose_model;
///
/// // Steep quadratic data: second-order residuals still need two LEB128
/// // bytes, third-order residuals are single-byte zeros.
/// let data: Vec<i64> = (0..2000).map(|i| 5000 * i * i - 4 * i).collect();
/// let best = choose_model(&data, 4, &[1]).unwrap();
/// assert_eq!(best.order, 3);
/// assert_eq!(best.tuple, 1);
/// ```
pub fn choose_model<T>(
    data: &[T],
    max_order: u32,
    tuple_candidates: &[usize],
) -> Result<ModelChoice, SpecError>
where
    T: IntElement + Into<i64>,
{
    // A few thousand values are plenty to rank models.
    const SAMPLE: usize = 4096;
    let sample = &data[..data.len().min(SAMPLE)];
    let mut best: Option<ModelChoice> = None;
    for order in 1..=max_order {
        for &tuple in tuple_candidates {
            let spec = ScanSpec::inclusive().with_order(order)?.with_tuple(tuple)?;
            let cost = residual_cost(sample, &spec);
            if best.is_none_or(|b| cost < b.cost) {
                best = Some(ModelChoice { order, tuple, cost });
            }
        }
    }
    best.ok_or(SpecError::Order(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictors_extrapolate_polynomials_exactly() {
        // Constant.
        assert_eq!(predict(&[5i64, 5, 5], 1), 5);
        // Linear: 2, 4, 6 -> 8.
        assert_eq!(predict(&[2i64, 4, 6], 2), 8);
        // Quadratic: i^2 for i = 1..=3 -> 16.
        assert_eq!(predict(&[1i64, 4, 9], 3), 16);
        // Cubic: i^3 for i = 1..=4 -> 125.
        assert_eq!(predict(&[1i64, 8, 27, 64], 4), 125);
    }

    #[test]
    fn prediction_residual_matches_encoder() {
        // The encoder's residual at position k IS value - prediction.
        let data: Vec<i64> = (0..50).map(|i| 3 * i * i - 7 * i + 2).collect();
        for q in 1..=4u32 {
            let spec = ScanSpec::inclusive().with_order(q).unwrap();
            let residuals = crate::encode::encode_iterated(&data, &spec);
            for k in (q as usize)..data.len() {
                let pred = predict(&data[..k], q);
                assert_eq!(residuals[k], data[k] - pred, "q={q} k={k}");
            }
        }
    }

    #[test]
    fn residual_cost_prefers_right_order() {
        // Slope large enough that first-order residuals need multiple
        // LEB128 bytes while second-order residuals are single-byte zeros.
        let linear: Vec<i64> = (0..3000).map(|i| 70_000 * i + 3).collect();
        let spec1 = ScanSpec::inclusive().with_order(1).unwrap();
        let spec2 = ScanSpec::inclusive().with_order(2).unwrap();
        assert!(residual_cost(&linear, &spec2) < residual_cost(&linear, &spec1));
    }

    #[test]
    fn chooses_tuple_models_for_interleaved_data() {
        // Two interleaved channels with very different levels.
        let data: Vec<i64> = (0..3000)
            .flat_map(|i| [1_000_000 + i, -1_000_000 - i])
            .collect();
        let best = choose_model(&data, 3, &[1, 2, 3]).unwrap();
        assert_eq!(best.tuple, 2, "chose {best:?}");
    }

    #[test]
    fn noise_prefers_low_orders() {
        let mut state = 77u64;
        let noise: Vec<i64> = (0..4000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 40) as i64) - (1 << 23)
            })
            .collect();
        // Higher orders amplify noise residuals; order 1 should win
        // against order 4 (cost roughly doubles per extra order on noise).
        let best = choose_model(&noise, 4, &[1]).unwrap();
        assert_eq!(best.order, 1);
    }

    #[test]
    fn choice_spec_roundtrips() {
        let c = ModelChoice {
            order: 2,
            tuple: 3,
            cost: 10,
        };
        assert_eq!(c.spec().order(), 2);
        assert_eq!(c.spec().tuple(), 3);
    }
}
