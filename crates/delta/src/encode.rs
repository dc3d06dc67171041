//! Difference-sequence generation (delta encoding).
//!
//! Delta encoding replaces each value with the difference between it and a
//! prediction extrapolated from preceding values (Section 1). Order `q`
//! uses a degree-`q−1` polynomial extrapolation, which is equivalent to
//! applying first-order differencing `q` times; tuple size `s` differences
//! against the value `s` positions back, keeping tuple lanes separate.
//!
//! Encoding is embarrassingly parallel (each output depends only on a
//! window of inputs); it is *decoding* that needs prefix sums. Two
//! encoders are provided and tested equivalent:
//!
//! * [`encode_iterated`] — `q` rounds of first-order differencing;
//! * [`encode_direct`] — the single-step closed form with binomial
//!   coefficients, e.g. order 2: `out[k] = in[k] − 2·in[k−s] + in[k−2s]`.

use sam_core::element::ScanElement;
use sam_core::ScanSpec;

/// Delta-encodes `input` by applying first-order strided differencing
/// `spec.order()` times ("the q-th order difference sequence is identical
/// to the sequence obtained when applying first-order differencing q times
/// in a row", Section 2.4). Missing values before the sequence are taken as
/// zero. Only the order and tuple size of `spec` are used.
pub fn encode_iterated<T: ScanElement>(input: &[T], spec: &ScanSpec) -> Vec<T> {
    let s = spec.tuple();
    let mut data = input.to_vec();
    for _ in 0..spec.order() {
        // Difference from the back so each round reads pre-round values.
        for i in (s..data.len()).rev() {
            data[i] = data[i].sub(data[i - s]);
        }
    }
    data
}

/// Delta-encodes `input` in a single step using the alternating binomial
/// closed form: `out[k] = Σ_j (−1)^j · C(q, j) · in[k − j·s]`.
///
/// # Panics
///
/// Panics if `spec.order() > 63` (binomial coefficients would overflow the
/// internal accumulator; [`ScanSpec`] already caps orders below this).
pub fn encode_direct<T: ScanElement>(input: &[T], spec: &ScanSpec) -> Vec<T> {
    let q = spec.order();
    assert!(q <= 63, "direct encoding supports orders up to 63");
    let s = spec.tuple();
    let coeff = binomial_row(q);
    input
        .iter()
        .enumerate()
        .map(|(k, &v)| {
            let mut acc = v; // j = 0 term: C(q,0) = 1.
            for (j, &c) in coeff.iter().enumerate().skip(1) {
                let Some(idx) = k.checked_sub(j * s) else {
                    break;
                };
                let mut term = T::ZERO;
                for _ in 0..c {
                    term = term.add(input[idx]);
                }
                if j % 2 == 1 {
                    acc = acc.sub(term);
                } else {
                    acc = acc.add(term);
                }
            }
            acc
        })
        .collect()
}

/// Row `q` of Pascal's triangle: `C(q, 0) ..= C(q, q)`.
fn binomial_row(q: u32) -> Vec<u64> {
    let mut row = vec![1u64];
    for _ in 0..q {
        let mut next = vec![1u64];
        for w in row.windows(2) {
            next.push(w[0] + w[1]);
        }
        next.push(1);
        row = next;
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(q: u32, s: usize) -> ScanSpec {
        ScanSpec::inclusive()
            .with_order(q)
            .unwrap()
            .with_tuple(s)
            .unwrap()
    }

    /// The worked example of Section 1.
    #[test]
    fn paper_first_order_example() {
        let input = [1i32, 2, 3, 4, 5, 2, 4, 6, 8, 10];
        let got = encode_iterated(&input, &spec(1, 1));
        assert_eq!(got, vec![1, 1, 1, 1, 1, -3, 2, 2, 2, 2]);
    }

    /// The worked example of Section 2.4 (both encoder forms).
    #[test]
    fn paper_second_order_example() {
        let input = [1i32, 2, 3, 4, 5, 2, 4, 6, 8, 10];
        let expect = vec![1, 0, 0, 0, 0, -4, 5, 0, 0, 0];
        assert_eq!(encode_iterated(&input, &spec(2, 1)), expect);
        assert_eq!(encode_direct(&input, &spec(2, 1)), expect);
    }

    #[test]
    fn direct_equals_iterated_for_many_orders() {
        let input: Vec<i64> = (0..200).map(|i| i * i * 3 - 7 * i + 2).collect();
        for q in 1..=8 {
            for s in [1usize, 2, 3, 5] {
                assert_eq!(
                    encode_direct(&input, &spec(q, s)),
                    encode_iterated(&input, &spec(q, s)),
                    "q={q} s={s}"
                );
            }
        }
    }

    #[test]
    fn polynomial_sequences_compress_to_zeros() {
        // A degree-2 polynomial has zero 3rd-order differences (after the
        // first few positions).
        let input: Vec<i64> = (0..50).map(|i| 2 * i * i + 3 * i + 1).collect();
        let enc = encode_iterated(&input, &spec(3, 1));
        assert!(enc[3..].iter().all(|&d| d == 0), "{enc:?}");
    }

    #[test]
    fn tuple_lanes_do_not_mix() {
        // Lane 0 constant, lane 1 linear: first-order tuple encoding zeroes
        // lane 0 and makes lane 1 constant.
        let input: Vec<i32> = (0..10).flat_map(|i| [7, i * 5]).collect();
        let enc = encode_iterated(&input, &spec(1, 2));
        assert_eq!(&enc[..4], &[7, 0, 0, 5]);
        assert!(enc[2..].iter().step_by(2).all(|&d| d == 0));
        assert!(enc[3..].iter().step_by(2).all(|&d| d == 5));
    }

    #[test]
    fn wrapping_differences_are_total() {
        let input = [i32::MIN, i32::MAX];
        let enc = encode_iterated(&input, &spec(1, 1));
        assert_eq!(enc, vec![i32::MIN, -1]);
    }

    #[test]
    fn binomial_rows() {
        assert_eq!(binomial_row(0), vec![1]);
        assert_eq!(binomial_row(2), vec![1, 2, 1]);
        assert_eq!(binomial_row(5), vec![1, 5, 10, 10, 5, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(encode_iterated::<i32>(&[], &spec(3, 2)).is_empty());
        assert!(encode_direct::<i32>(&[], &spec(3, 2)).is_empty());
    }
}
