//! # sam-baselines — every comparator of the paper's evaluation
//!
//! From-scratch implementations, on the [`gpu_sim`] substrate, of the
//! algorithms behind the libraries the paper compares SAM against
//! (Sections 3.1 and 5):
//!
//! | Baseline | Algorithm | Element traffic |
//! |---|---|---|
//! | [`HierarchicalScan::thrust`] | scan-then-propagate (Thrust) | 4n |
//! | [`HierarchicalScan::cudpp`] | classic three-phase (CUDPP, ≤ 2^25 items) | 4n |
//! | [`HierarchicalScan::mgpu`] | reduce-then-scan (MGPU) | 3n |
//! | [`LookbackScan`] | decoupled look-back (CUB) | 2n |
//! | [`memcpy_roof`] | `cudaMemcpy` ceiling | 2n |
//! | [`ReorderTupleScan`] | reorder / scan / reorder-back tuple scan (Section 2.3's slow approach) | 6n |
//!
//! Higher-order scans for these libraries are obtained the only way they
//! can be: by iterating the whole scan ([`iterate_scan`]), which multiplies
//! the element traffic by the order — the inefficiency SAM avoids.
//! Tuple-based scans for CUB use a tuple-typed element
//! ([`LookbackScan::scan_tuples`]), reproducing the register-pressure and
//! coalescing penalties of Section 5.3.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hierarchical;
pub mod lookback;
pub mod memcpy;
pub mod tuple_reorder;

pub use hierarchical::{FirstPass, HierarchicalScan};
pub use lookback::LookbackScan;
pub use memcpy::memcpy_roof;
pub use tuple_reorder::ReorderTupleScan;

/// Computes an order-`q` scan by iterating a first-order scan `q` times —
/// how every conventional library must implement higher orders, costing
/// `2q·n` (or `4q·n`) global-memory accesses where SAM needs `2n`
/// (Section 2.4).
///
/// # Examples
///
/// ```
/// use sam_baselines::iterate_scan;
/// use sam_core::serial;
///
/// let input = [1i32, 0, 0, 0, 0, -4, 5, 0, 0, 0];
/// let decoded = iterate_scan(&input, 2, |data| serial::prefix_sum(data));
/// assert_eq!(decoded, vec![1, 2, 3, 4, 5, 2, 4, 6, 8, 10]);
/// ```
///
/// # Panics
///
/// Panics if `order` is zero.
pub fn iterate_scan<T: Clone>(
    input: &[T],
    order: u32,
    mut scan: impl FnMut(&[T]) -> Vec<T>,
) -> Vec<T> {
    assert!(order >= 1, "order must be at least 1");
    let mut data = scan(input);
    for _ in 1..order {
        data = scan(&data);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_core::op::Sum;
    use sam_core::{serial, ScanSpec};

    #[test]
    fn iterated_scan_equals_higher_order_oracle() {
        let input: Vec<i64> = (0..1000).map(|i| i % 5 - 2).collect();
        for q in 1..=8u32 {
            let spec = ScanSpec::inclusive().with_order(q).unwrap();
            let expect = serial::scan(&input, &Sum, &spec);
            let got = iterate_scan(&input, q, serial::prefix_sum);
            assert_eq!(got, expect, "order {q}");
        }
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn zero_order_rejected() {
        iterate_scan(&[1i32], 0, |d| d.to_vec());
    }
}
