//! Associative scan operators.
//!
//! Prefix *sums* generalize to prefix *scans* by replacing addition with any
//! binary associative operation (Section 1). [`ScanOp`] captures such an
//! operation together with its identity; the zero-sized standard operators
//! ([`Sum`], [`Prod`], [`Max`], [`Min`], [`Xor`], [`And`], [`Or`]) cover the
//! cases the paper mentions (sums plus "built-in primitives like max and
//! xor").
//!
//! Floating-point addition is only *pseudo-associative*; Section 3.1 notes
//! that SAM still computes a deterministic result for a given device and
//! input because its carry order is fixed, unlike CUB's opportunistic
//! look-back. The simulator preserves that property: carries are always
//! accumulated in chunk order.

use crate::element::{IntElement, ScanElement};

/// A binary associative operation with identity, over elements of type `T`.
///
/// Implementations must satisfy, for all `a`, `b`, `c`:
///
/// * associativity: `combine(combine(a, b), c) == combine(a, combine(b, c))`
/// * identity: `combine(identity(), a) == a == combine(a, identity())`
///
/// (For floating-point `Sum`/`Prod` these hold only approximately; see the
/// module docs.)
pub trait ScanOp<T>: Send + Sync {
    /// The identity element of the operation.
    fn identity(&self) -> T;
    /// Applies the operation.
    fn combine(&self, a: T, b: T) -> T;
}

/// Addition (wrapping for integers). The conventional prefix-sum operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Sum;

impl<T: ScanElement> ScanOp<T> for Sum {
    fn identity(&self) -> T {
        T::ZERO
    }
    fn combine(&self, a: T, b: T) -> T {
        a.add(b)
    }
}

/// Multiplication (wrapping for integers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Prod;

impl<T: ScanElement> ScanOp<T> for Prod {
    fn identity(&self) -> T {
        T::ONE
    }
    fn combine(&self, a: T, b: T) -> T {
        a.mul(b)
    }
}

/// Running maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Max;

impl<T: ScanElement> ScanOp<T> for Max {
    fn identity(&self) -> T {
        T::MIN_VALUE
    }
    fn combine(&self, a: T, b: T) -> T {
        a.max_of(b)
    }
}

/// Running minimum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Min;

impl<T: ScanElement> ScanOp<T> for Min {
    fn identity(&self) -> T {
        T::MAX_VALUE
    }
    fn combine(&self, a: T, b: T) -> T {
        a.min_of(b)
    }
}

/// Bitwise exclusive-or (integers only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Xor;

impl<T: IntElement> ScanOp<T> for Xor {
    fn identity(&self) -> T {
        T::ZERO
    }
    fn combine(&self, a: T, b: T) -> T {
        a.xor(b)
    }
}

/// Bitwise and (integers only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct And;

impl<T: IntElement> ScanOp<T> for And {
    fn identity(&self) -> T {
        // all-ones: x & !0 == x
        T::ZERO.sub(T::ONE)
    }
    fn combine(&self, a: T, b: T) -> T {
        a.and(b)
    }
}

/// Bitwise or (integers only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Or;

impl<T: IntElement> ScanOp<T> for Or {
    fn identity(&self) -> T {
        T::ZERO
    }
    fn combine(&self, a: T, b: T) -> T {
        a.or(b)
    }
}

/// A fixed-coefficient linear recurrence `x_i = b_i + Σ_j coeffs[j] * x_{i-1-j}`
/// over a wrapping-integer element type — EMA/IIR filters, compound-interest
/// rollups, polynomial rolling hashes, Fibonacci-like sequences.
///
/// This is not a plain fold of `combine` over the inputs: the engines run
/// it through the shared cascade/carry machinery
/// ([`crate::carry::CarrySemigroup::Companion`]), with the order-`k` state
/// (the last `k` outputs per lane) carried across chunks by companion-matrix
/// powers. Scans with a `LinRec` operator must use a [`crate::config::ScanSpec`]
/// whose `order` equals `coeffs.len()`; the inclusive kind emits `x_i`, the
/// exclusive kind the prediction `Σ_j coeffs[j] * x_{i-1-j} = x_i - b_i`
/// (which reduces to the exclusive prefix sum for `coeffs == [1]`).
///
/// Construction is gated exactly like the sum cascade: the element type
/// must form an exact wrapping ring ([`ScanElement::EXACT_RING`]), so
/// bit-identity across engines and chunkings holds by construction —
/// floats are rejected up front rather than silently drifting.
///
/// # Examples
///
/// ```
/// use sam_core::op::LinRec;
/// use sam_core::ScanSpec;
///
/// // Leaky accumulator y_i = x_i + 3 * y_{i-1} (wrapping).
/// let op = LinRec::new(vec![3i64]).unwrap();
/// let spec = ScanSpec::inclusive(); // order 1 == coeffs.len()
/// let out = sam_core::scan(&[1i64, 1, 1, 1], &op, &spec);
/// assert_eq!(out, vec![1, 4, 13, 40]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinRec<T> {
    coeffs: Vec<T>,
}

/// Why a [`LinRec`] operator could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinRecError {
    /// No coefficients: an order-0 recurrence is not a recurrence.
    Empty,
    /// More coefficients than [`crate::config::ScanSpec::MAX_ORDER`].
    TooLong {
        /// Coefficients supplied.
        got: usize,
        /// The ceiling ([`crate::config::ScanSpec::MAX_ORDER`]).
        max: usize,
    },
    /// The element type is not an exact wrapping ring
    /// ([`ScanElement::EXACT_RING`] is false — e.g. floats), so the
    /// carry algebra cannot be bit-exact.
    Inexact,
}

impl std::fmt::Display for LinRecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinRecError::Empty => write!(f, "a linear recurrence needs at least one coefficient"),
            LinRecError::TooLong { got, max } => {
                write!(f, "recurrence order {got} exceeds the maximum {max}")
            }
            LinRecError::Inexact => write!(
                f,
                "linear recurrences require an exact wrapping-integer element type"
            ),
        }
    }
}

impl std::error::Error for LinRecError {}

impl<T: ScanElement> LinRec<T> {
    /// Builds the recurrence `x_i = b_i + Σ_j coeffs[j] * x_{i-1-j}`
    /// (`coeffs[0]` multiplies the most recent output).
    ///
    /// # Errors
    ///
    /// Rejects empty or over-long coefficient vectors and element types
    /// that are not exact wrapping rings (see [`LinRecError`]).
    pub fn new(coeffs: Vec<T>) -> Result<Self, LinRecError> {
        if coeffs.is_empty() {
            return Err(LinRecError::Empty);
        }
        let max = crate::config::ScanSpec::MAX_ORDER as usize;
        if coeffs.len() > max {
            return Err(LinRecError::TooLong {
                got: coeffs.len(),
                max,
            });
        }
        if !T::EXACT_RING {
            return Err(LinRecError::Inexact);
        }
        Ok(LinRec { coeffs })
    }

    /// Convenience constructor for the first-order recurrence
    /// `x_i = b_i + a * x_{i-1}`.
    pub fn first_order(a: T) -> Result<Self, LinRecError> {
        LinRec::new(vec![a])
    }

    /// The coefficient vector (`coeffs[0]` multiplies `x_{i-1}`).
    pub fn coeffs(&self) -> &[T] {
        &self.coeffs
    }

    /// The recurrence order `k` — the spec order a scan with this
    /// operator must use.
    pub fn order(&self) -> u32 {
        self.coeffs.len() as u32
    }
}

impl<T: ScanElement> ScanOp<T> for LinRec<T> {
    fn identity(&self) -> T {
        T::ZERO
    }
    // `combine` is the *state-ring addition* the carry algebra folds with
    // (seed assembly, totals zeroing) — it is NOT an associative rewrite
    // of the recurrence itself. `supports_cascade()` is always true for a
    // recurrence, and every engine branches on it alone, so every
    // execution path takes the cascade kernels and no generic iterated
    // path ever folds inputs with it.
    fn combine(&self, a: T, b: T) -> T {
        a.add(b)
    }
}

/// An arbitrary operator built from a closure and an identity value.
///
/// Useful for one-off scans without defining a new type. The caller asserts
/// associativity.
///
/// # Examples
///
/// ```
/// use sam_core::op::{FnOp, ScanOp};
///
/// // Saturating addition on u8.
/// let op = FnOp::new(0u8, |a: u8, b: u8| a.saturating_add(b));
/// assert_eq!(op.combine(200, 100), 255);
/// assert_eq!(op.identity(), 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnOp<T, F> {
    identity: T,
    f: F,
}

impl<T: Copy, F: Fn(T, T) -> T> FnOp<T, F> {
    /// Wraps `f` (assumed associative) with its identity element.
    pub fn new(identity: T, f: F) -> Self {
        FnOp { identity, f }
    }
}

impl<T, F> ScanOp<T> for FnOp<T, F>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    fn identity(&self) -> T {
        self.identity
    }
    fn combine(&self, a: T, b: T) -> T {
        (self.f)(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_identity;

    #[test]
    fn identities_hold() {
        let samples = [-3i32, 0, 1, 7, i32::MAX, i32::MIN];
        check_identity(&Sum, &samples).expect("Sum");
        check_identity(&Prod, &samples).expect("Prod");
        check_identity(&Max, &samples).expect("Max");
        check_identity(&Min, &samples).expect("Min");
        check_identity(&Xor, &samples).expect("Xor");
        check_identity(&And, &samples).expect("And");
        check_identity(&Or, &samples).expect("Or");
    }

    #[test]
    fn and_identity_is_all_ones() {
        assert_eq!(<And as ScanOp<u8>>::identity(&And), 0xffu8);
        assert_eq!(<And as ScanOp<i32>>::identity(&And), -1i32);
    }

    #[test]
    fn sum_wraps() {
        assert_eq!(Sum.combine(i32::MAX, 1), i32::MIN);
    }

    #[test]
    fn max_min_behave() {
        assert_eq!(Max.combine(3i64, -5), 3);
        assert_eq!(Min.combine(3i64, -5), -5);
        assert_eq!(Max.combine(2.5f64, 7.25), 7.25);
    }

    #[test]
    fn float_sum_identity() {
        check_identity::<f64, _>(&Sum, &[1.5, -2.25, 0.0]).expect("float Sum");
    }

    #[test]
    fn fn_op_works_as_scan_op() {
        let op = FnOp::new(i32::MIN, |a: i32, b: i32| a.max(b));
        assert_eq!(op.combine(4, 9), 9);
        assert_eq!(op.identity(), i32::MIN);
    }

    #[test]
    fn linrec_construction_is_gated() {
        assert!(LinRec::<i64>::new(vec![2, 3]).is_ok());
        assert_eq!(LinRec::<i64>::new(vec![]), Err(LinRecError::Empty));
        let max = crate::config::ScanSpec::MAX_ORDER as usize;
        assert_eq!(
            LinRec::<u32>::new(vec![1; max + 1]),
            Err(LinRecError::TooLong { got: max + 1, max })
        );
        // Floats are not an exact ring: rejected at construction, so no
        // engine can ever see an inexact recurrence.
        assert_eq!(LinRec::<f64>::new(vec![0.5]), Err(LinRecError::Inexact));
        assert_eq!(LinRec::<f32>::first_order(1.0), Err(LinRecError::Inexact));
        let op = LinRec::<i64>::first_order(7).unwrap();
        assert_eq!(op.coeffs(), &[7]);
        assert_eq!(op.order(), 1);
    }
}
