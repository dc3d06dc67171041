//! Scan specifications: kind (inclusive/exclusive), order, tuple size.
//!
//! The two generalizations of the paper are orthogonal and compose:
//!
//! * **order** `q` — the scan is iterated `q` times; a `q`-th order prefix
//!   sum inverts `q` rounds of first-order differencing (Section 2.4);
//! * **tuple size** `s` — the sequence is treated as a stream of `s`-tuples
//!   and `s` independent interleaved scans are computed, combining elements
//!   `s` apart (Section 2.3).
//!
//! The conventional prefix sum is `order = 1`, `tuple = 1`.

/// Whether position `i` of the result includes the input value at `i`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ScanKind {
    /// `out[i] = v[0] ⊕ ... ⊕ v[i]`.
    #[default]
    Inclusive,
    /// `out[i] = v[0] ⊕ ... ⊕ v[i-1]`, `out[0] = identity`.
    Exclusive,
}

/// A validated scan specification.
///
/// Construct via [`ScanSpec::new`] or the convenience constructors, then
/// refine with the builder-style `with_*` methods.
///
/// # Examples
///
/// ```
/// use sam_core::{ScanSpec, ScanKind};
///
/// let spec = ScanSpec::inclusive().with_order(3).unwrap().with_tuple(2).unwrap();
/// assert_eq!(spec.order(), 3);
/// assert_eq!(spec.tuple(), 2);
/// assert_eq!(spec.kind(), ScanKind::Inclusive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScanSpec {
    kind: ScanKind,
    order: u32,
    tuple: usize,
}

impl Default for ScanSpec {
    /// The conventional inclusive prefix sum: order 1, tuple size 1.
    fn default() -> Self {
        ScanSpec {
            kind: ScanKind::Inclusive,
            order: 1,
            tuple: 1,
        }
    }
}

impl ScanSpec {
    /// Maximum supported order. Orders beyond this are far outside the
    /// paper's regime (it evaluates up to eight) and would only deepen the
    /// carry pipeline.
    pub const MAX_ORDER: u32 = 64;
    /// Maximum supported tuple size.
    pub const MAX_TUPLE: usize = 4096;

    /// Creates a spec, validating `order >= 1` and `tuple >= 1`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when either parameter is zero or exceeds the
    /// supported maximum.
    pub fn new(kind: ScanKind, order: u32, tuple: usize) -> Result<Self, SpecError> {
        if order == 0 || order > Self::MAX_ORDER {
            return Err(SpecError::Order(order));
        }
        if tuple == 0 || tuple > Self::MAX_TUPLE {
            return Err(SpecError::Tuple(tuple));
        }
        Ok(ScanSpec { kind, order, tuple })
    }

    /// Conventional inclusive scan (order 1, tuple 1).
    pub fn inclusive() -> Self {
        ScanSpec::default()
    }

    /// Conventional exclusive scan (order 1, tuple 1).
    pub fn exclusive() -> Self {
        ScanSpec {
            kind: ScanKind::Exclusive,
            ..ScanSpec::default()
        }
    }

    /// Returns a copy with the given order.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Order`] if `order` is zero or too large.
    pub fn with_order(self, order: u32) -> Result<Self, SpecError> {
        ScanSpec::new(self.kind, order, self.tuple)
    }

    /// Returns a copy with the given tuple size.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Tuple`] if `tuple` is zero or too large.
    pub fn with_tuple(self, tuple: usize) -> Result<Self, SpecError> {
        ScanSpec::new(self.kind, self.order, tuple)
    }

    /// Returns a copy with the given kind.
    pub fn with_kind(self, kind: ScanKind) -> Self {
        ScanSpec { kind, ..self }
    }

    /// The scan kind.
    pub fn kind(&self) -> ScanKind {
        self.kind
    }

    /// The order `q >= 1`.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// The tuple size `s >= 1`.
    pub fn tuple(&self) -> usize {
        self.tuple
    }

    /// True for the conventional case the comparison libraries support
    /// natively (order 1).
    pub fn is_first_order(&self) -> bool {
        self.order == 1
    }

    /// Length of the per-scan lane-sum state, `order * tuple` — the size of
    /// the `q x s` vector the carry algebra folds and
    /// [`crate::plan::CarryState`] checkpoints.
    pub fn lane_state_len(&self) -> usize {
        self.order as usize * self.tuple
    }

    /// A stable, human-readable fingerprint of the spec — the per-spec half
    /// of the [`crate::adapt::TuningStore`] key (the other half names the
    /// host). Kind is deliberately excluded: inclusive and exclusive scans
    /// share geometry (the exclusive form is an in-place rewrite of the
    /// inclusive result), so they share tunings.
    ///
    /// ```
    /// use sam_core::ScanSpec;
    /// let spec = ScanSpec::inclusive().with_order(3).unwrap().with_tuple(2).unwrap();
    /// assert_eq!(spec.fingerprint(), "q3s2");
    /// ```
    pub fn fingerprint(&self) -> String {
        format!("q{}s{}", self.order, self.tuple)
    }
}

/// Error constructing a [`ScanSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// Order was zero or exceeded [`ScanSpec::MAX_ORDER`].
    Order(u32),
    /// Tuple size was zero or exceeded [`ScanSpec::MAX_TUPLE`].
    Tuple(usize),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Order(q) => write!(
                f,
                "scan order must be between 1 and {}, got {q}",
                ScanSpec::MAX_ORDER
            ),
            SpecError::Tuple(s) => write!(
                f,
                "tuple size must be between 1 and {}, got {s}",
                ScanSpec::MAX_TUPLE
            ),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_conventional() {
        let spec = ScanSpec::default();
        assert_eq!(spec.kind(), ScanKind::Inclusive);
        assert_eq!(spec.order(), 1);
        assert_eq!(spec.tuple(), 1);
        assert!(spec.is_first_order());
    }

    #[test]
    fn builders_compose() {
        let spec = ScanSpec::exclusive()
            .with_order(8)
            .unwrap()
            .with_tuple(5)
            .unwrap();
        assert_eq!(spec.kind(), ScanKind::Exclusive);
        assert_eq!(spec.order(), 8);
        assert_eq!(spec.tuple(), 5);
        assert!(!spec.is_first_order());
    }

    #[test]
    fn zero_order_rejected() {
        assert_eq!(
            ScanSpec::inclusive().with_order(0),
            Err(SpecError::Order(0))
        );
    }

    #[test]
    fn zero_tuple_rejected() {
        assert_eq!(
            ScanSpec::inclusive().with_tuple(0),
            Err(SpecError::Tuple(0))
        );
    }

    #[test]
    fn excessive_parameters_rejected() {
        assert!(ScanSpec::inclusive().with_order(65).is_err());
        assert!(ScanSpec::inclusive().with_tuple(4097).is_err());
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let msg = SpecError::Order(0).to_string();
        assert!(msg.starts_with("scan order"));
        let msg = SpecError::Tuple(0).to_string();
        assert!(msg.contains("tuple size"));
    }
}

serde::impl_serialize_unit_enum!(ScanKind {
    Inclusive,
    Exclusive
});
serde::impl_serialize_struct!(ScanSpec { kind, order, tuple });
