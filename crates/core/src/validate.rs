//! Operator law checking.
//!
//! Scans are only correct for *associative* operations with a proper
//! identity — and [`crate::op::FnOp`] lets users supply arbitrary
//! closures. This module provides cheap randomized checks for the two laws
//! (plus commutativity, informational only: scans do not require it but
//! some fusions exploit it), so downstream code can validate custom
//! operators in tests before trusting parallel results.
//!
//! Floating-point addition fails exact associativity; use
//! [`check_associativity_approx`] with a tolerance for pseudo-associative
//! operators — and remember the SAM engines are deterministic even then
//! (fixed carry order, Section 3.1 of the paper).

use crate::op::ScanOp;

/// A law violation found by a checker, with the witnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation<T> {
    /// Which law failed.
    pub law: Law,
    /// The operands that witnessed the failure.
    pub witnesses: Vec<T>,
}

/// The algebraic laws the checkers cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Law {
    /// `op(op(a, b), c) != op(a, op(b, c))`
    Associativity,
    /// `op(identity, a) != a` or `op(a, identity) != a`
    Identity,
    /// `op(a, b) != op(b, a)` (informational; not required for scans)
    Commutativity,
}

impl<T: std::fmt::Debug> std::fmt::Display for Violation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} violated by witnesses {:?}",
            self.law, self.witnesses
        )
    }
}

/// Checks `op(op(a,b),c) == op(a,op(b,c))` over all triples of `samples`.
///
/// # Errors
///
/// Returns the first violating triple.
pub fn check_associativity<T, Op>(op: &Op, samples: &[T]) -> Result<(), Violation<T>>
where
    T: Copy + PartialEq,
    Op: ScanOp<T>,
{
    for &a in samples {
        for &b in samples {
            for &c in samples {
                let left = op.combine(op.combine(a, b), c);
                let right = op.combine(a, op.combine(b, c));
                if left != right {
                    return Err(Violation {
                        law: Law::Associativity,
                        witnesses: vec![a, b, c],
                    });
                }
            }
        }
    }
    Ok(())
}

/// Associativity up to a relative tolerance, for pseudo-associative
/// floating-point operators.
///
/// # Errors
///
/// Returns the first triple whose relative discrepancy exceeds `rel_tol`.
pub fn check_associativity_approx<Op>(
    op: &Op,
    samples: &[f64],
    rel_tol: f64,
) -> Result<(), Violation<f64>>
where
    Op: ScanOp<f64>,
{
    for &a in samples {
        for &b in samples {
            for &c in samples {
                let left = op.combine(op.combine(a, b), c);
                let right = op.combine(a, op.combine(b, c));
                let scale = left.abs().max(right.abs()).max(1.0);
                if (left - right).abs() > rel_tol * scale {
                    return Err(Violation {
                        law: Law::Associativity,
                        witnesses: vec![a, b, c],
                    });
                }
            }
        }
    }
    Ok(())
}

/// Checks the identity law over `samples`.
///
/// # Errors
///
/// Returns the first violating sample.
pub fn check_identity<T, Op>(op: &Op, samples: &[T]) -> Result<(), Violation<T>>
where
    T: Copy + PartialEq,
    Op: ScanOp<T>,
{
    let id = op.identity();
    for &a in samples {
        if op.combine(id, a) != a || op.combine(a, id) != a {
            return Err(Violation {
                law: Law::Identity,
                witnesses: vec![a],
            });
        }
    }
    Ok(())
}

/// Checks commutativity over `samples` (informational — scans never need
/// it, which is why SAM handles non-commutative operators like function
/// composition; see `sam_apps::lexer`).
///
/// # Errors
///
/// Returns the first violating pair.
pub fn check_commutativity<T, Op>(op: &Op, samples: &[T]) -> Result<(), Violation<T>>
where
    T: Copy + PartialEq,
    Op: ScanOp<T>,
{
    for &a in samples {
        for &b in samples {
            if op.combine(a, b) != op.combine(b, a) {
                return Err(Violation {
                    law: Law::Commutativity,
                    witnesses: vec![a, b],
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FnOp, Max, Sum, Xor};

    const SAMPLES: [i64; 7] = [0, 1, -1, 7, -13, i64::MAX, i64::MIN];

    #[test]
    fn standard_operators_pass() {
        check_associativity(&Sum, &SAMPLES).expect("sum is associative (wrapping)");
        check_identity(&Sum, &SAMPLES).expect("zero is the identity");
        check_associativity(&Max, &SAMPLES).expect("max is associative");
        check_identity(&Max, &SAMPLES).expect("MIN is the identity");
        check_associativity(&Xor, &SAMPLES).expect("xor is associative");
        check_commutativity(&Sum, &SAMPLES).expect("sum is commutative");
    }

    #[test]
    fn saturating_add_fails_associativity_check_is_wrong_expectation() {
        // Saturating addition IS associative for same-sign saturation but
        // fails with mixed signs: (MAX + 1) + (-1) = MAX - 1, while
        // MAX + (1 + -1) = MAX.
        let op = FnOp::new(0i64, |a: i64, b: i64| a.saturating_add(b));
        let err = check_associativity(&op, &SAMPLES).expect_err("not associative");
        assert_eq!(err.law, Law::Associativity);
        assert_eq!(err.witnesses.len(), 3);
    }

    #[test]
    fn wrong_identity_is_caught() {
        let op = FnOp::new(1i64, |a: i64, b: i64| a.wrapping_add(b)); // identity should be 0
        let err = check_identity(&op, &SAMPLES).expect_err("1 is not the identity");
        assert_eq!(err.law, Law::Identity);
    }

    #[test]
    fn non_commutative_but_associative_operator() {
        // Right projection: associative, usable in scans, not commutative.
        let op = FnOp::new(0i64, |_a: i64, b: i64| b);
        check_associativity(&op, &SAMPLES).expect("projection is associative");
        let err = check_commutativity(&op, &SAMPLES).expect_err("not commutative");
        assert_eq!(err.law, Law::Commutativity);
    }

    #[test]
    fn float_addition_is_pseudo_associative() {
        let samples = [1.0e16, 1.0, -1.0e16, 3.5, -2.25];
        // Exact check fails...
        let mut exact_failed = false;
        'outer: for &a in &samples {
            for &b in &samples {
                for &c in &samples {
                    if (a + b) + c != a + (b + c) {
                        exact_failed = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(exact_failed, "float addition is not exactly associative");
        // ...but the approximate check passes on moderate magnitudes
        // (catastrophic cancellation, as in the samples above, can exceed
        // any relative tolerance — that is the point of the distinction).
        let moderate = [1.5, -2.25, 3.5, 0.1, -7.75, 1000.0];
        check_associativity_approx(&Sum, &moderate, 1e-12).expect("within tolerance");
    }

    #[test]
    fn violation_display() {
        let v = Violation {
            law: Law::Identity,
            witnesses: vec![42i32],
        };
        assert!(v.to_string().contains("Identity"));
        assert!(v.to_string().contains("42"));
    }
}
