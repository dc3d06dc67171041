//! Polynomial evaluation with prefix products (Blelloch's list, Section 3).
//!
//! `p(x) = Σ aᵢ·xⁱ` needs the power sequence `x⁰, x¹, ..., xⁿ⁻¹`, which is
//! exactly the *exclusive prefix product* of the constant sequence
//! `[x, x, ..., x]` — a scan with the multiplication operator. The terms
//! then reduce with a sum. Both stages are data-parallel; the serial
//! Horner evaluation is the oracle.

use sam_core::cpu::CpuScanner;
use sam_core::op::Prod;
use sam_core::ScanSpec;

/// Evaluates `p(x)` for coefficients `coeffs` (index `i` is the `xⁱ`
/// coefficient) using an exclusive prefix-product scan.
pub fn eval_scan(coeffs: &[f64], x: f64, scanner: &CpuScanner) -> f64 {
    if coeffs.is_empty() {
        return 0.0;
    }
    let xs = vec![x; coeffs.len()];
    let powers = scanner.scan(&xs, &Prod, &ScanSpec::exclusive());
    coeffs.iter().zip(&powers).map(|(a, p)| a * p).sum()
}

/// Serial Horner evaluation (the oracle).
pub fn eval_horner(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &a| acc * x + a)
}

/// Evaluates the polynomial at many points; each point is one scan-based
/// evaluation (points are independent, so this parallelizes both ways).
pub fn eval_many(coeffs: &[f64], xs: &[f64], scanner: &CpuScanner) -> Vec<f64> {
    xs.iter().map(|&x| eval_scan(coeffs, x, scanner)).collect()
}

/// All running powers `x⁰..x^{n-1}` via the exclusive product scan —
/// exposed because power tables are independently useful (e.g. polynomial
/// hashing).
pub fn powers(x: f64, n: usize, scanner: &CpuScanner) -> Vec<f64> {
    scanner.scan(&vec![x; n], &Prod, &ScanSpec::exclusive())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanner() -> CpuScanner {
        CpuScanner::new(3).with_chunk_elems(100)
    }

    #[test]
    fn matches_horner() {
        let coeffs: Vec<f64> = (0..200).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        for x in [-1.5, -1.0, 0.0, 0.5, 1.0, 1.01] {
            let scan = eval_scan(&coeffs, x, &scanner());
            let horner = eval_horner(&coeffs, x);
            let tol = horner.abs().max(1.0) * 1e-9;
            assert!(
                (scan - horner).abs() < tol,
                "x={x}: scan {scan} vs horner {horner}"
            );
        }
    }

    #[test]
    fn powers_table() {
        let p = powers(2.0, 10, &scanner());
        assert_eq!(
            p,
            vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
        );
    }

    #[test]
    fn eval_many_points() {
        let coeffs = [1.0, 0.0, 1.0]; // 1 + x^2
        let ys = eval_many(&coeffs, &[0.0, 1.0, 2.0, 3.0], &scanner());
        assert_eq!(ys, vec![1.0, 2.0, 5.0, 10.0]);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(eval_scan(&[], 3.0, &scanner()), 0.0);
        assert_eq!(eval_scan(&[7.5], 100.0, &scanner()), 7.5);
    }
}
