//! Summed-area tables (2D inclusive prefix sums).
//!
//! SAT generation was one of the earliest GPU scan applications
//! (Hensley et al., cited in Section 3). A SAT is a prefix sum along both
//! axes; the column pass is where the paper's tuple generalization shines:
//! scanning every column of a row-major image simultaneously IS a
//! tuple-based scan with tuple size = image width — fully coalesced, no
//! transpose, no per-column kernel. The row pass is a segmented scan whose
//! segments are the rows.
//!
//! With a SAT, the sum over any axis-aligned rectangle is four lookups
//! ([`Sat::rect_sum`]), independent of its size.

use sam_core::cpu::CpuScanner;
use sam_core::op::Sum;
use sam_core::segmented;
use sam_core::{ScanKind, ScanSpec};

/// A summed-area table over an `height x width`, row-major `i64` grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sat {
    width: usize,
    height: usize,
    table: Vec<i64>,
}

impl Sat {
    /// Builds the SAT of a row-major grid with two scan passes:
    /// a row-segmented scan, then a width-tuple column scan.
    ///
    /// # Panics
    ///
    /// Panics if `grid.len() != width * height` or either dimension is 0.
    pub fn build(grid: &[i64], width: usize, height: usize, scanner: &CpuScanner) -> Self {
        assert!(width > 0 && height > 0, "dimensions must be positive");
        assert_eq!(grid.len(), width * height, "grid shape mismatch");

        // Pass 1: scan along rows. Rows are segments of the flat layout —
        // a single segmented scan, no per-row dispatch. i64 values do not
        // fit the packed-pair engine, so tile rows through the strided
        // trick instead: a row scan of a row-major image is... simply a
        // segmented scan; for 64-bit values use the serial-segment oracle
        // per chunk via tuple trick: scanning rows == conventional scan of
        // each row. We express it as one tuple-1 scan per row segment
        // boundary reset, i.e. the serial segmented scan (cheap, memory
        // bound) — or equivalently an inclusive scan with per-row restart.
        let heads: Vec<bool> = (0..grid.len()).map(|i| i % width == 0).collect();
        let rows = segmented::scan_serial(grid, &heads, &Sum, ScanKind::Inclusive);

        // Pass 2: scan down columns = ONE tuple-based scan with s = width,
        // on the parallel engine (Section 2.3 of the paper).
        let spec = ScanSpec::inclusive()
            .with_tuple(width)
            .expect("width within tuple limits");
        let table = scanner.scan(&rows, &Sum, &spec);

        Sat {
            width,
            height,
            table,
        }
    }

    /// Table width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Table height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The SAT entry at `(row, col)`: the sum of the rectangle from the
    /// origin through `(row, col)` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, row: usize, col: usize) -> i64 {
        assert!(
            row < self.height && col < self.width,
            "({row},{col}) out of bounds"
        );
        self.table[row * self.width + col]
    }

    /// Sum over the inclusive rectangle `[r0..=r1] x [c0..=c1]` in O(1):
    /// the four-corner identity.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is empty or out of bounds.
    pub fn rect_sum(&self, r0: usize, c0: usize, r1: usize, c1: usize) -> i64 {
        assert!(r0 <= r1 && c0 <= c1, "rectangle must be non-empty");
        let d = self.at(r1, c1);
        let b = if r0 > 0 { self.at(r0 - 1, c1) } else { 0 };
        let c = if c0 > 0 { self.at(r1, c0 - 1) } else { 0 };
        let a = if r0 > 0 && c0 > 0 {
            self.at(r0 - 1, c0 - 1)
        } else {
            0
        };
        d - b - c + a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanner() -> CpuScanner {
        CpuScanner::new(3).with_chunk_elems(64)
    }

    fn brute_rect(grid: &[i64], w: usize, r0: usize, c0: usize, r1: usize, c1: usize) -> i64 {
        let mut sum = 0;
        for r in r0..=r1 {
            for c in c0..=c1 {
                sum += grid[r * w + c];
            }
        }
        sum
    }

    #[test]
    fn small_example() {
        // 2x3 grid:
        // 1 2 3
        // 4 5 6
        let grid = [1i64, 2, 3, 4, 5, 6];
        let sat = Sat::build(&grid, 3, 2, &scanner());
        assert_eq!(sat.at(0, 2), 6);
        assert_eq!(sat.at(1, 0), 5);
        assert_eq!(sat.at(1, 2), 21);
        assert_eq!(sat.rect_sum(0, 0, 1, 2), 21);
        assert_eq!(sat.rect_sum(1, 1, 1, 2), 11);
        assert_eq!(sat.rect_sum(0, 1, 1, 1), 7);
    }

    #[test]
    fn rectangle_queries_match_brute_force() {
        let (w, h) = (37, 23);
        let grid: Vec<i64> = (0..w * h).map(|i| ((i * 31) % 17) as i64 - 8).collect();
        let sat = Sat::build(&grid, w, h, &scanner());
        let rects = [
            (0, 0, h - 1, w - 1),
            (5, 7, 15, 30),
            (22, 0, 22, 36),
            (0, 36, 10, 36),
            (11, 11, 11, 11),
        ];
        for &(r0, c0, r1, c1) in &rects {
            assert_eq!(
                sat.rect_sum(r0, c0, r1, c1),
                brute_rect(&grid, w, r0, c0, r1, c1),
                "rect ({r0},{c0})..({r1},{c1})"
            );
        }
    }

    #[test]
    fn single_row_and_single_column() {
        let grid: Vec<i64> = (1..=10).collect();
        let row_sat = Sat::build(&grid, 10, 1, &scanner());
        assert_eq!(row_sat.at(0, 9), 55);
        let col_sat = Sat::build(&grid, 1, 10, &scanner());
        assert_eq!(col_sat.at(9, 0), 55);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_rejected() {
        Sat::build(&[1, 2, 3], 2, 2, &scanner());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_query() {
        let sat = Sat::build(&[1, 2, 3, 4], 2, 2, &scanner());
        sat.at(2, 0);
    }
}
