//! Sparse matrix–vector multiplication via segmented scans.
//!
//! The canonical irregular-parallel scan application (Blelloch; the
//! Sengupta et al. line of work in Section 3): with a CSR matrix, the
//! per-row dot products have wildly varying lengths, so a plain
//! parallel-for over rows load-imbalances. The scan formulation is
//! oblivious to row lengths: multiply every stored value by its column's
//! vector entry (flat, embarrassingly parallel), then run ONE segmented
//! inclusive sum whose segments are the rows — the last element of each
//! segment is that row's result.

use sam_core::cpu::CpuScanner;
use sam_core::op::Sum;
use sam_core::segmented;
use sam_core::ScanKind;

/// A compressed-sparse-row matrix with `f32` values (32-bit so the
/// segmented pair packing applies; see [`sam_core::segmented::Element32`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    rows: usize,
    /// Number of columns.
    cols: usize,
    /// Row start offsets into `col_idx`/`values`; length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column index per stored value.
    col_idx: Vec<usize>,
    /// Stored values.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets `(row, col, value)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Self {
        let mut entries: Vec<(usize, usize, f32)> = triplets.into_iter().collect();
        entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for &(r, c, v) in &entries {
            assert!(r < rows && c < cols, "entry ({r},{c}) out of bounds");
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y = A · x` via the segmented-scan formulation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[f32], scanner: &CpuScanner) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "vector length must match columns");
        if self.nnz() == 0 {
            return vec![0.0; self.rows];
        }
        // Flat products (embarrassingly parallel in concept).
        let products: Vec<f32> = self
            .values
            .iter()
            .zip(&self.col_idx)
            .map(|(&v, &c)| v * x[c])
            .collect();
        // Row heads mark segment starts.
        let mut heads = vec![false; self.nnz()];
        for r in 0..self.rows {
            let start = self.row_ptr[r];
            if start < self.nnz() && start != self.row_ptr[r + 1] {
                heads[start] = true;
            }
        }
        heads[0] = true;
        // One segmented inclusive sum over all products.
        let sums = segmented::scan_parallel(&products, &heads, &Sum, ScanKind::Inclusive, scanner);
        // Row result = last element of its segment (empty rows are zero).
        (0..self.rows)
            .map(|r| {
                let (start, end) = (self.row_ptr[r], self.row_ptr[r + 1]);
                if start == end {
                    0.0
                } else {
                    sums[end - 1]
                }
            })
            .collect()
    }

    /// Serial reference SpMV.
    pub fn spmv_serial(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "vector length must match columns");
        (0..self.rows)
            .map(|r| {
                (self.row_ptr[r]..self.row_ptr[r + 1])
                    .map(|i| self.values[i] * x[self.col_idx[i]])
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanner() -> CpuScanner {
        CpuScanner::new(4).with_chunk_elems(64)
    }

    #[test]
    fn small_dense_example() {
        // [1 2]   [5]   [17]
        // [3 4] x [6] = [39]
        let a =
            CsrMatrix::from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        assert_eq!(a.spmv(&[5.0, 6.0], &scanner()), vec![17.0, 39.0]);
    }

    #[test]
    fn matches_serial_on_irregular_matrix() {
        // Pathological row-length skew: one dense row among sparse ones.
        let mut triplets = Vec::new();
        for c in 0..800 {
            triplets.push((3usize, c, (c as f32).sin()));
        }
        for r in 0..100 {
            triplets.push((r, (r * 7) % 800, 1.0 + r as f32));
        }
        let a = CsrMatrix::from_triplets(100, 800, triplets);
        let x: Vec<f32> = (0..800).map(|i| ((i % 13) as f32) - 6.0).collect();
        let parallel = a.spmv(&x, &scanner());
        let serial = a.spmv_serial(&x);
        for (r, (p, s)) in parallel.iter().zip(&serial).enumerate() {
            assert!(
                (p - s).abs() <= 1e-3 * s.abs().max(1.0),
                "row {r}: {p} vs {s}"
            );
        }
    }

    #[test]
    fn empty_rows_are_zero() {
        let a = CsrMatrix::from_triplets(4, 4, [(0, 0, 2.0), (2, 3, 5.0)]);
        let y = a.spmv(&[1.0, 1.0, 1.0, 1.0], &scanner());
        assert_eq!(y, vec![2.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::from_triplets(3, 3, []);
        assert_eq!(a.spmv(&[1.0; 3], &scanner()), vec![0.0; 3]);
        assert_eq!(a.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_triplet_rejected() {
        CsrMatrix::from_triplets(2, 2, [(5, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "vector length")]
    fn bad_vector_rejected() {
        let a = CsrMatrix::from_triplets(2, 2, [(0, 0, 1.0)]);
        a.spmv(&[1.0], &scanner());
    }
}
