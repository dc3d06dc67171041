//! Multicore CPU baseline: the classic three-phase chunked scan.
//!
//! Section 5.1 notes that a Titan X computes large prefix sums several times
//! faster than the theoretical memory bandwidth of contemporary CPU systems
//! allows. This baseline provides the CPU side of that comparison (and a
//! portable fallback for library users): phase 1 scans chunks in parallel,
//! the chunk totals are scanned serially on the coordinating thread, and
//! phase 2 adds each chunk's carry in parallel — touching every element
//! twice, unlike the single-pass SAM engine in [`sam_core::cpu`].

use sam_core::chunkops;
use sam_core::element::ScanElement;
use sam_core::chunk_kernel::ChunkKernel;
use sam_core::{ScanKind, ScanSpec};

/// A three-phase multicore scanner.
#[derive(Debug, Clone)]
pub struct ThreePhaseCpu {
    workers: usize,
}

impl Default for ThreePhaseCpu {
    fn default() -> Self {
        ThreePhaseCpu {
            workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }
}

impl ThreePhaseCpu {
    /// Creates a scanner with `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker count must be positive");
        ThreePhaseCpu { workers }
    }

    /// Scans `input` (order 1 only; any tuple size) according to `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.order() > 1`; iterate the scan for higher orders.
    pub fn scan<T, Op>(&self, input: &[T], op: &Op, spec: &ScanSpec) -> Vec<T>
    where
        T: ScanElement,
        Op: ChunkKernel<T>,
    {
        assert!(spec.is_first_order(), "three-phase baseline is first-order");
        let n = input.len();
        let s = spec.tuple();
        let mut out = input.to_vec();
        if n == 0 {
            return out;
        }
        let chunk = (n.div_ceil(self.workers)).max(s).max(1);
        let num_chunks = chunkops::num_chunks(n, chunk);

        // Phase 1: independent local scans, collecting per-lane totals.
        let mut all_totals: Vec<Vec<T>> = vec![vec![op.identity(); s]; num_chunks];
        std::thread::scope(|scope| {
            for (c, (piece, totals)) in out
                .chunks_mut(chunk)
                .zip(all_totals.iter_mut())
                .enumerate()
            {
                scope.spawn(move || {
                    let base = c * chunk;
                    *totals = chunkops::local_scan_with_totals(piece, base, s, op);
                });
            }
        });

        // Phase 2 (serial): exclusive scan of the totals per lane.
        let mut carries: Vec<Vec<T>> = Vec::with_capacity(num_chunks);
        let mut acc = vec![op.identity(); s];
        for totals in &all_totals {
            carries.push(acc.clone());
            for l in 0..s {
                acc[l] = op.combine(acc[l], totals[l]);
            }
        }

        // Phase 3: add carries (and derive exclusive outputs if requested).
        let kind = spec.kind();
        std::thread::scope(|scope| {
            for (c, (piece, carry)) in out.chunks_mut(chunk).zip(carries.iter()).enumerate() {
                scope.spawn(move || {
                    let base = c * chunk;
                    match kind {
                        ScanKind::Inclusive => op.apply_carry(piece, base, carry),
                        ScanKind::Exclusive => {
                            let exc = chunkops::exclusive_outputs(piece, base, carry, op);
                            piece.copy_from_slice(&exc);
                        }
                    }
                });
            }
        });

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_core::op::Sum;
    use sam_core::serial;

    fn data(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 11 % 37) - 18).collect()
    }

    #[test]
    fn matches_oracle() {
        let input = data(100_003);
        let got = ThreePhaseCpu::new(4).scan(&input, &Sum, &ScanSpec::inclusive());
        assert_eq!(got, serial::prefix_sum(&input));
    }

    #[test]
    fn tuple_scans() {
        let input = data(10_000);
        let spec = ScanSpec::inclusive().with_tuple(7).unwrap();
        let got = ThreePhaseCpu::new(3).scan(&input, &Sum, &spec);
        assert_eq!(got, serial::scan(&input, &Sum, &spec));
    }

    #[test]
    fn exclusive_tuple_scans() {
        let input = data(9_999);
        let spec = ScanSpec::exclusive().with_tuple(4).unwrap();
        let got = ThreePhaseCpu::new(5).scan(&input, &Sum, &spec);
        assert_eq!(got, serial::scan(&input, &Sum, &spec));
    }

    #[test]
    fn single_worker_and_tiny_inputs() {
        for n in [0, 1, 2, 3] {
            let input = data(n);
            let got = ThreePhaseCpu::new(1).scan(&input, &Sum, &ScanSpec::inclusive());
            assert_eq!(got, serial::prefix_sum(&input));
        }
    }

    #[test]
    #[should_panic(expected = "first-order")]
    fn higher_order_rejected() {
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        ThreePhaseCpu::new(2).scan(&[1i32, 2], &Sum, &spec);
    }
}
