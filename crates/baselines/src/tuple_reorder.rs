//! The reordering approach to tuple-based prefix sums (Section 2.3).
//!
//! "Computing a tuple-based prefix sum can be accomplished by first
//! reordering the elements, i.e., grouping them by location within the
//! tuple, then performing multiple smaller prefix sums, and finally
//! undoing the reordering. ... However, since the two reordering steps
//! require extra memory accesses, it is slow."
//!
//! This baseline exists to quantify that sentence: the gather and scatter
//! passes add `4n` element accesses on top of the scan's own traffic
//! (total `6n` with the 2n look-back scan — versus SAM's direct `2n`),
//! and the strided side of each reordering pass is uncoalesced for large
//! tuple sizes.

use crate::lookback::LookbackScan;
use gpu_sim::{AccessClass, GlobalBuffer, Gpu};
use sam_core::element::ScanElement;
use sam_core::op::ScanOp;
use sam_core::{ScanKind, ScanSpec};

/// Tuple-based scan via reorder / scan-per-lane / reorder-back, using the
/// decoupled look-back scanner for the per-lane scans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReorderTupleScan {
    /// The scanner used for each lane's conventional scan.
    pub scanner: LookbackScan,
}

/// Direction of a reordering pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Interleaved (strided) layout -> grouped-by-lane layout.
    Group,
    /// Grouped-by-lane layout -> interleaved layout.
    Ungroup,
}

impl ReorderTupleScan {
    /// Runs the three-stage tuple scan.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    pub fn scan<T, Op>(&self, gpu: &Gpu, input: &[T], op: &Op, kind: ScanKind, s: usize) -> Vec<T>
    where
        T: ScanElement,
        Op: ScanOp<T>,
    {
        assert!(s > 0, "tuple size must be positive");
        let n = input.len();
        if n == 0 {
            return Vec::new();
        }

        // Lane l owns ceil((n - l) / s) elements, laid out contiguously at
        // offset `bounds[l].0` in the grouped layout.
        let lane_bounds: Vec<(usize, usize)> = {
            let mut bounds = Vec::with_capacity(s);
            let mut off = 0;
            for l in 0..s {
                let len = n.saturating_sub(l).div_ceil(s);
                bounds.push((off, len));
                off += len;
            }
            bounds
        };

        // --- Pass 1: gather lanes together (strided reads, linear writes).
        let src = GlobalBuffer::from_vec(input.to_vec());
        let grouped = GlobalBuffer::filled(n, op.identity());
        reorder_pass(gpu, n, s, &lane_bounds, &src, &grouped, Direction::Group);

        // --- Pass 2: one conventional scan per lane -----------------------
        let grouped_host = grouped.to_vec();
        let mut scanned_host = vec![op.identity(); n];
        for &(off, len) in &lane_bounds {
            let lane_scan = self.scanner.scan(
                gpu,
                &grouped_host[off..off + len],
                op,
                &ScanSpec::new(kind, 1, 1).expect("conventional spec is valid"),
            );
            scanned_host[off..off + len].copy_from_slice(&lane_scan);
        }

        // --- Pass 3: undo the reordering (linear reads, strided writes). --
        let scanned = GlobalBuffer::from_vec(scanned_host);
        let out = GlobalBuffer::filled(n, op.identity());
        reorder_pass(gpu, n, s, &lane_bounds, &scanned, &out, Direction::Ungroup);
        out.to_vec()
    }
}

/// One warp-granular reordering pass between the interleaved layout
/// (index `lane + j*s`) and the grouped layout (`lane_off + j`), counting
/// the real coalescing of both sides.
fn reorder_pass<T: ScanElement>(
    gpu: &Gpu,
    n: usize,
    s: usize,
    lane_bounds: &[(usize, usize)],
    src: &GlobalBuffer<T>,
    dst: &GlobalBuffer<T>,
    dir: Direction,
) {
    let threads = gpu.spec().threads_per_block as usize;
    let blocks = n.div_ceil(threads);
    gpu.launch(blocks, threads, |ctx| {
        let m = ctx.metrics();
        let warp = ctx.warp_width();
        let base = ctx.block * threads;
        let mut lane_buf = vec![T::ZERO; warp];
        for wbase in (base..(base + threads).min(n)).step_by(warp) {
            let count = warp.min(n - wbase);
            // Each warp walks the grouped layout linearly; the matching
            // interleaved index is lane + slot*s.
            let grouped_idx: Vec<usize> = (wbase..wbase + count).collect();
            let strided_idx: Vec<usize> = grouped_idx
                .iter()
                .map(|&g| {
                    let (lane, slot) = lane_bounds
                        .iter()
                        .enumerate()
                        .find_map(|(l, &(off, len))| {
                            (g >= off && g < off + len).then(|| (l, g - off))
                        })
                        .expect("grouped index within bounds");
                    lane + slot * s
                })
                .collect();
            let (read_idx, write_idx) = match dir {
                Direction::Group => (&strided_idx, &grouped_idx),
                Direction::Ungroup => (&grouped_idx, &strided_idx),
            };
            src.warp_gather(m, read_idx, &mut lane_buf[..count], AccessClass::Element);
            dst.warp_scatter(m, write_idx, &lane_buf[..count], AccessClass::Element);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use sam_core::op::Sum;
    use sam_core::serial;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::titan_x())
    }

    fn input(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 29 % 41) - 20).collect()
    }

    #[test]
    fn matches_strided_oracle() {
        let gpu = gpu();
        for (n, s) in [(10_000usize, 2usize), (9_999, 3), (20_000, 8), (100, 7)] {
            let data = input(n);
            let got = ReorderTupleScan::default().scan(&gpu, &data, &Sum, ScanKind::Inclusive, s);
            let spec = ScanSpec::inclusive().with_tuple(s).unwrap();
            assert_eq!(got, serial::scan(&data, &Sum, &spec), "n={n} s={s}");
        }
    }

    #[test]
    fn exclusive_matches_oracle() {
        let gpu = gpu();
        let data = input(7_000);
        let got = ReorderTupleScan::default().scan(&gpu, &data, &Sum, ScanKind::Exclusive, 4);
        let spec = ScanSpec::exclusive().with_tuple(4).unwrap();
        assert_eq!(got, serial::scan(&data, &Sum, &spec));
    }

    /// The point of this baseline: reordering costs two extra passes over
    /// the data compared to SAM's direct strided scan.
    #[test]
    fn reordering_moves_at_least_6n_words() {
        let gpu = gpu();
        let n = 1 << 16;
        let data = vec![1i32; n];
        ReorderTupleScan::default().scan(&gpu, &data, &Sum, ScanKind::Inclusive, 4);
        let words = gpu.metrics().snapshot().elem_words();
        assert!(
            words >= 6 * n as u64,
            "gather(2n) + scan(2n) + scatter(2n) minimum, got {words}"
        );
    }

    #[test]
    fn strided_side_is_uncoalesced_for_large_tuples() {
        let n = 1 << 15;
        let data = vec![1i32; n];
        let g2 = gpu();
        ReorderTupleScan::default().scan(&g2, &data, &Sum, ScanKind::Inclusive, 2);
        let t2 = g2.metrics().snapshot().elem_transactions();
        let g16 = gpu();
        ReorderTupleScan::default().scan(&g16, &data, &Sum, ScanKind::Inclusive, 16);
        let t16 = g16.metrics().snapshot().elem_transactions();
        assert!(
            t16 > t2,
            "stride-16 reordering must cost more transactions ({t16} vs {t2})"
        );
    }

    #[test]
    fn empty_input() {
        let gpu = gpu();
        let got =
            ReorderTupleScan::default().scan::<i32, _>(&gpu, &[], &Sum, ScanKind::Inclusive, 3);
        assert!(got.is_empty());
    }
}
