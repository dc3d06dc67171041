//! Multi-kernel hierarchical scans: the Thrust, CUDPP and MGPU baselines.
//!
//! These are the "conventional three-phase approach" of Section 2.1: break
//! the input into chunks, scan each chunk in a first grid, scan the chunk
//! totals (recursively, for very large inputs), and finally add the
//! resulting carries to every element in a third grid. Because there is no
//! grid-wide barrier, every phase is a separate kernel launch and the
//! intermediate results make a round trip through global memory:
//!
//! * [`FirstPass::ScanAndStore`] — the first grid both scans and stores the
//!   partial results, which the third grid re-reads to add the carries.
//!   Element traffic: **4n** (read + write, twice). This is the strategy of
//!   Thrust's scan-then-propagate and CUDPP's classic three-phase scan.
//! * [`FirstPass::ReduceOnly`] — the first grid only *reduces* each chunk
//!   (read-only) and the final grid re-reads the input, scans with the
//!   carry seeded, and writes once. Element traffic: **3n**. This is
//!   MGPU's reduce-then-scan.

use gpu_sim::{AccessClass, GlobalBuffer, Gpu};
use sam_core::chunkops;
use sam_core::element::ScanElement;
use sam_core::kernel::account_block_scan;
use sam_core::op::ScanOp;
use sam_core::{ScanKind, ScanSpec};

/// First-pass strategy of a hierarchical scan (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirstPass {
    /// Scan chunks and store partial results (4n traffic; Thrust, CUDPP).
    ScanAndStore,
    /// Only reduce chunks in the first pass (3n traffic; MGPU).
    ReduceOnly,
}

/// A configured hierarchical scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchicalScan {
    /// First-pass strategy.
    pub first_pass: FirstPass,
    /// Elements each thread processes per chunk.
    pub items_per_thread: usize,
    /// Largest supported input, in elements (`None` = limited only by
    /// memory). CUDPP 2.2 does not support problem sizes above `2^25`
    /// (Section 5.1), which the harness reproduces via this limit.
    pub max_elements: Option<usize>,
}

impl HierarchicalScan {
    /// Thrust-style scan-then-propagate (4n).
    pub fn thrust() -> Self {
        HierarchicalScan {
            first_pass: FirstPass::ScanAndStore,
            items_per_thread: 8,
            max_elements: None,
        }
    }

    /// CUDPP-style three-phase scan (4n, inputs capped at 2^25 items).
    pub fn cudpp() -> Self {
        HierarchicalScan {
            first_pass: FirstPass::ScanAndStore,
            items_per_thread: 4,
            max_elements: Some(1 << 25),
        }
    }

    /// MGPU-style reduce-then-scan (3n).
    pub fn mgpu() -> Self {
        HierarchicalScan {
            first_pass: FirstPass::ReduceOnly,
            items_per_thread: 8,
            max_elements: None,
        }
    }

    /// Runs the scan on the simulated GPU. Only conventional scans
    /// (order 1; any tuple via reordering is *not* provided here — that is
    /// the point of the paper) are supported.
    ///
    /// Returns `None` when the input exceeds [`HierarchicalScan::max_elements`],
    /// mirroring the library's refusal.
    ///
    /// # Panics
    ///
    /// Panics if `spec` has order or tuple above 1 — these libraries do not
    /// support the generalizations natively.
    pub fn scan<T, Op>(&self, gpu: &Gpu, input: &[T], op: &Op, spec: &ScanSpec) -> Option<Vec<T>>
    where
        T: ScanElement,
        Op: ScanOp<T>,
    {
        assert!(
            spec.is_first_order() && spec.tuple() == 1,
            "hierarchical baselines support only conventional scans"
        );
        if let Some(max) = self.max_elements {
            if input.len() > max {
                return None;
            }
        }
        if input.is_empty() {
            return Some(Vec::new());
        }
        let data = GlobalBuffer::from_vec(input.to_vec());
        let out = GlobalBuffer::filled(input.len(), op.identity());
        self.scan_level(gpu, &data, &out, op, spec.kind());
        Some(out.to_vec())
    }

    /// One level of the hierarchy; recurses on the chunk totals.
    fn scan_level<T, Op>(
        &self,
        gpu: &Gpu,
        data: &GlobalBuffer<T>,
        out: &GlobalBuffer<T>,
        op: &Op,
        kind: ScanKind,
    ) where
        T: ScanElement,
        Op: ScanOp<T>,
    {
        let n = data.len();
        let threads = gpu.spec().threads_per_block as usize;
        let chunk = threads * self.items_per_thread;
        let blocks = chunkops::num_chunks(n, chunk);
        let sums = GlobalBuffer::filled(blocks, op.identity());

        match self.first_pass {
            FirstPass::ScanAndStore => {
                // Phase 1: scan each chunk, store partials and totals.
                gpu.launch(blocks, threads, |ctx| {
                    let m = ctx.metrics();
                    let range = chunkops::chunk_range(ctx.block, chunk, n);
                    let base = range.start;
                    let mut vals = vec![op.identity(); range.len()];
                    data.load_block(m, base, &mut vals, AccessClass::Element);
                    let mut total = [op.identity()];
                    chunkops::scan_chunk(&mut vals, base, 1, &mut total, op);
                    account_block_scan(m, ctx, vals.len(), threads);
                    if kind == ScanKind::Exclusive {
                        chunkops::exclusive_rewrite(&mut vals, base, &[op.identity()], op);
                    }
                    out.store_block(m, base, &vals, AccessClass::Element);
                    sums.store_block(m, ctx.block, &total, AccessClass::Element);
                });

                if blocks > 1 {
                    // Phase 2: exclusive scan of the chunk totals.
                    let carries = GlobalBuffer::filled(blocks, op.identity());
                    self.scan_level(gpu, &sums, &carries, op, ScanKind::Exclusive);

                    // Phase 3: re-read every partial result and add the carry.
                    gpu.launch(blocks, threads, |ctx| {
                        let m = ctx.metrics();
                        let range = chunkops::chunk_range(ctx.block, chunk, n);
                        let base = range.start;
                        let mut vals = vec![op.identity(); range.len()];
                        out.load_block(m, base, &mut vals, AccessClass::Element);
                        let mut carry = [op.identity()];
                        carries.load_block(m, ctx.block, &mut carry, AccessClass::Element);
                        chunkops::apply_carry(&mut vals, 0, &carry, op);
                        m.add_compute(vals.len() as u64);
                        out.store_block(m, base, &vals, AccessClass::Element);
                    });
                }
            }
            FirstPass::ReduceOnly => {
                // Phase 1: read-only reduction of each chunk.
                gpu.launch(blocks, threads, |ctx| {
                    let m = ctx.metrics();
                    let range = chunkops::chunk_range(ctx.block, chunk, n);
                    let mut vals = vec![op.identity(); range.len()];
                    data.load_block(m, range.start, &mut vals, AccessClass::Element);
                    let total = vals
                        .iter()
                        .copied()
                        .reduce(|a, b| op.combine(a, b))
                        .unwrap_or_else(|| op.identity());
                    m.add_compute(vals.len() as u64);
                    sums.store_block(m, ctx.block, &[total], AccessClass::Element);
                });

                // Phase 2: exclusive scan of the reductions.
                let carries = GlobalBuffer::filled(blocks, op.identity());
                if blocks > 1 {
                    self.scan_level(gpu, &sums, &carries, op, ScanKind::Exclusive);
                }

                // Phase 3: re-read the input, scan with the carry seeded,
                // write once.
                gpu.launch(blocks, threads, |ctx| {
                    let m = ctx.metrics();
                    let range = chunkops::chunk_range(ctx.block, chunk, n);
                    let base = range.start;
                    let mut vals = vec![op.identity(); range.len()];
                    data.load_block(m, base, &mut vals, AccessClass::Element);
                    chunkops::scan_chunk(&mut vals, base, 1, &mut [op.identity()], op);
                    account_block_scan(m, ctx, vals.len(), threads);
                    let mut carry = [op.identity()];
                    carries.load_block(m, ctx.block, &mut carry, AccessClass::Element);
                    match kind {
                        ScanKind::Inclusive => {
                            chunkops::apply_carry(&mut vals, 0, &carry, op);
                            m.add_compute(vals.len() as u64);
                        }
                        ScanKind::Exclusive => {
                            chunkops::exclusive_rewrite(&mut vals, base, &carry, op)
                        }
                    }
                    out.store_block(m, base, &vals, AccessClass::Element);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use sam_core::op::{Max, Sum, Xor};
    use sam_core::serial;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::titan_x())
    }

    fn input(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 17 % 29) - 14).collect()
    }

    #[test]
    fn thrust_matches_oracle() {
        let gpu = gpu();
        let data = input(100_000);
        let got = HierarchicalScan::thrust()
            .scan(&gpu, &data, &Sum, &ScanSpec::inclusive())
            .unwrap();
        assert_eq!(got, serial::prefix_sum(&data));
    }

    #[test]
    fn cudpp_matches_oracle_and_enforces_cap() {
        let gpu = gpu();
        let data = input(50_000);
        let got = HierarchicalScan::cudpp()
            .scan(&gpu, &data, &Sum, &ScanSpec::inclusive())
            .unwrap();
        assert_eq!(got, serial::prefix_sum(&data));
        // The 2^25 cap refuses outsized inputs without touching memory.
        let mut cfg = HierarchicalScan::cudpp();
        cfg.max_elements = Some(10);
        assert!(cfg
            .scan(&gpu, &data, &Sum, &ScanSpec::inclusive())
            .is_none());
    }

    #[test]
    fn mgpu_matches_oracle() {
        let gpu = gpu();
        let data = input(123_457);
        let got = HierarchicalScan::mgpu()
            .scan(&gpu, &data, &Sum, &ScanSpec::inclusive())
            .unwrap();
        assert_eq!(got, serial::prefix_sum(&data));
    }

    #[test]
    fn exclusive_scans_match_oracle() {
        let gpu = gpu();
        let data = input(70_001);
        for cfg in [HierarchicalScan::thrust(), HierarchicalScan::mgpu()] {
            let spec = ScanSpec::exclusive();
            let got = cfg.scan(&gpu, &data, &Sum, &spec).unwrap();
            assert_eq!(got, serial::scan(&data, &Sum, &spec), "{cfg:?} Sum");
            let got = cfg.scan(&gpu, &data, &Xor, &spec).unwrap();
            assert_eq!(got, serial::scan(&data, &Xor, &spec), "{cfg:?} Xor");
        }
    }

    #[test]
    fn traffic_is_4n_for_scan_and_store() {
        let gpu = gpu();
        let n = 1 << 18;
        let data = vec![1i32; n];
        HierarchicalScan::thrust()
            .scan(&gpu, &data, &Sum, &ScanSpec::inclusive())
            .unwrap();
        let words = gpu.metrics().snapshot().elem_words();
        // 4n plus the lower-level sums traffic (a small fraction).
        assert!(words >= 4 * n as u64, "got {words}");
        assert!(words < 4 * n as u64 + n as u64 / 100, "got {words}");
    }

    #[test]
    fn traffic_is_3n_for_reduce_then_scan() {
        let gpu = gpu();
        let n = 1 << 18;
        let data = vec![1i32; n];
        HierarchicalScan::mgpu()
            .scan(&gpu, &data, &Sum, &ScanSpec::inclusive())
            .unwrap();
        let words = gpu.metrics().snapshot().elem_words();
        assert!(words >= 3 * n as u64, "got {words}");
        assert!(words < 3 * n as u64 + n as u64 / 100, "got {words}");
    }

    #[test]
    fn multi_level_recursion_for_large_inputs() {
        let gpu = gpu();
        // Force at least three levels: chunk=1024*1 and n > 1024^2.
        let cfg = HierarchicalScan {
            first_pass: FirstPass::ScanAndStore,
            items_per_thread: 1,
            max_elements: None,
        };
        let n = 1_100_000;
        let data = input(n);
        let got = cfg.scan(&gpu, &data, &Sum, &ScanSpec::inclusive()).unwrap();
        assert_eq!(got, serial::prefix_sum(&data));
        // 2 levels of recursion -> at least 5 launches.
        assert!(gpu.metrics().snapshot().kernel_launches >= 5);
    }

    #[test]
    fn max_operator() {
        let gpu = gpu();
        let data: Vec<i32> = (0..40_000).map(|i| (i * 31 % 997) - 500).collect();
        let got = HierarchicalScan::thrust()
            .scan(&gpu, &data, &Max, &ScanSpec::inclusive())
            .unwrap();
        assert_eq!(got, serial::scan(&data, &Max, &ScanSpec::inclusive()));
    }

    #[test]
    fn empty_input_is_fine() {
        let gpu = gpu();
        let got = HierarchicalScan::thrust()
            .scan::<i32, _>(&gpu, &[], &Sum, &ScanSpec::inclusive())
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "conventional")]
    fn higher_order_unsupported() {
        let gpu = gpu();
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        let _ = HierarchicalScan::thrust().scan(&gpu, &[1i32, 2], &Sum, &spec);
    }
}
