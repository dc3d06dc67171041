//! CUB-style single-pass scan with decoupled look-back
//! (Merrill & Garland, NVIDIA technical report NVR-2016-002).
//!
//! Like SAM this is communication-optimal (2n element traffic, one kernel),
//! but the carry protocol differs: each chunk publishes its local
//! *aggregate*, then walks backwards over predecessor descriptors —
//! accumulating aggregates — until it finds one that already holds a full
//! *inclusive prefix*, at which point it short-circuits. SAM instead always
//! reads exactly the `k - 1` intervening local sums and reuses its own
//! previous carry (Figure 2). The look-back's opportunistic short-circuit
//! does less redundant work but makes the combination order timing
//! dependent, which is why CUB is non-deterministic for pseudo-associative
//! operators while SAM is not (Section 3.1).
//!
//! Tuple-typed scans ([`LookbackScan::scan_tuples`]) reproduce how the
//! paper drives CUB on tuples: a user-defined tuple element type with a
//! component-wise `plus`. Each thread then holds whole tuples, which
//! (a) multiplies register pressure by the tuple size and (b) degrades
//! coalescing because consecutive words of one tuple belong to one thread
//! (array-of-structures access). Both effects are measured, not assumed:
//! loads/stores go through per-warp gathers whose transaction counts come
//! from the actual index patterns, and spill traffic is charged once the
//! per-thread register need exceeds the device budget.

use gpu_sim::{AccessClass, AtomicWordBuffer, GlobalBuffer, Gpu};
use sam_core::chunkops;
use sam_core::element::ScanElement;
use sam_core::kernel::account_block_scan;
use sam_core::op::ScanOp;
use sam_core::{ScanKind, ScanSpec};

/// Chunk descriptor states of the look-back protocol.
const INVALID: u64 = 0;
const AGGREGATE: u64 = 1;
const PREFIX: u64 = 2;

/// A configured decoupled look-back scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LookbackScan {
    /// Elements (tuples, for tuple scans) each thread holds.
    pub items_per_thread: usize,
}

impl Default for LookbackScan {
    fn default() -> Self {
        LookbackScan {
            items_per_thread: 12,
        }
    }
}

impl LookbackScan {
    /// Conventional scan (order 1, tuple 1), fully coalesced loads.
    ///
    /// # Panics
    ///
    /// Panics if `spec` requests order or tuple above 1; higher orders are
    /// obtained by iterating the whole scan (see [`crate::iterate_scan`]),
    /// tuples via [`LookbackScan::scan_tuples`].
    pub fn scan<T, Op>(&self, gpu: &Gpu, input: &[T], op: &Op, spec: &ScanSpec) -> Vec<T>
    where
        T: ScanElement,
        Op: ScanOp<T>,
    {
        assert!(
            spec.is_first_order() && spec.tuple() == 1,
            "lookback scan is conventional; iterate for higher orders"
        );
        self.run(gpu, input, op, spec.kind(), 1, false)
    }

    /// Tuple-typed scan: treats the input as `n / s` tuples of `s` words
    /// and scans them with a component-wise operator, the way the paper
    /// drives CUB for Figures 11–14.
    ///
    /// # Panics
    ///
    /// Panics if the input length is not a multiple of `s` (CUB's
    /// tuple-typed scan operates on whole tuples; the paper trims inputs
    /// accordingly) or if `s` is zero.
    pub fn scan_tuples<T, Op>(
        &self,
        gpu: &Gpu,
        input: &[T],
        op: &Op,
        kind: ScanKind,
        s: usize,
    ) -> Vec<T>
    where
        T: ScanElement,
        Op: ScanOp<T>,
    {
        assert!(s > 0, "tuple size must be positive");
        assert_eq!(
            input.len() % s,
            0,
            "tuple-typed scans need whole tuples (len {} % {s} != 0)",
            input.len()
        );
        self.run(gpu, input, op, kind, s, s > 1)
    }

    fn run<T, Op>(
        &self,
        gpu: &Gpu,
        input: &[T],
        op: &Op,
        kind: ScanKind,
        s: usize,
        aos: bool,
    ) -> Vec<T>
    where
        T: ScanElement,
        Op: ScanOp<T>,
    {
        let n = input.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = gpu.spec().threads_per_block as usize;
        // Chunks are measured in words; each thread holds items_per_thread
        // logical elements of s words each.
        let chunk_words = threads * self.items_per_thread * s;
        let num_chunks = chunkops::num_chunks(n, chunk_words);
        let k = (gpu.spec().persistent_blocks() as usize).min(num_chunks);

        let data = GlobalBuffer::from_vec(input.to_vec());
        let out = GlobalBuffer::filled(n, op.identity());
        let status = AtomicWordBuffer::zeroed(num_chunks);
        let aggregates = AtomicWordBuffer::zeroed(num_chunks * s);
        let prefixes = AtomicWordBuffer::zeroed(num_chunks * s);

        // Register pressure: whole tuples live in registers.
        let regs_needed = self.items_per_thread * s + 8;
        let budget = gpu.spec().registers_per_thread as usize;
        let spill_words_per_thread = regs_needed.saturating_sub(budget);

        gpu.launch_persistent_with(k, threads, |ctx| {
            let m = ctx.metrics();
            // Per-block buffers, reused by every chunk the block owns.
            let mut totals = vec![op.identity(); s];
            let mut carry = vec![op.identity(); s];
            let mut lane_vals = vec![op.identity(); s];
            let mut vals = Vec::new();
            for c in ctx.owned_chunks(num_chunks) {
                if ctx.is_cancelled() {
                    return;
                }
                let range = chunkops::chunk_range(c, chunk_words, n);
                let base = range.start;
                let len = range.len();

                // --- Load ------------------------------------------------
                vals.clear();
                vals.resize(len, op.identity());
                if aos {
                    warp_aos_access(
                        &data,
                        m,
                        base,
                        len,
                        s,
                        self.items_per_thread,
                        threads,
                        |w, buf, m, idxs| w.warp_gather(m, idxs, buf, AccessClass::Element),
                        &mut vals,
                    );
                } else {
                    data.load_block(m, base, &mut vals, AccessClass::Element);
                }
                // Spills: each spilled register makes a round trip through
                // thread-local memory per chunk. Local memory is
                // lane-interleaved, so the warp's accesses to one spilled
                // register coalesce into a single transaction.
                if spill_words_per_thread > 0 {
                    let tx = (threads * spill_words_per_thread / 32) as u64;
                    m.add_write(AccessClass::Spill, tx, 0);
                    m.add_read(AccessClass::Spill, tx, 0);
                }

                // --- Local scan + aggregate ------------------------------
                chunkops::scan_chunk(&mut vals, base, s, &mut totals, op);
                account_block_scan(m, ctx, len, threads);

                for (l, &t) in totals.iter().enumerate() {
                    aggregates.store(m, c * s + l, t);
                }
                ctx.threadfence();
                status.store(m, c, AGGREGATE);

                // --- Decoupled look-back ----------------------------------
                carry.fill(op.identity());
                if c > 0 {
                    let mut j = c - 1;
                    loop {
                        let st = status.poll(m, j, |v| v != INVALID);
                        let buf = if st == PREFIX { &prefixes } else { &aggregates };
                        buf.load_many_into(m, j * s, &mut lane_vals);
                        // Prepend: carry = value(j) ⊕ carry.
                        for l in 0..s {
                            carry[l] = op.combine(lane_vals[l], carry[l]);
                        }
                        m.add_compute(s as u64);
                        if st == PREFIX || j == 0 {
                            break;
                        }
                        j -= 1;
                    }
                }

                // --- Publish inclusive prefix -----------------------------
                for l in 0..s {
                    prefixes.store(m, c * s + l, op.combine(carry[l], totals[l]));
                }
                m.add_compute(s as u64);
                ctx.threadfence();
                status.store(m, c, PREFIX);

                // --- Apply carry and store --------------------------------
                match kind {
                    ScanKind::Inclusive => chunkops::apply_carry(&mut vals, base, &carry, op),
                    ScanKind::Exclusive => chunkops::exclusive_rewrite(&mut vals, base, &carry, op),
                }
                m.add_compute(len as u64);
                if aos {
                    warp_aos_access(
                        &out,
                        m,
                        base,
                        len,
                        s,
                        self.items_per_thread,
                        threads,
                        |w, buf, m, idxs| w.warp_scatter(m, idxs, buf, AccessClass::Element),
                        &mut vals,
                    );
                } else {
                    out.store_block(m, base, &vals, AccessClass::Element);
                }
            }
        });

        out.to_vec()
    }
}

/// Drives warp-level array-of-structures access for a chunk. Threads are
/// assigned tuples in a striped arrangement (thread `t` holds tuples
/// `t`, `t + threads`, ...), the best a tuple-typed load can do — but each
/// scalar load step still walks the words of whole tuples, so the warp's
/// simultaneous addresses are strided by the tuple size `s`: a warp-load
/// of 32 words touches `s` 128-byte segments instead of one. This is the
/// "progressively less coalesced" access the paper blames for CUB's
/// tuple-scan slowdown (Section 5.3). The closure receives each warp's
/// index vector so gathers and scatters share the pattern.
#[allow(clippy::too_many_arguments)]
fn warp_aos_access<T: ScanElement>(
    buf: &GlobalBuffer<T>,
    m: &gpu_sim::Metrics,
    base: usize,
    len: usize,
    s: usize,
    items_per_thread: usize,
    threads: usize,
    mut access: impl FnMut(&GlobalBuffer<T>, &mut [T], &gpu_sim::Metrics, &[usize]),
    vals: &mut [T],
) {
    debug_assert_eq!(vals.len(), len);
    let warp_width = 32;
    let mut idxs = Vec::with_capacity(warp_width);
    let mut lane_buf = vec![T::ZERO; warp_width];
    for warp_base in (0..threads).step_by(warp_width) {
        for item in 0..items_per_thread {
            for word in 0..s {
                idxs.clear();
                for lane in 0..warp_width {
                    let t = warp_base + lane;
                    let tuple = item * threads + t;
                    let local = tuple * s + word;
                    if local < len {
                        idxs.push(local);
                    }
                }
                step(buf, m, base, &idxs, &mut lane_buf, &mut access, vals);
            }
        }
    }

    fn step<T: ScanElement>(
        buf: &GlobalBuffer<T>,
        m: &gpu_sim::Metrics,
        base: usize,
        idxs: &[usize],
        lane_buf: &mut [T],
        access: &mut impl FnMut(&GlobalBuffer<T>, &mut [T], &gpu_sim::Metrics, &[usize]),
        vals: &mut [T],
    ) {
        if idxs.is_empty() {
            return;
        }
        // Copy between the chunk-local array and the lane registers.
        for (slot, &local) in idxs.iter().enumerate() {
            lane_buf[slot] = vals[local];
        }
        let global_idxs: Vec<usize> = idxs.iter().map(|&l| base + l).collect();
        access(buf, &mut lane_buf[..global_idxs.len()], m, &global_idxs);
        for (slot, &local) in idxs.iter().enumerate() {
            vals[local] = lane_buf[slot];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use sam_core::op::{Sum, Xor};
    use sam_core::serial;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::titan_x())
    }

    fn input(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 13 % 23) - 11).collect()
    }

    #[test]
    fn conventional_matches_oracle() {
        let gpu = gpu();
        let data = input(200_000);
        let got = LookbackScan::default().scan(&gpu, &data, &Sum, &ScanSpec::inclusive());
        assert_eq!(got, serial::prefix_sum(&data));
    }

    #[test]
    fn exclusive_matches_oracle() {
        let gpu = gpu();
        let data = input(77_777);
        let spec = ScanSpec::exclusive();
        let got = LookbackScan::default().scan(&gpu, &data, &Sum, &spec);
        assert_eq!(got, serial::scan(&data, &Sum, &spec));
        let got = LookbackScan::default().scan(&gpu, &data, &Xor, &spec);
        assert_eq!(got, serial::scan(&data, &Xor, &spec));
    }

    #[test]
    fn communication_optimal_2n() {
        let gpu = gpu();
        let n = 1 << 18;
        let data = vec![1i32; n];
        LookbackScan::default().scan(&gpu, &data, &Sum, &ScanSpec::inclusive());
        assert_eq!(gpu.metrics().snapshot().elem_words(), 2 * n as u64);
        assert_eq!(gpu.metrics().snapshot().kernel_launches, 1);
    }

    #[test]
    fn tuple_scan_matches_strided_oracle() {
        let gpu = gpu();
        let s = 5;
        let data = input(50_000); // multiple of 5
        let got = LookbackScan {
            items_per_thread: 4,
        }
        .scan_tuples(&gpu, &data, &Sum, ScanKind::Inclusive, s);
        let spec = ScanSpec::inclusive().with_tuple(s).unwrap();
        assert_eq!(got, serial::scan(&data, &Sum, &spec));
    }

    #[test]
    fn tuple_aos_access_is_less_coalesced() {
        let s = 8;
        let n = 1 << 15;
        let data = vec![1i32; n];

        let gpu1 = gpu();
        LookbackScan {
            items_per_thread: 2,
        }
        .scan(&gpu1, &data, &Sum, &ScanSpec::inclusive());
        let coalesced = gpu1.metrics().snapshot().elem_transactions();

        let gpu8 = gpu();
        LookbackScan {
            items_per_thread: 2,
        }
        .scan_tuples(&gpu8, &data, &Sum, ScanKind::Inclusive, s);
        let aos = gpu8.metrics().snapshot().elem_transactions();
        assert!(
            aos > 3 * coalesced,
            "AoS should multiply transactions: {aos} vs {coalesced}"
        );
    }

    #[test]
    fn large_tuples_cause_spill_traffic() {
        let n = 1 << 14;
        let data = vec![1i64; n];
        let gpu8 = gpu();
        LookbackScan {
            items_per_thread: 8,
        }
        .scan_tuples(&gpu8, &data, &Sum, ScanKind::Inclusive, 8);
        assert!(gpu8.metrics().snapshot().spill_transactions > 0);

        let gpu1 = gpu();
        LookbackScan {
            items_per_thread: 8,
        }
        .scan(&gpu1, &data, &Sum, &ScanSpec::inclusive());
        assert_eq!(gpu1.metrics().snapshot().spill_transactions, 0);
    }

    #[test]
    fn tuple_exclusive_matches_oracle() {
        let gpu = gpu();
        let s = 3;
        let data = input(30_000);
        let spec = ScanSpec::exclusive().with_tuple(s).unwrap();
        let got = LookbackScan::default().scan_tuples(&gpu, &data, &Sum, ScanKind::Exclusive, s);
        assert_eq!(got, serial::scan(&data, &Sum, &spec));
        let got = LookbackScan::default().scan_tuples(&gpu, &data, &Xor, ScanKind::Exclusive, s);
        assert_eq!(got, serial::scan(&data, &Xor, &spec));
    }

    #[test]
    #[should_panic(expected = "whole tuples")]
    fn ragged_tuple_input_rejected() {
        let gpu = gpu();
        LookbackScan::default().scan_tuples(&gpu, &[1i32; 10], &Sum, ScanKind::Inclusive, 3);
    }

    #[test]
    fn empty_input() {
        let gpu = gpu();
        let got = LookbackScan::default().scan::<i32, _>(&gpu, &[], &Sum, &ScanSpec::inclusive());
        assert!(got.is_empty());
    }
}
