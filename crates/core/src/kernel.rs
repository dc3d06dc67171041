//! The SAM kernel on the simulated GPU (Section 2 of the paper).
//!
//! One unified kernel covers every case — conventional, higher-order,
//! tuple-based, and combined scans, inclusive or exclusive, with either the
//! decoupled (SAM) or the chained (Section 5.4 ablation) carry-propagation
//! scheme — mirroring the paper's single 100-statement templated CUDA
//! kernel.
//!
//! # Algorithm
//!
//! `k = m · b` persistent blocks each process every `k`-th chunk. Per chunk
//! and per order iteration a block:
//!
//! 1. computes the block-local strided inclusive scan and the `s` per-lane
//!    local sums;
//! 2. **publishes** the local sums to the auxiliary sum arrays, executes a
//!    memory fence, and bumps the chunk's ready flag (a *count* of published
//!    iterations, Section 2.4);
//! 3. waits (coalesced polling of only non-ready flags) for the up-to-`k-1`
//!    predecessor chunks, reads their local sums, and folds them — together
//!    with the carry and local sum the block itself produced `k` chunks ago —
//!    into the accumulated carry (Figure 2);
//! 4. adds the carry to every element.
//!
//! The input is read from global memory exactly once and the output written
//! exactly once, independent of order and tuple size: SAM's
//! communication-optimality.
//!
//! # Auxiliary-memory modes
//!
//! The paper sizes the sum/flag arrays as circular buffers of "a little over
//! `3k`" entries, relying on the GPU scheduler's fairness to keep any block
//! from lapping the ring. Under OS scheduling that fairness is not
//! guaranteed, so [`AuxMode::Ring`] (rings of `4k`, power-of-two-rounded)
//! adds an explicitly-paced reuse guard: each block publishes a completion
//! watermark (one word per block, amortized one check per lap), and a block
//! re-uses a ring slot only after every reader of the slot's previous
//! occupant has completed. [`AuxMode::PerChunk`] allocates one slot per
//! chunk instead (no reuse, no pacing) — the traffic counts are identical,
//! and it is the default for metrics runs. The performance model credits
//! the ring's L2 residency in either mode, since the addressing pattern —
//! not the simulator's backing allocation — is what determines locality on
//! the real device.

use crate::chunk_kernel::ChunkKernel;
use crate::chunkops;
use crate::config::{ScanKind, ScanSpec};
use gpu_sim::sched;
use gpu_sim::Pod64;
use gpu_sim::{
    AccessClass, AtomicWordBuffer, BlockContext, CarryScheme, EventKind, GlobalBuffer, Gpu, Metrics,
};

/// How carries travel between dependent chunks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CarryPropagation {
    /// SAM's write-followed-by-independent-reads scheme (Section 2.2):
    /// every block publishes only its *local* sums; consumers read up to
    /// `k - 1` of them and redundantly re-accumulate.
    #[default]
    Decoupled,
    /// The ablation of Section 5.4: every block publishes the *total* carry
    /// and each chunk read-modify-waits on exactly its predecessor,
    /// creating a serial dependence chain through all chunks.
    Chained,
}

/// Auxiliary-array allocation strategy (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AuxMode {
    /// One slot per chunk; no reuse. Default for metrics runs.
    #[default]
    PerChunk,
    /// Paper-faithful circular buffers (`4k` slots, power-of-two rounded)
    /// with watermark-paced reuse.
    Ring,
}

/// Kernel launch parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamParams {
    /// Elements each thread holds in registers; the chunk size is
    /// `threads_per_block * items_per_thread`. Chosen by the auto-tuner
    /// ([`crate::autotune`]) in normal use.
    pub items_per_thread: usize,
    /// Carry-propagation scheme.
    pub carry: CarryPropagation,
    /// Auxiliary-array allocation strategy.
    pub aux: AuxMode,
    /// Forces the paper's per-order carry rounds even when the operator
    /// admits the single-pass cascade (one publish round for all `q`
    /// orders; see [`crate::carry`]). The paper-figure harness sets this to
    /// reproduce the published SAM, whose auxiliary traffic and pipeline
    /// depth scale with the order.
    pub iterated_orders: bool,
}

impl Default for SamParams {
    fn default() -> Self {
        SamParams {
            items_per_thread: 16,
            carry: CarryPropagation::Decoupled,
            aux: AuxMode::PerChunk,
            iterated_orders: false,
        }
    }
}

/// Geometry and scheme of a completed kernel run, for the performance model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamRunInfo {
    /// Persistent blocks launched.
    pub k: u32,
    /// Chunks processed.
    pub chunks: u64,
    /// Elements per full chunk.
    pub chunk_elems: usize,
    /// Ring length (slots) of the auxiliary arrays.
    pub ring_len: usize,
    /// Carry-publish rounds executed per chunk: the spec's order on the
    /// iterated path, `1` on the single-pass cascade path (which publishes
    /// all `q * s` local sums at once; see [`crate::carry`]).
    pub orders: u32,
    /// Tuple size.
    pub tuple: usize,
    /// Carry scheme used.
    pub carry: CarryPropagation,
}

impl SamRunInfo {
    /// The carry scheme descriptor the performance model consumes.
    pub fn carry_scheme(&self) -> CarryScheme {
        match self.carry {
            CarryPropagation::Decoupled => CarryScheme::SamDecoupled {
                k: self.k,
                chunks: self.chunks,
                orders: self.orders,
            },
            CarryPropagation::Chained => CarryScheme::Chained {
                k: self.k,
                chunks: self.chunks,
            },
        }
    }
}

/// Charges the metric costs of one hierarchical block-local scan pass over
/// `len` elements with `threads` threads (Section 2.1's three phases:
/// thread-serial scans, warp-shuffle scan of thread totals, shared-memory
/// fixup), without simulating each lane individually.
///
/// Shared with the baseline kernels in `sam-baselines`, which use the same
/// intra-block scan structure.
pub fn account_block_scan(m: &Metrics, ctx: &BlockContext<'_>, len: usize, threads: usize) {
    let len = len as u64;
    let t = threads as u64;
    // Phase 1: each thread serially scans its items, then the warp scans
    // thread totals; phase 3 adds the warp/block offsets to every element.
    m.add_compute(2 * len + t * 5 / 2 + 80);
    m.add_shuffles(5 * t + 160);
    m.add_shared(t + t / 16);
    ctx.barrier();
    ctx.barrier();
}

/// Runs the unified SAM kernel on `gpu`, scanning `input` according to
/// `spec` with operator `op`, and returns the result together with the run
/// geometry.
///
/// The input is staged into simulated global memory, processed by
/// `k = m · b` persistent blocks on real OS threads, and copied back; all
/// traffic is counted in `gpu.metrics()`.
///
/// # Panics
///
/// Panics if `params.items_per_thread` is zero.
pub fn scan_on_gpu<T, Op>(
    gpu: &Gpu,
    input: &[T],
    op: &Op,
    spec: &ScanSpec,
    params: &SamParams,
) -> (Vec<T>, SamRunInfo)
where
    T: Pod64,
    Op: ChunkKernel<T>,
{
    assert!(
        params.items_per_thread > 0,
        "items_per_thread must be positive"
    );
    let threads = gpu.spec().threads_per_block as usize;
    let q = spec.order() as usize;
    let s = spec.tuple();
    let mut chunk_elems = threads * params.items_per_thread;
    if op.recurrence_coeffs().is_some() {
        // Recurrence operators exist only on the single-pass cascade path:
        // the iterated per-order rounds and the chained ablation both fold
        // plain sums, which has no recurrence meaning. Refuse loudly rather
        // than silently computing the wrong series, and lane-align the
        // chunk size so the companion-matrix carry distances are uniform.
        assert!(
            !params.iterated_orders,
            "iterated_orders cannot run a linear-recurrence operator"
        );
        assert_eq!(
            params.carry,
            CarryPropagation::Decoupled,
            "chained carry propagation cannot run a linear-recurrence operator"
        );
        chunk_elems = chunk_elems.div_ceil(s) * s;
    }
    let n = input.len();
    let k_max = gpu.spec().persistent_blocks() as usize;
    let num_chunks = chunkops::num_chunks(n.max(1), chunk_elems);
    let k = k_max.min(num_chunks);

    // The single-pass cascade path (see `crate::carry`): every chunk
    // publishes all `q * s` local sums from ONE sweep and releases its flag
    // once, with predecessor carries applied through the binomial weight
    // matrices instead of `q` separate carry rounds. Requires an exactly
    // weight-applicable operator and lane-aligned chunks so chunk-to-chunk
    // lane distances are uniform.
    let single_pass = !params.iterated_orders
        && params.carry == CarryPropagation::Decoupled
        && op.supports_cascade()
        && chunk_elems.is_multiple_of(s);
    let carry_rounds = if single_pass { 1 } else { spec.order() };

    let info = |ring_len: usize| SamRunInfo {
        k: k as u32,
        chunks: num_chunks as u64,
        chunk_elems,
        ring_len,
        orders: carry_rounds,
        tuple: s,
        carry: params.carry,
    };

    if n == 0 {
        return (Vec::new(), info(0));
    }

    let ring_len = match params.aux {
        AuxMode::PerChunk => num_chunks,
        AuxMode::Ring => (4 * k)
            .next_power_of_two()
            .min(num_chunks.next_power_of_two()),
    };

    let input_buf = GlobalBuffer::from_vec(input.to_vec());
    let output_buf = GlobalBuffer::filled(n, op.identity());
    // Sum slot for (chunk c, iteration i, lane l):
    //   (c % ring_len) * q * s + i * s + l
    let sums = AtomicWordBuffer::zeroed(ring_len * q * s);
    // Ready flags: one count per ring slot; value = generation * q + iters.
    let flags = AtomicWordBuffer::zeroed(ring_len);
    // Completion watermarks (Ring mode): last completed chunk + 1 per block.
    let watermarks = AtomicWordBuffer::zeroed(k);

    let sum_idx = |c: usize, iter: usize, lane: usize| (c % ring_len) * q * s + iter * s + lane;
    let flag_target = |c: usize, iter: usize| (c / ring_len * q + iter + 1) as u64;

    if single_pass {
        let qs = q * s;
        let lane_elems = (chunk_elems / s) as u64;
        let exclusive = spec.kind() == ScanKind::Exclusive;
        // One flag bump per chunk (a generation count), not one per order.
        let sp_flag_target = |c: usize| (c / ring_len + 1) as u64;

        gpu.launch_persistent_with(k, threads, |ctx| {
            let m = ctx.metrics();
            let b = ctx.block;
            let plan = crate::carry::CarryPlan::new(op, q, lane_elems, k);
            // Seed state, this block's previous chunk's end state, and the
            // publish-sweep totals — all q x s.
            let mut state: Vec<T> = vec![op.identity(); qs];
            let mut own_end: Vec<T> = vec![op.identity(); qs];
            let mut totals: Vec<T> = vec![op.identity(); qs];
            // One predecessor's published q x s row.
            let mut pred: Vec<T> = vec![op.identity(); qs];
            // The loaded chunk and sweep 2's output, one chunk long each:
            // the sweep reads `vals` and writes `out`, and the chunk is
            // stored from `out`.
            let mut vals: Vec<T> = vec![op.identity(); chunk_elems.min(n)];
            let mut out: Vec<T> = vec![op.identity(); chunk_elems.min(n)];
            let mut paced_until: i64 = -1;

            for c in ctx.owned_chunks(num_chunks) {
                // Chunk-start checkpoint: a scheduler preemption point and
                // a cancellation point (unwinds if a sibling block died,
                // instead of producing a silently-partial result).
                sched::checkpoint(c as u64);
                ctx.check_cancelled();
                if params.aux == AuxMode::Ring {
                    pace_ring_reuse(&watermarks, m, c, ring_len, k, &mut paced_until);
                }

                let range = chunkops::chunk_range(c, chunk_elems, n);
                let base = range.start;
                let len = range.len();
                ctx.emit(c as u64, EventKind::ChunkStart);

                // --- Load the chunk once, fully coalesced ----------------
                let vals = &mut vals[..len];
                input_buf.load_block(m, base, vals, AccessClass::Element);

                // --- Sweep 1: all q*s local sums from ONE cascade --------
                for t in totals.iter_mut() {
                    *t = op.identity();
                }
                op.cascade_totals(vals, base, s, &mut totals, None);
                account_block_scan(m, ctx, len, threads);
                m.add_compute((len * (q - 1)) as u64);

                // Publish the whole q x s sum matrix as one coalesced burst
                // and release the ready flag once.
                sums.store_many(m, (c % ring_len) * qs, &totals);
                ctx.threadfence();
                flags.store(m, c % ring_len, sp_flag_target(c));
                ctx.emit(c as u64, EventKind::SumPublished { iter: 0 });

                // --- One carry round: own chunk-(c-k) end state advanced
                // k-1 chunk distances by the binomial weight matrix, each
                // published predecessor folded at its distance ------------
                if c >= k {
                    state.copy_from_slice(&own_end);
                    plan.advance(op, k - 1, &mut state, s);
                } else {
                    for v in state.iter_mut() {
                        *v = op.identity();
                    }
                }
                let first_pred = c.saturating_sub(k - 1);
                if first_pred < c {
                    wait_ready(&flags, m, first_pred..c, ring_len, sp_flag_target);
                    for j in first_pred..c {
                        sums.load_many_into(m, (j % ring_len) * qs, &mut pred);
                        plan.fold(op, c - 1 - j, &pred, &mut state, s);
                    }
                    // Triangular weight fold: ~q(q+1)/2 multiply-adds per
                    // predecessor lane.
                    m.add_compute(((c - first_pred) * s * q * (q + 1) / 2) as u64);
                    m.add_shuffles(32 * (usize::BITS - k.leading_zeros()) as u64);
                }
                ctx.emit(c as u64, EventKind::CarryReady { iter: 0 });

                // --- Sweep 2: seeded cascade yields final outputs --------
                let out = &mut out[..len];
                op.cascade_scan_from(vals, out, base, s, &mut state, exclusive, None);
                account_block_scan(m, ctx, len, threads);
                m.add_compute((len * (q - 1)) as u64);
                own_end.copy_from_slice(&state);

                // --- Store the chunk once, fully coalesced ---------------
                output_buf.store_block(m, base, out, AccessClass::Element);
                ctx.emit(c as u64, EventKind::ChunkDone);

                if params.aux == AuxMode::Ring {
                    watermarks.store(m, b, (c + 1) as u64);
                }
            }
        });

        return (output_buf.to_vec(), info(ring_len));
    }

    gpu.launch_persistent_with(k, threads, |ctx| {
        let m = ctx.metrics();
        let b = ctx.block;
        // Carry state from this block's previous chunk (chunk c - k), per
        // iteration and lane (flattened `q * s`): the accumulated carry and
        // the local sums it published — the ingredients of Figure 2's
        // incremental update.
        let mut prev_carry: Vec<T> = vec![op.identity(); q * s];
        let mut prev_totals: Vec<T> = vec![op.identity(); q * s];
        // The current chunk's per-lane totals and carry, refilled every
        // iteration, and one predecessor's published row (the chained
        // variant's running total).
        let mut totals: Vec<T> = vec![op.identity(); s];
        let mut carry: Vec<T> = vec![op.identity(); s];
        let mut row: Vec<T> = vec![op.identity(); s];
        // The chunk under scan, one chunk long.
        let mut vals: Vec<T> = vec![op.identity(); chunk_elems.min(n)];
        let mut paced_until: i64 = -1;

        for c in ctx.owned_chunks(num_chunks) {
            // Chunk-start checkpoint, as on the single-pass path.
            sched::checkpoint(c as u64);
            ctx.check_cancelled();
            if params.aux == AuxMode::Ring {
                pace_ring_reuse(&watermarks, m, c, ring_len, k, &mut paced_until);
            }

            let range = chunkops::chunk_range(c, chunk_elems, n);
            let base = range.start;
            let len = range.len();
            ctx.emit(c as u64, EventKind::ChunkStart);

            // --- Load the chunk once, fully coalesced --------------------
            let vals = &mut vals[..len];
            input_buf.load_block(m, base, vals, AccessClass::Element);

            for iter in 0..q {
                // Mid-chunk cancellation point: a chunk runs q carry
                // rounds, and a sibling can die between any two of them.
                ctx.check_cancelled();
                // --- Local strided scan + per-lane totals ----------------
                chunkops::scan_chunk(vals, base, s, &mut totals, op);
                account_block_scan(m, ctx, len, threads);

                let lanes = iter * s..iter * s + s;
                match params.carry {
                    CarryPropagation::Decoupled => {
                        // Publish local sums immediately so successors can
                        // proceed, *then* gather predecessors.
                        for (lane, &t) in totals.iter().enumerate() {
                            sums.store(m, sum_idx(c, iter, lane), t);
                        }
                        ctx.threadfence();
                        flags.store(m, c % ring_len, flag_target(c, iter));
                        ctx.emit(c as u64, EventKind::SumPublished { iter: iter as u32 });

                        // Figure 2: carry(c) = carry(c-k) ⊕ S(c-k) ⊕ ... ⊕ S(c-1).
                        for (l, slot) in carry.iter_mut().enumerate() {
                            *slot = if c >= k {
                                op.combine(prev_carry[iter * s + l], prev_totals[iter * s + l])
                            } else {
                                op.identity()
                            };
                        }
                        let first_pred = c.saturating_sub(k - 1);
                        if first_pred < c {
                            wait_ready(&flags, m, first_pred..c, ring_len, |j| {
                                flag_target(j, iter)
                            });
                            for j in first_pred..c {
                                sums.load_many_into(m, sum_idx(j, iter, 0), &mut row);
                                for (slot, &v) in carry.iter_mut().zip(&row) {
                                    *slot = op.combine(*slot, v);
                                }
                            }
                            m.add_compute(((c - first_pred) * s) as u64);
                            m.add_shuffles(32 * (usize::BITS - k.leading_zeros()) as u64);
                        }
                        ctx.emit(c as u64, EventKind::CarryReady { iter: iter as u32 });
                    }
                    CarryPropagation::Chained => {
                        // Read the predecessor's *total* carry (serial
                        // read-modify-write chain), publish our total.
                        if c == 0 {
                            carry.fill(op.identity());
                        } else {
                            wait_ready(&flags, m, c - 1..c, ring_len, |j| flag_target(j, iter));
                            sums.load_many_into(m, sum_idx(c - 1, iter, 0), &mut carry);
                        }
                        for ((running, &cv), &t) in row.iter_mut().zip(&carry).zip(&totals) {
                            *running = op.combine(cv, t);
                        }
                        m.add_compute(s as u64);
                        for (lane, &t) in row.iter().enumerate() {
                            sums.store(m, sum_idx(c, iter, lane), t);
                        }
                        ctx.threadfence();
                        flags.store(m, c % ring_len, flag_target(c, iter));
                        ctx.emit(c as u64, EventKind::SumPublished { iter: iter as u32 });
                        ctx.emit(c as u64, EventKind::CarryReady { iter: iter as u32 });
                    }
                }

                prev_totals[lanes.clone()].copy_from_slice(&totals);
                prev_carry[lanes].copy_from_slice(&carry);

                // The last iteration of an exclusive scan leaves the chunk
                // holding its pre-carry local scan; it is rewritten in
                // place just before the store, from `carry` as it stands.
                if iter + 1 < q || spec.kind() != ScanKind::Exclusive {
                    chunkops::apply_carry(vals, base, &carry, op);
                    m.add_compute(len as u64);
                }
            }

            // --- Store the chunk once, fully coalesced -------------------
            if spec.kind() == ScanKind::Exclusive {
                chunkops::exclusive_rewrite(vals, base, &carry, op);
                m.add_compute(len as u64);
            }
            output_buf.store_block(m, base, vals, AccessClass::Element);
            ctx.emit(c as u64, EventKind::ChunkDone);

            if params.aux == AuxMode::Ring {
                watermarks.store(m, b, (c + 1) as u64);
            }
        }
    });

    (output_buf.to_vec(), info(ring_len))
}

/// Ring-mode slot-reuse pacing (see module docs): before chunk `c` reuses a
/// ring slot, waits until every reader of the slot's previous occupant has
/// completed, tracked through the per-block completion watermarks.
fn pace_ring_reuse(
    watermarks: &AtomicWordBuffer,
    m: &Metrics,
    c: usize,
    ring_len: usize,
    k: usize,
    paced_until: &mut i64,
) {
    if c < ring_len {
        return;
    }
    // Chunks up to `need` must have completed before the slot that chunk
    // `c - ring_len` used may be overwritten.
    let need = (c - ring_len + k - 1) as i64;
    if *paced_until >= need {
        return;
    }
    watermarks.poll_many(m, 0..k, |j, w| {
        // Largest chunk owned by block j not exceeding need.
        let need = need as usize;
        if need < j {
            return true;
        }
        let cj = need - (need - j) % k;
        w >= (cj + 1) as u64
    });
    *paced_until = need;
}

/// Waits for the flags of chunks `pred_range` to reach their per-chunk
/// targets, splitting the ring-wrapped slot range into at most two coalesced
/// polls.
fn wait_ready(
    flags: &AtomicWordBuffer,
    m: &Metrics,
    pred_range: std::ops::Range<usize>,
    ring_len: usize,
    target: impl Fn(usize) -> u64,
) {
    if pred_range.is_empty() {
        return;
    }
    let lo_slot = pred_range.start % ring_len;
    let hi_slot = (pred_range.end - 1) % ring_len;
    let chunk_of = |slot: usize| {
        // Recover which chunk of `pred_range` occupies `slot`.
        let offset = (slot + ring_len - lo_slot) % ring_len;
        pred_range.start + offset
    };
    if lo_slot <= hi_slot {
        flags.poll_many(m, lo_slot..hi_slot + 1, |slot, v| {
            v >= target(chunk_of(slot))
        });
    } else {
        flags.poll_many(m, lo_slot..ring_len, |slot, v| v >= target(chunk_of(slot)));
        flags.poll_many(m, 0..hi_slot + 1, |slot, v| v >= target(chunk_of(slot)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Sum};
    use gpu_sim::DeviceSpec;

    fn small_gpu() -> Gpu {
        // Full K40 geometry but the tests use small items_per_thread so
        // many chunks exercise the pipeline.
        Gpu::new(DeviceSpec::k40())
    }

    fn params(ipt: usize) -> SamParams {
        SamParams {
            items_per_thread: ipt,
            ..SamParams::default()
        }
    }

    fn check(n: usize, spec: &ScanSpec, p: &SamParams) {
        let gpu = small_gpu();
        let input: Vec<i64> = (0..n as i64).map(|i| (i * 31 % 17) - 8).collect();
        let expect = crate::serial::scan(&input, &Sum, spec);
        let (got, _info) = scan_on_gpu(&gpu, &input, &Sum, spec, p);
        assert_eq!(got, expect, "n={n} spec={spec:?} params={p:?}");
    }

    #[test]
    fn conventional_scan_matches_oracle() {
        check(100_000, &ScanSpec::inclusive(), &params(2));
    }

    #[test]
    fn exclusive_scan_matches_oracle() {
        check(70_001, &ScanSpec::exclusive(), &params(2));
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [1, 2, 1023, 1025, 4097, 33_333] {
            check(n, &ScanSpec::inclusive(), &params(1));
        }
    }

    #[test]
    fn higher_order_scan_matches_oracle() {
        let spec = ScanSpec::inclusive().with_order(3).unwrap();
        check(50_000, &spec, &params(1));
    }

    #[test]
    fn tuple_scan_matches_oracle() {
        let spec = ScanSpec::inclusive().with_tuple(5).unwrap();
        check(50_000, &spec, &params(1));
    }

    #[test]
    fn combined_higher_order_tuple_exclusive() {
        let spec = ScanSpec::exclusive()
            .with_order(2)
            .unwrap()
            .with_tuple(3)
            .unwrap();
        check(40_000, &spec, &params(1));
    }

    #[test]
    fn chained_carry_matches_oracle() {
        let p = SamParams {
            carry: CarryPropagation::Chained,
            ..params(1)
        };
        check(80_000, &ScanSpec::inclusive(), &p);
    }

    #[test]
    fn ring_mode_matches_oracle_with_many_laps() {
        let p = SamParams {
            aux: AuxMode::Ring,
            ..params(1)
        };
        // K40: k=30, ring=128 slots; 200k elements / 1024 = ~196 chunks > ring.
        let gpu = Gpu::new(DeviceSpec::k40());
        let n = 200_000;
        let input: Vec<i64> = (0..n as i64).map(|i| i % 13 - 6).collect();
        let spec = ScanSpec::inclusive();
        let expect = crate::serial::scan(&input, &Sum, &spec);
        let (got, info) = scan_on_gpu(&gpu, &input, &Sum, &spec, &p);
        assert!(
            info.ring_len < info.chunks as usize,
            "test must exercise reuse"
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn max_scan_on_gpu() {
        let gpu = small_gpu();
        let input: Vec<i32> = (0..30_000).map(|i| (i * 37 % 1000) - 500).collect();
        let (got, _) = scan_on_gpu(&gpu, &input, &Max, &ScanSpec::inclusive(), &params(1));
        assert_eq!(
            got,
            crate::serial::scan(&input, &Max, &ScanSpec::inclusive())
        );
    }

    #[test]
    fn communication_optimality_2n_words() {
        let gpu = small_gpu();
        let n = 1 << 16;
        let input = vec![1i32; n];
        let spec = ScanSpec::inclusive().with_order(4).unwrap();
        scan_on_gpu(&gpu, &input, &Sum, &spec, &params(4));
        let snap = gpu.metrics().snapshot();
        // Element words moved is exactly 2n regardless of the order.
        assert_eq!(snap.elem_words(), 2 * n as u64);
    }

    #[test]
    fn empty_input() {
        let gpu = small_gpu();
        let (got, info) =
            scan_on_gpu::<i32, _>(&gpu, &[], &Sum, &ScanSpec::inclusive(), &params(1));
        assert!(got.is_empty());
        assert_eq!(info.chunks, 1);
    }

    #[test]
    fn run_info_carry_scheme() {
        let gpu = small_gpu();
        let input = vec![1i32; 10_000];
        let (_, info) = scan_on_gpu(&gpu, &input, &Sum, &ScanSpec::inclusive(), &params(1));
        match info.carry_scheme() {
            CarryScheme::SamDecoupled { k, chunks, orders } => {
                assert_eq!(k, info.k);
                assert_eq!(chunks, 10);
                assert_eq!(orders, 1);
            }
            other => panic!("unexpected scheme {other:?}"),
        }
    }

    #[test]
    fn deterministic_float_scan() {
        // Pseudo-associative operator: repeated runs give bit-identical
        // results because the carry accumulation order is fixed.
        let gpu = small_gpu();
        let input: Vec<f64> = (0..50_000)
            .map(|i| ((i * 7919) % 1000) as f64 * 0.1 - 40.0)
            .collect();
        let (a, _) = scan_on_gpu(&gpu, &input, &Sum, &ScanSpec::inclusive(), &params(1));
        let (b, _) = scan_on_gpu(&gpu, &input, &Sum, &ScanSpec::inclusive(), &params(1));
        assert_eq!(a, b);
    }
}
