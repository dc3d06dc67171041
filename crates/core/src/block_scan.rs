//! Lockstep intra-block scan, built literally from warp primitives.
//!
//! The production kernel ([`crate::kernel`]) computes block-local scans
//! functionally and *accounts* the hierarchical cost
//! ([`crate::kernel::account_block_scan`]). This module implements the
//! same three-phase structure (Section 2.1) lane by lane with the real
//! lockstep primitives of [`gpu_sim::warp`]:
//!
//! 1. each thread serially scans its `items_per_thread` register values;
//! 2. warps scan the per-thread totals with shuffles; one warp then scans
//!    the per-warp totals through the shared-memory auxiliary array;
//! 3. every thread adds its warp- and block-level offsets to its values.
//!
//! It exists (a) as an executable specification validating that the cost
//! formulas match the real instruction mix, and (b) as a reference for
//! porting the kernel to a real lockstep target.

use crate::op::ScanOp;
use gpu_sim::{warp, BlockContext, Metrics};

/// Computes the inclusive scan of `values` (conceptually the registers of
/// one thread block: thread `t` holds elements `t*ipt .. (t+1)*ipt`) using
/// the lockstep three-phase algorithm, and returns the block total.
///
/// `threads` must be a multiple of the warp width; `values.len()` must be
/// `threads * items_per_thread` with items distributed blocked per thread.
///
/// # Panics
///
/// Panics if the geometry is inconsistent.
pub fn block_scan_lockstep<T, Op>(
    ctx: &BlockContext<'_>,
    values: &mut [T],
    threads: usize,
    op: &Op,
) -> T
where
    T: Copy,
    Op: ScanOp<T>,
{
    let m: &Metrics = ctx.metrics();
    let warp_width = ctx.warp_width();
    assert!(
        threads > 0 && threads.is_multiple_of(warp_width),
        "threads must fill warps"
    );
    assert!(
        !values.is_empty() && values.len().is_multiple_of(threads),
        "values must fill {threads} threads evenly, got {}",
        values.len()
    );
    let ipt = values.len() / threads;
    let warps = threads / warp_width;

    // --- Phase 1a: serial per-thread scans over register values ---------
    let mut thread_totals: Vec<T> = Vec::with_capacity(threads);
    for t in 0..threads {
        let regs = &mut values[t * ipt..(t + 1) * ipt];
        for i in 1..ipt {
            regs[i] = op.combine(regs[i - 1], regs[i]);
        }
        m.add_compute(ipt as u64 - 1);
        thread_totals.push(regs[ipt - 1]);
    }

    // --- Phase 1b: warp-level scans of the thread totals -----------------
    let mut warp_totals: Vec<T> = Vec::with_capacity(warps);
    for w in 0..warps {
        let lanes = &mut thread_totals[w * warp_width..(w + 1) * warp_width];
        warp::inclusive_scan(m, lanes, |a, b| op.combine(a, b));
        warp_totals.push(lanes[warp_width - 1]);
        // The last element of each warp is recorded in the shared aux array.
        ctx.note_shared_access(1);
    }
    ctx.barrier();

    // --- Phase 2: one warp scans the auxiliary array ---------------------
    warp::inclusive_scan(m, &mut warp_totals, |a, b| op.combine(a, b));
    ctx.note_shared_access(warps as u64);
    ctx.barrier();

    // --- Phase 3: apply warp and thread offsets to every element ---------
    for t in 0..threads {
        let w = t / warp_width;
        let lane = t % warp_width;
        // Exclusive offset for this thread: block prefix up to its warp,
        // plus the warp prefix up to its lane.
        let mut offset: Option<T> = None;
        if w > 0 {
            offset = Some(warp_totals[w - 1]);
        }
        if lane > 0 {
            let lane_prefix = thread_totals[w * warp_width + lane - 1];
            offset = Some(match offset {
                Some(o) => op.combine(o, lane_prefix),
                None => lane_prefix,
            });
        }
        ctx.note_shared_access(1);
        if let Some(o) = offset {
            let regs = &mut values[t * ipt..(t + 1) * ipt];
            for r in regs.iter_mut() {
                *r = op.combine(o, *r);
            }
            m.add_compute(ipt as u64);
        }
    }

    // Block total: last warp's scanned total.
    warp_totals[warps - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Sum};
    use gpu_sim::{DeviceSpec, GlobalBuffer, Gpu};

    /// Runs the lockstep scan inside a real launch and returns the result
    /// plus the metrics snapshot.
    fn run(values: Vec<i64>, threads: usize) -> (Vec<i64>, i64, gpu_sim::MetricsSnapshot) {
        let gpu = Gpu::new(DeviceSpec::titan_x());
        let out = GlobalBuffer::from_vec(vec![0i64; values.len()]);
        let total_buf = GlobalBuffer::filled(1, 0i64);
        gpu.launch(1, threads, |ctx| {
            let mut vals = values.clone();
            let total = block_scan_lockstep(ctx, &mut vals, threads, &Sum);
            for (i, v) in vals.iter().enumerate() {
                out.set(i, *v);
            }
            total_buf.set(0, total);
        });
        (out.to_vec(), total_buf.get(0), gpu.metrics().snapshot())
    }

    #[test]
    fn matches_serial_scan() {
        let n = 1024 * 4;
        let values: Vec<i64> = (0..n as i64).map(|i| i % 23 - 11).collect();
        let (scanned, total, _) = run(values.clone(), 1024);
        let expect = crate::serial::prefix_sum(&values);
        assert_eq!(scanned, expect);
        assert_eq!(total, *expect.last().expect("non-empty"));
    }

    #[test]
    fn single_item_per_thread() {
        let values: Vec<i64> = (1..=256).collect();
        let (scanned, total, _) = run(values, 256);
        assert_eq!(total, 256 * 257 / 2);
        assert_eq!(scanned[0], 1);
        assert_eq!(scanned[255], total);
    }

    #[test]
    fn works_with_max_operator() {
        let gpu = Gpu::new(DeviceSpec::k40());
        gpu.launch(1, 64, |ctx| {
            let mut vals: Vec<i32> = (0..128).map(|i| (i * 37) % 100).collect();
            let expect = crate::serial::scan(&vals, &Max, &crate::ScanSpec::inclusive());
            let total = block_scan_lockstep(ctx, &mut vals, 64, &Max);
            assert_eq!(vals, expect);
            assert_eq!(total, *expect.last().unwrap());
        });
    }

    /// The executable specification check: the lockstep implementation's
    /// *real* instruction mix stays close to the closed-form accounting
    /// the production kernel charges.
    #[test]
    fn cost_accounting_matches_lockstep_reality() {
        let threads = 1024usize;
        let ipt = 8usize;
        let n = threads * ipt;
        let values: Vec<i64> = (0..n as i64).collect();
        let (_, _, real) = run(values, threads);

        let gpu = Gpu::new(DeviceSpec::titan_x());
        gpu.launch(1, threads, |ctx| {
            crate::kernel::account_block_scan(ctx.metrics(), ctx, n, threads);
        });
        let modeled = gpu.metrics().snapshot();

        let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / (a.max(b).max(1) as f64);
        assert!(
            rel(real.compute_ops, modeled.compute_ops) < 0.25,
            "compute: real {} vs modeled {}",
            real.compute_ops,
            modeled.compute_ops
        );
        assert!(
            rel(real.shuffles, modeled.shuffles) < 0.25,
            "shuffles: real {} vs modeled {}",
            real.shuffles,
            modeled.shuffles
        );
    }

    #[test]
    #[should_panic(expected = "fill warps")]
    fn ragged_thread_count_rejected() {
        let gpu = Gpu::new(DeviceSpec::titan_x());
        gpu.launch(1, 1024, |ctx| {
            let mut vals = vec![0i64; 48];
            block_scan_lockstep(ctx, &mut vals, 48, &Sum);
        });
    }
}
