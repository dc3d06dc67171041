//! Grid launches.
//!
//! Two launch shapes cover every algorithm in the paper:
//!
//! * [`Gpu::launch`] — a conventional grid of independent blocks with an
//!   implicit global barrier at the end (used by the multi-kernel
//!   three-phase algorithms). Blocks may not communicate, so the simulator
//!   executes them sequentially and deterministically.
//! * [`Gpu::launch_persistent`] — exactly `k = m * b` persistent blocks that
//!   *do* communicate through global memory (SAM, chained carries, CUB's
//!   decoupled look-back). Each block runs on its own OS thread so the
//!   flag/fence publication protocol is exercised with real concurrency.

use crate::block::BlockContext;
use crate::device::DeviceSpec;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::sched::{self, Scheduler};
use crate::trace::EventLog;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A simulated GPU: a [`DeviceSpec`] plus live [`Metrics`].
///
/// # Examples
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec, GlobalBuffer, AccessClass};
///
/// let gpu = Gpu::new(DeviceSpec::titan_x());
/// let data = GlobalBuffer::from_vec(vec![1i32; 1024]);
/// let out = GlobalBuffer::filled(1024, 0i32);
/// gpu.launch(4, 256, |ctx| {
///     let m = ctx.metrics();
///     let base = ctx.block * 256;
///     let mut regs = vec![0i32; 256];
///     data.load_block(m, base, &mut regs, AccessClass::Element);
///     for r in &mut regs { *r += 1; }
///     m.add_compute(256);
///     out.store_block(m, base, &regs, AccessClass::Element);
/// });
/// assert!(out.to_vec().iter().all(|&x| x == 2));
/// assert_eq!(gpu.metrics().snapshot().kernel_launches, 1);
/// ```
#[derive(Debug)]
pub struct Gpu {
    spec: DeviceSpec,
    metrics: Metrics,
    trace: Option<EventLog>,
    sched: Option<Arc<Scheduler>>,
}

impl Gpu {
    /// Creates a simulated GPU from a device description.
    pub fn new(spec: DeviceSpec) -> Self {
        Gpu {
            spec,
            metrics: Metrics::new(),
            trace: None,
            sched: None,
        }
    }

    /// Creates a simulated GPU with execution tracing enabled
    /// ([`crate::trace::EventLog`]); kernels that emit events will record
    /// their pipeline schedule.
    pub fn with_trace(spec: DeviceSpec) -> Self {
        Gpu {
            spec,
            metrics: Metrics::new(),
            trace: Some(EventLog::new()),
            sched: None,
        }
    }

    /// Attaches a schedule-exploration [`Scheduler`] ([`crate::sched`]):
    /// every persistent block of subsequent launches runs under its
    /// injection, recording, or replay regime.
    pub fn with_scheduler(mut self, sched: Arc<Scheduler>) -> Self {
        self.sched = Some(sched);
        self
    }

    /// The attached scheduler, if any.
    pub fn scheduler(&self) -> Option<&Arc<Scheduler>> {
        self.sched.as_ref()
    }

    /// The attached event log, if tracing is enabled.
    pub fn trace(&self) -> Option<&EventLog> {
        self.trace.as_ref()
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The live metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Takes the metrics, returning the counts accumulated since the last
    /// take and resetting them — in one atomic swap per counter, so counts
    /// added by a concurrent launch land either in this snapshot or the
    /// next, never lost (see [`Metrics::take`]).
    pub fn take_metrics(&self) -> MetricsSnapshot {
        self.metrics.take()
    }

    /// Launches a grid of `grid_blocks` independent blocks of
    /// `threads_per_block` threads. Blocks must not communicate; the launch
    /// returns after every block has run (the implicit global barrier at the
    /// end of a grid).
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_block` is zero or exceeds the device limit.
    pub fn launch<F>(&self, grid_blocks: usize, threads_per_block: usize, kernel: F)
    where
        F: Fn(&mut BlockContext<'_>),
    {
        assert!(threads_per_block > 0, "threads_per_block must be positive");
        assert!(
            threads_per_block <= self.spec.threads_per_block as usize,
            "threads_per_block {} exceeds device limit {}",
            threads_per_block,
            self.spec.threads_per_block
        );
        self.metrics.add_launch();
        let cancelled = AtomicBool::new(false);
        for b in 0..grid_blocks {
            let mut ctx = BlockContext::new(
                b,
                grid_blocks,
                threads_per_block,
                &self.spec,
                &self.metrics,
                &cancelled,
            )
            .with_trace(self.trace.as_ref());
            kernel(&mut ctx);
        }
    }

    /// Launches `k = m * b` persistent blocks, each on its own OS thread.
    ///
    /// This is the persistent-thread model of Section 2: the kernel queries
    /// the hardware, launches only as many blocks as can be simultaneously
    /// resident, and assigns multiple work items (chunks) to each block.
    /// Blocks may communicate through [`crate::AtomicWordBuffer`]s; polls
    /// yield the OS thread so forward progress does not depend on the host
    /// core count.
    ///
    /// # Panics
    ///
    /// Propagates panics from kernel threads after all threads have been
    /// joined. The cancellation flag is raised on first panic, and because
    /// every [`crate::AtomicWordBuffer`] flag operation is a cancellation
    /// point ([`crate::sched::with_hook`]), sibling blocks stuck polling a
    /// flag the dead block will never publish unwind cooperatively instead
    /// of spinning forever; the propagated payload is the original panic,
    /// not the cooperative [`crate::sched::Cancelled`] unwinds it caused.
    pub fn launch_persistent<F>(&self, kernel: F)
    where
        F: Fn(&mut BlockContext<'_>) + Sync,
    {
        let k = self.spec.persistent_blocks() as usize;
        self.launch_persistent_with(k, self.spec.threads_per_block as usize, kernel);
    }

    /// Persistent launch with explicit geometry (used by tests and by
    /// algorithms that deliberately under-occupy the device).
    pub fn launch_persistent_with<F>(&self, blocks: usize, threads_per_block: usize, kernel: F)
    where
        F: Fn(&mut BlockContext<'_>) + Sync,
    {
        assert!(blocks > 0, "persistent launch needs at least one block");
        assert!(threads_per_block > 0, "threads_per_block must be positive");
        self.metrics.add_launch();
        let cancelled = Arc::new(AtomicBool::new(false));
        let result = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(blocks);
            for b in 0..blocks {
                let spec = &self.spec;
                let metrics = &self.metrics;
                let kernel = &kernel;
                let cancelled = &cancelled;
                let trace = self.trace.as_ref();
                let sched = self.sched.clone();
                handles.push(scope.spawn(move || {
                    // Install the per-thread hook context first: its guard
                    // raises the cancellation flag if this block panics, so
                    // sibling blocks stuck polling a flag this block will
                    // never publish unwind instead of spinning forever.
                    let _guard = sched::enter_block(b, blocks, sched, Arc::clone(cancelled));
                    let mut ctx = BlockContext::new(
                        b,
                        blocks,
                        threads_per_block,
                        spec,
                        metrics,
                        cancelled.as_ref(),
                    )
                    .with_trace(trace);
                    kernel(&mut ctx);
                }));
            }
            // Prefer the originating panic over the cooperative Cancelled
            // unwinds it triggered in sibling blocks.
            sched::join_workers(handles)
        });
        if let Some(p) = result {
            std::panic::resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{AtomicWordBuffer, GlobalBuffer};
    use crate::metrics::AccessClass;

    #[test]
    fn sequential_grid_launch_runs_all_blocks() {
        let gpu = Gpu::new(DeviceSpec::titan_x());
        let out = GlobalBuffer::filled(16, 0usize);
        gpu.launch(16, 32, |ctx| {
            out.set(ctx.block, ctx.block * 10);
        });
        assert_eq!(out.to_vec(), (0..16).map(|b| b * 10).collect::<Vec<_>>());
    }

    #[test]
    fn launch_counts_one_launch_per_grid() {
        let gpu = Gpu::new(DeviceSpec::k40());
        gpu.launch(4, 64, |_| {});
        gpu.launch(4, 64, |_| {});
        assert_eq!(gpu.metrics().snapshot().kernel_launches, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn launch_rejects_oversized_blocks() {
        let gpu = Gpu::new(DeviceSpec::c1060()); // limit 512
        gpu.launch(1, 1024, |_| {});
    }

    #[test]
    fn persistent_launch_uses_k_blocks() {
        let gpu = Gpu::new(DeviceSpec::titan_x());
        let seen = AtomicWordBuffer::zeroed(64);
        gpu.launch_persistent(|ctx| {
            assert_eq!(ctx.grid_blocks, 48);
            seen.poke(ctx.block, 1u64);
        });
        let marks: u64 = (0..48).map(|i| seen.peek::<u64>(i)).sum();
        assert_eq!(marks, 48);
    }

    /// Blocks communicate through a flag protocol: block b waits for b-1.
    #[test]
    fn persistent_blocks_communicate_via_flags() {
        let gpu = Gpu::new(DeviceSpec::titan_x());
        let k = gpu.spec().persistent_blocks() as usize;
        let flags = AtomicWordBuffer::zeroed(k + 1);
        let sums = AtomicWordBuffer::zeroed(k + 1);
        flags.poke(0, 1u64);
        sums.poke(0, 0i64);
        gpu.launch_persistent(|ctx| {
            let m = ctx.metrics();
            let b = ctx.block;
            flags.poll(m, b, |f| f >= 1);
            let prev: i64 = sums.load(m, b);
            sums.store(m, b + 1, prev + b as i64);
            ctx.threadfence();
            flags.store(m, b + 1, 1u64);
        });
        let total: i64 = sums.peek(k);
        assert_eq!(total, (0..k as i64).sum::<i64>());
    }

    #[test]
    fn take_metrics_resets() {
        let gpu = Gpu::new(DeviceSpec::k40());
        gpu.launch(1, 32, |ctx| ctx.metrics().add_compute(5));
        let s = gpu.take_metrics();
        assert_eq!(s.compute_ops, 5);
        assert_eq!(gpu.metrics().snapshot().compute_ops, 0);
    }

    #[test]
    fn grid_kernel_sees_geometry() {
        let gpu = Gpu::new(DeviceSpec::titan_x());
        let out = GlobalBuffer::filled(3, (0usize, 0usize));
        gpu.launch(3, 128, |ctx| {
            out.set(ctx.block, (ctx.grid_blocks, ctx.threads));
        });
        assert!(out.to_vec().iter().all(|&(g, t)| g == 3 && t == 128));
    }

    #[test]
    fn memcpy_kernel_moves_2n_words() {
        // The cudaMemcpy roof: read each word once, write it once.
        let gpu = Gpu::new(DeviceSpec::titan_x());
        let n = 4096usize;
        let src = GlobalBuffer::from_vec((0..n as i32).collect());
        let dst = GlobalBuffer::filled(n, 0i32);
        let threads = 256usize;
        let blocks = n / threads;
        gpu.launch(blocks, threads, |ctx| {
            let m = ctx.metrics();
            let base = ctx.block * threads;
            let mut regs = vec![0i32; threads];
            src.load_block(m, base, &mut regs, AccessClass::Element);
            dst.store_block(m, base, &regs, AccessClass::Element);
        });
        assert_eq!(dst.to_vec(), src.to_vec());
        let s = gpu.metrics().snapshot();
        assert_eq!(s.elem_words(), 2 * n as u64);
        // Fully coalesced: n*4/128 segments each direction.
        assert_eq!(s.elem_transactions(), 2 * (n as u64 * 4).div_ceil(128));
    }
}
