//! Multi-threaded SAM on host CPU threads.
//!
//! This is the paper's protocol transplanted to a multicore CPU: `k`
//! workers stand in for the persistent thread blocks, each processing
//! every `k`-th chunk; local per-lane sums are published to auxiliary
//! arrays followed by a release of the chunk's ready counter, and
//! consumers poll only not-yet-ready counters, then redundantly
//! accumulate up to `k - 1` predecessor sums into their carry (Figure 2's
//! write-followed-by-independent-reads pattern).
//!
//! Unlike a GPU, the host gives no fairness guarantee strong enough to
//! bound how far a worker can run ahead, so the auxiliary arrays are sized
//! one slot per chunk (a few kilobytes per million elements) rather than as
//! `3k`-entry circular buffers; see [`crate::kernel::AuxMode`] for the
//! paper-faithful ring variant on the simulator.
//!
//! Carries are always folded in chunk order, so scans with merely
//! pseudo-associative operators (floating-point addition) are deterministic
//! for a given worker count and chunk size — the property Section 3.1
//! contrasts with CUB.
//!
//! # Persistent workers
//!
//! The calling thread is worker 0. Workers `1..k` are threads of one
//! process-wide pool (named `sam-scan-<b>`), spawned on the first scan
//! that needs them and parked between scans: a scan publishes its worker
//! body, unparks the pool workers it needs, runs worker 0 itself and
//! returns once every one of them has finished the job. The pool only
//! grows, to the largest `k - 1` any scan has used, so the process's
//! thread count is bounded by the widest scan, not by the number of
//! scanners or plans. The pool also owns the carry arena, the per-chunk
//! sum slots and ready counters its workers publish through. One scan
//! leases pool and arena together at a time (one `try_lock`); a scan that
//! finds them busy — a concurrent scan, or one nested inside a worker —
//! runs workers `1..k` on threads scoped to the call, with an arena local
//! to the call, so it never waits for the pool.
//!
//! # Steady-state allocation behaviour
//!
//! [`CpuScanner::scan_into`] performs **no per-chunk heap allocation**:
//! each chunk is scanned directly in the caller's output buffer through the
//! fused chunk kernels (the [`ChunkKernel`] cascade sweeps, or
//! [`chunkops::scan_chunk_from`] for the iterated protocol; no staging copy
//! of the input), per-worker lane scratch is allocated once per scan, and
//! the auxiliary sum/ready arrays live in the pool's grow-only arena —
//! after the first scan of a given geometry by any scanner, repeated scans
//! allocate only the per-worker scratch and create no thread. Like the
//! pool's threads, the arena never shrinks: it holds `1 + q * s` 8-byte
//! words per chunk of the largest scan so far, so with the default
//! 32 Ki-element chunks of 8-byte elements its size is `(1 + q * s) /
//! 32768` of that scan's output, 1/4096 at `q * s = 7`.

use crate::chunk_kernel::{ChunkKernel, SegmentHandoff};
use crate::chunkops;
use crate::config::{ScanKind, ScanSpec};
use crate::obs::{self, Phase, TraceSink};
use gpu_sim::sched::{self, HookPoint};
use gpu_sim::{Pod64, Scheduler};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// A reusable multi-threaded scanner with configurable worker count and
/// chunk size.
///
/// # Examples
///
/// ```
/// use sam_core::{cpu::CpuScanner, op::Sum, ScanSpec};
///
/// let scanner = CpuScanner::new(4).with_chunk_elems(1024);
/// let input: Vec<i64> = (0..10_000).map(|i| i % 7 - 3).collect();
/// let spec = ScanSpec::inclusive().with_order(2).unwrap();
/// let parallel = scanner.scan(&input, &Sum, &spec);
/// assert_eq!(parallel, sam_core::serial::scan(&input, &Sum, &spec));
/// ```
#[derive(Clone, Debug)]
pub struct CpuScanner {
    workers: usize,
    chunk_elems: usize,
    /// Optional schedule-exploration scheduler (`gpu_sim::sched`): when
    /// set, every worker's ready-counter publish and wait probe becomes an
    /// injection / recording / replay point.
    sched: Option<Arc<Scheduler>>,
    /// Optional observability sink ([`crate::obs`]): when set, workers
    /// record per-chunk phase spans and the scan charges its element
    /// traffic. `None` costs one branch per hook site.
    trace: Option<Arc<TraceSink>>,
}

/// The default chunk size in elements — a fallback seed only: adaptive
/// plans ([`crate::plan::PlanHint::adaptive`]) treat it as the starting
/// point of the chunk-size search, not as a tuned truth.
pub(crate) const DEFAULT_CHUNK_ELEMS: usize = 32 * 1024;

/// The host's hardware thread count, probed once per process.
pub(crate) fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

impl Default for CpuScanner {
    /// One worker per available hardware thread, 32Ki-element chunks.
    fn default() -> Self {
        CpuScanner {
            workers: host_threads(),
            chunk_elems: DEFAULT_CHUNK_ELEMS,
            sched: None,
            trace: None,
        }
    }
}

impl CpuScanner {
    /// Creates a scanner that runs each scan on up to `workers` threads:
    /// the calling thread and `workers - 1` persistent pool workers (see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker count must be positive");
        CpuScanner {
            workers,
            ..CpuScanner::default()
        }
    }

    /// Sets the chunk size in elements.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_elems` is zero.
    pub fn with_chunk_elems(mut self, chunk_elems: usize) -> Self {
        assert!(chunk_elems > 0, "chunk size must be positive");
        self.chunk_elems = chunk_elems;
        self
    }

    /// Attaches a schedule-exploration scheduler
    /// ([`gpu_sim::sched::Scheduler`]): subsequent scans run every
    /// worker's ready-counter publish and wait probe under its injection,
    /// recording, or replay regime. Used by the hostile-scheduler tests
    /// and the `sched_stress` sweep.
    pub fn with_scheduler(mut self, sched: Arc<Scheduler>) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Attaches an observability sink ([`crate::obs::TraceSink`]):
    /// subsequent scans record per-chunk phase spans (kernel execution,
    /// carry publish/wait/apply), feed the carry-wait histogram, and charge
    /// their element traffic to the sink's metrics. Normally wired up by
    /// [`crate::plan::ScanPlan::new`] on traced plans; clones keep the
    /// sink.
    pub fn with_trace_sink(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured chunk size in elements.
    pub fn chunk_elems(&self) -> usize {
        self.chunk_elems
    }

    /// Scans `input` according to `spec` with operator `op`.
    pub fn scan<T, Op>(&self, input: &[T], op: &Op, spec: &ScanSpec) -> Vec<T>
    where
        T: Pod64,
        Op: ChunkKernel<T>,
    {
        let mut out = vec![op.identity(); input.len()];
        self.scan_into(input, &mut out, op, spec);
        out
    }

    /// Scans `input` into a caller-provided buffer of the same length.
    ///
    /// The steady state is allocation-free per chunk: chunks are scanned
    /// directly in `out` via the fused chunk kernels, and the
    /// auxiliary arrays come from the worker pool's grow-only arena (see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != input.len()`.
    pub fn scan_into<T, Op>(&self, input: &[T], out: &mut [T], op: &Op, spec: &ScanSpec)
    where
        T: Pod64,
        Op: ChunkKernel<T>,
    {
        self.scan_into_geom(input, out, op, spec, self.workers, self.chunk_elems);
    }

    /// [`CpuScanner::scan_into`] with an explicit geometry — worker count
    /// and chunk size — overriding the scanner's configuration for this
    /// one call. This is the entry point adaptive plans ([`crate::adapt`])
    /// explore geometries through; the worker pool is shared by every
    /// scanner and grows to the widest scan, so a per-call worker count is
    /// safe.
    ///
    /// For exactly-associative operators every geometry is bit-identical;
    /// for merely pseudo-associative operators (floats) the chunk
    /// decomposition is observable, which is why adaptive plans only vary
    /// geometry under [`ChunkKernel::supports_cascade`] operators.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != input.len()`, `workers == 0`, or
    /// `chunk_elems == 0`.
    pub(crate) fn scan_into_geom<T, Op>(
        &self,
        input: &[T],
        out: &mut [T],
        op: &Op,
        spec: &ScanSpec,
        workers: usize,
        chunk_elems: usize,
    ) where
        T: Pod64,
        Op: ChunkKernel<T>,
    {
        assert_eq!(input.len(), out.len(), "output length must match input");
        assert!(workers > 0, "worker count must be positive");
        assert!(chunk_elems > 0, "chunk size must be positive");
        let n = input.len();
        if n == 0 {
            return;
        }
        if let Some(sink) = &self.trace {
            // One communication-optimal pass, charged at whole-array
            // granularity so transaction counts stay order-independent
            // (see `obs::charge_elem_pass`). Covers every path below.
            obs::charge_elem_pass(sink.metrics(), n, std::mem::size_of::<T>());
        }
        let cascade = op.supports_cascade();
        let (q, s) = (spec.order() as usize, spec.tuple());
        // The cascade's carry plan needs lane-aligned chunks (see
        // `scan_into_cascade`).
        let chunk_elems = if cascade {
            chunk_elems.div_ceil(s) * s
        } else {
            chunk_elems
        };
        let num_chunks = chunkops::num_chunks(n, chunk_elems);
        let k = workers.min(num_chunks);
        if k == 1 {
            // Single worker: the fused serial kernels, reading the input
            // exactly once and writing only `out`.
            obs::timed(self.trace.as_deref(), 0, 0, Phase::ChunkScan, || {
                crate::serial::scan_into(input, out, op, spec)
            });
            return;
        }
        // Streaming stores are decided here, once, from the scan's output
        // size — a chunk's span is L2-sized even when the scan is DRAM-sized
        // — under whatever scoped threshold the calling plan installed.
        let stream = std::mem::size_of_val(out) >= crate::simd::nt_store_min_bytes();
        let geom = Geometry {
            k,
            num_chunks,
            chunk_elems,
            n,
            qs: q * s,
            stream,
        };
        if cascade {
            // Single-pass protocol: all q*s local sums published from one
            // sweep, one ready round per chunk, binomial-weighted carries.
            self.scan_into_cascade(input, out, op, spec, geom);
        } else {
            self.scan_into_iterated(input, out, op, spec, geom);
        }
    }

    /// Runs one multi-worker scan over `geom` — the scaffold both publish
    /// protocols share. One lease of the process-wide [`POOL`] decides
    /// where workers `1..k` run and which arena they publish through: the
    /// pool's workers and its arena, or, when the pool is busy, threads
    /// scoped to the call and an arena local to it. The arena is prepared
    /// with `q * s` sum slots per chunk, and the calling thread runs worker
    /// 0. Each worker installs the scan's streaming-store decision
    /// (`geom.stream`) and enters the scheduler's block, then runs `worker`
    /// over the chunks it owns; both guards restore the thread's state when
    /// the worker ends. Returns once every worker has returned or unwound,
    /// then propagates the originating panic, if any
    /// ([`sched::originating_panic`]).
    fn run_workers<T, F>(&self, out: &mut [T], geom: Geometry, worker: F)
    where
        T: Send,
        F: Fn(&Worker<'_>, Chunks<'_, T>) + Sync,
    {
        let (chunks, slots) = (geom.num_chunks, geom.num_chunks * geom.qs);
        let (mut lease, mut local) = (POOL.lease(geom.k - 1), Arena::default());
        lease
            .as_deref_mut()
            .unwrap_or(&mut local)
            .prepare(chunks, slots);
        let arena = lease.as_deref().unwrap_or(&local);
        let (sums, ready) = (&arena.sums[..slots], &arena.ready[..chunks]);
        let out = &SyncSlice(out.as_mut_ptr());
        let cancel = Arc::new(AtomicBool::new(false));
        let block = |b: usize| {
            let _stream = crate::simd::scan_streams(geom.stream);
            // The guard raises `cancel` if this worker panics, so siblings
            // blocked in `wait_for` on a ready counter this worker will
            // never bump unwind cooperatively instead of spinning forever.
            let _guard = sched::enter_block(b, geom.k, self.sched.clone(), Arc::clone(&cancel));
            let w = Worker {
                b,
                sums,
                ready,
                cancel: &cancel,
                sink: self.trace.as_deref(),
            };
            worker(&w, Chunks { out, next: b, geom });
        };
        let payload = match &lease {
            Some(held) => POOL.run(held, geom.k, &block),
            None => std::thread::scope(|scope| {
                let block = &block;
                let handles: Vec<_> = (1..geom.k).map(|b| scope.spawn(move || block(b))).collect();
                let own = catch_unwind(AssertUnwindSafe(|| block(0))).err();
                let theirs = handles.into_iter().filter_map(|h| h.join().err());
                sched::originating_panic(own.into_iter().chain(theirs))
            }),
        };
        // Release the lease before unwinding, so a propagated panic does
        // not poison it.
        drop(lease);
        if let Some(p) = payload {
            std::panic::resume_unwind(p);
        }
    }

    /// The iterated `q`-round protocol, for operators without the cascade:
    /// per chunk and order, a local scan, a published round of per-lane
    /// totals, and a carry apply (an exclusive rewrite on the last round
    /// of an exclusive spec).
    fn scan_into_iterated<T, Op>(
        &self,
        input: &[T],
        out: &mut [T],
        op: &Op,
        spec: &ScanSpec,
        geom: Geometry,
    ) where
        T: Pod64,
        Op: ChunkKernel<T>,
    {
        let (q, s) = (spec.order() as usize, spec.tuple());
        let exclusive = spec.kind() == ScanKind::Exclusive;
        // Sum slot for (chunk c, iteration i, lane l).
        let sum_idx = |c: usize, iter: usize, lane: usize| (c * q + iter) * s + lane;
        self.run_workers(out, geom, |w, chunks| {
            let (b, k, sink) = (w.b, geom.k, w.sink);
            // Per-worker lane scratch, allocated once per scan: carry/totals
            // of this block's previous chunk per iteration (flattened
            // `q * s`), plus the working carry/totals of the current
            // iteration.
            let mut prev_carry: Vec<T> = vec![op.identity(); q * s];
            let mut prev_totals: Vec<T> = vec![op.identity(); q * s];
            let mut carry: Vec<T> = vec![op.identity(); s];
            let mut totals: Vec<T> = vec![op.identity(); s];

            for (c, range, chunk) in chunks {
                let base = range.start;
                for iter in 0..q {
                    // Local strided scan + per-lane totals. The first
                    // iteration reads the input in the same pass that
                    // writes the output chunk.
                    obs::timed(sink, b, c as u64, Phase::ChunkScan, || {
                        if iter == 0 {
                            let src = &input[range.clone()];
                            chunkops::scan_chunk_from(src, chunk, base, s, &mut totals, op);
                        } else {
                            chunkops::scan_chunk(chunk, base, s, &mut totals, op);
                        }
                    });

                    // Publish local sums, release the ready counter.
                    obs::timed(sink, b, c as u64, Phase::CarryPublish, || {
                        for (lane, &t) in totals.iter().enumerate() {
                            w.sums[sum_idx(c, iter, lane)].store(t.to_bits(), Ordering::Relaxed);
                        }
                        sched::with_hook(HookPoint::FlagStore { idx: c }, || {
                            w.ready[c].store((iter + 1) as u64, Ordering::Release);
                        });
                    });

                    // Gather predecessors (Figure 2): start from the carry +
                    // local sums this worker produced `k` chunks ago, then
                    // fold the `k - 1` in between.
                    let first_pred = c.saturating_sub(k - 1);
                    obs::timed(sink, b, c as u64, Phase::CarryWait, || {
                        if c >= k {
                            for l in 0..s {
                                carry[l] =
                                    op.combine(prev_carry[iter * s + l], prev_totals[iter * s + l]);
                            }
                        } else {
                            for slot in carry.iter_mut() {
                                *slot = op.identity();
                            }
                        }
                        for j in first_pred..c {
                            wait_for(&w.ready[j], (iter + 1) as u64, j, w.cancel);
                            for (l, slot) in carry.iter_mut().enumerate() {
                                let bits = w.sums[sum_idx(j, iter, l)].load(Ordering::Relaxed);
                                *slot = op.combine(*slot, T::from_bits(bits));
                            }
                        }
                    });

                    prev_totals[iter * s..iter * s + s].copy_from_slice(&totals);
                    prev_carry[iter * s..iter * s + s].copy_from_slice(&carry);

                    obs::timed(sink, b, c as u64, Phase::CarryApply, || {
                        if iter + 1 == q && exclusive {
                            // The chunk holds its pre-carry local scan;
                            // rewrite it into exclusive outputs in place.
                            chunkops::exclusive_rewrite(chunk, base, &carry, op);
                        } else {
                            chunkops::apply_carry(chunk, base, &carry, op);
                        }
                    });
                }
            }
        });
    }

    /// The single-pass higher-order protocol (cascade + binomial carry
    /// algebra, see [`crate::carry`]); requires
    /// [`ChunkKernel::supports_cascade`].
    ///
    /// Per chunk a worker makes two sweeps of L2-resident data instead of
    /// the multi-pass path's `q`:
    ///
    /// 1. **publish** — a totals-only cascade from a zero seed yields all
    ///    `q * s` per-order/per-lane local sums in one read of the input;
    ///    they are published together and the ready counter released
    ///    *once*, cutting cross-worker wait rounds per chunk from `q` to 1;
    /// 2. **resolve + output** — the seed state is assembled from the
    ///    worker's own previous end state (advanced `k - 1` chunk distances
    ///    by the binomial weight matrix) plus each published predecessor
    ///    (folded at its distance), and a seeded cascade re-reads the input
    ///    and writes the final outputs directly — exclusive handled inline,
    ///    no rewrite pass.
    ///
    /// The chunk size is a multiple of `s` (rounded up by the caller) so
    /// every chunk base is lane-aligned and every chunk-to-chunk lane
    /// distance is the uniform `chunk_elems / s` (the carry-plan
    /// requirement; the last chunk may be short but is never a
    /// predecessor).
    fn scan_into_cascade<T, Op>(
        &self,
        input: &[T],
        out: &mut [T],
        op: &Op,
        spec: &ScanSpec,
        geom: Geometry,
    ) where
        T: Pod64,
        Op: ChunkKernel<T>,
    {
        let (q, s) = (spec.order() as usize, spec.tuple());
        let exclusive = spec.kind() == ScanKind::Exclusive;
        let lane_elems = (geom.chunk_elems / s) as u64;
        let qs = geom.qs;
        self.run_workers(out, geom, |w, chunks| {
            let (b, k, sink) = (w.b, geom.k, w.sink);
            let plan = crate::carry::CarryPlan::new(op, q, lane_elems, k);
            // Working seed state, this worker's previous chunk's end state,
            // the publish-sweep totals, and a predecessor-read scratch row —
            // all q x s, allocated once per scan — and what each chunk's
            // first sweep hands to its second.
            let mut state: Vec<T> = vec![op.identity(); qs];
            let mut own_end: Vec<T> = vec![op.identity(); qs];
            let mut totals: Vec<T> = vec![op.identity(); qs];
            let mut pred: Vec<T> = vec![op.identity(); qs];
            let mut handoff = SegmentHandoff::default();

            for (c, range, chunk) in chunks {
                let base = range.start;
                let src = &input[range];

                // Sweep 1: local per-order totals, published once.
                obs::timed(sink, b, c as u64, Phase::ChunkScan, || {
                    for t in totals.iter_mut() {
                        *t = op.identity();
                    }
                    op.cascade_totals(src, base, s, &mut totals, Some(&mut handoff));
                });
                obs::timed(sink, b, c as u64, Phase::CarryPublish, || {
                    let sum_base = c * qs;
                    for (i, &t) in totals.iter().enumerate() {
                        w.sums[sum_base + i].store(t.to_bits(), Ordering::Relaxed);
                    }
                    sched::with_hook(HookPoint::FlagStore { idx: c }, || {
                        w.ready[c].store(1, Ordering::Release);
                    });
                });

                // Assemble the seed state (one carry round).
                obs::timed(sink, b, c as u64, Phase::CarryWait, || {
                    if c >= k {
                        state.copy_from_slice(&own_end);
                        plan.advance(op, k - 1, &mut state, s);
                    } else {
                        for v in state.iter_mut() {
                            *v = op.identity();
                        }
                    }
                    let first_pred = c.saturating_sub(k - 1);
                    for (p, flag) in w.ready.iter().enumerate().take(c).skip(first_pred) {
                        wait_for(flag, 1, p, w.cancel);
                        let pb = p * qs;
                        for (i, slot) in pred.iter_mut().enumerate() {
                            *slot = T::from_bits(w.sums[pb + i].load(Ordering::Relaxed));
                        }
                        plan.fold(op, c - 1 - p, &pred, &mut state, s);
                    }
                });

                // Sweep 2: seeded cascade re-reads the (L2-resident) input
                // and writes the final outputs.
                obs::timed(sink, b, c as u64, Phase::CarryApply, || {
                    op.cascade_scan_from(
                        src,
                        chunk,
                        base,
                        s,
                        &mut state,
                        exclusive,
                        Some(&handoff),
                    );
                });
                own_end.copy_from_slice(&state);
            }
        });
    }
}

/// The chunking of one multi-worker scan: `k` workers, `n` elements,
/// `qs` (`q * s`) sum slots per chunk, and whether its out-of-place chunk
/// sweeps use streaming stores.
#[derive(Clone, Copy)]
struct Geometry {
    k: usize,
    num_chunks: usize,
    chunk_elems: usize,
    n: usize,
    qs: usize,
    stream: bool,
}

/// Worker `b`, with the sum slots, ready counters and cancel flag it
/// shares with its siblings.
struct Worker<'a> {
    b: usize,
    sums: &'a [AtomicU64],
    ready: &'a [AtomicU64],
    cancel: &'a AtomicBool,
    sink: Option<&'a TraceSink>,
}

/// The output chunks one worker owns — chunks `b, b + k, ...` — each
/// yielded once as its index, element range and slice of the output.
struct Chunks<'a, T> {
    out: &'a SyncSlice<T>,
    next: usize,
    geom: Geometry,
}

impl<'a, T> Iterator for Chunks<'a, T> {
    type Item = (usize, std::ops::Range<usize>, &'a mut [T]);

    fn next(&mut self) -> Option<Self::Item> {
        let c = self.next;
        if c >= self.geom.num_chunks {
            return None;
        }
        self.next += self.geom.k;
        let range = chunkops::chunk_range(c, self.geom.chunk_elems, self.geom.n);
        // SAFETY: each chunk belongs to exactly one worker's iterator
        // (round-robin ownership) and is yielded once, the ranges are
        // disjoint, and `out` outlives every worker (`run_workers` returns
        // only after all of them have finished).
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(self.out.0.add(range.start), range.len()) };
        Some((c, range, chunk))
    }
}

/// Raw output pointer shareable across workers writing disjoint chunk
/// ranges.
struct SyncSlice<T>(*mut T);
// SAFETY: workers write disjoint ranges; see `Chunks`.
unsafe impl<T: Send> Sync for SyncSlice<T> {}
unsafe impl<T: Send> Send for SyncSlice<T> {}

/// A worker body shared by the `k` workers of one scan; called with the
/// worker's index.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// The per-chunk sum slots and ready counters of one scan.
#[derive(Default)]
struct Arena {
    sums: Vec<AtomicU64>,
    ready: Vec<AtomicU64>,
}

impl Arena {
    /// Grows the arrays to the scan's geometry and resets the ready
    /// counters. Sum slots need no reset: they are only read after the
    /// matching ready counter is released in this scan.
    fn prepare(&mut self, chunks: usize, slots: usize) {
        if self.sums.len() < slots {
            self.sums.resize_with(slots, || AtomicU64::new(0));
        }
        if self.ready.len() < chunks {
            self.ready.resize_with(chunks, || AtomicU64::new(0));
        }
        for r in &self.ready[..chunks] {
            r.store(0, Ordering::Relaxed);
        }
    }
}

/// The process-wide worker pool (see the module docs).
static POOL: Pool = Pool {
    lease: Mutex::new(Arena {
        sums: Vec::new(),
        ready: Vec::new(),
    }),
    state: Mutex::new(PoolState {
        epoch: 0,
        job: None,
        k: 0,
        running: 0,
        panics: Vec::new(),
        workers: Vec::new(),
    }),
    done: Condvar::new(),
};

/// Parked threads that run blocks `1..k` of one scan at a time, and the
/// arena they publish through.
struct Pool {
    /// The grow-only arena, held by the scan running on the pool for the
    /// whole scan: holding it is what leases the pool.
    lease: Mutex<Arena>,
    state: Mutex<PoolState>,
    /// Wakes the leasing scan when its last pool worker has finished.
    done: Condvar,
}

struct PoolState {
    /// Bumped once per published job.
    epoch: u64,
    /// The current job, `None` between jobs. Its lifetime is the leasing
    /// scan's (see `Pool::run`).
    job: Option<&'static Job<'static>>,
    /// Worker count of the current job: pool worker `b` joins it iff
    /// `b < k`.
    k: usize,
    /// Pool workers that have not yet finished the current job.
    running: usize,
    /// Panic payloads the current job's pool workers caught.
    panics: Vec<Box<dyn Any + Send>>,
    /// The pool's threads: `workers[b - 1]` is pool worker `b`.
    workers: Vec<std::thread::Thread>,
}

impl Pool {
    fn state(&self) -> MutexGuard<'_, PoolState> {
        // Nothing panics while holding the state lock; recover anyway.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Leases the pool and its arena for one scan, first growing the pool
    /// to `helpers` workers, or `None` when another scan holds it or a
    /// thread cannot be spawned (the caller then spawns scoped threads
    /// and uses an arena of its own).
    fn lease(&'static self, helpers: usize) -> Option<MutexGuard<'static, Arena>> {
        let lease = match self.lease.try_lock() {
            Ok(held) => held,
            // The arena holds nothing across scans (`prepare` resets the
            // ready counters), and block 0 runs under `catch_unwind` while
            // the lease is held.
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        // Pool threads live as long as the process, so their join handles
        // are dropped; every job runs under `catch_unwind`, so no panic
        // goes unseen.
        let mut st = self.state();
        while st.workers.len() < helpers {
            let (b, seen) = (st.workers.len() + 1, st.epoch);
            let spawned = std::thread::Builder::new()
                .name(format!("sam-scan-{b}"))
                .spawn(move || self.serve(b, seen))
                .ok()?;
            st.workers.push(spawned.thread().clone());
        }
        Some(lease)
    }

    /// Runs `block(0)` on the calling thread and `block(1..k)` on pool
    /// workers, returning the originating panic payload, if any, once
    /// every pool worker has finished the job. The caller holds the
    /// pool's `lease` for the whole call, so no other job is published
    /// while this one runs.
    fn run(
        &self,
        _lease: &MutexGuard<'_, Arena>,
        k: usize,
        block: &Job<'_>,
    ) -> Option<Box<dyn Any + Send>> {
        // SAFETY: pool workers call the job only between its publication
        // here and their `running` decrement. The lease keeps any other
        // scan from publishing a job meanwhile. This function neither
        // returns nor unwinds (block 0 runs under `catch_unwind`) before
        // `running` is back to zero, and clears the job first, so `block`
        // outlives every use of the extended reference.
        let job = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(block) };
        {
            let mut st = self.state();
            st.epoch += 1;
            st.job = Some(job);
            st.k = k;
            st.running = k - 1;
            for worker in &st.workers[..k - 1] {
                worker.unpark();
            }
        }
        let own = catch_unwind(AssertUnwindSafe(|| block(0))).err();
        let mut st = self.state();
        while st.running > 0 {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let theirs = std::mem::take(&mut st.panics);
        drop(st);
        sched::originating_panic(own.into_iter().chain(theirs))
    }

    /// Pool worker `b`'s loop: park until a job with more than `b`
    /// workers is published after epoch `seen`, run block `b` of it under
    /// `catch_unwind`, report, and park again. Never spins: a job unparks
    /// only the workers it needs.
    fn serve(&self, b: usize, mut seen: u64) {
        loop {
            let job = {
                let st = self.state();
                match st.job {
                    Some(job) if st.epoch != seen && b < st.k => {
                        seen = st.epoch;
                        job
                    }
                    _ => {
                        drop(st);
                        std::thread::park();
                        continue;
                    }
                }
            };
            let panic = catch_unwind(AssertUnwindSafe(|| job(b))).err();
            let mut st = self.state();
            st.panics.extend(panic);
            st.running -= 1;
            if st.running == 0 {
                self.done.notify_one();
            }
        }
    }
}

/// Spins until `flag` (the ready counter of chunk `chunk`) reaches at
/// least `target`, acquiring its publication.
///
/// The fast path is a single load; the miss path backs off exponentially
/// (doubling bursts of `spin_loop` hints up to ~1k) before falling back to
/// OS yields, so progress never depends on core count and waiting workers
/// leave the memory bus to the one publishing.
///
/// Every probe goes through the scheduler hook
/// ([`gpu_sim::sched::with_hook`]) and the miss path additionally checks
/// `cancel`: if a sibling worker panics before bumping this counter (its
/// guard raises the flag), the wait unwinds with
/// [`gpu_sim::sched::Cancelled`] instead of spinning forever — the hang
/// this harness was built to expose.
#[inline]
fn wait_for(flag: &AtomicU64, target: u64, chunk: usize, cancel: &AtomicBool) {
    let probe = || {
        sched::with_hook(HookPoint::FlagLoad { idx: chunk }, || {
            flag.load(Ordering::Acquire)
        })
    };
    if probe() >= target {
        return;
    }
    wait_for_slow(flag, target, chunk, cancel);
}

#[cold]
fn wait_for_slow(flag: &AtomicU64, target: u64, chunk: usize, cancel: &AtomicBool) {
    let mut burst = 1u32;
    loop {
        for _ in 0..burst {
            std::hint::spin_loop();
        }
        if cancel.load(Ordering::Relaxed) {
            std::panic::panic_any(sched::Cancelled);
        }
        let v = sched::with_hook(HookPoint::FlagLoad { idx: chunk }, || {
            flag.load(Ordering::Acquire)
        });
        if v >= target {
            return;
        }
        if burst < 1024 {
            burst <<= 1;
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Min, Sum, Xor};

    fn pseudo_random(n: usize) -> Vec<i64> {
        let mut state = 0x243f6a8885a308d3u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i64) - (1 << 30)
            })
            .collect()
    }

    /// `Sum` takes the cascade protocol, `Xor` the iterated q-round one.
    fn check(op: &impl ChunkKernel<i64>, n: usize, workers: usize, chunk: usize, spec: &ScanSpec) {
        let input = pseudo_random(n);
        let scanner = CpuScanner::new(workers).with_chunk_elems(chunk);
        let got = scanner.scan(&input, op, spec);
        let expect = crate::serial::scan(&input, op, spec);
        assert_eq!(
            got, expect,
            "n={n} workers={workers} chunk={chunk} spec={spec:?}"
        );
    }

    #[test]
    fn conventional_matches_oracle() {
        check(&Sum, 100_000, 4, 1024, &ScanSpec::inclusive());
    }

    #[test]
    fn exclusive_matches_oracle() {
        check(&Sum, 50_001, 3, 777, &ScanSpec::exclusive());
        check(&Xor, 50_001, 3, 777, &ScanSpec::exclusive());
    }

    #[test]
    fn higher_order_matches_oracle() {
        let spec = ScanSpec::inclusive().with_order(5).unwrap();
        check(&Sum, 30_000, 4, 512, &spec);
        check(&Xor, 30_000, 4, 512, &spec);
    }

    #[test]
    fn tuple_matches_oracle() {
        let spec = ScanSpec::inclusive().with_tuple(8).unwrap();
        // Chunk not a multiple of tuple.
        check(&Sum, 30_000, 4, 500, &spec);
        check(&Xor, 30_000, 4, 500, &spec);
    }

    #[test]
    fn combined_everything() {
        let spec = ScanSpec::exclusive()
            .with_order(3)
            .unwrap()
            .with_tuple(5)
            .unwrap();
        check(&Sum, 25_000, 5, 333, &spec);
        check(&Xor, 25_000, 5, 333, &spec);
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        let input = pseudo_random(20_000);
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        let reference = crate::serial::scan(&input, &Sum, &spec);
        for workers in [1, 2, 3, 7, 16] {
            let got = CpuScanner::new(workers)
                .with_chunk_elems(640)
                .scan(&input, &Sum, &spec);
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn more_workers_than_chunks() {
        check(&Sum, 3000, 64, 1000, &ScanSpec::inclusive());
    }

    #[test]
    fn tiny_inputs() {
        for n in [0, 1, 2, 5] {
            check(&Sum, n, 4, 2, &ScanSpec::inclusive());
        }
    }

    #[test]
    fn other_operators() {
        let input: Vec<u32> = pseudo_random(40_000).iter().map(|&v| v as u32).collect();
        let scanner = CpuScanner::new(4).with_chunk_elems(900);
        let spec = ScanSpec::inclusive();
        assert_eq!(
            scanner.scan(&input, &Max, &spec),
            crate::serial::scan(&input, &Max, &spec)
        );
        assert_eq!(
            scanner.scan(&input, &Min, &spec),
            crate::serial::scan(&input, &Min, &spec)
        );
        assert_eq!(
            scanner.scan(&input, &Xor, &spec),
            crate::serial::scan(&input, &Xor, &spec)
        );
    }

    #[test]
    fn float_scan_is_deterministic_across_runs() {
        let input: Vec<f64> = pseudo_random(50_000)
            .iter()
            .map(|&v| v as f64 * 1e-6)
            .collect();
        let scanner = CpuScanner::new(4).with_chunk_elems(768);
        let spec = ScanSpec::inclusive();
        let a = scanner.scan(&input, &Sum, &spec);
        let b = scanner.scan(&input, &Sum, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn scan_into_reuses_buffer() {
        let input = pseudo_random(10_000);
        let mut out = vec![0i64; input.len()];
        CpuScanner::new(2).with_chunk_elems(512).scan_into(
            &input,
            &mut out,
            &Sum,
            &ScanSpec::inclusive(),
        );
        assert_eq!(
            out,
            crate::serial::scan(&input, &Sum, &ScanSpec::inclusive())
        );
    }

    #[test]
    fn concurrent_scans_on_a_shared_scanner() {
        let scanner = CpuScanner::new(2).with_chunk_elems(128);
        let input = pseudo_random(20_000);
        let spec = ScanSpec::inclusive();
        let expect = crate::serial::scan(&input, &Sum, &spec);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let scanner = &scanner;
                let input = &input;
                let expect = &expect;
                let spec = &spec;
                scope.spawn(move || {
                    for _ in 0..5 {
                        assert_eq!(&scanner.scan(input, &Sum, spec), expect);
                    }
                });
            }
        });
    }

    /// `Sum` that records, for every output sweep, the thread that ran it
    /// and what the kernels' streaming predicate answered for its span.
    #[derive(Default)]
    struct StreamProbe(Mutex<Vec<(std::thread::ThreadId, bool)>>);

    impl crate::op::ScanOp<i64> for StreamProbe {
        fn identity(&self) -> i64 {
            0
        }
        fn combine(&self, a: i64, b: i64) -> i64 {
            a.wrapping_add(b)
        }
    }

    impl ChunkKernel<i64> for StreamProbe {
        fn supports_cascade(&self) -> bool {
            true
        }
        fn carry_weight(&self, w: u64) -> i64 {
            ChunkKernel::<i64>::carry_weight(&Sum, w)
        }
        fn weight_apply(&self, v: i64, w: i64) -> i64 {
            ChunkKernel::<i64>::weight_apply(&Sum, v, w)
        }
        fn cascade_scan_from(
            &self,
            src: &[i64],
            dst: &mut [i64],
            base: usize,
            s: usize,
            state: &mut [i64],
            exclusive: bool,
            handoff: Option<&SegmentHandoff<i64>>,
        ) {
            let stream = crate::simd::streams(std::mem::size_of_val(dst));
            self.0
                .lock()
                .unwrap()
                .push((std::thread::current().id(), stream));
            Sum.cascade_scan_from(src, dst, base, s, state, exclusive, handoff);
        }
    }

    /// Streaming stores are decided per scan: when the scan's output
    /// crosses the threshold, every worker's chunk sweeps stream although
    /// each 32 Ki-element chunk (256 KiB) is below it; when the scan is
    /// below the threshold, none do. And the chunk count is the only
    /// serial/parallel rule: a scan of one chunk sweeps on the calling
    /// thread, however many workers the scanner has.
    #[test]
    fn chunk_sweeps_follow_the_scans_streaming_decision() {
        let _nt = crate::simd::nt_store_override(1 << 20);
        let spec = ScanSpec::inclusive();
        for (n, want) in [(3 << 17, true), (3 << 15, false)] {
            let input = pseudo_random(n);
            let probe = StreamProbe::default();
            let got = CpuScanner::new(2).scan(&input, &probe, &spec);
            assert_eq!(got, crate::serial::scan(&input, &Sum, &spec));
            let seen = probe.0.into_inner().unwrap();
            let workers: std::collections::HashSet<_> = seen.iter().map(|&(id, _)| id).collect();
            assert_eq!(workers.len(), 2, "n={n}: both workers sweep");
            assert!(
                seen.iter().all(|&(_, stream)| stream == want),
                "n={n}: sweeps saw {seen:?}, want stream={want}"
            );
        }
        let input = pseudo_random(DEFAULT_CHUNK_ELEMS);
        let probe = StreamProbe::default();
        let got = CpuScanner::new(2).scan(&input, &probe, &spec);
        assert_eq!(got, crate::serial::scan(&input, &Sum, &spec));
        let seen = probe.0.into_inner().unwrap();
        let caller = std::thread::current().id();
        assert!(!seen.is_empty(), "the one-chunk scan sweeps");
        assert!(
            seen.iter().all(|&(id, _)| id == caller),
            "one chunk sweeps on the calling thread: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn scan_into_length_mismatch_panics() {
        let mut out = vec![0i64; 3];
        CpuScanner::new(2).scan_into(&[1i64, 2], &mut out, &Sum, &ScanSpec::inclusive());
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn zero_workers_rejected() {
        CpuScanner::new(0);
    }
}
