//! Plan-once / scan-many execution layer over the three engines.
//!
//! Every engine in this workspace used to re-derive the same facts on
//! every call: validate the [`ScanSpec`], compute the chunk geometry, gate
//! the single-pass cascade kernels on [`ChunkKernel::supports_cascade`],
//! and (worst of all) construct a fresh [`CpuScanner`] or [`Gpu`] per
//! invocation. This module separates **planning** from **execution**:
//!
//! * [`ScanPlan`] — an immutable, cheaply cloneable plan: the validated
//!   spec plus every per-call decision resolved once (chunk geometry,
//!   engine resources). A CPU plan holds its [`CpuScanner`]
//!   configuration, whose scans run on the process-wide worker pool and
//!   its carry arena (see [`crate::cpu`]); a simulated plan owns its
//!   [`Gpu`] instance behind [`Arc`], so clones and sessions share it.
//! * [`ScanSession`] — a reusable execution handle created by
//!   [`ScanPlan::session`]. Besides one-shot [`ScanSession::scan_into`],
//!   it exposes a **streaming** API ([`ScanSession::feed`]) whose outputs
//!   are bit-identical to the one-shot scan on the same plan, for data
//!   arriving in batches of any size.
//! * [`CarryState`] — the serializable `q x s` per-order, per-lane
//!   lane-sum vector (the state the [`crate::carry`] algebra folds),
//!   snapshotted by [`ScanSession::carry_state`] and restored by
//!   [`ScanSession::resume`], so a stream can be checkpointed, shipped
//!   across processes and continued.
//!
//! # Streaming equivalence
//!
//! [`ScanSession::feed`] reproduces the executing engine's association
//! exactly, so concatenating the outputs of any batch partition equals the
//! one-shot scan *bit for bit*:
//!
//! * operators admitting the cascade kernels (wrapping-integer sums; see
//!   [`ChunkKernel::supports_cascade`]) carry a single `q x s` cascade
//!   state — exact associativity makes every split point invisible;
//! * other operators (floating-point sums, `Max`, ...) mirror the engine's
//!   fold structure: the serial engine's continuous left fold, or the
//!   chunked engines' `out = op(carry, local)` decomposition at the
//!   engine's exact chunk geometry, with carries folded in chunk order
//!   from the identity — the determinism contract of Section 3.1.
//!
//! Float caveat, documented rather than papered over: the chunked
//! engines fold the identity into every chunk's carry, so feeding data
//! containing `-0.0` can differ from the serial engine in the sign of
//! zero (the engines themselves differ the same way). Integer scans are
//! exact everywhere.
//!
//! # Checkpoint format
//!
//! [`CarryState`] records the spec echo (kind/order/tuple), the operator
//! family and coefficient fingerprint (a running-total state and a
//! recurrence output window are different objects even at equal shapes —
//! see [`CarryState::op_family`]), the number of elements consumed, and
//! the `q x s` lane sums as `u64` bit patterns ([`Pod64::to_bits`]).
//! [`CarryState::to_bytes`] gives a stable binary encoding (magic `SAMC`,
//! version byte, little-endian fields) with [`CarryState::from_bytes`] as
//! its inverse; the type also implements the workspace `serde::Serialize`
//! for structured export. Resuming validates spec *and* operator identity,
//! then treats the checkpoint as a chunk boundary: exact at any element
//! for integer operators, exact at engine chunk boundaries for floats.

use std::sync::Arc;

use crate::chunk_kernel::ChunkKernel;
use crate::config::{ScanKind, ScanSpec};
use crate::cpu::CpuScanner;
use crate::kernel::{scan_on_gpu, SamParams};
use crate::obs::{self, Phase, ScanReport, Span, TraceSink};
use gpu_sim::memory::contiguous_transactions;
use gpu_sim::{AccessClass, DeviceSpec, Gpu, MetricsSnapshot, Pod64};

/// Which engine executes the scan.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The serial reference implementation.
    Serial,
    /// The multi-threaded SAM engine. Its chunk geometry is the only
    /// serial/parallel rule: a scan that spans one chunk runs the fused
    /// serial kernels on the calling thread, and a longer one uses up to
    /// one worker per chunk.
    Cpu(CpuScanner),
    /// The instrumented SAM kernel on a simulated device.
    Simulated {
        /// Device to simulate.
        device: DeviceSpec,
        /// Kernel parameters.
        params: SamParams,
    },
}

impl Engine {
    /// A CPU engine with `workers` threads.
    pub fn cpu(workers: usize) -> Self {
        Engine::Cpu(CpuScanner::new(workers))
    }

    /// The default engine: a [`CpuScanner::default`] (one worker per
    /// hardware thread, default chunk size). Scans of at most one chunk
    /// stay on the calling thread.
    pub fn auto() -> Self {
        Engine::Cpu(CpuScanner::default())
    }

    /// A simulated Titan X with auto-tuned parameters.
    pub fn simulated_titan_x() -> Self {
        Engine::Simulated {
            device: DeviceSpec::titan_x(),
            params: SamParams::default(),
        }
    }
}

/// Optional tuning hints consumed by [`ScanPlan::new`].
///
/// The SIMD kernel family is deliberately *not* a per-plan hint: kernel
/// dispatch happens deep inside the chunk kernels, which see no plan state,
/// so the choice is process-wide ([`crate::isa::resolved`], overridable
/// with `SAM_FORCE_KERNEL`). The plan surfaces the resolved family through
/// [`ScanPlan::isa`] and every traced [`ScanReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanHint {
    /// Expected elements per scan or stream; pre-sizes session buffers so
    /// the very first [`ScanSession::feed`] is allocation-free.
    pub expected_len: Option<usize>,
    /// Enables scan tracing: the plan carries a [`TraceSink`], the engines
    /// record spans and traffic into it, and every scan produces a
    /// [`ScanReport`] ([`ScanPlan::last_report`]). Off by default — the
    /// untraced hot path stays free of clocks and span bookkeeping.
    pub trace: bool,
    /// Enables online feedback-directed tuning ([`crate::adapt`]): the
    /// plan measures every scan and re-tunes its geometry (chunk size,
    /// worker count and NT-store threshold) from
    /// the observations, persisting the converged tuning when
    /// `SAM_TUNING_DIR` is set. Adaptation never changes results: only
    /// operators with exact carry algebra
    /// ([`ChunkKernel::supports_cascade`]) vary geometry, and every
    /// explored geometry is bit-identical to the default plan. Other
    /// operators, and [`Engine::Simulated`] plans, run frozen. Off by
    /// default.
    pub adaptive: bool,
}

impl PlanHint {
    /// A hint declaring the expected elements per scan.
    pub fn expected_len(n: usize) -> Self {
        PlanHint {
            expected_len: Some(n),
            ..PlanHint::default()
        }
    }

    /// A hint enabling online feedback-directed tuning (see
    /// [`PlanHint::adaptive`]).
    pub fn adaptive() -> Self {
        PlanHint {
            adaptive: true,
            ..PlanHint::default()
        }
    }

    /// Enables per-scan tracing and reporting (see [`crate::obs`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enables online feedback-directed tuning (see
    /// [`PlanHint::adaptive`]).
    pub fn with_adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }
}

/// The resolved execution target of a plan. A simulated device is
/// `Arc`-shared so plan clones and sessions reuse it; a CPU scanner is
/// plain configuration, and every scanner's scans share the process-wide
/// worker pool and its carry arena.
#[derive(Clone)]
enum PlanExec {
    Serial,
    Cpu(CpuScanner),
    Gpu { gpu: Arc<Gpu>, params: SamParams },
}

impl std::fmt::Debug for PlanExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanExec::Serial => f.write_str("Serial"),
            PlanExec::Cpu(cpu) => f.debug_tuple("Cpu").field(cpu).finish(),
            PlanExec::Gpu { gpu, params } => f
                .debug_struct("Gpu")
                .field("device", &gpu.spec().name)
                .field("params", params)
                .finish(),
        }
    }
}

/// The shared mutable half of an adaptive plan: the online search driver
/// plus its persistence. Plan clones and sessions share one state behind
/// [`Arc`], so every scan anywhere on the plan feeds the same search.
#[derive(Debug)]
struct AdaptiveState {
    driver: std::sync::Mutex<crate::adapt::Driver>,
    store: Option<crate::adapt::TuningStore>,
    key: String,
    /// True while the currently-converged tuning has been persisted (or
    /// needs no persistence); cleared when drift re-opens the search so
    /// the next convergence is saved again.
    saved: std::sync::atomic::AtomicBool,
}

impl AdaptiveState {
    /// Builds the driver around the plan's frozen geometry, seeding it
    /// from the [`crate::adapt::TuningStore`] named by `SAM_TUNING_DIR`
    /// when a tuning for this `(spec, host)` is already on disk — the
    /// second process start begins at the learned optimum.
    fn new(spec: &ScanSpec, workers: usize, chunk_elems: usize) -> AdaptiveState {
        let frozen = crate::adapt::Geometry::frozen(workers, chunk_elems);
        let store = crate::adapt::TuningStore::from_env();
        let key = crate::adapt::tuning_key(spec);
        let stored = store.as_ref().and_then(|s| s.load(&key));
        let seeded = stored.is_some();
        let cfg = crate::adapt::DriverConfig::default();
        let driver = match &stored {
            Some(tuning) => crate::adapt::Driver::seeded(cfg, frozen, workers, tuning),
            None => crate::adapt::Driver::new(cfg, frozen, workers),
        };
        AdaptiveState {
            driver: std::sync::Mutex::new(driver),
            store,
            key,
            saved: std::sync::atomic::AtomicBool::new(seeded),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, crate::adapt::Driver> {
        // A panic mid-observe cannot corrupt the driver (observe mutates
        // plain scalars), so poisoning is recovered rather than spread.
        self.driver.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The geometry the next scan should run with. Allocation-free.
    fn begin(&self) -> crate::adapt::Geometry {
        self.lock().geometry()
    }

    /// Feeds one episode's cost back and persists on the convergence
    /// transition. Allocation-free in the steady state: the save path
    /// (which allocates) runs once per convergence, guarded by `saved`.
    fn finish(&self, cost: crate::adapt::Cost) {
        use std::sync::atomic::Ordering::Relaxed;
        let to_save = {
            let mut driver = self.lock();
            driver.observe(cost);
            if !driver.converged() {
                self.saved.store(false, Relaxed);
                None
            } else if !self.saved.swap(true, Relaxed) {
                Some(crate::adapt::StoredTuning {
                    geometry: driver.best(),
                    score: driver.best_score(),
                    episodes: driver.episodes(),
                })
            } else {
                None
            }
        };
        if let (Some(tuning), Some(store)) = (to_save, &self.store) {
            // Persistence is best-effort: a read-only or vanished tuning
            // directory must never break a scan.
            let _ = store.save(&self.key, &tuning);
        }
    }

    fn snapshot(&self) -> crate::adapt::AdaptiveSnapshot {
        self.lock().snapshot()
    }
}

/// An immutable scan plan: validated spec + resolved per-call decisions +
/// owned engine resources. Construct once, scan many times.
///
/// # Examples
///
/// ```
/// use sam_core::plan::{PlanHint, ScanPlan};
/// use sam_core::{Engine, ScanSpec};
/// use sam_core::op::Sum;
///
/// let plan = ScanPlan::new(
///     ScanSpec::inclusive().with_order(2).unwrap(),
///     Engine::cpu(4),
///     PlanHint::default(),
/// );
/// let session = plan.session::<i64, _>(Sum);
/// let out = session.scan(&[1, 2, 3, 4]);
/// assert_eq!(out, vec![1, 4, 10, 20]);
/// ```
#[derive(Debug, Clone)]
pub struct ScanPlan {
    spec: ScanSpec,
    exec: PlanExec,
    hint: PlanHint,
    /// The kernel family ([`crate::isa`]) resolved when the plan was built.
    /// Resolution is process-wide (one `OnceLock`, honoring
    /// `SAM_FORCE_KERNEL`); the plan snapshots it so reports can state
    /// which explicit SIMD path the `Sum` chunk kernels dispatched to.
    isa: crate::isa::Isa,
    /// Present iff the hint enabled tracing; shared by plan clones and
    /// sessions so reports stay retrievable from any handle.
    trace: Option<Arc<TraceSink>>,
    /// Present iff the hint enabled adaptation (and the engine supports
    /// it); shared by plan clones and sessions so every scan feeds one
    /// search.
    adaptive: Option<Arc<AdaptiveState>>,
}

impl ScanPlan {
    /// Resolves `engine` for `spec` into an immutable plan.
    ///
    /// This is where every per-call decision happens exactly once: the
    /// chunk geometry and the engine resources (the [`CpuScanner`]
    /// configuration, with the plan's trace sink attached;
    /// [`Engine::Simulated`] gets one [`Gpu`], shared by every clone and
    /// session for the plan's lifetime).
    pub fn new(spec: ScanSpec, engine: Engine, hint: PlanHint) -> ScanPlan {
        let sink = hint.trace.then(|| Arc::new(TraceSink::new()));
        let t0 = sink.as_ref().map(|s| s.now_us());
        let with_sink = |cpu: CpuScanner| match &sink {
            Some(sink) => cpu.with_trace_sink(Arc::clone(sink)),
            None => cpu,
        };
        let exec = match engine {
            Engine::Serial => PlanExec::Serial,
            Engine::Cpu(cpu) => PlanExec::Cpu(with_sink(cpu)),
            Engine::Simulated { device, params } => PlanExec::Gpu {
                gpu: Arc::new(if sink.is_some() {
                    Gpu::with_trace(device)
                } else {
                    Gpu::new(device)
                }),
                params,
            },
        };
        if let (Some(sink), Some(t0)) = (&sink, t0) {
            let dur_us = sink.now_us().saturating_sub(t0);
            sink.record(Span {
                worker: 0,
                chunk: 0,
                phase: Phase::Plan,
                start_us: t0,
                dur_us,
            });
        }
        let adaptive = if hint.adaptive {
            match &exec {
                PlanExec::Serial => Some(Arc::new(AdaptiveState::new(
                    &spec,
                    1,
                    crate::cpu::DEFAULT_CHUNK_ELEMS,
                ))),
                PlanExec::Cpu(cpu) => Some(Arc::new(AdaptiveState::new(
                    &spec,
                    cpu.workers(),
                    cpu.chunk_elems(),
                ))),
                // The simulated device has its own install-time tuner
                // ([`crate::autotune`]); online adaptation targets the
                // host engines.
                PlanExec::Gpu { .. } => None,
            }
        } else {
            None
        };
        ScanPlan {
            spec,
            exec,
            hint,
            isa: crate::isa::resolved(),
            trace: sink,
            adaptive,
        }
    }

    /// The kernel family (ISA) the `Sum` chunk kernels dispatch to under
    /// this plan — the process-wide [`crate::isa::resolved`] choice,
    /// snapshotted at plan construction. Also echoed in every traced
    /// [`ScanReport`].
    pub fn isa(&self) -> crate::isa::Isa {
        self.isa
    }

    /// The plan's validated spec.
    pub fn spec(&self) -> &ScanSpec {
        &self.spec
    }

    /// The plan-owned CPU engine ([`Engine::Cpu`] plans).
    pub fn cpu(&self) -> Option<&CpuScanner> {
        match &self.exec {
            PlanExec::Cpu(cpu) => Some(cpu),
            _ => None,
        }
    }

    /// The plan-owned simulated device ([`Engine::Simulated`] plans).
    pub fn gpu(&self) -> Option<&Gpu> {
        match &self.exec {
            PlanExec::Gpu { gpu, .. } => Some(gpu),
            _ => None,
        }
    }

    /// The chunk size (elements) the plan's parallel engine partitions
    /// inputs by: the CPU engine's configured chunking, or
    /// `threads_per_block * items_per_thread` on the simulated device.
    /// `None` for purely serial plans, which scan continuously.
    pub fn chunk_elems(&self) -> Option<usize> {
        match &self.exec {
            PlanExec::Serial => None,
            PlanExec::Cpu(cpu) => Some(cpu.chunk_elems()),
            PlanExec::Gpu { gpu, params } => {
                Some(gpu.spec().threads_per_block as usize * params.items_per_thread)
            }
        }
    }

    /// One-shot scan into a caller-provided buffer, reusing the plan's
    /// engine resources — the single dispatch point all front-ends
    /// ([`ScanPlan::scan`], sessions, the service lanes) route through.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != input.len()`.
    pub fn scan_into<T, Op>(&self, input: &[T], out: &mut [T], op: &Op)
    where
        T: Pod64,
        Op: ChunkKernel<T>,
    {
        assert_eq!(input.len(), out.len(), "output length must match input");
        // Adaptive plans resolve this call's geometry from the driver —
        // but only for operators whose carry algebra is exact
        // ([`ChunkKernel::supports_cascade`]): geometry changes are
        // observable through any other operator's fold association, so
        // those run the frozen plan and never feed the search.
        let adaptive = self.adaptive.as_ref().filter(|_| op.supports_cascade());
        let geom = adaptive.map(|state| state.begin());
        // Scoped per-plan NT threshold: covers the serial and `k == 1`
        // paths that run on this thread, and `scan_into_geom` reads it
        // here to make the per-scan decision it hands its workers.
        // Concurrent plans with conflicting converged thresholds each see
        // their own value — the process global stays untouched as the
        // default seed.
        let _nt = crate::simd::nt_store_override(geom.map_or(0, |g| g.nt_min_bytes));
        // Episodes below the floor run the probe geometry but are not
        // scored: their throughput measures fixed overhead, not geometry.
        let observing = adaptive.is_some() && input.len() >= crate::adapt::ADAPT_MIN_ELEMS;
        match &self.trace {
            None => {
                let t0 = observing.then(std::time::Instant::now);
                self.dispatch(input, out, op, geom);
                if let (Some(state), Some(t0)) = (adaptive, t0) {
                    let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    state.finish(crate::adapt::Cost::from_wall(input.len(), nanos));
                }
            }
            Some(sink) => {
                let before = self.metrics_snapshot(sink);
                let t0 = sink.now_us();
                let engine = self.dispatch(input, out, op, geom);
                let wall_us = sink.now_us().saturating_sub(t0);
                if engine == "serial" {
                    // The serial engine has no internal hooks: the plan
                    // layer records its single whole-scan kernel span and
                    // charges its one communication-optimal pass.
                    obs::charge_elem_pass(sink.metrics(), input.len(), std::mem::size_of::<T>());
                    sink.record(Span {
                        worker: 0,
                        chunk: 0,
                        phase: Phase::ChunkScan,
                        start_us: t0,
                        dur_us: wall_us,
                    });
                }
                let delta = self.metrics_snapshot(sink).since(&before);
                self.finish_report(sink, engine, input.len(), t0, wall_us, delta);
                if observing {
                    if let (Some(state), Some(report)) = (adaptive, self.last_report()) {
                        // Traced episodes fold the carry-wait fraction
                        // into the cost as the tie-breaker signal.
                        state.finish(crate::adapt::Cost::from_report(&report));
                    }
                }
            }
        }
    }

    /// The untraced dispatch: runs the scan on the resolved engine and
    /// names the engine that actually executed. `geom` (adaptive plans,
    /// exact operators only) overrides the frozen worker count and chunk
    /// size; `None` runs the plan exactly as frozen.
    fn dispatch<T, Op>(
        &self,
        input: &[T],
        out: &mut [T],
        op: &Op,
        geom: Option<crate::adapt::Geometry>,
    ) -> &'static str
    where
        T: Pod64,
        Op: ChunkKernel<T>,
    {
        match &self.exec {
            PlanExec::Serial => {
                crate::serial::scan_into(input, out, op, &self.spec);
                "serial"
            }
            PlanExec::Cpu(cpu) => {
                match geom {
                    Some(g) => {
                        cpu.scan_into_geom(input, out, op, &self.spec, g.workers, g.chunk_elems)
                    }
                    None => cpu.scan_into(input, out, op, &self.spec),
                }
                "cpu"
            }
            PlanExec::Gpu { gpu, params } => {
                let (result, _info) = scan_on_gpu(gpu, input, op, &self.spec, params);
                out.copy_from_slice(&result);
                "gpu-sim"
            }
        }
    }

    /// Reads the traffic counters a traced scan on this plan charges: the
    /// simulated device's own metrics for GPU plans, the sink's metrics for
    /// the host engines.
    fn metrics_snapshot(&self, sink: &TraceSink) -> MetricsSnapshot {
        match &self.exec {
            PlanExec::Gpu { gpu, .. } => gpu.metrics().snapshot(),
            _ => sink.metrics().snapshot(),
        }
    }

    /// Assembles and stashes the [`ScanReport`] for a finished traced scan:
    /// drains the sink's spans and histogram, folds in GPU trace events
    /// (rebased onto the sink timeline), and records the metrics delta.
    fn finish_report(
        &self,
        sink: &TraceSink,
        engine: &'static str,
        n: usize,
        t0: u64,
        wall_us: u64,
        metrics: MetricsSnapshot,
    ) {
        let mut spans = sink.drain_spans();
        let mut hist = sink.drain_wait_hist();
        if let PlanExec::Gpu { gpu, .. } = &self.exec {
            if let Some(log) = gpu.trace() {
                obs::spans_from_events(&log.drain(), t0, &mut spans, &mut hist);
            }
        }
        sink.set_report(ScanReport {
            engine,
            isa: self.isa.name(),
            spec: self.spec,
            n,
            wall_us,
            spans,
            carry_wait_hist: hist,
            metrics,
        });
    }

    /// The most recent traced scan's [`ScanReport`], if this plan traces
    /// ([`PlanHint::with_trace`]) and a scan has run.
    pub fn last_report(&self) -> Option<ScanReport> {
        self.trace.as_ref().and_then(|sink| sink.last_report())
    }

    /// The plan's [`TraceSink`], when tracing is enabled.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_deref()
    }

    /// True when this plan adapts its geometry online
    /// ([`PlanHint::adaptive`] on an engine that supports it).
    pub fn is_adaptive(&self) -> bool {
        self.adaptive.is_some()
    }

    /// A point-in-time view of the adaptive search (adaptive plans only):
    /// current probe and incumbent geometry, phase, episode count, and
    /// whether the driver was seeded from a persisted tuning.
    pub fn adaptive_snapshot(&self) -> Option<crate::adapt::AdaptiveSnapshot> {
        self.adaptive.as_ref().map(|state| state.snapshot())
    }

    /// Allocating convenience form of [`ScanPlan::scan_into`].
    pub fn scan<T, Op>(&self, input: &[T], op: &Op) -> Vec<T>
    where
        T: Pod64,
        Op: ChunkKernel<T>,
    {
        let mut out = vec![op.identity(); input.len()];
        self.scan_into(input, &mut out, op);
        out
    }

    /// Creates a reusable [`ScanSession`] executing this plan with `op`.
    ///
    /// The streaming fold structure is resolved here, once — sessions
    /// never re-gate per batch.
    pub fn session<T, Op>(&self, op: Op) -> ScanSession<T, Op>
    where
        T: Pod64,
        Op: ChunkKernel<T>,
    {
        let q = self.spec.order() as usize;
        let s = self.spec.tuple();
        let qs = self.spec.lane_state_len();
        let mode = if op.supports_cascade() {
            // Exact carry algebra: one q x s cascade state, valid at any
            // split point, identical across engines.
            StreamMode::Cascade
        } else {
            match &self.exec {
                PlanExec::Serial => StreamMode::Continuous,
                PlanExec::Cpu(cpu) => {
                    if cpu.workers() == 1 {
                        StreamMode::Continuous
                    } else {
                        StreamMode::Chunked {
                            chunk_elems: cpu.chunk_elems(),
                        }
                    }
                }
                PlanExec::Gpu { gpu, params } => StreamMode::Chunked {
                    chunk_elems: gpu.spec().threads_per_block as usize * params.items_per_thread,
                },
            }
        };
        let local = match mode {
            StreamMode::Chunked { .. } => vec![op.identity(); qs],
            _ => Vec::new(),
        };
        let state = vec![op.identity(); qs];
        let out_buf = Vec::with_capacity(self.hint.expected_len.unwrap_or(0));
        ScanSession {
            plan: self.clone(),
            op,
            q,
            s,
            exclusive: self.spec.kind() == ScanKind::Exclusive,
            mode,
            elements_seen: 0,
            fresh_in_chunk: 0,
            state,
            local,
            out_buf,
        }
    }
}

/// A concurrent in-memory cache of resolved [`ScanPlan`]s keyed by
/// [`ScanSpec`] — the sharing layer a multi-lane front-end (one lane per
/// operator family) builds its sessions on.
///
/// Plans are resolved at most once per spec and cloned out; clones share
/// the plan's trace sink, adaptive state and simulated device, so every
/// lane that scans under one spec feeds one report stream and one
/// tuning search.
///
/// # Examples
///
/// ```
/// use sam_core::plan::{PlanCache, PlanHint};
/// use sam_core::{Engine, ScanSpec};
///
/// let cache = PlanCache::new();
/// let a = cache.get_or_insert_with(ScanSpec::inclusive(), || {
///     sam_core::plan::ScanPlan::new(ScanSpec::inclusive(), Engine::Serial, PlanHint::default())
/// });
/// let b = cache.get_or_insert_with(ScanSpec::inclusive(), || unreachable!("cached"));
/// assert_eq!(a.spec(), b.spec());
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: std::sync::Mutex<std::collections::HashMap<ScanSpec, ScanPlan>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Returns the cached plan for `spec`, resolving it with `make` on the
    /// first request. The builder runs under the cache lock, so concurrent
    /// callers never resolve the same spec twice.
    pub fn get_or_insert_with(&self, spec: ScanSpec, make: impl FnOnce() -> ScanPlan) -> ScanPlan {
        self.plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(spec)
            .or_insert_with(make)
            .clone()
    }

    /// Distinct specs currently resolved.
    pub fn len(&self) -> usize {
        self.plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// True when no plan has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How a session folds a stream — resolved once at session creation to
/// mirror the executing engine bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamMode {
    /// Exact single-pass cascade state (`q x s`), any split point.
    Cascade,
    /// The serial engine's continuous left fold (also the CPU engine with
    /// one worker).
    Continuous,
    /// The chunked protocol: per-chunk local folds plus carries folded in
    /// chunk order from the identity, at the engine's chunk geometry.
    Chunked {
        /// Elements per chunk (the engine's partitioning).
        chunk_elems: usize,
    },
}

/// A reusable execution handle: one-shot scans plus resumable streaming.
///
/// Created by [`ScanPlan::session`]; owns the operator, shares the plan's
/// engine resources, and keeps a grow-only output buffer so steady-state
/// [`ScanSession::feed`] and repeated [`ScanSession::scan_into`] calls
/// allocate nothing.
///
/// # Examples
///
/// ```
/// use sam_core::plan::{PlanHint, ScanPlan};
/// use sam_core::{Engine, ScanSpec};
/// use sam_core::op::Sum;
///
/// let plan = ScanPlan::new(ScanSpec::inclusive(), Engine::Serial, PlanHint::default());
/// let mut session = plan.session::<i64, _>(Sum);
/// assert_eq!(session.feed(&[1, 2]), &[1, 3]);
/// assert_eq!(session.feed(&[3, 4]), &[6, 10]); // continues the scan
/// ```
pub struct ScanSession<T: Pod64, Op: ChunkKernel<T>> {
    plan: ScanPlan,
    op: Op,
    q: usize,
    s: usize,
    exclusive: bool,
    mode: StreamMode,
    /// Total elements consumed by `feed` since creation/reset/resume —
    /// determines lane alignment and chunk-boundary positions.
    elements_seen: u64,
    /// Elements consumed since the last chunk boundary *or* resume point
    /// (chunked mode): `< s` means "first of its lane in this chunk".
    fresh_in_chunk: usize,
    /// The `q x s` lane state: cascade state, continuous accumulators, or
    /// chunk-ordered carries, by mode.
    state: Vec<T>,
    /// The `q x s` in-chunk local accumulators (chunked mode only).
    local: Vec<T>,
    /// Grow-only output buffer backing the slice returned by `feed`.
    out_buf: Vec<T>,
}

impl<T: Pod64, Op: ChunkKernel<T>> std::fmt::Debug for ScanSession<T, Op> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanSession")
            .field("spec", &self.plan.spec)
            .field("mode", &self.mode)
            .field("elements_seen", &self.elements_seen)
            .finish_non_exhaustive()
    }
}

impl<T: Pod64, Op: ChunkKernel<T>> ScanSession<T, Op> {
    /// The plan this session executes.
    pub fn plan(&self) -> &ScanPlan {
        &self.plan
    }

    /// The session's spec.
    pub fn spec(&self) -> &ScanSpec {
        self.plan.spec()
    }

    /// Total elements consumed by [`ScanSession::feed`] since creation,
    /// the last [`ScanSession::reset`], or as restored by
    /// [`ScanSession::resume`].
    pub fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    /// One-shot scan into a caller-provided buffer (independent of the
    /// streaming state), dispatched through the plan.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != input.len()`.
    pub fn scan_into(&self, input: &[T], out: &mut [T]) {
        self.plan.scan_into(input, out, &self.op);
    }

    /// Allocating convenience form of [`ScanSession::scan_into`].
    pub fn scan(&self, input: &[T]) -> Vec<T> {
        self.plan.scan(input, &self.op)
    }

    /// Clears the streaming state: the next [`ScanSession::feed`] starts a
    /// new scan. Buffers are kept, so a reset session stays
    /// allocation-free.
    pub fn reset(&mut self) {
        let id = self.op.identity();
        self.state.fill(id);
        self.local.fill(id);
        self.elements_seen = 0;
        self.fresh_in_chunk = 0;
    }

    /// Consumes the next `batch` of the stream and returns its scanned
    /// outputs. Concatenating the outputs over any partition of an input
    /// is bit-identical to the one-shot scan of that input on the same
    /// plan (see the module docs for the float caveats).
    ///
    /// The returned slice borrows the session's grow-only buffer and is
    /// valid until the next call.
    pub fn feed(&mut self, batch: &[T]) -> &[T] {
        let n = batch.len();
        match self.plan.trace.clone() {
            None => self.feed_inner(batch),
            Some(sink) => {
                let before = self.plan.metrics_snapshot(&sink);
                let t0 = sink.now_us();
                self.feed_inner(batch);
                let wall_us = sink.now_us().saturating_sub(t0);
                let engine = match &self.plan.exec {
                    PlanExec::Serial => "serial",
                    PlanExec::Cpu(_) => "cpu",
                    PlanExec::Gpu { .. } => "gpu-sim",
                };
                if !matches!(&self.plan.exec, PlanExec::Gpu { .. }) {
                    // The session-local fold models the same global-memory
                    // behaviour as the one-shot engines: each element read
                    // once, written once (GPU plans charge inside
                    // `feed_inner`).
                    obs::charge_elem_pass(sink.metrics(), n, std::mem::size_of::<T>());
                }
                sink.record(Span {
                    worker: 0,
                    chunk: 0,
                    phase: Phase::Feed,
                    start_us: t0,
                    dur_us: wall_us,
                });
                let delta = self.plan.metrics_snapshot(&sink).since(&before);
                self.plan
                    .finish_report(&sink, engine, n, t0, wall_us, delta);
            }
        }
        &self.out_buf[..n]
    }

    /// The most recent traced scan's report on this session's plan (see
    /// [`ScanPlan::last_report`]); both one-shot scans and `feed` batches
    /// produce reports.
    pub fn last_report(&self) -> Option<ScanReport> {
        self.plan.last_report()
    }

    /// The streaming fold behind [`ScanSession::feed`], leaving the batch
    /// outputs in `self.out_buf[..batch.len()]`.
    fn feed_inner(&mut self, batch: &[T]) {
        let n = batch.len();
        if self.out_buf.len() < n {
            let id = self.op.identity();
            self.out_buf.resize(n, id);
        }
        match self.mode {
            StreamMode::Cascade => {
                let base = (self.elements_seen % self.s as u64) as usize;
                self.op.cascade_scan_from(
                    batch,
                    &mut self.out_buf[..n],
                    base,
                    self.s,
                    &mut self.state,
                    self.exclusive,
                    None,
                );
                self.elements_seen += n as u64;
            }
            StreamMode::Continuous => self.feed_continuous(batch),
            StreamMode::Chunked { chunk_elems } => self.feed_chunked(batch, chunk_elems),
        }
        if let PlanExec::Gpu { gpu, .. } = &self.plan.exec {
            // The streaming path models the same global-memory behaviour as
            // the one-shot kernel: every element is read once and written
            // once, fully coalesced.
            let m = gpu.metrics();
            let tx = contiguous_transactions(n, std::mem::size_of::<T>());
            m.add_read(AccessClass::Element, tx, n as u64);
            m.add_write(AccessClass::Element, tx, n as u64);
        }
    }

    /// The serial engine's association: per lane, order-1..q accumulators
    /// advanced elementwise. Inclusive accumulators start from the lane's
    /// first raw value (no identity fold, like
    /// `serial::inclusive_strided_from`); the exclusive final order is an
    /// identity-seeded accumulator emitting its pre-update value (like
    /// `serial::exclusive_strided_in_place`).
    fn feed_continuous(&mut self, batch: &[T]) {
        let s = self.s as u64;
        let inc_orders = if self.exclusive { self.q - 1 } else { self.q };
        let op = &self.op;
        let state = &mut self.state;
        let out = &mut self.out_buf;
        let mut pos = self.elements_seen;
        for (&x, o) in batch.iter().zip(out.iter_mut()) {
            let lane = (pos % s) as usize;
            let first = pos < s;
            let mut v = x;
            for i in 0..inc_orders {
                let slot = &mut state[i * self.s + lane];
                *slot = if first { v } else { op.combine(*slot, v) };
                v = *slot;
            }
            if self.exclusive {
                let slot = &mut state[(self.q - 1) * self.s + lane];
                *o = *slot;
                *slot = op.combine(*slot, v);
            } else {
                *o = v;
            }
            pos += 1;
        }
        self.elements_seen = pos;
    }

    /// The chunked engines' association: within a chunk, per-order local
    /// accumulators start from the first raw value; outputs combine the
    /// chunk carry with the local value (`chunkops::apply_carry` / the
    /// last order's `chunkops::exclusive_rewrite`); at each chunk boundary
    /// every lane's carry folds its local total (identity for lanes absent
    /// from the chunk), in chunk order from the identity — exactly the
    /// multi-pass protocol of the CPU and simulated engines.
    fn feed_chunked(&mut self, batch: &[T], chunk_elems: usize) {
        let s = self.s;
        let q = self.q;
        let inc_orders = if self.exclusive { q - 1 } else { q };
        let mut pos = self.elements_seen;
        for (idx, &x) in batch.iter().enumerate() {
            if pos.is_multiple_of(chunk_elems as u64) && self.fresh_in_chunk > 0 {
                self.fold_chunk();
            }
            let lane = (pos % s as u64) as usize;
            let first = self.fresh_in_chunk < s;
            let op = &self.op;
            let state = &self.state;
            let local = &mut self.local;
            let mut v = x;
            for i in 0..inc_orders {
                let l = &mut local[i * s + lane];
                *l = if first { v } else { op.combine(*l, v) };
                v = op.combine(state[i * s + lane], *l);
            }
            let o = &mut self.out_buf[idx];
            if self.exclusive {
                let carry = state[(q - 1) * s + lane];
                let l = &mut local[(q - 1) * s + lane];
                *o = if first { carry } else { op.combine(carry, *l) };
                *l = if first { v } else { op.combine(*l, v) };
            } else {
                *o = v;
            }
            self.fresh_in_chunk += 1;
            pos += 1;
        }
        self.elements_seen = pos;
    }

    /// Folds the finished chunk's local totals into the carries (chunk
    /// order, identity for absent lanes) and opens a new chunk.
    fn fold_chunk(&mut self) {
        let id = self.op.identity();
        for (c, l) in self.state.iter_mut().zip(self.local.iter_mut()) {
            *c = self.op.combine(*c, *l);
            *l = id;
        }
        self.fresh_in_chunk = 0;
    }

    /// Snapshots the streaming carry state: the serializable `q x s`
    /// lane-sum vector plus the stream position. Mid-chunk snapshots fold
    /// the partial chunk as if it ended at the checkpoint — exact for
    /// integer operators anywhere, exact for floats at engine chunk
    /// boundaries (see the module docs).
    pub fn carry_state(&self) -> CarryState {
        let sums: Vec<u64> = match self.mode {
            StreamMode::Chunked { .. } if self.fresh_in_chunk > 0 => self
                .state
                .iter()
                .zip(self.local.iter())
                .map(|(&c, &l)| self.op.combine(c, l).to_bits())
                .collect(),
            _ => self.state.iter().map(|&v| v.to_bits()).collect(),
        };
        let spec = self.plan.spec;
        let (op_family, op_fingerprint) = session_op_identity(&self.op);
        CarryState {
            kind: spec.kind(),
            order: spec.order(),
            tuple: spec.tuple(),
            op_family,
            op_fingerprint,
            elements_seen: self.elements_seen,
            state: sums,
        }
    }

    /// Restores a stream from a [`CarryState`] checkpoint: subsequent
    /// [`ScanSession::feed`] calls continue the checkpointed scan.
    ///
    /// # Errors
    ///
    /// Returns [`CarryStateError::SpecMismatch`] if the checkpoint was
    /// taken under a different spec, or [`CarryStateError::BadLength`] if
    /// its lane-sum vector does not match `order * tuple`.
    pub fn resume(&mut self, checkpoint: &CarryState) -> Result<(), CarryStateError> {
        let spec = self.plan.spec;
        if checkpoint.kind != spec.kind()
            || checkpoint.order != spec.order()
            || checkpoint.tuple != spec.tuple()
        {
            return Err(CarryStateError::SpecMismatch {
                expected: spec,
                got: checkpoint.spec(),
            });
        }
        let (op_family, op_fingerprint) = session_op_identity(&self.op);
        if checkpoint.op_family != op_family || checkpoint.op_fingerprint != op_fingerprint {
            return Err(CarryStateError::OpMismatch {
                expected_family: op_family,
                expected_fingerprint: op_fingerprint,
                got_family: checkpoint.op_family,
                got_fingerprint: checkpoint.op_fingerprint,
            });
        }
        if checkpoint.state.len() != spec.lane_state_len() {
            return Err(CarryStateError::BadLength {
                expected: spec.lane_state_len(),
                got: checkpoint.state.len(),
            });
        }
        for (slot, &bits) in self.state.iter_mut().zip(checkpoint.state.iter()) {
            *slot = T::from_bits(bits);
        }
        let id = self.op.identity();
        self.local.fill(id);
        self.fresh_in_chunk = 0;
        self.elements_seen = checkpoint.elements_seen;
        Ok(())
    }
}

/// A serializable streaming-scan checkpoint: the `q x s` per-order,
/// per-lane lane-sum vector (the state the [`crate::carry`] algebra
/// folds), the stream position, and an echo of the spec it belongs to.
///
/// Produced by [`ScanSession::carry_state`], consumed by
/// [`ScanSession::resume`]; [`CarryState::to_bytes`] /
/// [`CarryState::from_bytes`] give a stable binary encoding for
/// persistence or transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarryState {
    kind: ScanKind,
    order: u32,
    tuple: usize,
    op_family: u8,
    op_fingerprint: u64,
    elements_seen: u64,
    state: Vec<u64>,
}

/// Magic prefix of the [`CarryState`] binary encoding.
const CARRY_MAGIC: &[u8; 4] = b"SAMC";
/// Version byte of the [`CarryState`] binary encoding. Version 2 added the
/// operator-family byte and coefficient fingerprint; version-1 checkpoints
/// predate recurrence operators and are rejected rather than guessed at.
const CARRY_VERSION: u8 = 2;

/// [`CarryState::op_family`] value for combine-style operators (sums &c.):
/// the lane state holds per-order running totals.
const OP_FAMILY_COMBINE: u8 = 0;
/// [`CarryState::op_family`] value for linear-recurrence operators
/// ([`crate::op::LinRec`]): the lane state holds the last `q` outputs.
const OP_FAMILY_RECURRENCE: u8 = 1;

/// The `(family, fingerprint)` identity of a session operator, stamped
/// into every checkpoint and re-derived at resume time (see
/// [`CarryState::op_family`]).
fn session_op_identity<T: Pod64, Op: ChunkKernel<T>>(op: &Op) -> (u8, u64) {
    match op.recurrence_coeffs() {
        Some(coeffs) => (
            OP_FAMILY_RECURRENCE,
            crate::carry::recurrence_fingerprint(coeffs),
        ),
        None => (OP_FAMILY_COMBINE, 0),
    }
}

impl CarryState {
    /// The spec this checkpoint belongs to.
    pub fn spec(&self) -> ScanSpec {
        ScanSpec::new(self.kind, self.order, self.tuple)
            .expect("carry state always echoes a validated spec")
    }

    /// Elements consumed before the checkpoint.
    pub fn elements_seen(&self) -> u64 {
        self.elements_seen
    }

    /// The `q x s` lane sums as `u64` bit patterns
    /// (`state[order_index * tuple + lane]`). For recurrence checkpoints
    /// ([`CarryState::op_family`] = 1) the rows are the last `q` outputs
    /// per lane instead, row 0 most recent.
    pub fn lane_sums(&self) -> &[u64] {
        &self.state
    }

    /// The operator family this checkpoint's lane state belongs to:
    /// `0` for combine-style operators (per-order running totals), `1` for
    /// linear recurrences (the last `q` outputs per lane). The same bits
    /// mean different things in the two families, which is why resuming
    /// validates the family before touching the state.
    pub fn op_family(&self) -> u8 {
        self.op_family
    }

    /// For recurrence checkpoints, the FNV-1a fingerprint of the
    /// coefficient vector ([`crate::carry::recurrence_fingerprint`]);
    /// `0` for combine-style operators.
    pub fn op_fingerprint(&self) -> u64 {
        self.op_fingerprint
    }

    /// Encodes the checkpoint into a stable, self-describing byte string:
    /// `SAMC`, a version byte, then little-endian kind/family/order/tuple/
    /// position/fingerprint/length/lane-sums.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 1 + 1 + 1 + 4 + 8 + 8 + 8 + 8 + 8 * self.state.len());
        out.extend_from_slice(CARRY_MAGIC);
        out.push(CARRY_VERSION);
        out.push(match self.kind {
            ScanKind::Inclusive => 0,
            ScanKind::Exclusive => 1,
        });
        out.push(self.op_family);
        out.extend_from_slice(&self.order.to_le_bytes());
        out.extend_from_slice(&(self.tuple as u64).to_le_bytes());
        out.extend_from_slice(&self.elements_seen.to_le_bytes());
        out.extend_from_slice(&self.op_fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.state.len() as u64).to_le_bytes());
        for &w in &self.state {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decodes a checkpoint produced by [`CarryState::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CarryStateError`] describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<CarryState, CarryStateError> {
        // Every read below is fallible — no slice indexing, no `unwrap` on
        // width conversions. A checkpoint arriving over a wire (truncated,
        // bit-flipped, or adversarial) must decode to an error, never a
        // panic: sessions resume these on shared service workers.
        fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], CarryStateError> {
            if bytes.len() < n {
                return Err(CarryStateError::Truncated);
            }
            let (head, rest) = bytes.split_at(n);
            *bytes = rest;
            Ok(head)
        }
        fn take_arr<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N], CarryStateError> {
            take(bytes, N)?
                .try_into()
                .map_err(|_| CarryStateError::Truncated)
        }
        fn take_u64(bytes: &mut &[u8]) -> Result<u64, CarryStateError> {
            Ok(u64::from_le_bytes(take_arr::<8>(bytes)?))
        }
        let mut rest = bytes;
        if take(&mut rest, 4)? != CARRY_MAGIC {
            return Err(CarryStateError::BadMagic);
        }
        let version = take_arr::<1>(&mut rest)?[0];
        if version != CARRY_VERSION {
            return Err(CarryStateError::BadVersion(version));
        }
        let kind = match take_arr::<1>(&mut rest)?[0] {
            0 => ScanKind::Inclusive,
            1 => ScanKind::Exclusive,
            k => return Err(CarryStateError::BadKind(k)),
        };
        let op_family = match take_arr::<1>(&mut rest)?[0] {
            f @ (OP_FAMILY_COMBINE | OP_FAMILY_RECURRENCE) => f,
            f => return Err(CarryStateError::BadFamily(f)),
        };
        let order = u32::from_le_bytes(take_arr::<4>(&mut rest)?);
        let tuple_wire = take_u64(&mut rest)?;
        // A declared tuple past the address space cannot be a valid spec;
        // reject before the narrowing cast instead of truncating it.
        let tuple = usize::try_from(tuple_wire).map_err(|_| CarryStateError::BadLength {
            expected: 0,
            got: usize::MAX,
        })?;
        let spec = ScanSpec::new(kind, order, tuple).map_err(|_| CarryStateError::BadLength {
            expected: 0,
            got: (order as usize).saturating_mul(tuple),
        })?;
        let elements_seen = take_u64(&mut rest)?;
        let op_fingerprint = take_u64(&mut rest)?;
        // A combine-family checkpoint carries no coefficients, so its
        // fingerprint slot must be zero — anything else is corruption, not
        // a value to be ignored.
        if op_family == OP_FAMILY_COMBINE && op_fingerprint != 0 {
            return Err(CarryStateError::BadFamily(op_family));
        }
        let len_wire = take_u64(&mut rest)?;
        // Validate the declared length *before* sizing any allocation:
        // `lane_state_len` is small for every valid spec, so a corrupt
        // length can neither over-allocate nor wrap on 32-bit hosts.
        if len_wire != spec.lane_state_len() as u64 {
            return Err(CarryStateError::BadLength {
                expected: spec.lane_state_len(),
                got: usize::try_from(len_wire).unwrap_or(usize::MAX),
            });
        }
        let len = spec.lane_state_len();
        let mut state = Vec::with_capacity(len);
        for _ in 0..len {
            state.push(take_u64(&mut rest)?);
        }
        if !rest.is_empty() {
            return Err(CarryStateError::TrailingBytes(rest.len()));
        }
        Ok(CarryState {
            kind,
            order,
            tuple,
            op_family,
            op_fingerprint,
            elements_seen,
            state,
        })
    }
}

serde::impl_serialize_struct!(CarryState {
    kind,
    order,
    tuple,
    op_family,
    op_fingerprint,
    elements_seen,
    state
});

/// Error decoding or resuming a [`CarryState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarryStateError {
    /// The byte string does not start with the `SAMC` magic.
    BadMagic,
    /// Unknown encoding version.
    BadVersion(u8),
    /// Unknown scan-kind byte.
    BadKind(u8),
    /// Unknown operator-family byte, or a combine-family checkpoint with a
    /// nonzero coefficient fingerprint.
    BadFamily(u8),
    /// The byte string ended before the declared fields.
    Truncated,
    /// Unconsumed bytes after the declared fields.
    TrailingBytes(usize),
    /// The lane-sum vector length does not match `order * tuple`.
    BadLength {
        /// Expected `order * tuple` length.
        expected: usize,
        /// Length found in the checkpoint.
        got: usize,
    },
    /// The checkpoint belongs to a different spec than the session.
    SpecMismatch {
        /// The session's spec.
        expected: ScanSpec,
        /// The checkpoint's spec echo.
        got: ScanSpec,
    },
    /// The checkpoint's operator family or coefficient fingerprint does
    /// not match the session's operator: the same state bits mean
    /// different things under different operators (running totals vs.
    /// recurrence output windows, or different recurrence coefficients),
    /// so resuming across them would silently compute a different series.
    OpMismatch {
        /// The session operator's family.
        expected_family: u8,
        /// The session operator's coefficient fingerprint (0 for combine).
        expected_fingerprint: u64,
        /// The checkpoint's family.
        got_family: u8,
        /// The checkpoint's fingerprint.
        got_fingerprint: u64,
    },
}

impl std::fmt::Display for CarryStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CarryStateError::BadMagic => write!(f, "carry state missing SAMC magic"),
            CarryStateError::BadVersion(v) => write!(f, "unsupported carry-state version {v}"),
            CarryStateError::BadKind(k) => write!(f, "unknown scan-kind byte {k}"),
            CarryStateError::BadFamily(v) => {
                write!(f, "unknown or inconsistent operator-family byte {v}")
            }
            CarryStateError::Truncated => write!(f, "carry state truncated"),
            CarryStateError::TrailingBytes(n) => {
                write!(f, "carry state has {n} trailing bytes")
            }
            CarryStateError::BadLength { expected, got } => write!(
                f,
                "carry state lane-sum length {got} does not match order*tuple = {expected}"
            ),
            CarryStateError::SpecMismatch { expected, got } => write!(
                f,
                "carry state for {got:?} cannot resume a session for {expected:?}"
            ),
            CarryStateError::OpMismatch {
                expected_family,
                expected_fingerprint,
                got_family,
                got_fingerprint,
            } => write!(
                f,
                "carry state for op family {got_family} (fingerprint {got_fingerprint:#x}) \
                 cannot resume a session for op family {expected_family} \
                 (fingerprint {expected_fingerprint:#x})"
            ),
        }
    }
}

impl std::error::Error for CarryStateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Sum};

    fn ints(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 37 % 23) - 11).collect()
    }

    fn floats(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 73 % 41) as f64) * 0.125 - 2.0)
            .collect()
    }

    fn engines() -> Vec<Engine> {
        vec![
            Engine::Serial,
            Engine::Cpu(CpuScanner::new(1).with_chunk_elems(64)),
            Engine::Cpu(CpuScanner::new(3).with_chunk_elems(64)),
            Engine::auto(),
            Engine::Simulated {
                device: DeviceSpec::k40(),
                params: SamParams {
                    items_per_thread: 2,
                    ..SamParams::default()
                },
            },
        ]
    }

    /// The one kernel rule: the operator alone picks the cascade, whatever
    /// the spec. Integer `Sum` takes it at orders 1 and 2 alike,
    /// recurrences at every order; `Max` and float `Sum` keep the iterated
    /// kernels.
    #[test]
    fn cascade_gate_on_order_and_operator() {
        fn gate<T: Copy>(op: &impl ChunkKernel<T>, _spec: &ScanSpec) -> bool {
            op.supports_cascade()
        }
        let o1 = ScanSpec::inclusive();
        let o2 = o1.with_order(2).unwrap();
        assert!(gate::<i64>(&Sum, &o2));
        assert!(gate::<i64>(&Sum, &o1));
        assert!(!gate::<i64>(&Max, &o2));
        assert!(!gate::<f64>(&Sum, &o2));
        let ema = crate::op::LinRec::first_order(3i64).unwrap();
        assert!(gate(&ema, &o1));
        let fib2 = crate::op::LinRec::new(vec![1i64, 1]).unwrap();
        assert!(gate(&fib2, &o2));
    }

    #[test]
    fn plan_scan_matches_serial_on_every_engine() {
        let input = ints(70_000);
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        let expect = crate::serial::scan(&input, &Sum, &spec);
        for engine in engines() {
            let plan = ScanPlan::new(spec, engine, PlanHint::default());
            assert_eq!(plan.scan(&input, &Sum), expect, "{plan:?}");
        }
    }

    #[test]
    fn feed_in_batches_matches_one_shot_per_engine() {
        let input = ints(10_000);
        for spec in [
            ScanSpec::inclusive(),
            ScanSpec::exclusive()
                .with_order(3)
                .unwrap()
                .with_tuple(4)
                .unwrap(),
        ] {
            for engine in engines() {
                let plan = ScanPlan::new(spec, engine, PlanHint::default());
                let expect = plan.scan(&input, &Sum);
                let mut session = plan.session::<i64, _>(Sum);
                let mut got = Vec::new();
                for batch in input.chunks(997) {
                    got.extend_from_slice(session.feed(batch));
                }
                assert_eq!(got, expect, "{plan:?}");
            }
        }
    }

    #[test]
    fn float_feed_is_bit_exact_against_the_chunked_engine() {
        let input = floats(9_000);
        for workers in [1usize, 4] {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let spec = ScanSpec::new(kind, 2, 3).unwrap();
                let plan = ScanPlan::new(
                    spec,
                    Engine::Cpu(CpuScanner::new(workers).with_chunk_elems(128)),
                    PlanHint::default(),
                );
                let expect = plan.scan(&input, &Sum);
                let mut session = plan.session::<f64, _>(Sum);
                let mut got = Vec::new();
                for batch in input.chunks(301) {
                    got.extend_from_slice(session.feed(batch));
                }
                let expect_bits: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
                let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, expect_bits, "workers={workers} kind={kind:?}");
            }
        }
    }

    #[test]
    fn max_feed_matches_one_shot() {
        // A non-cascade integer operator exercises the generic chunked fold.
        let input = ints(5_000);
        let spec = ScanSpec::inclusive().with_tuple(2).unwrap();
        let plan = ScanPlan::new(
            spec,
            Engine::Cpu(CpuScanner::new(3).with_chunk_elems(64)),
            PlanHint::default(),
        );
        let expect = plan.scan(&input, &Max);
        let mut session = plan.session::<i64, _>(Max);
        let mut got = Vec::new();
        for batch in input.chunks(173) {
            got.extend_from_slice(session.feed(batch));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn carry_state_roundtrips_through_bytes() {
        let spec = ScanSpec::exclusive()
            .with_order(2)
            .unwrap()
            .with_tuple(3)
            .unwrap();
        let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::default());
        let mut session = plan.session::<i64, _>(Sum);
        session.feed(&ints(100));
        let cs = session.carry_state();
        let bytes = cs.to_bytes();
        assert_eq!(CarryState::from_bytes(&bytes).unwrap(), cs);
        assert_eq!(cs.lane_sums().len(), spec.lane_state_len());
        assert_eq!(cs.elements_seen(), 100);
        assert_eq!(cs.spec(), spec);
    }

    #[test]
    fn from_bytes_rejects_malformed_input() {
        assert_eq!(
            CarryState::from_bytes(b"SAM"),
            Err(CarryStateError::Truncated)
        );
        assert_eq!(
            CarryState::from_bytes(b"XXXX\x01\x00more"),
            Err(CarryStateError::BadMagic)
        );
        let spec = ScanSpec::inclusive();
        let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::default());
        let mut session = plan.session::<i64, _>(Sum);
        session.feed(&[1, 2, 3]);
        let mut bytes = session.carry_state().to_bytes();
        bytes[4] = 9; // version
        assert_eq!(
            CarryState::from_bytes(&bytes),
            Err(CarryStateError::BadVersion(9))
        );
        let mut bytes = session.carry_state().to_bytes();
        bytes.push(0);
        assert_eq!(
            CarryState::from_bytes(&bytes),
            Err(CarryStateError::TrailingBytes(1))
        );
    }

    #[test]
    fn resume_continues_bit_exactly_on_every_engine() {
        let input = ints(8_000);
        let spec = ScanSpec::inclusive()
            .with_order(2)
            .unwrap()
            .with_tuple(2)
            .unwrap();
        for engine in engines() {
            let plan = ScanPlan::new(spec, engine, PlanHint::default());
            let expect = plan.scan(&input, &Sum);

            let mut first = plan.session::<i64, _>(Sum);
            let split = 3_333;
            let mut got = first.feed(&input[..split]).to_vec();
            let checkpoint = CarryState::from_bytes(&first.carry_state().to_bytes()).unwrap();
            drop(first);

            let mut second = plan.session::<i64, _>(Sum);
            second.resume(&checkpoint).unwrap();
            got.extend_from_slice(second.feed(&input[split..]));
            assert_eq!(got, expect, "{plan:?}");
        }
    }

    #[test]
    fn resume_rejects_spec_mismatch() {
        let plan_a = ScanPlan::new(ScanSpec::inclusive(), Engine::Serial, PlanHint::default());
        let plan_b = ScanPlan::new(
            ScanSpec::inclusive().with_order(2).unwrap(),
            Engine::Serial,
            PlanHint::default(),
        );
        let mut a = plan_a.session::<i64, _>(Sum);
        a.feed(&[1, 2, 3]);
        let cs = a.carry_state();
        let mut b = plan_b.session::<i64, _>(Sum);
        assert!(matches!(
            b.resume(&cs),
            Err(CarryStateError::SpecMismatch { .. })
        ));
    }

    /// Serial reference for the order-`k` recurrence
    /// `x_i = b_i + sum_j coeffs[j] * x_{i-1-j}` per tuple lane.
    fn recurrence_oracle(input: &[i64], coeffs: &[i64], s: usize, exclusive: bool) -> Vec<i64> {
        let mut hist: Vec<Vec<i64>> = vec![vec![0; coeffs.len()]; s];
        let mut out = Vec::with_capacity(input.len());
        for (i, &b) in input.iter().enumerate() {
            let lane = i % s;
            let pred: i64 = coeffs
                .iter()
                .zip(&hist[lane])
                .map(|(&c, &x)| c.wrapping_mul(x))
                .fold(0i64, |a, v| a.wrapping_add(v));
            let y = b.wrapping_add(pred);
            hist[lane].rotate_right(1);
            hist[lane][0] = y;
            out.push(if exclusive { pred } else { y });
        }
        out
    }

    #[test]
    fn recurrence_scan_matches_oracle_on_every_engine() {
        let input = ints(40_000);
        for (coeffs, kind) in [
            (vec![3i64], ScanKind::Inclusive),
            (vec![1, 1], ScanKind::Exclusive),
            (vec![2, 0, 5], ScanKind::Inclusive),
        ] {
            let op = crate::op::LinRec::new(coeffs.clone()).unwrap();
            for tuple in [1usize, 3] {
                let spec = ScanSpec::new(kind, coeffs.len() as u32, tuple).unwrap();
                let expect = recurrence_oracle(&input, &coeffs, tuple, kind == ScanKind::Exclusive);
                for engine in engines() {
                    let plan = ScanPlan::new(spec, engine, PlanHint::default());
                    assert_eq!(
                        plan.scan(&input, &op),
                        expect,
                        "{coeffs:?} s={tuple} {plan:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn recurrence_sessions_stream_and_resume_on_every_engine() {
        let input = ints(9_000);
        let op = crate::op::LinRec::new(vec![2i64, 7]).unwrap();
        let spec = ScanSpec::inclusive()
            .with_order(2)
            .unwrap()
            .with_tuple(3)
            .unwrap();
        let expect = recurrence_oracle(&input, &[2, 7], 3, false);
        for engine in engines() {
            let plan = ScanPlan::new(spec, engine, PlanHint::default());
            assert_eq!(plan.scan(&input, &op), expect, "{plan:?}");

            // Stream in ragged batches, checkpointing mid-stream.
            let mut first = plan.session::<i64, _>(op.clone());
            let split = 4_111;
            let mut got = first.feed(&input[..split]).to_vec();
            let cs = first.carry_state();
            assert_eq!(cs.op_family(), 1);
            let checkpoint = CarryState::from_bytes(&cs.to_bytes()).unwrap();
            drop(first);

            let mut second = plan.session::<i64, _>(op.clone());
            second.resume(&checkpoint).unwrap();
            got.extend_from_slice(second.feed(&input[split..]));
            assert_eq!(got, expect, "{plan:?}");
        }
    }

    #[test]
    fn resume_rejects_op_family_and_fingerprint_mismatch() {
        let spec = ScanSpec::inclusive();
        let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::default());

        // A sum checkpoint must not seed a same-shape recurrence session...
        let mut sum_session = plan.session::<i64, _>(Sum);
        sum_session.feed(&[1, 2, 3]);
        let sum_cs = sum_session.carry_state();
        assert_eq!(sum_cs.op_family(), 0);
        assert_eq!(sum_cs.op_fingerprint(), 0);
        let ema = crate::op::LinRec::first_order(3i64).unwrap();
        let mut rec_session = plan.session::<i64, _>(ema.clone());
        assert!(matches!(
            rec_session.resume(&sum_cs),
            Err(CarryStateError::OpMismatch { .. })
        ));

        // ...nor a recurrence checkpoint a sum session...
        rec_session.feed(&[1, 2, 3]);
        let rec_cs = rec_session.carry_state();
        let mut sum_session = plan.session::<i64, _>(Sum);
        assert!(matches!(
            sum_session.resume(&rec_cs),
            Err(CarryStateError::OpMismatch { .. })
        ));

        // ...nor a recurrence session with different coefficients.
        let other = crate::op::LinRec::first_order(4i64).unwrap();
        let mut other_session = plan.session::<i64, _>(other);
        assert!(matches!(
            other_session.resume(&rec_cs),
            Err(CarryStateError::OpMismatch { .. })
        ));
        // Same coefficients round-trip fine.
        let mut same_session = plan.session::<i64, _>(ema);
        same_session.resume(&rec_cs).unwrap();
    }

    #[test]
    fn from_bytes_rejects_bad_family_and_nonzero_combine_fingerprint() {
        let plan = ScanPlan::new(ScanSpec::inclusive(), Engine::Serial, PlanHint::default());
        let mut session = plan.session::<i64, _>(Sum);
        session.feed(&[1, 2, 3]);
        let bytes = session.carry_state().to_bytes();
        // Offset 6 is the family byte (after magic, version, kind).
        let mut bad = bytes.clone();
        bad[6] = 7;
        assert_eq!(
            CarryState::from_bytes(&bad),
            Err(CarryStateError::BadFamily(7))
        );
        // Offset 27 starts the fingerprint (after 4+1+1+1 header bytes,
        // 4-byte order, 8-byte tuple, 8-byte position); a combine-family
        // checkpoint must carry a zero fingerprint.
        let mut bad = bytes.clone();
        bad[27] = 1;
        assert_eq!(
            CarryState::from_bytes(&bad),
            Err(CarryStateError::BadFamily(0))
        );
    }

    #[test]
    fn reset_starts_a_fresh_scan() {
        let plan = ScanPlan::new(
            ScanSpec::inclusive(),
            Engine::Cpu(CpuScanner::new(2).with_chunk_elems(32)),
            PlanHint::default(),
        );
        let mut session = plan.session::<i64, _>(Sum);
        let input = ints(200);
        let expect = session.feed(&input).to_vec();
        session.reset();
        assert_eq!(session.elements_seen(), 0);
        assert_eq!(session.feed(&input), &expect[..]);
    }

    #[test]
    fn empty_feed_is_a_no_op() {
        let plan = ScanPlan::new(ScanSpec::inclusive(), Engine::Serial, PlanHint::default());
        let mut session = plan.session::<i64, _>(Sum);
        assert!(session.feed(&[]).is_empty());
        assert_eq!(session.feed(&[5, 6]), &[5, 11]);
    }

    fn data(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 13 % 7) - 3).collect()
    }

    fn plan(spec: ScanSpec, engine: Engine) -> ScanPlan {
        ScanPlan::new(spec, engine, PlanHint::default())
    }

    #[test]
    fn all_engines_agree() {
        let input = data(70_000);
        let spec = ScanSpec::inclusive().with_order(2).unwrap();
        let spec_result = crate::serial::scan(&input, &Sum, &spec);
        for engine in [
            Engine::Serial,
            Engine::cpu(3),
            Engine::auto(),
            Engine::Simulated {
                device: DeviceSpec::k40(),
                params: SamParams {
                    items_per_thread: 2,
                    ..SamParams::default()
                },
            },
        ] {
            let (cpu, gpu) = (
                matches!(engine, Engine::Cpu(_)),
                matches!(engine, Engine::Simulated { .. }),
            );
            let p = plan(spec, engine);
            assert_eq!(p.scan(&input, &Sum), spec_result);
            assert_eq!(p.cpu().is_some(), cpu, "{p:?}");
            assert_eq!(p.gpu().is_some(), gpu, "{p:?}");
        }
    }

    #[test]
    fn auto_honours_configured_cpu_scanner() {
        // Regression: the default engine silently dropped a
        // user-configured CpuScanner and ran a default one.
        let p = ScanPlan::new(
            ScanSpec::inclusive(),
            Engine::Cpu(CpuScanner::new(2).with_chunk_elems(4096)),
            PlanHint::default().with_trace(),
        );
        let cpu = p.cpu().unwrap();
        assert_eq!(cpu.workers(), 2);
        assert_eq!(cpu.chunk_elems(), 4096);
        let input = data(40_000);
        assert_eq!(p.scan(&input, &Sum), crate::serial::prefix_sum(&input));
        // The configured chunk size was actually exercised: 40_000 elements
        // at 4096 per chunk are chunks 0 through 9.
        let report = p.last_report().expect("traced plan reports");
        let chunks: std::collections::BTreeSet<u64> = report
            .spans
            .iter()
            .filter(|sp| sp.phase == Phase::ChunkScan)
            .map(|sp| sp.chunk)
            .collect();
        assert_eq!(chunks, (0..10).collect());
    }

    #[test]
    fn simulated_engine_reuses_one_device() {
        let p = plan(
            ScanSpec::inclusive(),
            Engine::Simulated {
                device: DeviceSpec::k40(),
                params: SamParams {
                    items_per_thread: 2,
                    ..SamParams::default()
                },
            },
        );
        let input = data(5_000);
        p.scan(&input, &Sum);
        let gpu = p.gpu().expect("simulated plan owns a device") as *const _;
        p.scan(&input, &Sum);
        assert!(std::ptr::eq(gpu, p.gpu().unwrap()));
    }
}
