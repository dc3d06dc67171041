//! Multi-tenant batching front-end over the `sam-core` plan/session layer.
//!
//! The paper's decoupled-carry scans win big on large inputs, but
//! production traffic is mostly the opposite shape: many concurrent
//! tenants each asking for *small* prefix sums. Launched one by one,
//! those micro-scans pay the fixed per-launch cost (queue hop, dispatch,
//! session set-up) over and over while the kernel itself finishes in
//! nanoseconds. [`ScanService`] amortizes that fixed cost by
//! **coalescing**: requests waiting in a lane's admission queue are
//! drained as one batch by one thread, which runs each member on its own
//! over the lane's cached plan and sessions. The queue hand-off, the lane
//! lock and the session set-up are paid once per batch; each scan itself
//! runs on the vectorized scan kernels, so every output is bit-identical
//! to an independent scan of its request.
//!
//! The moving parts:
//!
//! - **Spec-sharded lanes** — a routing front-end keys every request to a
//!   *lane* by its operator family: plain and segmented prefix sums ride
//!   the Sum lane, and each distinct linear-recurrence coefficient vector
//!   ([`ScanRequest::with_recurrence`]) lazily gets its own lane with
//!   its own queue and cached [`sam_core::op::LinRec`] sessions. Recurrence requests therefore *execute* (bit-identical to
//!   the serial recurrence loop) instead of being rejected at admission.
//! - **Admission control** — a bounded queue per lane
//!   ([`ServiceConfig::queue_capacity`]); [`ScanService::try_submit`]
//!   sheds load with [`RequestError::QueueFull`] when the lane is full,
//!   [`ScanService::submit`] blocks (backpressure). The lane population
//!   itself is bounded ([`ServiceConfig::max_lanes`],
//!   [`RequestError::LanesExhausted`]) so hostile coefficient churn
//!   cannot grow unbounded queues and cached sessions.
//! - **No lane threads** — a lane runs on whichever thread would
//!   otherwise block on it (flat combining): a waiter whose reply is not
//!   ready, or a [`ScanService::submit`] facing a full queue, runs the
//!   lane's next batch for everyone queued when no other thread is
//!   running it, and sleeps until that thread finishes otherwise. The
//!   service spawns no threads of its own.
//! - **Coalescing** — each batch drains its lane's queue greedily up to
//!   [`ServiceConfig::max_batch_requests`] / [`ServiceConfig::max_batch_elems`]
//!   per launch. There is no artificial delay window: an idle service
//!   dispatches a lone request immediately, and batches form exactly when
//!   a backlog exists — the queue *is* the coalescing window. Members
//!   run back-to-back on the lane's cached sessions: a plain sum on the
//!   Sum kernels (an exclusive one shifts its inclusive result), a
//!   segmented sum on [`sam_core::segmented::scan_serial`], a recurrence
//!   on its lane's [`sam_core::op::LinRec`] session.
//! - **Streaming requests** — [`ScanRequest::streaming`] asks for a
//!   [`sam_core::plan::CarryState`] checkpoint alongside the outputs;
//!   the next frame carries it back ([`ScanRequest::with_checkpoint`])
//!   and continues the scan exactly where it left off, in any batch.
//!   Checkpoints are validated against the spec *and* the operator
//!   family/coefficient fingerprint (the v2 `SAMC` format), so a sum
//!   checkpoint can never silently resume a recurrence stream.
//! - **Plan cache** — execution plans are resolved once per
//!   [`sam_core::ScanSpec`] ([`sam_core::plan::PlanCache`]) and shared
//!   by every lane
//!   ([`ScanService::plans_cached`]); sessions over them are cached
//!   per lane, so the steady state allocates only each request's
//!   output.
//! - **Isolation** — one tenant's malformed request is rejected with an
//!   error ([`RequestError::Malformed`]) before it reaches a shared
//!   worker, and a panicking handler fails only its own batch
//!   ([`RequestError::Panicked`]): the thread running the batch catches
//!   the unwind (riding the engine's cooperative cancel machinery),
//!   discards the possibly-wedged session, fills the batch's tickets, and
//!   releases the lane to the next thread.
//! - **Per-tenant and per-lane metrics** — request/element/error counts,
//!   queue and execution latency sums, per-lane batch/coalescing
//!   accounting ([`ServiceMetrics::lanes`]), and, on traced services,
//!   [`sam_core::ScanReport`]-derived throughput for SLO accounting
//!   ([`ScanService::metrics`]).
//!
//! The service is synchronous inside (the callers' threads; no async
//! runtime) but front-end agnostic: [`ResponseHandle::wait`] blocks,
//! [`ResponseHandle::try_take`] polls (running at most one batch, never
//! waiting on another thread), so both blocking servers and poll-driven
//! event loops can sit on top. [`server`] is the blocking one: the
//! connection loop that `sam_serviced`, the socket daemon in this crate,
//! runs on each connection, speaking the [`wire`] protocol.
//!
//! # Quickstart
//!
//! ```
//! use sam_service::{ScanKind, ScanRequest, ScanService, ServiceConfig};
//!
//! let service = ScanService::start(ServiceConfig::default());
//! // Submit concurrently from any number of threads.
//! let handle = service
//!     .submit(ScanRequest::inclusive("tenant-a", vec![1, 2, 3, 4]))
//!     .unwrap();
//! assert_eq!(handle.wait().unwrap(), vec![1, 3, 6, 10]);
//! // Exclusive requests batch together with inclusive ones.
//! assert_eq!(
//!     service
//!         .scan(ScanRequest::new("tenant-b", ScanKind::Exclusive, vec![5, 5, 5]))
//!         .unwrap(),
//!     vec![0, 5, 10]
//! );
//! service.shutdown();
//! ```

#![warn(missing_docs)]

mod metrics;
pub mod server;
mod service;
pub mod wire;

pub use metrics::{LaneMetrics, ServiceMetrics, TenantMetrics};
pub use sam_core::op::LinRecError;
pub use sam_core::plan::CarryStateError;
pub use sam_core::segmented::SegmentedError;
pub use sam_core::{Engine, ScanKind};
pub use service::{ResponseHandle, ScanService};

/// Configuration for a [`ScanService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission-queue bound: requests queued but not yet executing.
    /// [`ScanService::try_submit`] fails fast past this;
    /// [`ScanService::submit`] blocks until space frees up.
    pub queue_capacity: usize,
    /// Maximum requests drained into one batch.
    pub max_batch_requests: usize,
    /// Maximum total elements per launch — also the per-request size cap
    /// ([`RequestError::TooLarge`]).
    pub max_batch_elems: usize,
    /// Maximum distinct lanes (one per operator family — the Sum lane
    /// plus one per recurrence coefficient vector). Each lane owns a
    /// queue and cached sessions (no thread), so this bounds what
    /// adversarial coefficient churn can make the service allocate;
    /// requests past the cap fail with [`RequestError::LanesExhausted`].
    pub max_lanes: usize,
    /// Engine the cached plans resolve to.
    pub engine: Engine,
    /// Trace scans: every scan on a cached plan produces a
    /// [`sam_core::ScanReport`], and each batch's tenants pick up the
    /// latest report's measured throughput. Segmented members run the
    /// serial segmented scan and produce none. Costs clocks and span
    /// bookkeeping on the hot path; off by default.
    pub trace: bool,
    /// Fault-injection hook: whichever thread runs a batch holding a
    /// request from this tenant panics mid-batch. This is how the
    /// concurrency tests prove a poisoned batch cannot strand its lane;
    /// leave `None` in production.
    pub chaos_panic_tenant: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 4096,
            max_batch_requests: 256,
            max_batch_elems: 1 << 20,
            max_lanes: 32,
            engine: Engine::auto(),
            trace: false,
            chaos_panic_tenant: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the admission-queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-launch coalescing limits.
    pub fn with_batch_limits(mut self, requests: usize, elems: usize) -> Self {
        self.max_batch_requests = requests;
        self.max_batch_elems = elems;
        self
    }

    /// Sets the lane-population cap (see [`ServiceConfig::max_lanes`]).
    pub fn with_max_lanes(mut self, lanes: usize) -> Self {
        self.max_lanes = lanes;
        self
    }

    /// Sets the engine the cached plans resolve to.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Enables launch tracing (see [`ServiceConfig::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// One tenant's scan request: a prefix sum over `values`, restarted at
/// every `true` in `heads`.
///
/// Requests are *independent*: every request's scan starts at its own
/// first element, so no request ever observes another's running sum —
/// and `heads[0]` is a head whatever it says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRequest {
    /// Tenant identity, for metrics attribution and fault injection.
    pub tenant: String,
    /// Inclusive or exclusive outputs. Both kinds batch together, and a
    /// plain exclusive sum runs on the inclusive plan: its outputs are the
    /// inclusive ones shifted right by one with a leading `0`, which is
    /// exact for integer sums.
    pub kind: ScanKind,
    /// The elements to scan.
    pub values: Vec<i32>,
    /// Segment-head flags, one per value. Empty means "one segment": a
    /// plain prefix sum over the whole request.
    pub heads: Vec<bool>,
    /// Optional linear-recurrence coefficients
    /// (`x_i = b_i + Σ_j coeffs[j]·x_{i-1-j}`, as in
    /// [`sam_core::op::LinRec`]). `None` — the overwhelmingly common case
    /// — is a plain prefix sum. `Some` routes the request to that
    /// coefficient vector's own lane, where it executes on a cached
    /// recurrence session (one session shared per drained batch — a
    /// recurrence restart is not expressible as a segmented-sum head
    /// flag, so members run back-to-back rather than fusing). Recurrence
    /// requests cannot carry segment heads
    /// ([`RequestError::UnsupportedSpec`]).
    pub recurrence: Option<Vec<i32>>,
    /// Streaming mode: ask for a [`sam_core::plan::CarryState`]
    /// checkpoint alongside the outputs ([`ScanOutput::checkpoint`]), so
    /// the next frame of a client-chunked scan can continue where this
    /// one stopped. Streaming requests cannot carry segment heads.
    pub streaming: bool,
    /// Resume point for a continued stream: the checkpoint bytes the
    /// previous frame's [`ScanOutput`] returned. Validated at admission
    /// (decode) and at resume (spec + operator family/coefficient
    /// fingerprint); a mismatch is [`RequestError::BadCheckpoint`], never
    /// a silently different series. A request may carry a checkpoint
    /// without `streaming` — that is the stream's *final* frame (resume,
    /// scan, no new checkpoint).
    pub checkpoint: Option<Vec<u8>>,
}

impl ScanRequest {
    /// A request with explicit segment heads (`heads` may be empty for a
    /// single-segment scan, otherwise one flag per value).
    pub fn new(tenant: impl Into<String>, kind: ScanKind, values: Vec<i32>) -> Self {
        ScanRequest {
            tenant: tenant.into(),
            kind,
            values,
            heads: Vec::new(),
            recurrence: None,
            streaming: false,
            checkpoint: None,
        }
    }

    /// A plain inclusive prefix sum.
    pub fn inclusive(tenant: impl Into<String>, values: Vec<i32>) -> Self {
        ScanRequest::new(tenant, ScanKind::Inclusive, values)
    }

    /// A plain exclusive prefix sum.
    pub fn exclusive(tenant: impl Into<String>, values: Vec<i32>) -> Self {
        ScanRequest::new(tenant, ScanKind::Exclusive, values)
    }

    /// Attaches segment-head flags (one per value).
    pub fn with_heads(mut self, heads: Vec<bool>) -> Self {
        self.heads = heads;
        self
    }

    /// Marks the request as a linear-recurrence scan with the given
    /// coefficients (see [`ScanRequest::recurrence`]): it routes to the
    /// coefficient vector's own lane and executes there.
    pub fn with_recurrence(mut self, coeffs: Vec<i32>) -> Self {
        self.recurrence = Some(coeffs);
        self
    }

    /// Asks for a carry-state checkpoint alongside the outputs (see
    /// [`ScanRequest::streaming`]).
    pub fn streaming(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// Resumes a stream from a previous frame's checkpoint *and* keeps
    /// streaming (see [`ScanRequest::checkpoint`]; clear
    /// [`ScanRequest::streaming`] afterwards for a final frame).
    pub fn with_checkpoint(mut self, checkpoint: Vec<u8>) -> Self {
        self.checkpoint = Some(checkpoint);
        self.streaming = true;
        self
    }
}

/// A completed request's outputs.
///
/// Non-streaming callers usually go through [`ResponseHandle::wait`] /
/// [`ScanService::scan`], which unwrap this to the bare values; streaming
/// callers use [`ResponseHandle::wait_output`] /
/// [`ScanService::scan_streaming`] to also receive the checkpoint for the
/// next frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutput {
    /// The scanned outputs, one per input value.
    pub values: Vec<i32>,
    /// The carry-state checkpoint after consuming this request's values —
    /// present exactly when the request asked to keep streaming
    /// ([`ScanRequest::streaming`]). Feed it to the next frame via
    /// [`ScanRequest::with_checkpoint`].
    pub checkpoint: Option<Vec<u8>>,
}

/// Why a request was rejected or failed. Every variant is a *per-request*
/// outcome: the service itself keeps running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request cannot be executed as stated (e.g. `heads` length
    /// mismatch). Rejected at admission, before any shared state.
    Malformed(SegmentedError),
    /// The request exceeds the per-launch element budget.
    TooLarge {
        /// Elements in the request.
        elems: usize,
        /// The configured ceiling ([`ServiceConfig::max_batch_elems`]).
        max: usize,
    },
    /// The request is well-formed but combines features no lane can
    /// execute together (e.g. segment heads on a recurrence or streaming
    /// scan — a recurrence restart is not expressible as a head flag).
    /// Distinct from [`RequestError::Malformed`] so clients can split the
    /// request instead of treating it as a bug.
    UnsupportedSpec {
        /// Human-readable description of the unsupported combination.
        feature: &'static str,
    },
    /// The recurrence coefficient vector cannot form a
    /// [`sam_core::op::LinRec`] operator (empty, or longer than
    /// [`sam_core::ScanSpec::MAX_ORDER`]). Rejected at admission.
    BadRecurrence(LinRecError),
    /// The request's resume checkpoint is corrupt, or belongs to a
    /// different spec or operator than the request (family/coefficient
    /// fingerprint mismatch): resuming would silently compute a different
    /// series, so the request fails instead.
    BadCheckpoint(CarryStateError),
    /// The bounded admission queue is full (backpressure signal from
    /// [`ScanService::try_submit`]). Retry later or use the blocking
    /// [`ScanService::submit`].
    QueueFull,
    /// The lane population is at [`ServiceConfig::max_lanes`] and this
    /// request's operator family has no lane yet. Retry on an existing
    /// family, or run against a service configured with more lanes.
    LanesExhausted {
        /// The configured lane cap.
        max: usize,
    },
    /// The service is shutting down; the request was not executed.
    ShuttingDown,
    /// The handler executing this request's batch panicked. The batch
    /// failed as a unit; the lane kept serving.
    Panicked,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Malformed(err) => write!(f, "malformed request: {err}"),
            RequestError::TooLarge { elems, max } => {
                write!(
                    f,
                    "request of {elems} elements exceeds the {max}-element cap"
                )
            }
            RequestError::UnsupportedSpec { feature } => {
                write!(
                    f,
                    "unsupported spec: {feature} cannot be executed by this service"
                )
            }
            RequestError::BadRecurrence(err) => write!(f, "bad recurrence coefficients: {err}"),
            RequestError::BadCheckpoint(err) => write!(f, "bad resume checkpoint: {err}"),
            RequestError::QueueFull => write!(f, "admission queue full"),
            RequestError::LanesExhausted { max } => {
                write!(f, "lane population at the configured cap of {max}")
            }
            RequestError::ShuttingDown => write!(f, "service shutting down"),
            RequestError::Panicked => write!(f, "request batch panicked"),
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Malformed(err) => Some(err),
            RequestError::BadRecurrence(err) => Some(err),
            RequestError::BadCheckpoint(err) => Some(err),
            _ => None,
        }
    }
}
