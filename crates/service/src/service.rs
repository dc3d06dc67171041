//! The service core: a spec-sharded routing front-end over per-lane
//! bounded admission queues, coalescing batches over cached plans,
//! panic-isolated batch execution, and reply tickets.
//!
//! Every request is keyed to a [`LaneKey`] by its operator family: plain
//! and segmented prefix sums share the Sum lane, and each recurrence
//! coefficient vector gets its own lane. A batch runs its drained members
//! back-to-back, each on its own, over the lane's cached sessions: plain
//! sums on the scan kernels, segmented ones on the serial segmented scan,
//! recurrences on a [`LinRec`] session. The batch amortizes the queue
//! hand-off and the sessions, not the scans. Streaming requests (carry
//! checkpoints across frames) resume from the carry they bring, so any
//! batch can run them. No lane owns a thread: each runs on the threads
//! that block on it (flat combining; see [`Lane::run_or_wait`]).

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use sam_core::chunk_kernel::ChunkKernel;
use sam_core::op::{LinRec, Sum};
use sam_core::plan::{CarryState, PlanCache, PlanHint, ScanPlan, ScanSession};
use sam_core::{ScanKind, ScanSpec};

use crate::metrics::ServiceMetrics;
use crate::{RequestError, ScanOutput, ScanRequest, ServiceConfig};

/// Locks a mutex, riding through poisoning: a panicked batch must not
/// take the queue or the metrics down with it (the batch's own
/// `catch_unwind` makes cross-panic state consistent by construction —
/// shared structures are only ever mutated under short, total sections).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which lane a request runs on. One lane exists per operator
/// family actually seen: the wire speaks `i32` tuple-1 requests, so the
/// realized key space is the Sum family plus one key per distinct
/// recurrence coefficient vector (whose length is the order/depth).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum LaneKey {
    /// Plain and segmented prefix sums.
    Sum,
    /// A linear-recurrence family, one lane per coefficient vector.
    Recurrence(Vec<i32>),
}

impl LaneKey {
    fn of(request: &ScanRequest) -> LaneKey {
        match &request.recurrence {
            None => LaneKey::Sum,
            Some(coeffs) => LaneKey::Recurrence(coeffs.clone()),
        }
    }

    /// The metrics label: `"sum"` or `"rec[c0,c1,...]"`.
    fn label(&self) -> String {
        match self {
            LaneKey::Sum => "sum".to_owned(),
            LaneKey::Recurrence(coeffs) => {
                let mut s = String::from("rec[");
                for (i, c) in coeffs.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&c.to_string());
                }
                s.push(']');
                s
            }
        }
    }
}

/// A queued request plus its reply ticket.
struct Pending {
    request: ScanRequest,
    ticket: Arc<Ticket>,
    enqueued: Instant,
}

/// One request's reply slot. Filled exactly once by the batch that runs
/// it (or the shutdown drain), consumed by
/// [`ResponseHandle::wait`]/[`ResponseHandle::try_take`].
type Ticket = Mutex<Option<Result<ScanOutput, RequestError>>>;

/// The caller's end of a submitted request.
///
/// Blocking callers use [`ResponseHandle::wait`] (or
/// [`ResponseHandle::wait_output`] to keep a streaming checkpoint);
/// poll-driven front-ends call [`ResponseHandle::try_take`] from their
/// event loop. Dropping the handle abandons the response (the scan may
/// still execute).
pub struct ResponseHandle {
    ticket: Arc<Ticket>,
    lane: Arc<Lane>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseHandle").finish_non_exhaustive()
    }
}

impl ResponseHandle {
    /// Blocks until the request's batch completes and returns its output
    /// values, discarding any streaming checkpoint (use
    /// [`ResponseHandle::wait_output`] to keep it).
    pub fn wait(self) -> Result<Vec<i32>, RequestError> {
        self.wait_output().map(|output| output.values)
    }

    /// Blocks until the request's batch completes and returns its full
    /// output, including the next-frame checkpoint of a streaming
    /// request. While the reply is not ready and no other thread is
    /// running the lane, the calling thread runs the lane's next batch
    /// itself.
    pub fn wait_output(self) -> Result<ScanOutput, RequestError> {
        let mut queue = lock(&self.lane.queue);
        loop {
            if let Some(result) = lock(&self.ticket).take() {
                return result;
            }
            queue = self.lane.run_or_wait(&self.shared, queue);
        }
    }

    /// Takes the result values if the request has completed; `None` while
    /// it is still queued or executing. If the reply is not ready and no
    /// other thread is running the lane, this runs one batch of the lane
    /// on the calling thread first; it never waits on another thread.
    pub fn try_take(&self) -> Option<Result<Vec<i32>, RequestError>> {
        self.try_take_output()
            .map(|result| result.map(|output| output.values))
    }

    /// [`ResponseHandle::try_take`], keeping any streaming checkpoint.
    pub fn try_take_output(&self) -> Option<Result<ScanOutput, RequestError>> {
        let queue = lock(&self.lane.queue);
        if lock(&self.ticket).is_none() && queue.runnable() {
            self.lane.combine(&self.shared, queue);
        }
        lock(&self.ticket).take()
    }
}

/// One lane: a bounded queue, the cached sessions its batches run on, and
/// the one condvar every thread blocked on the lane sleeps on.
struct Lane {
    label: String,
    queue: Mutex<LaneQueue>,
    /// Signalled when a batch finishes (its tickets filled, its queue
    /// space freed, the combining role released) and when shutdown fails
    /// the queue.
    idle: Condvar,
    /// The lane's cached sessions. Locked only by the thread holding the
    /// combining role, so never contended.
    state: Mutex<LaneState>,
}

struct LaneQueue {
    pending: VecDeque<Pending>,
    /// Set while a thread runs a batch of this lane; at most one does.
    combining: bool,
}

impl LaneQueue {
    /// Whether a blocked thread should run the next batch itself: there is
    /// queued work and nobody is already running the lane.
    fn runnable(&self) -> bool {
        !self.combining && !self.pending.is_empty()
    }
}

/// Releases a lane's combining role when dropped, on every exit path
/// (unwinding included), so no panic can strand the lane's waiters.
struct CombiningRole<'a>(&'a Lane);

impl Drop for CombiningRole<'_> {
    fn drop(&mut self) {
        lock(&self.0.queue).combining = false;
        self.0.idle.notify_all();
    }
}

impl Lane {
    fn new(key: &LaneKey) -> Lane {
        Lane {
            label: key.label(),
            queue: Mutex::new(LaneQueue {
                pending: VecDeque::new(),
                combining: false,
            }),
            idle: Condvar::new(),
            state: Mutex::new(LaneState::new(key)),
        }
    }

    /// One step of blocking on the lane, taken by a waiter whose reply is
    /// not ready or a submitter facing a full queue: run the lane's next
    /// batch for everyone queued if [`LaneQueue::runnable`], else sleep
    /// until `idle` is signalled. Returns the re-taken queue lock;
    /// callers re-check their condition.
    fn run_or_wait<'a>(
        &'a self,
        shared: &Shared,
        queue: MutexGuard<'a, LaneQueue>,
    ) -> MutexGuard<'a, LaneQueue> {
        if queue.runnable() {
            self.combine(shared, queue);
            return lock(&self.queue);
        }
        self.idle
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the combining role (the caller checked
    /// [`LaneQueue::runnable`] under `queue`), drains one batch greedily —
    /// whatever is already queued, bounded by the launch limits, with no
    /// delay timer: the backlog itself is the coalescing window — and
    /// executes it outside the queue lock.
    fn combine(&self, shared: &Shared, mut queue: MutexGuard<'_, LaneQueue>) {
        let mut state = lock(&self.state);
        let mut batch = Vec::new();
        queue.combining = true;
        let mut elems = 0usize;
        while let Some(next) = queue.pending.front() {
            let len = next.request.values.len();
            let full = batch.len() >= shared.cfg.max_batch_requests
                || elems + len > shared.cfg.max_batch_elems;
            if full && !batch.is_empty() {
                break;
            }
            elems += len;
            batch.extend(queue.pending.pop_front());
        }
        drop(queue);
        let _role = CombiningRole(self);
        execute_batch(shared, self, &mut state, &mut batch);
        // Unlock the sessions before `_role` hands the lane to the next
        // thread, which locks them first thing.
        drop(state);
    }
}

/// State shared between submitters and the threads running batches.
struct Shared {
    cfg: ServiceConfig,
    shutdown: AtomicBool,
    /// Plans resolved once per `(spec, host fingerprint)` and shared by
    /// every lane; sessions over them are cached per lane.
    plans: PlanCache,
    metrics: Mutex<ServiceMetrics>,
    /// The realized lanes, created lazily on first submission of their
    /// operator family and bounded by [`ServiceConfig::max_lanes`].
    lanes: Mutex<HashMap<LaneKey, Arc<Lane>>>,
}

/// The embeddable multi-tenant batching scan service. See the crate docs
/// for the architecture; construct with [`ScanService::start`].
pub struct ScanService {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ScanService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanService")
            .field("cfg", &self.shared.cfg)
            .finish_non_exhaustive()
    }
}

impl ScanService {
    /// Starts the service and returns its handle. Lanes are created
    /// lazily as operator families arrive; none spawns a thread. The
    /// handle is `Sync`: submit from as many threads as you like.
    pub fn start(cfg: ServiceConfig) -> ScanService {
        let shared = Arc::new(Shared {
            cfg,
            shutdown: AtomicBool::new(false),
            plans: PlanCache::new(),
            metrics: Mutex::new(ServiceMetrics::default()),
            lanes: Mutex::new(HashMap::new()),
        });
        ScanService { shared }
    }

    /// Validates a request without touching any queue and resolves the
    /// lane it routes to.
    fn admit(&self, request: &ScanRequest) -> Result<LaneKey, RequestError> {
        if let Some(coeffs) = &request.recurrence {
            // Validate the operator up front so lane batches can rely
            // on construction succeeding (and a violation still surfaces
            // as a RequestError there, never a panic).
            LinRec::<i32>::new(coeffs.clone()).map_err(RequestError::BadRecurrence)?;
            if !request.heads.is_empty() {
                // A recurrence restart multiplies the carried state rather
                // than zeroing it, so it cannot be expressed as a
                // segment-head flag. Split the request per segment instead.
                return Err(RequestError::UnsupportedSpec {
                    feature: "segment heads on a linear-recurrence scan",
                });
            }
        }
        if (request.streaming || request.checkpoint.is_some()) && !request.heads.is_empty() {
            // The carry a streaming request must checkpoint is the plain
            // scan state; a segmented stream's carry is the pair state,
            // which the wire checkpoint format deliberately does not speak.
            return Err(RequestError::UnsupportedSpec {
                feature: "segment heads on a streaming scan",
            });
        }
        if let Some(bytes) = &request.checkpoint {
            // Fail corrupt checkpoints fast, before they queue; the
            // spec/operator match is re-validated at resume time.
            CarryState::from_bytes(bytes).map_err(RequestError::BadCheckpoint)?;
        }
        if !request.heads.is_empty() && request.heads.len() != request.values.len() {
            return Err(RequestError::Malformed(
                sam_core::segmented::SegmentedError::LengthMismatch {
                    values: request.values.len(),
                    heads: request.heads.len(),
                },
            ));
        }
        if request.values.len() > self.shared.cfg.max_batch_elems {
            return Err(RequestError::TooLarge {
                elems: request.values.len(),
                max: self.shared.cfg.max_batch_elems,
            });
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(RequestError::ShuttingDown);
        }
        Ok(LaneKey::of(request))
    }

    /// Returns the lane for `key`, creating it on first use, bounded by
    /// [`ServiceConfig::max_lanes`].
    fn lane(&self, key: LaneKey) -> Result<Arc<Lane>, RequestError> {
        let mut lanes = lock(&self.shared.lanes);
        if let Some(lane) = lanes.get(&key) {
            return Ok(Arc::clone(lane));
        }
        if lanes.len() >= self.shared.cfg.max_lanes.max(1) {
            return Err(RequestError::LanesExhausted {
                max: self.shared.cfg.max_lanes.max(1),
            });
        }
        let lane = Arc::new(Lane::new(&key));
        lanes.insert(key, Arc::clone(&lane));
        Ok(lane)
    }

    /// Submits a request, blocking while its lane's admission queue is
    /// full (backpressure; meanwhile the caller runs the lane's batches
    /// when nobody else is). Fails fast on malformed or oversized requests
    /// and during shutdown.
    pub fn submit(&self, request: ScanRequest) -> Result<ResponseHandle, RequestError> {
        self.enqueue(request, true)
    }

    /// Submits a request without blocking: a full lane queue is an
    /// immediate [`RequestError::QueueFull`] — the load-shedding signal
    /// for open-loop clients.
    pub fn try_submit(&self, request: ScanRequest) -> Result<ResponseHandle, RequestError> {
        self.enqueue(request, false)
    }

    fn enqueue(&self, request: ScanRequest, block: bool) -> Result<ResponseHandle, RequestError> {
        let key = self.admit(&request)?;
        let lane = self.lane(key)?;
        let ticket = Arc::new(Ticket::default());
        let pending = Pending {
            request,
            ticket: Arc::clone(&ticket),
            enqueued: Instant::now(),
        };
        let mut queue = lock(&lane.queue);
        loop {
            // Re-check under the lock: a shutdown that already drained the
            // queue must not gain a request no batch will ever pop.
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(RequestError::ShuttingDown);
            }
            if queue.pending.len() < self.shared.cfg.queue_capacity {
                break;
            }
            if !block {
                drop(queue);
                lock(&self.shared.metrics).shed += 1;
                return Err(RequestError::QueueFull);
            }
            queue = lane.run_or_wait(&self.shared, queue);
        }
        queue.pending.push_back(pending);
        drop(queue);
        Ok(ResponseHandle {
            ticket,
            lane,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Convenience: [`ScanService::submit`] + [`ResponseHandle::wait`].
    pub fn scan(&self, request: ScanRequest) -> Result<Vec<i32>, RequestError> {
        self.submit(request)?.wait()
    }

    /// Convenience: [`ScanService::submit`] +
    /// [`ResponseHandle::wait_output`] — the shape streaming clients use,
    /// since it keeps the next-frame checkpoint.
    pub fn scan_streaming(&self, request: ScanRequest) -> Result<ScanOutput, RequestError> {
        self.submit(request)?.wait_output()
    }

    /// A snapshot of service, per-lane, and per-tenant accounting.
    pub fn metrics(&self) -> ServiceMetrics {
        lock(&self.shared.metrics).clone()
    }

    /// Distinct plans currently cached (one per `(spec, host)` key).
    pub fn plans_cached(&self) -> usize {
        self.shared.plans.len()
    }

    /// Lanes currently realized (the Sum lane plus one per recurrence
    /// coefficient vector seen).
    pub fn lanes_active(&self) -> usize {
        lock(&self.shared.lanes).len()
    }

    /// Stops accepting work and drains every lane's queue: pending
    /// requests fail with [`RequestError::ShuttingDown`]. A batch already
    /// running finishes on its own thread; there is nothing to join.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let lanes: Vec<Arc<Lane>> = lock(&self.shared.lanes).values().cloned().collect();
        for lane in &lanes {
            // Fail whatever is still queued, under the queue lock so a
            // waiter checking its ticket cannot miss the wake-up.
            let mut queue = lock(&lane.queue);
            for pending in queue.pending.drain(..) {
                *lock(&pending.ticket) = Some(Err(RequestError::ShuttingDown));
            }
            drop(queue);
            lane.idle.notify_all();
        }
    }
}

impl Drop for ScanService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A lane's cached sessions, shaped by its operator family. Rebuilt from
/// scratch after a panicked batch (the cached streaming state is suspect).
enum LaneState {
    Sum {
        /// Per-kind plain Sum sessions; all drained members share them.
        sessions: HashMap<ScanKind, ScanSession<i32, Sum>>,
    },
    Recurrence {
        coeffs: Vec<i32>,
        /// Per-kind recurrence sessions; all drained members share them.
        sessions: HashMap<ScanKind, ScanSession<i32, LinRec<i32>>>,
    },
}

impl LaneState {
    fn new(key: &LaneKey) -> LaneState {
        match key {
            LaneKey::Sum => LaneState::Sum {
                sessions: HashMap::new(),
            },
            LaneKey::Recurrence(coeffs) => LaneState::Recurrence {
                coeffs: coeffs.clone(),
                sessions: HashMap::new(),
            },
        }
    }

    /// Discards every cached session (after a panicked batch).
    fn rebuild(&mut self) {
        match self {
            LaneState::Sum { sessions } => sessions.clear(),
            LaneState::Recurrence { sessions, .. } => sessions.clear(),
        }
    }

    /// The latest traced report of the first cached session that has one.
    fn last_report(&self) -> Option<sam_core::ScanReport> {
        match self {
            LaneState::Sum { sessions } => sessions.values().find_map(|s| s.last_report()),
            LaneState::Recurrence { sessions, .. } => {
                sessions.values().find_map(|s| s.last_report())
            }
        }
    }
}

/// Resolves the shared plan for `spec` and the service engine/trace
/// configuration.
fn plan_for(shared: &Shared, spec: ScanSpec) -> ScanPlan {
    shared.plans.get_or_insert_with(spec, || {
        let mut hint = PlanHint::expected_len(shared.cfg.max_batch_elems);
        hint.trace = shared.cfg.trace;
        ScanPlan::new(spec, shared.cfg.engine.clone(), hint)
    })
}

/// Runs one request on a cached per-request session: resume from its
/// checkpoint (or reset), feed its values, and checkpoint back out if it
/// keeps streaming. Used for every recurrence member and every streaming
/// Sum member.
fn run_single<Op: ChunkKernel<i32>>(
    session: &mut ScanSession<i32, Op>,
    request: &ScanRequest,
) -> Result<ScanOutput, RequestError> {
    match &request.checkpoint {
        Some(bytes) => {
            let checkpoint = CarryState::from_bytes(bytes).map_err(RequestError::BadCheckpoint)?;
            session.reset();
            session
                .resume(&checkpoint)
                .map_err(RequestError::BadCheckpoint)?;
        }
        None => session.reset(),
    }
    let values = session.feed(&request.values).to_vec();
    let checkpoint = request.streaming.then(|| session.carry_state().to_bytes());
    Ok(ScanOutput { values, checkpoint })
}

/// Executes one drained batch on the lane's cached sessions, fills every
/// ticket, and attributes metrics. A panic anywhere inside the launch
/// fails the whole batch — and only the batch.
fn execute_batch(shared: &Shared, lane: &Lane, state: &mut LaneState, batch: &mut Vec<Pending>) {
    let launched = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let results = match state {
            LaneState::Sum { sessions } => execute_sum_batch(shared, batch, sessions),
            LaneState::Recurrence { coeffs, sessions } => {
                execute_recurrence_batch(shared, batch, coeffs, sessions)
            }
        };
        // Fault injection *after* the work: the panic leaves cached
        // sessions holding consumed streams, which is exactly the state a
        // real handler bug would strand — the rebuild below must cope.
        if let Some(chaos) = &shared.cfg.chaos_panic_tenant {
            if batch.iter().any(|p| &p.request.tenant == chaos) {
                panic!("chaos: injected handler panic for tenant {chaos}");
            }
        }
        results
    }));
    let exec_us = u64::try_from(launched.elapsed().as_micros()).unwrap_or(u64::MAX);
    let panicked = outcome.is_err();

    // Traced launches surface measured throughput for SLO accounting.
    let report = match &outcome {
        Ok(_) if shared.cfg.trace => state.last_report(),
        _ => None,
    };
    if panicked {
        // Cached sessions may hold half-fed streams; rebuild lazily.
        state.rebuild();
    }
    // A panicked launch yields no results, so every member (and any a
    // launch failed to answer) is filled with `Panicked` below.
    let mut results = outcome.unwrap_or_default().into_iter();

    // Everything from here on runs outside `catch_unwind` on the thread
    // holding the combining role, so it must not panic: no indexing, no
    // `expect`.
    let size = batch.len() as u64;
    let mut metrics = lock(&shared.metrics);
    metrics.batches += 1;
    metrics.requests += size;
    metrics.max_batch_requests = metrics.max_batch_requests.max(size);
    if panicked {
        metrics.panicked_batches += 1;
    }
    update_entry(&mut metrics.lanes, &lane.label, |lane| {
        lane.batches += 1;
        lane.requests += size;
        lane.max_batch_requests = lane.max_batch_requests.max(size);
    });
    for pending in batch.drain(..) {
        let result = results.next().unwrap_or(Err(RequestError::Panicked));
        update_entry(&mut metrics.tenants, &pending.request.tenant, |tenant| {
            tenant.requests += 1;
            tenant.elements += pending.request.values.len() as u64;
            tenant.batches += 1;
            tenant.queue_wait_us += u64::try_from(
                launched
                    .saturating_duration_since(pending.enqueued)
                    .as_micros(),
            )
            .unwrap_or(u64::MAX);
            tenant.exec_us += exec_us;
            if let Some(report) = &report {
                tenant.last_elems_per_sec = report.elems_per_sec();
                tenant.last_carry_wait_fraction = report.carry_wait_fraction();
            }
            if result.is_err() {
                tenant.errors += 1;
            }
        });
        *lock(&pending.ticket) = Some(result);
    }
}

/// Applies `update` to `map[key]`, inserting the default on a miss. The
/// key is cloned only on that miss: the steady state is a known name,
/// and the entry API would clone it on every call.
fn update_entry<V: Default>(map: &mut HashMap<String, V>, key: &str, update: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(value) => update(value),
        None => update(map.entry(key.to_owned()).or_default()),
    }
}

/// The Sum lane launch: every member runs on its own, in batch order.
/// Streaming members run on their kind's cached session; plain members
/// run one-shot on the cached inclusive session (exclusive ones shift the
/// result, which is exact for integer sums); segmented members run the
/// serial segmented scan, which restarts at index 0 and at every head —
/// so no request ever observes a neighbor's running sum. Returns one
/// result per batch member, in batch order.
fn execute_sum_batch(
    shared: &Shared,
    batch: &[Pending],
    sessions: &mut HashMap<ScanKind, ScanSession<i32, Sum>>,
) -> Vec<Result<ScanOutput, RequestError>> {
    batch
        .iter()
        .map(|pending| {
            let req = &pending.request;
            if req.streaming || req.checkpoint.is_some() {
                let session = sessions.entry(req.kind).or_insert_with(|| {
                    let spec = ScanSpec::inclusive().with_kind(req.kind);
                    plan_for(shared, spec).session(Sum)
                });
                return run_single(session, req);
            }
            let values = if req.heads.is_empty() {
                let session = sessions
                    .entry(ScanKind::Inclusive)
                    .or_insert_with(|| plan_for(shared, ScanSpec::inclusive()).session(Sum));
                let mut out = vec![0; req.values.len()];
                session.scan_into(&req.values, &mut out);
                if req.kind == ScanKind::Exclusive && !out.is_empty() {
                    let n = out.len();
                    out.copy_within(..n - 1, 1);
                    out[0] = 0;
                }
                out
            } else {
                // Admission guarantees one head per value.
                sam_core::segmented::scan_serial(&req.values, &req.heads, &Sum, req.kind)
            };
            Ok(ScanOutput {
                values,
                checkpoint: None,
            })
        })
        .collect()
}

/// A recurrence lane launch: every drained member runs back-to-back on
/// the kind's cached [`LinRec`] session (reset or resumed per request).
/// The coalescing dividend here is amortizing the plan, session, and
/// queue handshake across the drain, not fusing the scans themselves.
fn execute_recurrence_batch(
    shared: &Shared,
    batch: &[Pending],
    coeffs: &[i32],
    sessions: &mut HashMap<ScanKind, ScanSession<i32, LinRec<i32>>>,
) -> Vec<Result<ScanOutput, RequestError>> {
    batch
        .iter()
        .map(|pending| {
            let req = &pending.request;
            let session = match sessions.entry(req.kind) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    // Admission validated construction; if the invariant
                    // is ever violated it surfaces per request, not as a
                    // panic.
                    let op = LinRec::new(coeffs.to_vec()).map_err(RequestError::BadRecurrence)?;
                    let spec = ScanSpec::inclusive()
                        .with_kind(req.kind)
                        .with_order(op.order())
                        .map_err(|_| {
                            RequestError::BadRecurrence(sam_core::op::LinRecError::TooLong {
                                got: coeffs.len(),
                                max: ScanSpec::MAX_ORDER as usize,
                            })
                        })?;
                    e.insert(plan_for(shared, spec).session(op))
                }
            };
            run_single(session, req)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RequestError, ScanRequest, ServiceConfig};

    #[test]
    fn single_request_roundtrip() {
        let service = ScanService::start(ServiceConfig::default());
        let got = service
            .scan(ScanRequest::inclusive("t", vec![3, -1, 4, -1, 5]))
            .unwrap();
        assert_eq!(got, vec![3, 2, 6, 5, 10]);
        let got = service
            .scan(ScanRequest::exclusive("t", vec![3, -1, 4]))
            .unwrap();
        assert_eq!(got, vec![0, 3, 2]);
        assert_eq!(service.plans_cached(), 1);
        assert_eq!(service.lanes_active(), 1);
        service.shutdown();
    }

    #[test]
    fn segmented_heads_are_honored_and_request_starts_forced() {
        let service = ScanService::start(ServiceConfig::default());
        // heads[0] = false is overridden: requests are independent.
        let got = service
            .scan(
                ScanRequest::inclusive("t", vec![1, 1, 1, 1])
                    .with_heads(vec![false, false, true, false]),
            )
            .unwrap();
        assert_eq!(got, vec![1, 2, 1, 2]);
        service.shutdown();
    }

    #[test]
    fn malformed_and_oversized_requests_fail_fast() {
        let cfg = ServiceConfig::default().with_batch_limits(16, 8);
        let service = ScanService::start(cfg);
        let err = service
            .scan(ScanRequest::inclusive("t", vec![1, 2]).with_heads(vec![true]))
            .unwrap_err();
        assert!(matches!(err, RequestError::Malformed(_)));
        let err = service
            .scan(ScanRequest::inclusive("t", vec![0; 9]))
            .unwrap_err();
        assert_eq!(err, RequestError::TooLarge { elems: 9, max: 8 });
        // The service still works after rejections.
        assert_eq!(
            service.scan(ScanRequest::inclusive("t", vec![7])).unwrap(),
            vec![7]
        );
        service.shutdown();
    }

    /// The serial recurrence loop every routed recurrence request must
    /// match bit for bit (inclusive emits `y_i`, exclusive the
    /// prediction `y_i - b_i`).
    fn serial_linrec(values: &[i32], coeffs: &[i32], kind: ScanKind) -> Vec<i32> {
        let mut hist = vec![0i32; coeffs.len()];
        values
            .iter()
            .map(|&x| {
                let pred = coeffs
                    .iter()
                    .zip(&hist)
                    .fold(0i32, |a, (&c, &h)| a.wrapping_add(c.wrapping_mul(h)));
                let y = x.wrapping_add(pred);
                hist.rotate_right(1);
                hist[0] = y;
                match kind {
                    ScanKind::Inclusive => y,
                    ScanKind::Exclusive => pred,
                }
            })
            .collect()
    }

    #[test]
    fn recurrence_requests_execute_on_their_own_lane() {
        let service = ScanService::start(ServiceConfig::default());
        let values = vec![1, 2, 3, 4, 5];
        for coeffs in [vec![2], vec![1], vec![2, -1], vec![1, 1, 1]] {
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let got = service
                    .scan(
                        ScanRequest::new("iir", kind, values.clone())
                            .with_recurrence(coeffs.clone()),
                    )
                    .unwrap();
                assert_eq!(
                    got,
                    serial_linrec(&values, &coeffs, kind),
                    "{coeffs:?} {kind:?}"
                );
            }
        }
        // One lane per coefficient vector, plus none for Sum (never used).
        assert_eq!(service.lanes_active(), 4);
        let metrics = service.metrics();
        assert_eq!(metrics.lanes["rec[2,-1]"].requests, 2);
        // Plain requests still work, on their own lane.
        assert_eq!(
            service.scan(ScanRequest::inclusive("t", vec![7])).unwrap(),
            vec![7]
        );
        assert_eq!(service.lanes_active(), 5);
        service.shutdown();
    }

    #[test]
    fn recurrence_requests_with_heads_or_bad_coeffs_are_rejected() {
        let service = ScanService::start(ServiceConfig::default());
        let err = service
            .scan(
                ScanRequest::inclusive("iir", vec![1, 2])
                    .with_recurrence(vec![2])
                    .with_heads(vec![false, true]),
            )
            .unwrap_err();
        assert!(matches!(err, RequestError::UnsupportedSpec { .. }));
        let err = service
            .scan(ScanRequest::inclusive("iir", vec![1]).with_recurrence(Vec::new()))
            .unwrap_err();
        assert!(matches!(err, RequestError::BadRecurrence(_)));
        let err = service
            .scan(ScanRequest::inclusive("iir", vec![1]).with_recurrence(vec![1; 65]))
            .unwrap_err();
        assert!(matches!(err, RequestError::BadRecurrence(_)));
        service.shutdown();
    }

    #[test]
    fn streaming_frames_continue_the_scan_across_requests() {
        let service = ScanService::start(ServiceConfig::default());
        let frames: [&[i32]; 3] = [&[1, 2, 3], &[], &[4, 5]];
        let one_shot = service
            .scan(ScanRequest::inclusive("s", frames.concat()))
            .unwrap();

        let mut got = Vec::new();
        let mut checkpoint: Option<Vec<u8>> = None;
        for (i, frame) in frames.iter().enumerate() {
            let mut request = ScanRequest::inclusive("s", frame.to_vec()).streaming();
            if let Some(ck) = checkpoint.take() {
                request = request.with_checkpoint(ck);
            }
            if i == frames.len() - 1 {
                request.streaming = false; // final frame: no new checkpoint
            }
            let output = service.scan_streaming(request).unwrap();
            got.extend_from_slice(&output.values);
            checkpoint = output.checkpoint;
            assert_eq!(checkpoint.is_some(), i < frames.len() - 1, "frame {i}");
        }
        assert_eq!(got, one_shot);
        service.shutdown();
    }

    #[test]
    fn streaming_recurrence_frames_match_the_one_shot_series() {
        let service = ScanService::start(ServiceConfig::default());
        let coeffs = vec![2, -1];
        let values: Vec<i32> = (0..40).map(|i| i % 7 - 3).collect();
        let one_shot = service
            .scan(ScanRequest::inclusive("r", values.clone()).with_recurrence(coeffs.clone()))
            .unwrap();
        let mut got = Vec::new();
        let mut checkpoint: Option<Vec<u8>> = None;
        for frame in values.chunks(7) {
            let mut request = ScanRequest::inclusive("r", frame.to_vec())
                .with_recurrence(coeffs.clone())
                .streaming();
            if let Some(ck) = checkpoint.take() {
                request = request.with_checkpoint(ck);
            }
            let output = service.scan_streaming(request).unwrap();
            got.extend_from_slice(&output.values);
            checkpoint = output.checkpoint;
        }
        assert_eq!(got, one_shot);
        service.shutdown();
    }

    #[test]
    fn mismatched_and_corrupt_checkpoints_are_rejected() {
        let service = ScanService::start(ServiceConfig::default());
        // Corrupt bytes fail at admission.
        let err = service
            .scan(ScanRequest::inclusive("s", vec![1]).with_checkpoint(vec![0xde, 0xad]))
            .unwrap_err();
        assert!(matches!(err, RequestError::BadCheckpoint(_)));
        // A sum checkpoint cannot resume a recurrence stream (and vice
        // versa): the operator fingerprint catches it at resume time.
        let sum_ck = service
            .scan_streaming(ScanRequest::inclusive("s", vec![1, 2]).streaming())
            .unwrap()
            .checkpoint
            .unwrap();
        let err = service
            .scan(
                ScanRequest::inclusive("s", vec![3])
                    .with_recurrence(vec![2])
                    .with_checkpoint(sum_ck.clone()),
            )
            .unwrap_err();
        assert!(matches!(err, RequestError::BadCheckpoint(_)), "{err:?}");
        // Heads cannot ride a streaming frame.
        let err = service
            .scan(
                ScanRequest::inclusive("s", vec![1, 2])
                    .with_checkpoint(sum_ck)
                    .with_heads(vec![true, false]),
            )
            .unwrap_err();
        assert!(matches!(err, RequestError::UnsupportedSpec { .. }));
        service.shutdown();
    }

    #[test]
    fn lane_population_is_bounded() {
        let service = ScanService::start(ServiceConfig::default().with_max_lanes(2));
        assert_eq!(
            service.scan(ScanRequest::inclusive("t", vec![1])).unwrap(),
            vec![1]
        );
        service
            .scan(ScanRequest::inclusive("t", vec![1]).with_recurrence(vec![2]))
            .unwrap();
        let err = service
            .scan(ScanRequest::inclusive("t", vec![1]).with_recurrence(vec![3]))
            .unwrap_err();
        assert_eq!(err, RequestError::LanesExhausted { max: 2 });
        // Existing lanes keep serving.
        service
            .scan(ScanRequest::inclusive("t", vec![1]).with_recurrence(vec![2]))
            .unwrap();
        service.shutdown();
    }

    #[test]
    fn empty_request_yields_empty_output() {
        let service = ScanService::start(ServiceConfig::default());
        assert_eq!(
            service.scan(ScanRequest::inclusive("t", vec![])).unwrap(),
            vec![]
        );
        service.shutdown();
    }

    /// The plain-sum oracle: wrapping `i32` prefix sums.
    fn serial_sum(values: &[i32], kind: ScanKind) -> Vec<i32> {
        sam_core::segmented::scan_serial(values, &vec![false; values.len()], &Sum, kind)
    }

    #[test]
    fn mixed_sum_members_share_one_batch_and_match_the_oracles() {
        let service = ScanService::start(ServiceConfig::default());
        let values: Vec<i32> = (0..37).map(|i| (i * 7919) % 201 - 100).collect();
        let mut interior = vec![false; values.len()];
        interior[5] = true;
        interior[20] = true;
        let mut led = interior.clone();
        led[0] = true;
        let requests = [
            ScanRequest::inclusive("a", values.clone()),
            ScanRequest::exclusive("b", values.clone()),
            ScanRequest::inclusive("c", values.clone()).with_heads(led.clone()),
            ScanRequest::exclusive("c", values.clone()).with_heads(led),
            // heads[0] = false: the request start is still a head.
            ScanRequest::inclusive("d", values.clone()).with_heads(interior.clone()),
            ScanRequest::exclusive("d", values.clone()).with_heads(interior),
            ScanRequest::exclusive("e", Vec::new()),
            ScanRequest::inclusive("s", values.clone()).streaming(),
        ];
        let before = service.metrics().batches;
        // Queue every member before anyone waits, so one batch drains them.
        let handles: Vec<ResponseHandle> = requests
            .iter()
            .map(|r| service.submit(r.clone()).unwrap())
            .collect();
        for (request, handle) in requests.iter().zip(handles) {
            let want = if request.heads.is_empty() {
                serial_sum(&request.values, request.kind)
            } else {
                sam_core::segmented::scan_serial(
                    &request.values,
                    &request.heads,
                    &Sum,
                    request.kind,
                )
            };
            assert_eq!(handle.wait().unwrap(), want, "{request:?}");
        }
        let metrics = service.metrics();
        assert_eq!(metrics.batches, before + 1, "the members shared one launch");
        assert_eq!(
            metrics.lanes["sum"].max_batch_requests,
            requests.len() as u64
        );
        // Both plain kinds and the inclusive stream run on one plan.
        assert_eq!(service.plans_cached(), 1);
        service.shutdown();
    }

    #[test]
    fn traced_services_report_per_tenant_throughput() {
        let service = ScanService::start(ServiceConfig::default().with_trace());
        // Large enough that a scan spans at least a microsecond.
        let values: Vec<i32> = (0..1 << 18).map(|i| i % 13 - 6).collect();
        service
            .scan(ScanRequest::inclusive("plain", values.clone()))
            .unwrap();
        service
            .scan(ScanRequest::inclusive("rec", values).with_recurrence(vec![1, 1]))
            .unwrap();
        let metrics = service.metrics();
        for tenant in ["plain", "rec"] {
            let rate = metrics.tenants[tenant].last_elems_per_sec;
            assert!(rate > 0.0, "{tenant}: {rate}");
        }
        service.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = ScanService::start(ServiceConfig::default());
        service.shutdown();
        let err = service
            .scan(ScanRequest::inclusive("t", vec![1]))
            .unwrap_err();
        assert_eq!(err, RequestError::ShuttingDown);
    }

    #[test]
    fn metrics_attribute_per_tenant_and_per_lane() {
        let service = ScanService::start(ServiceConfig::default());
        service
            .scan(ScanRequest::inclusive("a", vec![1, 2, 3]))
            .unwrap();
        service.scan(ScanRequest::inclusive("b", vec![4])).unwrap();
        service
            .scan(ScanRequest::inclusive("a", vec![5, 6]))
            .unwrap();
        service
            .scan(ScanRequest::inclusive("a", vec![1, 1]).with_recurrence(vec![3]))
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.requests, 4);
        assert_eq!(m.tenants["a"].requests, 3);
        assert_eq!(m.tenants["a"].elements, 7);
        assert_eq!(m.tenants["b"].requests, 1);
        assert_eq!(m.tenants["b"].elements, 1);
        assert_eq!(m.lanes["sum"].requests, 3);
        assert_eq!(m.lanes["rec[3]"].requests, 1);
        service.shutdown();
    }
}
