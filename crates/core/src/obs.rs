//! Scan-trace observability: spans, carry-wait histograms, reports.
//!
//! SAM's headline claim is *communication-optimality* — exactly one global
//! read and one write per element, independent of the order `q` and tuple
//! size `s` (paper §4). This module makes every scan able to prove its own
//! traffic and latency profile:
//!
//! * [`Span`] — one timed phase of one chunk on one worker (plan
//!   resolution, chunk-kernel execution, carry publish, carry wait, carry
//!   apply, streaming feed), recorded into a shared [`TraceSink`];
//! * [`WaitHistogram`] — log2-bucketed carry-wait latencies, the
//!   distribution the decoupled-lookback protocol's liveness depends on;
//! * [`ScanReport`] — the per-scan bundle surfaced by
//!   [`ScanSession::last_report`](crate::plan::ScanSession::last_report):
//!   wall time, the span set, the carry-wait histogram, and a
//!   [`MetricsSnapshot`] delta whose element counters feed the invariant
//!   gate (`elem_read_words == n && elem_write_words == n`);
//! * [`ScanReport::write_chrome_trace`] — Chrome trace-event JSON export
//!   (load `chrome://tracing` or <https://ui.perfetto.dev>) for visual
//!   inspection of the block interleavings the scheduler linearized.
//!
//! Tracing is strictly opt-in via
//! [`PlanHint::with_trace`](crate::plan::PlanHint::with_trace): when the
//! hint is off no [`TraceSink`] exists and every hook site reduces to one
//! branch on a `None` option — no clock reads, no allocation, no atomics.
//!
//! Reports describe *one scan at a time*: concurrent scans on one traced
//! plan interleave their spans and metrics in the shared sink, so drive a
//! traced plan from one thread when report accuracy matters.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::config::ScanSpec;
use gpu_sim::memory::contiguous_transactions;
use gpu_sim::trace::{Event, EventKind};
use gpu_sim::{AccessClass, Metrics, MetricsSnapshot};

/// Number of log2 buckets in a [`WaitHistogram`].
pub const WAIT_BUCKETS: usize = 20;

/// Which phase of the scan pipeline a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Plan resolution: engine selection, geometry derivation,
    /// engine-resource construction ([`crate::plan::ScanPlan::new`]).
    Plan,
    /// A chunk kernel scanning elements (local strided scan or cascade
    /// sweep).
    ChunkScan,
    /// Publishing a chunk's local sums and releasing its ready counter.
    CarryPublish,
    /// Waiting on predecessor ready counters and folding their sums into
    /// the carry — the decoupled-lookback latency.
    CarryWait,
    /// Applying the resolved carry to the chunk's outputs (including the
    /// exclusive rewrite).
    CarryApply,
    /// One streaming [`feed`](crate::plan::ScanSession::feed) batch
    /// (session-local fold).
    Feed,
}

impl Phase {
    /// Stable lowercase name, used as the Chrome trace event name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan-resolve",
            Phase::ChunkScan => "chunk-scan",
            Phase::CarryPublish => "carry-publish",
            Phase::CarryWait => "carry-wait",
            Phase::CarryApply => "carry-apply",
            Phase::Feed => "feed",
        }
    }
}

/// One timed phase of one chunk on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Worker (CPU) or block (simulated GPU) index; 0 for whole-scan spans.
    pub worker: usize,
    /// Chunk index the phase belongs to; 0 for whole-scan spans.
    pub chunk: u64,
    /// The pipeline phase.
    pub phase: Phase,
    /// Start, microseconds since the sink's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl Span {
    /// End of the span, microseconds since the sink's epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// Log2-bucketed latency histogram: bucket `i` counts durations in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 counts sub-microsecond waits),
/// with the top bucket absorbing everything longer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitHistogram {
    buckets: [u64; WAIT_BUCKETS],
}

impl Default for WaitHistogram {
    fn default() -> Self {
        WaitHistogram {
            buckets: [0; WAIT_BUCKETS],
        }
    }
}

impl WaitHistogram {
    /// Bucket index for a duration in microseconds.
    pub fn bucket_of(dur_us: u64) -> usize {
        ((u64::BITS - dur_us.leading_zeros()) as usize).min(WAIT_BUCKETS - 1)
    }

    /// Records one wait of `dur_us` microseconds.
    pub fn record(&mut self, dur_us: u64) {
        self.buckets[Self::bucket_of(dur_us)] += 1;
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; WAIT_BUCKETS] {
        &self.buckets
    }

    /// Total waits recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Inclusive upper bound (microseconds) of the highest non-empty
    /// bucket, or `None` for an empty histogram.
    pub fn max_bound_us(&self) -> Option<u64> {
        self.buckets.iter().rposition(|&c| c > 0).map(|i| {
            if i >= 63 {
                u64::MAX
            } else {
                (1u64 << i) - 1
            }
        })
    }
}

/// A shared, thread-safe recording target for one traced plan.
///
/// Created by [`crate::plan::ScanPlan::new`] when the hint enables
/// tracing; engines record [`Span`]s and charge the embedded [`Metrics`],
/// and the plan layer assembles a [`ScanReport`] per scan.
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    wait_hist: [AtomicU64; WAIT_BUCKETS],
    metrics: Metrics,
    last_report: Mutex<Option<ScanReport>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            wait_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            metrics: Metrics::new(),
            last_report: Mutex::new(None),
        }
    }
}

impl TraceSink {
    /// Creates an empty sink; timestamps count from this moment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Microseconds elapsed since the sink was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("trace sink lock").push(span);
    }

    /// Records one carry-wait latency into the histogram.
    pub fn note_wait(&self, dur_us: u64) {
        self.wait_hist[WaitHistogram::bucket_of(dur_us)].fetch_add(1, Ordering::Relaxed);
    }

    /// The sink's traffic counters (the CPU engines charge element traffic
    /// here; simulated-GPU plans charge the device's own [`Metrics`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Removes and returns all recorded spans, sorted by start time.
    pub fn drain_spans(&self) -> Vec<Span> {
        let mut v = std::mem::take(&mut *self.spans.lock().expect("trace sink lock"));
        v.sort_by_key(|s| (s.start_us, s.worker, s.chunk));
        v
    }

    /// Removes and returns the accumulated carry-wait histogram.
    pub fn drain_wait_hist(&self) -> WaitHistogram {
        let mut hist = WaitHistogram::default();
        for (slot, bucket) in self.wait_hist.iter().zip(hist.buckets.iter_mut()) {
            *bucket = slot.swap(0, Ordering::Relaxed);
        }
        hist
    }

    /// Stores `report` as the most recent scan's report.
    pub fn set_report(&self, report: ScanReport) {
        *self.last_report.lock().expect("trace sink lock") = Some(report);
    }

    /// Clones out the most recent scan's report, if any scan ran yet.
    pub fn last_report(&self) -> Option<ScanReport> {
        self.last_report.lock().expect("trace sink lock").clone()
    }
}

/// Runs `f`, recording a [`Span`] for it when `sink` is present.
///
/// This is the zero-cost hook shape: the disabled path is one branch on
/// `None` — no clock reads, no locking. [`Phase::CarryWait`] spans also
/// feed the sink's carry-wait histogram.
#[inline]
pub fn timed<R>(
    sink: Option<&TraceSink>,
    worker: usize,
    chunk: u64,
    phase: Phase,
    f: impl FnOnce() -> R,
) -> R {
    match sink {
        None => f(),
        Some(sink) => {
            let start_us = sink.now_us();
            let r = f();
            let dur_us = sink.now_us().saturating_sub(start_us);
            sink.record(Span {
                worker,
                chunk,
                phase,
                start_us,
                dur_us,
            });
            if phase == Phase::CarryWait {
                sink.note_wait(dur_us);
            }
            r
        }
    }
}

/// Charges one communication-optimal element pass — `n` words read and `n`
/// words written, fully coalesced — to `metrics`.
///
/// The host engines charge at whole-scan granularity: the cascade path
/// rounds its chunk size up to a lane multiple, so per-chunk ceilings would
/// make transaction totals *order-dependent* even though the actual traffic
/// is not. Whole-array granularity keeps the invariant the paper states:
/// identical element traffic for every `(q, s)` at a given `n`.
pub fn charge_elem_pass(metrics: &Metrics, n: usize, elem_bytes: usize) {
    let tx = contiguous_transactions(n, elem_bytes);
    metrics.add_read(AccessClass::Element, tx, n as u64);
    metrics.add_write(AccessClass::Element, tx, n as u64);
}

/// Derives [`Span`]s (and carry-wait histogram entries) from a simulated
/// GPU's timestamped [`Event`] stream.
///
/// Per `(block, chunk)` the protocol events partition the chunk's lifetime:
/// `ChunkStart → SumPublished` is kernel execution, `SumPublished →
/// CarryReady` is the decoupled-lookback wait, `CarryReady → ChunkDone` (or
/// the next `SumPublished` in the iterated path) is carry application.
/// Event timestamps are rebased so the earliest event lands at `offset_us`
/// on the sink's timeline.
pub fn spans_from_events(
    events: &[Event],
    offset_us: u64,
    spans: &mut Vec<Span>,
    hist: &mut WaitHistogram,
) {
    let Some(min_ts) = events.iter().map(|e| e.ts_us).min() else {
        return;
    };
    let rebase = |ts: u64| offset_us + (ts - min_ts);
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(usize, u64), Vec<&Event>> = BTreeMap::new();
    for e in events {
        groups.entry((e.block, e.chunk)).or_default().push(e);
    }
    for ((block, chunk), evs) in groups {
        let mut cursor: Option<u64> = None;
        for e in evs {
            let phase = match e.kind {
                EventKind::ChunkStart => {
                    cursor = Some(e.ts_us);
                    continue;
                }
                EventKind::SumPublished { .. } => Phase::ChunkScan,
                EventKind::CarryReady { .. } => Phase::CarryWait,
                EventKind::ChunkDone => Phase::CarryApply,
            };
            let Some(start) = cursor else { continue };
            let dur_us = e.ts_us.saturating_sub(start);
            spans.push(Span {
                worker: block,
                chunk,
                phase,
                start_us: rebase(start),
                dur_us,
            });
            if phase == Phase::CarryWait {
                hist.record(dur_us);
            }
            cursor = Some(e.ts_us);
        }
    }
    spans.sort_by_key(|s| (s.start_us, s.worker, s.chunk));
}

/// Everything one traced scan learned about itself.
///
/// Produced per scan (one-shot or per [`feed`] batch) on traced plans;
/// retrieved with [`ScanSession::last_report`] or
/// [`ScanPlan::last_report`].
///
/// [`feed`]: crate::plan::ScanSession::feed
/// [`ScanSession::last_report`]: crate::plan::ScanSession::last_report
/// [`ScanPlan::last_report`]: crate::plan::ScanPlan::last_report
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Engine that executed (`"serial"`, `"cpu"`, `"gpu-sim"`): the
    /// plan's engine. A `"cpu"` scan of one chunk ran serially on the
    /// calling thread, as its single `ChunkScan` span shows.
    pub engine: &'static str,
    /// The kernel family ([`crate::isa::Isa::name`]) the `Sum` chunk
    /// kernels dispatch to under this plan — `"scalar"`, `"swar"`,
    /// `"neon"`, `"avx2"` or `"avx512"`, snapshotted at plan construction
    /// from [`crate::isa::resolved`].
    pub isa: &'static str,
    /// The plan's spec.
    pub spec: ScanSpec,
    /// Elements scanned.
    pub n: usize,
    /// Wall time of the scan call, microseconds.
    pub wall_us: u64,
    /// Recorded spans, sorted by start time. Includes the one-time
    /// [`Phase::Plan`] span on the first report of a plan.
    pub spans: Vec<Span>,
    /// Carry-wait latency distribution across all workers and chunks.
    pub carry_wait_hist: WaitHistogram,
    /// Traffic delta attributable to this scan: element counters model the
    /// paper's global-memory behaviour (exactly `n` words read and `n`
    /// written, coalesced) for the host engines, and are the simulator's
    /// real counters for `gpu-sim` plans.
    pub metrics: MetricsSnapshot,
}

impl ScanReport {
    /// Observed throughput in elements per second, the primary cost signal
    /// of adaptive plans ([`crate::adapt::Cost`]). Zero-duration scans
    /// (sub-microsecond wall time) report 0.0 rather than infinity.
    pub fn elems_per_sec(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.n as f64 / (self.wall_us as f64 / 1e6)
    }

    /// Fraction of total span time spent in [`Phase::CarryWait`] — the
    /// adaptive cost signal's tie-breaker: of two geometries with
    /// indistinguishable throughput, prefer the one wasting less time
    /// blocked on predecessors.
    pub fn carry_wait_fraction(&self) -> f64 {
        let total: u64 = self.spans.iter().map(|s| s.dur_us).sum();
        if total == 0 {
            return 0.0;
        }
        self.phase_us(Phase::CarryWait) as f64 / total as f64
    }

    /// Total microseconds spent in `phase`, summed over all spans.
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.dur_us)
            .sum()
    }

    /// Peak number of chunks simultaneously in flight, from the overlap of
    /// per-chunk span intervals — a proxy for ring-slot occupancy (the
    /// paper's `3k`-slot circular buffers bound this by construction).
    pub fn max_chunks_in_flight(&self) -> usize {
        // Interval sweep over each chunk's [first span start, last span end).
        use std::collections::BTreeMap;
        let mut intervals: BTreeMap<(usize, u64), (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            if s.phase == Phase::Plan || s.phase == Phase::Feed {
                continue;
            }
            let e = intervals
                .entry((s.worker, s.chunk))
                .or_insert((s.start_us, s.end_us()));
            e.0 = e.0.min(s.start_us);
            e.1 = e.1.max(s.end_us());
        }
        let mut edges: Vec<(u64, i64)> = Vec::with_capacity(intervals.len() * 2);
        for (start, end) in intervals.values() {
            edges.push((*start, 1));
            edges.push((end.max(&(start + 1)).to_owned(), -1));
        }
        edges.sort_unstable();
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, d) in edges {
            live += d;
            peak = peak.max(live);
        }
        peak.max(0) as usize
    }

    /// Serializes the report as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), one complete (`"ph": "X"`) event per
    /// span; `tid` is the worker/block, `args.chunk` the chunk index.
    /// Open the file in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
        let _ = write!(
            out,
            "    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"name\": \"sam {} scan n={} q={} s={}\"}}}}",
            self.engine,
            self.n,
            self.spec.order(),
            self.spec.tuple()
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n    {{\"name\": \"{}\", \"cat\": \"scan\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}, \
                 \"args\": {{\"chunk\": {}}}}}",
                s.phase.name(),
                s.start_us,
                s.dur_us,
                s.worker,
                s.chunk
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes [`ScanReport::chrome_trace_json`] to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome_trace(&self, w: &mut impl io::Write) -> io::Result<()> {
        w.write_all(self.chrome_trace_json().as_bytes())
    }

    /// One-line human summary (used by the `profile` bench tool).
    pub fn summary(&self) -> String {
        format!(
            "{} [{}] n={} q={} s={}: {:.3} ms wall, scan {:.3} ms, wait {:.3} ms \
             ({} waits), elem {} R + {} W words, {} tx, peak {} chunks in flight",
            self.engine,
            self.isa,
            self.n,
            self.spec.order(),
            self.spec.tuple(),
            self.wall_us as f64 / 1e3,
            self.phase_us(Phase::ChunkScan) as f64 / 1e3,
            self.phase_us(Phase::CarryWait) as f64 / 1e3,
            self.carry_wait_hist.total(),
            self.metrics.elem_read_words,
            self.metrics.elem_write_words,
            self.metrics.elem_transactions(),
            self.max_chunks_in_flight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(worker: usize, chunk: u64, phase: Phase, start: u64, dur: u64) -> Span {
        Span {
            worker,
            chunk,
            phase,
            start_us: start,
            dur_us: dur,
        }
    }

    fn report(spans: Vec<Span>) -> ScanReport {
        ScanReport {
            engine: "cpu",
            isa: "scalar",
            spec: ScanSpec::inclusive(),
            n: 4,
            wall_us: 100,
            spans,
            carry_wait_hist: WaitHistogram::default(),
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = WaitHistogram::default();
        assert_eq!(WaitHistogram::bucket_of(0), 0);
        assert_eq!(WaitHistogram::bucket_of(1), 1);
        assert_eq!(WaitHistogram::bucket_of(2), 2);
        assert_eq!(WaitHistogram::bucket_of(3), 2);
        assert_eq!(WaitHistogram::bucket_of(1 << 18), WAIT_BUCKETS - 1);
        assert_eq!(WaitHistogram::bucket_of(u64::MAX), WAIT_BUCKETS - 1);
        h.record(0);
        h.record(3);
        h.record(u64::MAX);
        assert_eq!(h.total(), 3);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[WAIT_BUCKETS - 1], 1);
    }

    #[test]
    fn timed_records_only_when_sink_present() {
        assert_eq!(timed(None, 0, 0, Phase::ChunkScan, || 42), 42);
        let sink = TraceSink::new();
        let v = timed(Some(&sink), 1, 7, Phase::CarryWait, || 9);
        assert_eq!(v, 9);
        let spans = sink.drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].worker, 1);
        assert_eq!(spans[0].chunk, 7);
        assert_eq!(spans[0].phase, Phase::CarryWait);
        assert_eq!(
            sink.drain_wait_hist().total(),
            1,
            "wait spans feed the histogram"
        );
        assert!(sink.drain_spans().is_empty(), "drain empties the sink");
    }

    #[test]
    fn charge_elem_pass_is_one_read_one_write() {
        let m = Metrics::new();
        charge_elem_pass(&m, 1000, 8);
        let s = m.snapshot();
        assert_eq!(s.elem_read_words, 1000);
        assert_eq!(s.elem_write_words, 1000);
        assert_eq!(s.elem_read_transactions, s.elem_write_transactions);
    }

    #[test]
    fn max_chunks_in_flight_sweeps_overlaps() {
        let r = report(vec![
            span(0, 0, Phase::ChunkScan, 0, 10),
            span(1, 1, Phase::ChunkScan, 5, 10),
            span(2, 2, Phase::ChunkScan, 30, 5),
            span(0, 0, Phase::Plan, 0, 1000), // whole-scan spans excluded
        ]);
        assert_eq!(r.max_chunks_in_flight(), 2);
    }

    #[test]
    fn chrome_trace_shape() {
        let r = report(vec![span(3, 9, Phase::CarryWait, 12, 34)]);
        let json = r.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"carry-wait\""));
        assert!(json.contains("\"ts\": 12"));
        assert!(json.contains("\"dur\": 34"));
        assert!(json.contains("\"tid\": 3"));
        assert!(json.contains("\"chunk\": 9"));
        let mut buf = Vec::new();
        r.write_chrome_trace(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), json);
    }

    #[test]
    fn spans_from_events_partition_chunk_lifetime() {
        let log = gpu_sim::EventLog::new();
        log.emit(0, 0, EventKind::ChunkStart);
        log.emit(0, 0, EventKind::SumPublished { iter: 0 });
        log.emit(0, 0, EventKind::CarryReady { iter: 0 });
        log.emit(0, 0, EventKind::ChunkDone);
        let mut spans = Vec::new();
        let mut hist = WaitHistogram::default();
        spans_from_events(&log.drain(), 500, &mut spans, &mut hist);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].phase, Phase::ChunkScan);
        assert_eq!(spans[1].phase, Phase::CarryWait);
        assert_eq!(spans[2].phase, Phase::CarryApply);
        assert!(spans[0].start_us >= 500, "rebased onto the sink timeline");
        assert_eq!(hist.total(), 1);
    }
}
