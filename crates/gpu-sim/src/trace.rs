//! Execution tracing.
//!
//! An optional, thread-safe event log that persistent-block kernels can
//! emit into, capturing the pipeline behaviour Figure 2 of the paper
//! illustrates: which block processed which chunk, when each chunk's local
//! sums were published, and when its carry became available. Tests use the
//! log to verify the protocol's causal structure (a chunk's carry can only
//! be ready after its predecessors published), and debugging sessions use
//! it to see scheduling skew.
//!
//! Tracing is off unless the GPU was created with
//! [`Gpu::with_trace`](crate::Gpu::with_trace); the disabled path is a
//! single `Option` check per emission site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A block began processing a chunk.
    ChunkStart,
    /// A chunk's local sums for one order iteration were published
    /// (after the fence, flag bumped).
    SumPublished {
        /// Order iteration (0-based).
        iter: u32,
    },
    /// A chunk's accumulated carry for one iteration is complete.
    CarryReady {
        /// Order iteration (0-based).
        iter: u32,
    },
    /// A chunk's output was stored.
    ChunkDone,
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (total order of emission).
    pub seq: u64,
    /// Microseconds since the log's creation ([`EventLog::new`]) at the
    /// moment of emission. Wall-clock skew of the simulating host, not
    /// modelled GPU time; used by the observability layer to derive spans.
    pub ts_us: u64,
    /// Emitting block.
    pub block: usize,
    /// Chunk index.
    pub chunk: u64,
    /// Event kind.
    pub kind: EventKind,
}

/// A shared, append-only event log.
#[derive(Debug)]
pub struct EventLog {
    events: Mutex<Vec<Event>>,
    counter: AtomicU64,
    epoch: Instant,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog {
            events: Mutex::new(Vec::new()),
            counter: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }
}

impl EventLog {
    /// Creates an empty log; event timestamps count from this moment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, assigning it the next sequence number and the
    /// current timestamp.
    pub fn emit(&self, block: usize, chunk: u64, kind: EventKind) {
        let seq = self.counter.fetch_add(1, Ordering::Relaxed);
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        self.events.lock().expect("event log lock").push(Event {
            seq,
            ts_us,
            block,
            chunk,
            kind,
        });
    }

    /// Snapshots the events in emission order.
    pub fn events(&self) -> Vec<Event> {
        let mut v = self.events.lock().expect("event log lock").clone();
        v.sort_by_key(|e| e.seq);
        v
    }

    /// Removes and returns all recorded events in emission order, leaving
    /// the log empty (sequence numbers keep counting). Lets one log serve
    /// consecutive scans with per-scan event sets.
    pub fn drain(&self) -> Vec<Event> {
        let mut v: Vec<Event> = {
            let mut guard = self.events.lock().expect("event log lock");
            std::mem::take(&mut *guard)
        };
        v.sort_by_key(|e| e.seq);
        v
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("event log lock").len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.lock().expect("event log lock").is_empty()
    }

    /// Sequence number of the first event matching `pred`, if any.
    pub fn first_seq(&self, mut pred: impl FnMut(&Event) -> bool) -> Option<u64> {
        self.events().into_iter().find(|e| pred(e)).map(|e| e.seq)
    }

    /// Renders a Figure 2-style lane chart: one column per block, one row
    /// per event, each cell `chunk:event` — the paper's visualization of
    /// the pipelined chunk processing.
    pub fn render_lanes(&self, blocks: usize) -> String {
        let mut out = String::new();
        out.push_str("   seq");
        for b in 0..blocks {
            out.push_str(&format!("{:>12}", format!("block {b}")));
        }
        out.push('\n');
        for e in self.events() {
            if e.block >= blocks {
                continue;
            }
            out.push_str(&format!("{:>6}", e.seq));
            for b in 0..blocks {
                if b == e.block {
                    let tag = match e.kind {
                        EventKind::ChunkStart => format!("c{}:load", e.chunk),
                        EventKind::SumPublished { iter } => format!("c{}:S{iter}", e.chunk),
                        EventKind::CarryReady { iter } => format!("c{}:K{iter}", e.chunk),
                        EventKind::ChunkDone => format!("c{}:done", e.chunk),
                    };
                    out.push_str(&format!("{tag:>12}"));
                } else {
                    out.push_str(&format!("{:>12}", "."));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders a compact textual timeline (one line per event), for
    /// debugging.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!(
                "{:>6}  block {:>3}  chunk {:>6}  {:?}\n",
                e.seq, e.block, e.chunk, e.kind
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_keep_emission_order() {
        let log = EventLog::new();
        log.emit(0, 0, EventKind::ChunkStart);
        log.emit(1, 1, EventKind::SumPublished { iter: 0 });
        log.emit(0, 0, EventKind::ChunkDone);
        let evs = log.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(evs[1].kind, EventKind::SumPublished { iter: 0 });
    }

    #[test]
    fn concurrent_emission_is_safe_and_total() {
        let log = EventLog::new();
        std::thread::scope(|s| {
            for b in 0..8 {
                let log = &log;
                s.spawn(move || {
                    for c in 0..100 {
                        log.emit(b, c, EventKind::ChunkStart);
                    }
                });
            }
        });
        assert_eq!(log.len(), 800);
        let mut seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 800, "sequence numbers are unique");
    }

    #[test]
    fn drain_empties_log_and_keeps_order() {
        let log = EventLog::new();
        log.emit(0, 0, EventKind::ChunkStart);
        log.emit(0, 0, EventKind::ChunkDone);
        let evs = log.drain();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].ts_us <= evs[1].ts_us, "timestamps follow emission");
        assert!(log.is_empty());
        log.emit(1, 1, EventKind::ChunkStart);
        assert_eq!(log.events()[0].seq, 2, "sequence numbers keep counting");
    }

    #[test]
    fn first_seq_finds_events() {
        let log = EventLog::new();
        log.emit(0, 5, EventKind::ChunkStart);
        log.emit(0, 5, EventKind::ChunkDone);
        assert_eq!(log.first_seq(|e| e.kind == EventKind::ChunkDone), Some(1));
        assert_eq!(log.first_seq(|e| e.chunk == 99), None);
    }

    #[test]
    fn lane_chart_places_events_in_columns() {
        let log = EventLog::new();
        log.emit(0, 0, EventKind::ChunkStart);
        log.emit(1, 1, EventKind::SumPublished { iter: 0 });
        let text = log.render_lanes(2);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("block 0") && lines[0].contains("block 1"));
        assert!(lines[1].contains("c0:load"));
        assert!(lines[2].contains("c1:S0"));
    }

    #[test]
    fn render_is_nonempty() {
        let log = EventLog::new();
        log.emit(2, 7, EventKind::CarryReady { iter: 1 });
        let text = log.render();
        assert!(text.contains("block   2"));
        assert!(text.contains("CarryReady"));
    }
}
