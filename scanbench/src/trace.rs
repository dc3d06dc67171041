//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and duration, and the span that
//! caused it (which may live on another thread: a replica server span's
//! parent is the client round trip that sent the frame). Spans stay in
//! memory and are written once, as a Chrome trace, when the run ends. A
//! layer's self time is its span's duration minus its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run; later spans are dropped, so a long traced run
/// cannot grow memory without bound.
const MAX_SPANS: usize = 2_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A span that has started but not yet ended.
#[must_use]
pub struct Open {
    pub id: u64,
    start: Option<Instant>,
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    TID.with(|t| *t)
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off; spans opened while off are never
    /// recorded and cost no clock reads.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn open(&self) -> Open {
        if !self.is_on() {
            return Open { id: 0, start: None };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start: Some(Instant::now()),
        }
    }

    pub fn close(&self, open: Open, name: &'static str, parent: u64) {
        let Some(start) = open.start else { return };
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent,
            name,
            tid: thread_index(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock poisoned by a panic");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open();
        let out = f();
        self.close(open, name, parent);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer lock poisoned by a panic"),
        )
    }
}

/// Per span name: `(count, total self time in ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    out
}

/// Mean self time of the spans named `name`, in ns (0 if there are none).
pub fn mean_self_ns(times: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    match times.get(name) {
        Some(&(count, total)) if count > 0 => total as f64 / count as f64,
        _ => 0.0,
    }
}

/// Writes `spans` as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",\n")?;
        }
        write!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent
        )?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_across_threads() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                name: "rtt",
                tid: 1,
                start_ns: 0,
                dur_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "encode",
                tid: 1,
                start_ns: 0,
                dur_ns: 10,
            },
            Span {
                id: 3,
                parent: 1,
                name: "server",
                tid: 2,
                start_ns: 20,
                dur_ns: 50,
            },
        ];
        let times = self_times(&spans);
        assert_eq!(times["rtt"], (1, 40));
        assert_eq!(mean_self_ns(&times, "server"), 50.0);
        assert_eq!(mean_self_ns(&times, "absent"), 0.0);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, || 7), 7);
        assert!(tracer.take().is_empty());
        tracer.set_on(true);
        tracer.span("x", 0, || ());
        assert_eq!(tracer.take().len(), 1);
    }
}
