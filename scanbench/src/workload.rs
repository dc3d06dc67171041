//! What every workload shares: the spec tags, the run context, the
//! per-phase accumulators, and the report a run hands back.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sam_core::cpu::CpuScanner;
use sam_core::op::{LinRec, Sum};
use sam_core::plan::{ScanPlan, ScanSession};
use sam_core::{serial, ScanKind, ScanSpec};

use crate::oracle::Reference;
use crate::stats;

/// The operator and spec of one call shape.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// i64 `Sum` of order `order` over tuples of `tuple`.
    Sum {
        order: u32,
        tuple: usize,
        exclusive: bool,
    },
    /// i64 `LinRec` with these coefficients (order = depth), tuple 1.
    Rec(&'static [i64]),
}

/// A named call shape. `oQtS` is an inclusive Sum of order Q over tuples
/// of S, `o1t1x` its exclusive form, `recK` a recurrence of depth K.
#[derive(Debug, Clone, Copy)]
pub struct Tag {
    pub name: &'static str,
    pub shape: Shape,
}

const fn sum(name: &'static str, order: u32, tuple: usize, exclusive: bool) -> Tag {
    Tag {
        name,
        shape: Shape::Sum {
            order,
            tuple,
            exclusive,
        },
    }
}

/// The depth-8 taps of the repository's recurrence benchmarks.
const TAPS8: [i64; 8] = [3, -1, 2, 0, 1, -2, 1, 1];

/// Corners of the paper's order x tuple grid.
pub const SUM_TAGS: [Tag; 7] = [
    sum("o1t1", 1, 1, false),
    sum("o1t1x", 1, 1, true),
    sum("o2t1", 2, 1, false),
    sum("o8t1", 8, 1, false),
    sum("o1t2", 1, 2, false),
    sum("o2t2", 2, 2, false),
    sum("o5t5", 5, 5, false),
];

pub const REC_TAGS: [Tag; 3] = [
    Tag {
        name: "rec1",
        shape: Shape::Rec(&[3]),
    },
    Tag {
        name: "rec2",
        shape: Shape::Rec(&[2, -1]),
    },
    Tag {
        name: "rec8",
        shape: Shape::Rec(&TAPS8),
    },
];

pub fn tag(name: &str) -> Tag {
    *SUM_TAGS
        .iter()
        .chain(&REC_TAGS)
        .find(|t| t.name == name)
        .expect("known tag name")
}

impl Tag {
    pub fn spec(&self) -> ScanSpec {
        let (kind, order, tuple) = match self.shape {
            Shape::Sum {
                order,
                tuple,
                exclusive: true,
            } => (ScanKind::Exclusive, order, tuple),
            Shape::Sum { order, tuple, .. } => (ScanKind::Inclusive, order, tuple),
            Shape::Rec(coeffs) => (ScanKind::Inclusive, coeffs.len() as u32, 1),
        };
        ScanSpec::new(kind, order, tuple).expect("workload specs are valid")
    }

    pub fn op(&self) -> Op {
        match self.shape {
            Shape::Sum { .. } => Op::Sum,
            Shape::Rec(coeffs) => {
                Op::Rec(LinRec::new(coeffs.to_vec()).expect("i64 is an exact ring"))
            }
        }
    }

    pub fn reference(&self) -> Reference<i64> {
        match self.shape {
            Shape::Sum {
                order,
                tuple,
                exclusive,
            } => Reference::sum(order as usize, tuple, exclusive),
            Shape::Rec(coeffs) => Reference::linrec(coeffs, false),
        }
    }
}

/// A tag's operator; the two operator types need separate sessions.
pub enum Op {
    Sum,
    Rec(LinRec<i64>),
}

pub enum Session {
    Sum(ScanSession<i64, Sum>),
    Rec(ScanSession<i64, LinRec<i64>>),
}

impl Op {
    pub fn serial_into(&self, spec: &ScanSpec, input: &[i64], out: &mut [i64]) {
        match self {
            Op::Sum => serial::scan_into(input, out, &Sum, spec),
            Op::Rec(op) => serial::scan_into(input, out, op, spec),
        }
    }

    pub fn cpu_into(&self, cpu: &CpuScanner, spec: &ScanSpec, input: &[i64], out: &mut [i64]) {
        match self {
            Op::Sum => cpu.scan_into(input, out, &Sum, spec),
            Op::Rec(op) => cpu.scan_into(input, out, op, spec),
        }
    }

    pub fn plan_into(&self, plan: &ScanPlan, input: &[i64], out: &mut [i64]) {
        match self {
            Op::Sum => plan.scan_into(input, out, &Sum),
            Op::Rec(op) => plan.scan_into(input, out, op),
        }
    }

    pub fn session(self, plan: &ScanPlan) -> Session {
        match self {
            Op::Sum => Session::Sum(plan.session(Sum)),
            Op::Rec(op) => Session::Rec(plan.session(op)),
        }
    }
}

impl Session {
    pub fn scan_into(&self, input: &[i64], out: &mut [i64]) {
        match self {
            Session::Sum(s) => s.scan_into(input, out),
            Session::Rec(s) => s.scan_into(input, out),
        }
    }
}

/// How one child process runs its workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Split the timed phase: untraced first half, traced second half.
    pub traced: bool,
    /// The `sam_serviced` executable; the service workloads need it, and
    /// the layer probes compare the daemon with its replica when present.
    pub daemon: Option<PathBuf>,
    /// Scratch directory for sockets and tuning stores (inside the
    /// checkout, removed by the parent).
    pub workdir: PathBuf,
}

impl Ctx {
    /// `(length, traced)` of each timed phase.
    pub fn phases(&self) -> Vec<(Duration, bool)> {
        let total = Duration::from_secs_f64(self.seconds);
        if self.traced {
            vec![(total / 2, false), (total / 2, true)]
        } else {
            vec![(total, false)]
        }
    }
}

/// One metric as the child reports it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one child run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Context worth printing but not gated (sample counts, roofs).
    pub info: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Host steal over the timed phase.
    pub steal_frac: f64,
    pub spans: Vec<crate::trace::Span>,
}

impl Report {
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// Counts one checked output; `bad` is its number of wrong elements.
    pub fn check(&mut self, what: &str, bad: usize) {
        self.attempted += 1;
        if bad > 0 {
            self.failed += 1;
            eprintln!("scanbench: {what}: {bad} wrong outputs");
        }
    }
}

/// Calls timed in one phase, and the roof copies interleaved with them.
/// Each rep's calls are measured against that rep's own roof, so the
/// ratios follow the host's speed as it drifts. Shapes are aggregated
/// separately and combined by geometric mean, so every shape weighs the
/// same however long its calls take, and a shape whose speed flips
/// between two modes moves only its own share.
#[derive(Debug, Clone, Default)]
pub struct Acc {
    pub lat_ns: Vec<u64>,
    pub calls: u64,
    /// Per shape, per rep: the shape's throughput over the rep's roof's.
    shape_fracs: Vec<Vec<f64>>,
    /// Per shape, per call: its time over the rep's roof time for as many
    /// elements.
    shape_slowdowns: Vec<Vec<f64>>,
    /// Per shape: (elements, ns) over the phase.
    shape_totals: Vec<(u64, u64)>,
    rep_calls: Vec<(usize, u64, u64)>,
    rep_roof: (u64, u64),
    roof: (u64, u64),
}

impl Acc {
    pub fn new(shapes: usize) -> Acc {
        Acc {
            shape_fracs: vec![Vec::new(); shapes],
            shape_slowdowns: vec![Vec::new(); shapes],
            shape_totals: vec![(0, 0); shapes],
            ..Acc::default()
        }
    }

    pub fn record(&mut self, shape: usize, elems: usize, wall: Duration) {
        let (elems, ns) = (elems as u64, wall.as_nanos() as u64);
        self.lat_ns.push(ns);
        self.calls += 1;
        self.rep_calls.push((shape, elems, ns));
        self.shape_totals[shape].0 += elems;
        self.shape_totals[shape].1 += ns;
    }

    /// Records one roof copy of `elems` elements.
    pub fn record_roof(&mut self, elems: usize, wall: Duration) {
        let (elems, ns) = (elems as u64, wall.as_nanos() as u64);
        self.rep_roof.0 += elems;
        self.rep_roof.1 += ns;
        self.roof.0 += elems;
        self.roof.1 += ns;
    }

    pub fn end_rep(&mut self) {
        let (roof_elems, roof_ns) = std::mem::take(&mut self.rep_roof);
        let calls = std::mem::take(&mut self.rep_calls);
        if roof_elems == 0 || calls.is_empty() {
            return;
        }
        let roof_ns_per_elem = roof_ns as f64 / roof_elems as f64;
        let mut per_shape = vec![(0u64, 0u64); self.shape_totals.len()];
        for &(shape, elems, ns) in &calls {
            self.shape_slowdowns[shape].push(ns as f64 / (elems as f64 * roof_ns_per_elem));
            per_shape[shape].0 += elems;
            per_shape[shape].1 += ns;
        }
        for (fracs, &(elems, ns)) in self.shape_fracs.iter_mut().zip(&per_shape) {
            if ns > 0 {
                fracs.push(elems as f64 * roof_ns_per_elem / ns as f64);
            }
        }
    }

    /// Geometric mean over shapes of the shape's mean (over reps)
    /// throughput as a share of the roof.
    pub fn roof_frac(&self) -> f64 {
        let per_shape: Vec<f64> = self
            .shape_fracs
            .iter()
            .filter(|f| !f.is_empty())
            .map(|f| stats::mean(f))
            .collect();
        stats::geomean(&per_shape)
    }

    /// Geometric mean over shapes of the shape's median per-call slowdown.
    pub fn lat_p50_roofs(&self) -> f64 {
        let per_shape: Vec<f64> = self
            .shape_slowdowns
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| stats::median(s))
            .collect();
        stats::geomean(&per_shape)
    }

    pub fn roof_ns_per_elem(&self) -> f64 {
        self.roof.1 as f64 / self.roof.0.max(1) as f64
    }

    /// Elements per second of one shape's calls over the phase.
    pub fn shape_rate(&self, shape: usize) -> f64 {
        let (elems, ns) = self.shape_totals[shape];
        elems as f64 * 1e9 / ns.max(1) as f64
    }
}

/// Runs reps until `budget` is used. A rep is the last when, judged by
/// the slowest rep so far, another would overrun; `rep(last)` verifies
/// its outputs when `last` is set.
pub fn run_reps(budget: Duration, mut rep: impl FnMut(bool)) {
    let start = Instant::now();
    let mut slowest = Duration::ZERO;
    loop {
        let t = Instant::now();
        let last = start.elapsed() + 2 * slowest > budget;
        rep(last);
        slowest = slowest.max(t.elapsed());
        if last {
            return;
        }
    }
}

/// Warm-up before set-up: copies and single-thread scans over the
/// workload's own buffers (so the peak resident set is unchanged), long
/// enough for the host to settle; the first runs of a cold process read
/// low otherwise.
pub fn warm_up(input: &[i64], out: &mut [i64], secs: f64) {
    let start = Instant::now();
    let spec = ScanSpec::inclusive();
    while start.elapsed().as_secs_f64() < secs {
        out.copy_from_slice(input);
        serial::scan_into(input, out, &Sum, &spec);
    }
}

pub const WARM_UP_S: f64 = 2.0;

/// The highest of these percentiles with at least ten samples beyond it
/// is a run's tail latency (bulk runs have tens of calls, service runs
/// hundreds of thousands of requests).
const TAIL_PERCENTILES: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

fn tail_percentile(samples: usize) -> f64 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// The end-to-end metrics every workload reports. Besides set-up time and
/// memory they are ratios to the workload's *roof*: the same data moved,
/// in the same run and interleaved with the workload, by the plainest
/// code that can move it (`copy_from_slice` for the library workloads, a
/// thread that echoes the same frames back for the service workloads).
/// On a shared host whose speed drifts by tens of percent over minutes,
/// the roof drifts with the workload and the ratio holds.
pub struct EndToEnd {
    /// Already summarised over the set-up repetitions.
    pub setup_s: f64,
    /// Throughput as a share of the roof's.
    pub roof_frac: f64,
    /// Median latency over the roof's time for the same data.
    pub lat_p50_roofs: f64,
    /// Raw latencies, reported but not gated.
    pub lat_ns: Vec<u64>,
    pub peak_rss_bytes: u64,
}

impl EndToEnd {
    pub fn into_report(mut self, report: &mut Report) {
        self.lat_ns.sort_unstable();
        report.metrics.extend([
            metric("setup_s", self.setup_s, "s"),
            metric("roof_frac", self.roof_frac, "ratio"),
            metric("lat_p50_roofs", self.lat_p50_roofs, "ratio"),
            metric("mem_mb", self.peak_rss_bytes as f64 / 1e6, "MB"),
        ]);
        // The tail is reported, not gated: on two shared vCPUs it reads
        // the scheduler's time slice and the host's placement of the
        // vCPUs more than the program (see README.md).
        let tail = tail_percentile(self.lat_ns.len());
        report.info("lat_samples", self.lat_ns.len());
        report.info(
            "lat_p50_us",
            stats::percentile(&self.lat_ns, 50.0) as f64 / 1e3,
        );
        report.info(
            &format!("lat_p{tail}_us"),
            stats::percentile(&self.lat_ns, tail) as f64 / 1e3,
        );
    }
}

/// Relative drop of `traced` throughput against `untraced`, each taken
/// as a share of its own roof.
pub fn overhead_frac(untraced: f64, traced: f64) -> f64 {
    1.0 - traced / untraced
}
