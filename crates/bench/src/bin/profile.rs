//! Per-series scan profiling via the observability layer.
//!
//! Runs traced plans over a grid of sizes × orders × tuples × engines,
//! prints each series' [`ScanReport`] summary, writes one Chrome
//! trace-event JSON file per series (open in `chrome://tracing` or
//! <https://ui.perfetto.dev>), and a machine-readable `summary.json`.
//!
//! ```text
//! cargo run --release -p sam-bench --bin profile -- [options]
//!   --out-dir DIR     output directory (default profile_out)
//!   --quick           tiny grid for smoke testing
//!   --orders LIST     comma-separated orders   (default 1,2,5,8)
//!   --tuples LIST     comma-separated tuples   (default 1,2,5,8)
//!   --sizes LIST      comma-separated log2 sizes (default 20)
//!   --engines LIST    comma-separated from cpu,gpu (default cpu)
//! ```

use sam_core::cpu::CpuScanner;
use sam_core::obs::Phase;
use sam_core::op::Sum;
use sam_core::plan::{PlanHint, ScanPlan};
use sam_core::Engine;
use sam_core::{SamParams, ScanReport, ScanSpec};
use std::fmt::Write as _;
use std::path::Path;

const USAGE: &str = "usage: profile [--out-dir DIR] [--quick] [--orders LIST] \
                     [--tuples LIST] [--sizes LIST] [--engines cpu,gpu]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_list(flag: &str, arg: &str) -> Vec<usize> {
    let list: Vec<usize> = arg
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("{flag} expects numbers, got {s:?}")))
        })
        .collect();
    if list.is_empty() {
        usage_error(&format!("{flag} expects a non-empty comma-separated list"));
    }
    list
}

fn pseudo_random(n: usize) -> Vec<i64> {
    let mut state = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64) - (1 << 30)
        })
        .collect()
}

fn make_engine(engine: &str) -> Engine {
    match engine {
        "cpu" => Engine::Cpu(CpuScanner::default()),
        "gpu" => Engine::Simulated {
            device: gpu_sim::DeviceSpec::k40(),
            params: SamParams {
                items_per_thread: 4,
                ..SamParams::default()
            },
        },
        other => usage_error(&format!("unknown engine {other:?} (expected cpu or gpu)")),
    }
}

/// One profiled series, as recorded into `summary.json`.
struct SeriesRecord {
    engine: String,
    n: usize,
    order: usize,
    tuple: usize,
    trace_file: String,
    report: ScanReport,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from("profile_out");
    let mut orders: Vec<usize> = vec![1, 2, 5, 8];
    let mut tuples: Vec<usize> = vec![1, 2, 5, 8];
    let mut log_sizes: Vec<usize> = vec![20];
    let mut engines: Vec<String> = vec!["cpu".into()];
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out-dir" => out_dir = value(&mut i, "--out-dir"),
            "--quick" => {
                log_sizes = vec![16];
                orders = vec![1, 8];
                tuples = vec![1, 5];
                engines = vec!["cpu".into(), "gpu".into()];
            }
            "--orders" => orders = parse_list("--orders", &value(&mut i, "--orders")),
            "--tuples" => tuples = parse_list("--tuples", &value(&mut i, "--tuples")),
            "--sizes" => log_sizes = parse_list("--sizes", &value(&mut i, "--sizes")),
            "--engines" => {
                engines = value(&mut i, "--engines")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if engines.is_empty() {
        usage_error("--engines expects a non-empty list");
    }
    for engine in &engines {
        make_engine(engine); // validate early
    }
    if log_sizes.iter().any(|&lg| lg >= usize::BITS as usize) {
        usage_error("--sizes entries are log2 exponents and must be < 64");
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let max_n = 1usize << log_sizes.iter().copied().max().expect("nonempty sizes");
    let input = pseudo_random(max_n);
    let mut records: Vec<SeriesRecord> = Vec::new();

    for &lg in &log_sizes {
        let n = 1usize << lg;
        let data = &input[..n];
        let mut out = vec![0i64; n];
        for &order in &orders {
            for &tuple in &tuples {
                let spec = match ScanSpec::inclusive()
                    .with_order(order as u32)
                    .ok()
                    .and_then(|s| s.with_tuple(tuple).ok())
                {
                    Some(spec) => spec,
                    None => usage_error(&format!("invalid order/tuple {order}/{tuple}")),
                };
                for engine in &engines {
                    let plan = ScanPlan::new(
                        spec,
                        make_engine(engine),
                        PlanHint::expected_len(n).with_trace(),
                    );
                    let session = plan.session::<i64, _>(Sum);
                    // Warm-up resolves lazy engine state; the second run is
                    // the profiled steady-state scan.
                    session.scan_into(data, &mut out);
                    session.scan_into(data, &mut out);
                    let report = session.last_report().expect("traced plan reports");
                    eprintln!("{}", report.summary());
                    let trace_file = format!("trace_{engine}_o{order}_t{tuple}_lg{lg}.json");
                    let mut f = std::fs::File::create(Path::new(&out_dir).join(&trace_file))
                        .expect("create trace file");
                    report.write_chrome_trace(&mut f).expect("write trace file");
                    records.push(SeriesRecord {
                        engine: engine.clone(),
                        n,
                        order,
                        tuple,
                        trace_file,
                        report,
                    });
                }
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"scan_profile\",\n");
    let _ = writeln!(
        json,
        "  \"elem\": \"i64\", \"op\": \"sum\", \"kind\": \"inclusive\","
    );
    json.push_str("  \"series\": [\n");
    for (i, r) in records.iter().enumerate() {
        let m = &r.report.metrics;
        let _ = write!(
            json,
            "    {{\"engine\": \"{}\", \"n\": {}, \"order\": {}, \"tuple\": {}, \
             \"wall_us\": {}, \"scan_us\": {}, \"wait_us\": {}, \"waits\": {}, \
             \"elem_read_words\": {}, \"elem_write_words\": {}, \"elem_transactions\": {}, \
             \"peak_chunks_in_flight\": {}, \"trace_file\": \"{}\"}}",
            r.engine,
            r.n,
            r.order,
            r.tuple,
            r.report.wall_us,
            r.report.phase_us(Phase::ChunkScan),
            r.report.phase_us(Phase::CarryWait),
            r.report.carry_wait_hist.total(),
            m.elem_read_words,
            m.elem_write_words,
            m.elem_transactions(),
            r.report.max_chunks_in_flight(),
            r.trace_file
        );
        json.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(Path::new(&out_dir).join("summary.json"), json).expect("write summary JSON");
    eprintln!("wrote {out_dir}/summary.json ({} series)", records.len());
}
