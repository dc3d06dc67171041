//! `scanbench`: the repository benchmark. Five seeded workloads, from
//! DRAM-sized scans through the `sam_core` plan layer to round trips
//! through the `sam_serviced` daemon, each checked against the
//! benchmark's own reference loops. See `README.md` beside this crate.
//!
//! ```text
//! scanbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out PATH]
//! ```
//!
//! Each attempt at a workload runs in a fresh child process with a fresh
//! `SAM_TUNING_DIR`. Stdout gets one `workload metric value unit` line per
//! metric, then, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer ones.

mod host;
mod layers;
mod library;
mod oracle;
mod rng;
mod stats;
mod svc;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use workload::{Ctx, Report, REC_TAGS, SUM_TAGS};

const WORKLOADS: [&str; 5] = [
    "bulk_sum",
    "bulk_linrec",
    "mid_calls",
    "svc_rtt",
    "svc_pipelined",
];

/// An attempt whose host steal exceeds this is rerun (up to
/// `MAX_ATTEMPTS`, and only while the run is young), and the attempt with
/// the least steal is reported: runs with heavy steal read up to a third
/// of the throughput, and their roof ratios scatter more. One rerun at
/// most, so a session of many runs takes at most twice its usual time
/// when the host stays busy: in a period of 25-30% steal every rerun
/// stole as much as the attempt before it.
const STEAL_LIMIT: f64 = 0.02;
const MAX_ATTEMPTS: usize = 2;
const RETRY_WITHIN: Duration = Duration::from_secs(60);
/// A child still running after this is killed and the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    /// Internal: run as a child (`attempt` or `layers`).
    child: Option<String>,
    workdir: Option<PathBuf>,
    trace_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        child: None,
        workdir: None,
        trace_file: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                a.workload = Some(name);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(1.0..=60.0).contains(&a.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value()?.into()),
            "--child" => a.child = Some(value()?),
            "--workdir" => a.workdir = Some(value()?.into()),
            "--trace-file" => a.trace_file = Some(value()?.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("scanbench: {e}");
            eprintln!(
                "usage: scanbench [--workload {}] [--seed N] [--seconds N] [--trace 0|1] [--out PATH]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match args.child.as_deref() {
        Some(kind) => run_child(&args, kind),
        None => run_parent(&args),
    }
}

/// The `sam_serviced` built next to this executable.
fn daemon_exe() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?.with_file_name("sam_serviced");
    exe.is_file().then_some(exe)
}

fn run_child(args: &Args, kind: &str) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        daemon: daemon_exe(),
        workdir: args.workdir.clone().unwrap_or_else(|| PathBuf::from(".")),
    };
    let report = match (kind, args.workload.as_deref()) {
        ("layers", _) => layers::probes(&ctx, &layers::FULL),
        ("attempt", Some("bulk_sum")) => library::bulk(&ctx, &SUM_TAGS),
        ("attempt", Some("bulk_linrec")) => library::bulk(&ctx, &REC_TAGS),
        ("attempt", Some("mid_calls")) => library::mid_calls(&ctx),
        ("attempt", Some("svc_rtt")) => svc::run(&ctx, false),
        ("attempt", Some("svc_pipelined")) => svc::run(&ctx, true),
        _ => {
            eprintln!("scanbench: bad child invocation");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.trace_file {
        if let Err(e) = trace::write_chrome_trace(path, &report.spans) {
            eprintln!("scanbench: cannot write {}: {e}", path.display());
        }
    }
    print!("{}", to_protocol(&report));
    ExitCode::SUCCESS
}

/// The line protocol a child reports to its parent on stdout.
fn to_protocol(report: &Report) -> String {
    let mut s = String::new();
    for m in &report.metrics {
        let _ = writeln!(s, "M {} {} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &report.info {
        let _ = writeln!(s, "I {k} {v}");
    }
    let _ = writeln!(
        s,
        "A {}\nF {}\nS {}",
        report.attempted, report.failed, report.steal_frac
    );
    s
}

/// A child's report as the parent reads it back.
#[derive(Debug, Default, Clone)]
struct ChildReport {
    metrics: Vec<(String, f64, String)>,
    info: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    steal_frac: f64,
}

fn parse_protocol(text: &str) -> Result<ChildReport, String> {
    let mut r = ChildReport::default();
    let bad = |line: &str| format!("bad child output line {line:?}");
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
        match tag {
            "M" => {
                let mut parts = rest.split(' ');
                let (Some(name), Some(value), Some(unit)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(bad(line));
                };
                let value = value.parse().map_err(|_| bad(line))?;
                r.metrics.push((name.to_owned(), value, unit.to_owned()));
            }
            "I" => {
                let (k, v) = rest.split_once(' ').ok_or_else(|| bad(line))?;
                r.info.push((k.to_owned(), v.to_owned()));
            }
            "A" => r.attempted = rest.parse().map_err(|_| bad(line))?,
            "F" => r.failed = rest.parse().map_err(|_| bad(line))?,
            "S" => r.steal_frac = rest.parse().map_err(|_| bad(line))?,
            _ => return Err(bad(line)),
        }
    }
    Ok(r)
}

/// Runs this executable as a child and reads its report.
fn spawn_child(
    args: &Args,
    kind: &str,
    workload: &str,
    workdir: &Path,
    tune_dir: &Path,
    trace_file: Option<&Path>,
) -> Result<ChildReport, String> {
    std::fs::create_dir_all(tune_dir)
        .map_err(|e| format!("cannot create {}: {e}", tune_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", workload])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--workdir")
        .arg(workdir)
        .env(sam_core::TuningStore::ENV_DIR, tune_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(path) = trace_file {
        cmd.arg("--trace-file").arg(path);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("{kind} child for {workload} timed out"));
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "child reader panicked".to_owned())?
        .map_err(|e| format!("cannot read child output: {e}"))?;
    if !status.success() {
        return Err(format!("{kind} child for {workload} failed: {status}"));
    }
    parse_protocol(&text)
}

/// Everything the parent learned about one workload.
struct WorkloadRun {
    name: &'static str,
    attempts: Vec<Result<ChildReport, String>>,
    chosen: Option<usize>,
    layers: Option<Result<ChildReport, String>>,
}

impl WorkloadRun {
    /// `(correct, attempted, failed, metrics)` for the final JSON. Metrics
    /// come from the chosen attempt; checks and failures from every
    /// attempt, so a rerun cannot hide a wrong output.
    fn result(&self, traced: bool) -> (bool, u64, u64, Vec<(String, f64, String)>) {
        let Some(attempt) = self.chosen.and_then(|k| self.attempts[k].as_ref().ok()) else {
            return (false, 1, 1, Vec::new());
        };
        let (mut attempted, mut failed) = (0, 0);
        for a in &self.attempts {
            match a {
                Ok(a) => {
                    attempted += a.attempted;
                    failed += a.failed;
                }
                Err(_) => {
                    attempted += 1;
                    failed += 1;
                }
            }
        }
        let mut ok = true;
        let metrics = if traced {
            let mut metrics = Vec::new();
            match &self.layers {
                Some(Ok(layers)) => {
                    attempted += layers.attempted;
                    failed += layers.failed;
                    metrics.extend(layers.metrics.iter().cloned());
                }
                _ => ok = false,
            }
            metrics.extend(
                attempt
                    .metrics
                    .iter()
                    .filter(|m| m.0 == "trace.overhead_frac")
                    .cloned(),
            );
            metrics.push(("host.steal_frac".into(), attempt.steal_frac, "ratio".into()));
            metrics
        } else {
            attempt
                .metrics
                .iter()
                .filter(|m| m.0 != "trace.overhead_frac")
                .cloned()
                .collect()
        };
        (
            ok && failed == 0 && !metrics.is_empty(),
            attempted.max(1),
            failed,
            metrics,
        )
    }
}

/// The parent's scratch directory inside the working directory (the
/// checkout), removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if now empty
        }
    }
}

fn run_workload(args: &Args, name: &'static str, workdir: &Path) -> WorkloadRun {
    let started = Instant::now();
    let trace_file = |what: &str| {
        args.out
            .as_ref()
            .filter(|_| args.trace)
            .map(|out| out.with_extension(format!("{name}.{what}.trace.json")))
    };
    let mut run = WorkloadRun {
        name,
        attempts: Vec::new(),
        chosen: None,
        layers: None,
    };
    for k in 0..MAX_ATTEMPTS {
        let tune = workdir.join(format!("{name}-tuning-{k}"));
        let file = trace_file(&format!("attempt{k}"));
        let attempt = spawn_child(args, "attempt", name, workdir, &tune, file.as_deref());
        let steal = attempt.as_ref().map_or(f64::INFINITY, |r| r.steal_frac);
        if let Err(e) = &attempt {
            eprintln!("scanbench: {e}");
        }
        run.attempts.push(attempt);
        if run.attempts.last().is_some_and(|a| a.is_err())
            || steal <= STEAL_LIMIT
            || k + 1 == MAX_ATTEMPTS
            || started.elapsed() > RETRY_WITHIN
        {
            break;
        }
        eprintln!("scanbench: {name}: host steal {steal:.3} > {STEAL_LIMIT}, rerunning");
    }
    run.chosen = run
        .attempts
        .iter()
        .enumerate()
        .filter_map(|(k, a)| a.as_ref().ok().map(|r| (k, r.steal_frac)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(k, _)| k);
    if args.trace {
        let tune = workdir.join(format!("{name}-tuning-layers"));
        let file = trace_file("layers");
        let layers = spawn_child(args, "layers", name, workdir, &tune, file.as_deref());
        if let Err(e) = &layers {
            eprintln!("scanbench: {e}");
        }
        run.layers = Some(layers);
    }
    run
}

fn host_notes() -> Vec<(&'static str, String)> {
    let array_bytes = library::BULK_N * std::mem::size_of::<i64>();
    let mut notes = vec![
        ("isa", sam_core::isa::resolved().name().to_owned()),
        ("nproc", host::nproc().to_string()),
        ("bulk_array_bytes", array_bytes.to_string()),
    ];
    if let Some(l3) = host::l3_bytes() {
        notes.push(("l3_bytes", l3.to_string()));
        if (array_bytes as u64) < l3 {
            eprintln!("scanbench: warning: a bulk array ({array_bytes} B) fits in L3 ({l3} B); bulk workloads measure cache, not DRAM");
        }
    }
    notes
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_metrics(metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_report(r: &Result<ChildReport, String>) -> String {
    match r {
        Err(e) => format!("{{\"error\": {}}}", json_str(e)),
        Ok(r) => {
            let info: Vec<String> = r
                .info
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect();
            format!(
                "{{\"attempted\": {}, \"failed\": {}, \"steal_frac\": {}, \"metrics\": {}, \"info\": {{{}}}}}",
                r.attempted,
                r.failed,
                json_num(r.steal_frac),
                json_metrics(&r.metrics),
                info.join(", ")
            )
        }
    }
}

/// The `--out` document: host notes and every attempt of every workload.
fn out_json(args: &Args, notes: &[(&str, String)], runs: &[WorkloadRun]) -> String {
    let host: Vec<String> = notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let workloads: Vec<String> = runs
        .iter()
        .map(|run| {
            let attempts: Vec<String> = run.attempts.iter().map(json_report).collect();
            format!(
                "{{\"name\": {}, \"chosen_attempt\": {}, \"attempts\": [{}], \"layers\": {}}}",
                json_str(run.name),
                run.chosen.map_or("null".to_owned(), |k| k.to_string()),
                attempts.join(", "),
                run.layers.as_ref().map_or("null".to_owned(), json_report)
            )
        })
        .collect();
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{}}}, \"workloads\": [{}]}}\n",
        args.seed,
        args.seconds,
        args.trace,
        host.join(", "),
        workloads.join(",\n")
    )
}

fn run_parent(args: &Args) -> ExitCode {
    if std::env::var_os("SAM_FORCE_KERNEL").is_some() {
        eprintln!("scanbench: SAM_FORCE_KERNEL is set; refusing to measure a forced kernel family");
        return ExitCode::from(2);
    }
    let names: Vec<&'static str> = match &args.workload {
        Some(w) => WORKLOADS.iter().copied().filter(|n| n == w).collect(),
        None => WORKLOADS.to_vec(),
    };
    let needs_daemon = args.trace || names.iter().any(|n| n.starts_with("svc_"));
    if needs_daemon && daemon_exe().is_none() {
        eprintln!(
            "scanbench: sam_serviced not found next to this executable; build it (see run.sh)"
        );
        return ExitCode::from(2);
    }
    let workdir = WorkDir(Path::new(".bench_tmp").join(std::process::id().to_string()));
    if let Err(e) = std::fs::create_dir_all(&workdir.0) {
        eprintln!("scanbench: cannot create {}: {e}", workdir.0.display());
        return ExitCode::from(2);
    }
    let notes = host_notes();
    for (k, v) in &notes {
        eprintln!("host {k} {v}");
    }

    let runs: Vec<WorkloadRun> = names
        .iter()
        .map(|name| run_workload(args, name, &workdir.0))
        .collect();

    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0, 0, Vec::new());
    for run in &runs {
        let (ok, a, f, m) = run.result(args.trace);
        correct &= ok;
        attempted += a;
        failed += f;
        if let Some(attempt) = run.chosen.and_then(|k| run.attempts[k].as_ref().ok()) {
            for (k, v) in &attempt.info {
                eprintln!("{} {k} {v}", run.name);
            }
        }
        for (name, value, unit) in &m {
            println!("{} {name} {value} {unit}", run.name);
        }
        let prefix = if runs.len() > 1 {
            format!("{}/", run.name)
        } else {
            String::new()
        };
        metrics.extend(
            m.into_iter()
                .map(|(n, v, u)| (format!("{prefix}{n}"), v, u)),
        );
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, out_json(args, &notes, &runs)) {
            eprintln!("scanbench: cannot write {}: {e}", out.display());
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_trips() {
        let mut report = Report::default();
        report
            .metrics
            .push(workload::metric("lat_p50_us", 12.5, "us"));
        report.info("lat_samples", 3);
        report.attempted = 4;
        report.failed = 1;
        report.steal_frac = 0.25;
        let back = parse_protocol(&to_protocol(&report)).expect("parses");
        assert_eq!(
            back.metrics,
            vec![("lat_p50_us".to_owned(), 12.5, "us".to_owned())]
        );
        assert_eq!(back.info, vec![("lat_samples".to_owned(), "3".to_owned())]);
        assert_eq!((back.attempted, back.failed, back.steal_frac), (4, 1, 0.25));
        assert!(parse_protocol("X what").is_err());
    }

    #[test]
    fn a_rerun_does_not_hide_a_failed_attempt() {
        let attempt = |failed, steal_frac| {
            Ok(ChildReport {
                metrics: vec![("roof_frac".to_owned(), 0.5, "ratio".to_owned())],
                attempted: 10,
                failed,
                steal_frac,
                ..ChildReport::default()
            })
        };
        let run = WorkloadRun {
            name: "bulk_sum",
            attempts: vec![attempt(1, 0.3), attempt(0, 0.0)],
            chosen: Some(1),
            layers: None,
        };
        let (correct, attempted, failed, metrics) = run.result(false);
        assert_eq!((correct, attempted, failed), (false, 20, 1));
        assert_eq!(metrics.len(), 1);
    }

    /// The `"name": "..."` values of one section of `BENCHMARK.json`.
    fn names_in(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    #[test]
    fn every_benchmark_metric_appears_in_smoke_output() {
        let workdir = std::env::temp_dir().join(format!("scanbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&workdir).expect("temp dir");
        let ctx = Ctx {
            seed: 3,
            seconds: 1.0,
            traced: true,
            daemon: None,
            workdir: workdir.clone(),
        };
        let mut layers = layers::probes(&ctx, &layers::QUICK);
        std::fs::remove_dir_all(&workdir).expect("clean up");
        assert_eq!(layers.failed, 0);
        // Reported by the real-daemon probe (absent without a daemon)
        // and by the parent from the workload attempt.
        for added in [
            "transport.replica_ratio",
            "service.daemon_cpu_us_per_req",
            "trace.overhead_frac",
            "host.steal_frac",
        ] {
            layers.metrics.push(workload::metric(added, 1.0, "ratio"));
        }
        let printed: Vec<&str> = layers.metrics.iter().map(|m| m.name.as_str()).collect();
        let declared = names_in("per_layer");
        assert_eq!(declared.len(), printed.len(), "{printed:?}");
        for name in &declared {
            assert!(printed.contains(&name.as_str()), "{name} not printed");
        }

        let mut e2e = Report::default();
        workload::EndToEnd {
            setup_s: 0.5,
            roof_frac: 0.9,
            lat_p50_roofs: 1.5,
            lat_ns: vec![1000, 2000],
            peak_rss_bytes: 1 << 20,
        }
        .into_report(&mut e2e);
        let printed: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, names_in("end_to_end"));
    }
}
