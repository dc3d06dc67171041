//! Seed-sweeping stress harness for the persistent-block carry protocol
//! under hostile schedules (`gpu_sim::sched`).
//!
//! Sweeps a range of scheduler seeds over adversarial policy presets ×
//! engines × scan specs × operators (`Sum` on the single-pass cascade
//! protocol, `Xor` on the iterated one), validating every run against the
//! serial oracle under a per-run watchdog. On a failure it re-runs the
//! failing seed with recording enabled and prints the captured schedule,
//! so the repro is deterministic (`Scheduler::replay`).
//!
//! ```text
//! cargo run --release -p sam-bench --bin sched_stress -- [options]
//!   --seeds A..B      seed range, half-open (default 0..20)
//!   --n ELEMS         input length (default 20000; GPU runs use n/8)
//!   --engines LIST    comma-separated from cpu,gpu (default both)
//!   --policies LIST   comma-separated from jitter,reverse,stall,hostile
//!                     (default all)
//!   --timeout SECS    per-run watchdog (default 60)
//! ```
//!
//! Exit status: 0 if every run passed, 1 otherwise — CI runs a short
//! sweep of this binary.

use gpu_sim::sched::{SchedPolicy, Scheduler};
use gpu_sim::{DeviceSpec, Gpu};
use sam_core::cpu::CpuScanner;
use sam_core::kernel::{scan_on_gpu, AuxMode, SamParams};
use sam_core::op::{Sum, Xor};
use sam_core::{serial, ChunkKernel, ScanSpec};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: sched_stress [--seeds A..B] [--n ELEMS] \
                     [--engines cpu,gpu] [--policies jitter,reverse,stall,hostile] \
                     [--timeout SECS]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn pseudo_random(n: usize, seed: u64) -> Vec<i64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64) - (1 << 30)
        })
        .collect()
}

/// Policy presets swept by the harness.
const POLICIES: &[&str] = &["jitter", "reverse", "stall", "hostile"];

fn make_policy(name: &str, seed: u64) -> SchedPolicy {
    match name {
        "jitter" => SchedPolicy::jitter(seed),
        "reverse" => SchedPolicy::reverse_start(seed),
        "stall" => SchedPolicy::stalled_predecessor(seed, 0),
        "hostile" => SchedPolicy::hostile(seed),
        other => usage_error(&format!("unknown policy {other:?}")),
    }
}

/// Tiny device: k = 4 persistent blocks, 32-thread blocks, 16-slot ring —
/// ring-wrap stress is cheap and every seed exercises slot reuse.
fn tiny_device() -> DeviceSpec {
    DeviceSpec {
        name: "tiny-hostile",
        sms: 2,
        min_blocks_per_sm: 2,
        threads_per_block: 32,
        ..DeviceSpec::k40()
    }
}

/// Operators swept: `Sum` takes the single-pass cascade protocol on both
/// engines, `Xor` the iterated one.
const OPS: &[&str] = &["sum", "xor"];

struct RunCfg {
    engine: &'static str,
    policy: String,
    seed: u64,
    spec: ScanSpec,
    op: &'static str,
}

/// One validated run; returns an error description on mismatch or panic.
fn run_once(cfg: &RunCfg, input: &[i64], sched: Arc<Scheduler>) -> Result<(), String> {
    match cfg.op {
        "sum" => run_op(&Sum, cfg, input, sched),
        _ => run_op(&Xor, cfg, input, sched),
    }
}

fn run_op(
    op: &impl ChunkKernel<i64>,
    cfg: &RunCfg,
    input: &[i64],
    sched: Arc<Scheduler>,
) -> Result<(), String> {
    let expect = serial::scan(input, op, &cfg.spec);
    let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match cfg.engine {
        "cpu" => CpuScanner::new(4)
            .with_chunk_elems(64)
            .with_scheduler(sched)
            .scan(input, op, &cfg.spec),
        "gpu" => {
            let params = SamParams {
                items_per_thread: 1,
                aux: AuxMode::Ring,
                ..SamParams::default()
            };
            let gpu = Gpu::new(tiny_device()).with_scheduler(sched);
            scan_on_gpu(&gpu, input, op, &cfg.spec, &params).0
        }
        other => usage_error(&format!("unknown engine {other:?}")),
    }));
    match got {
        Err(_) => Err("panicked".to_string()),
        Ok(got) if got != expect => {
            let at = got.iter().zip(&expect).position(|(a, b)| a != b);
            Err(format!("result mismatch (first diff at {at:?})"))
        }
        Ok(_) => Ok(()),
    }
}

/// Runs `cfg` under a watchdog; a hang counts as a failure.
fn run_guarded(
    cfg: &RunCfg,
    input: Vec<i64>,
    record: bool,
    timeout: Duration,
) -> Result<(), String> {
    let sched = {
        let policy = make_policy(&cfg.policy, cfg.seed);
        Arc::new(Scheduler::new(if record {
            policy.with_record()
        } else {
            policy
        }))
    };
    let (tx, rx) = mpsc::channel();
    let cfg_inner = RunCfg {
        engine: cfg.engine,
        policy: cfg.policy.clone(),
        seed: cfg.seed,
        spec: cfg.spec,
        op: cfg.op,
    };
    let sched_inner = Arc::clone(&sched);
    std::thread::spawn(move || {
        let _ = tx.send(run_once(&cfg_inner, &input, sched_inner));
    });
    let outcome = match rx.recv_timeout(timeout) {
        Ok(r) => r,
        Err(_) => Err(format!("HUNG (> {timeout:?}) — liveness bug")),
    };
    if record {
        if let Err(e) = &outcome {
            let rec = sched.recording();
            eprintln!(
                "--- recorded schedule of failing run ({e}); {} events, {} dropped ---\n{}",
                rec.events.len(),
                rec.dropped,
                rec.render()
            );
        }
    }
    outcome
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = 0u64..20u64;
    let mut n = 20_000usize;
    let mut engines: Vec<&'static str> = vec!["cpu", "gpu"];
    let mut policies: Vec<String> = POLICIES.iter().map(|s| s.to_string()).collect();
    let mut timeout = Duration::from_secs(60);

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} expects a value")))
                .clone()
        };
        match arg.as_str() {
            "--seeds" => {
                let v = value("--seeds");
                let (a, b) = v
                    .split_once("..")
                    .unwrap_or_else(|| usage_error("--seeds expects A..B"));
                let a = a.parse().unwrap_or_else(|_| usage_error("bad seed start"));
                let b = b.parse().unwrap_or_else(|_| usage_error("bad seed end"));
                seeds = a..b;
            }
            "--n" => {
                n = value("--n")
                    .parse()
                    .unwrap_or_else(|_| usage_error("bad --n"));
            }
            "--engines" => {
                engines = value("--engines")
                    .split(',')
                    .map(|e| match e {
                        "cpu" => "cpu",
                        "gpu" => "gpu",
                        other => usage_error(&format!("unknown engine {other:?}")),
                    })
                    .collect();
            }
            "--policies" => {
                policies = value("--policies").split(',').map(str::to_string).collect();
                for p in &policies {
                    make_policy(p, 0); // validate
                }
            }
            "--timeout" => {
                let secs: u64 = value("--timeout")
                    .parse()
                    .unwrap_or_else(|_| usage_error("bad --timeout"));
                timeout = Duration::from_secs(secs);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let specs = [
        ScanSpec::inclusive(),
        ScanSpec::exclusive()
            .with_order(2)
            .expect("order 2")
            .with_tuple(3)
            .expect("tuple 3"),
    ];

    let started = Instant::now();
    let mut runs = 0u64;
    let mut failures = 0u64;
    for seed in seeds {
        for engine in &engines {
            // Smaller inputs on the simulated GPU: per-element cost is
            // higher, and the tiny ring wraps after 512 elements anyway.
            let len = if *engine == "gpu" { n / 8 } else { n };
            let input = pseudo_random(len.max(1), seed ^ 0xda7a);
            for policy in &policies {
                for spec in &specs {
                    for &op in OPS {
                        let cfg = RunCfg {
                            engine,
                            policy: policy.clone(),
                            seed,
                            spec: *spec,
                            op,
                        };
                        runs += 1;
                        if let Err(e) = run_guarded(&cfg, input.clone(), false, timeout) {
                            failures += 1;
                            eprintln!(
                                "FAIL engine={engine} policy={policy} seed={seed} spec={spec:?} \
                                 op={op}: {e}"
                            );
                            // Deterministic repro: re-run the seed recording
                            // the schedule (printed by run_guarded on failure).
                            let _ = run_guarded(&cfg, input.clone(), true, timeout);
                        }
                    }
                }
            }
        }
    }
    println!(
        "sched_stress: {runs} runs, {failures} failures in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
