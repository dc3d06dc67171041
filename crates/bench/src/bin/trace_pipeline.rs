//! Prints a Figure 2-style timeline of SAM's pipelined chunk processing,
//! from a real traced run on the simulated GPU.
//!
//! ```text
//! trace_pipeline [--chunks N] [--order Q]
//! ```
//!
//! Each line is one trace event in global order: which persistent block
//! touched which chunk, when it published its local sums, and when its
//! carry completed. The staggering visible in the interleaving is the
//! paper's "pipeline-like processing of the chunks".

use gpu_sim::{DeviceSpec, EventKind, Gpu};
use sam_core::kernel::{scan_on_gpu, SamParams};
use sam_core::op::Sum;
use sam_core::ScanSpec;

fn main() {
    let mut chunks = 12usize;
    let mut order = 1u32;
    let mut lanes = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chunks" => {
                chunks = it
                    .next()
                    .expect("--chunks needs a value")
                    .parse()
                    .expect("number");
            }
            "--order" => {
                order = it
                    .next()
                    .expect("--order needs a value")
                    .parse()
                    .expect("number");
            }
            "--lanes" => lanes = true,
            "--help" | "-h" => {
                println!("usage: trace_pipeline [--chunks N] [--order Q] [--lanes]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let gpu = Gpu::with_trace(DeviceSpec::k40());
    let threads = gpu.spec().threads_per_block as usize;
    let n = chunks * threads; // items_per_thread = 1
    let input: Vec<i32> = (0..n as i32).map(|i| i % 5 - 2).collect();
    let spec = ScanSpec::inclusive()
        .with_order(order)
        .expect("valid order");
    let (out, info) = scan_on_gpu(
        &gpu,
        &input,
        &Sum,
        &spec,
        &SamParams {
            items_per_thread: 1,
            ..SamParams::default()
        },
    );
    assert_eq!(out, sam_core::serial::scan(&input, &Sum, &spec));

    println!(
        "SAM pipeline trace: {} chunks x order {} on {} (k = {})\n",
        info.chunks,
        order,
        gpu.spec().name,
        info.k
    );
    let log = gpu.trace().expect("tracing enabled");
    if lanes {
        print!("{}", log.render_lanes((info.k as usize).min(8)));
        return;
    }
    for e in log.events() {
        let what = match e.kind {
            EventKind::ChunkStart => "start".to_string(),
            EventKind::SumPublished { iter } => format!("publish S(c) iter {iter}"),
            EventKind::CarryReady { iter } => format!("carry ready iter {iter}"),
            EventKind::ChunkDone => "done".to_string(),
        };
        println!(
            "t={:<4} block {:>2}  chunk {:>3}  |{}{}",
            e.seq,
            e.block,
            e.chunk,
            "  ".repeat(e.chunk as usize % 16),
            what
        );
    }
    println!("\nEvery carry waits for its window's publishes (Figure 2),");
    println!("while later chunks keep starting — that overlap is the pipeline.");
}
