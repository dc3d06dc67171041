//! Regenerates the paper's Figures 3–16 as text tables (or CSV).
//!
//! ```text
//! figures [--fig N] [--csv] [--cap POW2] [--out DIR]
//!
//!   --fig N     only figure N (default: all of 3..=16)
//!   --csv       emit CSV instead of aligned text
//!   --cap P     functionally execute sizes up to 2^P (default 20);
//!               larger sizes use exact-count extrapolation
//!   --out DIR   also write one file per figure into DIR
//!   --extensions  also run the extension figures (17: combined
//!               higher-order x tuple, 18: energy)
//! ```

use sam_bench::{all_figure_ids, figure, Harness};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fig: Option<u8> = None;
    let mut csv = false;
    let mut extensions = false;
    let mut cap: u32 = 20;
    let mut out_dir: Option<std::path::PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fig" => {
                let v = it.next().expect("--fig needs a number");
                fig = Some(v.parse().expect("--fig needs a number in 3..=16"));
            }
            "--csv" => csv = true,
            "--extensions" => extensions = true,
            "--cap" => {
                let v = it.next().expect("--cap needs a power of two exponent");
                cap = v.parse().expect("--cap needs an integer");
            }
            "--out" => {
                let v = it.next().expect("--out needs a directory");
                out_dir = Some(v.into());
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig N] [--csv] [--cap POW2] [--out DIR] [--extensions]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let harness = Harness {
        functional_cap: 1u64 << cap,
        ..Harness::default()
    };
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("cannot create output directory");
    }

    let ids: Vec<u8> = match fig {
        Some(f) => vec![f],
        None if extensions => all_figure_ids()
            .chain(sam_bench::figures::extension_figure_ids())
            .collect(),
        None => all_figure_ids().collect(),
    };
    for id in ids {
        let def = figure(id);
        eprintln!("running figure {id} ({} series)...", def.lineup.len());
        let series = def.run(&harness);
        let text = if csv {
            def.to_csv(&series)
        } else {
            def.render(&series)
        };
        println!("{text}");
        if let Some(dir) = &out_dir {
            let ext = if csv { "csv" } else { "txt" };
            let path = dir.join(format!("figure{id:02}.{ext}"));
            let mut f = std::fs::File::create(&path).expect("cannot create figure file");
            f.write_all(text.as_bytes())
                .expect("cannot write figure file");
        }
    }
}
