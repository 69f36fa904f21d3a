//! Renders the paper's evaluation: Tables 2–5, Figs. 4–7, the Sec. 6
//! "Data" and "Transformers" paragraphs and the Sec. 7 error families.
//!
//! ```sh
//! cargo run --release -p typilus-bench --bin repro -- [--out DIR] [NAME...]
//! ```
//!
//! Writes `DIR/<name>.txt` plus `DIR/csv/*.csv` (`DIR` defaults to
//! `results`) for the named outputs, or for all eleven. Each distinct
//! model trains once and is shared by the outputs that read it. The
//! `TYPILUS_*` variables of the crate docs rescale the run; a malformed
//! one exits 2 before anything trains.

use std::path::PathBuf;
use std::process::ExitCode;

use typilus_bench::{outputs, repro, Scale};

fn main() -> ExitCode {
    let mut outputs = outputs::all();
    let known: Vec<&str> = outputs.iter().map(|o| o.name).collect();
    let (mut dir, mut names) = (PathBuf::from("results"), Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            let Some(d) = args.next() else {
                return usage(&known);
            };
            dir = d.into();
        } else if known.contains(&arg.as_str()) {
            names.push(arg);
        } else {
            return usage(&known);
        }
    }
    if !names.is_empty() {
        outputs.retain(|o| names.iter().any(|n| n == o.name));
    }
    let scale = match Scale::from_env() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, part) in repro::run(&scale, &outputs) {
        if let Err(e) = repro::write(&dir, name, &part) {
            eprintln!("repro: could not write {name} to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", dir.join(format!("{name}.txt")).display());
    }
    ExitCode::SUCCESS
}

fn usage(known: &[&str]) -> ExitCode {
    eprintln!("usage: repro [--out DIR] [{}]...", known.join("|"));
    ExitCode::from(2)
}
