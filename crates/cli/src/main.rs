//! `typilus` — the command-line face of the Typilus reproduction.
//!
//! ```sh
//! typilus gen-corpus --out /tmp/corpus --files 80
//! typilus train --corpus /tmp/corpus --model /tmp/model.typilus
//! typilus predict --model /tmp/model.typilus --check some_file.py
//! typilus eval --model /tmp/model.typilus --corpus /tmp/corpus
//! typilus audit --model /tmp/model.typilus --corpus /tmp/corpus
//! ```

mod args;
mod commands;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let name = match raw.first().map(String::as_str) {
        Some("help" | "--help") => {
            commands::usage();
            return;
        }
        Some(name) => name,
        None => {
            commands::usage();
            std::process::exit(2);
        }
    };
    let Some(command) = commands::find(name) else {
        eprintln!("error: unknown command {name:?}");
        commands::usage();
        std::process::exit(2);
    };
    let parsed = match Args::parse(raw.iter().cloned(), &command.accepts) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            commands::usage();
            std::process::exit(2);
        }
    };
    if let Err(e) = (command.run)(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
