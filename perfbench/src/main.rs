//! The repository's benchmark. One command runs one workload:
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline|serve-tcp|serve-bigspace> --seed N --seconds S --trace 0|1
//! ```
//!
//! It prints the host's facts as one JSON line, then the result as the
//! last line: `correct`, operations `attempted` and `failed`, and every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) with its unit. A traced run also writes its spans to
//! `.bench_work/trace-<workload>-<seed>.jsonl`.

mod common;
mod inputs;
mod layers;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;

use report::Outcome;
use serve::Kind;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(args: &Args, t: &Tracer) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "pipeline" => pipeline::run(args.seed, args.seconds, t, &pipeline::Scale::full()),
        "serve-tcp" => serve::run(
            Kind::Tcp,
            args.seed,
            args.seconds,
            t,
            &serve::Scale::full(Kind::Tcp),
        ),
        "serve-bigspace" => serve::run(
            Kind::BigSpace,
            args.seed,
            args.seconds,
            t,
            &serve::Scale::full(Kind::BigSpace),
        ),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Facts about the host the numbers were measured on.
fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let rev = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or("unknown".to_string(), |rev| rev.trim().to_string());
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"simd_width\": \"{:?}\", \"git_rev\": \"{rev}\"}}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        typilus_nn::simd_width(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let line = run_workload(&args, &tracer).and_then(|out| out.result_line(args.trace));
    if args.trace {
        let name = format!("trace-{}-{}.jsonl", args.workload, args.seed);
        let written = common::work_dir().and_then(|dir| {
            let path = dir.join(name);
            // lint: allow(D7) — advisory span dump of a benchmark run; nothing reads it back
            std::fs::write(&path, tracer.to_jsonl())
                .map_err(|e| format!("write {}: {e}", path.display()))
        });
        if let Err(e) = written {
            eprintln!("perfbench: {e}");
        }
    }
    match line {
        Ok(line) => {
            println!("{}", host_line(&args));
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload serve-tcp --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "serve-tcp".into(),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
    }

    /// Runs a workload at smoke-test size and checks its result.
    fn smoke(traced: bool, run: impl Fn(&Tracer) -> Result<Outcome, String>) {
        let tracer = Tracer::new(traced);
        let out = run(&tracer).expect("workload runs");
        assert!(out.tally.attempted > 0);
        assert_eq!(out.tally.failed, 0, "every operation succeeds");
        let line = out.result_line(traced).expect("every metric measured");
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
    }

    #[test]
    fn pipeline_smoke() {
        let scale = pipeline::Scale::tiny();
        smoke(false, |t| pipeline::run(3, 0.1, t, &scale));
        smoke(true, |t| pipeline::run(3, 0.1, t, &scale));
    }

    #[test]
    fn serve_tcp_smoke() {
        let scale = serve::Scale::tiny(Kind::Tcp);
        smoke(false, |t| serve::run(Kind::Tcp, 4, 0.1, t, &scale));
        smoke(true, |t| serve::run(Kind::Tcp, 4, 0.1, t, &scale));
    }

    #[test]
    fn serve_bigspace_smoke() {
        let scale = serve::Scale::tiny(Kind::BigSpace);
        smoke(false, |t| serve::run(Kind::BigSpace, 5, 0.1, t, &scale));
        smoke(true, |t| serve::run(Kind::BigSpace, 5, 0.1, t, &scale));
    }
}
