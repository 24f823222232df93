//! `perfbench --workload <infer|serve|fleet> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a human-readable table, then the run fingerprint (one JSON
//! line), then the result (one JSON line, always last). Every check runs
//! before anything is printed or written: a failing run prints its
//! failures to stderr, writes nothing and exits non-zero.

use std::process::ExitCode;

use sconna_perfbench::report::{fingerprint_json, Outcome};
use sconna_perfbench::{fleet, infer, serve, suite, Opts};

/// Where result and span files go: `out/` beside this package's manifest.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let secs = opts.seconds as f64;
    let (outcome, files): (Outcome, Vec<(String, String)>) = if opts.trace {
        suite::run(&opts)
    } else {
        let o = match opts.workload.as_str() {
            "infer" => infer::run(opts.seed, secs),
            "serve" => serve::run(opts.seed, secs),
            _ => fleet::run(opts.seed, secs),
        };
        (o, Vec::new())
    };
    let line = match outcome.result_line() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let fingerprint = fingerprint_json(
        &opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        &outcome,
    );
    let tag = format!(
        "{}-{}",
        opts.workload,
        if opts.trace { "traced" } else { "e2e" }
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            format!("{OUT_DIR}/result-{tag}.json"),
            format!("{fingerprint}\n{line}\n"),
        )?;
        for (name, body) in &files {
            std::fs::write(format!("{OUT_DIR}/{name}"), body)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write results under {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    for m in &outcome.metrics {
        println!(
            "{:<48} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{fingerprint}");
    println!("{line}");
    ExitCode::SUCCESS
}
