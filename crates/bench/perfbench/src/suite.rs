//! The traced run: the per-layer sections of all three workloads in one
//! process, so every traced run reports every per-layer metric. The
//! named workload gets half of the time budget and the other two a
//! quarter each.

use crate::report::Outcome;
use crate::trace::spans_json;
use crate::{fleet, infer, serve, Opts, WORKLOADS};

/// Runs the traced sections; returns the merged outcome and the span
/// files to write once every check has passed.
pub fn run(opts: &Opts) -> (Outcome, Vec<(String, String)>) {
    let mut out = Outcome::default();
    let mut files = Vec::new();
    for w in WORKLOADS {
        let share = if w == opts.workload { 0.5 } else { 0.25 };
        let secs = opts.seconds as f64 * share;
        match w {
            "fleet" => out.absorb(fleet::traced(opts.seed, secs)),
            "serve" => {
                let (o, spans) = serve::traced(opts.seed, secs);
                out.absorb(o);
                files.push(("spans-serve.json".to_string(), spans_json(&spans)));
            }
            _ => {
                let (o, spans) = infer::traced(opts.seed, secs);
                out.absorb(o);
                files.push(("spans-infer.json".to_string(), spans_json(&spans)));
            }
        }
    }
    (out, files)
}
