//! Results: metrics with units and sample counts, correctness checks,
//! the run fingerprint, and the JSON writer.
//!
//! A run's result is only rendered after every check has passed
//! ([`Outcome::result_line`] refuses otherwise), so a failing run writes
//! nothing.

use std::fmt::Write as _;

use crate::machine;
use crate::stats::{percentile_sorted, supported_percentile};

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `count`, ...).
    pub unit: &'static str,
    /// Measurements the value summarizes (a median of 7 runs has 7; a
    /// percentile has its sample count).
    pub samples: u64,
}

/// What a workload (or the traced suite) returns.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Free-form run facts for the fingerprint (percentile actually used,
    /// request counts, ...).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Records a run fact.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Records a timing distribution as a run fact: its median and the
    /// highest percentile with at least ten samples beyond it, with the
    /// sample count.
    pub fn note_timing(&mut self, key: &str, seconds: &[f64]) {
        let mut v = seconds.to_vec();
        v.sort_by(f64::total_cmp);
        let p = supported_percentile(v.len(), 99.0);
        self.note(
            key,
            format!(
                "p50 {} s, p{p} {} s, n {}",
                percentile_sorted(&v, 50.0),
                percentile_sorted(&v, p),
                v.len()
            ),
        );
    }

    /// Appends another outcome (the traced suite merges its sections).
    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.notes.extend(other.notes);
    }

    /// Names of the checks that failed.
    pub fn failed_checks(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// The final result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`. Errors if a check
    /// failed, an operation failed, nothing was attempted, a metric is
    /// not finite, or a name repeats.
    pub fn result_line(&self) -> Result<String, String> {
        let bad = self.failed_checks();
        if !bad.is_empty() {
            return Err(format!("failed checks: {}", bad.join(", ")));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        if self.failed > 0 {
            return Err(format!(
                "{} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            let v =
                json_number(m.value).ok_or_else(|| format!("metric {} = {}", m.name, m.value))?;
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_string(&m.name),
                json_string(m.unit)
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A finite number in JSON form with every digit Rust's shortest
/// round-trip formatting gives; `None` for NaN and infinities.
pub fn json_number(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine and run fingerprint every result is stamped with, as one
/// JSON object: nproc, arch, target features, rustc, CPU model, the run
/// arguments, the sample count behind every metric, and run notes.
pub fn fingerprint_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    outcome: &Outcome,
) -> String {
    let mut out = String::from("{\"fingerprint\": {");
    let _ = write!(
        out,
        "\"nproc\": {}, \"arch\": {}, \"os\": {}, \"target_features\": {}, \"rustc\": {}, \
         \"cpu_model\": {}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"attempted\": {}, \"failed\": {}",
        machine::nproc(),
        json_string(std::env::consts::ARCH),
        json_string(std::env::consts::OS),
        json_string(machine::target_features()),
        json_string(machine::rustc_version()),
        json_string(&machine::cpu_model()),
        json_string(workload),
        u8::from(trace),
        outcome.attempted,
        outcome.failed,
    );
    out.push_str(", \"samples\": {");
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}{}: {}", json_string(&m.name), m.samples);
    }
    out.push_str("}, \"checks\": {");
    for (i, (name, ok)) in outcome.checks.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}{}: {ok}", json_string(name));
    }
    out.push_str("}, \"notes\": {");
    for (i, (k, v)) in outcome.notes.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}{}: {}", json_string(k), json_string(v));
    }
    out.push_str("}}}");
    out
}
