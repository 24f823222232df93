//! # sconna-bench — benchmark harness
//!
//! One binary per paper table/figure (see DESIGN.md §3 for the experiment
//! index) plus ablation studies, and Criterion micro-benchmarks over the
//! substrate crates. Shared table-formatting helpers live here.

/// Prints a rule line sized to a header.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Formats a `(label, value)` listing with aligned columns.
pub fn format_kv(pairs: &[(&str, String)]) -> String {
    let width = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in pairs {
        out.push_str(&format!("{k:<width$}  {v}\n"));
    }
    out
}

/// Standard banner for experiment binaries.
pub fn banner(experiment: &str, paper_ref: &str) -> String {
    format!(
        "=== {experiment} ===\nreproduces: {paper_ref}\n{}\n",
        rule(60)
    )
}

/// Formats a JSON number at 4 decimals; non-finite values become
/// `null`, which JSON has no number for.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

/// Writes a bench's `BENCH_*.json` baseline to `path`, or, in smoke
/// mode, leaves it untouched: smoke numbers are not a baseline, and the
/// checked-in record is always a full-mode run. Call only after every
/// gate has passed.
pub fn write_baseline(path: &str, smoke: bool, json: &str) {
    if smoke {
        println!("\nsmoke mode: {path} (full-mode baseline) left untouched");
    } else {
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_contains_experiment_and_reference() {
        let b = banner("Table I", "VDPE size vs precision/data-rate");
        assert!(b.contains("Table I"));
        assert!(b.contains("VDPE size"));
    }

    #[test]
    fn kv_alignment() {
        let s = format_kv(&[("a", "1".into()), ("long-key", "2".into())]);
        assert!(s.contains("a         1"));
        assert!(s.contains("long-key  2"));
    }

    #[test]
    fn json_num_is_four_decimals_or_null() {
        assert_eq!(json_num(1.0), "1.0000");
        assert_eq!(json_num(0.123456), "0.1235");
        assert_eq!(json_num(-2.5), "-2.5000");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NEG_INFINITY), "null");
    }
}
