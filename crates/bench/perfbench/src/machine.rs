//! The machine and process facts a result is stamped with, read from
//! `/proc` (Linux). The library itself never reads a clock or `/proc`;
//! only the benchmark does.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`), in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&text, field).map(|kb| kb * 1024)
}

/// Parses `<field>:   <n> kB` out of `/proc/<pid>/status` text.
pub fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size so far, MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_bytes("VmHWM").map_or(f64::NAN, |b| b as f64 / 1e6)
}

/// Current resident set size, bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS").unwrap_or(0)
}

/// User plus system CPU time of the whole process so far, seconds.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat_ticks(&t))
        .map_or(f64::NAN, |ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` (fields 14 and 15) of `/proc/<pid>/stat` text. The
/// command name (field 2) may contain spaces, so fields are counted from
/// its closing parenthesis.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let after = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    sconna_sim::parallel::default_workers()
}

/// Compiler that built the benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// Target features the build enabled (comma-separated).
pub fn target_features() -> &'static str {
    env!("PERFBENCH_TARGET_FEATURES")
}
