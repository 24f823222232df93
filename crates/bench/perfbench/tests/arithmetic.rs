//! The benchmark's own arithmetic: percentile choice, span self time,
//! bytes per request, the result writer, and the `/proc` and CLI
//! parsers. Run with
//! `cargo test --release --manifest-path crates/bench/perfbench/Cargo.toml`.

use sconna_perfbench::fleet::bytes_per_request;
use sconna_perfbench::machine::{parse_stat_ticks, parse_status_kb};
use sconna_perfbench::report::{json_string, Outcome};
use sconna_perfbench::stats::{median, percentile_sorted, supported_percentile, LogHistogram};
use sconna_perfbench::trace::{self_time_ns, Span, Tracer, TracingEngine};
use sconna_perfbench::Opts;
use sconna_tensor::engine::{ExactEngine, PatchMatrix, VdpEngine, WeightMatrix};

#[test]
fn percentile_choice_keeps_ten_samples_beyond() {
    assert_eq!(supported_percentile(10_000, 99.9), 99.9);
    assert_eq!(supported_percentile(9_999, 99.9), 99.0);
    assert_eq!(supported_percentile(1_000, 99.0), 99.0);
    assert_eq!(supported_percentile(999, 99.0), 95.0);
    assert_eq!(supported_percentile(200, 99.0), 95.0);
    assert_eq!(supported_percentile(100, 99.0), 90.0);
    assert_eq!(supported_percentile(40, 99.0), 75.0);
    // Never above what was asked for, and the median as the floor.
    assert_eq!(supported_percentile(1_000_000, 50.0), 50.0);
    assert_eq!(supported_percentile(3, 99.0), 50.0);
}

#[test]
fn median_and_nearest_rank() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
    assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
    assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
    assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
}

#[test]
fn histogram_is_exact_below_32_and_within_a_bucket_above() {
    let mut h = LogHistogram::new();
    for v in 0..20u64 {
        h.record(v);
    }
    assert_eq!(h.count(), 20);
    // Rank 10 of 0..19 is the value 9, which has a bucket of its own.
    assert!((h.percentile(50.0) - 9.0).abs() <= 1.0);

    let mut h = LogHistogram::new();
    let values: Vec<u64> = (1..=10_000u64).map(|i| i * 37).collect();
    for &v in &values {
        h.record(v);
    }
    for p in [50.0, 90.0, 99.0] {
        let exact = percentile_sorted(&values.iter().map(|&v| v as f64).collect::<Vec<_>>(), p);
        let approx = h.percentile(p);
        assert!(
            (approx - exact).abs() / exact < 1.0 / 32.0 + 1e-9,
            "p{p}: {approx} vs {exact}"
        );
    }
    assert!(h.percentile(50.0) < h.percentile(90.0));
    assert!(h.percentile(90.0) < h.percentile(99.0));
    assert!(LogHistogram::new().percentile(50.0).is_nan());
}

fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "s".into(),
        start_ns,
        end_ns,
        macs: 0,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let parent = span(1, None, 0, 100);
    // Two workers' tiles overlap on [30, 40]; a third tile runs past the
    // parent's end and is clipped to it.
    let a = span(2, Some(1), 10, 40);
    let b = span(3, Some(1), 30, 60);
    let c = span(4, Some(1), 90, 120);
    assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 100 - (50 + 10));
    // Order does not matter; a child inside another adds nothing.
    let inner = span(5, Some(1), 15, 20);
    assert_eq!(self_time_ns(&parent, &[&c, &inner, &b, &a]), 40);
    assert_eq!(self_time_ns(&parent, &[]), 100);
    // A child covering the whole parent leaves no self time.
    let all = span(6, Some(1), 0, 100);
    assert_eq!(self_time_ns(&parent, &[&all, &a]), 0);
}

#[test]
fn tiles_from_parallel_workers_are_children_of_the_open_span() {
    let tracer = Tracer::new();
    let engine = TracingEngine::new(&ExactEngine, &tracer, true);
    let patches = PatchMatrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]);
    let weights = [1, -1, 2, 0, 3, -2];
    let wm = WeightMatrix::new(&weights, 2, 3);
    let prepared = engine.prepare_weights(&wm);
    let expected = ExactEngine.vdp_batch(&patches, &wm, &[7, 8]);
    tracer.span("layer", || {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let got = engine.vdp_batch_prepared(&patches, &prepared, &[7, 8]);
                    assert_eq!(got, expected);
                });
            }
        });
    });
    let spans = tracer.spans();
    let layer = spans
        .iter()
        .find(|s| s.name == "layer")
        .expect("layer span");
    let tiles: Vec<&Span> = spans.iter().filter(|s| s.name == "tile").collect();
    assert_eq!(tiles.len(), 2);
    assert!(tiles
        .iter()
        .all(|t| t.parent == Some(layer.id) && t.macs == 12));
    assert_eq!(engine.macs(), 24);
    assert_eq!(engine.take_tiles().len(), 2);
    assert!(self_time_ns(layer, &tiles) <= layer.duration_ns());
}

#[test]
fn bytes_per_request_is_resident_growth_over_requests() {
    assert_eq!(bytes_per_request(1_000, 5_000, 4), 1_000.0);
    assert_eq!(bytes_per_request(10_000_000, 65_000_000, 1_000_000), 55.0);
    // A process that shrank held nothing per request.
    assert_eq!(bytes_per_request(5_000, 1_000, 4), 0.0);
    assert_eq!(bytes_per_request(0, 100, 0), 100.0);
}

fn sample_outcome() -> Outcome {
    let mut o = Outcome {
        attempted: 1000,
        ..Outcome::default()
    };
    o.metric("latency_ms", 1.2034, "ms", 10);
    o.metric("setup_s", 0.8127, "s", 5);
    o.check("parity", true);
    o
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let line = sample_outcome().result_line().expect("checks passed");
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
         {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
         \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
    );
}

#[test]
fn result_line_keeps_every_digit() {
    let mut o = sample_outcome();
    o.metric("x", 0.1 + 0.2, "s", 1);
    let line = o.result_line().expect("checks passed");
    assert!(line.contains("\"x\": {\"value\": 0.30000000000000004,"));
}

#[test]
fn failing_runs_render_no_result() {
    let mut o = sample_outcome();
    o.check("oracle", false);
    assert!(o.result_line().unwrap_err().contains("oracle"));

    let mut o = sample_outcome();
    o.failed = 1;
    assert!(o.result_line().is_err());

    let mut o = sample_outcome();
    o.attempted = 0;
    assert!(o.result_line().is_err());

    let mut o = sample_outcome();
    o.metric("bad", f64::NAN, "s", 1);
    assert!(o.result_line().is_err());

    let mut o = sample_outcome();
    o.metric("setup_s", 1.0, "s", 1);
    assert!(o.result_line().unwrap_err().contains("twice"));
}

#[test]
fn json_strings_are_escaped() {
    assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
}

#[test]
fn proc_parsers() {
    let status = "Name:\tperfbench\nVmPeak:\t  300 kB\nVmHWM:\t   1234 kB\nVmRSS:\t  999 kB\n";
    assert_eq!(parse_status_kb(status, "VmHWM"), Some(1234));
    assert_eq!(parse_status_kb(status, "VmRSS"), Some(999));
    assert_eq!(parse_status_kb(status, "VmSwap"), None);
    // The command name may hold spaces and parentheses.
    let stat = "42 (perf (bench) x) R 1 2 3 4 5 6 7 8 9 10 150 25 0 0";
    assert_eq!(parse_stat_ticks(stat), Some(175));
    assert_eq!(parse_stat_ticks("garbage"), None);
}

#[test]
fn command_line() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let o = Opts::parse(&args("--workload serve --seed 7 --seconds 10 --trace 1")).expect("valid");
    assert_eq!(
        o,
        Opts {
            workload: "serve".into(),
            seed: 7,
            seconds: 10,
            trace: true
        }
    );
    assert!(Opts::parse(&args("--workload nope --seed 1")).is_err());
    assert!(Opts::parse(&args("--seed 1")).is_err());
    assert!(Opts::parse(&args("--workload infer --trace 2")).is_err());
    assert!(Opts::parse(&args("--workload infer --seconds 0")).is_err());
    assert!(Opts::parse(&args("--workload infer --seed")).is_err());
}
