//! `fleet`: analytic serving at datacenter scale.
//!
//! 1024 SCONNA instances serve two tenants (GoogleNet and
//! ShuffleNet_V2 timing models) under Poisson load at 0.8 of capacity.
//! A seeded `FailureProcess` kills instances with a mean time between
//! failures of half the run; a `Supervisor` and the default retry policy
//! repair the fleet. No kernel runs: the event core, the scheduler,
//! supervision and report building do all the work, and memory grows
//! with the number of requests. Every run must conserve requests
//! (`accounted == offered`) and reproduce the first run's report.

use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::serve::{
    ArrivalProcess, FailureProcess, FaultPlan, Fleet, ServingConfig, ServingReport, Supervisor,
    TenantSpec,
};
use sconna_sim::event::EventQueue;
use sconna_sim::time::SimTime;
use sconna_tensor::engine::mix_key;
use sconna_tensor::models::{googlenet, shufflenet_v2, CnnModel};

use crate::report::Outcome;
use crate::serve::push_serving_counts;
use crate::stats::{median, supported_percentile, LogHistogram};
use crate::{machine, mixed_rate, salted, sample_setup, timed, workers, Budget};

/// Tenant names, in tenant (and model) index order.
pub const TENANTS: [&str; 2] = ["googlenet", "shufflenet"];
const INSTANCES: usize = 1024;
const MAX_BATCH: usize = 8;
const LOAD: f64 = 0.8;

/// Everything `fleet` generates from its seed.
pub struct Inputs {
    /// Timing models per tenant.
    pub models: Vec<CnnModel>,
    /// The fleet config.
    pub cfg: ServingConfig,
    /// The failure process, materialized per build.
    pub failures: FailureProcess,
    /// Horizon the failure process is materialized over.
    pub horizon: SimTime,
}

/// The config and failure process for `requests` requests (split evenly
/// between the tenants), drawn from `seed`.
pub fn inputs(seed: u64, requests: usize) -> Inputs {
    let models = vec![googlenet(), shufflenet_v2()];
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), INSTANCES, MAX_BATCH, 1)
        .with_seed(salted(seed, 10))
        .with_supervisor(Supervisor::new(salted(seed, 11)));
    let refs: Vec<&CnnModel> = models.iter().collect();
    let total_rate = mixed_rate(&base, &refs, LOAD);
    let per_tenant = requests / TENANTS.len();
    let tenants = TENANTS
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let rate = total_rate / TENANTS.len() as f64;
            TenantSpec::new(*name, t, ArrivalProcess::poisson(rate), per_tenant)
        })
        .collect();
    let run_s = (per_tenant * TENANTS.len()) as f64 / total_rate;
    Inputs {
        models,
        cfg: base.with_tenants(tenants),
        failures: FailureProcess::new(salted(seed, 12), SimTime::from_secs_f64(run_s / 2.0)),
        horizon: SimTime::from_secs_f64(run_s * 1.5),
    }
}

impl Inputs {
    /// The set-up step: materialize the fault plan and build the fleet
    /// with it installed.
    pub fn build(&self) -> (Fleet<'_>, FaultPlan) {
        let refs: Vec<&CnnModel> = self.models.iter().collect();
        let plan = self.failures.materialize(INSTANCES, self.horizon);
        (Fleet::new_multi(&self.cfg, &refs).with_faults(&plan), plan)
    }
}

/// One run's results.
struct Run {
    report: ServingReport,
    /// Host seconds of `run_to_completion` + `into_report`.
    secs: f64,
    /// Host seconds of `into_report` alone.
    report_secs: f64,
    events: u64,
    conserved: bool,
    /// Resident bytes after the run, before the report was built.
    rss_after_run: u64,
}

/// Builds (untimed) and runs one fleet; `per_step` times every step into
/// a histogram instead of one untimed loop.
fn run_once(inputs: &Inputs, per_step: Option<&mut LogHistogram>) -> Run {
    let (mut fleet, _plan) = inputs.build();
    let t0 = std::time::Instant::now();
    match per_step {
        None => fleet.run_to_completion(),
        Some(hist) => loop {
            let s = std::time::Instant::now();
            let more = fleet.step();
            hist.record(s.elapsed().as_nanos() as u64);
            if !more {
                break;
            }
        },
    }
    let snap = fleet.snapshot();
    let rss_after_run = machine::rss_bytes();
    let (report, report_secs) = timed(move || fleet.into_report());
    let secs = t0.elapsed().as_secs_f64();
    let conserved = snap.is_complete
        && snap.accounted() == snap.offered
        && report.completed + report.dropped + report.degraded == report.offered
        && report.offered == inputs.cfg.requests as u64;
    Run {
        report,
        secs,
        report_secs,
        events: snap.events_processed,
        conserved,
        rss_after_run,
    }
}

/// Requests that ended dropped, shed or stranded.
fn failed_requests(rep: &ServingReport) -> u64 {
    rep.dropped
}

/// Set-up samples taken after every run.
const SETUP_REPS: usize = 2;
/// Requests per fleet run.
pub const REQUESTS: usize = 1_000_000;

/// The untraced `fleet` run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(seed, REQUESTS);
    let budget = Budget::new(seconds, 10);
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    let (mut conserved, mut repeatable) = (true, true);
    while budget.more(rates.len()) {
        let r = run_once(&inputs, None);
        out.attempted += r.report.offered;
        out.failed += failed_requests(&r.report);
        conserved &= r.conserved;
        let terminal = r.report.completed + r.report.dropped + r.report.degraded;
        rates.push(terminal as f64 / r.secs);
        let dbg = format!("{:?}", r.report);
        repeatable &= *first.get_or_insert_with(|| dbg.clone()) == dbg;
        sample_setup(&mut setups, SETUP_REPS, || inputs.build());
    }
    out.check("fleet.conservation", conserved);
    out.check("fleet.repeatable", repeatable);
    out.metric("setup_s", median(&setups), "s", setups.len() as u64);
    out.metric("req_per_s", median(&rates), "1/s", rates.len() as u64);
    let per_op: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
    out.note_timing("fleet.request_s", &per_op);
    out.metric("peak_rss_mb", machine::peak_rss_mb(), "MB", 1);
    out.note("fleet.requests_per_run", inputs.cfg.requests);
    out.note("fleet.fault_events", inputs.build().1.len());
    out
}

/// Replays the hold model on a public [`EventQueue`]: `pending` events
/// stay queued while `events` pop-and-reschedule steps run. Each popped
/// event is rescheduled between ½ and 1 × `pending × gap` ahead (a keyed
/// draw), which keeps the queued events about `gap` apart, as in the
/// fleet. Returns ns per event.
pub fn replay_ns_per_event(pending: usize, events: u64, gap: SimTime) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let span = gap.as_ps().max(1) * pending as u64;
    for i in 0..pending as u64 {
        q.schedule_at(SimTime::from_ps(mix_key(i) % span), i);
    }
    let (done, secs) = timed(|| {
        let mut n = 0u64;
        while n < events {
            let Some((now, id)) = q.pop() else { break };
            let jitter = mix_key(id ^ n.wrapping_mul(0x9E37)) % span;
            q.schedule_at(SimTime::from_ps(now.as_ps() + span / 2 + jitter / 2), id);
            n += 1;
        }
        n
    });
    secs * 1e9 / done.max(1) as f64
}

/// The traced `fleet` section: per-step host time (a histogram, not one
/// record per event), report building, event counts, the event-core
/// replay, bytes held per request, serving counts, the 1-vs-nproc check
/// and the tracing overhead.
pub fn traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(seed, REQUESTS);
    let requests = inputs.cfg.requests as u64;

    // Untraced reference first, while the heap is fresh: bytes held per
    // request are the resident growth over the run.
    let rss0 = machine::rss_bytes();
    let plain = run_once(&inputs, None);
    let bytes_per_req = bytes_per_request(rss0, plain.rss_after_run, requests);
    let plain_dbg = format!("{:?}", plain.report);

    // Untraced and step-timed runs alternate so both see the same host
    // conditions; the histogram accumulates over every timed run.
    let mut hist = LogHistogram::new();
    let budget = Budget::new(seconds * 0.6, 2);
    let (mut plain_secs, mut traced_secs, mut report_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_equal, mut conserved) = (true, plain.conserved);
    while budget.more(traced_secs.len()) {
        let p = run_once(&inputs, None);
        let t = run_once(&inputs, Some(&mut hist));
        for r in [&p, &t] {
            traced_equal &= format!("{:?}", r.report) == plain_dbg;
            conserved &= r.conserved;
            out.failed += failed_requests(&r.report);
            out.attempted += requests;
        }
        plain_secs.push(p.secs);
        traced_secs.push(t.secs);
        report_ms.push(p.report_secs * 1e3);
    }
    out.check("fleet.traced_equal", traced_equal);
    out.check("fleet.conservation", conserved);
    out.attempted += requests;
    out.failed += failed_requests(&plain.report);

    // The same config run on nproc threads at once (at most four, to
    // bound memory) must reproduce the single-thread report: no state is
    // shared between fleets.
    let n = workers().min(4);
    let concurrent: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| s.spawn(|| format!("{:?}", run_once(&inputs, None).report)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    out.check(
        "fleet.workers_invariant",
        concurrent.iter().all(|d| *d == plain_dbg),
    );
    out.attempted += n as u64 * requests;

    let rep = &plain.report;
    let p_tail = supported_percentile(hist.count() as usize, 99.0);
    out.metric(
        "accel.serve.step_ns_p50",
        hist.percentile(50.0),
        "ns",
        hist.count(),
    );
    out.metric(
        "accel.serve.step_ns_p99",
        hist.percentile(p_tail),
        "ns",
        hist.count(),
    );
    out.metric(
        "accel.serve.report_ms",
        median(&report_ms),
        "ms",
        report_ms.len() as u64,
    );
    out.metric("sim.event.events", plain.events as f64, "count", 1);
    out.metric(
        "sim.event.events_per_req",
        plain.events as f64 / requests as f64,
        "count",
        1,
    );
    let gap = SimTime::from_ps(rep.makespan.as_ps() / plain.events.max(1));
    out.metric(
        "sim.event.replay_ns_per_event",
        replay_ns_per_event(INSTANCES, plain.events, gap),
        "ns",
        plain.events,
    );
    out.metric("accel.serve.bytes_per_req", bytes_per_req, "B", requests);
    push_serving_counts(&mut out, "fleet", rep, true);
    out.metric(
        "trace.fleet.overhead",
        1.0 - median(&plain_secs) / median(&traced_secs),
        "share",
        plain_secs.len() as u64,
    );
    out.note("fleet.step_ns_tail_percentile", p_tail);
    out
}

/// Resident bytes gained over a run, per request (0 if the process
/// shrank).
pub fn bytes_per_request(rss_before: u64, rss_after: u64, requests: u64) -> f64 {
    rss_after.saturating_sub(rss_before) as f64 / requests.max(1) as f64
}
