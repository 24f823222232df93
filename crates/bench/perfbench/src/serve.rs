//! `serve`: functional two-tenant serving under open-loop Poisson load.
//!
//! Eight SCONNA instances with `max_batch` 8 and weighted-fair
//! scheduling serve two tenants. Each tenant's network is a `SmallCnn`
//! trained here on a `SyntheticDataset` and quantized to 8 bits; the
//! timing models are ShuffleNet_V2 and GoogleNet. Arrivals are Poisson
//! in simulated time at 0.7 of the fleet's estimated capacity, so host
//! speed never changes what is simulated. Every run is checked against
//! its analytic twin (the same config without functional execution:
//! the `serving` report must match bit for bit) and every request's
//! prediction against the prepared network's prediction for sample
//! `r % n` under key `r`.

use sconna_accel::engine::SconnaEngine;
use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::serve::{
    ArrivalProcess, Fleet, FunctionalServingReport, FunctionalWorkload, RequestOutcome,
    ServingConfig, ServingReport, TenantSpec,
};
use sconna_sim::parallel::parallel_map_with;
use sconna_tensor::dataset::{Sample, SyntheticDataset};
use sconna_tensor::engine::VdpEngine;
use sconna_tensor::models::{googlenet, shufflenet_v2, CnnModel};
use sconna_tensor::smallcnn::{SmallCnn, SmallCnnConfig};
use sconna_tensor::QuantizedNetwork;

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{Span, Tracer, TracingEngine};
use crate::{machine, mixed_rate, salted, sample_setup, timed, workers, Budget};

/// Tenant names, in tenant (and model) index order.
pub const TENANTS: [&str; 2] = ["shufflenet", "googlenet"];
const INSTANCES: usize = 8;
const MAX_BATCH: usize = 8;
const LOAD: f64 = 0.7;
/// Requests per tenant per fleet run.
const REQUESTS_PER_TENANT: usize = 512;
const CLASSES: usize = 10;
/// Set-up samples taken after every fleet run.
const SETUP_REPS: usize = 4;

/// Everything `serve` generates from its seed.
pub struct Inputs {
    /// Quantized tenant networks.
    pub nets: Vec<QuantizedNetwork>,
    /// Labelled request population per tenant.
    pub samples: Vec<Vec<Sample>>,
    /// Timing models per tenant.
    pub models: Vec<CnnModel>,
    /// The fleet config.
    pub cfg: ServingConfig,
    /// Seed of the engine's ADC noise.
    pub engine_seed: u64,
}

/// Trains one tenant network (~0.3 s in release) and draws its test
/// samples.
fn tenant_net(seed: u64, t: usize) -> (QuantizedNetwork, Vec<Sample>) {
    let s = salted(seed, 100 + t as u64);
    let data = SyntheticDataset::new(CLASSES, 16, 0.25, s);
    let train = data.batch(20, salted(s, 1));
    let test = data.batch(24, salted(s, 2));
    let mut cnn = SmallCnn::new(
        SmallCnnConfig {
            input_size: 16,
            channels1: 8,
            channels2: 16,
            classes: CLASSES,
        },
        salted(s, 3),
    );
    cnn.train(&train, 10, 0.05);
    (cnn.quantize(&train, 8), test)
}

/// Generates the tenants and the fleet config from `seed`. Training is
/// input generation, not set-up.
pub fn inputs(seed: u64) -> Inputs {
    let (nets, samples) = parallel_map_with(vec![0usize, 1], workers(), |t| tenant_net(seed, t))
        .into_iter()
        .unzip();
    let models = vec![shufflenet_v2(), googlenet()];
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), INSTANCES, MAX_BATCH, 1)
        .with_seed(seed);
    let refs: Vec<&CnnModel> = models.iter().collect();
    let rate = mixed_rate(&base, &refs, LOAD) / TENANTS.len() as f64;
    let tenants = TENANTS
        .iter()
        .enumerate()
        .map(|(t, name)| {
            TenantSpec::new(*name, t, ArrivalProcess::poisson(rate), REQUESTS_PER_TENANT)
        })
        .collect();
    Inputs {
        nets,
        samples,
        models,
        cfg: base.with_tenants(tenants),
        engine_seed: salted(seed, 5),
    }
}

impl Inputs {
    fn model_refs(&self) -> Vec<&CnnModel> {
        self.models.iter().collect()
    }

    fn workloads<'a>(
        &'a self,
        engine: &'a dyn VdpEngine,
        workers: usize,
    ) -> Vec<FunctionalWorkload<'a>> {
        self.nets
            .iter()
            .zip(&self.samples)
            .map(|(net, samples)| FunctionalWorkload {
                net,
                fallback: None,
                fallback_engine: None,
                samples,
                engine,
                workers,
            })
            .collect()
    }
}

/// The analytic twin, stepped to completion: its report, and the tenant
/// of every request id (ids are issued in arrival order, one per
/// arrival, so the tenant whose offered count grows owns the next id).
pub fn analytic_twin(inputs: &Inputs) -> (ServingReport, Vec<usize>) {
    let mut fleet = Fleet::new_multi(&inputs.cfg, &inputs.model_refs());
    let mut tenant_of = Vec::with_capacity(inputs.cfg.requests);
    let mut seen = vec![0u64; TENANTS.len()];
    while fleet.step() {
        let snap = fleet.snapshot();
        for (t, ts) in snap.tenants.iter().enumerate() {
            while seen[t] < ts.offered {
                tenant_of.push(t);
                seen[t] += 1;
            }
        }
    }
    (fleet.into_report(), tenant_of)
}

/// The oracle: each request's prediction on its tenant's prepared
/// network, sample `r % n`, key `r` — computed in parallel chunks.
pub fn oracle(inputs: &Inputs, engine: &dyn VdpEngine, tenant_of: &[usize]) -> Vec<usize> {
    let prepared: Vec<_> = inputs.nets.iter().map(|n| n.prepare(engine)).collect();
    let chunks: Vec<std::ops::Range<usize>> = (0..tenant_of.len())
        .step_by(64)
        .map(|s| s..(s + 64).min(tenant_of.len()))
        .collect();
    parallel_map_with(chunks, workers(), |ids| {
        ids.map(|r| {
            let t = tenant_of[r];
            let s = &inputs.samples[t];
            prepared[t].predict_batch(&[&s[r % s.len()].image], &[r as u64], 1)[0]
        })
        .collect::<Vec<usize>>()
    })
    .concat()
}

/// Requests without a response or whose prediction differs from the
/// oracle.
pub fn prediction_failures(rep: &FunctionalServingReport, expected: &[usize]) -> u64 {
    if rep.predictions.len() != expected.len() {
        return expected.len() as u64;
    }
    rep.outcomes
        .iter()
        .zip(&rep.predictions)
        .zip(expected)
        .filter(|((o, &p), &e)| {
            !matches!(o, RequestOutcome::Served | RequestOutcome::Degraded) || p != e
        })
        .count() as u64
}

/// One functional run from a fresh fleet: (report, host seconds of
/// `run_to_completion` + `into_functional_report`).
fn functional_run(
    inputs: &Inputs,
    workloads: &[FunctionalWorkload<'_>],
) -> (FunctionalServingReport, f64) {
    let wrefs: Vec<&FunctionalWorkload<'_>> = workloads.iter().collect();
    let mut fleet = Fleet::new_multi_functional(&inputs.cfg, &inputs.model_refs(), &wrefs);
    timed(move || {
        fleet.run_to_completion();
        fleet.into_functional_report()
    })
}

/// The untraced `serve` run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(seed);
    let engine = SconnaEngine::paper_default(inputs.engine_seed);
    let workers = workers();
    let workloads = inputs.workloads(&engine, workers);
    let wrefs: Vec<&FunctionalWorkload<'_>> = workloads.iter().collect();
    let (twin, tenant_of) = analytic_twin(&inputs);
    let twin_debug = format!("{twin:?}");
    let expected = oracle(&inputs, &engine, &tenant_of);

    let budget = Budget::new(seconds, 10);
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut twin_equal = true;
    let mut reps = 0usize;
    // One untimed warm-up run, then timed runs until the budget is spent.
    while reps == 0 || budget.more(rates.len()) {
        let (rep, dt) = functional_run(&inputs, &workloads);
        out.attempted += inputs.cfg.requests as u64;
        out.failed += prediction_failures(&rep, &expected);
        twin_equal &= format!("{:?}", rep.serving) == twin_debug;
        let terminal = rep.serving.completed + rep.serving.dropped + rep.serving.degraded;
        if reps > 0 {
            rates.push(terminal as f64 / dt);
        }
        sample_setup(&mut setups, SETUP_REPS, || {
            Fleet::new_multi_functional(&inputs.cfg, &inputs.model_refs(), &wrefs)
        });
        reps += 1;
    }
    out.check("serve.twin_equal", twin_equal);
    out.check("serve.prediction_parity", out.failed == 0);
    out.metric("setup_s", median(&setups), "s", setups.len() as u64);
    out.metric("req_per_s", median(&rates), "1/s", rates.len() as u64);
    let per_op: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
    out.note_timing("serve.request_s", &per_op);
    out.metric("peak_rss_mb", machine::peak_rss_mb(), "MB", 1);
    out.note("serve.requests_per_run", inputs.cfg.requests);
    out
}

/// Pushes the deterministic serving counts and simulated latencies of a
/// report under `accel.serve.<workload>.`; retries and incidents only
/// for a run with `faults`.
pub fn push_serving_counts(out: &mut Outcome, workload: &str, rep: &ServingReport, faults: bool) {
    let p = format!("accel.serve.{workload}");
    let us = |t: sconna_sim::time::SimTime| t.as_secs_f64() * 1e6;
    let n = rep.latency.count as u64;
    out.metric(format!("{p}.sim_p50_us"), us(rep.latency.p50), "us", n);
    out.metric(format!("{p}.sim_p99_us"), us(rep.latency.p99), "us", n);
    out.metric(format!("{p}.batches"), rep.batches as f64, "count", 1);
    out.metric(
        format!("{p}.batch_fill"),
        rep.mean_batch_fill,
        "count",
        rep.batches,
    );
    let swaps: u64 = rep.tenants.iter().map(|t| t.model_swaps).sum();
    out.metric(format!("{p}.model_swaps"), swaps as f64, "count", 1);
    if faults {
        out.metric(
            format!("{p}.retries"),
            rep.availability.retries as f64,
            "count",
            1,
        );
        out.metric(
            format!("{p}.incidents"),
            rep.availability.incidents as f64,
            "count",
            1,
        );
    }
    let util = rep.utilization.iter().sum::<f64>() / rep.utilization.len().max(1) as f64;
    out.metric(
        format!("{p}.util_mean"),
        util,
        "share",
        rep.utilization.len() as u64,
    );
    out.metric(
        format!("{p}.queue_depth_max"),
        rep.queue_depth.max_depth() as f64,
        "count",
        rep.queue_depth.len() as u64,
    );
    for t in &rep.tenants {
        out.metric(
            format!("{p}.{}.sim_p99_us", t.name),
            us(t.latency.p99),
            "us",
            t.latency.count as u64,
        );
    }
}

/// The traced `serve` section: fleet build, execution share (the
/// functional run minus its analytic twin), serving counts, accuracy,
/// the 1-vs-nproc worker check and the tracing overhead.
pub fn traced(seed: u64, seconds: f64) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let inputs = inputs(seed);
    let engine = SconnaEngine::paper_default(inputs.engine_seed);
    let workers = workers();
    let workloads = inputs.workloads(&engine, workers);
    let wrefs: Vec<&FunctionalWorkload<'_>> = workloads.iter().collect();
    let mut builds = Vec::new();
    sample_setup(&mut builds, 51, || {
        Fleet::new_multi_functional(&inputs.cfg, &inputs.model_refs(), &wrefs)
    });
    let (twin, tenant_of) = analytic_twin(&inputs);
    let twin_debug = format!("{twin:?}");
    let expected = oracle(&inputs, &engine, &tenant_of);

    // Analytic twin timing: the scheduler alone.
    let budget = Budget::new(0.2, 5);
    let mut sched_times = Vec::new();
    while budget.more(sched_times.len()) {
        let mut fleet = Fleet::new_multi(&inputs.cfg, &inputs.model_refs());
        let (rep, dt) = timed(move || {
            fleet.run_to_completion();
            fleet.into_report()
        });
        std::hint::black_box(rep);
        sched_times.push(dt);
    }
    let sched_s = median(&sched_times);

    // Untraced and traced functional runs, alternating so both see the
    // same host conditions. The traced engine puts every tile in a span
    // and counts its MACs; the span file keeps the last traced run.
    let tracer = Tracer::new();
    let tengine = TracingEngine::new(&engine, &tracer, false);
    let tworkloads = inputs.workloads(&tengine, workers);
    let budget = Budget::new(seconds * 0.8, 2);
    let (mut func_times, mut traced_times) = (Vec::new(), Vec::new());
    let (mut plain, mut traced_rep) = (None, None);
    let mut twin_equal = true;
    while budget.more(func_times.len()) {
        let (rep, dt) = functional_run(&inputs, &workloads);
        func_times.push(dt);
        tracer.clear();
        let (trep, tdt) = tracer.span("serve.run", || functional_run(&inputs, &tworkloads));
        traced_times.push(tdt);
        for r in [&rep, &trep] {
            out.attempted += inputs.cfg.requests as u64;
            out.failed += prediction_failures(r, &expected);
            twin_equal &= format!("{:?}", r.serving) == twin_debug;
        }
        (plain, traced_rep) = (Some(rep), Some(trep));
    }
    out.check("serve.twin_equal", twin_equal);
    let (Some(plain), Some(traced_rep)) = (plain, traced_rep) else {
        out.check("serve.ran", false);
        return (out, Vec::new());
    };
    let func_s = median(&func_times);
    let executed_macs = tengine.macs() as f64 / traced_times.len() as f64;

    // One worker against nproc: identical reports and predictions.
    let one = inputs.workloads(&engine, 1);
    let (rep1, _) = functional_run(&inputs, &one);
    out.check(
        "serve.workers_invariant",
        format!("{:?}", rep1.serving) == format!("{:?}", plain.serving)
            && rep1.predictions == plain.predictions,
    );
    out.check(
        "serve.traced_equal",
        format!("{:?}", traced_rep.serving) == format!("{:?}", plain.serving)
            && traced_rep.predictions == plain.predictions,
    );
    out.check("serve.prediction_parity", out.failed == 0);

    let rep = &plain.serving;
    let exec_s = func_s - sched_s;
    let n = func_times.len() as u64;
    out.metric(
        "accel.serve.build_ms",
        median(&builds) * 1e3,
        "ms",
        builds.len() as u64,
    );
    out.metric(
        "accel.serve.sched_s",
        sched_s,
        "s",
        sched_times.len() as u64,
    );
    out.metric("accel.serve.exec_s", exec_s, "s", n);
    out.metric("accel.serve.exec_share", exec_s / func_s, "share", n);
    out.metric(
        "accel.serve.exec_ms_per_batch",
        exec_s * 1e3 / rep.batches as f64,
        "ms",
        rep.batches,
    );
    out.metric(
        "accel.serve.exec_mac_per_s",
        executed_macs / exec_s,
        "MAC/s",
        n,
    );
    push_serving_counts(&mut out, "serve", rep, false);
    out.metric(
        "accel.serve.serve.top1",
        plain.accuracy_under_load,
        "share",
        rep.completed,
    );
    for acc in &plain.tenant_accuracy {
        out.metric(
            format!("accel.serve.serve.{}.top1", acc.name),
            acc.accuracy_under_load,
            "share",
            acc.correct,
        );
    }
    out.metric(
        "trace.serve.overhead",
        1.0 - func_s / median(&traced_times),
        "share",
        n,
    );
    (out, tracer.spans())
}
