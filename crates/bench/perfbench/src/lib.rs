//! The SCONNA reproduction's repository benchmark.
//!
//! Three workloads drive the library only through its public entry
//! points and time it from outside:
//!
//! * [`infer`] — offline batched inference on the SCONNA engine (tile
//!   kernel, im2col, ADC and requantize);
//! * [`serve`] — functional two-tenant serving under open-loop Poisson
//!   load (short vectors, partial batches, model swaps);
//! * [`fleet`] — analytic serving at datacenter scale with failures and
//!   supervision (event core, scheduler, report building).
//!
//! An untraced run reports the end-to-end metrics of one workload; a
//! traced run ([`suite`]) reports the per-layer metrics of all three.
//! Every correctness check is evaluated before any result is written.
//! See `README.md` for the metric list.

pub mod fleet;
pub mod infer;
pub mod machine;
pub mod report;
pub mod serve;
pub mod stats;
pub mod suite;
pub mod trace;

use std::time::{Duration, Instant};

use sconna_accel::serve::ServingConfig;
use sconna_tensor::models::CnnModel;

/// Workload names, in the order the traced suite runs them.
pub const WORKLOADS: [&str; 3] = ["fleet", "serve", "infer"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    /// `infer`, `serve` or `fleet`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: u64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
}

impl Opts {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        let seconds: u64 = seconds.unwrap_or(10);
        if seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Runs `f` once and returns its result with the wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A measurement budget: a deadline plus a floor on repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    deadline: Instant,
    min_reps: usize,
}

impl Budget {
    /// `seconds` of wall time from now, and at least `min_reps`
    /// repetitions.
    pub fn new(seconds: f64, min_reps: usize) -> Self {
        Self {
            deadline: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
            min_reps,
        }
    }

    /// Whether a loop that has done `reps` repetitions should go on.
    pub fn more(&self, reps: usize) -> bool {
        reps < self.min_reps || Instant::now() < self.deadline
    }
}

/// Times `reps` calls of a set-up step, appending each wall time
/// (seconds) to `times`. The workloads call this between timed
/// repetitions, so set-up samples span the run like the throughput
/// samples do.
pub fn sample_setup<R>(times: &mut Vec<f64>, reps: usize, mut f: impl FnMut() -> R) {
    for _ in 0..reps {
        let (r, dt) = timed(&mut f);
        drop(std::hint::black_box(r));
        times.push(dt);
    }
}

/// Worker threads every parallel path uses: the machine's logical CPUs.
pub fn workers() -> usize {
    machine::nproc()
}

/// Open-loop Poisson rate that loads a weighted-fair fleet serving the
/// `models` (one equal-weight tenant each) to `load` of its capacity:
/// `load` × the harmonic mean of the per-model capacities — the rate a
/// weighted-fair server sustains across an even mix.
pub fn mixed_rate(base: &ServingConfig, models: &[&CnnModel], load: f64) -> f64 {
    let inv: f64 = models
        .iter()
        .map(|m| 1.0 / base.estimated_capacity_fps(m))
        .sum();
    load * models.len() as f64 / inv
}

/// Mixes the workload seed with a per-purpose salt, so independent
/// inputs drawn from one seed do not share a stream.
pub fn salted(seed: u64, salt: u64) -> u64 {
    sconna_tensor::engine::combine_keys(seed, salt)
}
