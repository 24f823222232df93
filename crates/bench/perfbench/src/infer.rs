//! `infer`: offline batched inference in a closed loop.
//!
//! Back-to-back [`PreparedNetwork::forward_batch`] calls of 12–20 images
//! on [`SconnaEngine::paper_default`], with `workers = nproc`. The
//! network is an 8-bit CNN on 3×16×16 inputs with random weights drawn
//! from the seed; its layers cover the paper's census of VDP sizes: a
//! depthwise layer (S = 9), layers with 27 ≤ S ≤ 176, and one with
//! S = 576 that needs four N = 176 VDPE passes and ADC conversions per
//! output. Every image's logits are checked bit for bit against the
//! unprepared [`QuantizedNetwork::forward_keyed`] oracle.
//!
//! [`PreparedNetwork::forward_batch`]: sconna_tensor::network::PreparedNetwork::forward_batch

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sconna_accel::engine::SconnaEngine;
use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::perf::analyze_layer_batched;
use sconna_sc::Precision;
use sconna_sim::parallel::parallel_map_with;
use sconna_tensor::arena::BatchArena;
use sconna_tensor::engine::{combine_keys, ExactEngine, PreparedWeights, VdpEngine};
use sconna_tensor::layers::{GlobalAvgPool, MaxPool2d, QConv2d, QFc};
use sconna_tensor::models::VdpWorkload;
use sconna_tensor::quant::{ActivationQuant, Requant};
use sconna_tensor::{QLayer, QuantizedNetwork, Tensor};

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{self_time_ns, Span, Tile, Tracer, TracingEngine};
use crate::{machine, salted, sample_setup, timed, workers, Budget};

/// Every layer call of the network, in execution order (`quant` is the
/// input quantizer).
pub const LAYERS: [&str; 10] = [
    "quant", "c1", "c2", "pool1", "dw", "pw", "c3", "pool2", "gap", "fc",
];

/// The layers that multiply.
pub const MULTIPLYING: [&str; 6] = ["c1", "c2", "dw", "pw", "c3", "fc"];

const INPUT_DIMS: [usize; 3] = [3, 16, 16];
const CLASSES: usize = 10;
/// Set-up samples taken after every batch.
const SETUP_REPS: usize = 2;
/// Distinct batches in the input pool; the closed loop cycles them.
const POOL_BATCHES: usize = 12;
const MIN_BATCH: usize = 12;
const MAX_BATCH: usize = 20;
/// Target RMS of every layer's output codes (of 255).
const TARGET_RMS: f64 = 60.0;
/// RMS of weight codes drawn uniformly from ±127.
const WEIGHT_RMS: f64 = 73.3;

/// One batch of the input pool.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Images `[3, 16, 16]` with values in `[0, 1]`.
    pub images: Vec<Tensor<f32>>,
    /// One noise key per image.
    pub keys: Vec<u64>,
}

impl Batch {
    fn refs(&self) -> Vec<&Tensor<f32>> {
        self.images.iter().collect()
    }
}

/// Everything `infer` generates from its seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The network under test.
    pub net: QuantizedNetwork,
    /// The input pool.
    pub batches: Vec<Batch>,
    /// Seed of the engine's ADC noise.
    pub engine_seed: u64,
}

fn random_conv(
    rng: &mut StdRng,
    name: &str,
    in_c: usize,
    out_c: usize,
    k: usize,
    groups: usize,
    rms_in: f64,
) -> QConv2d {
    let d_g = in_c / groups;
    let s = (d_g * k * k) as f64;
    let weights = Tensor::from_fn(&[out_c, d_g, k, k], |_| rng.gen_range(-127i32..=127));
    let bias = (0..out_c)
        .map(|_| rng.gen_range(-1.0..1.0) * rms_in * WEIGHT_RMS)
        .collect();
    // Zero-mean weights give accumulators of RMS √S·73.3·rms_in; ReLU
    // keeps half the variance, so this multiplier lands the output codes
    // at TARGET_RMS.
    let multiplier =
        (TARGET_RMS * std::f64::consts::SQRT_2 / (s.sqrt() * WEIGHT_RMS * rms_in)) as f32;
    QConv2d {
        name: name.into(),
        weights,
        bias,
        stride: 1,
        padding: k / 2,
        groups,
        requant: Requant {
            multiplier,
            bits: 8,
        },
    }
}

/// The benchmark network: c1 3→16 (S 27), c2 16→32 (S 144), pool1,
/// dw 32 depthwise (S 9), pw 32→64 (S 32), c3 64→64 (S 576), pool2,
/// gap, fc 64→10 (S 64).
pub fn network(seed: u64) -> QuantizedNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = MaxPool2d {
        kernel: 2,
        stride: 2,
        padding: 0,
    };
    // Codes of uniform [0, 1] pixels have RMS 255/√3.
    let c1 = random_conv(&mut rng, "c1", 3, 16, 3, 1, 147.0);
    let c2 = random_conv(&mut rng, "c2", 16, 32, 3, 1, TARGET_RMS);
    let dw = random_conv(&mut rng, "dw", 32, 32, 3, 32, TARGET_RMS);
    let pw = random_conv(&mut rng, "pw", 32, 64, 1, 1, TARGET_RMS);
    let c3 = random_conv(&mut rng, "c3", 64, 64, 3, 1, TARGET_RMS);
    let fc = QFc {
        name: "fc".into(),
        weights: Tensor::from_fn(&[CLASSES, 64], |_| rng.gen_range(-127i32..=127)),
        bias: (0..CLASSES).map(|_| rng.gen_range(-0.1f32..0.1)).collect(),
        dequant: (1.0 / (8.0 * WEIGHT_RMS * TARGET_RMS)) as f32,
    };
    QuantizedNetwork {
        input_quant: ActivationQuant::fit(1.0, 8),
        layers: vec![
            QLayer::Conv(c1),
            QLayer::Conv(c2),
            QLayer::MaxPool(pool),
            QLayer::Conv(dw),
            QLayer::Conv(pw),
            QLayer::Conv(c3),
            QLayer::MaxPool(pool),
            QLayer::GlobalAvgPool,
            QLayer::Fc(fc),
        ],
    }
}

/// The network plus a pool of [`POOL_BATCHES`] batches of 12–20 random
/// images, all drawn from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(salted(seed, 1));
    let mut next_key = salted(seed, 2);
    let batches = (0..POOL_BATCHES)
        .map(|_| {
            let n = rng.gen_range(MIN_BATCH..=MAX_BATCH);
            let images = (0..n)
                .map(|_| Tensor::from_fn(&INPUT_DIMS, |_| rng.gen_range(0.0f32..1.0)))
                .collect();
            let keys = (0..n)
                .map(|_| {
                    next_key = next_key.wrapping_add(1);
                    next_key
                })
                .collect();
            Batch { images, keys }
        })
        .collect();
    Inputs {
        net: network(salted(seed, 3)),
        batches,
        engine_seed: salted(seed, 4),
    }
}

/// Per multiplying layer: its name and VDP geometry for one image.
pub fn layer_workloads(net: &QuantizedNetwork) -> Vec<VdpWorkload> {
    let [mut c, mut h, mut w] = INPUT_DIMS;
    let mut out = Vec::new();
    for layer in &net.layers {
        match layer {
            QLayer::Conv(conv) => {
                let (ho, wo) = conv.output_hw(h, w);
                let l = conv.weights.dims()[0];
                out.push(VdpWorkload {
                    layer: conv.name.clone(),
                    vector_len: conv.vector_len(),
                    kernels: l,
                    ops_per_kernel: ho * wo,
                });
                (c, h, w) = (l, ho, wo);
            }
            QLayer::MaxPool(p) => {
                h = (h + 2 * p.padding - p.kernel) / p.stride + 1;
                w = (w + 2 * p.padding - p.kernel) / p.stride + 1;
            }
            QLayer::GlobalAvgPool => (h, w) = (1, 1),
            QLayer::Fc(fc) => out.push(VdpWorkload {
                layer: fc.name.clone(),
                vector_len: c * h * w,
                kernels: fc.weights.dims()[0],
                ops_per_kernel: 1,
            }),
        }
    }
    out
}

/// Oracle logits for every image of the pool: the unprepared
/// per-image path, parallelized over images.
pub fn oracle(inputs: &Inputs, engine: &dyn VdpEngine) -> Vec<Vec<Vec<f32>>> {
    let items: Vec<(usize, usize)> = inputs
        .batches
        .iter()
        .enumerate()
        .flat_map(|(b, batch)| (0..batch.images.len()).map(move |i| (b, i)))
        .collect();
    let flat = parallel_map_with(items, workers(), |(b, i): (usize, usize)| {
        let batch = &inputs.batches[b];
        inputs
            .net
            .forward_keyed(&batch.images[i], engine, batch.keys[i])
    });
    let mut it = flat.into_iter();
    inputs
        .batches
        .iter()
        .map(|b| it.by_ref().take(b.images.len()).collect())
        .collect()
}

/// Images whose logits differ from `expected` in any bit.
pub fn mismatches(got: &[Vec<f32>], expected: &[Vec<f32>]) -> u64 {
    if got.len() != expected.len() {
        return expected.len() as u64;
    }
    got.iter()
        .zip(expected)
        .filter(|(g, e)| {
            g.len() != e.len()
                || g.iter()
                    .zip(e.iter())
                    .any(|(a, b)| a.to_bits() != b.to_bits())
        })
        .count() as u64
}

/// The untraced `infer` run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(seed);
    let engine = SconnaEngine::paper_default(inputs.engine_seed);
    let expected = oracle(&inputs, &engine);
    let prepared = inputs.net.prepare(&engine);
    let workers = workers();

    let budget = Budget::new(seconds, 10);
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    while i == 0 || budget.more(rates.len()) {
        let b = &inputs.batches[i % POOL_BATCHES];
        let refs = b.refs();
        let (logits, dt) = timed(|| prepared.forward_batch(&refs, &b.keys, workers));
        out.attempted += refs.len() as u64;
        out.failed += mismatches(&logits, &expected[i % POOL_BATCHES]);
        // The first call warms the allocator and thread pool; it is
        // checked but not timed.
        if i > 0 {
            rates.push(refs.len() as f64 / dt);
        }
        sample_setup(&mut setups, SETUP_REPS, || {
            let engine = SconnaEngine::paper_default(inputs.engine_seed);
            let prepared = inputs.net.prepare(&engine);
            std::hint::black_box(&prepared);
        });
        i += 1;
    }
    out.check("infer.oracle_parity", out.failed == 0);
    out.metric("setup_s", median(&setups), "s", setups.len() as u64);
    out.metric("req_per_s", median(&rates), "1/s", rates.len() as u64);
    let per_op: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
    out.note_timing("infer.image_s", &per_op);
    out.metric("peak_rss_mb", machine::peak_rss_mb(), "MB", 1);
    out.note("infer.workers", workers);
    out
}

/// Prepared handles of one layer, aligned with `net.layers`.
enum Handles {
    Conv(Vec<PreparedWeights>),
    Fc(PreparedWeights),
    None,
}

fn prepare_layers(net: &QuantizedNetwork, engine: &dyn VdpEngine) -> Vec<Handles> {
    net.layers
        .iter()
        .map(|l| match l {
            QLayer::Conv(c) => Handles::Conv(c.prepare(engine)),
            QLayer::Fc(f) => Handles::Fc(f.prepare(engine)),
            QLayer::MaxPool(_) | QLayer::GlobalAvgPool => Handles::None,
        })
        .collect()
}

/// The traced layer walk: the public layer calls in the order
/// `PreparedNetwork::forward_batch_in` makes them, each inside a span
/// named after the layer, drawing scratch from one arena and recycling
/// every layer's inputs exactly as the network does.
fn traced_walk(
    net: &QuantizedNetwork,
    handles: &[Handles],
    engine: &dyn VdpEngine,
    tracer: &Tracer,
    batch: &Batch,
    workers: usize,
    arena: &BatchArena,
) -> Vec<Vec<f32>> {
    let mut acts: Vec<Tensor<u32>> = tracer.span("quant", || {
        batch
            .images
            .iter()
            .map(|im| net.input_quant.quantize_tensor(im))
            .collect()
    });
    let swap = |acts: &mut Vec<Tensor<u32>>, next: Vec<Tensor<u32>>| {
        for old in std::mem::replace(acts, next) {
            arena.recycle(old);
        }
    };
    let mut pools = ["pool1", "pool2"].into_iter();
    for (layer, h) in net.layers.iter().zip(handles) {
        match (layer, h) {
            (QLayer::Conv(conv), Handles::Conv(ps)) => {
                let next = tracer.span(&conv.name, || {
                    let keys: Vec<u64> = batch
                        .keys
                        .iter()
                        .map(|&k| combine_keys(k, conv.layer_key()))
                        .collect();
                    let refs: Vec<&Tensor<u32>> = acts.iter().collect();
                    conv.forward_batch_keyed_in(&refs, engine, Some(ps), &keys, workers, arena)
                });
                swap(&mut acts, next);
            }
            (QLayer::MaxPool(pool), _) => {
                let name = pools.next().unwrap_or("pool");
                let next = tracer.span(name, || acts.iter().map(|a| pool.forward(a)).collect());
                swap(&mut acts, next);
            }
            (QLayer::GlobalAvgPool, _) => {
                let next = tracer.span("gap", || {
                    acts.iter().map(|a| GlobalAvgPool.forward(a)).collect()
                });
                swap(&mut acts, next);
            }
            (QLayer::Fc(fc), Handles::Fc(p)) => {
                let logits = tracer.span(&fc.name, || {
                    let keys: Vec<u64> = batch
                        .keys
                        .iter()
                        .map(|&k| combine_keys(k, fc.layer_key()))
                        .collect();
                    let refs: Vec<&Tensor<u32>> = acts.iter().collect();
                    fc.forward_logits_batch_keyed_in(&refs, engine, Some(p), &keys, arena)
                });
                swap(&mut acts, Vec::new());
                return logits;
            }
            _ => break,
        }
    }
    Vec::new()
}

/// Per-layer aggregates over the traced batches.
#[derive(Debug, Default)]
struct LayerAgg {
    durations_ns: Vec<u64>,
    self_ns: u64,
    total_ns: u64,
    /// MAC/s of each call.
    rates: Vec<f64>,
}

/// Median wall time of one `vdp_batch_prepared` call on `tile`, seconds,
/// and the number of calls timed (at least five, and at least 50 ms).
fn tile_seconds(engine: &dyn VdpEngine, tile: &Tile) -> (f64, u64) {
    let prepared = engine.prepare_weights(&tile.weight_matrix());
    let budget = Budget::new(0.05, 5);
    let mut times = Vec::new();
    while budget.more(times.len()) {
        let (r, dt) = timed(|| engine.vdp_batch_prepared(&tile.patches, &prepared, &tile.keys));
        std::hint::black_box(r);
        times.push(dt);
    }
    (median(&times), times.len() as u64)
}

/// The traced `infer` section: per-layer host time, tile kernels, the
/// perf model beside them, the 1-vs-nproc worker check and the tracing
/// overhead.
pub fn traced(seed: u64, seconds: f64) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let inputs = inputs(seed);
    let engine = SconnaEngine::paper_default(inputs.engine_seed);
    let expected = oracle(&inputs, &engine);
    let workers = workers();
    let prepared = inputs.net.prepare(&engine);

    // Each batch runs untraced (the end-to-end path) and then through
    // the traced walk, so both see the same host conditions.
    let tracer = Tracer::new();
    let tengine = TracingEngine::new(&engine, &tracer, false);
    let handles = prepare_layers(&inputs.net, &tengine);
    let budget = Budget::new(seconds * 0.8, 3);
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut cpu_s, mut plain_s) = (0.0f64, 0.0f64);
    let mut n_traced = 0usize;
    while budget.more(n_traced) {
        let k = n_traced % POOL_BATCHES;
        let b = &inputs.batches[k];
        let n = b.images.len() as f64;
        let cpu0 = machine::cpu_seconds();
        let (logits, dt) = timed(|| prepared.forward_batch(&b.refs(), &b.keys, workers));
        cpu_s += machine::cpu_seconds() - cpu0;
        plain_s += dt;
        plain_rates.push(n / dt);
        out.failed += mismatches(&logits, &expected[k]);
        let (logits, dt) = timed(|| {
            tracer.span("batch", || {
                // A call-local arena, as `forward_batch` uses.
                let arena = BatchArena::new();
                traced_walk(&inputs.net, &handles, &tengine, &tracer, b, workers, &arena)
            })
        });
        traced_rates.push(n / dt);
        out.failed += mismatches(&logits, &expected[k]);
        out.attempted += 2 * b.images.len() as u64;
        n_traced += 1;
    }
    let cpu_per_wall = cpu_s / plain_s;
    out.check("infer.traced_walk_parity", out.failed == 0);
    let spans = tracer.spans();
    let macs_per_image: Vec<(String, u64)> = layer_workloads(&inputs.net)
        .iter()
        .map(|w| (w.layer.clone(), w.macs() as u64))
        .collect();
    let aggs = aggregate_layers(&spans, &inputs, &macs_per_image);
    let walk_ns: u64 = aggs.iter().map(|(_, a)| a.total_ns).sum();
    for (name, a) in &aggs {
        let n = a.durations_ns.len() as u64;
        let dur_ms: Vec<f64> = a.durations_ns.iter().map(|&d| d as f64 / 1e6).collect();
        out.metric(
            format!("tensor.layer.{name}.host_ms"),
            median(&dur_ms),
            "ms",
            n,
        );
        out.metric(
            format!("tensor.layer.{name}.share"),
            a.total_ns as f64 / walk_ns as f64,
            "share",
            n,
        );
        if MULTIPLYING.contains(&name.as_str()) {
            out.metric(
                format!("tensor.layer.{name}.mac_per_s"),
                median(&a.rates),
                "MAC/s",
                n,
            );
            out.metric(
                format!("tensor.layer.{name}.gather_requant_share"),
                a.self_ns as f64 / a.total_ns as f64,
                "share",
                n,
            );
        }
    }

    // Tile kernels: each multiplying layer's largest tile, replayed on
    // the paper engine, the same engine without an ADC, and the exact
    // engine.
    let ctracer = Tracer::new();
    let capture = TracingEngine::new(&engine, &ctracer, true);
    let chandles = prepare_layers(&inputs.net, &capture);
    traced_walk(
        &inputs.net,
        &chandles,
        &capture,
        &ctracer,
        &inputs.batches[0],
        workers,
        &BatchArena::new(),
    );
    let cspans = ctracer.spans();
    let tiles = capture.take_tiles();
    let no_adc = SconnaEngine::new(Precision::B8, 176, None, inputs.engine_seed);
    for name in MULTIPLYING {
        let Some(tile) = tiles
            .iter()
            .filter(|t| {
                cspans
                    .iter()
                    .any(|s| s.id == t.layer_span && s.name == name)
            })
            .max_by_key(|t| t.macs())
        else {
            out.check(format!("infer.tile_captured.{name}"), false);
            continue;
        };
        let macs = tile.macs() as f64;
        let (t_sc, n_sc) = tile_seconds(&engine, tile);
        let (t_noadc, n_noadc) = tile_seconds(&no_adc, tile);
        let (t_exact, n_exact) = tile_seconds(&ExactEngine, tile);
        out.metric(
            format!("accel.engine.{name}.tile_mac_per_s"),
            macs / t_sc,
            "MAC/s",
            n_sc,
        );
        out.metric(
            format!("accel.engine.{name}.adc_share"),
            1.0 - t_noadc / t_sc,
            "share",
            n_sc.min(n_noadc),
        );
        out.metric(
            format!("tensor.engine.{name}.exact_tile_mac_per_s"),
            macs / t_exact,
            "MAC/s",
            n_exact,
        );
    }

    // The perf model beside the host numbers: each layer's simulated
    // SCONNA time for the same batches the walk timed (median).
    let cfg = AcceleratorConfig::sconna();
    for w in layer_workloads(&inputs.net) {
        let perf: Vec<_> = (0..n_traced)
            .map(|k| analyze_layer_batched(&cfg, &w, inputs.batches[k % POOL_BATCHES].images.len()))
            .collect();
        let us: Vec<f64> = perf.iter().map(|lp| lp.total.as_secs_f64() * 1e6).collect();
        let passes: Vec<f64> = perf.iter().map(|lp| lp.passes as f64).collect();
        let n = n_traced as u64;
        out.metric(
            format!("accel.perf.{}.sim_us", w.layer),
            median(&us),
            "us",
            n,
        );
        out.metric(
            format!("accel.perf.{}.passes", w.layer),
            median(&passes),
            "count",
            n,
        );
    }
    let fig9 = sconna_accel::report::run_fig9(&sconna_tensor::models::all_models());
    let ratio = fig9.gmean_ratio(0, 1, |p| p.fps);
    out.metric("accel.perf.fig9_fps_ratio", ratio, "x", 4);
    out.metric(
        "accel.perf.fig9_fps_ratio_err",
        ((ratio - PAPER_FIG9_FPS_RATIO) / PAPER_FIG9_FPS_RATIO).abs(),
        "share",
        4,
    );
    out.metric(
        "sim.parallel.cpu_per_wall",
        cpu_per_wall,
        "ratio",
        n_traced as u64,
    );

    // Worker-count invariance: 1 worker and nproc give the same logits.
    let b = &inputs.batches[0];
    let one = prepared.forward_batch(&b.refs(), &b.keys, 1);
    let many = prepared.forward_batch(&b.refs(), &b.keys, workers);
    out.check("infer.workers_invariant", mismatches(&one, &many) == 0);

    out.metric(
        "trace.infer.overhead",
        1.0 - median(&traced_rates) / median(&plain_rates),
        "share",
        n_traced as u64,
    );
    out.note("infer.traced_batches", n_traced);
    (out, spans)
}

/// The paper's SCONNA/MAM gmean FPS factor (Fig. 9a).
pub const PAPER_FIG9_FPS_RATIO: f64 = 66.5;

/// Folds the traced spans into per-layer aggregates, in [`LAYERS`]
/// order. Each layer span's self time excludes its tile children.
fn aggregate_layers(
    spans: &[Span],
    inputs: &Inputs,
    macs_per_image: &[(String, u64)],
) -> Vec<(String, LayerAgg)> {
    let mut children: std::collections::BTreeMap<u32, Vec<&Span>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let batch_images: std::collections::BTreeMap<u32, usize> = spans
        .iter()
        .filter(|s| s.name == "batch")
        .enumerate()
        .map(|(i, s)| (s.id, inputs.batches[i % POOL_BATCHES].images.len()))
        .collect();
    LAYERS
        .iter()
        .map(|&name| {
            let mut a = LayerAgg::default();
            for s in spans.iter().filter(|s| s.name == name) {
                let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                let d = s.duration_ns().max(1);
                a.durations_ns.push(d);
                a.total_ns += d;
                a.self_ns += self_time_ns(s, kids);
                let images = s
                    .parent
                    .and_then(|p| batch_images.get(&p))
                    .copied()
                    .unwrap_or(0);
                if let Some((_, m)) = macs_per_image.iter().find(|(l, _)| l == name) {
                    a.rates.push((m * images as u64) as f64 / (d as f64 * 1e-9));
                }
            }
            (name.to_string(), a)
        })
        .collect()
}
