//! The SCONNA execution engine: a [`VdpEngine`] that computes every inner
//! product exactly the way the hardware does — OSM stochastic multiplies,
//! sign-steered PCA accumulation per DKV chunk, and ADC conversion with
//! the calibrated 1.3 % MAPE error (Sections IV and V-C).
//!
//! The engine is **lock-free**: ADC noise is not drawn from a shared RNG
//! (PR 2 guarded one behind a `Mutex`, serializing every rail conversion)
//! but derived from a counter-keyed deterministic stream seeded by
//! `(engine seed, caller key, chunk index, rail)`. Every conversion's
//! noise is therefore a pure function of *what* is being converted and
//! *where* it sits in the computation — bit-identical across call orders,
//! thread counts and interleavings, with zero synchronization on the hot
//! path. OSM products come from the precomputed [`OsmProductLut`] (the
//! in-simulator mirror of the paper's offline DPU conversion LUT,
//! Section II-B), so the inner loop is a table load plus a sign-steered
//! add.
//!
//! The prepared tile ([`VdpEngine::vdp_batch_prepared`]) is
//! **column-stationary**, as in the hardware, where each weight is
//! converted once and held while input streams sweep past it. It is also
//! **sparse**: a block of patches is compacted once into one list per
//! column of its nonzero `(patch, clamped input)` entries, and each weight
//! element sweeps its `2^B`-entry LUT row down that list only, adding into
//! the positive or negative rail of every patch in the block. A zero input
//! is an all-zero stream in the OSM (Section IV-B) and adds no ones
//! (`row(w, k)[0] == 0`), so the integer rails are unchanged; after ReLU,
//! about half of a conv layer's inputs are zero.
//!
//! The keyed ADC conversion is **phased** and **table-settled**. The
//! rails of one `(kernel, chunk)` are converted in three passes. First,
//! the keyed stream and the Box-Muller `u1`, and a conservative test on a
//! 1,024-entry table that bounds the radius `r = sqrt(-2 ln u1)` per `u1`
//! bucket: it settles every pair whose two codes no draw can change (the
//! noise `|σ·g| ≤ σ·r` cannot move the rail off its rounding bin, or it
//! already saturates), with no `ln`. Second, for the undecided pairs, the
//! exact `r`, `u2`, and the same test on a 1,024-entry table of middle
//! `(sin, cos)` per `u2` bucket, which pins each Gaussian to within
//! `r·π/1024`. Third, for the pairs whose interval still straddles a
//! rounding edge, `sin_cos` and the unchanged [`AdcModel::quantize`]. The
//! settled code is the same f64 that `quantize` returns, so the
//! conversion stays bit-identical to [`AdcModel::convert_pair`] (the
//! argument is on `PhasedAdc`). The
//! raw [`VdpEngine::vdp_batch`] (the trait default over
//! [`VdpEngine::vdp_keyed`]) stays the parity oracle.

use rand::{Rng, RngCore};
use sconna_photonics::pca::AdcModel;
use sconna_sc::lut::OsmProductLut;
use sconna_sc::multiply::osm_product_debiased;
use sconna_sc::Precision;
use sconna_tensor::engine::{
    combine_keys, mix_key, PatchMatrix, PreparedWeights, VdpEngine, WeightMatrix,
};

/// Counter-based deterministic noise stream (SplitMix64): constructed
/// per rail conversion from the conversion's coordinates, never shared,
/// never locked.
struct KeyedAdcStream {
    state: u64,
}

impl KeyedAdcStream {
    /// Seeds the stream for one chunk's rail-pair conversion: `seed` is
    /// the engine seed, `key` the caller's accumulator key, and `lane`
    /// the chunk index within the vector. [`combine_keys`] keeps the
    /// mixing non-commutative, so `(seed = A, key = B)` and
    /// `(seed = B, key = A)` draw unrelated streams.
    #[inline]
    fn new(seed: u64, key: u64, lane: u64) -> Self {
        Self::at(combine_keys(seed, key), lane)
    }

    /// The stream of chunk `lane` from a precomputed
    /// `combine_keys(seed, key)`, shared by every chunk of one
    /// accumulator.
    #[inline]
    fn at(base: u64, lane: u64) -> Self {
        Self {
            state: combine_keys(base, lane),
        }
    }
}

impl RngCore for KeyedAdcStream {
    fn next_u64(&mut self) -> u64 {
        // SplitMix64: increment by the golden-ratio constant, finalize.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix_key(self.state)
    }
}

/// Patches per block of the column-stationary prepared tile: enough that
/// each `2^B`-entry LUT row fetched per weight element is swept down a
/// long column, few enough that the block's column lists (`128 · S` u32)
/// and its two rail arrays stay cache-resident.
const TILE_PATCHES: usize = 128;

// The sparse sweep stores a block's patch index in a `u8`.
const _: () = assert!(TILE_PATCHES <= 1 << u8::BITS);

/// Relative slack the phased ADC adds to its noise bounds: far above the
/// few ulps by which `quantize`'s f64 chain (and `x · (1/step)` against
/// `x / step`, or a table's `sin`/`cos` against the drawn angle's) can
/// stray from the exact value, far below any noise the ADC model draws.
const ADC_SKIP_SLACK: f64 = 1e-9;

/// Buckets of each phased-ADC bound table: `u1` and `u2` index their
/// table by `⌊u · 1024⌋`.
const ADC_TABLE_BUCKETS: usize = 1024;

/// Half-width of a `u2` bucket in angle: `|θ − θ_mid| ≤ π/1024` for
/// `θ = 2π·u2` and the bucket's middle angle `θ_mid`.
const ADC_ANGLE_HALF_WIDTH: f64 = std::f64::consts::PI / ADC_TABLE_BUCKETS as f64;

/// The phased ADC's two bound tables, built once per process.
struct AdcTables {
    /// Upper bound on `r = sqrt(-2 ln u1)` over each `u1` bucket: `r` is
    /// decreasing in `u1`, so the bound is `r` at the bucket's lower end
    /// (`f64::EPSILON` for the first bucket, where `u1` starts), plus a
    /// relative margin of `1e-12` for the ulp by which f64 `ln` may
    /// stray from monotone.
    radius: [f64; ADC_TABLE_BUCKETS],
    /// `(sin, cos)` of each `u2` bucket's middle angle.
    angle: [(f64, f64); ADC_TABLE_BUCKETS],
}

impl AdcTables {
    /// The process-wide tables, built on first use.
    fn get() -> &'static Self {
        static TABLES: std::sync::OnceLock<AdcTables> = std::sync::OnceLock::new();
        TABLES.get_or_init(|| {
            let buckets = ADC_TABLE_BUCKETS as f64;
            Self {
                radius: std::array::from_fn(|b| {
                    let u1 = (b as f64 / buckets).max(f64::EPSILON);
                    (-2.0 * u1.ln()).sqrt() * (1.0 + 1e-12)
                }),
                angle: std::array::from_fn(|b| {
                    (2.0 * std::f64::consts::PI * ((b as f64 + 0.5) / buckets)).sin_cos()
                }),
            }
        })
    }
}

/// The bucket of `u ∈ [0, 1)` in an [`AdcTables`] table. The mask is a
/// no-op for `u < 1` and spares the lookup its bounds check.
#[inline]
fn adc_bucket(u: f64) -> usize {
    (u * ADC_TABLE_BUCKETS as f64) as usize & (ADC_TABLE_BUCKETS - 1)
}

/// The code of a rail whose noisy value `y · f` (in steps) lies in
/// `[y·lo, y·hi]` for every draw, if that interval settles it: returns
/// `(code, settled)`. `k` is the bin of the interval's lower end
/// (non-negative when `lo > 0`, which the caller checks, so truncating
/// `+ 0.5` rounds it). The code is settled when the upper end stays below
/// that bin's upper edge, or when the lower end already reaches the top
/// code.
#[inline]
fn settle_code(y: f64, lo: f64, hi: f64, top: f64) -> (f64, bool) {
    let t = y * lo + 0.5;
    let k = t as i64 as f64;
    (k.min(top), (y * hi < k + 0.5) | (t >= top))
}

/// Scratch of the phased keyed ADC: converts the rail pairs of one
/// `(kernel, chunk)` of a tile block, each equal bit for bit to
/// [`AdcModel::convert_pair`] on its own [`KeyedAdcStream`], but calls
/// `ln` and `sqrt` only for pairs a table bound on the radius leaves
/// undecided, and `sin_cos` only for pairs whose code a table bound on
/// the angle still leaves undecided.
///
/// Both settle tests are exact. A pair's Gaussians are `r·cos θ` and
/// `r·sin θ`. For a rail `x ≥ 0`, every step from the Gaussian `g` to
/// the code (`σ·g`, `1 + ·`, `x · ·`, `/ step`, `round`, `clamp`) is
/// monotone. So if every admissible `g` puts the factor `1 + σ·g` in
/// `[lo, hi]` with `lo > 0`, the code lies between those of `y·lo` and
/// `y·hi` (`y = x · (1/step)`); when both fall in one rounding bin, or
/// the lower one at or above the top code, every draw gives the same
/// code `min(k, top)`, and the result is the same f64 `code · step` that
/// [`AdcModel::quantize`] returns. Each bound widens by
/// `ADC_SKIP_SLACK`, which covers the f64 rounding of the chain.
///
/// * **Radius table.** `|g| ≤ r ≤ r̂`, with `r̂` the [`AdcTables`]
///   bound of the pair's `u1` bucket, so `[lo, hi] = 1 ± (|σ|·r̂ +
///   slack)`. It needs neither `ln` nor `sqrt`; every zero rail settles
///   here.
/// * **Angle table.** For the rest, the exact `r` and `u2` are drawn.
///   With `θ_mid` the middle of `u2`'s bucket, `|cos θ − cos θ_mid| ≤
///   |θ − θ_mid| ≤ π/1024` (cos and sin are 1-Lipschitz), and likewise
///   for `sin`, so each rail's factor lies in `1 + σ·r·c_mid ± (|σ|·r·π/1024
///   + slack)`, `c_mid` being the table's `cos θ_mid` or `sin θ_mid`. Only
///   a pair whose interval straddles a rounding edge pays `sin_cos` and
///   [`AdcModel::quantize`].
struct PhasedAdc {
    /// The radius and angle bound tables.
    tables: &'static AdcTables,
    /// Keyed stream state after the `u1` draw, one per pair.
    states: Vec<u64>,
    /// `u1`, then the exact radius `sqrt(-2 ln u1)` of the pairs the
    /// radius table left undecided, one per pair.
    radii: Vec<f64>,
    /// `u2` of the pairs the radius table left undecided, one per pair.
    u2s: Vec<f64>,
    /// Indices of the undecided pairs: those the radius table left, then
    /// (compacted in place) those the angle table left.
    pending: Vec<usize>,
}

impl PhasedAdc {
    /// Scratch for up to `pairs` rail pairs per call.
    fn new(pairs: usize) -> Self {
        Self {
            tables: AdcTables::get(),
            states: vec![0; pairs],
            radii: vec![0.0; pairs],
            u2s: vec![0.0; pairs],
            pending: vec![0; pairs],
        }
    }

    /// Converts the rail pairs `(pos[p], neg[p])` through `adc` into
    /// `(pos_out[p], neg_out[p])`, with the noise of
    /// `KeyedAdcStream::at(bases[p], lane)`. Returns how many pairs
    /// needed the exact radius, and how many of those the full draw.
    fn convert(
        &mut self,
        adc: &AdcModel,
        bases: &[u64],
        lane: u64,
        (pos, neg): (&[f64], &[f64]),
        (pos_out, neg_out): (&mut [f64], &mut [f64]),
    ) -> (usize, usize) {
        let n = bases.len();
        let (states, radii) = (&mut self.states[..n], &mut self.radii[..n]);
        let step = adc.step_ones();
        let inv_step = 1.0 / step;
        let top = ((1u64 << adc.bits) - 1) as f64;
        let sigma = adc.relative_noise_sigma;
        let abs_sigma = sigma.abs();
        // Pass 1: the keyed stream and u1, then the radius-table test.
        // Every pair's code is written unconditionally; the undecided
        // pairs are compacted into `pending` and overwritten later.
        let mut undecided = 0;
        let rails = pos
            .iter()
            .zip(neg)
            .zip(pos_out.iter_mut())
            .zip(neg_out.iter_mut());
        let slots = states.iter_mut().zip(radii.iter_mut()).zip(bases);
        for (p, (((state, u1), &base), (((&xp, &xn), qp), qn))) in slots.zip(rails).enumerate() {
            let mut stream = KeyedAdcStream::at(base, lane);
            *u1 = stream.gen_range(f64::EPSILON..1.0);
            *state = stream.state;
            let spread = abs_sigma * self.tables.radius[adc_bucket(*u1)] + ADC_SKIP_SLACK;
            let (lo, hi) = (1.0 - spread, 1.0 + spread);
            let (cp, settled_p) = settle_code(xp * inv_step, lo, hi, top);
            let (cn, settled_n) = settle_code(xn * inv_step, lo, hi, top);
            (*qp, *qn) = (cp * step, cn * step);
            self.pending[undecided] = p;
            undecided += usize::from(!((lo > 0.0) & settled_p & settled_n));
        }
        // Pass 2: the exact radius, u2 and the angle-table test, for the
        // pairs the radius table left undecided.
        let mut full = 0;
        for i in 0..undecided {
            let p = self.pending[i];
            let r = (-2.0 * radii[p].ln()).sqrt();
            let mut stream = KeyedAdcStream { state: states[p] };
            let u2: f64 = stream.gen_range(0.0..1.0);
            (radii[p], self.u2s[p]) = (r, u2);
            let (sin_mid, cos_mid) = self.tables.angle[adc_bucket(u2)];
            let half = abs_sigma * r * ADC_ANGLE_HALF_WIDTH + ADC_SKIP_SLACK;
            // Each rail's factor `1 + σ·g` at the middle angle.
            let (mid_p, mid_n) = (1.0 + sigma * (r * cos_mid), 1.0 + sigma * (r * sin_mid));
            let (cp, settled_p) = settle_code(pos[p] * inv_step, mid_p - half, mid_p + half, top);
            let (cn, settled_n) = settle_code(neg[p] * inv_step, mid_n - half, mid_n + half, top);
            (pos_out[p], neg_out[p]) = (cp * step, cn * step);
            self.pending[full] = p;
            let positive = (mid_p - half > 0.0) & (mid_n - half > 0.0);
            full += usize::from(!(positive & settled_p & settled_n));
        }
        // Pass 3: the angle and the full conversion, for the pairs both
        // tables left undecided.
        for &p in &self.pending[..full] {
            let (sin_t, cos_t) = (2.0 * std::f64::consts::PI * self.u2s[p]).sin_cos();
            let r = radii[p];
            pos_out[p] = adc.quantize(pos[p] * (1.0 + sigma * (r * cos_t)));
            neg_out[p] = adc.quantize(neg[p] * (1.0 + sigma * (r * sin_t)));
        }
        (undecided, full)
    }
}

/// Sign-steered rail accumulation of one VDPE chunk: every element's
/// debiased OSM product (from `product(i, |w|, osm_index)`) lands on the
/// positive or negative rail by its weight's sign bit. Returns
/// `(positive, negative)` ones counts.
#[inline]
fn accumulate_rails(
    ichunk: &[u32],
    wchunk: &[i32],
    qmax: u32,
    product: impl Fn(u32, u32, usize) -> u32,
) -> (u64, u64) {
    let (mut pos, mut neg) = (0u64, 0u64);
    for (k, (&i, &w)) in ichunk.iter().zip(wchunk).enumerate() {
        let p = product(i.min(qmax), w.unsigned_abs().min(qmax), k) as u64;
        if w < 0 {
            neg += p;
        } else {
            pos += p;
        }
    }
    (pos, neg)
}

/// [`SconnaEngine`]'s prepared weight form — everything the stochastic
/// pipeline derives from a weight matrix per call, hoisted to model-load
/// time, and consumed by the column-stationary tile:
///
/// * the clamped weight magnitudes, i.e. the binary operands the offline
///   DKV conversion turns into weight-stream LUT addresses (`Wb`,
///   Section II-B) — each selects the [`OsmProductLut::row`] that sweeps
///   that element's patch column;
/// * the sign steering bits that route each OSM product onto the
///   positive or negative PCA rail (the filter MRR's sign bit);
/// * the range-matched per-chunk ADC models (the TIR amplifier gain is a
///   function of chunk occupancy only, so it is a property of the layer
///   geometry, not of any individual call).
///
/// The fingerprint fields pin the engine configuration the handle was
/// derived for; an engine with a different precision, VDPE size or ADC
/// ignores the payload and recomputes from the raw weights, as does an
/// engine without a product table (B above [`OsmProductLut::MAX_BITS`]).
#[derive(Debug)]
struct SconnaPrepared {
    /// Clamped magnitudes (LUT weight-stream addresses), row-major.
    mags: Vec<u16>,
    /// Sign steering bits, row-major; `true` lands on the negative rail.
    negs: Vec<bool>,
    /// Range-matched ADC per VDPE chunk of one kernel vector; empty when
    /// the engine runs without an ADC model.
    ranged: Vec<AdcModel>,
    /// Precision fingerprint: largest representable magnitude.
    qmax: u32,
    /// VDPE-size fingerprint (chunk decomposition).
    vdpe_size: usize,
    /// ADC fingerprint: `(bits, relative noise sigma)`, if any.
    adc: Option<(u8, f64)>,
}

/// SCONNA stochastic VDP engine.
pub struct SconnaEngine {
    /// Stream precision (B = 8 in the paper).
    pub precision: Precision,
    /// VDPE size N: vectors longer than this are chunked and the chunk
    /// results accumulated after conversion.
    pub vdpe_size: usize,
    /// ADC model applied to each rail of each chunk; `None` isolates pure
    /// SC rounding error.
    pub adc: Option<AdcModel>,
    seed: u64,
    /// Product tables; `None` above [`OsmProductLut::MAX_BITS`], where
    /// the closed form takes over.
    lut: Option<std::sync::Arc<OsmProductLut>>,
}

impl SconnaEngine {
    /// The paper's operating point: B = 8, N = 176, ADC with the 1.3 %
    /// MAPE calibration.
    pub fn paper_default(seed: u64) -> Self {
        Self::new(Precision::B8, 176, Some(AdcModel::sconna_default()), seed)
    }

    /// ADC-noise-free variant (pure stochastic rounding error).
    pub fn noiseless() -> Self {
        Self::new(Precision::B8, 176, None, 0)
    }

    /// Custom configuration.
    pub fn new(precision: Precision, vdpe_size: usize, adc: Option<AdcModel>, seed: u64) -> Self {
        assert!(vdpe_size > 0, "VDPE size must be positive");
        Self {
            precision,
            vdpe_size,
            adc,
            seed,
            lut: OsmProductLut::shared(precision),
        }
    }

    /// The ADC range-matched to a chunk's occupancy. The TIR's amplifier
    /// gain (Section V-C: a configurable voltage amplifier) is assumed
    /// range-matched to the pass's occupancy: a chunk driving only
    /// `chunk_len` of the N wavelengths is amplified so the ADC's 8 bits
    /// span `chunk_len · 2^B` ones instead of the full `N · 2^B` — the
    /// standard programmable-gain idiom, without which short (e.g.
    /// depthwise, S = 9) vectors would be quantized into oblivion.
    #[inline]
    fn ranged_adc(&self, adc: &AdcModel, chunk_len: usize) -> AdcModel {
        AdcModel {
            full_scale_ones: (chunk_len * self.precision.stream_len()) as u64,
            ..*adc
        }
    }

    /// Converts one chunk's rail pair through a range-matched ADC, noise
    /// keyed by `(engine seed, accumulator key, chunk)`. The rails share
    /// one Box-Muller draw ([`AdcModel::convert_pair`]) but receive its
    /// two independent Gaussian projections.
    #[inline]
    fn convert_rails(
        &self,
        ranged: &AdcModel,
        pos: u64,
        neg: u64,
        key: u64,
        chunk: usize,
    ) -> (f64, f64) {
        let mut stream = KeyedAdcStream::new(self.seed, key, chunk as u64);
        ranged.convert_pair(pos as f64, neg as f64, &mut stream)
    }

    /// One accumulator: chunked OSM products, sign-steered rail counts,
    /// keyed ADC conversion. Shared verbatim by the single-vector and
    /// batched paths, which is what makes them bit-identical.
    #[inline]
    fn vdp_core(&self, inputs: &[u32], weights: &[i32], key: u64) -> f64 {
        let scale = self.precision.stream_len() as f64;
        let qmax = self.precision.max_value();
        let mut total = 0.0f64;
        for (chunk, (ichunk, wchunk)) in inputs
            .chunks(self.vdpe_size)
            .zip(weights.chunks(self.vdpe_size))
            .enumerate()
        {
            // One VDPE pass: OSM multiplies (alternating LUT pairings to
            // cancel encoding bias) + sign-steered accumulation. One
            // accumulation loop, two monomorphized product sources — the
            // clamping and rail steering can never diverge between the
            // LUT and closed-form precisions.
            let (pos, neg) = match &self.lut {
                Some(lut) => {
                    accumulate_rails(ichunk, wchunk, qmax, |i, mag, k| lut.product(i, mag, k))
                }
                None => accumulate_rails(ichunk, wchunk, qmax, |i, mag, k| {
                    osm_product_debiased(i, mag, self.precision, k)
                }),
            };
            // Each rail's PCA digitizes independently (independent noise
            // projections of one keyed draw).
            let (pos, neg) = match &self.adc {
                Some(adc) => {
                    let ranged = self.ranged_adc(adc, ichunk.len());
                    self.convert_rails(&ranged, pos, neg, key, chunk)
                }
                None => (pos as f64, neg as f64),
            };
            // Counts are Σ i·w / 2^B; rescale to integer-product units.
            total += (pos - neg) * scale;
        }
        total
    }

    /// Whether a prepared payload was derived for this engine's exact
    /// configuration (precision clamp, chunk decomposition, ADC).
    fn accepts(&self, prep: &SconnaPrepared, cols: usize) -> bool {
        prep.qmax == self.precision.max_value()
            && prep.vdpe_size == self.vdpe_size
            && prep.adc == self.adc.as_ref().map(|a| (a.bits, a.relative_noise_sigma))
            && (self.adc.is_none() || prep.ranged.len() == cols.div_ceil(self.vdpe_size))
    }
}

impl VdpEngine for SconnaEngine {
    fn vdp_keyed(&self, inputs: &[u32], weights: &[i32], key: u64) -> f64 {
        assert_eq!(inputs.len(), weights.len(), "vector length mismatch");
        self.vdp_core(inputs, weights, key)
    }

    // vdp_batch: the trait default already runs the whole patch × kernel
    // tile through `vdp_keyed` with position-derived keys; since this
    // engine's per-pair work is the lock-free `vdp_core` either way, an
    // override would duplicate the default verbatim.

    /// Derives the weight-stationary form the hardware mapping assumes:
    /// the offline DKV conversion of every weight to its clamped LUT
    /// stream address, the per-element sign steering bit, and the
    /// range-matched ADC of every VDPE chunk — computed once per layer
    /// instead of on every tile call.
    fn prepare_weights(&self, weights: &WeightMatrix<'_>) -> PreparedWeights {
        let qmax = self.precision.max_value();
        let mags = weights
            .as_slice()
            .iter()
            .map(|w| w.unsigned_abs().min(qmax) as u16)
            .collect();
        let negs = weights.as_slice().iter().map(|&w| w < 0).collect();
        let ranged = match &self.adc {
            Some(adc) => (0..weights.cols())
                .step_by(self.vdpe_size.max(1))
                .map(|start| self.ranged_adc(adc, self.vdpe_size.min(weights.cols() - start)))
                .collect(),
            None => Vec::new(),
        };
        PreparedWeights::with_payload(
            self.name(),
            weights,
            SconnaPrepared {
                mags,
                negs,
                ranged,
                qmax,
                vdpe_size: self.vdpe_size,
                adc: self.adc.as_ref().map(|a| (a.bits, a.relative_noise_sigma)),
            },
        )
    }

    /// The column-stationary tile, sparse and with phased ADC draws.
    /// Patches are taken in blocks of `TILE_PATCHES` (128). Each block is
    /// compacted once into one list per column of its nonzero
    /// `(patch, clamped input)` entries, which every kernel and VDPE chunk
    /// reuses. Per kernel and chunk, every weight element's LUT row
    /// ([`OsmProductLut::row`]) sweeps its column's list into the block's
    /// positive or negative rail array. Skipping a zero input is exact:
    /// `row(w, k)[0] == 0` for every weight and OSM parity, so the integer
    /// rails do not change. The block's rail pairs then go through the
    /// phased keyed ADC (`PhasedAdc`), which settles codes from its
    /// radius and angle tables, draws `sin_cos` only for the pairs whose
    /// noise can still move a code, and returns the same f64 as
    /// [`AdcModel::convert_pair`] for every pair. Noise keys are
    /// `combine_keys(keys[p], k)` plus the chunk index, and each
    /// accumulator adds its chunks in ascending order — bit-identical to
    /// [`VdpEngine::vdp_batch`] on the same weights (property-tested in
    /// `tests/batch_parity.rs`).
    fn vdp_batch_prepared(
        &self,
        patches: &PatchMatrix,
        weights: &PreparedWeights,
        keys: &[u64],
    ) -> Vec<f64> {
        let cols = weights.cols();
        let (prep, lut) = match (weights.payload::<SconnaPrepared>(), &self.lut) {
            (Some(p), Some(lut)) if self.accepts(p, cols) => (p, lut),
            // Foreign handle, one derived for a differently configured
            // SCONNA engine, or no product table (B > MAX_BITS):
            // recompute from the raw weights.
            _ => return self.vdp_batch(patches, &weights.as_matrix(), keys),
        };
        assert_eq!(patches.cols(), cols, "patch/kernel vector length mismatch");
        assert_eq!(keys.len(), patches.rows(), "one noise key per patch");
        let (rows, kernels) = (patches.rows(), weights.rows());
        let scale = self.precision.stream_len() as f64;
        let qmax = self.precision.max_value();
        let mut out = vec![0.0f64; rows * kernels];
        let block = TILE_PATCHES.min(rows);
        // Column c's nonzero entries are `entries[c * n..ends[c]]`.
        let mut entries = vec![0u32; block * cols];
        let mut ends = vec![0usize; cols];
        // One rail slot per `u8` patch index, so the sweep needs no bounds
        // check on its rail updates.
        let (mut pos, mut neg) = ([0u64; 1 << u8::BITS], [0u64; 1 << u8::BITS]);
        let (mut pos_f, mut neg_f) = (vec![0.0f64; block], vec![0.0f64; block]);
        let (mut pos_q, mut neg_q) = (vec![0.0f64; block], vec![0.0f64; block]);
        let mut stream_bases = vec![0u64; block];
        let mut adc = PhasedAdc::new(block);
        for start in (0..rows).step_by(TILE_PATCHES) {
            let n = TILE_PATCHES.min(rows - start);
            // Every input is written at its column's cursor, which
            // advances only past a nonzero one: a zero is overwritten by
            // the column's next nonzero input, or left past its end.
            for (end, c) in ends.iter_mut().zip((0..).step_by(n)) {
                *end = c;
            }
            for p in 0..n {
                for (end, &x) in ends.iter_mut().zip(patches.row(start + p)) {
                    entries[*end] = x.min(qmax) << 8 | p as u32;
                    *end += usize::from(x != 0);
                }
            }
            for k in 0..kernels {
                let mags = &prep.mags[k * cols..(k + 1) * cols];
                let negs = &prep.negs[k * cols..(k + 1) * cols];
                for (base, &pkey) in stream_bases.iter_mut().zip(&keys[start..start + n]) {
                    *base = combine_keys(self.seed, combine_keys(pkey, k as u64));
                }
                for (chunk, c0) in (0..cols).step_by(self.vdpe_size).enumerate() {
                    pos[..n].fill(0);
                    neg[..n].fill(0);
                    for c in c0..(c0 + self.vdpe_size).min(cols) {
                        // One weight element: its LUT row (OSM parity by
                        // position in the chunk) sweeps the nonzero
                        // entries of its patch column.
                        let row = lut.row(mags[c] as u32, c - c0);
                        let rail = if negs[c] { &mut neg } else { &mut pos };
                        for &e in &entries[c * n..ends[c]] {
                            rail[usize::from(e as u8)] += u64::from(row[(e >> 8) as usize]);
                        }
                    }
                    for (f, &v) in pos_f.iter_mut().zip(&pos[..n]) {
                        *f = v as f64;
                    }
                    for (f, &v) in neg_f.iter_mut().zip(&neg[..n]) {
                        *f = v as f64;
                    }
                    let (pos, neg) = match &self.adc {
                        Some(_) => {
                            let q = (&mut pos_q[..n], &mut neg_q[..n]);
                            let rails = (&pos_f[..n], &neg_f[..n]);
                            let bases = &stream_bases[..n];
                            adc.convert(&prep.ranged[chunk], bases, chunk as u64, rails, q);
                            (&pos_q[..n], &neg_q[..n])
                        }
                        None => (&pos_f[..n], &neg_f[..n]),
                    };
                    let accs = out[start * kernels + k..].iter_mut().step_by(kernels);
                    for ((acc, &pv), &nv) in accs.zip(pos).zip(neg) {
                        *acc += (pv - nv) * scale;
                    }
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "sconna-stochastic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sconna_tensor::engine::{combine_keys, ExactEngine, PatchMatrix, WeightMatrix};

    fn test_vectors(len: usize) -> (Vec<u32>, Vec<i32>) {
        let inputs: Vec<u32> = (0..len).map(|k| ((k * 37) % 256) as u32).collect();
        let weights: Vec<i32> = (0..len).map(|k| ((k * 53) % 255) as i32 - 127).collect();
        (inputs, weights)
    }

    #[test]
    fn noiseless_engine_tracks_exact_engine() {
        let (inputs, weights) = test_vectors(500);
        let exact = ExactEngine.vdp(&inputs, &weights);
        let sc = SconnaEngine::noiseless().vdp(&inputs, &weights);
        // Per-element SC error ≤ B counts, scaled by 256.
        let bound = 500.0 * 8.0 * 256.0;
        assert!((sc - exact).abs() <= bound, "sc {sc} exact {exact}");
        // And it should be much better than the bound in practice.
        let rel = (sc - exact).abs() / exact.abs().max(1.0);
        assert!(rel < 0.25, "relative error {rel}");
    }

    #[test]
    fn chunking_handles_vectors_longer_than_n() {
        let (inputs, weights) = test_vectors(4608);
        let sc = SconnaEngine::noiseless().vdp(&inputs, &weights);
        let exact = ExactEngine.vdp(&inputs, &weights);
        let rel = (sc - exact).abs() / exact.abs().max(1.0);
        assert!(rel < 0.25, "relative error {rel} on 27-chunk vector");
    }

    #[test]
    fn zero_inputs_give_zero() {
        let e = SconnaEngine::paper_default(1);
        assert_eq!(e.vdp(&[0; 64], &[5; 64]), 0.0);
        assert_eq!(e.vdp(&[], &[]), 0.0);
    }

    #[test]
    fn noisy_engine_is_seed_deterministic() {
        let (inputs, weights) = test_vectors(300);
        let a = SconnaEngine::paper_default(42).vdp(&inputs, &weights);
        let b = SconnaEngine::paper_default(42).vdp(&inputs, &weights);
        assert_eq!(a, b);
        // A single VDP can quantize identically across seeds (the ADC
        // step is coarse); across a batch the seeds must diverge
        // somewhere.
        let e42 = SconnaEngine::paper_default(42);
        let e43 = SconnaEngine::paper_default(43);
        let diverged = (0..20).any(|k| {
            let (i, w) = test_vectors(100 + 7 * k);
            e42.vdp(&i, &w) != e43.vdp(&i, &w)
        });
        assert!(diverged, "different seeds never diverged across a batch");
    }

    #[test]
    fn distinct_keys_decorrelate_noise() {
        // The keyed scheme must give different noise draws for different
        // accumulator keys somewhere across a batch of vectors (a single
        // pair can collapse onto the same coarse ADC code).
        let e = SconnaEngine::paper_default(7);
        let diverged = (0..20).any(|k| {
            let (i, w) = test_vectors(150 + 11 * k);
            e.vdp_keyed(&i, &w, 1) != e.vdp_keyed(&i, &w, 2)
        });
        assert!(diverged, "keys 1 and 2 never diverged");
        // And the same key is always bit-identical.
        let (i, w) = test_vectors(352);
        assert_eq!(e.vdp_keyed(&i, &w, 99), e.vdp_keyed(&i, &w, 99));
    }

    #[test]
    fn lut_path_matches_closed_form_path() {
        // B12 exceeds the LUT bound, so the engine runs the closed form;
        // B8 runs the tables. On common ground (operands ≤ B8 max, same
        // chunking, no ADC) the noiseless results must agree exactly.
        let (inputs, weights) = test_vectors(400);
        let b8 = SconnaEngine::new(Precision::B8, 176, None, 0);
        assert!(b8.lut.is_some(), "B8 must use the product LUT");
        let closed = {
            let mut e = SconnaEngine::new(Precision::B8, 176, None, 0);
            e.lut = None;
            e
        };
        assert_eq!(
            b8.vdp(&inputs, &weights),
            closed.vdp(&inputs, &weights),
            "LUT and closed form diverged"
        );
    }

    #[test]
    fn adc_noise_increases_error_over_noiseless() {
        let (inputs, weights) = test_vectors(352);
        let exact = ExactEngine.vdp(&inputs, &weights);
        let trials = 50;
        let mut noiseless_err = 0.0;
        let mut noisy_err = 0.0;
        for seed in 0..trials {
            noiseless_err += (SconnaEngine::noiseless().vdp(&inputs, &weights) - exact).abs();
            noisy_err += (SconnaEngine::paper_default(seed).vdp(&inputs, &weights) - exact).abs();
        }
        assert!(
            noisy_err >= noiseless_err,
            "ADC noise must not reduce error: {noisy_err} vs {noiseless_err}"
        );
    }

    #[test]
    fn sign_symmetry() {
        let (inputs, weights) = test_vectors(200);
        let neg: Vec<i32> = weights.iter().map(|w| -w).collect();
        let e = SconnaEngine::noiseless();
        assert_eq!(e.vdp(&inputs, &weights), -e.vdp(&inputs, &neg));
    }

    #[test]
    fn prepared_tile_is_bit_identical_to_raw_tile() {
        // Prepared weights (clamped LUT addresses + signs + ranged ADC)
        // must reproduce the raw batched path bit for bit, ragged tail
        // chunk included (cols 180 = one full 176-chunk + a 4-wide tail).
        let cols = 180;
        let patches = PatchMatrix::from_vec(
            3,
            cols,
            (0..3 * cols).map(|i| ((i * 29) % 256) as u32).collect(),
        );
        let wdata: Vec<i32> = (0..4 * cols)
            .map(|i| ((i * 43) % 255) as i32 - 127)
            .collect();
        let wm = WeightMatrix::new(&wdata, 4, cols);
        let keys = [5u64, 77, 4242];
        for engine in [SconnaEngine::paper_default(11), SconnaEngine::noiseless()] {
            let prepared = engine.prepare_weights(&wm);
            let raw = engine.vdp_batch(&patches, &wm, &keys);
            let fast = engine.vdp_batch_prepared(&patches, &prepared, &keys);
            assert_eq!(
                raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn prepared_handle_from_mismatched_config_falls_back() {
        // A handle derived at B8 handed to a B6 engine must not poison
        // the result: the B6 engine recomputes from the raw weights.
        let cols = 24;
        let patches = PatchMatrix::from_vec(
            2,
            cols,
            (0..2 * cols).map(|i| ((i * 13) % 64) as u32).collect(),
        );
        let wdata: Vec<i32> = (0..2 * cols).map(|i| ((i * 7) % 127) as i32 - 63).collect();
        let wm = WeightMatrix::new(&wdata, 2, cols);
        let b8 = SconnaEngine::paper_default(3);
        let b6 = SconnaEngine::new(Precision::new(6), 176, Some(AdcModel::sconna_default()), 3);
        let foreign = b8.prepare_weights(&wm);
        assert_eq!(
            b6.vdp_batch_prepared(&patches, &foreign, &[1, 2]),
            b6.vdp_batch(&patches, &wm, &[1, 2]),
        );
        // And an exact-engine handle handed to SCONNA also falls back.
        let exact_handle = ExactEngine.prepare_weights(&wm);
        assert_eq!(
            b8.vdp_batch_prepared(&patches, &exact_handle, &[1, 2]),
            b8.vdp_batch(&patches, &wm, &[1, 2]),
        );
    }

    /// One rail of the phased-ADC property test, picked by a keyed hash:
    /// zero, a count within a few ulps or within 1e-6 of a rounding
    /// boundary, a saturating count, an integer count, or any count up
    /// to 1.2× full scale.
    fn adc_test_rail(adc: &AdcModel, h: u64) -> f64 {
        let step = adc.step_ones();
        let codes = 1u64 << adc.bits;
        let boundary = ((h >> 8) % (codes + 1)) as f64 + 0.5;
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        match h % 6 {
            0 => 0.0,
            1 => {
                let x = boundary * step;
                f64::from_bits((x.to_bits() as i64 + (h >> 40) as i64 % 9 - 4) as u64)
            }
            2 => boundary * step + (unit - 0.5) * 2e-6,
            3 => (codes as f64 + unit * codes as f64) * step,
            4 => ((h >> 20) % (adc.full_scale_ones + 1)) as f64,
            _ => unit * 1.2 * adc.full_scale_ones as f64,
        }
    }

    proptest::proptest! {
        /// The phased conversion ≡ `AdcModel::convert_pair` on the same
        /// keyed stream, bit for bit, for every rail kind, noise level
        /// (σ = 0, the paper's 0.0145, 0.2 and 1.5, where `1 - σ·r` goes
        /// negative) and ADC resolution B1–B12.
        #[test]
        fn prop_phased_adc_matches_convert_pair(
            bits in 1u8..=12,
            sigma_i in 0usize..4,
            full_scale in 1u64..=180_224,
            pairs in 1usize..=64,
            seed in 0u64..=u64::MAX,
            lane in 0u64..4,
        ) {
            let adc = AdcModel {
                bits,
                full_scale_ones: full_scale,
                relative_noise_sigma: [0.0, 0.0145, 0.2, 1.5][sigma_i],
            };
            let keys: Vec<u64> = (0..pairs as u64).map(|p| mix_key(seed ^ p)).collect();
            let pos: Vec<f64> = keys.iter().map(|&k| adc_test_rail(&adc, mix_key(k))).collect();
            let neg: Vec<f64> = keys.iter().map(|&k| adc_test_rail(&adc, mix_key(!k))).collect();
            let bases: Vec<u64> = keys.iter().map(|&k| combine_keys(seed, k)).collect();
            let (mut pos_q, mut neg_q) = (vec![0.0; pairs], vec![0.0; pairs]);
            PhasedAdc::new(pairs).convert(&adc, &bases, lane, (&pos, &neg), (&mut pos_q, &mut neg_q));
            for p in 0..pairs {
                let mut stream = KeyedAdcStream::new(seed, keys[p], lane);
                let (want_p, want_n) = adc.convert_pair(pos[p], neg[p], &mut stream);
                proptest::prop_assert_eq!(
                    (pos_q[p].to_bits(), neg_q[p].to_bits()),
                    (want_p.to_bits(), want_n.to_bits()),
                    "B{} σ {} fs {}: rails ({}, {})",
                    bits, adc.relative_noise_sigma, full_scale, pos[p], neg[p]
                );
            }
        }
    }

    #[test]
    fn phased_adc_skips_the_angle_where_noise_cannot_move_a_code() {
        // Zero rails settle on the radius table, and at the paper's noise
        // level so do small counts away from a boundary. A count on a
        // boundary needs the exact radius, then settles on the angle
        // table unless its angle interval straddles the edge: exactly
        // the pairs whose middle angle has `|cos θ_mid| < π/1024`.
        let adc = AdcModel {
            full_scale_ones: 27 * 256,
            ..AdcModel::sconna_default()
        };
        let pairs = 4096;
        let step = adc.step_ones();
        let bases: Vec<u64> = (0..pairs as u64).map(mix_key).collect();
        let mut phased = PhasedAdc::new(pairs);
        let (mut pos_q, mut neg_q) = (vec![0.0; pairs], vec![0.0; pairs]);
        let zeros = vec![0.0; pairs];
        let q = (&mut pos_q[..], &mut neg_q[..]);
        assert_eq!(phased.convert(&adc, &bases, 0, (&zeros, &zeros), q), (0, 0));
        let small = vec![3.0 * step; pairs];
        let q = (&mut pos_q[..], &mut neg_q[..]);
        let (exact_r, _) = phased.convert(&adc, &bases, 0, (&small, &zeros), q);
        assert!(exact_r < pairs / 8, "{exact_r} small rails needed ln");
        let edge = vec![3.5 * step; pairs];
        let q = (&mut pos_q[..], &mut neg_q[..]);
        let (exact_r, full) = phased.convert(&adc, &bases, 0, (&edge, &zeros), q);
        assert_eq!(exact_r, pairs, "boundary rails need the exact radius");
        let straddles: Vec<usize> = (0..pairs)
            .filter(|&p| {
                let mut stream = KeyedAdcStream::at(bases[p], 0);
                let _u1: f64 = stream.gen_range(f64::EPSILON..1.0);
                let u2: f64 = stream.gen_range(0.0..1.0);
                phased.tables.angle[adc_bucket(u2)].1.abs() < ADC_ANGLE_HALF_WIDTH
            })
            .collect();
        assert!(!straddles.is_empty() && straddles.len() < pairs / 64);
        assert_eq!(phased.pending[..full], straddles[..]);
    }

    #[test]
    fn batch_tile_matches_per_vector_calls() {
        // The tile path must honor the vdp_batch contract bit for bit,
        // including ADC noise keying and ragged tail chunks (vector
        // length 180 = one full 176-chunk + a 4-wide tail).
        let cols = 180;
        let patches = PatchMatrix::from_vec(
            3,
            cols,
            (0..3 * cols).map(|i| ((i * 31) % 256) as u32).collect(),
        );
        let wdata: Vec<i32> = (0..5 * cols)
            .map(|i| ((i * 41) % 255) as i32 - 127)
            .collect();
        let wm = WeightMatrix::new(&wdata, 5, cols);
        let keys = [3u64, 99, 12345];
        let e = SconnaEngine::paper_default(11);
        let got = e.vdp_batch(&patches, &wm, &keys);
        for p in 0..3 {
            for k in 0..5u64 {
                assert_eq!(
                    got[p * 5 + k as usize].to_bits(),
                    e.vdp_keyed(patches.row(p), wm.row(k as usize), combine_keys(keys[p], k))
                        .to_bits(),
                    "p={p} k={k}"
                );
            }
        }
    }
}
