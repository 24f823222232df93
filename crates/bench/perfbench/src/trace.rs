//! In-memory spans for the traced run.
//!
//! A [`Tracer`] records spans (name, start, end, parent) from any thread
//! into one vector and writes them out once, at the end of the run. The
//! layer walk opens one span per layer call; [`TracingEngine`] wraps a
//! [`VdpEngine`] and opens a child span around every batched tile, on
//! whichever worker thread runs it, so a layer's *self* time — im2col
//! gather, requantize, assembly — is its span minus the union of its
//! tile spans ([`self_time_ns`]).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sconna_tensor::engine::{PatchMatrix, PreparedWeights, VdpEngine, WeightMatrix};

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// What ran: a layer name, `tile`, ...
    pub name: String,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Multiply-accumulates done inside the span (tiles only).
    pub macs: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    /// The open span new tiles attach to (0 = none). The layer walk runs
    /// one layer at a time, so a single slot is enough.
    current: AtomicU32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
        }
    }

    /// Nanoseconds since the origin.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, parented to the current span,
    /// and makes it the current span for the duration (tiles started by
    /// `f` on any thread become its children).
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::AcqRel);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.current.store(parent, Ordering::Release);
        self.push(Span {
            id,
            parent: (parent != 0).then_some(parent),
            name: name.to_string(),
            start_ns,
            end_ns,
            macs: 0,
        });
        out
    }

    /// Runs `f` as a leaf span under the current span, recording `macs`.
    fn leaf<R>(&self, name: &str, macs: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.load(Ordering::Acquire);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent: (parent != 0).then_some(parent),
            name: name.to_string(),
            start_ns,
            end_ns,
            macs,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Drops every recorded span (the clock keeps running).
    pub fn clear(&self) {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

/// A span's self time: its duration minus the part covered by the union
/// of its children's intervals (clipped to the span). Children recorded
/// by parallel workers overlap one another; the union counts each
/// covered nanosecond once.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.duration_ns() - covered
}

/// Spans as a JSON array (one object per line).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"macs\":{}}}",
            s.id,
            s.parent
                .map_or_else(|| "null".to_string(), |p| p.to_string()),
            crate::report::json_string(&s.name),
            s.start_ns,
            s.end_ns,
            s.macs
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// A captured batched tile: the operands of one `vdp_batch_prepared`
/// call, replayable on any engine.
#[derive(Debug, Clone)]
pub struct Tile {
    /// Span id of the layer call that issued the tile.
    pub layer_span: u32,
    /// The patch (or feature) rows.
    pub patches: PatchMatrix,
    /// Raw signed weights, row-major `kernels × cols`.
    pub weights: Vec<i32>,
    /// Kernel count.
    pub kernels: usize,
    /// One noise key per patch row.
    pub keys: Vec<u64>,
}

impl Tile {
    /// Multiply-accumulates in the tile.
    pub fn macs(&self) -> u64 {
        (self.patches.rows() * self.kernels * self.patches.cols()) as u64
    }

    /// The weight matrix view.
    pub fn weight_matrix(&self) -> WeightMatrix<'_> {
        WeightMatrix::new(&self.weights, self.kernels, self.patches.cols())
    }
}

/// A [`VdpEngine`] that forwards to `inner` and records a `tile` span
/// around every batched call. Results, names and prepared handles are
/// the inner engine's, so everything it runs stays bit-identical.
pub struct TracingEngine<'a> {
    inner: &'a dyn VdpEngine,
    tracer: &'a Tracer,
    macs: AtomicU64,
    capture: Option<Mutex<Vec<Tile>>>,
}

impl<'a> TracingEngine<'a> {
    /// Wraps `inner`; with `capture`, also keeps a copy of every tile.
    pub fn new(inner: &'a dyn VdpEngine, tracer: &'a Tracer, capture: bool) -> Self {
        Self {
            inner,
            tracer,
            macs: AtomicU64::new(0),
            capture: capture.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Multiply-accumulates run through batched tiles so far.
    pub fn macs(&self) -> u64 {
        self.macs.load(Ordering::Relaxed)
    }

    /// The captured tiles (empty unless built with `capture`).
    pub fn take_tiles(&self) -> Vec<Tile> {
        self.capture.as_ref().map_or_else(Vec::new, |c| {
            std::mem::take(&mut *c.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
        })
    }

    fn record(&self, patches: &PatchMatrix, weights: WeightMatrix<'_>, keys: &[u64]) -> u64 {
        let macs = (patches.rows() * weights.rows() * weights.cols()) as u64;
        self.macs.fetch_add(macs, Ordering::Relaxed);
        if let Some(c) = &self.capture {
            let tile = Tile {
                layer_span: self.tracer.current.load(Ordering::Acquire),
                patches: patches.clone(),
                weights: weights.as_slice().to_vec(),
                kernels: weights.rows(),
                keys: keys.to_vec(),
            };
            c.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(tile);
        }
        macs
    }
}

impl VdpEngine for TracingEngine<'_> {
    fn vdp_keyed(&self, inputs: &[u32], weights: &[i32], key: u64) -> f64 {
        self.inner.vdp_keyed(inputs, weights, key)
    }

    fn vdp_batch(
        &self,
        patches: &PatchMatrix,
        weights: &WeightMatrix<'_>,
        keys: &[u64],
    ) -> Vec<f64> {
        let macs = self.record(patches, *weights, keys);
        self.tracer.leaf("tile", macs, || {
            self.inner.vdp_batch(patches, weights, keys)
        })
    }

    fn prepare_weights(&self, weights: &WeightMatrix<'_>) -> PreparedWeights {
        self.inner.prepare_weights(weights)
    }

    fn vdp_batch_prepared(
        &self,
        patches: &PatchMatrix,
        weights: &PreparedWeights,
        keys: &[u64],
    ) -> Vec<f64> {
        let macs = self.record(patches, weights.as_matrix(), keys);
        self.tracer.leaf("tile", macs, || {
            self.inner.vdp_batch_prepared(patches, weights, keys)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
