//! Order statistics for repeated measurements: medians, nearest-rank
//! percentiles, the percentile a sample count can support, and a
//! log-bucketed histogram for per-step host times (one counter per
//! bucket, never one record per event).

/// Median of `xs` (mean of the middle pair for even counts); `NaN` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (0–100] of an ascending slice; `NaN` for
/// an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail metric may be reported at, highest first.
pub const PERCENTILE_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

/// The highest ladder percentile, at most `wanted`, that leaves at least
/// [`MIN_TAIL_SAMPLES`] of `n` samples beyond it: a p99 of 200 samples
/// rests on two values, so it is reported as the p95 instead. Falls back
/// to the median when even that is unsupported.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        // Tolerance: 100 - 99.9 is not exactly 0.1 in binary.
        .find(|&p| n as f64 * (100.0 - p) >= 100.0 * MIN_TAIL_SAMPLES - 1e-6)
        .unwrap_or(50.0)
}

/// Sub-buckets per power of two in [`LogHistogram`] (relative bucket
/// width 1/32 ≈ 3 %).
const SUB_BUCKETS: u64 = 32;

/// A log-linear histogram of non-negative integer durations: exact below
/// [`SUB_BUCKETS`], then [`SUB_BUCKETS`] equal buckets per octave.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let octave = 63 - u64::from(v.leading_zeros()); // >= log2(SUB_BUCKETS)
        let shift = octave - SUB_BUCKETS.trailing_zeros() as u64;
        let sub = (v >> shift) - SUB_BUCKETS; // 0..SUB_BUCKETS
        ((shift + 1) * SUB_BUCKETS + sub) as usize
    }

    /// Lower bound of bucket `b` (the value [`LogHistogram::percentile`]
    /// reports).
    fn bucket_floor(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB_BUCKETS {
            return b;
        }
        let shift = b / SUB_BUCKETS - 1;
        (SUB_BUCKETS + b % SUB_BUCKETS) << shift
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let b = Self::bucket(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Percentile `p` (0–100], interpolated linearly by rank inside the
    /// bucket that holds it; `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * self.total as f64).clamp(1.0, self.total as f64);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let lo = Self::bucket_floor(b) as f64;
                let width = (Self::bucket_floor(b + 1) as f64 - lo).max(1.0);
                return lo + width * (rank - seen as f64) / c as f64;
            }
            seen += c;
        }
        Self::bucket_floor(self.counts.len()) as f64
    }
}
