//! Binned histograms and their percentage-frequency form (§IV-A).
//!
//! [`Histogram::frequencies`] caches the normalised vector behind a
//! [`OnceLock`], so the matching hot path borrows it instead of
//! re-normalising: recording an observation invalidates the cache, and the
//! first `frequencies()` call after a mutation rebuilds it once.
//! [`Histogram::frequencies_f32`] caches the same distribution narrowed to
//! `f32` — the storage type of the matching store's packed `f32` rows
//! ([`matching`](crate::matching)) — so candidate signatures are converted
//! once per mutation, not once per match.
//! [`Histogram::frequencies_u8`] caches the quantized form of the same
//! distribution ([`QuantizedRow`]) for the `u8` storage tier
//! ([`RowPrecision::U8`](crate::matching::RowPrecision)) — codes in
//! `0..=`[`QUANT_MAX`] with a per-row scale,
//! quantized once per mutation so both the reference rows and the
//! candidate side of the integer sweep borrow it.

use core::fmt;
use std::sync::OnceLock;

/// How observed values are mapped to histogram bins.
///
/// The paper fixes neither bin widths nor ranges; these are exposed as
/// configuration with defaults chosen to match the figures (e.g. Fig. 2
/// bins inter-arrival times over 0–2500 µs).
#[derive(Debug, Clone, PartialEq)]
pub enum BinSpec {
    /// `count` equal-width bins covering `[min, min + width·count)`, plus
    /// one trailing overflow bin. Values below `min` clamp into bin 0.
    Uniform {
        /// Lower edge of the first bin.
        min: f64,
        /// Width of each bin (must be positive).
        width: f64,
        /// Number of regular bins (the overflow bin is extra).
        count: usize,
    },
    /// One bin per listed centre value; observations snap to the nearest
    /// centre. Used for the discrete transmission-rate parameter.
    Categorical {
        /// Bin centres in ascending order.
        centers: Vec<f64>,
    },
}

impl BinSpec {
    /// A uniform spec covering `[0, max)` with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `width <= 0` or `max <= 0`.
    pub fn uniform_to(max: f64, width: f64) -> BinSpec {
        assert!(width > 0.0, "bin width must be positive");
        assert!(max > 0.0, "histogram range must be positive");
        BinSpec::Uniform { min: 0.0, width, count: (max / width).ceil() as usize }
    }

    /// Total number of bins, including the overflow bin for uniform specs.
    pub fn bin_count(&self) -> usize {
        match self {
            BinSpec::Uniform { count, .. } => count + 1,
            BinSpec::Categorical { centers } => centers.len(),
        }
    }

    /// The bin index for a value.
    pub fn bin_index(&self, value: f64) -> usize {
        match self {
            BinSpec::Uniform { min, width, count } => {
                if !value.is_finite() || value <= *min {
                    0
                } else {
                    let idx = ((value - min) / width) as usize;
                    idx.min(*count) // values past the range land in overflow
                }
            }
            BinSpec::Categorical { centers } => {
                debug_assert!(!centers.is_empty());
                let mut best = 0;
                let mut best_dist = f64::INFINITY;
                for (i, c) in centers.iter().enumerate() {
                    let d = (value - c).abs();
                    if d < best_dist {
                        best_dist = d;
                        best = i;
                    }
                }
                best
            }
        }
    }

    /// The representative value (bin centre) for a bin index, handy for
    /// plotting. The overflow bin reports the upper range edge.
    pub fn bin_center(&self, index: usize) -> f64 {
        match self {
            BinSpec::Uniform { min, width, count } => {
                if index >= *count {
                    min + width * (*count as f64)
                } else {
                    min + width * (index as f64 + 0.5)
                }
            }
            BinSpec::Categorical { centers } => {
                centers.get(index).copied().unwrap_or(f64::NAN)
            }
        }
    }
}

impl fmt::Display for BinSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinSpec::Uniform { min, width, count } => {
                write!(f, "uniform[{min}..{:.0} step {width}]", min + width * *count as f64)
            }
            BinSpec::Categorical { centers } => write!(f, "categorical[{} bins]", centers.len()),
        }
    }
}

/// An observation-count histogram convertible to the paper's
/// percentage-frequency distribution.
///
/// # Example
///
/// ```
/// use wifiprint_core::{BinSpec, Histogram};
///
/// let mut h = Histogram::new(BinSpec::uniform_to(100.0, 10.0));
/// h.add(5.0);
/// h.add(15.0);
/// h.add(15.5);
/// h.add(1e9); // overflow bin
/// assert_eq!(h.total(), 4);
/// let freq = h.frequencies();
/// assert!((freq[0] - 0.25).abs() < 1e-12);
/// assert!((freq[1] - 0.50).abs() < 1e-12);
/// assert!((freq.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    spec: BinSpec,
    counts: Vec<u64>,
    total: u64,
    /// Lazily computed normalised frequencies; reset on every mutation.
    freqs: OnceLock<Vec<f64>>,
    /// The same frequencies narrowed to `f32` for the packed matching rows;
    /// reset on every mutation.
    freqs32: OnceLock<Vec<f32>>,
    /// The same frequencies quantized to `u8` codes for the integer
    /// matching tier; reset on every mutation.
    freqs8: OnceLock<QuantizedRow>,
}

/// Largest quantized code the `u8` storage tier emits: rows are scaled so
/// their maximum frequency maps to `QUANT_MAX`.
///
/// 127 (7 bits) rather than 255 keeps the `u8` sweep's column pass exact
/// in its narrow accumulator: it sums four code products in `u16` before
/// widening, and `4 · 127² = 64 516 < 2¹⁶` (const-asserted next to that
/// pass in [`matching`](crate::matching)).
pub const QUANT_MAX: u8 = 127;

/// A frequency row quantized for the `u8` storage tier: codes in
/// `0..=`[`QUANT_MAX`] with the per-row scale
/// mapping codes back to frequencies.
///
/// The **zero-point is fixed at 0**: frequencies are non-negative, so an
/// affine zero-point would spend codes on values that cannot occur and
/// break the "zero frequency ⇒ zero code" sparsity the envelope bounds
/// lean on. `value[i] ≈ code[i] · scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRow {
    values: Vec<u8>,
    scale: f32,
    inv_norm: f32,
}

impl QuantizedRow {
    /// Quantizes a frequency row: the row maximum maps to
    /// [`QUANT_MAX`], everything else rounds to
    /// the nearest code. All-zero rows quantize to all-zero codes with
    /// scale 0.
    pub fn from_frequencies(freqs: &[f64]) -> QuantizedRow {
        let max = freqs.iter().copied().fold(0.0f64, f64::max);
        if max <= 0.0 {
            return QuantizedRow { values: vec![0; freqs.len()], scale: 0.0, inv_norm: 0.0 };
        }
        let quant_max = f64::from(QUANT_MAX);
        let step = max / quant_max;
        let values: Vec<u8> = freqs
            .iter()
            .map(|&f| ((f / step).round() as u8).min(QUANT_MAX))
            .collect();
        // The reciprocal norm of the *codes*: the cosine path multiplies
        // the exact integer dot by both rows' code norms (the scales
        // cancel — cosine is scale-invariant), so this is the only norm
        // the sweep needs.
        let norm_sq: f64 = values.iter().map(|&q| f64::from(q) * f64::from(q)).sum();
        let inv_norm = if norm_sq > 0.0 { (1.0 / norm_sq.sqrt()) as f32 } else { 0.0 };
        QuantizedRow { values, scale: step as f32, inv_norm }
    }

    /// The quantized codes, one per bin.
    pub fn values(&self) -> &[u8] {
        &self.values
    }

    /// Frequency per code step: `frequency[i] ≈ values[i] · scale`. The
    /// cosine sweep never reads it: cosine is scale-invariant.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// `1 / ‖values‖₂` over the integer codes (0.0 for an all-zero row).
    pub fn inv_norm(&self) -> f32 {
        self.inv_norm
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        // The cache is derived state and never participates in equality.
        self.spec == other.spec && self.counts == other.counts && self.total == other.total
    }
}

impl Histogram {
    /// An empty histogram over the given bins.
    pub fn new(spec: BinSpec) -> Self {
        let counts = vec![0; spec.bin_count()];
        Histogram {
            spec,
            counts,
            total: 0,
            freqs: OnceLock::new(),
            freqs32: OnceLock::new(),
            freqs8: OnceLock::new(),
        }
    }

    /// Records one observation.
    pub fn add(&mut self, value: f64) {
        let idx = self.spec.bin_index(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.invalidate();
    }

    /// Records an observation `n` times.
    pub fn add_n(&mut self, value: f64, n: u64) {
        let idx = self.spec.bin_index(value);
        self.counts[idx] += n;
        self.total += n;
        self.invalidate();
    }

    /// Merges another histogram with the same spec into this one.
    ///
    /// # Panics
    ///
    /// Panics if the specs differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.spec, other.spec, "merging histograms with different bin specs");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.invalidate();
    }

    /// Drops both cached frequency forms after a mutation.
    fn invalidate(&mut self) {
        self.freqs = OnceLock::new();
        self.freqs32 = OnceLock::new();
        self.freqs8 = OnceLock::new();
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bin specification.
    pub fn spec(&self) -> &BinSpec {
        &self.spec
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The percentage-frequency distribution `Pⱼ = oⱼ / |P|` (§IV-A).
    ///
    /// All zeros for an empty histogram. The vector is computed once and
    /// cached until the next mutation, so the matching hot path borrows
    /// instead of allocating.
    pub fn frequencies(&self) -> &[f64] {
        self.freqs.get_or_init(|| self.frequency_vec())
    }

    /// The percentage-frequency distribution narrowed to `f32` — the row
    /// format of the packed `f32` matching tier. Computed from
    /// [`Histogram::frequencies`] once and cached until the next
    /// mutation, so the matching hot path borrows both forms.
    pub fn frequencies_f32(&self) -> &[f32] {
        self.freqs32.get_or_init(|| self.frequencies().iter().map(|&f| f as f32).collect())
    }

    /// The percentage-frequency distribution quantized for the `u8`
    /// storage tier ([`QuantizedRow`]): codes, per-row scale and the
    /// reciprocal code norm. Computed once and cached until the next
    /// mutation, so the integer sweep borrows the candidate's codes.
    pub fn frequencies_u8(&self) -> &QuantizedRow {
        self.freqs8.get_or_init(|| QuantizedRow::from_frequencies(self.frequencies()))
    }

    /// The percentage-frequency distribution as a freshly allocated
    /// vector, bypassing the cache. Prefer [`Histogram::frequencies`];
    /// this exists for owned copies and as the per-call-allocation
    /// baseline the benchmarks compare the cached path against.
    pub fn frequency_vec(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let n = self.total as f64;
        self.counts.iter().map(|&c| c as f64 / n).collect()
    }

    /// Iterator over `(bin_center, frequency)` pairs, for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.spec.bin_center(i), c as f64 / n))
    }

    /// Restores a histogram from raw counts (used by the DB codec).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != spec.bin_count()`.
    pub fn from_counts(spec: BinSpec, counts: Vec<u64>) -> Self {
        assert_eq!(counts.len(), spec.bin_count(), "count vector does not match spec");
        let total = counts.iter().sum();
        Histogram {
            spec,
            counts,
            total,
            freqs: OnceLock::new(),
            freqs32: OnceLock::new(),
            freqs8: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_binning_edges() {
        let spec = BinSpec::uniform_to(100.0, 10.0);
        assert_eq!(spec.bin_count(), 11); // 10 + overflow
        assert_eq!(spec.bin_index(-5.0), 0);
        assert_eq!(spec.bin_index(0.0), 0);
        assert_eq!(spec.bin_index(9.999), 0);
        assert_eq!(spec.bin_index(10.0), 1);
        assert_eq!(spec.bin_index(99.9), 9);
        assert_eq!(spec.bin_index(100.0), 10);
        assert_eq!(spec.bin_index(1e12), 10);
        assert_eq!(spec.bin_index(f64::NAN), 0);
    }

    #[test]
    fn categorical_snaps_to_nearest() {
        let spec = BinSpec::Categorical { centers: vec![1.0, 2.0, 5.5, 11.0] };
        assert_eq!(spec.bin_count(), 4);
        assert_eq!(spec.bin_index(1.2), 0);
        assert_eq!(spec.bin_index(4.0), 2);
        assert_eq!(spec.bin_index(100.0), 3);
        assert_eq!(spec.bin_center(2), 5.5);
    }

    #[test]
    fn bin_centers() {
        let spec = BinSpec::uniform_to(100.0, 10.0);
        assert_eq!(spec.bin_center(0), 5.0);
        assert_eq!(spec.bin_center(9), 95.0);
        assert_eq!(spec.bin_center(10), 100.0); // overflow
    }

    #[test]
    fn frequencies_normalise() {
        let mut h = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        for v in [0.5, 0.7, 3.2, 9.9, 50.0] {
            h.add(v);
        }
        let f = h.frequencies();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        assert_eq!(h.total(), 0);
        assert!(h.frequencies().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn merge_accumulates() {
        let spec = BinSpec::uniform_to(10.0, 1.0);
        let mut a = Histogram::new(spec.clone());
        a.add(1.5);
        let mut b = Histogram::new(spec);
        b.add(1.7);
        b.add_n(8.5, 3);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.counts()[1], 2);
        assert_eq!(a.counts()[8], 3);
    }

    #[test]
    #[should_panic(expected = "different bin specs")]
    fn merge_rejects_mismatched_specs() {
        let mut a = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        let b = Histogram::new(BinSpec::uniform_to(20.0, 1.0));
        a.merge(&b);
    }

    #[test]
    fn from_counts_round_trip() {
        let spec = BinSpec::uniform_to(3.0, 1.0);
        let h = Histogram::from_counts(spec.clone(), vec![1, 2, 3, 4]);
        assert_eq!(h.total(), 10);
        assert_eq!(h.spec(), &spec);
    }

    #[test]
    fn points_iterate_all_bins() {
        let mut h = Histogram::new(BinSpec::uniform_to(4.0, 2.0));
        h.add(1.0);
        let pts: Vec<_> = h.points().collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn uniform_to_rejects_zero_width() {
        BinSpec::uniform_to(10.0, 0.0);
    }

    #[test]
    fn frequency_cache_invalidates_on_mutation() {
        let mut h = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        h.add(0.5);
        assert_eq!(h.frequencies()[0], 1.0);
        h.add(5.5); // must drop the cached vector
        assert!((h.frequencies()[0] - 0.5).abs() < 1e-12);
        assert!((h.frequencies()[5] - 0.5).abs() < 1e-12);
        h.add_n(5.5, 2);
        assert!((h.frequencies()[5] - 0.75).abs() < 1e-12);
        let mut other = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        other.add(9.5);
        h.merge(&other);
        assert!((h.frequencies()[9] - 0.2).abs() < 1e-12);
        assert_eq!(h.frequencies(), &h.frequency_vec()[..]);
    }

    #[test]
    fn equality_ignores_cache_state() {
        let mut a = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        let mut b = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        a.add(1.0);
        b.add(1.0);
        let _ = a.frequencies(); // populate a's cache only
        assert_eq!(a, b);
    }
}
