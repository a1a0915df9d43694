//! Binned histograms and their percentage-frequency form (§IV-A).
//!
//! A [`Histogram`] stores only its nonzero bins, as `(bin, count)` pairs
//! in ascending bin order, and shares its [`BinSpec`] behind an [`Arc`]
//! with every other histogram of the same configuration. A detection
//! window of ten frames fills at most ten of a spec's ~250 bins, so
//! recording, cloning and packing a window's histogram cost what the
//! window holds, not what the spec spans.
//!
//! The matching store ([`matching`](crate::matching)) packs its `f32`
//! rows and its `u8` codes straight from the pairs. Each nonzero bin's
//! value and each reciprocal norm come from the same `f64` operations, in
//! the same ascending bin order, as the dense views; a zero bin only ever
//! added `+0`. So every packed row is bit for bit the one
//! [`Histogram::frequencies_f32`] or [`Histogram::frequencies_u8`]
//! describes. Those dense views, and [`Histogram::frequencies`], are
//! derived on each call, not cached: they serve the naive `f64` oracle,
//! the figures and the tests.

use core::fmt;
use std::sync::Arc;

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
        let step = quant_step(max);
        let values: Vec<u8> = freqs.iter().map(|&f| quantize(f, step)).collect();
        // The reciprocal norm of the *codes*: the cosine path multiplies
        // the exact integer dot by both rows' code norms (the scales
        // cancel — cosine is scale-invariant), so this is the only norm
        // the sweep needs.
        let norm_sq = values.iter().fold(0.0, |acc, &q| acc + f64::from(q) * f64::from(q));
        QuantizedRow { values, scale: step as f32, inv_norm: inv_sqrt(norm_sq) }
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

/// An observation-count histogram convertible to the paper's
/// percentage-frequency distribution.
///
/// Only the nonzero bins are stored, as `(bin, count)` pairs with bins
/// strictly ascending and no zero count, so two histograms with the same
/// counts always hold the same pairs and equality is plain comparison.
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
/// assert_eq!(h.nonzero_counts(), &[(0, 1), (1, 2), (10, 1)]);
/// let freq = h.frequencies();
/// assert!((freq[0] - 0.25).abs() < 1e-12);
/// assert!((freq[1] - 0.50).abs() < 1e-12);
/// assert!((freq.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    spec: Arc<BinSpec>,
    /// The nonzero bins as `(bin, count)`, bins strictly ascending.
    nonzero: Vec<(u32, u64)>,
    total: u64,
}

/// The `u8` tier's code step for a row whose largest frequency is `max`.
fn quant_step(max: f64) -> f64 {
    max / f64::from(QUANT_MAX)
}

/// One frequency's `u8` code at code step `step`.
fn quantize(f: f64, step: f64) -> u8 {
    ((f / step).round() as u8).min(QUANT_MAX)
}

/// `1 / √norm_sq` narrowed to `f32`, or 0.0 for an all-zero row.
fn inv_sqrt(norm_sq: f64) -> f32 {
    if norm_sq > 0.0 {
        (1.0 / norm_sq.sqrt()) as f32
    } else {
        0.0
    }
}

impl Histogram {
    /// An empty histogram over the given bins. Pass an `Arc<BinSpec>` to
    /// share one spec between many histograms.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no bins (`BinSpec::Categorical` with no
    /// centres) or more than `u32::MAX` bins.
    pub fn new(spec: impl Into<Arc<BinSpec>>) -> Self {
        let spec = spec.into();
        let bins = spec.bin_count();
        assert!(bins > 0, "histogram bin spec has no bins");
        assert!(u32::try_from(bins).is_ok(), "histogram bin spec has more than u32::MAX bins");
        Histogram { spec, nonzero: Vec::new(), total: 0 }
    }

    /// Records one observation.
    pub fn add(&mut self, value: f64) {
        self.add_n(value, 1);
    }

    /// Records an observation `n` times (`n == 0` records nothing).
    pub fn add_n(&mut self, value: f64, n: u64) {
        // `new` bounds the bin count by u32::MAX, so the index fits.
        self.add_to_bin(self.spec.bin_index(value) as u32, n);
    }

    /// Merges another histogram with the same spec into this one.
    ///
    /// # Panics
    ///
    /// Panics if the specs differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.spec, other.spec, "merging histograms with different bin specs");
        for &(bin, count) in &other.nonzero {
            self.add_to_bin(bin, count);
        }
    }

    /// Adds `n` to `bin`'s count, keeping the pairs sorted and free of
    /// zero counts.
    fn add_to_bin(&mut self, bin: u32, n: u64) {
        if n == 0 {
            return;
        }
        match self.nonzero.binary_search_by_key(&bin, |&(b, _)| b) {
            Ok(i) => self.nonzero[i].1 += n,
            Err(i) => {
                // One allocation covers a ten-frame window's few bins.
                if self.nonzero.capacity() == 0 {
                    self.nonzero.reserve_exact(8);
                }
                self.nonzero.insert(i, (bin, n));
            }
        }
        self.total += n;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bin specification.
    pub fn spec(&self) -> &BinSpec {
        &self.spec
    }

    /// Number of bins, including the overflow bin of a uniform spec.
    pub fn bin_count(&self) -> usize {
        self.spec.bin_count()
    }

    /// The nonzero bins as `(bin, count)` pairs, bins strictly ascending.
    pub fn nonzero_counts(&self) -> &[(u32, u64)] {
        &self.nonzero
    }

    /// `(bin, Pⱼ)` of each nonzero bin, bins ascending.
    fn nonzero_frequencies(&self) -> impl Iterator<Item = (u32, f64)> + Clone + '_ {
        let n = self.total as f64;
        self.nonzero.iter().map(move |&(bin, c)| (bin, c as f64 / n))
    }

    /// The percentage-frequency distribution `Pⱼ = oⱼ / |P|` (§IV-A), one
    /// entry per bin: all zeros for an empty histogram. Derived from the
    /// nonzero bins on each call.
    pub fn frequencies(&self) -> Vec<f64> {
        let mut freqs = vec![0.0; self.bin_count()];
        for (bin, f) in self.nonzero_frequencies() {
            freqs[bin as usize] = f;
        }
        freqs
    }

    /// [`Histogram::frequencies`] narrowed to `f32`, one entry per bin —
    /// the dense form of the packed `f32` matching rows.
    pub fn frequencies_f32(&self) -> Vec<f32> {
        self.frequencies().iter().map(|&f| f as f32).collect()
    }

    /// [`Histogram::frequencies`] quantized for the `u8` storage tier
    /// ([`QuantizedRow`]): codes, per-row scale and the reciprocal code
    /// norm — the dense form of the packed `u8` matching rows.
    pub fn frequencies_u8(&self) -> QuantizedRow {
        QuantizedRow::from_frequencies(&self.frequencies())
    }

    /// The packed `f32` row: the reciprocal norm of
    /// [`Histogram::frequencies_f32`] and its nonzero `(bin, value)`
    /// entries, bins ascending. Bit for bit the dense row's: the same
    /// division and narrowing per bin, and the norm folds the same
    /// squares in the same order without the dense row's `+0` terms. Each
    /// square of an `f32` is exact in `f64` and the order is fixed, so the
    /// norm is the same on every host.
    pub(crate) fn packed_f32(&self) -> (f32, impl Iterator<Item = (u32, f32)> + '_) {
        let entries = self
            .nonzero_frequencies()
            .map(|(bin, f)| (bin, f as f32))
            .filter(|&(_, f)| f != 0.0);
        let norm_sq =
            entries.clone().fold(0.0, |acc, (_, x)| acc + f64::from(x) * f64::from(x));
        (inv_sqrt(norm_sq), entries)
    }

    /// The packed `u8` row: [`QuantizedRow::inv_norm`] of
    /// [`Histogram::frequencies_u8`] and its nonzero `(bin, code)`
    /// entries, bins ascending, bit for bit (the row maximum, the code
    /// step and each code are the dense row's).
    pub(crate) fn packed_u8(&self) -> (f32, impl Iterator<Item = (u32, u8)> + '_) {
        let max = self.nonzero_frequencies().fold(0.0f64, |m, (_, f)| m.max(f));
        let step = quant_step(max);
        let codes = self.nonzero_frequencies().map(move |(bin, f)| (bin, quantize(f, step)));
        let norm_sq = codes.clone().fold(0.0, |acc, (_, q)| acc + f64::from(q) * f64::from(q));
        (inv_sqrt(norm_sq), codes.filter(|&(_, q)| q != 0))
    }

    /// The centre of mass as a fraction of the bin range, in `[0, 1)`:
    /// `Σ j·oⱼ / |P| / bins`, summed over the nonzero bins ascending.
    /// 0 for an empty histogram.
    pub(crate) fn centre_of_mass(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mass = self.nonzero.iter().fold(0.0, |acc, &(bin, c)| acc + f64::from(bin) * c as f64);
        mass / self.total as f64 / self.bin_count() as f64
    }

    /// Iterator over `(bin_center, frequency)` pairs of every bin, for
    /// plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.total.max(1) as f64;
        let mut nonzero = self.nonzero.iter().peekable();
        (0..self.bin_count()).map(move |i| {
            let c = nonzero.next_if(|&&(bin, _)| bin as usize == i).map_or(0, |&(_, c)| c);
            (self.spec.bin_center(i), c as f64 / n)
        })
    }

    /// Restores a histogram from dense per-bin counts (used by the DB
    /// codec).
    ///
    /// # Panics
    ///
    /// Panics if the spec has no bins, or if
    /// `counts.len() != spec.bin_count()`.
    pub fn from_counts(spec: impl Into<Arc<BinSpec>>, counts: Vec<u64>) -> Self {
        let mut hist = Histogram::new(spec);
        assert_eq!(counts.len(), hist.bin_count(), "count vector does not match spec");
        hist.nonzero = (0u32..).zip(counts).filter(|&(_, c)| c != 0).collect();
        hist.total = hist.nonzero.iter().map(|&(_, c)| c).sum();
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(a.nonzero_counts(), &[(1, 2), (8, 3)]);
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
        h.add(5.5);
        assert!((h.frequencies()[0] - 0.5).abs() < 1e-12);
        assert!((h.frequencies()[5] - 0.5).abs() < 1e-12);
        h.add_n(5.5, 2);
        assert!((h.frequencies()[5] - 0.75).abs() < 1e-12);
        let mut other = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        other.add(9.5);
        h.merge(&other);
        assert!((h.frequencies()[9] - 0.2).abs() < 1e-12);
        assert_eq!(h.frequencies(), h.points().map(|(_, f)| f).collect::<Vec<_>>());
    }

    #[test]
    fn equality_ignores_cache_state() {
        let mut a = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        let mut b = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        a.add(1.0);
        b.add(1.0);
        let _ = a.frequencies();
        assert_eq!(a, b);
    }

    #[test]
    fn shared_and_cloned_specs_compare_equal() {
        let spec = Arc::new(BinSpec::uniform_to(10.0, 1.0));
        let mut a = Histogram::new(Arc::clone(&spec));
        let mut b = Histogram::new(BinSpec::uniform_to(10.0, 1.0));
        a.add(1.0);
        b.add(1.0);
        assert_eq!(a, b);
        a.merge(&b);
        assert_eq!(a.nonzero_counts(), &[(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "no bins")]
    fn new_rejects_a_spec_without_bins() {
        Histogram::new(BinSpec::Categorical { centers: vec![] });
    }

    /// Applies `ops` to a histogram and to a dense count vector alike:
    /// `(0, v, _)` adds `v`, `(1, v, n)` adds it `n` times (`n` may be 0)
    /// and `(2, _, _)` merges `from_counts(spec, merged)`.
    fn build(
        spec: &Arc<BinSpec>,
        ops: &[(u8, f64, u64)],
        merged: &[u64],
    ) -> (Histogram, Vec<u64>) {
        let mut hist = Histogram::new(Arc::clone(spec));
        let mut dense = vec![0u64; spec.bin_count()];
        for &(op, value, n) in ops {
            match op {
                0 => {
                    hist.add(value);
                    dense[spec.bin_index(value)] += 1;
                }
                1 => {
                    hist.add_n(value, n);
                    dense[spec.bin_index(value)] += n;
                }
                _ => {
                    hist.merge(&Histogram::from_counts(Arc::clone(spec), merged.to_vec()));
                    for (d, &m) in dense.iter_mut().zip(merged) {
                        *d += m;
                    }
                }
            }
        }
        (hist, dense)
    }

    proptest! {
        // The sparse store against a dense count vector, over uniform and
        // categorical specs at 1, 31–33 and 251 bins: equality and total,
        // canonical pairs, the packed f32 and u8 rows with their
        // reciprocal norms (bit for bit against the dense rows the
        // pre-sparse histogram cached) and the centre of mass.
        #[test]
        fn sparse_histogram_equals_dense_oracle(
            width in prop::sample::select(vec![1usize, 31, 32, 33, 251]),
            categorical in any::<bool>(),
            // An add_n of 500 next to single counts drives some nonzero
            // bins to code 0 in the u8 tier.
            ops in prop::collection::vec(
                (0u8..3, -2.0f64..260.0, prop::sample::select(vec![0u64, 1, 2, 3, 500])),
                0..40,
            ),
            raw in prop::collection::vec(0u64..6, 251),
        ) {
            let spec = Arc::new(if categorical {
                BinSpec::Categorical { centers: (0..width).map(|i| i as f64).collect() }
            } else {
                BinSpec::Uniform { min: 0.0, width: 1.0, count: width - 1 }
            });
            // About half of the merged histogram's bins are zero.
            let merged: Vec<u64> = raw[..width].iter().map(|&c| c.saturating_sub(3)).collect();
            let (hist, dense) = build(&spec, &ops, &merged);

            let total: u64 = dense.iter().sum();
            prop_assert_eq!(hist.total(), total);
            prop_assert_eq!(&hist, &Histogram::from_counts(Arc::clone(&spec), dense.clone()));
            let pairs = hist.nonzero_counts();
            prop_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "unsorted {:?}", pairs);
            prop_assert!(pairs.iter().all(|&(_, c)| c != 0), "zero count in {:?}", pairs);

            // The dense rows, computed as the pre-sparse histogram did.
            let freqs: Vec<f64> = if total == 0 {
                vec![0.0; width]
            } else {
                dense.iter().map(|&c| c as f64 / total as f64).collect()
            };
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&hist.frequencies()), bits(&freqs));

            let row32: Vec<f32> = freqs.iter().map(|&f| f as f32).collect();
            let norm_sq = row32.iter().fold(0.0, |acc, &x| acc + f64::from(x) * f64::from(x));
            let (inv, entries) = hist.packed_f32();
            let want: Vec<(u32, u32)> = (0u32..)
                .zip(&row32)
                .filter(|&(_, &f)| f != 0.0)
                .map(|(b, f)| (b, f.to_bits()))
                .collect();
            prop_assert_eq!(entries.map(|(b, f)| (b, f.to_bits())).collect::<Vec<_>>(), want);
            prop_assert_eq!(inv.to_bits(), inv_sqrt(norm_sq).to_bits());

            let q = QuantizedRow::from_frequencies(&freqs);
            let (inv, codes) = hist.packed_u8();
            let want: Vec<(u32, u8)> =
                (0u32..).zip(q.values().iter().copied()).filter(|&(_, c)| c != 0).collect();
            prop_assert_eq!(codes.collect::<Vec<_>>(), want);
            prop_assert_eq!(inv.to_bits(), q.inv_norm().to_bits());
            prop_assert_eq!(hist.frequencies_u8(), q);

            let centre = if total == 0 {
                0.0
            } else {
                let mass: f64 = dense.iter().enumerate().map(|(i, &c)| i as f64 * c as f64).sum();
                mass / total as f64 / width as f64
            };
            prop_assert_eq!(hist.centre_of_mass().to_bits(), centre.to_bits());
        }
    }
}
