//! The sharded reference database and Algorithm 1 (signature matching).
//!
//! # Structure-of-arrays layout: bin-major columns
//!
//! Matching one candidate against `N` references evaluates
//! `Σ_{ftype} weight^ftype(rᵢ) · sim(P^ftype(c), P^ftype(rᵢ))` for every
//! reference `rᵢ` — the `O(windows × devices × bins)` hot path of the
//! whole pipeline. To make that sweep cache-friendly, [`ReferenceDb`]
//! does **not** score against per-device `BTreeMap`s. Instead it packs,
//! for each frame kind, every device's frequency vector into one
//! **bin-major** matrix: bin `b` of every resident device is one
//! contiguous column.
//!
//! ```text
//! KindBlock(Data):   rows  = [ bin₀ of dev₀…devₙ | pad | bin₁ of dev₀…devₙ | pad | … ]
//!                    weights   = [ w₀, w₁, …, wₙ ]   (f32 reference weights)
//!                    inv_norms = [ 1/‖r₀‖, …, 1/‖rₙ‖ ]  (f32, 0 ⇒ empty row)
//! KindBlock(Beacon): rows  = [ … ]
//! ```
//!
//! `rows[bin * cap + slot]` is the value; each column holds `cap ≥ n`
//! slots, zero past the residents, and `cap` doubles when an insert
//! finds the columns full, so streaming growth stays amortised `O(row)`
//! (a bulk build packs `cap` to the resident count). A detection window's
//! candidate histogram has at most one nonzero bin per observation — a
//! few of ~170–250 — and the sweep reads only those bins' columns: one
//! contiguous, vectorisable pass per nonzero bin scores that bin for
//! every device at once.
//!
//! Rows, weights and norms are stored as **`f32`**: histogram frequencies
//! carry nowhere near 53 bits of information, and halving the row width
//! doubles the values per cache line. Devices missing a kind hold weight
//! 0 and an all-zero row, which add exactly `+0` to their scores.
//! Per-device *scores* accumulate in `f64`, so the only precision loss is
//! the one-off `f64 → f32` quantisation of the stored rows — bounded by
//! [`F32_SCORE_TOLERANCE`] and enforced against the `f64` baseline by
//! property tests and an AUC-drift check in the analysis crate.
//!
//! # Precision tiers
//!
//! `f32` is the middle of three storage tiers selected by
//! [`MatchConfig::with_precision`] ([`RowPrecision`]); scores accumulate
//! in `f64` in every tier, so the tier only chooses what the inner dot
//! products read:
//!
//! * **`f64`** — the naive baseline (per-device `BTreeMap`s, full
//!   doubles). Not a packed layout; kept behind `bench-baseline` as
//!   ground truth.
//! * **`f32`** ([`RowPrecision::F32`], the default) — packed `f32`
//!   columns; each cosine dot is an ascending-bin `f64` sum of exact
//!   `f32 × f32` products, so it is the same on every host. Drift ≤
//!   [`F32_SCORE_TOLERANCE`] vs `f64`.
//! * **`u8`** ([`RowPrecision::U8`]) — each row quantized once at
//!   insert to 7-bit codes
//!   ([`Histogram::frequencies_u8`](crate::Histogram::frequencies_u8));
//!   cosine is scale-invariant, so the sweep dots raw codes in **exact**
//!   `u32` arithmetic, folds the code norms in at the end, and the store
//!   keeps no per-row scale. Drift ≤
//!   [`U8_SCORE_TOLERANCE`] vs `f32`, pinned by parity proptests here and
//!   an AUC-drift gate in the analysis crate.
//!
//! Resident bytes per device per (kind, bins) block, at the default
//! 251-bin inter-arrival spec ([`ReferenceDb::row_bytes`] reports the
//! exact total over resident slots, not column capacity; per-block
//! envelope bytes amortise across residents):
//!
//! | tier  | row            | per-row metadata               | ≈ bytes/device |
//! |-------|----------------|--------------------------------|----------------|
//! | `f64` | 251 × 8 B      | `BTreeMap` nodes + weights     | > 2008         |
//! | `f32` | 251 × 4 B      | weight + inv-norm (8 B)        | 1012           |
//! | `u8`  | 251 × 1 B      | weight + inv-norm (8 B)        | 259            |
//!
//! Quartering the row bytes quarters what each column pass streams.
//!
//! # The sharded store
//!
//! One flat matrix per kind stops scaling past ~10⁵ devices: every sweep
//! touches every row. [`ReferenceDb`] therefore buckets its rows into
//! **shards** ([`MatchConfig`]): by default a locality-sensitive key of
//! each device's *dominant* histogram (its centre of mass — devices whose
//! heaviest histogram concentrates probability in the same region share a
//! shard), with the MAC prefix (OUI hash) as a fallback strategy for
//! enrolments where histogram locality is unwanted
//! ([`ShardStrategy::MacPrefix`]). Each shard keeps its own `SoA` blocks
//! plus a **prune summary** per block: the elementwise upper envelope of
//! its normalised rows and the maximum reference weight. Frequencies are
//! non-negative, so the envelope yields an *admissible* upper bound on any
//! resident device's score against a given candidate — one dot product
//! per (shard, kind) instead of one per device. (A mean-centroid summary would need a radius term and is
//! strictly looser for non-negative rows, so the envelope is the summary
//! of choice.)
//!
//! # Two sweeps
//!
//! Algorithm 1 has two consumers (§IV-B), so the store has two sweeps,
//! and both run one private shard walk over that layout:
//!
//! * the **dense** sweep ([`ReferenceDb::match_tile`]) returns every
//!   candidate's full similarity vector — what the similarity test
//!   thresholds. It visits every occupied shard and is *bit-for-bit* the
//!   flat sweep: per device the same per-pair arithmetic accumulates in
//!   the same (ascending frame kind) order, property-tested equal to a
//!   flat (`shards == 1`) database;
//! * the **pruned** sweep ([`ReferenceDb::match_topk_tile`]) returns each
//!   candidate's top-`k` — what the identification test ranks. It visits
//!   shards in descending bound order and skips, per candidate, every
//!   shard whose best possible score cannot beat that candidate's
//!   current `k`-th best — at 10⁵ enrolled devices this prunes most of
//!   the matrix before any column pass runs. Its rankings equal the
//!   dense sweep's exactly.
//!
//! [`MatchScratch::prune_stats`] reports the shards the last sweep of
//! either kind swept and pruned. `match_signature_naive` (tests and the
//! `bench-baseline` feature) is the all-`f64` oracle both are checked
//! against.
//!
//! # Column passes
//!
//! The paper's cosine collapses per pair to a single dot product (row
//! norms are fixed at pack time, the candidate norm is hoisted out of the
//! device loop). The sweep lists each candidate row's nonzero
//! `(bin, value)` entries once per call, then, per shard and frame kind,
//! accumulates one candidate's dots against every resident slot at once:
//! `dot[slot] += c · column_bin[slot]` for each nonzero bin `c`, in exact
//! `u32` for `u8` codes and in `f64` for `f32` rows. One epilogue per slot
//! then adds `weight · clamp(dot · inv_c · inv_r)` to that device's score.
//! The plain safe slice loops auto-vectorise for the compile target, so
//! scores do not depend on the host's instruction set. The prune bound is
//! the same sum against the shard's envelope, `Σ_nz c · envelope[bin]`.
//!
//! # Multi-candidate tiling
//!
//! Detection evaluates whole windows of candidates against the same
//! database. [`ReferenceDb::match_tile`] scores a tile of `K` candidates
//! in **one** walk over the shards: each shard's columns are read for all
//! `K` candidates while they are hot in cache, instead of once per
//! candidate. [`MATCH_TILE`] is the tile width the batch paths (the
//! engine's window close, `metrics::match_candidates`, and through it the
//! analysis pipeline) use. One candidate is a tile of one; the pruned
//! sweep takes tiles too, sharing one bound-ordered shard pass.
//!
//! # Scratch buffers: allocation-free steady state
//!
//! Both sweeps write into a caller-owned [`MatchScratch`]. The dense
//! sweep returns borrowed views ([`TileView`], [`MatchView`]);
//! [`MatchView::to_outcome`] copies one out as an owned [`MatchOutcome`]
//! when it must outlive the scratch's next sweep. After the first call
//! warms the scratch's capacity, matching performs **no heap
//! allocation**: candidate rows are packed from cached frequency vectors
//! ([`Histogram::frequencies_f32`](crate::Histogram::frequencies_f32))
//! into reused buffers, scores accumulate into reused buffers, and the
//! views borrow rather than copy. Use one scratch per worker thread:
//!
//! ```
//! use wifiprint_core::{EvalConfig, MatchScratch, NetworkParameter, ReferenceDb, Signature,
//!     SimilarityMeasure};
//! use wifiprint_ieee80211::{FrameKind, MacAddr};
//!
//! let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize);
//! let mut sig = Signature::new();
//! for _ in 0..60 { sig.record(FrameKind::Data, 1000.0, &cfg); }
//! let mut db = ReferenceDb::new();
//! db.insert(MacAddr::from_index(1), sig.clone()).unwrap();
//!
//! let mut scratch = MatchScratch::new();
//! for _window in 0..3 {
//!     // One window is a tile of one.
//!     let tile = db.match_tile(std::slice::from_ref(&sig), SimilarityMeasure::Cosine, &mut scratch);
//!     assert_eq!(tile.candidate(0).best().unwrap().0, MacAddr::from_index(1));
//! }
//! // A whole tile of windows in one row pass:
//! let windows = vec![sig.clone(), sig.clone(), sig.clone()];
//! let tile = db.match_tile(&windows, SimilarityMeasure::Cosine, &mut scratch);
//! assert_eq!(tile.candidate_count(), 3);
//! assert_eq!(tile.candidate(2).best().unwrap().0, MacAddr::from_index(1));
//! // And the pruned top-k sweep (what a 10⁵-device deployment runs):
//! let tops = db.match_topk_tile(&windows, 1, &mut scratch);
//! assert_eq!(tops[2][0].0, MacAddr::from_index(1));
//! ```
//!
//! # Incremental growth
//!
//! [`ReferenceDb::insert`] appends one row to the device's shard
//! (amortised `O(row)`) instead of repacking, so streaming database
//! growth is linear in the data, not quadratic. Internally rows live in
//! insertion order with a sorted index on top; shard membership, the
//! per-shard slots and the sorted address index stay consistent across
//! any interleaving of [`ReferenceDb::insert`] / [`ReferenceDb::remove`]
//! (re-inserting a changed signature migrates the device to its new
//! shard). Every public API still reports devices in ascending address
//! order.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use wifiprint_ieee80211::{FrameKind, MacAddr};

use crate::error::CoreError;
use crate::histogram::{Histogram, QUANT_MAX};
use crate::signature::Signature;
use crate::similarity::SimilarityMeasure;

/// Worst-case drift of a matching score computed over the packed `f32`
/// rows relative to the same score in full `f64`.
///
/// Scores lie in `[0, 1]`. Rows are `f64` frequencies rounded once to
/// `f32` (relative error ≤ 2⁻²⁴ per element); dots and norms are `f64`
/// sums of those `f32` values (each product exact), the reciprocal norms
/// are stored as `f32`, and everything downstream (weighting, accumulation
/// across frame kinds) is `f64`. For the ≤ ~500-bin rows this crate
/// produces, the accumulated error stays ≳ an order of magnitude below
/// this bound; property tests and the analysis crate's AUC-drift check
/// enforce it.
pub const F32_SCORE_TOLERANCE: f64 = 1e-4;

/// Worst-case drift of a matching score computed over quantized `u8`
/// rows ([`RowPrecision::U8`]) relative to the same score over `f32`
/// rows.
///
/// Quantization rounds each normalised row to 7-bit codes relative to its
/// maximum element ([`QUANT_MAX`]), so
/// the stored *direction* moves by up to `~0.5/127 · √(occupied bins)`
/// relative to the row maximum. For the adversarial case property tests
/// construct — tens of near-equal tiny bins on both sides of the dot —
/// the cosine can drift by a few times `1e-2`; realistic traffic
/// histograms concentrate their mass and stay well under `1e-2` (the
/// AUC-drift gate in the analysis crate pins the *application* drift two
/// orders tighter). Integer dots themselves are exact — the column pass
/// over a candidate's nonzero bins returns the same `u32` as a dense dot
/// — so none of this budget is spent on summation order or on which bins
/// the sweep visits.
pub const U8_SCORE_TOLERANCE: f64 = 5e-2;

/// Tile width for multi-candidate matching: how many candidate windows
/// the engine's window close and `metrics::match_candidates` (and the
/// analysis paths built on it) pass to one [`ReferenceDb::match_tile`].
///
/// A tile's candidates share one walk over the shards, so each shard's
/// columns are loaded from memory once per tile instead of once per
/// candidate.
pub const MATCH_TILE: usize = 8;

/// Default shard count of a [`MatchConfig`]. Sixteen shards keep the
/// per-sweep summary overhead negligible at conference scale while
/// already pruning most of the matrix at 10⁴–10⁵ devices; large
/// deployments raise it via [`MatchConfig::with_shards`].
pub const DEFAULT_SHARDS: usize = 16;

/// Hard ceiling on the configured shard count (the shard directory is
/// allocated eagerly).
const MAX_SHARDS: usize = 1024;

/// Safety slack added to every shard's score upper bound before the
/// prune test. The bound dots the candidate against the `f32` envelope
/// (each entry a rounded `row · inv_norm` product), the true scores dot
/// it against the rows and multiply by the norms afterwards, so their
/// floating-point error is not ordered; one [`F32_SCORE_TOLERANCE`] of
/// slack makes the bound
/// admissible under rounding (a shard is only pruned when its best
/// possible score is below the current `k`-th best by more than the
/// documented score tolerance).
const PRUNE_BOUND_SLACK: f64 = F32_SCORE_TOLERANCE;

/// How devices are bucketed into shards (see [`MatchConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Locality-sensitive key of the device's **dominant** (highest
    /// weight) histogram: its centre of mass, quantised over the shard
    /// count. Devices whose heaviest histogram concentrates probability
    /// in the same region share a shard, which keeps each shard's upper
    /// envelope tight and makes the pruned sweep effective.
    #[default]
    DominantHistogram,
    /// A hash of the MAC address's OUI (first three octets). Not
    /// locality-sensitive in score space — pruning bounds stay
    /// admissible but looser — useful as a fallback when enrolment is
    /// adversarial or signatures churn faster than shard residency
    /// should.
    MacPrefix,
}

/// Storage width of the packed reference rows — the **precision tier**
/// of a [`ReferenceDb`] (see the [module docs](self#precision-tiers)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowPrecision {
    /// `f32` rows; cosine dots are ascending-bin `f64` sums over a
    /// candidate's nonzero bins. Scores track the `f64` baseline within
    /// [`F32_SCORE_TOLERANCE`].
    #[default]
    F32,
    /// Quantized `u8` rows (7-bit codes, zero-point fixed at 0). The
    /// cosine sweep dots the columns of a candidate's nonzero codes in
    /// exact integer arithmetic. Quarter the row bytes
    /// of `f32`; scores track the `f32` tier within
    /// [`U8_SCORE_TOLERANCE`].
    U8,
}

impl RowPrecision {
    /// A short stable name for logs and bench snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            RowPrecision::F32 => "f32",
            RowPrecision::U8 => "u8",
        }
    }
}

/// Configuration of the sharded reference store: how rows are bucketed,
/// into how many shards, and at which storage precision. `shards == 1`
/// degenerates to the flat single-matrix layout ([`MatchConfig::flat`]),
/// which the sharded dense sweep is property-tested bit-for-bit equal to
/// (per precision tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchConfig {
    /// The shard-key strategy.
    pub strategy: ShardStrategy,
    /// Number of shards (clamped to `1..=1024` when the database is
    /// built).
    pub shards: usize,
    /// Storage width of the packed rows (see [`RowPrecision`]).
    pub precision: RowPrecision,
}

impl Default for MatchConfig {
    /// Dominant-histogram bucketing over [`DEFAULT_SHARDS`] shards,
    /// `f32` rows.
    fn default() -> Self {
        MatchConfig {
            strategy: ShardStrategy::DominantHistogram,
            shards: DEFAULT_SHARDS,
            precision: RowPrecision::F32,
        }
    }
}

impl MatchConfig {
    /// The flat (unsharded) layout: one shard holding every row. The
    /// parity baseline for the sharded sweeps, and the right choice for
    /// small (< a few hundred devices) databases.
    pub fn flat() -> Self {
        MatchConfig::default().with_shards(1)
    }

    /// The quantized tier at the default shard layout: `u8` rows swept
    /// in exact integer arithmetic — what a metropolis-scale (≥ 10⁵ devices)
    /// deployment runs.
    pub fn quantized() -> Self {
        MatchConfig::default().with_precision(RowPrecision::U8)
    }

    /// Returns a copy with a different shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with a different shard-key strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: ShardStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns a copy with a different row precision.
    #[must_use]
    pub fn with_precision(mut self, precision: RowPrecision) -> Self {
        self.precision = precision;
        self
    }

    /// The effective shard count (clamped).
    fn effective_shards(&self) -> usize {
        self.shards.clamp(1, MAX_SHARDS)
    }
}

/// The packed row storage of a [`KindBlock`] — one variant per
/// [`RowPrecision`], so the `u8` tier genuinely holds one byte per bin
/// rather than shadowing an `f32` copy.
///
/// Both variants are **bin-major**: `rows[bin * cap + slot]` is the
/// value of `bin` for the device in `slot`, so one bin of every resident
/// row is one contiguous column (see [`KindBlock::cap`]).
#[derive(Debug, Clone)]
enum RowStore {
    /// The devices' `f32` frequencies.
    F32(Vec<f32>),
    /// Quantized rows: the devices' 7-bit codes
    /// ([`Histogram::frequencies_u8`]). Cosine is scale-invariant, so the
    /// sweep works on the raw codes with `inv_norms` computed over the
    /// codes, and no per-row scale is kept.
    U8(Vec<u8>),
}

/// One frame kind's slice of a shard's reference matrix: every resident
/// device's frequency vector for that kind, packed bin-major at the
/// database's [`RowPrecision`], plus the reference weights
/// `weight^ftype(rᵢ)`, reciprocal row norms, and the prune summary
/// (upper envelope of the normalised rows + max weight).
#[derive(Debug, Clone)]
struct KindBlock {
    kind: FrameKind,
    /// Row width. Blocks are keyed on `(kind, bins)`: references binned
    /// with a different spec for the same kind land in a sibling block,
    /// so heterogeneous databases still score every compatible pair.
    bins: usize,
    /// Slot capacity of every column: column `bin` starts at
    /// `bin * cap`, and its entries past the resident slots are zero. It
    /// doubles when an append finds the columns full (amortised `O(row)`
    /// inserts); a bulk build packs it to the resident count.
    cap: usize,
    /// `weights[slot]` is the resident device's weight for this kind
    /// (0 ⇒ absent device). Its length is the resident slot count.
    weights: Vec<f32>,
    /// The packed rows at the configured precision.
    store: RowStore,
    /// `inv_norms[slot]` is `1 / ‖row‖₂` of the *stored* row (`f32`
    /// frequencies or `u8` codes — whichever the sweep dots against),
    /// precomputed at pack time so the cosine sweep reduces to one dot
    /// product and two multiplies per pair (0.0 for absent rows).
    inv_norms: Vec<f32>,
    /// Elementwise maximum of the *normalised* resident rows: because
    /// frequencies (and quantized codes) are non-negative,
    /// `ĉ · envelope ≥ ĉ · r̂ᵢ` for every resident row, so one dot
    /// against the envelope upper-bounds every per-device cosine in the
    /// block. Always `f32`, in both tiers.
    envelope: Vec<f32>,
    /// Maximum reference weight over resident rows (the other half of
    /// the shard score bound).
    wmax: f32,
}

impl KindBlock {
    /// A block of `slots` absent devices whose columns hold
    /// `max(slots, cap)` slots.
    fn empty(
        kind: FrameKind,
        bins: usize,
        slots: usize,
        cap: usize,
        precision: RowPrecision,
    ) -> KindBlock {
        let cap = cap.max(slots);
        KindBlock {
            kind,
            bins,
            cap,
            weights: vec![0.0; slots],
            store: match precision {
                RowPrecision::F32 => RowStore::F32(vec![0.0; cap * bins]),
                RowPrecision::U8 => RowStore::U8(vec![0; cap * bins]),
            },
            inv_norms: vec![0.0; slots],
            envelope: vec![0.0; bins],
            wmax: 0.0,
        }
    }

    /// Number of resident slots (absent devices included).
    fn slots(&self) -> usize {
        self.weights.len()
    }

    /// Appends one absent-device slot (its column entries are already
    /// zero), doubling the capacity when the columns are full.
    fn push_empty_slot(&mut self) {
        let (bins, slots, old) = (self.bins, self.slots(), self.cap);
        if slots == old {
            let cap = (2 * old).max(1);
            match &mut self.store {
                RowStore::F32(rows) => relayout_columns(rows, bins, slots, old, cap),
                RowStore::U8(rows) => relayout_columns(rows, bins, slots, old, cap),
            }
            self.cap = cap;
        }
        self.weights.push(0.0);
        self.inv_norms.push(0.0);
    }

    /// Removes one slot by moving the last slot into it — one element
    /// per column, whatever the slot count — zeroes the vacated last
    /// slot, and repairs the prune summary. No score depends on the slot
    /// a device sits in.
    ///
    /// The envelope can only shrink where the removed row attained it,
    /// so only those columns (a few, for a sparse row) are re-walked,
    /// each contiguously; every other entry is still attained by a
    /// remaining row. A maximum does not round, so the repaired envelope
    /// is bit for bit the one a bulk build computes.
    fn remove_slot(&mut self, slot: usize) {
        let cap = self.cap;
        let removed_inv = self.inv_norms.swap_remove(slot);
        self.weights.swap_remove(slot);
        let KindBlock { weights, store, inv_norms, envelope, wmax, .. } = self;
        match store {
            RowStore::F32(rows) => {
                swap_remove_column_slot(rows, cap, slot, removed_inv, inv_norms, envelope, |f| f);
            }
            RowStore::U8(rows) => {
                swap_remove_column_slot(rows, cap, slot, removed_inv, inv_norms, envelope, f32::from);
            }
        }
        *wmax = weights.iter().copied().fold(0.0, f32::max);
    }

    /// Writes a device's row into the freshly appended (all-zero) `slot`
    /// at the block's precision — only its nonzero bins need a write —
    /// and absorbs it into the prune summary (the envelope only grows
    /// here; shrinking happens in [`KindBlock::remove_slot`]).
    fn set_slot(&mut self, slot: usize, hist: &Histogram, weight: f32) {
        let KindBlock { bins, cap, weights, store, inv_norms, envelope, wmax, .. } = self;
        let (bins, cap) = (*bins, *cap);
        weights[slot] = weight;
        *wmax = wmax.max(weight);
        match store {
            RowStore::F32(rows) => {
                let freqs = hist.frequencies_f32();
                debug_assert_eq!(freqs.len(), bins);
                let inv = inv_norm(freqs);
                inv_norms[slot] = inv;
                for (bin, f) in nonzero_bins(freqs.iter().copied()) {
                    let bin = bin as usize;
                    rows[bin * cap + slot] = f;
                    envelope[bin] = envelope[bin].max(f * inv);
                }
            }
            RowStore::U8(rows) => {
                let q = hist.frequencies_u8();
                debug_assert_eq!(q.values().len(), bins);
                let inv = q.inv_norm();
                inv_norms[slot] = inv;
                for (bin, &c) in q.values().iter().enumerate().filter(|&(_, &c)| c != 0) {
                    rows[bin * cap + slot] = c;
                    envelope[bin] = envelope[bin].max(f32::from(c) * inv);
                }
            }
        }
    }

    /// Column `bin` of `rows` (this block's packed store) over the
    /// resident slots.
    fn column<'a, T>(&self, rows: &'a [T], bin: u32) -> &'a [T] {
        let start = bin as usize * self.cap;
        &rows[start..start + self.slots()]
    }

    /// Adds one candidate's cosine terms to `scores` (one per slot):
    /// `weight · clamp(dot · inv_c · inv_r)` for each slot's `dot`.
    /// Branch-free: an absent slot has weight 0 and adds `+0.0`, which
    /// leaves a non-negative score's bits as they are.
    fn add_cosines(&self, scores: &mut [f64], dots: impl Iterator<Item = f64>, inv_c: f64) {
        for (((s, dot), &weight), &inv_r) in
            scores.iter_mut().zip(dots).zip(&self.weights).zip(&self.inv_norms)
        {
            *s += f64::from(weight) * (dot * inv_c * f64::from(inv_r)).clamp(0.0, 1.0);
        }
    }

    /// Bytes held by this block's resident rows and per-row/summary
    /// metadata (column capacity excluded — this measures the resident
    /// layout, so an incrementally grown block reports what a bulk-packed
    /// one does).
    fn row_bytes(&self) -> usize {
        let cells = self.slots() * self.bins;
        let store = match &self.store {
            RowStore::F32(_) => cells * std::mem::size_of::<f32>(),
            RowStore::U8(_) => cells,
        };
        store
            + std::mem::size_of_val(self.weights.as_slice())
            + std::mem::size_of_val(self.inv_norms.as_slice())
            + std::mem::size_of_val(self.envelope.as_slice())
    }
}

/// Copies the first `slots` entries of every column from capacity `old`
/// to capacity `cap`, zero-filling the rest.
fn relayout_columns<T: Copy + Default>(
    rows: &mut Vec<T>,
    bins: usize,
    slots: usize,
    old: usize,
    cap: usize,
) {
    let mut out = vec![T::default(); bins * cap];
    for bin in 0..bins {
        out[bin * cap..bin * cap + slots].copy_from_slice(&rows[bin * old..bin * old + slots]);
    }
    *rows = out;
}

/// `max_slot(widen(col[slot]) · inv_norms[slot])` (0 for an empty
/// column), over eight independent lanes so the walk vectorises. A
/// maximum does not round, so the lane split changes no bit.
fn column_max<T: Copy>(col: &[T], inv_norms: &[f32], widen: impl Fn(T) -> f32) -> f32 {
    let mut lanes = [0.0f32; 8];
    let (body, tail) = col.as_chunks::<8>();
    let (inv_body, inv_tail) = inv_norms[..col.len()].as_chunks::<8>();
    for (c, inv) in body.iter().zip(inv_body) {
        for lane in 0..8 {
            // Values are finite and non-negative: `>` is `f32::max` here.
            let v = widen(c[lane]) * inv[lane];
            lanes[lane] = if v > lanes[lane] { v } else { lanes[lane] };
        }
    }
    for (&c, &inv) in tail.iter().zip(inv_tail) {
        lanes[0] = lanes[0].max(widen(c) * inv);
    }
    lanes.into_iter().fold(0.0, f32::max)
}

/// Moves the last slot into `slot` in every column and zeroes it; where
/// the removed value attained `envelope[bin]`, re-walks the column over
/// the remaining slots (`inv_norms` is already swap-removed, so its
/// length is the remaining slot count).
fn swap_remove_column_slot<T: Copy + Default>(
    rows: &mut [T],
    cap: usize,
    slot: usize,
    removed_inv: f32,
    inv_norms: &[f32],
    envelope: &mut [f32],
    widen: impl Fn(T) -> f32 + Copy,
) {
    let last = inv_norms.len();
    for (col, e) in rows.chunks_exact_mut(cap).zip(envelope) {
        let removed = widen(col[slot]) * removed_inv;
        col[slot] = col[last];
        col[last] = T::default();
        if removed != 0.0 && removed == *e {
            *e = column_max(&col[..last], inv_norms, widen);
        }
    }
}

/// One bucket of the sharded store: which global rows live here and
/// their per-kind matrices (indexed by **slot**, the local row number).
#[derive(Debug, Clone, Default)]
struct Shard {
    /// `rows[slot]` is the global (insertion-order) row of the device in
    /// that slot.
    rows: Vec<u32>,
    /// Per-frame-kind matrices, ascending by `(kind, bins)`.
    blocks: Vec<KindBlock>,
}

impl Shard {
    fn block(&self, kind: FrameKind, bins: usize) -> Option<&KindBlock> {
        self.blocks
            .binary_search_by(|b| (b.kind, b.bins).cmp(&(kind, bins)))
            .ok()
            .map(|i| &self.blocks[i])
    }
}

/// Where a global row lives: its shard and local slot.
#[derive(Debug, Clone, Copy, Default)]
struct Placement {
    shard: u16,
    slot: u32,
}

/// The sharded reference database of the learning phase (§IV-B): one
/// signature per known device, bucketed into shards and packed into
/// per-frame-kind `f32` matrices (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use wifiprint_core::{EvalConfig, MatchConfig, MatchScratch, NetworkParameter, ReferenceDb,
///     Signature, SimilarityMeasure};
/// use wifiprint_ieee80211::{FrameKind, MacAddr};
///
/// let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize);
/// let mut sig = Signature::new();
/// for _ in 0..60 { sig.record(FrameKind::Data, 1000.0, &cfg); }
///
/// // Default: dominant-histogram sharding; MatchConfig selects the
/// // strategy and shard count.
/// let mut db = ReferenceDb::with_config(MatchConfig::default().with_shards(8));
/// let dev = MacAddr::from_index(1);
/// db.insert(dev, sig.clone()).unwrap();
///
/// let mut scratch = MatchScratch::new();
/// let tile = db.match_tile(std::slice::from_ref(&sig), SimilarityMeasure::Cosine, &mut scratch);
/// let (best, score) = tile.candidate(0).best().unwrap();
/// assert_eq!(best, dev);
/// assert!((score - 1.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceDb {
    /// The (normalised) shard configuration.
    config: MatchConfig,
    /// Reference devices in **insertion order**; `signatures` and
    /// `placement` are parallel to this, so inserts append instead of
    /// repacking.
    devices: Vec<MacAddr>,
    signatures: Vec<Signature>,
    /// Row indices sorted by ascending device address: the lookup index,
    /// and the order every public API reports devices in.
    order: Vec<u32>,
    /// Global row → (shard, slot).
    placement: Vec<Placement>,
    /// Every `(kind, bins)` key any shard holds, ascending — the outer
    /// loop of the sweeps, so candidate tiles are packed once per kind,
    /// not once per (shard, kind).
    kind_keys: Vec<(FrameKind, usize)>,
    /// The shard directory (`config.effective_shards()` entries).
    shards: Vec<Shard>,
    /// `true` once the enrollment phase ended ([`ReferenceDb::freeze`]):
    /// mutations are rejected so the detection phase matches against a
    /// stable reference set.
    frozen: bool,
}

impl Default for ReferenceDb {
    fn default() -> Self {
        ReferenceDb::with_config(MatchConfig::default())
    }
}

impl ReferenceDb {
    /// An empty database with the default [`MatchConfig`]
    /// (dominant-histogram sharding, [`DEFAULT_SHARDS`] shards).
    pub fn new() -> Self {
        ReferenceDb::default()
    }

    /// An empty database with an explicit shard configuration.
    pub fn with_config(config: MatchConfig) -> Self {
        let shards = config.effective_shards();
        ReferenceDb {
            config: MatchConfig { shards, ..config },
            devices: Vec::new(),
            signatures: Vec::new(),
            order: Vec::new(),
            placement: Vec::new(),
            kind_keys: Vec::new(),
            shards: vec![Shard::default(); shards],
            frozen: false,
        }
    }

    /// Builds a database from per-device signatures (e.g. the output of
    /// [`SignatureBuilder::finish`](crate::SignatureBuilder::finish)),
    /// packing the reference matrix once, with the default
    /// [`MatchConfig`].
    pub fn from_signatures(signatures: BTreeMap<MacAddr, Signature>) -> Self {
        ReferenceDb::from_signatures_with(signatures, MatchConfig::default())
    }

    /// [`ReferenceDb::from_signatures`] with an explicit shard
    /// configuration.
    pub fn from_signatures_with(
        signatures: BTreeMap<MacAddr, Signature>,
        config: MatchConfig,
    ) -> Self {
        let mut db = ReferenceDb::with_config(config);
        for (device, sig) in signatures {
            // Entries arrive in ascending order, so each lands at the end.
            db.devices.push(device);
            db.signatures.push(sig);
        }
        db.rebuild();
        db
    }

    /// The shard configuration this database was built with.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The configured shard count (occupied or not).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Bytes resident in the packed reference matrices: the rows at the
    /// configured [`RowPrecision`] plus per-row metadata (weights,
    /// reciprocal norms) and the per-block prune summaries.
    /// Retained [`Signature`]s and the index vectors are excluded — this
    /// measures what the sweeps actually touch, the number the
    /// bytes-per-device figures in the [module docs](self#precision-tiers)
    /// come from.
    pub fn row_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|shard| shard.blocks.iter())
            .map(KindBlock::row_bytes)
            .sum()
    }

    /// Position of `device` in the sorted `order` index.
    fn position(&self, device: MacAddr) -> Result<usize, usize> {
        self.order.binary_search_by(|&i| self.devices[i as usize].cmp(&device))
    }

    /// The shard key of a device under the configured strategy.
    fn shard_key(&self, device: MacAddr, signature: &Signature) -> usize {
        let n = self.shards.len();
        if n <= 1 {
            return 0;
        }
        match self.config.strategy {
            ShardStrategy::MacPrefix => {
                // FNV-1a over the OUI: stable, cheap, spreads vendor
                // prefixes uniformly.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in device.oui() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
                (h % n as u64) as usize
            }
            ShardStrategy::DominantHistogram => {
                let mut dominant: Option<&Histogram> = None;
                let mut dominant_total = 0u64;
                for (_, hist) in signature.iter() {
                    if hist.total() > dominant_total {
                        dominant_total = hist.total();
                        dominant = Some(hist);
                    }
                }
                let Some(hist) = dominant else { return 0 };
                // Centre of mass of the dominant histogram, as a
                // fraction of its bin range: nearby distributions get
                // nearby keys (the locality-sensitive property the
                // pruning bound leans on).
                let counts = hist.counts();
                let mass: f64 = counts
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| i as f64 * c as f64)
                    .sum();
                let com = mass / dominant_total as f64 / counts.len().max(1) as f64;
                ((com * n as f64) as usize).min(n - 1)
            }
        }
    }

    /// Inserts or replaces a device's reference signature (online
    /// enrollment).
    ///
    /// Returns the previous signature if the device was already present.
    /// Inserting a new device **appends** one slot to its shard
    /// (amortised `O(row width)`), so building a database by streaming
    /// inserts is linear overall; replacing detaches the old row and
    /// re-attaches the new one, migrating the device to a different
    /// shard when its dominant histogram moved.
    ///
    /// # Errors
    ///
    /// [`CoreError::FrozenDatabase`] after [`ReferenceDb::freeze`], and
    /// [`CoreError::EmptySignature`] for a signature with zero
    /// observations (its all-zero rows could never match anything).
    pub fn insert(
        &mut self,
        device: MacAddr,
        signature: Signature,
    ) -> Result<Option<Signature>, CoreError> {
        if self.frozen {
            return Err(CoreError::FrozenDatabase { device: Some(device) });
        }
        if signature.observation_count() == 0 {
            return Err(CoreError::EmptySignature { device });
        }
        Ok(match self.position(device) {
            Ok(pos) => {
                let row = self.order[pos] as usize;
                let previous = std::mem::replace(&mut self.signatures[row], signature);
                self.detach_row(row);
                let shard = self.shard_key(device, &self.signatures[row]);
                self.attach_row(row, shard, 0);
                Some(previous)
            }
            Err(pos) => {
                let row = self.devices.len();
                self.devices.push(device);
                self.signatures.push(signature);
                self.order.insert(pos, row as u32);
                self.placement.push(Placement::default());
                let shard = self.shard_key(device, &self.signatures[row]);
                self.attach_row(row, shard, 0);
                None
            }
        })
    }

    /// Removes a device, returning its signature (`Ok(None)` when the
    /// device was not enrolled). Shard membership, per-shard slots and
    /// the sorted address index all stay consistent, so a later
    /// [`ReferenceDb::insert`] of the same or another device scores
    /// identically to a freshly built database.
    ///
    /// # Errors
    ///
    /// [`CoreError::FrozenDatabase`] after [`ReferenceDb::freeze`].
    pub fn remove(&mut self, device: &MacAddr) -> Result<Option<Signature>, CoreError> {
        if self.frozen {
            return Err(CoreError::FrozenDatabase { device: Some(*device) });
        }
        let Ok(pos) = self.position(*device) else {
            return Ok(None);
        };
        let row = self.order.remove(pos) as usize;
        self.detach_row(row);
        self.devices.remove(row);
        let sig = self.signatures.remove(row);
        self.placement.remove(row);
        for idx in &mut self.order {
            if *idx as usize > row {
                *idx -= 1;
            }
        }
        // Global rows above the removed one shifted down by one; the
        // shard directories index by global row and must follow.
        for shard in &mut self.shards {
            for r in &mut shard.rows {
                if *r as usize > row {
                    *r -= 1;
                }
            }
        }
        Ok(Some(sig))
    }

    /// Ends the enrollment phase: every subsequent [`ReferenceDb::insert`]
    /// or [`ReferenceDb::remove`] is rejected with
    /// [`CoreError::FrozenDatabase`], so a detection phase holding this
    /// database matches against a stable reference set. Freezing is
    /// idempotent and one-way; to keep enrolling, freeze a
    /// [`ReferenceDb::snapshot`] instead and retain the original.
    ///
    /// Matching never requires a frozen database — freezing is the
    /// lifecycle *guard*, not a precondition.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// `true` once [`ReferenceDb::freeze`] (or
    /// [`ReferenceDb::snapshot`]) sealed this database.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// A frozen copy of the current state: the detection-phase view of a
    /// database that keeps enrolling. The original stays mutable.
    pub fn snapshot(&self) -> ReferenceDb {
        let mut copy = self.clone();
        copy.frozen = true;
        copy
    }

    /// The signature of a device, if present.
    pub fn get(&self, device: &MacAddr) -> Option<&Signature> {
        self.position(*device).ok().map(|pos| &self.signatures[self.order[pos] as usize])
    }

    /// `true` if the device has a reference signature.
    pub fn contains(&self, device: &MacAddr) -> bool {
        self.position(*device).is_ok()
    }

    /// Number of reference devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Iterates `(device, signature)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (MacAddr, &Signature)> {
        self.order.iter().map(|&i| (self.devices[i as usize], &self.signatures[i as usize]))
    }

    /// The devices in the database, in address order.
    pub fn devices(&self) -> impl Iterator<Item = MacAddr> + '_ {
        self.order.iter().map(|&i| self.devices[i as usize])
    }

    /// Attaches global row `row` to shard `shard_idx`: appends a slot and
    /// writes the device's per-kind vectors, creating blocks for
    /// `(kind, bins)` pairs the shard sees for the first time with
    /// columns of at least `cap` slots (a bulk build passes the shard's
    /// final size, so its columns never grow; an insert passes 0).
    fn attach_row(&mut self, row: usize, shard_idx: usize, cap: usize) {
        let ReferenceDb { config, signatures, placement, kind_keys, shards, .. } = self;
        let precision = config.precision;
        let shard = &mut shards[shard_idx];
        let slot = shard.rows.len();
        shard.rows.push(row as u32);
        for block in &mut shard.blocks {
            block.push_empty_slot();
        }
        placement[row] = Placement { shard: shard_idx as u16, slot: slot as u32 };
        let sig = &signatures[row];
        let slots = shard.rows.len();
        for (kind, hist) in sig.iter() {
            if hist.total() == 0 {
                continue;
            }
            let bins = hist.counts().len();
            let idx = match shard
                .blocks
                .binary_search_by(|b| (b.kind, b.bins).cmp(&(kind, bins)))
            {
                Ok(i) => i,
                Err(i) => {
                    shard.blocks.insert(i, KindBlock::empty(kind, bins, slots, cap, precision));
                    i
                }
            };
            shard.blocks[idx].set_slot(slot, hist, sig.weight(kind) as f32);
            if let Err(i) = kind_keys.binary_search(&(kind, bins)) {
                kind_keys.insert(i, (kind, bins));
            }
        }
    }

    /// Detaches global row `row` from its shard: drops its slot (the
    /// shard's last resident moves into it) and repairs the affected
    /// prune summaries (the envelope may shrink).
    fn detach_row(&mut self, row: usize) {
        let Placement { shard: shard_idx, slot } = self.placement[row];
        let ReferenceDb { placement, kind_keys, shards, .. } = self;
        let shard = &mut shards[shard_idx as usize];
        shard.rows.swap_remove(slot as usize);
        if let Some(&moved) = shard.rows.get(slot as usize) {
            placement[moved as usize].slot = slot;
        }
        let slot = slot as usize;
        for block in &mut shard.blocks {
            block.remove_slot(slot);
        }
        let blocks = shard.blocks.len();
        shard.blocks.retain(|b| b.wmax > 0.0);
        if shard.blocks.len() < blocks {
            // A key no shard holds any more leaves `kind_keys`, so the
            // sweeps stop packing candidate rows nothing can score.
            kind_keys.retain(|&(kind, bins)| shards.iter().any(|s| s.block(kind, bins).is_some()));
        }
    }

    /// Repacks the index, the shard directory and the per-kind matrices
    /// from the current signatures (bulk construction). Every block's
    /// columns are sized to their shard's final slot count up front, so
    /// they end packed at exact size.
    fn rebuild(&mut self) {
        let n = self.devices.len();
        self.order = (0..n as u32).collect();
        self.order.sort_by_key(|&i| self.devices[i as usize]);
        self.placement = vec![Placement::default(); n];
        self.kind_keys.clear();
        let shards = self.shards.len();
        self.shards = vec![Shard::default(); shards];
        let keys: Vec<usize> =
            (0..n).map(|row| self.shard_key(self.devices[row], &self.signatures[row])).collect();
        let mut sizes = vec![0; shards];
        for &key in &keys {
            sizes[key] += 1;
        }
        for (row, &key) in keys.iter().enumerate() {
            self.attach_row(row, key, sizes[key]);
        }
    }

    /// Algorithm 1, the **dense** sweep: every reference's score against
    /// each candidate of a tile — the full similarity vectors the
    /// similarity test thresholds.
    ///
    /// For each reference `rᵢ` the score is
    /// `simᵢ = Σ_{ftype ∈ Sig(c)} weight^ftype(rᵢ) · sim(hist^ftype(c), hist^ftype(rᵢ))`,
    /// i.e. the per-frame-type histogram similarities weighted by the
    /// **reference's** frame-type distribution. Scores lie in `[0, 1]`.
    ///
    /// The `K` candidates share one pass over the reference rows
    /// (matrix–matrix instead of `K` matrix–vector sweeps): each row is
    /// loaded once and dotted against all of them while hot in cache.
    /// Every occupied shard is visited, and the result is bit-for-bit the
    /// flat (`shards == 1`) layout's. The returned [`TileView`] borrows
    /// `scratch` and exposes one [`MatchView`] per candidate, in input
    /// order. One candidate is a tile of one
    /// (`std::slice::from_ref(&candidate)`); callers batching many
    /// windows chunk them by [`MATCH_TILE`].
    ///
    /// `measure` has one value, [`SimilarityMeasure::Cosine`]; the
    /// argument is kept for the benchmark harness.
    pub fn match_tile<'s, C: Borrow<Signature>>(
        &self,
        candidates: &[C],
        _measure: SimilarityMeasure,
        scratch: &'s mut MatchScratch,
    ) -> TileView<'s> {
        let n = self.devices.len();
        let k = candidates.len();
        self.pack_candidates(candidates, scratch);
        scratch.active.clear();
        scratch.active.resize(k, true);
        scratch.scores.clear();
        scratch.scores.resize(k * n, 0.0);
        let mut swept = 0;
        for shard in self.shards.iter().filter(|s| !s.rows.is_empty()) {
            self.sweep_shard(shard, scratch);
            swept += k;
            // Scatter the shard's slots to their global rows.
            let slots = shard.rows.len();
            for (c, shard_scores) in scratch.shard_scores.chunks_exact(slots).enumerate() {
                let scores = &mut scratch.scores[c * n..(c + 1) * n];
                for (&r, &s) in shard.rows.iter().zip(shard_scores) {
                    scores[r as usize] = s;
                }
            }
        }
        scratch.prune = PruneStats { swept_shards: swept, pruned_shards: 0 };
        // Emit (device, score) pairs: candidate-major, address order
        // within each candidate (the order every view API documents).
        scratch.pairs.clear();
        scratch.pairs.reserve(k * n);
        for c in 0..k {
            let scores = &scratch.scores[c * n..(c + 1) * n];
            scratch
                .pairs
                .extend(self.order.iter().map(|&i| (self.devices[i as usize], scores[i as usize])));
        }
        TileView { pairs: &scratch.pairs, n, k }
    }

    /// Algorithm 1, the **pruned** sweep: the `k` most similar references
    /// to each candidate of a tile, best first — the ranking the
    /// identification test takes its argmax from.
    ///
    /// Per shard and frame kind the store keeps an upper envelope of the
    /// normalised rows plus the maximum reference weight. One dot against
    /// the envelope bounds every resident device's cosine from above
    /// (frequencies are non-negative), so `Σ_kind wmax · min(1,
    /// ĉ·envelope)` bounds every resident score. Shards are visited in
    /// descending order of their best bound over the tile, and each
    /// candidate decides for itself: one whose bound for the shard (plus
    /// [`F32_SCORE_TOLERANCE`] of rounding slack) falls below its current
    /// `k`-th best skips it, while the shard's rows are loaded once for
    /// every candidate still active. The bound is admissible, so each
    /// ranking equals the dense sweep's [`SimilarityVector::top`] exactly:
    /// same devices, same scores, same deterministic tie order.
    ///
    /// [`MatchScratch::prune_stats`] counts the (candidate, shard)
    /// decisions, aggregated over the tile.
    pub fn match_topk_tile<C: Borrow<Signature>>(
        &self,
        candidates: &[C],
        k: usize,
        scratch: &mut MatchScratch,
    ) -> Vec<Vec<(MacAddr, f64)>> {
        let kc = candidates.len();
        scratch.prune = PruneStats::default();
        if k == 0 || self.devices.is_empty() || kc == 0 {
            return vec![Vec::new(); kc];
        }
        self.pack_candidates(candidates, scratch);
        self.bound_shards(kc, scratch);
        let mut tops: Vec<Vec<(MacAddr, f64)>> = vec![Vec::new(); kc];
        for bi in 0..scratch.shard_bounds.len() {
            let si = scratch.shard_bounds[bi].0 as usize;
            let shard = &self.shards[si];
            // Each candidate decides for itself; the shard is scored
            // once for whoever is left. Bounds are admissible, so a
            // skipped (candidate, shard) pair could not have changed
            // that candidate's top-k.
            scratch.active.clear();
            for (ci, top) in tops.iter().enumerate() {
                let pruned = top.len() >= k && scratch.tile_bounds[si * kc + ci] < top[k - 1].1;
                scratch.active.push(!pruned);
            }
            let live = scratch.active.iter().filter(|&&a| a).count();
            scratch.prune.swept_shards += live;
            scratch.prune.pruned_shards += kc - live;
            if live == 0 {
                continue;
            }
            self.sweep_shard(shard, scratch);
            // Merge the shard into each active candidate's running
            // top-k, kept sorted by rank at all times: entries that
            // cannot outrank the current k-th best are dropped,
            // survivors are placed by binary insertion (k is small).
            // Candidates with packed kinds absent from this shard merge
            // zeros, exactly like the dense sweep.
            let slots = shard.rows.len();
            for (ci, tops_c) in tops.iter_mut().enumerate() {
                if !scratch.active[ci] {
                    continue;
                }
                let shard_scores = &scratch.shard_scores[ci * slots..(ci + 1) * slots];
                // A score strictly below the k-th best cannot outrank it,
                // so most slots cost one comparison; only a tie needs the
                // address.
                let mut floor = tops_c.get(k - 1).map_or(f64::NEG_INFINITY, |e| e.1);
                for (&r, &s) in shard.rows.iter().zip(shard_scores) {
                    if s < floor {
                        continue;
                    }
                    let entry = (self.devices[r as usize], s);
                    if tops_c.len() >= k
                        && rank_desc(&entry, &tops_c[k - 1]) != std::cmp::Ordering::Less
                    {
                        continue;
                    }
                    let pos = tops_c
                        .partition_point(|e| rank_desc(e, &entry) == std::cmp::Ordering::Less);
                    tops_c.insert(pos, entry);
                    tops_c.truncate(k);
                    floor = tops_c.get(k - 1).map_or(f64::NEG_INFINITY, |e| e.1);
                }
            }
        }
        tops
    }

    /// Packs every candidate's rows once per sweep, kind-major: for each
    /// `(kind, bins)` key ascending, the rows of the candidates carrying
    /// it, in candidate order. Candidates binned differently (or missing
    /// the kind) don't join it — incompatible binning carries no
    /// information.
    ///
    /// In both tiers each row is packed as its nonzero `(bin, value)`
    /// entries into `tile_nonzeros`: `f32` frequencies, or the candidate's
    /// own `u8` codes widened exactly to `f32` (the per-row scales cancel
    /// out of cosine). A window's histogram has at most one nonzero bin
    /// per observation, so that list is short.
    fn pack_candidates<C: Borrow<Signature>>(&self, candidates: &[C], scratch: &mut MatchScratch) {
        let quantized = self.config.precision == RowPrecision::U8;
        let MatchScratch { tile_nonzeros, packed, kind_spans, .. } = scratch;
        tile_nonzeros.clear();
        packed.clear();
        kind_spans.clear();
        for &(kind, bins) in &self.kind_keys {
            let start = packed.len();
            for (cand, sig) in candidates.iter().enumerate() {
                let Some(hist) = sig.borrow().histogram(kind) else { continue };
                // An empty candidate histogram matches nothing.
                if hist.total() == 0 || hist.counts().len() != bins {
                    continue;
                }
                let nonzeros_start = tile_nonzeros.len();
                let inv = if quantized {
                    let q = hist.frequencies_u8();
                    tile_nonzeros.extend(nonzero_bins(q.values().iter().map(|&c| f32::from(c))));
                    q.inv_norm()
                } else {
                    let freqs = hist.frequencies_f32();
                    tile_nonzeros.extend(nonzero_bins(freqs.iter().copied()));
                    inv_norm(freqs)
                };
                packed.push(PackedRow {
                    cand,
                    nonzeros: nonzeros_start..tile_nonzeros.len(),
                    inv_norm: f64::from(inv),
                });
            }
            kind_spans.push(start..packed.len());
        }
    }

    /// Orders the occupied shards for the pruned sweep. Fills
    /// `tile_bounds[shard * K + candidate]` with an upper bound on any
    /// resident's score against the candidate — `Σ_kind wmax ·
    /// min(1, ĉ·envelope)` plus slack — and `shard_bounds` with the
    /// occupied shards in descending order of their best bound over the tile
    /// (which for a tile of one is the candidate's own order). The
    /// envelope dot runs over the candidate's nonzero bins only.
    fn bound_shards(&self, kc: usize, scratch: &mut MatchScratch) {
        let MatchScratch { tile_nonzeros, packed, kind_spans, tile_bounds, shard_bounds, .. } =
            scratch;
        tile_bounds.clear();
        tile_bounds.resize(self.shards.len() * kc, 0.0);
        shard_bounds.clear();
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.rows.is_empty() {
                continue;
            }
            let bounds = &mut tile_bounds[si * kc..(si + 1) * kc];
            for (&(kind, bins), span) in self.kind_keys.iter().zip(kind_spans.iter()) {
                let Some(block) = shard.block(kind, bins) else { continue };
                for e in &packed[span.clone()] {
                    let dot = tile_nonzeros[e.nonzeros.clone()].iter().fold(0.0, |acc, &(bin, c)| {
                        acc + f64::from(c) * f64::from(block.envelope[bin as usize])
                    });
                    let cos_ub = (dot * e.inv_norm).clamp(0.0, 1.0);
                    bounds[e.cand] += f64::from(block.wmax) * cos_ub;
                }
            }
            for bound in bounds.iter_mut() {
                *bound = bound.min(1.0) + PRUNE_BOUND_SLACK;
            }
            let best = bounds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            shard_bounds.push((si as u32, best));
        }
        shard_bounds.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
    }

    /// The one shard walk behind both sweeps: scores `shard`'s resident
    /// rows against every active candidate (`scratch.active`) in either
    /// precision tier, into `scratch.shard_scores` (candidate-major,
    /// `candidate * slots + slot`; zero for inactive candidates and absent
    /// rows).
    ///
    /// Both tiers run as **column passes**: per packed candidate row, the
    /// dots against every slot accumulate at once, `dot[slot] += c ·
    /// column_bin[slot]` over the candidate's nonzero bins only — exact
    /// `u32` sums over `u8` codes, ascending-bin `f64` sums over `f32`
    /// rows (each `f32 × f32` product is exact in `f64`, and a zero bin
    /// would add exactly `+0`) — and one epilogue per slot folds in the
    /// norms and the weight.
    ///
    /// Frame kinds run ascending, so each (candidate, slot) `f64` score
    /// adds its per-kind terms in the flat layout's order, and no term
    /// depends on where its slot sits: every sweep over every shard
    /// layout is bit-identical to the flat dense sweep.
    fn sweep_shard(&self, shard: &Shard, scratch: &mut MatchScratch) {
        let MatchScratch {
            tile_nonzeros, packed, kind_spans, active, dots_u32, dots_f64, shard_scores, ..
        } = scratch;
        let slots = shard.rows.len();
        shard_scores.clear();
        shard_scores.resize(active.len() * slots, 0.0);
        for (&(kind, bins), span) in self.kind_keys.iter().zip(kind_spans.iter()) {
            let Some(block) = shard.block(kind, bins) else { continue };
            let entries = packed[span.clone()].iter().filter(|e| active[e.cand]);
            match &block.store {
                RowStore::U8(rows) => {
                    for e in entries {
                        dots_u32.clear();
                        dots_u32.resize(slots, 0);
                        accumulate_u8(dots_u32, &tile_nonzeros[e.nonzeros.clone()], block, rows);
                        let scores = &mut shard_scores[e.cand * slots..(e.cand + 1) * slots];
                        block.add_cosines(scores, dots_u32.iter().map(|&d| f64::from(d)), e.inv_norm);
                    }
                }
                RowStore::F32(rows) => {
                    for e in entries {
                        dots_f64.clear();
                        dots_f64.resize(slots, 0.0);
                        accumulate_f32(dots_f64, &tile_nonzeros[e.nonzeros.clone()], block, rows);
                        let scores = &mut shard_scores[e.cand * slots..(e.cand + 1) * slots];
                        block.add_cosines(scores, dots_f64.iter().copied(), e.inv_norm);
                    }
                }
            }
        }
    }

    /// The pre-SoA matching path: per-call candidate frequency allocation,
    /// per-device frame-kind lookups, and full-`f64` arithmetic
    /// throughout. Kept so benchmarks can quantify what the matrix layout
    /// buys **and** as the `f64` oracle both sweeps are tested against
    /// (equal output within [`F32_SCORE_TOLERANCE`]).
    #[cfg(any(test, feature = "bench-baseline"))]
    pub fn match_signature_naive(&self, candidate: &Signature) -> MatchOutcome {
        let cand_freqs: Vec<(FrameKind, Vec<f64>)> =
            candidate.iter().map(|(kind, hist)| (kind, hist.frequency_vec())).collect();
        let mut sims = Vec::with_capacity(self.devices.len());
        for (device, sig) in self.iter() {
            let mut sim = 0.0;
            for (kind, cand_freq) in &cand_freqs {
                if let Some(hist) = sig.histogram(*kind) {
                    sim += sig.weight(*kind)
                        * SimilarityMeasure::Cosine.compute(cand_freq, hist.frequencies());
                }
            }
            sims.push((device, sim));
        }
        MatchOutcome { sims }
    }
}

/// One candidate's `u8` column pass: `dots[slot] += c · column_bin[slot]`
/// over its nonzero `(bin, code)` entries, four columns per walk over
/// `dots`. Integer sums are exact, so this is the dense dot's `u32`.
///
/// Four code products sum in `u16` before widening into the `u32` dots:
/// 16-bit multiplies vectorise on the baseline x86-64 ISA, 32-bit ones
/// do not, and codes ≤ [`QUANT_MAX`] keep the sum exact
/// (`4 · 127² < 2¹⁶`).
fn accumulate_u8(dots: &mut [u32], nonzeros: &[(u32, f32)], block: &KindBlock, rows: &[u8]) {
    const _: () = assert!(
        4 * (QUANT_MAX as u32).pow(2) <= u16::MAX as u32,
        "four code products must fit u16"
    );
    // Codes are integers ≤ QUANT_MAX, so the narrowing casts are exact.
    let code = |c: f32| c as u16;
    let mut quads = nonzeros.chunks_exact(4);
    for q in &mut quads {
        let (c0, c1, c2, c3) = (code(q[0].1), code(q[1].1), code(q[2].1), code(q[3].1));
        let (r0, r1) = (block.column(rows, q[0].0), block.column(rows, q[1].0));
        let (r2, r3) = (block.column(rows, q[2].0), block.column(rows, q[3].0));
        for ((((d, &x0), &x1), &x2), &x3) in dots.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            let sum = c0 * u16::from(x0) + c1 * u16::from(x1) + c2 * u16::from(x2) + c3 * u16::from(x3);
            *d += u32::from(sum);
        }
    }
    for &(bin, c) in quads.remainder() {
        let c = code(c);
        for (d, &x) in dots.iter_mut().zip(block.column(rows, bin)) {
            *d += u32::from(c * u16::from(x));
        }
    }
}

/// One candidate's `f32` column pass: `dots[slot] += c · column_bin[slot]`
/// in `f64` over its nonzero `(bin, value)` entries, four columns per
/// walk over `dots`. Each slot still adds its products one at a time in
/// ascending bin order — the additions are left-associated, never
/// regrouped — so the grouping changes no bit.
fn accumulate_f32(dots: &mut [f64], nonzeros: &[(u32, f32)], block: &KindBlock, rows: &[f32]) {
    let mut quads = nonzeros.chunks_exact(4);
    for q in &mut quads {
        let (c0, c1) = (f64::from(q[0].1), f64::from(q[1].1));
        let (c2, c3) = (f64::from(q[2].1), f64::from(q[3].1));
        let (r0, r1) = (block.column(rows, q[0].0), block.column(rows, q[1].0));
        let (r2, r3) = (block.column(rows, q[2].0), block.column(rows, q[3].0));
        for ((((d, &x0), &x1), &x2), &x3) in dots.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *d = *d
                + c0 * f64::from(x0)
                + c1 * f64::from(x1)
                + c2 * f64::from(x2)
                + c3 * f64::from(x3);
        }
    }
    for &(bin, c) in quads.remainder() {
        let c = f64::from(c);
        for (d, &x) in dots.iter_mut().zip(block.column(rows, bin)) {
            *d += c * f64::from(x);
        }
    }
}

/// `1 / ‖row‖₂` from an ascending-bin `f64` sum of squares (each square
/// of an `f32` is exact in `f64`, and the order is fixed, so the norm is
/// the same on every host); 0.0 for an all-zero row.
fn inv_norm(row: &[f32]) -> f32 {
    let norm_sq = row.iter().fold(0.0, |acc, &x| acc + f64::from(x) * f64::from(x));
    if norm_sq > 0.0 {
        (1.0 / norm_sq.sqrt()) as f32
    } else {
        0.0
    }
}

/// The nonzero entries of a row as `(bin, value)` pairs, bins ascending —
/// the sparse form the cosine column passes and the envelope bound read.
fn nonzero_bins(values: impl Iterator<Item = f32>) -> impl Iterator<Item = (u32, f32)> {
    (0u32..).zip(values).filter(|&(_, v)| v != 0.0)
}

/// One packed candidate row of a sweep (see
/// `ReferenceDb::pack_candidates`).
#[derive(Debug, Clone)]
struct PackedRow {
    /// The candidate's index in the tile.
    cand: usize,
    /// The row's range in `MatchScratch::tile_nonzeros`.
    nonzeros: std::ops::Range<usize>,
    /// `1 / ‖row‖₂` of the packed row.
    inv_norm: f64,
}

/// How the last sweep spent its shards (see
/// [`MatchScratch::prune_stats`]), counted per (candidate, occupied
/// shard) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Shards whose rows were actually scored.
    pub swept_shards: usize,
    /// Shards skipped because their score bound could not beat the
    /// current top-k.
    pub pruned_shards: usize,
}

impl PruneStats {
    /// Fraction of the (candidate, occupied shard) pairs the sweep
    /// skipped (0.0 after a dense sweep).
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.swept_shards + self.pruned_shards;
        if total == 0 {
            0.0
        } else {
            self.pruned_shards as f64 / total as f64
        }
    }
}

/// Reusable buffers for [`ReferenceDb::match_tile`] and
/// [`ReferenceDb::match_topk_tile`]: create one per worker, reuse it for
/// every window. Capacity grows to `tile × database size` on first use
/// and is retained afterwards, making the steady state allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Dense sweep: per-(candidate, device) scores, candidate-major,
    /// indexed like `ReferenceDb::devices` (insertion order) within a
    /// candidate.
    scores: Vec<f64>,
    /// Dense sweep: the `(device, similarity)` pairs the returned views
    /// expose — candidate-major, address order within each candidate.
    pairs: Vec<(MacAddr, f64)>,
    /// Every packed row's nonzero `(bin, value)` entries, bins ascending
    /// (see `PackedRow::nonzeros`).
    tile_nonzeros: Vec<(u32, f32)>,
    /// One entry per packed row, kind-major, candidates ascending within
    /// a kind.
    packed: Vec<PackedRow>,
    /// Per `ReferenceDb::kind_keys` entry: its range in `packed`.
    kind_spans: Vec<std::ops::Range<usize>>,
    /// Per candidate: whether the shard being swept scores it.
    active: Vec<bool>,
    /// One candidate's per-slot integer dots (`u8` column pass).
    dots_u32: Vec<u32>,
    /// One candidate's per-slot dots (`f32` column pass).
    dots_f64: Vec<f64>,
    /// Per-(candidate, slot) scores of the shard being swept,
    /// candidate-major.
    shard_scores: Vec<f64>,
    /// Pruned sweep: per-(shard, candidate) score upper bounds, indexed
    /// `shard * tile + candidate`.
    tile_bounds: Vec<f64>,
    /// Pruned sweep: `(shard, best score bound over the tile)`, sorted
    /// descending.
    shard_bounds: Vec<(u32, f64)>,
    /// Shard accounting of the last sweep.
    prune: PruneStats,
}

impl MatchScratch {
    /// Empty scratch; buffers are sized lazily by the first match.
    pub fn new() -> Self {
        MatchScratch::default()
    }

    /// Shard accounting of the most recent sweep through this scratch:
    /// the (candidate, shard) decisions of a
    /// [`ReferenceDb::match_topk_tile`], or — after a dense
    /// [`ReferenceDb::match_tile`] — every (candidate, occupied shard)
    /// pair swept and none pruned.
    pub fn prune_stats(&self) -> PruneStats {
        self.prune
    }
}

/// The similarity vector `<sim₁, …, sim_N>` returned by Algorithm 1: one
/// `(reference device, similarity)` pair per reference, in ascending
/// address order, over borrowed ([`MatchView`]) or owned
/// ([`MatchOutcome`]) storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityVector<S> {
    pub(crate) sims: S,
}

/// A similarity vector borrowed from a [`MatchScratch`]: one candidate
/// of a [`TileView`], valid until the scratch's next sweep.
pub type MatchView<'a> = SimilarityVector<&'a [(MacAddr, f64)]>;

/// An owned similarity vector ([`MatchView::to_outcome`]).
pub type MatchOutcome = SimilarityVector<Vec<(MacAddr, f64)>>;

impl<S: AsRef<[(MacAddr, f64)]>> SimilarityVector<S> {
    /// All `(reference device, similarity)` pairs, in database order.
    pub fn similarities(&self) -> &[(MacAddr, f64)] {
        self.sims.as_ref()
    }

    /// The similarity to one specific reference device.
    pub fn similarity_to(&self, device: &MacAddr) -> Option<f64> {
        // The vector is in ascending device order (database order).
        let sims = self.similarities();
        sims.binary_search_by(|(d, _)| d.cmp(device)).ok().map(|i| sims[i].1)
    }

    /// The similarity test (§IV-B): references whose similarity is at
    /// least `threshold`.
    pub fn above_threshold(&self, threshold: f64) -> impl Iterator<Item = (MacAddr, f64)> + '_ {
        self.similarities().iter().copied().filter(move |&(_, s)| s >= threshold)
    }

    /// The identification test (§IV-B): the single closest reference.
    ///
    /// Ties break toward the lower MAC address for determinism.
    pub fn best(&self) -> Option<(MacAddr, f64)> {
        best_of(self.similarities())
    }

    /// The `k` most similar references, best first, via partial selection
    /// (`O(N + k log k)`) rather than a full sort. Ties order toward the
    /// lower MAC address; `top(1)` agrees with
    /// [`SimilarityVector::best`].
    pub fn top(&self, k: usize) -> Vec<(MacAddr, f64)> {
        let sims = self.similarities();
        if k == 0 || sims.is_empty() {
            return Vec::new();
        }
        if k == 1 {
            // Single scan, no copy of the similarity vector.
            return best_of(sims).into_iter().collect();
        }
        let mut ranked = sims.to_vec();
        let k = k.min(ranked.len());
        if k < ranked.len() {
            // Partial select: everything before index k ranks at least as
            // high as everything after it, in O(N).
            ranked.select_nth_unstable_by(k - 1, rank_desc);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(rank_desc);
        ranked
    }
}

impl MatchView<'_> {
    /// An owned copy of this view.
    pub fn to_outcome(&self) -> MatchOutcome {
        MatchOutcome { sims: self.sims.to_vec() }
    }
}

impl MatchOutcome {
    /// The no-references outcome (used by the engine when scoring of
    /// unknown devices is disabled).
    pub(crate) fn empty() -> MatchOutcome {
        MatchOutcome { sims: Vec::new() }
    }
}

/// A borrowed view of one [`ReferenceDb::match_tile`] result: `K`
/// similarity vectors over the same reference set, one per candidate.
#[derive(Debug, Clone, Copy)]
pub struct TileView<'a> {
    /// Candidate-major `(device, similarity)` pairs; each candidate's
    /// segment is in ascending address order.
    pairs: &'a [(MacAddr, f64)],
    /// References per candidate (the database size at match time).
    n: usize,
    /// Candidates in the tile (kept separately so an empty database
    /// still yields one — empty — view per candidate).
    k: usize,
}

impl<'a> TileView<'a> {
    /// Number of candidates in the tile (the input length, even when the
    /// database was empty).
    pub fn candidate_count(&self) -> usize {
        self.k
    }

    /// The similarity vector of candidate `index` (input order); empty
    /// against an empty database.
    ///
    /// # Panics
    ///
    /// Panics if `index >= candidate_count()`.
    pub fn candidate(&self, index: usize) -> MatchView<'a> {
        assert!(index < self.k, "candidate {index} out of range for tile of {}", self.k);
        MatchView { sims: &self.pairs[index * self.n..(index + 1) * self.n] }
    }

    /// Iterates the per-candidate views in input order (exactly
    /// [`TileView::candidate_count`] of them).
    pub fn views(&self) -> impl Iterator<Item = MatchView<'a>> + '_ {
        (0..self.k).map(|index| self.candidate(index))
    }
}

/// Descending score; equal scores order toward the lower address, so the
/// ranking is deterministic and `top(1)` matches `best()`.
fn rank_desc(a: &(MacAddr, f64), b: &(MacAddr, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
}

pub(crate) fn best_of(sims: &[(MacAddr, f64)]) -> Option<(MacAddr, f64)> {
    sims.iter().copied().min_by(rank_desc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::params::NetworkParameter;
    use proptest::prelude::*;

    fn cfg() -> EvalConfig {
        EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
    }

    fn sig_with(values: &[(FrameKind, f64, u64)]) -> Signature {
        let c = cfg();
        let mut sig = Signature::new();
        for &(kind, value, n) in values {
            for _ in 0..n {
                sig.record(kind, value, &c);
            }
        }
        sig
    }

    /// The dense sweep's similarity vector for one candidate (a tile of
    /// one).
    fn match_one(db: &ReferenceDb, cand: &Signature) -> MatchOutcome {
        let cosine = SimilarityMeasure::Cosine;
        db.match_tile(std::slice::from_ref(cand), cosine, &mut MatchScratch::new())
            .candidate(0)
            .to_outcome()
    }

    /// The pruned sweep's ranking for one candidate (a tile of one).
    fn topk_one(
        db: &ReferenceDb,
        cand: &Signature,
        k: usize,
        scratch: &mut MatchScratch,
    ) -> Vec<(MacAddr, f64)> {
        db.match_topk_tile(std::slice::from_ref(cand), k, scratch).remove(0)
    }

    /// Every shard configuration parity tests sweep over — both
    /// precision tiers, since the consistency invariants (streamed ≡
    /// bulk, churn ≡ fresh, sharded ≡ flat) hold per tier.
    fn strategies() -> Vec<MatchConfig> {
        vec![
            MatchConfig::flat(),
            MatchConfig::default(),
            MatchConfig::default().with_shards(3),
            MatchConfig::default().with_strategy(ShardStrategy::MacPrefix).with_shards(5),
            MatchConfig::flat().with_precision(RowPrecision::U8),
            MatchConfig::quantized(),
            MatchConfig::quantized().with_strategy(ShardStrategy::MacPrefix).with_shards(5),
        ]
    }

    #[test]
    fn identical_signature_scores_one() {
        let sig = sig_with(&[(FrameKind::Data, 500.0, 30), (FrameKind::ProbeReq, 100.0, 10)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), sig.clone()).unwrap();
        let outcome = match_one(&db, &sig);
        let (_, score) = outcome.best().unwrap();
        assert!((score - 1.0).abs() < F32_SCORE_TOLERANCE);
    }

    #[test]
    fn disjoint_histograms_score_zero() {
        let a = sig_with(&[(FrameKind::Data, 100.0, 10)]);
        let b = sig_with(&[(FrameKind::Data, 2000.0, 10)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), a).unwrap();
        let outcome = match_one(&db, &b);
        assert_eq!(outcome.best().unwrap().1, 0.0);
    }

    #[test]
    fn missing_frame_types_contribute_nothing() {
        // Reference only has Data; candidate only has ProbeReq.
        let r = sig_with(&[(FrameKind::Data, 100.0, 10)]);
        let c = sig_with(&[(FrameKind::ProbeReq, 100.0, 10)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), r).unwrap();
        let outcome = match_one(&db, &c);
        assert_eq!(outcome.similarities()[0].1, 0.0);
    }

    #[test]
    fn weights_come_from_the_reference() {
        // Reference: 90% Data at 100 µs, 10% ProbeReq at 200 µs.
        let r = sig_with(&[(FrameKind::Data, 100.0, 90), (FrameKind::ProbeReq, 200.0, 10)]);
        // Candidate matches only the ProbeReq histogram.
        let c = sig_with(&[(FrameKind::ProbeReq, 200.0, 50)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), r).unwrap();
        let outcome = match_one(&db, &c);
        // Score = weight_ref(ProbeReq) × 1.0 = 0.1.
        assert!((outcome.similarities()[0].1 - 0.1).abs() < F32_SCORE_TOLERANCE);
    }

    #[test]
    fn best_picks_highest_similarity() {
        let near = sig_with(&[(FrameKind::Data, 500.0, 40), (FrameKind::Data, 525.0, 10)]);
        let far = sig_with(&[(FrameKind::Data, 1500.0, 50)]);
        let probe = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        let mut db = ReferenceDb::new();
        let d_near = MacAddr::from_index(1);
        let d_far = MacAddr::from_index(2);
        db.insert(d_near, near).unwrap();
        db.insert(d_far, far).unwrap();
        let outcome = match_one(&db, &probe);
        assert_eq!(outcome.best().unwrap().0, d_near);
        assert!(outcome.similarity_to(&d_far).unwrap() < outcome.similarity_to(&d_near).unwrap());
    }

    #[test]
    fn above_threshold_filters() {
        let base = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), base.clone()).unwrap();
        db.insert(MacAddr::from_index(2), sig_with(&[(FrameKind::Data, 2200.0, 50)])).unwrap();
        let outcome = match_one(&db, &base);
        let hits: Vec<_> = outcome.above_threshold(0.9).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, MacAddr::from_index(1));
        assert_eq!(outcome.above_threshold(0.0).count(), 2);
    }

    #[test]
    fn db_crud_operations() {
        let mut db = ReferenceDb::new();
        assert!(db.is_empty());
        let dev = MacAddr::from_index(7);
        let sig = sig_with(&[(FrameKind::Data, 1.0, 5)]);
        assert!(db.insert(dev, sig.clone()).unwrap().is_none());
        assert!(db.contains(&dev));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(&dev), Some(&sig));
        assert_eq!(db.devices().collect::<Vec<_>>(), vec![dev]);
        let replaced = db.insert(dev, sig_with(&[(FrameKind::Data, 2.0, 5)])).unwrap();
        assert_eq!(replaced, Some(sig));
        assert!(db.remove(&dev).unwrap().is_some());
        assert!(db.is_empty());
        assert!(db.remove(&dev).unwrap().is_none(), "absent device removes to None");
    }

    #[test]
    fn empty_signatures_are_rejected() {
        let mut db = ReferenceDb::new();
        let dev = MacAddr::from_index(1);
        match db.insert(dev, Signature::new()) {
            Err(CoreError::EmptySignature { device }) => assert_eq!(device, dev),
            other => panic!("expected EmptySignature, got {other:?}"),
        }
        assert!(db.is_empty());
    }

    #[test]
    fn freeze_guards_mutation_and_snapshot_splits_lifecycle() {
        let mut db = ReferenceDb::new();
        let d1 = MacAddr::from_index(1);
        let d2 = MacAddr::from_index(2);
        let sig = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        db.insert(d1, sig.clone()).unwrap();

        // A frozen snapshot serves detection while enrollment continues.
        let frozen = db.snapshot();
        assert!(frozen.is_frozen());
        assert!(!db.is_frozen());
        db.insert(d2, sig.clone()).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(frozen.len(), 1);

        // Matching works on both sides of the freeze.
        assert_eq!(match_one(&frozen, &sig).best().unwrap().0, d1);

        // Mutating the frozen copy is a typed error, and changes nothing.
        let mut frozen = frozen;
        match frozen.insert(d2, sig.clone()) {
            Err(CoreError::FrozenDatabase { device }) => assert_eq!(device, Some(d2)),
            other => panic!("expected FrozenDatabase, got {other:?}"),
        }
        assert!(matches!(frozen.remove(&d1), Err(CoreError::FrozenDatabase { .. })));
        assert_eq!(frozen.len(), 1);

        // In-place freeze is idempotent.
        db.freeze();
        db.freeze();
        assert!(db.is_frozen());
        assert!(matches!(db.insert(d1, sig), Err(CoreError::FrozenDatabase { .. })));
    }

    #[test]
    fn empty_db_matches_nothing() {
        let db = ReferenceDb::new();
        let outcome = match_one(&db, &sig_with(&[(FrameKind::Data, 1.0, 5)]));
        assert!(outcome.best().is_none());
        assert!(outcome.similarities().is_empty());
        let mut scratch = MatchScratch::new();
        let cand = sig_with(&[(FrameKind::Data, 1.0, 5)]);
        assert!(topk_one(&db, &cand, 3, &mut scratch).is_empty());
    }

    #[test]
    fn tie_breaks_toward_lower_address() {
        let sig = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(5), sig.clone()).unwrap();
        db.insert(MacAddr::from_index(3), sig.clone()).unwrap();
        let outcome = match_one(&db, &sig);
        assert_eq!(outcome.best().unwrap().0, MacAddr::from_index(3));
    }

    #[test]
    fn matrix_sweep_agrees_with_naive_baseline() {
        let mut db = ReferenceDb::new();
        for i in 1..=16u64 {
            let kinds: &[(FrameKind, f64, u64)] = &[
                (FrameKind::Data, 37.0 * i as f64, 40 + i),
                (FrameKind::ProbeReq, 11.0 * i as f64, i),
                (FrameKind::Beacon, 500.0, 3),
            ];
            db.insert(MacAddr::from_index(i), sig_with(kinds)).unwrap();
        }
        let cand =
            sig_with(&[(FrameKind::Data, 370.0, 55), (FrameKind::ProbeReq, 110.0, 7)]);
        let fast = match_one(&db, &cand);
        let naive = db.match_signature_naive(&cand);
        assert_eq!(fast.similarities().len(), naive.similarities().len());
        for (f, n) in fast.similarities().iter().zip(naive.similarities()) {
            assert_eq!(f.0, n.0);
            // The f32 rows round each frequency once; the f64
            // accumulation keeps the drift within the documented
            // tolerance of the all-f64 baseline.
            assert!((f.1 - n.1).abs() < F32_SCORE_TOLERANCE, "{} vs {}", f.1, n.1);
        }
    }

    #[test]
    fn match_tile_equals_independent_matches() {
        let mut db = ReferenceDb::new();
        for i in 1..=12u64 {
            db.insert(
                MacAddr::from_index(i),
                sig_with(&[
                    (FrameKind::Data, 61.0 * i as f64, 30 + i),
                    (FrameKind::Beacon, 40.0 * i as f64, 4),
                ]),
            ).unwrap();
        }
        // A mixed tile: plain candidates, one missing a kind, one empty.
        let candidates = vec![
            sig_with(&[(FrameKind::Data, 122.0, 40)]),
            sig_with(&[(FrameKind::Beacon, 80.0, 9), (FrameKind::Data, 600.0, 11)]),
            Signature::new(),
            sig_with(&[(FrameKind::ProbeReq, 10.0, 25)]),
        ];
        let mut scratch = MatchScratch::new();
        let tile = db.match_tile(&candidates, SimilarityMeasure::Cosine, &mut scratch);
        assert_eq!(tile.candidate_count(), candidates.len());
        let views: Vec<MatchOutcome> = tile.views().map(|v| v.to_outcome()).collect();
        for (cand, got) in candidates.iter().zip(views) {
            assert_eq!(got, match_one(&db, cand));
        }
    }

    #[test]
    fn tile_against_empty_db_yields_one_empty_view_per_candidate() {
        let db = ReferenceDb::new();
        let candidates = vec![
            sig_with(&[(FrameKind::Data, 100.0, 10)]),
            sig_with(&[(FrameKind::Beacon, 50.0, 5)]),
        ];
        let mut scratch = MatchScratch::new();
        let tile = db.match_tile(&candidates, SimilarityMeasure::Cosine, &mut scratch);
        assert_eq!(tile.candidate_count(), 2);
        assert_eq!(tile.views().count(), 2);
        for i in 0..2 {
            let view = tile.candidate(i);
            assert!(view.similarities().is_empty());
            assert!(view.best().is_none());
            assert!(view.top(3).is_empty());
        }
    }

    #[test]
    fn streaming_inserts_equal_bulk_pack() {
        // The incremental append path must produce a database that scores
        // identically to the one-shot pack — per shard configuration.
        for config in strategies() {
            let sigs: Vec<(MacAddr, Signature)> = (1..=9u64)
                .map(|i| {
                    (
                        // Out-of-order addresses exercise the sorted index.
                        MacAddr::from_index((i * 7) % 9 + 1),
                        sig_with(&[
                            (FrameKind::Data, 83.0 * i as f64, 20 + i),
                            (FrameKind::ProbeReq, 31.0 * i as f64, i % 3),
                        ]),
                    )
                })
                .collect();
            let mut streamed = ReferenceDb::with_config(config);
            for (dev, sig) in &sigs {
                streamed.insert(*dev, sig.clone()).unwrap();
            }
            let bulk = ReferenceDb::from_signatures_with(sigs.into_iter().collect(), config);
            assert_eq!(
                streamed.devices().collect::<Vec<_>>(),
                bulk.devices().collect::<Vec<_>>()
            );
            let cand = sig_with(&[(FrameKind::Data, 249.0, 33), (FrameKind::ProbeReq, 62.0, 5)]);
            let a = match_one(&streamed, &cand);
            let b = match_one(&bulk, &cand);
            assert_eq!(a.similarities(), b.similarities(), "{config:?}");
            // Replacement detaches and re-attaches (possibly migrating
            // shards) and stays consistent too.
            let dev = streamed.devices().next().unwrap();
            let replacement = sig_with(&[(FrameKind::Beacon, 700.0, 12)]);
            streamed.insert(dev, replacement.clone()).unwrap();
            let mut bulk_map: BTreeMap<MacAddr, Signature> =
                bulk.iter().map(|(d, s)| (d, s.clone())).collect();
            bulk_map.insert(dev, replacement);
            let repacked = ReferenceDb::from_signatures_with(bulk_map, config);
            let a = match_one(&streamed, &cand);
            let b = match_one(&repacked, &cand);
            assert_eq!(a.similarities(), b.similarities(), "{config:?}");
        }
    }

    #[test]
    fn remove_then_insert_keeps_shards_and_index_consistent() {
        // Regression for the sharded store: any interleaving of removes
        // and (re-)inserts must leave shard membership, slots and the
        // sorted address index scoring exactly like a freshly built
        // database.
        for config in strategies() {
            let sig_for = |i: u64| {
                sig_with(&[
                    (FrameKind::Data, 190.0 * (i % 13) as f64, 25 + i),
                    (FrameKind::ProbeReq, 60.0 * (i % 5) as f64, 4 + i % 3),
                ])
            };
            let mut db = ReferenceDb::with_config(config);
            for i in 1..=12u64 {
                db.insert(MacAddr::from_index(i), sig_for(i)).unwrap();
            }
            // Remove from the middle and both ends (stressing the
            // global-row shift), then re-insert one with a *different*
            // signature so it may migrate shards.
            for i in [6u64, 1, 12] {
                assert!(db.remove(&MacAddr::from_index(i)).unwrap().is_some(), "{config:?}");
            }
            db.insert(MacAddr::from_index(6), sig_for(99)).unwrap();
            db.insert(MacAddr::from_index(13), sig_for(13)).unwrap();

            let mut fresh_map: BTreeMap<MacAddr, Signature> = BTreeMap::new();
            for i in 2..=11u64 {
                fresh_map.insert(MacAddr::from_index(i), sig_for(i));
            }
            fresh_map.insert(MacAddr::from_index(6), sig_for(99));
            fresh_map.insert(MacAddr::from_index(13), sig_for(13));
            let fresh = ReferenceDb::from_signatures_with(fresh_map, config);

            assert_eq!(
                db.devices().collect::<Vec<_>>(),
                fresh.devices().collect::<Vec<_>>(),
                "{config:?}: address index"
            );
            let mut scratch = MatchScratch::new();
            for probe in [sig_for(99), sig_for(3), sig_for(13)] {
                let a = match_one(&db, &probe);
                let b = match_one(&fresh, &probe);
                assert_eq!(a.similarities(), b.similarities(), "{config:?}: dense parity");
                let ta = topk_one(&db, &probe, 4, &mut scratch);
                assert_eq!(ta, b.top(4), "{config:?}: pruned parity after churn");
            }
        }
    }

    #[test]
    fn sharded_dense_sweep_is_bit_identical_to_flat() {
        let sigs: Vec<(MacAddr, Signature)> = (1..=24u64)
            .map(|i| {
                (
                    MacAddr::from_index(i),
                    sig_with(&[
                        (FrameKind::Data, 97.0 * (i % 11) as f64, 30 + i),
                        (FrameKind::Beacon, 45.0 * (i % 4) as f64, i % 6),
                    ]),
                )
            })
            .collect();
        let cand = sig_with(&[(FrameKind::Data, 291.0, 40), (FrameKind::Beacon, 90.0, 6)]);
        for config in strategies() {
            // The flat baseline shares the config's precision: the
            // bit-identity claim is per tier.
            let flat = ReferenceDb::from_signatures_with(
                sigs.iter().cloned().collect(),
                MatchConfig::flat().with_precision(config.precision),
            );
            let sharded = ReferenceDb::from_signatures_with(sigs.iter().cloned().collect(), config);
            let a = match_one(&sharded, &cand);
            let b = match_one(&flat, &cand);
            // Bit-identical, not merely within tolerance: the sweep
            // accumulates per device in the same kind order.
            assert_eq!(a.similarities(), b.similarities(), "{config:?}");
        }
    }

    #[test]
    fn pruned_topk_equals_dense_topk() {
        let mut db = ReferenceDb::with_config(MatchConfig::default().with_shards(8));
        for i in 1..=40u64 {
            db.insert(
                MacAddr::from_index(i),
                sig_with(&[
                    (FrameKind::Data, 60.0 * (i % 16) as f64, 40),
                    (FrameKind::ProbeReq, 30.0 * (i % 7) as f64, 5),
                ]),
            )
            .unwrap();
        }
        let mut scratch = MatchScratch::new();
        for probe_seed in [1u64, 7, 15] {
            let cand = sig_with(&[(FrameKind::Data, 60.0 * (probe_seed % 16) as f64, 45)]);
            let dense = match_one(&db, &cand);
            for k in [1usize, 3, 10, 40, 100] {
                let pruned = topk_one(&db, &cand, k, &mut scratch);
                assert_eq!(pruned, dense.top(k), "seed {probe_seed}, k {k}");
                let stats = scratch.prune_stats();
                assert!(stats.swept_shards + stats.pruned_shards > 0);
            }
        }
        // Tile form agrees with the per-candidate form.
        let cands: Vec<Signature> = (1..=5u64)
            .map(|i| sig_with(&[(FrameKind::Data, 60.0 * (i % 16) as f64, 45)]))
            .collect();
        let tiled = db.match_topk_tile(&cands, 3, &mut scratch);
        for (cand, got) in cands.iter().zip(&tiled) {
            assert_eq!(got, &match_one(&db, cand).top(3));
        }
    }

    #[test]
    fn pruned_topk_actually_prunes_separated_populations() {
        // Devices concentrated at well-separated dominant bins: a probe
        // near one cluster must not sweep every shard.
        let mut db = ReferenceDb::with_config(MatchConfig::default().with_shards(16));
        for i in 0..160u64 {
            let center = 150.0 * (i % 16) as f64 + 10.0;
            db.insert(MacAddr::from_index(i + 1), sig_with(&[(FrameKind::Data, center, 60)]))
                .unwrap();
        }
        let cand = sig_with(&[(FrameKind::Data, 310.0, 60)]);
        let mut scratch = MatchScratch::new();
        let pruned = topk_one(&db, &cand, 3, &mut scratch);
        assert_eq!(pruned, match_one(&db, &cand).top(3));
        let stats = scratch.prune_stats();
        assert!(
            stats.pruned_shards > 0,
            "expected pruning on separated clusters, got {stats:?}"
        );
        assert!(stats.pruned_fraction() > 0.0 && stats.pruned_fraction() < 1.0);
    }

    #[test]
    fn every_sweep_sets_prune_stats() {
        // A pruned sweep followed by a dense one through the same scratch:
        // the dense sweep reports its own accounting, not the last top-k's.
        let mut db = ReferenceDb::with_config(MatchConfig::default().with_shards(16));
        for i in 0..160u64 {
            let center = 150.0 * (i % 16) as f64 + 10.0;
            db.insert(MacAddr::from_index(i + 1), sig_with(&[(FrameKind::Data, center, 60)]))
                .unwrap();
        }
        let occupied = db.shards.iter().filter(|s| !s.rows.is_empty()).count();
        assert!(occupied > 1);
        let cands = vec![
            sig_with(&[(FrameKind::Data, 310.0, 60)]),
            sig_with(&[(FrameKind::Data, 1210.0, 60)]),
        ];
        let mut scratch = MatchScratch::new();
        db.match_topk_tile(&cands, 3, &mut scratch);
        let pruned = scratch.prune_stats();
        assert!(pruned.pruned_shards > 0, "{pruned:?}");
        assert_eq!(pruned.swept_shards + pruned.pruned_shards, 2 * occupied);
        db.match_tile(&cands, SimilarityMeasure::Cosine, &mut scratch);
        assert_eq!(
            scratch.prune_stats(),
            PruneStats { swept_shards: 2 * occupied, pruned_shards: 0 }
        );
        // A sweep with nothing to rank resets it.
        db.match_topk_tile(&cands, 0, &mut scratch);
        assert_eq!(scratch.prune_stats(), PruneStats::default());
    }

    #[test]
    fn top_k_ranks_and_ties_deterministically() {
        let mut db = ReferenceDb::new();
        for i in 1..=10u64 {
            db.insert(MacAddr::from_index(i), sig_with(&[(FrameKind::Data, 55.0 * i as f64, 40)])).unwrap();
        }
        let cand = sig_with(&[(FrameKind::Data, 165.0, 40)]);
        let outcome = match_one(&db, &cand);
        let full: Vec<_> = {
            let mut v = outcome.similarities().to_vec();
            v.sort_by(rank_desc);
            v
        };
        for k in [0, 1, 3, 10, 25] {
            let top = outcome.top(k);
            assert_eq!(top.len(), k.min(full.len()));
            assert_eq!(top, full[..top.len()].to_vec(), "k = {k}");
        }
        assert_eq!(outcome.top(1)[0], outcome.best().unwrap());
        // Exact ties (identical references) rank by ascending address —
        // in the dense ranking AND the pruned sweep.
        let sig = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        let mut tied = ReferenceDb::new();
        for i in [5u64, 2, 9] {
            tied.insert(MacAddr::from_index(i), sig.clone()).unwrap();
        }
        let top = match_one(&tied, &sig).top(2);
        assert_eq!(top[0].0, MacAddr::from_index(2));
        assert_eq!(top[1].0, MacAddr::from_index(5));
        let mut scratch = MatchScratch::new();
        let pruned = topk_one(&tied, &sig, 2, &mut scratch);
        assert_eq!(pruned, top);
    }

    #[test]
    fn mixed_bin_specs_keep_every_reference_scoreable() {
        // Two references binned differently for the same kind: each must
        // still score against a candidate with its own spec (sibling
        // blocks keyed on (kind, bins)).
        let fine = cfg(); // 10 µs bins
        let coarse = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
            .with_bins(crate::histogram::BinSpec::uniform_to(2500.0, 50.0));
        let build = |c: &EvalConfig| {
            let mut s = Signature::new();
            for _ in 0..50 {
                s.record(FrameKind::Data, 400.0, c);
            }
            s
        };
        let mut db = ReferenceDb::new();
        let d_fine = MacAddr::from_index(1);
        let d_coarse = MacAddr::from_index(2);
        db.insert(d_fine, build(&fine)).unwrap();
        db.insert(d_coarse, build(&coarse)).unwrap();
        for (cand_cfg, expect_dev) in [(&fine, d_fine), (&coarse, d_coarse)] {
            let outcome = match_one(&db, &build(cand_cfg));
            assert!((outcome.similarity_to(&expect_dev).unwrap() - 1.0).abs() < F32_SCORE_TOLERANCE);
            let naive = db.match_signature_naive(&build(cand_cfg));
            for (f, n) in outcome.similarities().iter().zip(naive.similarities()) {
                assert_eq!(f.0, n.0);
                assert!((f.1 - n.1).abs() < F32_SCORE_TOLERANCE);
            }
        }
    }

    #[test]
    fn incompatible_bin_widths_score_zero_not_panic() {
        // Reference built with the default inter-arrival bins; candidate
        // with a coarser spec ⇒ different bin counts for the same kind.
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), sig_with(&[(FrameKind::Data, 100.0, 50)])).unwrap();
        let coarse = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
            .with_bins(crate::histogram::BinSpec::uniform_to(2500.0, 100.0));
        let mut cand = Signature::new();
        for _ in 0..50 {
            cand.record(FrameKind::Data, 100.0, &coarse);
        }
        let outcome = match_one(&db, &cand);
        assert_eq!(outcome.similarities()[0].1, 0.0);
    }

    #[test]
    fn quantized_self_match_scores_one() {
        // Cosine of a row with itself survives quantization exactly (up
        // to the norm rounding): codes dotted against themselves cancel
        // their own inverse norm.
        let sig = sig_with(&[(FrameKind::Data, 500.0, 30), (FrameKind::ProbeReq, 100.0, 10)]);
        let mut db = ReferenceDb::with_config(MatchConfig::quantized());
        db.insert(MacAddr::from_index(1), sig.clone()).unwrap();
        let (_, score) = match_one(&db, &sig).best().unwrap();
        assert!((score - 1.0).abs() < F32_SCORE_TOLERANCE, "self-cosine {score}");
    }

    #[test]
    fn quantized_rows_halve_the_resident_bytes() {
        let sigs: Vec<(MacAddr, Signature)> = (1..=32u64)
            .map(|i| {
                (
                    MacAddr::from_index(i),
                    sig_with(&[
                        (FrameKind::Data, 70.0 * (i % 12) as f64, 40),
                        (FrameKind::ProbeReq, 35.0 * (i % 5) as f64, 6),
                    ]),
                )
            })
            .collect();
        let f32_db = ReferenceDb::from_signatures_with(
            sigs.iter().cloned().collect(),
            MatchConfig::default(),
        );
        let u8_db = ReferenceDb::from_signatures_with(
            sigs.iter().cloned().collect(),
            MatchConfig::quantized(),
        );
        let (f32_bytes, u8_bytes) = (f32_db.row_bytes(), u8_db.row_bytes());
        // Exact per-device bytes, the shared per-block envelopes set
        // aside: two kinds of 251 bins, each row with a weight and an
        // inverse norm (8 B) and nothing else.
        let per_device = |db: &ReferenceDb| {
            let blocks = db.shards.iter().flat_map(|s| &s.blocks);
            let envelopes: usize = blocks.map(|b| 4 * b.envelope.len()).sum();
            (db.row_bytes() - envelopes) / db.len()
        };
        assert_eq!((per_device(&f32_db), per_device(&u8_db)), (2 * (251 * 4 + 8), 2 * (251 + 8)));
        // The acceptance bar is "halved"; with rows dominating the
        // metadata the quantized tier actually lands near a quarter.
        assert!(
            u8_bytes * 2 <= f32_bytes,
            "u8 tier holds {u8_bytes} B vs f32's {f32_bytes} B"
        );
    }

    #[test]
    fn u8_column_pass_peak_codes_do_not_saturate() {
        // Equal counts in every occupied bin quantize every code to
        // QUANT_MAX, so each quad of the column pass sums four 127²
        // products in u16: the worst case its const-assert admits. Four to
        // nine bins cover one and two quads with and without a remainder.
        for occupied in 4..=9u32 {
            let bins: Vec<_> =
                (0..occupied).map(|i| (FrameKind::Data, 100.0 * f64::from(i), 10)).collect();
            let sig = sig_with(&bins);
            let codes = sig.histogram(FrameKind::Data).unwrap().frequencies_u8();
            assert!(codes.values().iter().all(|&c| c == 0 || c == QUANT_MAX));
            let mut db = ReferenceDb::with_config(MatchConfig::quantized());
            db.insert(MacAddr::from_index(1), sig.clone()).unwrap();
            let (_, score) = match_one(&db, &sig).best().unwrap();
            assert!((score - 1.0).abs() < F32_SCORE_TOLERANCE, "{occupied} bins: {score}");
        }
    }

    #[test]
    fn tile_wide_pruned_sweep_prunes_per_candidate() {
        // Well-separated clusters, a full K=8 tile of probes aimed at
        // different clusters: every candidate's top-k must equal its
        // dense ranking while the tile as a whole skips shards — in both
        // precision tiers.
        for precision in [RowPrecision::F32, RowPrecision::U8] {
            let config =
                MatchConfig::default().with_shards(16).with_precision(precision);
            let mut db = ReferenceDb::with_config(config);
            for i in 0..160u64 {
                let center = 150.0 * (i % 16) as f64 + 10.0;
                db.insert(MacAddr::from_index(i + 1), sig_with(&[(FrameKind::Data, center, 60)]))
                    .unwrap();
            }
            let cands: Vec<Signature> = (0..8u64)
                .map(|i| sig_with(&[(FrameKind::Data, 150.0 * (2 * i) as f64 + 10.0, 60)]))
                .collect();
            let mut scratch = MatchScratch::new();
            let tiled = db.match_topk_tile(&cands, 3, &mut scratch);
            let stats = scratch.prune_stats();
            for (cand, got) in cands.iter().zip(&tiled) {
                let dense = match_one(&db, cand);
                assert_eq!(got, &dense.top(3), "{precision:?}");
            }
            assert!(
                stats.pruned_shards > 0,
                "{precision:?}: expected tile-wide pruning, got {stats:?}"
            );
            // One decision per (candidate, occupied shard).
            let decisions = stats.swept_shards + stats.pruned_shards;
            assert!(decisions > 0 && decisions.is_multiple_of(8), "{precision:?}: {stats:?}");
        }
    }

    #[test]
    fn removing_the_last_row_of_a_kind_prunes_its_key() {
        // `kind_keys` holds every key some shard holds — and no other: a
        // device that takes the last Beacon row with it takes the key
        // too, so sweeps stop packing candidate rows nothing can score.
        for config in strategies() {
            let mut db = ReferenceDb::with_config(config);
            db.insert(MacAddr::from_index(1), sig_with(&[(FrameKind::Data, 500.0, 30)])).unwrap();
            let unique = MacAddr::from_index(2);
            let with_beacon = sig_with(&[(FrameKind::Data, 300.0, 20), (FrameKind::Beacon, 100.0, 5)]);
            db.insert(unique, with_beacon.clone()).unwrap();
            let bins = cfg().bins.bin_count();
            assert_eq!(db.kind_keys, vec![(FrameKind::Beacon, bins), (FrameKind::Data, bins)]);
            db.remove(&unique).unwrap();
            assert_eq!(db.kind_keys, vec![(FrameKind::Data, bins)], "{config:?}");
            let mut scratch = MatchScratch::new();
            db.match_tile(std::slice::from_ref(&with_beacon), SimilarityMeasure::Cosine, &mut scratch);
            assert_eq!(scratch.kind_spans.len(), 1, "{config:?}: only the Data key is packed");
            // The replace path drops a key the same way.
            db.insert(unique, with_beacon).unwrap();
            db.insert(unique, sig_with(&[(FrameKind::Data, 700.0, 10)])).unwrap();
            assert_eq!(db.kind_keys, vec![(FrameKind::Data, bins)], "{config:?}: replace");
        }
    }

    // Every block's prune summary, per shard: slot order differs
    // between incremental and bulk builds, the summaries must not.
    fn summaries(db: &ReferenceDb) -> Vec<(usize, FrameKind, Vec<u32>, u32)> {
        db.shards
            .iter()
            .enumerate()
            .flat_map(|(si, shard)| {
                shard.blocks.iter().map(move |b| {
                    let envelope = b.envelope.iter().map(|e| e.to_bits()).collect();
                    (si, b.kind, envelope, b.wmax.to_bits())
                })
            })
            .collect()
    }

    // f32 ↔ f64 parity: the packed-f32 engine must track the all-f64
    // naive baseline within the documented tolerance, on arbitrary
    // databases and candidates.
    proptest! {
        #[test]
        fn f32_engine_tracks_f64_baseline(
            per_device in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..60), 1..10),
            cand_values in prop::collection::vec(0.0f64..2400.0, 1..60),
        ) {
            let c = cfg();
            let mut db = ReferenceDb::new();
            for (i, values) in per_device.iter().enumerate() {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = if j % 4 == 0 { FrameKind::ProbeReq } else { FrameKind::Data };
                    sig.record(kind, v, &c);
                }
                db.insert(MacAddr::from_index(i as u64 + 1), sig).unwrap();
            }
            let mut cand = Signature::new();
            for &v in &cand_values {
                cand.record(FrameKind::Data, v, &c);
            }
            let fast = match_one(&db, &cand);
            let baseline = db.match_signature_naive(&cand);
            for (f, n) in fast.similarities().iter().zip(baseline.similarities()) {
                prop_assert_eq!(f.0, n.0);
                prop_assert!((f.1 - n.1).abs() < F32_SCORE_TOLERANCE, "{} vs {}", f.1, n.1);
            }
        }

        // The acceptance property of the sharded refactor: over arbitrary
        // enrolments, shard strategies/counts and tile widths,
        // the sharded pruned sweep reports the flat dense sweep's top-k —
        // same argmax, same order, scores within F32_SCORE_TOLERANCE
        // (they are in fact bit-identical) — and the sharded dense sweep
        // reports the flat dense sweep's full vector exactly.
        #[test]
        fn sharded_pruned_sweep_equals_flat_dense_sweep(
            per_device in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..40), 1..14),
            cand_tiles in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..40), 1..5),
            shards in 1usize..7,
            mac_prefix in any::<bool>(),
            quantized in any::<bool>(),
            k in 1usize..8,
        ) {
            let c = cfg();
            let strategy = if mac_prefix {
                ShardStrategy::MacPrefix
            } else {
                ShardStrategy::DominantHistogram
            };
            let precision = if quantized { RowPrecision::U8 } else { RowPrecision::F32 };
            let config = MatchConfig { strategy, shards, precision };
            let mut sharded = ReferenceDb::with_config(config);
            let mut flat = ReferenceDb::with_config(MatchConfig::flat().with_precision(precision));
            for (i, values) in per_device.iter().enumerate() {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = if j % 5 == 0 { FrameKind::Beacon } else { FrameKind::Data };
                    sig.record(kind, v, &c);
                }
                // Spread addresses so OUI hashing sees distinct prefixes.
                let addr = MacAddr::from_index((i as u64 + 1) * 0x0101_0101);
                sharded.insert(addr, sig.clone()).unwrap();
                flat.insert(addr, sig).unwrap();
            }
            let candidates: Vec<Signature> = cand_tiles
                .iter()
                .map(|values| {
                    let mut cand = Signature::new();
                    for &v in values {
                        cand.record(FrameKind::Data, v, &c);
                    }
                    cand
                })
                .collect();
            let mut scratch = MatchScratch::new();
            // Dense tile parity: full vectors, exact.
            let tile = sharded.match_tile(&candidates, SimilarityMeasure::Cosine, &mut scratch);
            let dense: Vec<MatchOutcome> = tile.views().map(|v| v.to_outcome()).collect();
            for (cand, got) in candidates.iter().zip(&dense) {
                let want = match_one(&flat, cand);
                prop_assert_eq!(got.similarities(), want.similarities());
            }
            // Pruned top-k parity: argmax and scores, per candidate and
            // for the whole tile in one sweep.
            let tiled = sharded.match_topk_tile(&candidates, k, &mut scratch);
            prop_assert_eq!(tiled.len(), candidates.len());
            for ((cand, want_full), got_tiled) in candidates.iter().zip(&dense).zip(&tiled) {
                let want = want_full.top(k);
                let got = topk_one(&sharded, cand, k, &mut scratch);
                prop_assert_eq!(&got, got_tiled);
                prop_assert_eq!(got.len(), want.len());
                prop_assert_eq!(
                    got.first().map(|&(d, _)| d),
                    want_full.best().map(|(d, _)| d),
                    "argmax diverged under {:?}", config
                );
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.0, w.0);
                    prop_assert!((g.1 - w.1).abs() < F32_SCORE_TOLERANCE,
                        "{} vs {} under {:?}", g.1, w.1, config);
                }
            }
        }

        // u8 ↔ f32 parity: over arbitrary enrolments, strategies and
        // shard counts, the quantized tier's cosine scores track the f32
        // tier within U8_SCORE_TOLERANCE, and its argmax is the f32
        // argmax up to a genuine near-tie at that tolerance.
        #[test]
        fn u8_tier_tracks_f32_tier(
            per_device in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..40), 1..12),
            cand_values in prop::collection::vec(0.0f64..2400.0, 1..40),
            shards in 1usize..7,
            mac_prefix in any::<bool>(),
        ) {
            let c = cfg();
            let strategy = if mac_prefix {
                ShardStrategy::MacPrefix
            } else {
                ShardStrategy::DominantHistogram
            };
            let base = MatchConfig::default().with_strategy(strategy).with_shards(shards);
            let mut f32_db = ReferenceDb::with_config(base);
            let mut u8_db = ReferenceDb::with_config(base.with_precision(RowPrecision::U8));
            for (i, values) in per_device.iter().enumerate() {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = if j % 5 == 0 { FrameKind::Beacon } else { FrameKind::Data };
                    sig.record(kind, v, &c);
                }
                let addr = MacAddr::from_index((i as u64 + 1) * 0x0101_0101);
                f32_db.insert(addr, sig.clone()).unwrap();
                u8_db.insert(addr, sig).unwrap();
            }
            let mut cand = Signature::new();
            for &v in &cand_values {
                cand.record(FrameKind::Data, v, &c);
            }
            let a = match_one(&f32_db, &cand);
            let b = match_one(&u8_db, &cand);
            for (f, q) in a.similarities().iter().zip(b.similarities()) {
                prop_assert_eq!(f.0, q.0);
                prop_assert!(
                    (f.1 - q.1).abs() < U8_SCORE_TOLERANCE,
                    "score drift: {} vs {}", f.1, q.1
                );
            }
            // Argmax agreement up to near-ties: the quantized winner's
            // f32 score is within the documented drift of the f32 best.
            let (f32_best, f32_score) = a.best().unwrap();
            let (u8_best, _) = b.best().unwrap();
            let u8_winner_f32 = a.similarity_to(&u8_best).unwrap();
            prop_assert!(
                u8_best == f32_best || u8_winner_f32 >= f32_score - 2.0 * U8_SCORE_TOLERANCE,
                "argmax diverged beyond a near-tie: {u8_best} at {u8_winner_f32} vs {f32_best} at {f32_score}"
            );
            // The quantized pruned sweep agrees with the quantized dense
            // sweep (per-tier invariant, integer dots are exact).
            let mut scratch = MatchScratch::new();
            let top = topk_one(&u8_db, &cand, 3, &mut scratch);
            prop_assert_eq!(top, b.top(3));
        }

        // The bin-major columns grow by doubling under incremental
        // inserts and shift down on removes; a bulk build packs them at
        // exact size. Any insert/replace/remove sequence — crossing
        // several doublings — must score bit for bit like a bulk build
        // of the surviving signatures in both sweeps after every step,
        // hold the same keys and prune
        // summaries, and report the same resident bytes (which count
        // slots, not capacity).
        #[test]
        fn incremental_columns_equal_a_bulk_build(
            ops in prop::collection::vec(
                (0u8..4, 0u64..20, prop::collection::vec(0.0f64..2400.0, 1..30)), 16..48),
            cand_tiles in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..30), 1..4),
            shards in 1usize..4,
            quantized in any::<bool>(),
        ) {
            let c = cfg();
            let signature = |values: &[f64]| {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = match j % 5 {
                        0 => FrameKind::Beacon,
                        1 | 3 => FrameKind::ProbeReq,
                        _ => FrameKind::Data,
                    };
                    sig.record(kind, v, &c);
                }
                sig
            };
            let precision = if quantized { RowPrecision::U8 } else { RowPrecision::F32 };
            let config = MatchConfig::default().with_shards(shards).with_precision(precision);
            let candidates: Vec<Signature> = cand_tiles.iter().map(|v| signature(v)).collect();
            let mut db = ReferenceDb::with_config(config);
            let mut mirror: BTreeMap<MacAddr, Signature> = BTreeMap::new();
            let (mut a, mut b) = (MatchScratch::new(), MatchScratch::new());
            for (op, device, values) in &ops {
                let device = MacAddr::from_index(device + 1);
                if *op == 3 {
                    prop_assert_eq!(db.remove(&device).unwrap(), mirror.remove(&device));
                } else {
                    let sig = signature(values);
                    db.insert(device, sig.clone()).unwrap();
                    mirror.insert(device, sig);
                }
                let bulk = ReferenceDb::from_signatures_with(mirror.clone(), config);
                prop_assert!(
                    bulk.shards.iter().flat_map(|s| &s.blocks).all(|b| b.cap == b.slots()),
                    "a bulk build packs at exact size"
                );
                prop_assert_eq!(db.row_bytes(), bulk.row_bytes());
                prop_assert_eq!(&db.kind_keys, &bulk.kind_keys);
                prop_assert_eq!(summaries(&db), summaries(&bulk));
                let got = db.match_tile(&candidates, SimilarityMeasure::Cosine, &mut a);
                let want = bulk.match_tile(&candidates, SimilarityMeasure::Cosine, &mut b);
                for (g, w) in got.views().zip(want.views()) {
                    prop_assert_eq!(g.similarities(), w.similarities());
                }
                let got = db.match_topk_tile(&candidates, 3, &mut a);
                let want = bulk.match_topk_tile(&candidates, 3, &mut b);
                prop_assert_eq!(got, want);
            }
        }
    }
}
