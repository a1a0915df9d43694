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
//!   doubles). Not a packed layout; kept as the test oracle, which
//!   `bench-baseline` exposes to the analysis crate's `f32_auc_drift`
//!   test.
//! * **`f32`** ([`RowPrecision::F32`], the default) — packed `f32`
//!   columns; each cosine dot is an ascending-bin `f64` sum of exact
//!   `f32 × f32` products, so it is the same on every host. Drift ≤
//!   [`F32_SCORE_TOLERANCE`] vs `f64`.
//! * **`u8`** ([`RowPrecision::U8`]) — each row quantized once at
//!   insert to 7-bit codes, straight from the histogram's nonzero bins
//!   (the codes
//!   [`Histogram::frequencies_u8`](crate::Histogram::frequencies_u8)
//!   lists densely); cosine is scale-invariant, so the sweep dots raw
//!   codes in **exact** `u32` arithmetic, folds the code norms in at the end, and the store
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
//! **shards** by a locality-sensitive key of each
//! device's *dominant* histogram (its centre of mass — devices whose
//! heaviest histogram concentrates probability in the same region share a
//! shard). Each shard keeps its own `SoA` blocks
//! plus a **prune summary** per block: the elementwise upper envelope of
//! its normalised rows and the maximum reference weight. Frequencies are
//! non-negative, so the envelope yields an *admissible* upper bound on any
//! resident device's score against a given candidate — one dot product
//! per (shard, kind) instead of one per device. (A mean-centroid summary would need a radius term and is
//! strictly looser for non-negative rows, so the envelope is the summary
//! of choice.)
//!
//! The shard count is not an option: the store works it out from its own
//! row count, for the pruned sweep below, the only one shards pay off
//! in. The dense sweep scores every row whatever the layout, and each
//! occupied shard costs it one more short column pass, cosine epilogue
//! and scatter per (candidate, kind). So every store starts flat (one
//! shard), and only [`ReferenceDb::match_topk_tile`] grows it: it doubles
//! the shard count while the store holds at least 256 rows per shard, up
//! to 64 shards, and never shrinks it (see its `# Growth` section). A
//! store that only runs dense sweeps — the
//! [`MultiEngine`](crate::engine::MultiEngine)'s references,
//! `metrics::match_candidates` — stays flat by construction, while the
//! rotation linker's galleries grow as they fill. A re-layout is a bulk
//! build at the new count: every row is repacked from its signature,
//! into columns with room for as many rows again, since a growing store
//! is still enrolling.
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
//!   flat (one-shard) layout;
//! * the **pruned** sweep ([`ReferenceDb::match_topk_tile`]) returns each
//!   candidate's top-`k` — what the identification test ranks. It visits
//!   shards in descending bound order and skips, per candidate, every
//!   shard whose best possible score cannot beat that candidate's
//!   current `k`-th best — at 10⁵ enrolled devices this prunes most of
//!   the matrix before any column pass runs. Its rankings equal the
//!   dense sweep's exactly.
//!
//! [`MatchScratch::prune_stats`] reports the shards the last sweep of
//! either kind swept and pruned. `match_signature_naive` (tests, and
//! behind the `bench-baseline` feature the analysis crate's
//! `f32_auc_drift` test) is the all-`f64` oracle both are checked
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
//! candidate. [`MATCH_TILE`] is the tile width `metrics::match_candidates`
//! uses, and the unit of work of the engine's window close (which the
//! analysis pipeline drives): each worker sweeps a tile against every
//! parameter's reference and fuses its candidates before it takes the
//! next. One candidate is a tile of one; the pruned sweep takes tiles
//! too, sharing one bound-ordered shard pass.
//!
//! # Scratch buffers: allocation-free steady state
//!
//! Both sweeps write into a caller-owned [`MatchScratch`]. The dense
//! sweep returns borrowed views ([`TileView`], [`MatchView`]), each the
//! database's device table plus one candidate's scores in address order;
//! [`MatchView::to_outcome`] copies the scores into an owned
//! [`MatchOutcome`] sharing the table when it must outlive the scratch's
//! next sweep. A shard whose slots hold its rows in order — every shard
//! of a flat bulk build, and of a flat store only appended to in address
//! order — adds its cosine terms straight into those address-ordered
//! scores; any other shard is scored into a staging buffer and scattered
//! to its rows. The engine's window close runs the same sweep into
//! vectors it owns and hands them on as its events' outcomes, with no
//! copy. After the first call warms the scratch's capacity, matching
//! performs **no heap allocation**: candidate rows are packed straight
//! from each histogram's nonzero `(bin, count)` pairs
//! ([`Histogram::nonzero_counts`](crate::Histogram::nonzero_counts))
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
//! [`ReferenceDb::insert`] appends one slot to the device's shard
//! (amortised `O(row)`) instead of repacking, so streaming database
//! growth is linear in the data, not quadratic. Rows are the devices in
//! ascending address order, the order every public API reports. An
//! insert below the last address shifts the later rows up by one, as
//! [`ReferenceDb::remove`] shifts them down; slots do not depend on row
//! numbers, so a shift renumbers the shard directories and moves no
//! column. Shard membership, slots and row order stay consistent across
//! any interleaving of inserts and removes (re-inserting a changed
//! signature migrates the device to its new shard). Inserts never change
//! the shard count: only the pruned sweep's growth step does, and it
//! rebuilds the whole store, so there is one way to lay rows out in bulk.
//! The growth step leaves every shard's columns room for as many rows
//! again, so the inserts that follow it move no column until a shard has
//! doubled.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

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
/// `metrics::match_candidates` passes to one [`ReferenceDb::match_tile`],
/// and the unit of work the engine's window close hands each worker.
///
/// A tile's candidates share one walk over the shards, so each shard's
/// columns are loaded from memory once per tile instead of once per
/// candidate. At window close a worker sweeps its tile against every
/// parameter's reference in turn, then fuses the tile's candidates while
/// their vectors are in cache. The engine's references only run dense
/// sweeps, so they stay flat, and each of its tiles reads one shard's
/// columns per frame kind.
pub const MATCH_TILE: usize = 8;

/// Rows per shard a growing store keeps at least once it splits: a store
/// at `s` shards re-lays out over `2s` (up to [`MAX_SHARDS`]) when it
/// holds `2 · GROWTH_ROWS_PER_SHARD · s` rows.
///
/// Measured on e2ebench's `crowd_rotation` (512 sightings into fresh
/// linker galleries per pass) and the `linking_smoke` gate: 64 makes the
/// crowd linker 6–12% slower per sighting than 128, because it sweeps
/// more, smaller shards. 256 makes it 6–7% faster, since its galleries
/// then stay flat, but at 10³ identities the gate's galleries stop at two
/// shards and prune 0.52 (periodic) and 0.37 (per-association) of them,
/// under the gate's 0.5 floor. 128 prunes 0.69 and 0.61 there, and 0.79
/// at 10⁴.
const GROWTH_ROWS_PER_SHARD: usize = 128;

/// The most shards a store grows to (from 8 192 rows), and the largest
/// count a re-layout takes. Uncapped, the growth rule would lay 10⁵ rows
/// out over 512 shards, where the pruned sweeps slow down: the top-5
/// sweep costs 295 µs there against 184 µs at 64 shards, and the `u8`
/// 8-wide top-8 sweep 4.11 ms against 3.18 ms.
const MAX_SHARDS: usize = 64;

/// Safety slack added to every shard's score upper bound before the
/// prune test. The bound dots the candidate against the `f32` envelope
/// (each entry a rounded `row · inv_norm` product), the true scores dot
/// it against the rows and multiply by the norms afterwards, so their
/// floating-point error is not ordered; one [`F32_SCORE_TOLERANCE`] of
/// slack makes the bound
/// admissible under rounding (a shard is only pruned when its best
/// possible score is below the current `k`-th best by more than the
/// documented score tolerance).
pub(crate) const PRUNE_BOUND_SLACK: f64 = F32_SCORE_TOLERANCE;

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

/// Configuration of the reference store: the storage precision of its
/// rows. The shard count is not an option: the store grows it from its row
/// count for the pruned sweep (see the
/// [module docs](self#the-sharded-store)), and every layout's dense sweep
/// is property-tested bit-for-bit equal to the flat one's (per precision
/// tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchConfig {
    /// Storage width of the packed rows (see [`RowPrecision`]).
    pub precision: RowPrecision,
}

impl MatchConfig {
    /// The quantized tier: `u8` rows swept in exact integer arithmetic —
    /// what a metropolis-scale (≥ 10⁵ devices) deployment runs.
    pub fn quantized() -> Self {
        MatchConfig::default().with_precision(RowPrecision::U8)
    }

    /// Returns a copy with a different row precision.
    #[must_use]
    pub fn with_precision(mut self, precision: RowPrecision) -> Self {
        self.precision = precision;
        self
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
    /// Quantized rows: the devices' 7-bit codes (the dense form is
    /// [`Histogram::frequencies_u8`]). Cosine is scale-invariant, so the
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
        debug_assert_eq!(hist.bin_count(), self.bins);
        let KindBlock { cap, weights, store, inv_norms, envelope, wmax, .. } = self;
        let cap = *cap;
        weights[slot] = weight;
        *wmax = wmax.max(weight);
        match store {
            RowStore::F32(rows) => {
                let (inv, entries) = hist.packed_f32();
                inv_norms[slot] = inv;
                for (bin, f) in entries {
                    let bin = bin as usize;
                    rows[bin * cap + slot] = f;
                    envelope[bin] = envelope[bin].max(f * inv);
                }
            }
            RowStore::U8(rows) => {
                let (inv, codes) = hist.packed_u8();
                inv_norms[slot] = inv;
                for (bin, c) in codes {
                    let bin = bin as usize;
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
            *s += cosine_term(weight, dot, inv_c, inv_r);
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

/// One slot's term of a kind's cosine epilogue: `weight · clamp(dot ·
/// inv_c · inv_r)`.
fn cosine_term(weight: f32, dot: f64, inv_c: f64, inv_r: f32) -> f64 {
    f64::from(weight) * (dot * inv_c * f64::from(inv_r)).clamp(0.0, 1.0)
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

/// One bucket of the sharded store: which database rows live here and
/// their per-kind matrices (indexed by **slot**, the local row number).
#[derive(Debug, Clone, Default)]
struct Shard {
    /// `rows[slot]` is the database row (the device's rank in address
    /// order) of the device in that slot.
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

    /// The first row when the slots hold consecutive rows in slot order
    /// (`rows[slot] == first + slot`): the dense sweep then writes the
    /// shard's scores in place.
    fn first_row_in_order(&self) -> Option<usize> {
        let first = *self.rows.first()?;
        self.rows.iter().zip(first..).all(|(&r, want)| r == want).then_some(first as usize)
    }
}

/// Where a database row lives: its shard and local slot.
#[derive(Debug, Clone, Copy, Default)]
struct Placement {
    shard: u16,
    slot: u32,
}

/// The sharded reference database of the learning phase (§IV-B): one
/// signature per known device, bucketed into shards and packed per frame
/// kind into bin-major columns of `f32` or `u8` rows (see the
/// [module docs](self)).
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
/// // MatchConfig selects the row precision; the store grows its own
/// // shards when a pruned sweep finds it large.
/// let mut db = ReferenceDb::with_config(MatchConfig::quantized());
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
    /// The row precision.
    config: MatchConfig,
    /// Reference devices in ascending address order: row `i` is
    /// `devices[i]`. Every similarity vector the dense sweep returns
    /// shares this table; a mutation while one is alive copies it first.
    devices: DeviceTable,
    /// Per row: the device's signature.
    signatures: Vec<Signature>,
    /// Per row: (shard, slot).
    placement: Vec<Placement>,
    /// Every `(kind, bins)` key any shard holds, ascending — the outer
    /// loop of the sweeps, so candidate tiles are packed once per kind,
    /// not once per (shard, kind).
    kind_keys: Vec<(FrameKind, usize)>,
    /// The shard directory: one entry until the pruned sweep grows it
    /// (see [`ReferenceDb::match_topk_tile`]).
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
    /// An empty database with the default [`MatchConfig`] (`f32` rows).
    pub fn new() -> Self {
        ReferenceDb::default()
    }

    /// An empty, flat database at an explicit row precision.
    pub fn with_config(config: MatchConfig) -> Self {
        ReferenceDb {
            config,
            devices: DeviceTable::default(),
            signatures: Vec::new(),
            placement: Vec::new(),
            kind_keys: Vec::new(),
            shards: vec![Shard::default()],
            frozen: false,
        }
    }

    /// Builds a database from per-device signatures (e.g. the output of
    /// [`SignatureBuilder::finish`](crate::SignatureBuilder::finish)),
    /// packing the reference matrix once, with the default
    /// [`MatchConfig`].
    ///
    /// It enrols exactly what [`ReferenceDb::insert`] accepts: a
    /// signature with zero observations (which
    /// [`CoreError::EmptySignature`] refuses there) is skipped.
    pub fn from_signatures(signatures: BTreeMap<MacAddr, Signature>) -> Self {
        ReferenceDb::from_signatures_with(signatures, MatchConfig::default())
    }

    /// [`ReferenceDb::from_signatures`] at an explicit row precision. The
    /// build is flat.
    pub fn from_signatures_with(
        signatures: BTreeMap<MacAddr, Signature>,
        config: MatchConfig,
    ) -> Self {
        // A `BTreeMap` yields its entries in ascending address order.
        let (devices, signatures): (Vec<_>, _) =
            signatures.into_iter().filter(|(_, sig)| sig.observation_count() > 0).unzip();
        ReferenceDb::packed(Arc::new(devices), signatures, config)
    }

    /// The bulk build behind [`ReferenceDb::from_signatures_with`] and
    /// [`ReferenceDb::snapshot`]: a flat store of address-ordered rows,
    /// packed at exact size.
    fn packed(devices: DeviceTable, signatures: Vec<Signature>, config: MatchConfig) -> Self {
        let mut db = ReferenceDb { devices, signatures, ..ReferenceDb::with_config(config) };
        db.rebuild(1, 1);
        db
    }

    /// The configuration (row precision) of this database.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The shard count it is laid out with (occupied or not).
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

    /// The row of `device`, or the row it would be inserted at.
    fn position(&self, device: MacAddr) -> Result<usize, usize> {
        self.devices.binary_search(&device)
    }

    /// The shard key of row `row`: its signature's centre of mass
    /// ([`centre_of_mass`]) quantised over the shard count. Devices whose
    /// heaviest histogram concentrates probability in the same region
    /// share a shard, which keeps each shard's upper envelope tight and
    /// makes the pruned sweep effective. Doubling the shard count splits
    /// key `k` into `2k` and `2k + 1` (scaling by two is exact).
    fn shard_key(&self, row: usize) -> usize {
        let n = self.shards.len();
        ((centre_of_mass(&self.signatures[row]) * n as f64) as usize).min(n - 1)
    }

    /// Inserts or replaces a device's reference signature (online
    /// enrollment).
    ///
    /// Returns the previous signature if the device was already present.
    /// Inserting a new device **appends** one slot to its shard
    /// (amortised `O(row width)`), so streaming inserts in address order
    /// build a database in linear time; replacing detaches the old row
    /// and re-attaches the new one, migrating the device to a different
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
            Ok(row) => {
                let previous = std::mem::replace(&mut self.signatures[row], signature);
                self.detach_row(row);
                let shard = self.shard_key(row);
                self.attach_row(row, shard, 0);
                Some(previous)
            }
            Err(row) => {
                if row < self.devices.len() {
                    self.renumber_rows(|r| if r >= row { r + 1 } else { r });
                }
                Arc::make_mut(&mut self.devices).insert(row, device);
                self.placement.insert(row, Placement::default());
                self.signatures.insert(row, signature);
                let shard = self.shard_key(row);
                self.attach_row(row, shard, 0);
                None
            }
        })
    }

    /// Removes a device, returning its signature (`Ok(None)` when the
    /// device was not enrolled). Shard membership, per-shard slots and
    /// the address-ordered rows all stay consistent, so a later
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
        let Ok(row) = self.position(*device) else {
            return Ok(None);
        };
        self.detach_row(row);
        Arc::make_mut(&mut self.devices).remove(row);
        let sig = self.signatures.remove(row);
        self.placement.remove(row);
        self.renumber_rows(|r| if r > row { r - 1 } else { r });
        Ok(Some(sig))
    }

    /// Applies a row shift to the shard directories, which name each
    /// slot's device by its row.
    fn renumber_rows(&mut self, shift: impl Fn(usize) -> usize) {
        for r in self.shards.iter_mut().flat_map(|shard| &mut shard.rows) {
            *r = shift(*r as usize) as u32;
        }
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

    /// A frozen copy of the current signatures: the detection-phase view
    /// of a database that keeps enrolling. The original stays mutable.
    ///
    /// The copy is a flat bulk build: it scores bit for bit like the
    /// original, but its columns are packed at exact size (an
    /// insert-built store's columns double as they fill and keep that
    /// slack), and a store that serves dense sweeps is cheapest flat. A
    /// pruned sweep of the copy grows it again.
    pub fn snapshot(&self) -> ReferenceDb {
        let mut copy =
            ReferenceDb::packed(Arc::clone(&self.devices), self.signatures.clone(), self.config);
        copy.frozen = true;
        copy
    }

    /// The signature of a device, if present.
    pub fn get(&self, device: &MacAddr) -> Option<&Signature> {
        self.position(*device).ok().map(|row| &self.signatures[row])
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
        self.devices.iter().copied().zip(&self.signatures)
    }

    /// The devices in the database, in address order.
    pub fn devices(&self) -> impl Iterator<Item = MacAddr> + '_ {
        self.devices.iter().copied()
    }

    /// The devices in the database as a slice, in address order: the
    /// table every similarity vector of the dense sweep carries.
    pub(crate) fn device_table(&self) -> &[MacAddr] {
        &self.devices
    }

    /// Attaches row `row` to shard `shard_idx`: appends a slot and
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
        (placement[row].shard, placement[row].slot) = (shard_idx as u16, slot as u32);
        let sig = &signatures[row];
        let slots = shard.rows.len();
        for (kind, hist) in sig.iter() {
            if hist.total() == 0 {
                continue;
            }
            let bins = hist.bin_count();
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

    /// Detaches row `row` from its shard: drops its slot (the
    /// shard's last resident moves into it) and repairs the affected
    /// prune summaries (the envelope may shrink).
    fn detach_row(&mut self, row: usize) {
        let Placement { shard: shard_idx, slot, .. } = self.placement[row];
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

    /// Repacks the shard directory and the per-kind matrices from the
    /// current signatures over `shards` shards (bulk construction).
    /// Every block's columns are sized up front to `headroom` times their
    /// shard's final slot count: 1 packs them at exact size; 2 leaves a
    /// growth re-layout room for as many inserts again before a column
    /// moves.
    fn rebuild(&mut self, shards: usize, headroom: usize) {
        let n = self.devices.len();
        self.placement = vec![Placement::default(); n];
        self.kind_keys.clear();
        self.shards = vec![Shard::default(); shards];
        let keys: Vec<usize> = (0..n).map(|row| self.shard_key(row)).collect();
        let mut sizes = vec![0; shards];
        for &key in &keys {
            sizes[key] += 1;
        }
        for (row, &key) in keys.iter().enumerate() {
            self.attach_row(row, key, headroom * sizes[key]);
        }
    }

    /// Re-lays the rows out over `shards` shards (clamped to
    /// `1..=MAX_SHARDS`) at exact size: a bulk build at the new count.
    /// Going from `s` to `2s` shards splits shard `k` into `2k` and
    /// `2k + 1`. No score depends on the layout, so every sweep scores as
    /// before.
    #[cfg(test)]
    pub(crate) fn reshard(&mut self, shards: usize) {
        let shards = shards.clamp(1, MAX_SHARDS);
        if shards != self.shards.len() {
            self.rebuild(shards, 1);
        }
    }

    /// Brings the shard count up to what the row count calls for:
    /// doubled while the store holds `2 · GROWTH_ROWS_PER_SHARD` rows per
    /// shard, up to [`MAX_SHARDS`], and never shrunk. Shard counts
    /// double, so the re-layouts cost amortised `O(row width)` per row.
    /// A re-layout leaves each shard's columns room for as many rows
    /// again: a store that grows is still enrolling, and at exact size
    /// the first insert into each shard would move every column there.
    fn grow(&mut self) {
        let mut shards = self.shards.len();
        while shards < MAX_SHARDS && self.len() >= 2 * GROWTH_ROWS_PER_SHARD * shards {
            shards = (2 * shards).min(MAX_SHARDS);
        }
        if shards != self.shards.len() {
            self.rebuild(shards, 2);
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
    /// flat layout's. The dense sweep never changes the layout. The
    /// returned [`TileView`] borrows
    /// `scratch` and the database and exposes one [`MatchView`] per
    /// candidate, in input order. One candidate is a tile of one
    /// (`std::slice::from_ref(&candidate)`); callers batching many
    /// windows chunk them by [`MATCH_TILE`].
    ///
    /// `measure` has one value, [`SimilarityMeasure::Cosine`]; the
    /// argument is kept for the benchmark harness.
    pub fn match_tile<'s, C: Borrow<Signature>>(
        &'s self,
        candidates: &[C],
        _measure: SimilarityMeasure,
        scratch: &'s mut MatchScratch,
    ) -> TileView<'s> {
        let k = candidates.len();
        let mut scores = std::mem::take(&mut scratch.scores);
        if scores.len() < k {
            scores.resize_with(k, Vec::new);
        }
        self.sweep_dense(candidates, &mut scores[..k], scratch);
        scratch.scores = scores;
        TileView { devices: &self.devices, scores: &scratch.scores[..k] }
    }

    /// [`ReferenceDb::match_tile`] into owned similarity vectors, one per
    /// candidate in input order: the sweep writes each candidate's scores
    /// into the vector it returns, so nothing is copied out of a scratch.
    pub(crate) fn match_tile_owned<C: Borrow<Signature>>(
        &self,
        candidates: &[C],
        scratch: &mut MatchScratch,
    ) -> Vec<MatchOutcome> {
        let mut scores = vec![Vec::new(); candidates.len()];
        self.sweep_dense(candidates, &mut scores, scratch);
        let devices = &self.devices;
        scores.into_iter().map(|scores| MatchOutcome { devices: Arc::clone(devices), scores }).collect()
    }

    /// The dense sweep behind [`ReferenceDb::match_tile`]: writes
    /// candidate `c`'s similarity vector, in address order, into `outs[c]`
    /// (resized to the row count).
    ///
    /// A shard whose slots hold consecutive rows in order — every shard
    /// of a flat bulk build, and of a flat store only ever appended to in
    /// address order — adds its cosine terms straight into the output
    /// vectors at its first row. Any other shard is scored into the
    /// staging vectors and scattered to its rows. Both routes run the same
    /// column kernel and add each row's kind terms in ascending kind order
    /// from `+0.0`, so they give the same bits.
    fn sweep_dense<C: Borrow<Signature>>(
        &self,
        candidates: &[C],
        outs: &mut [Vec<f64>],
        scratch: &mut MatchScratch,
    ) {
        debug_assert_eq!(candidates.len(), outs.len(), "one output per candidate");
        let n = self.devices.len();
        for out in outs.iter_mut() {
            out.clear();
            out.resize(n, 0.0);
        }
        self.pack_candidates(candidates, scratch);
        scratch.active.clear();
        scratch.active.resize(candidates.len(), true);
        let mut swept = 0;
        for shard in self.shards.iter().filter(|s| !s.rows.is_empty()) {
            swept += candidates.len();
            if let Some(first) = shard.first_row_in_order() {
                self.sweep_shard(shard, scratch, Some((&mut *outs, first)));
                continue;
            }
            self.sweep_shard(shard, scratch, None);
            // Scatter the shard's slots to their rows, in address order.
            for (out, shard_scores) in outs.iter_mut().zip(&scratch.shard_scores) {
                for (&r, &s) in shard.rows.iter().zip(shard_scores) {
                    out[r as usize] = s;
                }
            }
        }
        scratch.prune = PruneStats { swept_shards: swept, pruned_shards: 0 };
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
    ///
    /// # Growth
    ///
    /// The bound prunes only when there are shards to skip, so before it
    /// ranks anything the sweep grows the layout to what the row count
    /// calls for: it doubles the shard count while the store holds at
    /// least 256 rows per shard — one shard below 256 rows, two from 256,
    /// four from 512 — up to 64 shards from 8 192 rows, and never shrinks
    /// it (removals leave the layout as it is). Each doubling is a bulk
    /// build at the new count whose columns leave room for as many rows
    /// again; a frozen store grows too, since no score depends on the
    /// layout. A sweep with nothing to rank (`k == 0`, no
    /// candidates or no rows) leaves the layout alone.
    pub fn match_topk_tile<C: Borrow<Signature>>(
        &mut self,
        candidates: &[C],
        k: usize,
        scratch: &mut MatchScratch,
    ) -> Vec<Vec<(MacAddr, f64)>> {
        let kc = candidates.len();
        scratch.prune = PruneStats::default();
        if k == 0 || self.devices.is_empty() || kc == 0 {
            return vec![Vec::new(); kc];
        }
        self.grow();
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
            self.sweep_shard(shard, scratch, None);
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
                let shard_scores = &scratch.shard_scores[ci][..slots];
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
    pub(crate) fn pack_candidates<C: Borrow<Signature>>(
        &self,
        candidates: &[C],
        scratch: &mut MatchScratch,
    ) {
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
                if hist.total() == 0 || hist.bin_count() != bins {
                    continue;
                }
                let nonzeros_start = tile_nonzeros.len();
                let inv = if quantized {
                    let (inv, codes) = hist.packed_u8();
                    tile_nonzeros.extend(codes.map(|(bin, c)| (bin, f32::from(c))));
                    inv
                } else {
                    let (inv, entries) = hist.packed_f32();
                    tile_nonzeros.extend(entries);
                    inv
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

    /// Random access into the dense sweep: row `row`'s score against the
    /// one candidate `scratch` holds packed for this store
    /// ([`ReferenceDb::pack_candidates`] on a tile of one), bit for bit
    /// the entry [`ReferenceDb::match_tile`] gives the row. It reads the
    /// row's placement, then for each block of its shard whose kind the
    /// candidate carries, ascending by key, dots the candidate's nonzero
    /// bins against the row's slot in the column pass's order — an exact
    /// `u32` sum over `u8` codes, an ascending-bin `f64` sum over `f32`
    /// rows — and adds the block's cosine term to a score that starts at
    /// `+0.0`. The cost is the candidate's nonzero bins, not the row count.
    pub(crate) fn score_row(&self, row: usize, scratch: &MatchScratch) -> f64 {
        let MatchScratch { tile_nonzeros, packed, kind_spans, .. } = scratch;
        debug_assert_eq!(kind_spans.len(), self.kind_keys.len(), "packed for this store");
        debug_assert!(packed.iter().all(|e| e.cand == 0), "a tile of one");
        let Placement { shard, slot } = self.placement[row];
        let slot = slot as usize;
        let mut score = 0.0;
        for (block, span) in self.blocks_with_spans(&self.shards[shard as usize], kind_spans) {
            let Some(e) = packed[span.clone()].first() else { continue };
            let nonzeros = &tile_nonzeros[e.nonzeros.clone()];
            let at = |bin: u32| bin as usize * block.cap + slot;
            let dot = match &block.store {
                // Codes are integers ≤ QUANT_MAX, so the casts are exact.
                RowStore::U8(rows) => f64::from(
                    nonzeros.iter().map(|&(bin, c)| c as u32 * u32::from(rows[at(bin)])).sum::<u32>(),
                ),
                RowStore::F32(rows) => nonzeros
                    .iter()
                    .fold(0.0, |dot, &(bin, c)| dot + f64::from(c) * f64::from(rows[at(bin)])),
            };
            score += cosine_term(block.weights[slot], dot, e.inv_norm, block.inv_norms[slot]);
        }
        score
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
            for (block, span) in self.blocks_with_spans(shard, kind_spans) {
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

    /// Pairs each of `shard`'s blocks with its key's span of packed rows,
    /// ascending by key. The blocks and `kind_keys` are both sorted by
    /// `(kind, bins)`, and every block's key is in `kind_keys`, so one
    /// merge walk finds every block without a search per key.
    fn blocks_with_spans<'a>(
        &'a self,
        shard: &'a Shard,
        kind_spans: &'a [std::ops::Range<usize>],
    ) -> impl Iterator<Item = (&'a KindBlock, &'a std::ops::Range<usize>)> {
        let mut keys = self.kind_keys.iter().zip(kind_spans);
        shard.blocks.iter().map(move |block| {
            let (_, span) = keys
                .find(|&(&key, _)| key == (block.kind, block.bins))
                .expect("every block's key is in kind_keys");
            (block, span)
        })
    }

    /// The one shard walk behind both sweeps: scores `shard`'s resident
    /// rows against every active candidate (`scratch.active`) in either
    /// precision tier. With `in_place = Some((outs, first))` it adds
    /// candidate `c`'s terms to `outs[c][first..first + slots]` (a shard
    /// whose slots are rows `first..`, in order); with `None` it writes
    /// them to `scratch.shard_scores[c][..slots]`, zeroed first (zero for
    /// inactive candidates and absent rows).
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
    fn sweep_shard(
        &self,
        shard: &Shard,
        scratch: &mut MatchScratch,
        in_place: Option<(&mut [Vec<f64>], usize)>,
    ) {
        let MatchScratch {
            tile_nonzeros, packed, kind_spans, active, dots_u32, dots_f64, shard_scores, ..
        } = scratch;
        let slots = shard.rows.len();
        let (outs, first) = if let Some(target) = in_place {
            target
        } else {
            if shard_scores.len() < active.len() {
                shard_scores.resize_with(active.len(), Vec::new);
            }
            for scores in &mut shard_scores[..active.len()] {
                scores.clear();
                scores.resize(slots, 0.0);
            }
            (&mut shard_scores[..], 0)
        };
        for (block, span) in self.blocks_with_spans(shard, kind_spans) {
            let entries = packed[span.clone()].iter().filter(|e| active[e.cand]);
            match &block.store {
                RowStore::U8(rows) => {
                    for e in entries {
                        dots_u32.clear();
                        dots_u32.resize(slots, 0);
                        accumulate_u8(dots_u32, &tile_nonzeros[e.nonzeros.clone()], block, rows);
                        let scores = &mut outs[e.cand][first..first + slots];
                        block.add_cosines(scores, dots_u32.iter().map(|&d| f64::from(d)), e.inv_norm);
                    }
                }
                RowStore::F32(rows) => {
                    for e in entries {
                        dots_f64.clear();
                        dots_f64.resize(slots, 0.0);
                        accumulate_f32(dots_f64, &tile_nonzeros[e.nonzeros.clone()], block, rows);
                        let scores = &mut outs[e.cand][first..first + slots];
                        block.add_cosines(scores, dots_f64.iter().copied(), e.inv_norm);
                    }
                }
            }
        }
    }

    /// Algorithm 1 per device: per-call candidate frequency allocation,
    /// per-device frame-kind lookups, and full-`f64` arithmetic
    /// throughout. Kept as the `f64` oracle both sweeps are tested against
    /// (equal output within [`F32_SCORE_TOLERANCE`]); the `bench-baseline`
    /// feature exposes it to the analysis crate's `f32_auc_drift` test.
    #[cfg(any(test, feature = "bench-baseline"))]
    pub fn match_signature_naive(&self, candidate: &Signature) -> MatchOutcome {
        let cand_freqs: Vec<(FrameKind, Vec<f64>)> =
            candidate.iter().map(|(kind, hist)| (kind, hist.frequencies())).collect();
        let mut scores = Vec::with_capacity(self.devices.len());
        for sig in &self.signatures {
            let mut sim = 0.0;
            for (kind, cand_freq) in &cand_freqs {
                if let Some(hist) = sig.histogram(*kind) {
                    sim += sig.weight(*kind)
                        * SimilarityMeasure::Cosine.compute(cand_freq, &hist.frequencies());
                }
            }
            scores.push(sim);
        }
        MatchOutcome { devices: Arc::clone(&self.devices), scores }
    }
}

/// The centre of mass of a signature's **dominant** (most observed)
/// histogram, as a fraction of its bin range, in `[0, 1)`: nearby
/// distributions get nearby values (the locality-sensitive property the
/// pruning bound leans on). 0 for a signature without observations.
fn centre_of_mass(signature: &Signature) -> f64 {
    let mut dominant: Option<&Histogram> = None;
    let mut dominant_total = 0u64;
    for (_, hist) in signature.iter() {
        if hist.total() > dominant_total {
            dominant_total = hist.total();
            dominant = Some(hist);
        }
    }
    dominant.map_or(0.0, Histogram::centre_of_mass)
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
    /// Dense sweep: per candidate, its scores in the database's address
    /// order: what the returned views expose.
    scores: Vec<Vec<f64>>,
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
    /// Per candidate, the per-slot scores of the shard being swept when
    /// they cannot be written in place (see `ReferenceDb::sweep_dense`).
    shard_scores: Vec<Vec<f64>>,
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

/// A database's devices in ascending address order, shared between the
/// database and the similarity vectors its dense sweep returns.
pub(crate) type DeviceTable = Arc<Vec<MacAddr>>;

/// The similarity vector `<sim₁, …, sim_N>` returned by Algorithm 1: one
/// similarity per reference device, in ascending address order. It is a
/// device table shared with the database plus the scores aligned with it,
/// borrowed from a [`MatchScratch`] ([`MatchView`]) or owned
/// ([`MatchOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimilarityVector<D, S> {
    pub(crate) devices: D,
    pub(crate) scores: S,
}

/// A similarity vector borrowed from a [`MatchScratch`] and its
/// database: one candidate of a [`TileView`], valid until the scratch's
/// next sweep.
pub type MatchView<'a> = SimilarityVector<&'a Arc<Vec<MacAddr>>, &'a [f64]>;

/// An owned similarity vector ([`MatchView::to_outcome`]); the default
/// is the empty vector.
pub type MatchOutcome = SimilarityVector<Arc<Vec<MacAddr>>, Vec<f64>>;

impl<D: Borrow<DeviceTable>, S: AsRef<[f64]>> SimilarityVector<D, S> {
    /// The reference devices, in ascending address order.
    pub fn devices(&self) -> &[MacAddr] {
        let table: &DeviceTable = self.devices.borrow();
        table
    }

    /// All `(reference device, similarity)` pairs, in ascending address
    /// order.
    pub fn similarities(&self) -> impl ExactSizeIterator<Item = (MacAddr, f64)> + '_ {
        self.devices().iter().copied().zip(self.scores.as_ref().iter().copied())
    }

    /// The similarity to one specific reference device.
    pub fn similarity_to(&self, device: &MacAddr) -> Option<f64> {
        let row = self.devices().binary_search(device).ok()?;
        Some(self.scores.as_ref()[row])
    }

    /// The similarity test (§IV-B): references whose similarity is at
    /// least `threshold`.
    pub fn above_threshold(&self, threshold: f64) -> impl Iterator<Item = (MacAddr, f64)> + '_ {
        self.similarities().filter(move |&(_, s)| s >= threshold)
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
        if k == 0 || self.devices().is_empty() {
            return Vec::new();
        }
        if k == 1 {
            // Single scan, no copy of the similarity vector.
            return self.best().into_iter().collect();
        }
        let mut ranked: Vec<(MacAddr, f64)> = self.similarities().collect();
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
    /// An owned copy of this view's scores, sharing its device table.
    pub fn to_outcome(&self) -> MatchOutcome {
        MatchOutcome { devices: Arc::clone(self.devices), scores: self.scores.to_vec() }
    }
}

/// A borrowed view of one [`ReferenceDb::match_tile`] result: `K`
/// similarity vectors over the same reference set, one per candidate.
#[derive(Debug, Clone, Copy)]
pub struct TileView<'a> {
    /// The database's device table, shared by every candidate's view.
    devices: &'a DeviceTable,
    /// Per candidate (input order), its scores aligned with `devices`;
    /// one (empty, against an empty database) per candidate.
    scores: &'a [Vec<f64>],
}

impl<'a> TileView<'a> {
    /// Number of candidates in the tile (the input length, even when the
    /// database was empty).
    pub fn candidate_count(&self) -> usize {
        self.scores.len()
    }

    /// The similarity vector of candidate `index` (input order); empty
    /// against an empty database.
    ///
    /// # Panics
    ///
    /// Panics if `index >= candidate_count()`.
    pub fn candidate(&self, index: usize) -> MatchView<'a> {
        let k = self.scores.len();
        assert!(index < k, "candidate {index} out of range for tile of {k}");
        MatchView { devices: self.devices, scores: &self.scores[index] }
    }

    /// Iterates the per-candidate views in input order (exactly
    /// [`TileView::candidate_count`] of them).
    pub fn views(&self) -> impl Iterator<Item = MatchView<'a>> + '_ {
        (0..self.scores.len()).map(|index| self.candidate(index))
    }
}

/// Descending score; equal scores order toward the lower address, so the
/// ranking is deterministic and `top(1)` matches `best()`.
fn rank_desc(a: &(MacAddr, f64), b: &(MacAddr, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
}

pub(crate) fn best_of(sims: impl Iterator<Item = (MacAddr, f64)>) -> Option<(MacAddr, f64)> {
    sims.min_by(rank_desc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::histogram::BinSpec;
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
        db: &mut ReferenceDb,
        cand: &Signature,
        k: usize,
        scratch: &mut MatchScratch,
    ) -> Vec<(MacAddr, f64)> {
        db.match_topk_tile(std::slice::from_ref(cand), k, scratch).remove(0)
    }

    /// Every (precision, shard count) layout parity tests sweep over —
    /// both precision tiers, since the consistency invariants (streamed ≡
    /// bulk, churn ≡ fresh, sharded ≡ flat) hold per tier.
    fn layouts() -> Vec<(MatchConfig, usize)> {
        let (f32_tier, u8_tier) = (MatchConfig::default(), MatchConfig::quantized());
        vec![
            (f32_tier, 1),
            (f32_tier, 16),
            (f32_tier, 3),
            (f32_tier, 5),
            (u8_tier, 1),
            (u8_tier, 16),
            (u8_tier, 5),
        ]
    }

    /// An empty store at `config`'s precision, laid out over `shards`.
    fn empty_at(config: MatchConfig, shards: usize) -> ReferenceDb {
        let mut db = ReferenceDb::with_config(config);
        db.reshard(shards);
        db
    }

    /// A bulk build of `signatures`, re-laid out over `shards`.
    fn bulk_at(
        signatures: BTreeMap<MacAddr, Signature>,
        config: MatchConfig,
        shards: usize,
    ) -> ReferenceDb {
        let mut db = ReferenceDb::from_signatures_with(signatures, config);
        db.reshard(shards);
        db
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
        assert_eq!(outcome.similarities().next().unwrap().1, 0.0);
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
        assert!((outcome.similarities().next().unwrap().1 - 0.1).abs() < F32_SCORE_TOLERANCE);
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
    fn bulk_build_skips_empty_signatures_like_insert() {
        let empty = MacAddr::from_index(1);
        let full = MacAddr::from_index(2);
        let sig = sig_with(&[(FrameKind::Data, 1.0, 5)]);
        let map = BTreeMap::from([(empty, Signature::new()), (full, sig.clone())]);
        let bulk = ReferenceDb::from_signatures(map);
        assert!(!bulk.contains(&empty));
        assert_eq!(bulk.len(), 1);
        let mut one_by_one = ReferenceDb::new();
        assert!(one_by_one.insert(empty, Signature::new()).is_err());
        one_by_one.insert(full, sig).unwrap();
        assert_eq!(bulk.devices().collect::<Vec<_>>(), one_by_one.devices().collect::<Vec<_>>());
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

        // A snapshot of a grown store is a flat bulk build: packed at
        // exact size, scoring bit for bit like the grown original. A
        // pruned sweep grows the frozen copy again.
        let sigs: BTreeMap<MacAddr, Signature> = (1..=600u64)
            .map(|i| (MacAddr::from_index(i), sig_with(&[(FrameKind::Data, 10.0 * (i % 240) as f64, 8)])))
            .collect();
        let mut grown = ReferenceDb::new();
        for (&dev, sig) in &sigs {
            grown.insert(dev, sig.clone()).unwrap();
        }
        let cands = vec![sig_with(&[(FrameKind::Data, 300.0, 8)]), sig_with(&[(FrameKind::Data, 1210.0, 8)])];
        let mut scratch = MatchScratch::new();
        let grown_top = grown.match_topk_tile(&cands, 3, &mut scratch);
        assert_eq!(grown.shard_count(), 4);
        let mut snap = grown.snapshot();
        assert!(snap.is_frozen());
        assert_eq!(snap.shard_count(), 1);
        let bulk = ReferenceDb::from_signatures(sigs);
        assert!(snap.shards.iter().flat_map(|s| &s.blocks).all(|b| b.cap == b.slots()));
        assert_eq!(summaries(&snap), summaries(&bulk));
        assert_eq!(snap.row_bytes(), bulk.row_bytes());
        let dense = |db: &ReferenceDb| -> Vec<MatchOutcome> {
            db.match_tile(&cands, SimilarityMeasure::Cosine, &mut MatchScratch::new())
                .views()
                .map(|v| v.to_outcome())
                .collect()
        };
        assert_eq!(dense(&snap), dense(&grown));
        assert_eq!(dense(&snap), dense(&bulk));
        assert_eq!(snap.match_topk_tile(&cands, 3, &mut scratch), grown_top);
        assert_eq!(snap.shard_count(), 4);
    }

    #[test]
    fn the_pruned_sweep_grows_shards_from_the_row_count() {
        let sig_for = |n: u64| sig_with(&[(FrameKind::Data, 10.0 + 10.0 * (n % 240) as f64, 8)]);
        let probe = [sig_for(31)];
        let mut scratch = MatchScratch::new();
        // A dense sweep never grows a store, however large.
        let sigs: BTreeMap<MacAddr, Signature> =
            (1..=9000u64).map(|n| (MacAddr::from_index(n), sig_for(n))).collect();
        let large = ReferenceDb::from_signatures(sigs);
        large.match_tile(&probe, SimilarityMeasure::Cosine, &mut scratch);
        assert_eq!(large.shard_count(), 1);
        // The pruned sweep doubles the shard count while the store holds
        // 256 rows per shard, up to 64; inserts never grow it.
        let mut db = ReferenceDb::new();
        let mut rows = 0u64;
        for (target, want) in [
            (1u64, 1usize),
            (255, 1),
            (256, 2),
            (511, 2),
            (512, 4),
            (1024, 8),
            (2047, 8),
            (2048, 16),
            (4096, 32),
            (8191, 32),
            (8192, 64),
            (9000, 64),
        ] {
            let before = db.shard_count();
            while rows < target {
                rows += 1;
                db.insert(MacAddr::from_index(rows), sig_for(rows)).unwrap();
            }
            db.match_tile(&probe, SimilarityMeasure::Cosine, &mut scratch);
            assert_eq!(db.shard_count(), before, "{target} rows: only the pruned sweep grows");
            db.match_topk_tile(&probe, 3, &mut scratch);
            assert_eq!(db.shard_count(), want, "{target} rows");
        }
        // Removals never shrink the layout.
        for n in 1..=8900u64 {
            db.remove(&MacAddr::from_index(n)).unwrap();
        }
        db.match_topk_tile(&probe, 3, &mut scratch);
        assert_eq!(db.shard_count(), 64);
    }

    #[test]
    fn a_growth_relayout_leaves_every_shard_room_for_inserts() {
        // Bulk builds pack at exact size; a growth re-layout sizes each
        // shard's columns for twice its rows, so the first insert into
        // each shard after the pruned sweep grew the store moves no
        // column.
        let sig_for = |n: u64| sig_with(&[(FrameKind::Data, 10.0 + 10.0 * (n % 240) as f64, 8)]);
        for config in [MatchConfig::default(), MatchConfig::quantized()] {
            let sigs: BTreeMap<MacAddr, Signature> =
                (1..=600u64).map(|n| (MacAddr::from_index(n), sig_for(n))).collect();
            let mut db = ReferenceDb::from_signatures_with(sigs, config);
            assert!(db.shards.iter().flat_map(|s| &s.blocks).all(|b| b.cap == b.slots()));
            db.match_topk_tile(&[sig_for(7)], 3, &mut MatchScratch::new());
            assert_eq!(db.shard_count(), 4, "{config:?}");
            let caps = |db: &ReferenceDb| -> Vec<Vec<usize>> {
                db.shards.iter().map(|s| s.blocks.iter().map(|b| b.cap).collect()).collect()
            };
            let grown = caps(&db);
            for shard in &db.shards {
                assert!(shard.blocks.iter().all(|b| b.cap == 2 * b.slots()), "{config:?}");
            }
            // One new device per shard: each lands where a grown device
            // with the same signature lives.
            let mut inserted = vec![false; db.shard_count()];
            for n in 1..=600u64 {
                let shard = db.placement[n as usize - 1].shard as usize;
                if !inserted[shard] {
                    inserted[shard] = true;
                    db.insert(MacAddr::from_index(1000 + n), sig_for(n)).unwrap();
                }
            }
            assert!(inserted.iter().all(|&i| i), "{config:?}: every shard took an insert");
            assert_eq!(caps(&db), grown, "{config:?}: an insert re-laid out a shard's columns");
        }
    }

    #[test]
    fn empty_db_matches_nothing() {
        let mut db = ReferenceDb::new();
        let outcome = match_one(&db, &sig_with(&[(FrameKind::Data, 1.0, 5)]));
        assert!(outcome.best().is_none());
        assert_eq!(outcome.similarities().len(), 0);
        let mut scratch = MatchScratch::new();
        let cand = sig_with(&[(FrameKind::Data, 1.0, 5)]);
        assert!(topk_one(&mut db, &cand, 3, &mut scratch).is_empty());
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
        for (f, n) in fast.similarities().zip(naive.similarities()) {
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
            assert_eq!(view.similarities().len(), 0);
            assert!(view.best().is_none());
            assert!(view.top(3).is_empty());
        }
    }

    #[test]
    fn streaming_inserts_equal_bulk_pack() {
        // The incremental append path must produce a database that scores
        // identically to the one-shot pack — per shard configuration.
        for (config, shards) in layouts() {
            let sigs: Vec<(MacAddr, Signature)> = (1..=9u64)
                .map(|i| {
                    (
                        // Out-of-order addresses exercise the row shift.
                        MacAddr::from_index((i * 7) % 9 + 1),
                        sig_with(&[
                            (FrameKind::Data, 83.0 * i as f64, 20 + i),
                            (FrameKind::ProbeReq, 31.0 * i as f64, i % 3),
                        ]),
                    )
                })
                .collect();
            let mut streamed = empty_at(config, shards);
            for (dev, sig) in &sigs {
                streamed.insert(*dev, sig.clone()).unwrap();
            }
            let bulk = bulk_at(sigs.into_iter().collect(), config, shards);
            assert_eq!(
                streamed.devices().collect::<Vec<_>>(),
                bulk.devices().collect::<Vec<_>>()
            );
            let cand = sig_with(&[(FrameKind::Data, 249.0, 33), (FrameKind::ProbeReq, 62.0, 5)]);
            let a = match_one(&streamed, &cand);
            let b = match_one(&bulk, &cand);
            assert_eq!(a.similarities().collect::<Vec<_>>(), b.similarities().collect::<Vec<_>>(), "{config:?}/{shards}");
            // Replacement detaches and re-attaches (possibly migrating
            // shards) and stays consistent too.
            let dev = streamed.devices().next().unwrap();
            let replacement = sig_with(&[(FrameKind::Beacon, 700.0, 12)]);
            streamed.insert(dev, replacement.clone()).unwrap();
            let mut bulk_map: BTreeMap<MacAddr, Signature> =
                bulk.iter().map(|(d, s)| (d, s.clone())).collect();
            bulk_map.insert(dev, replacement);
            let repacked = bulk_at(bulk_map, config, shards);
            let a = match_one(&streamed, &cand);
            let b = match_one(&repacked, &cand);
            assert_eq!(a.similarities().collect::<Vec<_>>(), b.similarities().collect::<Vec<_>>(), "{config:?}/{shards}");
        }
    }

    #[test]
    fn remove_then_insert_keeps_shards_and_index_consistent() {
        // Regression for the sharded store: any interleaving of removes
        // and (re-)inserts must leave shard membership, slots and the
        // address-ordered rows scoring exactly like a freshly built
        // database.
        for (config, shards) in layouts() {
            let sig_for = |i: u64| {
                sig_with(&[
                    (FrameKind::Data, 190.0 * (i % 13) as f64, 25 + i),
                    (FrameKind::ProbeReq, 60.0 * (i % 5) as f64, 4 + i % 3),
                ])
            };
            let mut db = empty_at(config, shards);
            for i in 1..=12u64 {
                db.insert(MacAddr::from_index(i), sig_for(i)).unwrap();
            }
            // Remove from the middle and both ends (stressing the
            // global-row shift), then re-insert one with a *different*
            // signature so it may migrate shards.
            for i in [6u64, 1, 12] {
                assert!(db.remove(&MacAddr::from_index(i)).unwrap().is_some(), "{config:?}/{shards}");
            }
            db.insert(MacAddr::from_index(6), sig_for(99)).unwrap();
            db.insert(MacAddr::from_index(13), sig_for(13)).unwrap();

            let mut fresh_map: BTreeMap<MacAddr, Signature> = BTreeMap::new();
            for i in 2..=11u64 {
                fresh_map.insert(MacAddr::from_index(i), sig_for(i));
            }
            fresh_map.insert(MacAddr::from_index(6), sig_for(99));
            fresh_map.insert(MacAddr::from_index(13), sig_for(13));
            let fresh = bulk_at(fresh_map, config, shards);

            assert_eq!(
                db.devices().collect::<Vec<_>>(),
                fresh.devices().collect::<Vec<_>>(),
                "{config:?}/{shards}: address index"
            );
            let mut scratch = MatchScratch::new();
            for probe in [sig_for(99), sig_for(3), sig_for(13)] {
                let a = match_one(&db, &probe);
                let b = match_one(&fresh, &probe);
                assert_eq!(a.similarities().collect::<Vec<_>>(), b.similarities().collect::<Vec<_>>(), "{config:?}/{shards}: dense parity");
                let ta = topk_one(&mut db, &probe, 4, &mut scratch);
                assert_eq!(ta, b.top(4), "{config:?}/{shards}: pruned parity after churn");
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
        let bits = |db: &ReferenceDb| -> Vec<(MacAddr, u64)> {
            match_one(db, &cand).similarities().map(|(d, s)| (d, s.to_bits())).collect()
        };
        for (config, shards) in layouts() {
            // The flat baseline shares the config's precision: the
            // bit-identity claim is per tier. Its one shard holds its rows
            // in slot order, so the sweep writes its scores in place.
            let flat = ReferenceDb::from_signatures_with(sigs.iter().cloned().collect(), config);
            assert_eq!(flat.shards[0].first_row_in_order(), Some(0));
            let sharded = bulk_at(sigs.iter().cloned().collect(), config, shards);
            // Bit-identical, not merely within tolerance: the sweep
            // accumulates per device in the same kind order.
            assert_eq!(bits(&sharded), bits(&flat), "{config:?}/{shards}");
        }
        // Flat stores whose slots left row order take the staged route
        // and still score bit for bit like the in-place one, per tier: an
        // insert below the last address, and a removal that moves the
        // last slot into the gap.
        for config in [MatchConfig::default(), MatchConfig::quantized()] {
            let flat = ReferenceDb::from_signatures_with(sigs.iter().cloned().collect(), config);
            let mut inserted_below = ReferenceDb::with_config(config);
            for (dev, sig) in sigs.iter().skip(1).chain(&sigs[..1]) {
                inserted_below.insert(*dev, sig.clone()).unwrap();
            }
            let mut removed = ReferenceDb::with_config(config);
            let gone = MacAddr::from_index(12 * 0x100);
            removed.insert(gone, sigs[3].1.clone()).unwrap();
            for (dev, sig) in &sigs {
                removed.insert(*dev, sig.clone()).unwrap();
            }
            removed.remove(&gone).unwrap();
            for (name, db) in [("insert below", &inserted_below), ("removal", &removed)] {
                assert_eq!(db.shard_count(), 1);
                assert_eq!(db.shards[0].first_row_in_order(), None, "{name}: slots out of row order");
                assert_eq!(bits(db), bits(&flat), "{config:?}: {name}");
            }
        }
    }

    #[test]
    fn pruned_topk_equals_dense_topk() {
        let mut db = empty_at(MatchConfig::default(), 8);
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
                let pruned = topk_one(&mut db, &cand, k, &mut scratch);
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
        let mut db = empty_at(MatchConfig::default(), 16);
        for i in 0..160u64 {
            let center = 150.0 * (i % 16) as f64 + 10.0;
            db.insert(MacAddr::from_index(i + 1), sig_with(&[(FrameKind::Data, center, 60)]))
                .unwrap();
        }
        let cand = sig_with(&[(FrameKind::Data, 310.0, 60)]);
        let mut scratch = MatchScratch::new();
        let pruned = topk_one(&mut db, &cand, 3, &mut scratch);
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
        let mut db = empty_at(MatchConfig::default(), 16);
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
            let mut v = outcome.similarities().collect::<Vec<_>>();
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
        let pruned = topk_one(&mut tied, &sig, 2, &mut scratch);
        assert_eq!(pruned, top);
    }

    #[test]
    fn mixed_bin_specs_keep_every_reference_scoreable() {
        // Two references binned differently for the same kind: each must
        // still score against a candidate with its own spec (sibling
        // blocks keyed on (kind, bins)).
        let fine = cfg(); // 10 µs bins
        let coarse = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
            .with_bins(BinSpec::uniform_to(2500.0, 50.0));
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
            for (f, n) in outcome.similarities().zip(naive.similarities()) {
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
            .with_bins(BinSpec::uniform_to(2500.0, 100.0));
        let mut cand = Signature::new();
        for _ in 0..50 {
            cand.record(FrameKind::Data, 100.0, &coarse);
        }
        let outcome = match_one(&db, &cand);
        assert_eq!(outcome.similarities().next().unwrap().1, 0.0);
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
            let mut db = empty_at(MatchConfig::default().with_precision(precision), 16);
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
        for (config, shards) in layouts() {
            let mut db = empty_at(config, shards);
            db.insert(MacAddr::from_index(1), sig_with(&[(FrameKind::Data, 500.0, 30)])).unwrap();
            let unique = MacAddr::from_index(2);
            let with_beacon = sig_with(&[(FrameKind::Data, 300.0, 20), (FrameKind::Beacon, 100.0, 5)]);
            db.insert(unique, with_beacon.clone()).unwrap();
            let bins = cfg().bins.bin_count();
            assert_eq!(db.kind_keys, vec![(FrameKind::Beacon, bins), (FrameKind::Data, bins)]);
            db.remove(&unique).unwrap();
            assert_eq!(db.kind_keys, vec![(FrameKind::Data, bins)], "{config:?}/{shards}");
            let mut scratch = MatchScratch::new();
            db.match_tile(std::slice::from_ref(&with_beacon), SimilarityMeasure::Cosine, &mut scratch);
            assert_eq!(scratch.kind_spans.len(), 1, "{config:?}/{shards}: only the Data key is packed");
            // The replace path drops a key the same way.
            db.insert(unique, with_beacon).unwrap();
            db.insert(unique, sig_with(&[(FrameKind::Data, 700.0, 10)])).unwrap();
            assert_eq!(db.kind_keys, vec![(FrameKind::Data, bins)], "{config:?}/{shards}: replace");
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

    /// Exact integer dot of two equal-length code rows: eight independent
    /// `u32` partial sums over widened `u8` products, then the remainder.
    fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
        assert_eq!(a.len(), b.len());
        let mut acc = [0u32; 8];
        let chunks = a.len() / 8 * 8;
        for (ca, cb) in a[..chunks].chunks_exact(8).zip(b[..chunks].chunks_exact(8)) {
            for lane in 0..8 {
                acc[lane] += u32::from(ca[lane]) * u32::from(cb[lane]);
            }
        }
        let mut total: u32 = acc.iter().sum();
        for (&x, &y) in a[chunks..].iter().zip(&b[chunks..]) {
            total += u32::from(x) * u32::from(y);
        }
        total
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
            for (f, n) in fast.similarities().zip(baseline.similarities()) {
                prop_assert_eq!(f.0, n.0);
                prop_assert!((f.1 - n.1).abs() < F32_SCORE_TOLERANCE, "{} vs {}", f.1, n.1);
            }
        }

        // The acceptance property of the sharded refactor: over arbitrary
        // enrolments, shard counts and tile widths,
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
            shards in 1usize..13,
            quantized in any::<bool>(),
            k in 1usize..8,
        ) {
            let c = cfg();
            let precision = if quantized { RowPrecision::U8 } else { RowPrecision::F32 };
            let config = MatchConfig { precision };
            let mut sharded = empty_at(config, shards);
            let mut flat = ReferenceDb::with_config(config);
            for (i, values) in per_device.iter().enumerate() {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = if j % 5 == 0 { FrameKind::Beacon } else { FrameKind::Data };
                    sig.record(kind, v, &c);
                }
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
                prop_assert_eq!(got.similarities().collect::<Vec<_>>(), want.similarities().collect::<Vec<_>>());
            }
            // Pruned top-k parity: argmax and scores, per candidate and
            // for the whole tile in one sweep.
            let tiled = sharded.match_topk_tile(&candidates, k, &mut scratch);
            prop_assert_eq!(tiled.len(), candidates.len());
            for ((cand, want_full), got_tiled) in candidates.iter().zip(&dense).zip(&tiled) {
                let want = want_full.top(k);
                let got = topk_one(&mut sharded, cand, k, &mut scratch);
                prop_assert_eq!(&got, got_tiled);
                prop_assert_eq!(got.len(), want.len());
                prop_assert_eq!(
                    got.first().map(|&(d, _)| d),
                    want_full.best().map(|(d, _)| d),
                    "argmax diverged under {:?} over {} shards", config, shards
                );
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.0, w.0);
                    prop_assert!((g.1 - w.1).abs() < F32_SCORE_TOLERANCE,
                        "{} vs {} under {:?} over {} shards", g.1, w.1, config, shards);
                }
            }
        }

        // u8 ↔ f32 parity: over arbitrary enrolments and shard counts,
        // the quantized tier's cosine scores track the f32 tier within
        // U8_SCORE_TOLERANCE, and its argmax is the f32 argmax up to a
        // genuine near-tie at that tolerance.
        #[test]
        fn u8_tier_tracks_f32_tier(
            per_device in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..40), 1..12),
            cand_values in prop::collection::vec(0.0f64..2400.0, 1..40),
            shards in 1usize..13,
        ) {
            let c = cfg();
            let mut f32_db = empty_at(MatchConfig::default(), shards);
            let mut u8_db = empty_at(MatchConfig::quantized(), shards);
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
            for (f, q) in a.similarities().zip(b.similarities()) {
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
            let top = topk_one(&mut u8_db, &cand, 3, &mut scratch);
            prop_assert_eq!(top, b.top(3));
        }

        // The bin-major columns grow by doubling under incremental
        // inserts and shift down on removes; a bulk build packs them at
        // exact size. Any insert/replace/remove sequence — crossing
        // several doublings — must score bit for bit like a bulk build
        // of the surviving signatures in both sweeps after every step,
        // hold the same keys and prune
        // summaries, and report the same resident bytes (which count
        // slots, not capacity). Device ids land below and above the last
        // address, so the rows and every view's device table must stay
        // in address order through inserts that shift later rows.
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
            let config = MatchConfig { precision };
            let candidates: Vec<Signature> = cand_tiles.iter().map(|v| signature(v)).collect();
            let mut db = empty_at(config, shards);
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
                // Rows stay in address order whichever side of the last
                // address the device landed.
                let devices: Vec<MacAddr> = mirror.keys().copied().collect();
                prop_assert_eq!(db.devices().collect::<Vec<_>>(), devices.clone());
                let mut bulk = bulk_at(mirror.clone(), config, shards);
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
                    prop_assert_eq!(g.devices(), &devices[..]);
                    prop_assert_eq!(w.devices(), &devices[..]);
                    prop_assert_eq!(g.similarities().collect::<Vec<_>>(), w.similarities().collect::<Vec<_>>());
                }
                let got = db.match_topk_tile(&candidates, 3, &mut a);
                let want = bulk.match_topk_tile(&candidates, 3, &mut b);
                prop_assert_eq!(got, want);
            }
        }

        // A re-layout is a bulk build at the new shard count.
        // After any churn and any sequence of shard counts, the split
        // store must hold what a bulk build at the new count holds (keys,
        // prune summaries, resident bytes), keep its dense and top-k
        // sweeps' bits, and take further churn like a bulk build.
        #[test]
        fn reshard_equals_a_bulk_build(
            ops in prop::collection::vec(
                (0u8..5, 0u64..40, prop::collection::vec(0.0f64..2400.0, 1..30)), 8..48),
            path in prop::collection::vec(1usize..9, 1..4),
            cand_tiles in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..30), 1..4),
            quantized in any::<bool>(),
        ) {
            let c = cfg();
            // About half the devices send probes, so some shards lack a key
            // that others hold and the shard walk must skip it.
            let signature = |values: &[f64]| {
                let mut sig = Signature::new();
                let probes = values[0] < 1200.0;
                for (j, &v) in values.iter().enumerate() {
                    let kind = if probes && j % 3 == 0 { FrameKind::ProbeReq } else { FrameKind::Data };
                    sig.record(kind, v, &c);
                }
                sig
            };
            let precision = if quantized { RowPrecision::U8 } else { RowPrecision::F32 };
            let candidates: Vec<Signature> = cand_tiles.iter().map(|v| signature(v)).collect();
            let config = MatchConfig { precision };
            let mut db = ReferenceDb::with_config(config);
            let mut mirror: BTreeMap<MacAddr, Signature> = BTreeMap::new();
            let (half, rest) = ops.split_at(ops.len() / 2);
            let apply = |db: &mut ReferenceDb,
                         mirror: &mut BTreeMap<MacAddr, Signature>,
                         ops: &[(u8, u64, Vec<f64>)]| {
                for (op, device, values) in ops {
                    let device = MacAddr::from_index(device + 1);
                    if *op == 4 {
                        db.remove(&device).unwrap();
                        mirror.remove(&device);
                    } else {
                        db.insert(device, signature(values)).unwrap();
                        mirror.insert(device, signature(values));
                    }
                }
            };
            apply(&mut db, &mut mirror, half);
            let (mut a, mut b) = (MatchScratch::new(), MatchScratch::new());
            let dense = |db: &ReferenceDb, scratch: &mut MatchScratch| -> Vec<MatchOutcome> {
                db.match_tile(&candidates, SimilarityMeasure::Cosine, scratch)
                    .views()
                    .map(|v| v.to_outcome())
                    .collect()
            };
            let before = (dense(&db, &mut a), db.match_topk_tile(&candidates, 3, &mut a));
            for &shards in &path {
                let moved = shards != db.shard_count();
                db.reshard(shards);
                prop_assert_eq!(db.config(), &config);
                prop_assert_eq!(db.shard_count(), shards);
                let bulk = bulk_at(mirror.clone(), config, shards);
                prop_assert_eq!(&db.kind_keys, &bulk.kind_keys);
                prop_assert_eq!(summaries(&db), summaries(&bulk));
                prop_assert_eq!(db.row_bytes(), bulk.row_bytes());
                prop_assert!(
                    !moved || db.shards.iter().flat_map(|s| &s.blocks).all(|b| b.cap == b.slots()),
                    "a re-layout packs at exact size"
                );
                let after = (dense(&db, &mut a), db.match_topk_tile(&candidates, 3, &mut a));
                prop_assert_eq!(&after, &before, "{:?} over {} shards", config, shards);
            }
            // Churn on the re-laid-out store still matches a bulk build.
            apply(&mut db, &mut mirror, rest);
            let mut bulk = bulk_at(mirror, config, db.shard_count());
            prop_assert_eq!(summaries(&db), summaries(&bulk));
            prop_assert_eq!(dense(&db, &mut a), dense(&bulk, &mut b));
            prop_assert_eq!(
                db.match_topk_tile(&candidates, 3, &mut a),
                bulk.match_topk_tile(&candidates, 3, &mut b)
            );
        }

        // Random access is the dense sweep, one row at a time: after every
        // insert, replace or remove — device ids landing below and above
        // the last address, so slots fall out of row order — and after a
        // re-layout, score_row equals match_tile bit for bit on every row,
        // in both tiers. References and candidates bin some kinds coarsely
        // (sibling blocks, and candidate rows whose bins match no block),
        // and candidates lack kinds or carry none at all.
        #[test]
        fn score_row_equals_the_dense_sweep(
            ops in prop::collection::vec(
                (0u8..4, 0u64..24, 0u8..8, prop::collection::vec(0.0f64..2400.0, 1..30)), 8..40),
            cand_tiles in prop::collection::vec(
                (prop::collection::vec(0.0f64..2400.0, 0..30), 0u8..8), 1..4),
            shards in 1usize..6,
            relayout in 1usize..9,
            quantized in any::<bool>(),
        ) {
            let fine = cfg();
            let coarse = cfg().with_bins(BinSpec::uniform_to(2500.0, 50.0));
            // Bit k of `mask` drops kind k; bit 2 bins probes coarsely.
            let signature = |values: &[f64], mask: u8| {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let (kind, bit) = match j % 3 {
                        2 => (FrameKind::ProbeReq, 0),
                        _ => (FrameKind::Data, 1),
                    };
                    if mask >> bit & 1 == 0 {
                        let bins = if kind == FrameKind::ProbeReq && mask & 4 != 0 { &coarse } else { &fine };
                        sig.record(kind, v, bins);
                    }
                }
                sig
            };
            let precision = if quantized { RowPrecision::U8 } else { RowPrecision::F32 };
            let mut db = empty_at(MatchConfig { precision }, shards);
            let candidates: Vec<Signature> =
                cand_tiles.iter().map(|(values, mask)| signature(values, *mask)).collect();
            let (mut dense, mut random) = (MatchScratch::new(), MatchScratch::new());
            let mut check = |db: &ReferenceDb| {
                for cand in &candidates {
                    let one = std::slice::from_ref(cand);
                    let want = db.match_tile(one, SimilarityMeasure::Cosine, &mut dense);
                    db.pack_candidates(one, &mut random);
                    for (row, &score) in want.candidate(0).scores.iter().enumerate() {
                        prop_assert_eq!(db.score_row(row, &random).to_bits(), score.to_bits(), "row {}", row);
                    }
                }
            };
            for (op, device, mask, values) in &ops {
                let device = MacAddr::from_index(device + 1);
                if *op == 3 {
                    db.remove(&device).unwrap();
                } else {
                    // Never empty: the first value is a data frame, and a
                    // reference keeps its data frames.
                    db.insert(device, signature(values, mask & !2)).unwrap();
                }
                check(&db);
            }
            db.reshard(relayout);
            check(&db);
        }

    // The u8 cosine sweep's scores are exact integer dots folded by one
    // f64 epilogue, so they equal, with `==`, a per-pair oracle built on
    // a dense scalar `u32` dot: per reference, ascending frame kind, the
    // stored f32 weight times the clamped cosine of the two code rows.
    #[test]
    fn u8_match_tile_equals_a_per_pair_dot_u8_oracle(
        per_device in prop::collection::vec(
            prop::collection::vec(0.0f64..2400.0, 1..60), 1..12),
        per_candidate in prop::collection::vec(
            prop::collection::vec(0.0f64..2400.0, 0..60), 1..10),
        shards in 1usize..5,
    ) {
        let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
        let signature = |values: &[f64]| {
            let mut sig = Signature::new();
            for (j, &v) in values.iter().enumerate() {
                let kind = if j % 3 == 0 { FrameKind::ProbeReq } else { FrameKind::Data };
                sig.record(kind, v, &cfg);
            }
            sig
        };
        let references: BTreeMap<MacAddr, Signature> = per_device
            .iter()
            .enumerate()
            .map(|(i, values)| (MacAddr::from_index(i as u64 + 1), signature(values)))
            .collect();
        let mut db = empty_at(MatchConfig::quantized(), shards);
        for (&device, sig) in &references {
            db.insert(device, sig.clone()).unwrap();
        }
        let candidates: Vec<Signature> = per_candidate.iter().map(|v| signature(v)).collect();
        let mut scratch = MatchScratch::new();
        let tile = db.match_tile(&candidates, SimilarityMeasure::Cosine, &mut scratch);
        for (ci, cand) in candidates.iter().enumerate() {
            for (device, got) in tile.candidate(ci).similarities() {
                let reference = &references[&device];
                let mut want = 0.0f64;
                for (kind, rh) in reference.iter() {
                    let Some(ch) = cand.histogram(kind) else { continue };
                    if ch.total() == 0 {
                        continue;
                    }
                    let (cq, rq) = (ch.frequencies_u8(), rh.frequencies_u8());
                    let dot = f64::from(dot_u8(cq.values(), rq.values()));
                    let cos = (dot * f64::from(cq.inv_norm()) * f64::from(rq.inv_norm()))
                        .clamp(0.0, 1.0);
                    want += f64::from(reference.weight(kind) as f32) * cos;
                }
                prop_assert_eq!(got, want, "candidate {} vs {}", ci, device);
            }
        }
    }

    // The f32 cosine sweep is a column pass of ascending-bin f64 sums
    // over a candidate's nonzero bins, with norms from fixed-order f64
    // sums of squares. Every f32 × f32 product is exact in f64 and a zero
    // bin adds exactly +0, so its scores equal, with `==`, a per-pair
    // scalar oracle that walks every bin in order — on every host.
    // Sparse, dense and all-zero candidates, at
    // widths around the 32-lane boundary and the default 251 bins.
    #[test]
    fn f32_match_tile_equals_an_ascending_bin_f64_oracle(
        per_device in prop::collection::vec(prop::collection::vec(0u64..4, 502), 1..12),
        per_candidate in prop::collection::vec(
            (prop::collection::vec(0u64..4, 502), 0u8..3), 1..10),
        width in prop::sample::select(vec![1usize, 31, 32, 33, 251]),
        shards in 1usize..5,
    ) {
        let spec = BinSpec::Uniform { min: 0.0, width: 1.0, count: width - 1 };
        // Data reads the first half of `raw`, ProbeReq the second.
        let signature = |raw: &[u64]| {
            let mut entries = BTreeMap::new();
            for (kind, counts) in
                [(FrameKind::Data, &raw[..width]), (FrameKind::ProbeReq, &raw[251..251 + width])]
            {
                entries.insert(kind, Histogram::from_counts(spec.clone(), counts.to_vec()));
            }
            Signature::from_histograms(entries)
        };
        let references: BTreeMap<MacAddr, Signature> = per_device
            .iter()
            .enumerate()
            .map(|(i, raw)| {
                let mut raw = raw.clone();
                raw[0] = raw[0].max(1); // never an empty signature
                (MacAddr::from_index(i as u64 + 1), signature(&raw))
            })
            .collect();
        let mut db = empty_at(MatchConfig::default(), shards);
        for (&device, sig) in &references {
            db.insert(device, sig.clone()).unwrap();
        }
        // Density 0 is an all-zero candidate, 1 a fully dense one (no
        // zero bin), 2 a sparse one keeping about one bin in four.
        let candidates: Vec<Signature> = per_candidate
            .iter()
            .map(|(raw, density)| {
                let raw: Vec<u64> = raw
                    .iter()
                    .map(|&c| match density {
                        0 => 0,
                        1 => c.max(1),
                        _ => u64::from(c == 3),
                    })
                    .collect();
                signature(&raw)
            })
            .collect();
        let inv_norm = |row: &[f32]| {
            let norm_sq = row.iter().fold(0.0, |acc, &x| acc + f64::from(x) * f64::from(x));
            if norm_sq > 0.0 { f64::from((1.0 / norm_sq.sqrt()) as f32) } else { 0.0 }
        };
        let mut scratch = MatchScratch::new();
        let tile = db.match_tile(&candidates, SimilarityMeasure::Cosine, &mut scratch);
        for (ci, cand) in candidates.iter().enumerate() {
            for (device, got) in tile.candidate(ci).similarities() {
                let reference = &references[&device];
                let mut want = 0.0f64;
                for (kind, rh) in reference.iter() {
                    let Some(ch) = cand.histogram(kind) else { continue };
                    if ch.total() == 0 || rh.total() == 0 {
                        continue;
                    }
                    let (c, r) = (ch.frequencies_f32(), rh.frequencies_f32());
                    let dot = c.iter().zip(&r).fold(0.0, |acc, (&x, &y)| {
                        acc + f64::from(x) * f64::from(y)
                    });
                    let cos = (dot * inv_norm(&c) * inv_norm(&r)).clamp(0.0, 1.0);
                    want += f64::from(reference.weight(kind) as f32) * cos;
                }
                prop_assert_eq!(got, want, "candidate {} vs {} at width {}", ci, device, width);
            }
        }
    }
    }
}
