//! Passive 802.11 device fingerprinting.
//!
//! This crate implements the fingerprinting method of **Neumann, Heen &
//! Onno, "An empirical study of passive 802.11 device fingerprinting"
//! (ICDCS workshops 2012)**: characterising a wireless device purely from
//! capture-header observables — no payload inspection, no active probing —
//! so that it works on encrypted (WPA) traffic and from networks the
//! monitor is not a member of.
//!
//! # Method overview
//!
//! 1. Five **network parameters** ([`NetworkParameter`]) are extracted per
//!    frame and attributed to the transmitting device (frames without a
//!    transmitter address — ACK, CTS — are dropped, §IV-A):
//!    transmission rate, frame size, medium access time, transmission time
//!    and frame inter-arrival time.
//! 2. Per device, per frame type, the values are binned into
//!    **percentage-frequency histograms** ([`Histogram`]); the set of
//!    weighted histograms is the device's **signature** ([`Signature`]).
//! 3. A candidate signature is matched against a [`ReferenceDb`] with the
//!    weighted **cosine similarity** of Algorithm 1 ([`matching`]) — a
//!    **sharded** structure-of-arrays `f32` or `u8` store ([`MatchConfig`]
//!    picks the precision; shards bucket rows by a dominant-histogram
//!    locality key and grow with the row count for pruned sweeps) whose
//!    bin-major columns are swept one candidate nonzero bin at a time,
//!    scoring tiles of candidate windows per pass over the shards, with
//!    reusable [`MatchScratch`] buffers, with independent sweeps fanned
//!    out over scoped worker threads ([`batch`]). Two sweeps share one shard walk: the dense
//!    [`ReferenceDb::match_tile`] returns full similarity vectors, and at
//!    large populations the pruned [`ReferenceDb::match_topk_tile`]
//!    returns each candidate's top-k, skipping every shard whose
//!    envelope bound (the elementwise upper envelope of its normalised
//!    rows times its largest weight) cannot beat that candidate's
//!    current `k`-th best. The store comes in two
//!    **precision tiers** ([`RowPrecision`]): the default `f32` rows,
//!    and a quantized `u8` tier (7-bit codes) that roughly quarters
//!    resident bytes per device and sweeps exact integer
//!    dots over each candidate window's nonzero bins only — see the
//!    [`matching`] module docs
//!    ("Precision tiers") for the memory table and drift bounds
//!    ([`U8_SCORE_TOLERANCE`]).
//! 4. Accuracy is measured with the paper's two tests ([`metrics`]): the
//!    **similarity test** (threshold sweep → TPR/FPR curve → AUC) and the
//!    **identification test** (argmax → identification ratio at a target
//!    FPR).
//!
//! # The streaming engine
//!
//! The production entry point is the [`engine`] module. The
//! [`MultiEngine`] extracts the parameters of its [`FusionSpec`] from
//! one header parse per frame ([`FusedExtractor`]), drives them off one
//! shared window clock ([`WindowClock`]), and combines their
//! per-parameter similarity vectors into a weighted-average fused score
//! online ([`fusion`]) — emitting typed [`MultiEvent`]s
//! ([`engine::MultiEvent::FusedMatch`],
//! [`engine::MultiEvent::FusedNewDevice`]) as detection windows close,
//! on traffic or on wall clock ([`MultiEngine::advance_to`] /
//! [`MultiEngine::tick`]). A one-parameter deployment is a
//! [`FusionSpec::single`] spec. The batch helpers above remain as the
//! engine's building blocks; failures are typed ([`CoreError`] /
//! [`engine::EngineError`]) rather than panics.
//!
//! # Example
//!
//! ```
//! use wifiprint_core::engine::{MultiEngine, MultiEvent};
//! use wifiprint_core::{FusionSpec, NetworkParameter};
//! use wifiprint_radiotap::CapturedFrame;
//! use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
//!
//! // A toy "trace": one station sending data frames every ~800 µs.
//! let sta = MacAddr::from_index(1);
//! let ap = MacAddr::from_index(2);
//! let frames: Vec<CapturedFrame> = (0..200u64)
//!     .map(|i| {
//!         let f = Frame::data_to_ds(sta, ap, ap, 500);
//!         CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(800 * (i + 1)), -50)
//!     })
//!     .collect();
//!
//! // Enroll the station online: a training-only engine session over one
//! // parameter.
//! let iat = NetworkParameter::InterArrivalTime;
//! let mut engine = MultiEngine::builder()
//!     .spec(FusionSpec::single(iat))
//!     .train_for(Nanos::from_secs(3600))
//!     .build()
//!     .expect("valid configuration");
//! let mut events = engine.observe_all(&frames).expect("frames in capture order");
//! events.extend(engine.finish().expect("first finish"));
//! assert!(matches!(events[0], MultiEvent::Enrolled { device, .. } if device == sta));
//! let db = &engine.into_references()[&iat];
//! assert!(db.get(&sta).is_some() && db.is_frozen());
//! ```

// The whole crate is safe Rust: the sweeps are plain slice loops that
// the compiler auto-vectorises, so no module may opt back into `unsafe`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::pedantic)]
// Pedantic lints this crate opts out of, with reasons:
#![allow(
    // Histogram counts and bin indices stay far below 2^52; the hot
    // paths quantise f64 → f32 by design (see matching's module docs).
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    // Exact float compares are deliberate: 0.0 sentinels in the sweep
    // and bit-identical equivalence assertions in tests.
    clippy::float_cmp,
    // Getter-heavy API: forcing #[must_use] on ~170 accessors adds
    // noise without catching real bugs.
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    // Public items are intentionally re-exported from the crate root,
    // so module-qualified names repeat the module name.
    clippy::module_name_repetitions
)]

pub mod batch;
mod config;
mod db;
pub mod engine;
mod error;
pub mod fusion;
mod histogram;
pub mod kernel;
pub mod matching;
pub mod metrics;
mod params;
mod signature;
mod similarity;
mod windows;

pub use config::{default_bins, EvalConfig, FrameFilter, TxTimeEstimator};
pub use db::{load_db, load_db_with, save_db, DbCodecError};
pub use engine::{
    EngineError, EngineHealth, EnginePhase, IdentityId, IngestConfig, IngestPipeline,
    IngestReport, IngestStats, LateFramePolicy, LinkEvent, LinkerConfig, LinkerStats,
    MultiConfig, MultiEngine, MultiEngineBuilder, MultiEvent, OverloadPolicy, ParameterDecision,
    Quarantined, ResilienceConfig, RotationLinker, SubmitOutcome, MIN_PLAUSIBLE_FRAME_SIZE,
};
pub use error::CoreError;
pub use fusion::{fuse_outcomes, FusedOutcome, FusionSpec};
pub use histogram::{BinSpec, Histogram, QuantizedRow, QUANT_MAX};
pub use matching::{
    MatchConfig, MatchOutcome, MatchScratch, MatchView, PruneStats, ReferenceDb, RowPrecision,
    SimilarityVector, TileView, F32_SCORE_TOLERANCE, MATCH_TILE, U8_SCORE_TOLERANCE,
};
pub use metrics::{
    evaluate, CurvePoint, EvalOutcome, IdentOperatingPoint, MatchSet, SimilarityCurve,
};
pub use params::{
    FusedExtractor, FusedObservation, NetworkParameter, Observation, ParameterExtractor,
};
pub use signature::{Signature, SignatureBuilder};
pub use similarity::SimilarityMeasure;
pub use windows::{CandidateWindow, WindowClock, WindowedSignatures};
