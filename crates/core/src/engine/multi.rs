//! The streaming engine: any [`FusionSpec`] of network parameters on one
//! frame parse and one window clock.
//!
//! The paper evaluates every network parameter on its own, and its
//! headline accuracy comes from combining them. The [`MultiEngine`] runs
//! both shapes — a [`FusionSpec::single`] spec is the one-parameter
//! deployment — with:
//!
//! * **one fused extraction** — a single [`FusedExtractor`] pass per
//!   frame yields all five [`NetworkParameter`] observations from one
//!   header parse and one shared previous-frame timestamp;
//! * **one shared window clock** — a single [`WindowClock`] decides when
//!   detection windows seal for every parameter, so per-parameter
//!   decisions are always aligned;
//! * **online score fusion** — as each window closes, every candidate is
//!   swept against each parameter's [`ReferenceDb`] (the tiled column
//!   sweep, [`ReferenceDb::match_tile`]) and the per-parameter
//!   similarity vectors are combined into one weighted-average
//!   [`FusedOutcome`] per [`fusion`](crate::fusion) spec.
//!
//! [`MultiEvent::FusedMatch`] / [`MultiEvent::FusedNewDevice`] carry one
//! [`ParameterDecision`] per parameter the candidate qualified for (its
//! per-parameter similarity vector) plus the combined score, and fire the
//! moment the window closes — or when [`MultiEngine::advance_to`] /
//! [`MultiEngine::tick`] seal it on wall clock, so a quiet channel cannot
//! stall the last decision.
//!
//! A fused spec's per-parameter decisions are bit-for-bit the decisions
//! of one-parameter engines over each of its parameters; an end-to-end
//! test pins this on the office and conference scenarios. See the
//! [`engine`](super) module docs for the lifecycle and an example.

use std::collections::BTreeMap;

use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_radiotap::CapturedFrame;

use crate::config::{default_bins, EvalConfig, FrameFilter, TxTimeEstimator};
use crate::error::CoreError;
use crate::fusion::{fuse_outcomes, FusedOutcome, FusionSpec};
use crate::matching::{MatchConfig, MatchOutcome, MatchScratch, ReferenceDb, MATCH_TILE};
use crate::params::{FusedExtractor, NetworkParameter};
use crate::signature::Signature;
use crate::similarity::SimilarityMeasure;
use crate::windows::WindowClock;

use super::resilience::{EngineHealth, IngestFront, ResilienceConfig};
use super::{EngineError, EnginePhase};

/// Shared knobs of a [`MultiEngine`]: everything an [`EvalConfig`]
/// carries except the parameter itself and its bins. The fused parse
/// shares one filter, estimator, window length and observation floor
/// across all parameters (per-parameter bins come from
/// [`default_bins`]); [`MultiConfig::eval_config`] projects the
/// equivalent single-parameter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiConfig {
    /// Minimum observations per candidate signature, per parameter (the
    /// paper uses 50, §V-C).
    pub min_observations: u64,
    /// The similarity measure. It has one value,
    /// [`SimilarityMeasure::Cosine`], so the engine does not read it; the
    /// field is kept for the benchmark harness.
    pub measure: SimilarityMeasure,
    /// Transmission-time estimator, shared by the fused parse.
    pub estimator: TxTimeEstimator,
    /// Frame filter applied once per frame, for every parameter.
    pub filter: FrameFilter,
    /// Detection window length (the paper uses 5 minutes, §I/§V-A).
    pub window: Nanos,
    /// Shard layout of the per-parameter reference databases the
    /// training phase builds (see [`MatchConfig`]).
    pub match_config: MatchConfig,
}

impl Default for MultiConfig {
    /// The paper's defaults: 50-observation floor, cosine similarity,
    /// size/rate transmission-time estimator, no filtering, 5-minute
    /// windows.
    fn default() -> Self {
        MultiConfig {
            min_observations: 50,
            measure: SimilarityMeasure::Cosine,
            estimator: TxTimeEstimator::SizeOverRate,
            filter: FrameFilter::default(),
            window: Nanos::from_secs(300),
            match_config: MatchConfig::default(),
        }
    }
}

impl MultiConfig {
    /// Returns a copy with a different minimum observation count.
    #[must_use]
    pub fn with_min_observations(mut self, min: u64) -> Self {
        self.min_observations = min;
        self
    }

    /// Returns a copy with a different frame filter.
    #[must_use]
    pub fn with_filter(mut self, filter: FrameFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Returns a copy with a different detection window length.
    #[must_use]
    pub fn with_window(mut self, window: Nanos) -> Self {
        self.window = window;
        self
    }

    /// Returns a copy with a different reference-store shard layout.
    #[must_use]
    pub fn with_match_config(mut self, match_config: MatchConfig) -> Self {
        self.match_config = match_config;
        self
    }

    /// The single-parameter [`EvalConfig`] this multi-configuration is
    /// equivalent to for one parameter — the configuration the batch
    /// building blocks ([`SignatureBuilder`](crate::SignatureBuilder),
    /// [`WindowedSignatures`](crate::WindowedSignatures)) need to
    /// reproduce the [`MultiEngine`]'s per-parameter decisions.
    pub fn eval_config(&self, parameter: NetworkParameter) -> EvalConfig {
        EvalConfig {
            parameter,
            bins: default_bins(parameter),
            min_observations: self.min_observations,
            estimator: self.estimator,
            filter: self.filter.clone(),
            window: self.window,
            match_config: self.match_config,
        }
    }
}

/// One parameter's contribution to a fused window decision.
#[derive(Debug, Clone)]
pub struct ParameterDecision {
    /// The network parameter this decision scored.
    pub parameter: NetworkParameter,
    /// Whether the candidate device is enrolled in *this parameter's*
    /// reference database (enrollment can differ per parameter: the
    /// history-based parameters observe one frame fewer, and a filter
    /// may starve one projection).
    pub known: bool,
    /// Algorithm 1's similarity vector against this parameter's
    /// references. Empty for strangers when stranger scoring is off
    /// ([`MultiEngineBuilder::score_unknown`]).
    pub view: MatchOutcome,
}

/// A typed notification emitted by [`MultiEngine::observe`] /
/// [`MultiEngine::advance_to`] / [`MultiEngine::finish`].
///
/// Per closed window the order is: one [`MultiEvent::FusedMatch`] or
/// [`MultiEvent::FusedNewDevice`] per qualifying candidate (ascending
/// device address), then exactly one [`MultiEvent::WindowClosed`]
/// terminator. [`MultiEvent::Enrolled`] events (ascending address)
/// precede all window events.
#[derive(Debug, Clone)]
pub enum MultiEvent {
    /// A device entered the reference databases at the end of the
    /// training phase.
    Enrolled {
        /// The enrolled device.
        device: MacAddr,
        /// Per parameter the device qualified for: the observation count
        /// backing its reference signature. A device may qualify for a
        /// subset (the history parameters observe one frame fewer).
        observations: Vec<(NetworkParameter, u64)>,
    },
    /// A device enrolled for **every** fused parameter produced
    /// qualifying candidate signatures in the window that just closed.
    FusedMatch {
        /// Index of the closed detection window.
        window: usize,
        /// The candidate device (its claimed source address).
        device: MacAddr,
        /// Per-parameter similarity vectors, one entry per parameter the
        /// candidate met the observation floor for (spec order).
        scores: Vec<ParameterDecision>,
        /// The combined (weighted-average) similarity vector over the
        /// commonly enrolled devices — present when the candidate
        /// qualified for **all** fused parameters, or (under a
        /// [`ResilienceConfig::fusion_quorum`]) for at least the quorum.
        fused: Option<FusedOutcome>,
        /// Degraded-fusion marker: the parameters *missing* from the
        /// fused score. Empty for a full fusion (the default-config
        /// invariant); non-empty when a quorum fused over the surviving
        /// subset with renormalised weights.
        degraded: Vec<NetworkParameter>,
    },
    /// A candidate *not* enrolled for every fused parameter. Usually a
    /// true stranger; occasionally a device enrolled for only a subset
    /// of parameters (its per-parameter scores still report those).
    FusedNewDevice {
        /// Index of the closed detection window.
        window: usize,
        /// The candidate's claimed source address.
        device: MacAddr,
        /// Per-parameter candidate signatures, one per parameter the
        /// candidate met the floor for (spec order) — handed over so
        /// callers can enroll the newcomer without rebuilding them.
        signatures: Vec<(NetworkParameter, Signature)>,
        /// Per-parameter similarity vectors (empty views when stranger
        /// scoring is disabled).
        scores: Vec<ParameterDecision>,
        /// The combined similarity vector over the commonly enrolled
        /// devices — who this newcomer most behaves like, fused across
        /// parameters (the paper's §VII MAC-rotation question). Present
        /// when the candidate qualified for all fused parameters (or a
        /// configured quorum of them) and stranger scoring is on.
        fused: Option<FusedOutcome>,
        /// Degraded-fusion marker: the parameters missing from the
        /// fused score (empty when `fused` is a full fusion or absent).
        degraded: Vec<NetworkParameter>,
    },
    /// Terminator: the window sealed and all its candidate events (if
    /// any) have been emitted.
    WindowClosed {
        /// Index of the closed detection window.
        window: usize,
        /// Qualifying candidates the window produced (union across
        /// parameters).
        candidates: usize,
        /// How many were enrolled for every parameter
        /// ([`MultiEvent::FusedMatch`]).
        known: usize,
        /// How many were not ([`MultiEvent::FusedNewDevice`]).
        unknown: usize,
    },
}

/// Configures and validates a [`MultiEngine`]; obtained from
/// [`MultiEngine::builder`].
#[derive(Debug)]
pub struct MultiEngineBuilder {
    spec: Option<FusionSpec>,
    config: Option<MultiConfig>,
    references: Option<BTreeMap<NetworkParameter, ReferenceDb>>,
    train_duration: Option<Nanos>,
    score_unknown: bool,
    resilience: ResilienceConfig,
}

impl Default for MultiEngineBuilder {
    fn default() -> Self {
        MultiEngineBuilder {
            spec: None,
            config: None,
            references: None,
            train_duration: None,
            score_unknown: true,
            resilience: ResilienceConfig::default(),
        }
    }
}

impl MultiEngineBuilder {
    /// Which parameters to fuse, and with what weights. Defaults to
    /// [`FusionSpec::all_equal`] — all five parameters, equally
    /// weighted.
    #[must_use]
    pub fn spec(mut self, spec: FusionSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// The shared configuration (floor, measure, filter, estimator,
    /// window). Defaults to [`MultiConfig::default`] — the paper's
    /// settings.
    #[must_use]
    pub fn config(mut self, config: MultiConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Starts the engine directly in the detection phase against
    /// pre-learned per-parameter reference databases (frozen on entry;
    /// one non-empty database per fused parameter). Mutually exclusive
    /// with [`MultiEngineBuilder::train_for`].
    #[must_use]
    pub fn references(mut self, dbs: BTreeMap<NetworkParameter, ReferenceDb>) -> Self {
        self.references = Some(dbs);
        self
    }

    /// Starts the engine with an online enrollment phase: the first
    /// `duration` of the stream (measured from its first frame) trains
    /// one reference database per parameter, then freezes them for
    /// detection. Mutually exclusive with
    /// [`MultiEngineBuilder::references`].
    #[must_use]
    pub fn train_for(mut self, duration: Nanos) -> Self {
        self.train_duration = Some(duration);
        self
    }

    /// Whether candidates outside the common enrolled set are scored
    /// against the reference matrices (default `true`). Scoring
    /// strangers answers "who does this newcomer most resemble" — the
    /// MAC-randomisation tracking question — but costs one reference
    /// sweep per parameter per stranger per window; consumers that only
    /// *count* new devices can turn it off, in which case
    /// [`MultiEvent::FusedNewDevice`] carries empty views and no fused
    /// score.
    #[must_use]
    pub fn score_unknown(mut self, score: bool) -> Self {
        self.score_unknown = score;
        self
    }

    /// Ingest-hardening knobs: late-frame policy, duplicate
    /// suppression, runt gate, fusion quorum (default
    /// [`ResilienceConfig::default`] — strict, today's behavior); see
    /// [`ResilienceConfig`].
    #[must_use]
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// * [`EngineError::MissingReference`] with neither references nor a
    ///   training phase, [`EngineError::ConflictingReference`] with both;
    /// * [`EngineError::Core`]([`CoreError::InvalidConfig`]) for an
    ///   invalid fusion spec (empty, repeated parameter, bad weights), a
    ///   zero-length window or training phase, or a reference map
    ///   missing a fused parameter;
    /// * [`EngineError::Core`]([`CoreError::EmptyDatabase`]) for an
    ///   empty reference database.
    pub fn build(self) -> Result<MultiEngine, EngineError> {
        let spec = self.spec.unwrap_or_else(FusionSpec::all_equal);
        spec.validate()?;
        let cfg = self.config.unwrap_or_default();
        let configs: Vec<EvalConfig> = spec.parameters().map(|p| cfg.eval_config(p)).collect();
        for c in &configs {
            c.validate()?;
        }
        let phase = match (self.references, self.train_duration) {
            (Some(_), Some(_)) => return Err(EngineError::ConflictingReference),
            (None, None) => return Err(EngineError::MissingReference),
            (Some(mut dbs), None) => {
                let mut references = Vec::with_capacity(spec.len());
                for param in spec.parameters() {
                    let mut db = dbs.remove(&param).ok_or(CoreError::InvalidConfig {
                        reason: "reference map is missing a fused parameter",
                    })?;
                    if db.is_empty() {
                        return Err(CoreError::EmptyDatabase.into());
                    }
                    db.freeze();
                    references.push(db);
                }
                MultiPhase::Detecting(DetectState::new(references, cfg.window))
            }
            (None, Some(duration)) => {
                if duration == Nanos::ZERO {
                    return Err(CoreError::InvalidConfig {
                        reason: "training phase must be longer than zero",
                    }
                    .into());
                }
                MultiPhase::Training { devices: BTreeMap::new(), duration }
            }
        };
        let extractor = FusedExtractor::with_options(cfg.estimator, cfg.filter.clone());
        // A quorum outside [1, spec.len()] is meaningless — clamp rather
        // than error, so `tolerant()` works for any spec width.
        let quorum = self.resilience.fusion_quorum.map_or(spec.len(), |q| q.clamp(1, spec.len()));
        Ok(MultiEngine {
            settings: Settings { spec, cfg, configs, score_unknown: self.score_unknown, quorum },
            extractor,
            phase,
            scratches: Vec::new(),
            origin: None,
            front: IngestFront::new(self.resilience),
            frames: 0,
            train_frames: 0,
            windows_closed: 0,
        })
    }
}

/// Detection-phase state: per-parameter references and candidate maps on
/// one shared window clock.
#[derive(Debug)]
struct DetectState {
    /// One frozen reference database per fused parameter (spec order).
    references: Vec<ReferenceDb>,
    /// Devices enrolled in **every** parameter's database, ascending —
    /// the domain of the fused score.
    common: Vec<MacAddr>,
    /// The one shared window clock.
    clock: WindowClock,
    /// Per device: one in-progress candidate signature per parameter
    /// (spec order) for the open window.
    current: BTreeMap<MacAddr, Vec<Signature>>,
}

impl DetectState {
    fn new(references: Vec<ReferenceDb>, window: Nanos) -> Self {
        let common = match references.first() {
            Some(first) => first
                .devices()
                .filter(|d| references.iter().all(|db| db.contains(d)))
                .collect(),
            None => Vec::new(),
        };
        DetectState { references, common, clock: WindowClock::new(window), current: BTreeMap::new() }
    }
}

/// Folds one fused observation into a device's per-parameter signatures
/// (training map and open-window map share this shape).
fn record_fused(
    devices: &mut BTreeMap<MacAddr, Vec<Signature>>,
    obs: &crate::params::FusedObservation,
    settings: &Settings,
) {
    let Settings { spec, configs, .. } = settings;
    let sigs = devices
        .entry(obs.device)
        .or_insert_with(|| vec![Signature::new(); configs.len()]);
    for ((sig, cfg), param) in sigs.iter_mut().zip(configs).zip(spec.parameters()) {
        if let Some(value) = obs.value(param) {
            sig.record(obs.kind, value, cfg);
        }
    }
}

/// Internal lifecycle state (the public projection is [`EnginePhase`]).
#[derive(Debug)]
enum MultiPhase {
    Training {
        /// Per device: one growing signature per parameter (spec order).
        devices: BTreeMap<MacAddr, Vec<Signature>>,
        duration: Nanos,
    },
    Detecting(DetectState),
    Finished { references: Vec<ReferenceDb> },
}

/// What a [`MultiEngine`] was built to run — fixed for its lifetime.
#[derive(Debug)]
struct Settings {
    spec: FusionSpec,
    cfg: MultiConfig,
    /// Per-parameter projections of `cfg` (spec order) — carry the bins
    /// each parameter's signatures record into.
    configs: Vec<EvalConfig>,
    score_unknown: bool,
    /// Minimum scored parameter views required for a fused score
    /// (precomputed from [`ResilienceConfig::fusion_quorum`], clamped to
    /// `[1, spec.len()]`).
    quorum: usize,
}

/// The streaming ingest → window → match → fuse facade (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct MultiEngine {
    settings: Settings,
    /// The single shared extractor: one parse, one timing history.
    extractor: FusedExtractor,
    phase: MultiPhase,
    /// Warm [`MatchScratch`]es reused across window closes: the
    /// per-parameter fan-out checks one out per worker and returns it,
    /// keeping the steady state allocation-free.
    scratches: Vec<MatchScratch>,
    origin: Option<Nanos>,
    /// The resilience gatekeeper every arrival passes through (dedup →
    /// runt gate → late policy) — also owns the monotonicity floor and
    /// the [`EngineHealth`] counters.
    front: IngestFront,
    frames: u64,
    train_frames: u64,
    windows_closed: u64,
}

impl MultiEngine {
    /// Starts configuring an engine.
    #[must_use]
    pub fn builder() -> MultiEngineBuilder {
        MultiEngineBuilder::default()
    }

    /// Processes one captured frame, returning the events it triggered —
    /// one fused parse feeding every parameter.
    ///
    /// The frame first passes the engine's [`ResilienceConfig`]
    /// gatekeeper: duplicates and runts are counted into
    /// [`MultiEngine::health`] and silently absorbed, and a late frame
    /// is handled per [`LateFramePolicy`](super::LateFramePolicy) —
    /// rejected (default), dropped, or re-sequenced through the bounded
    /// reorder buffer.
    ///
    /// # Errors
    ///
    /// * [`EngineError::NonMonotonicFrame`] for a frame older than its
    ///   predecessor (or than the latest
    ///   [`MultiEngine::advance_to`] tick) under the default
    ///   [`LateFramePolicy::Reject`](super::LateFramePolicy::Reject);
    ///   the engine state is unchanged;
    /// * [`EngineError::Finished`] after [`MultiEngine::finish`].
    pub fn observe(&mut self, frame: &CapturedFrame) -> Result<Vec<MultiEvent>, EngineError> {
        if matches!(self.phase, MultiPhase::Finished { .. }) {
            return Err(EngineError::Finished);
        }
        let mut events = Vec::new();
        let delivered = self.front.admit(frame)?;
        if let Some(frame) = delivered {
            self.ingest(&frame, &mut events)?;
        }
        Ok(events)
    }

    /// Feeds one gatekeeper-approved frame through training / the fused
    /// window path (the pre-resilience `observe` body).
    fn ingest(
        &mut self,
        frame: &CapturedFrame,
        events: &mut Vec<MultiEvent>,
    ) -> Result<(), EngineError> {
        let origin = *self.origin.get_or_insert(frame.t_end);
        self.frames += 1;

        if let MultiPhase::Training { duration, .. } = &self.phase {
            if frame.t_end.saturating_sub(origin) < *duration {
                self.train_frames += 1;
                // Extract once, record into every parameter's signature.
                let obs = self.extractor.push(frame);
                let MultiPhase::Training { devices, .. } = &mut self.phase else {
                    unreachable!("phase checked above");
                };
                if let Some(obs) = obs {
                    record_fused(devices, &obs, &self.settings);
                }
                return Ok(());
            }
            // First frame past the boundary: enroll, freeze, switch to
            // detection (resetting the shared timing history), then
            // treat this frame as the first detection frame below.
            self.end_training(events)?;
        }

        // One fused parse per frame — this is the whole point.
        let obs = self.extractor.push(frame);
        let MultiPhase::Detecting(state) = &mut self.phase else {
            unreachable!("ingest handled Training, callers handle Finished");
        };
        if let Some(sealed) = state.clock.observe(frame.t_end) {
            close_multi_window(
                &self.settings,
                state,
                &mut self.scratches,
                &mut self.front.health,
                sealed,
                events,
            );
            self.windows_closed += 1;
        }
        if let Some(obs) = obs {
            record_fused(&mut state.current, &obs, &self.settings);
        }
        Ok(())
    }

    /// [`MultiEngine::observe`] over a frame sequence, concatenating the
    /// events.
    ///
    /// # Errors
    ///
    /// The first [`MultiEngine::observe`] error, wrapped in
    /// [`EngineError::Batch`] carrying the zero-based index of the
    /// failing frame so callers can resume or skip past it; events from
    /// frames already processed are lost.
    pub fn observe_all<'a>(
        &mut self,
        frames: impl IntoIterator<Item = &'a CapturedFrame>,
    ) -> Result<Vec<MultiEvent>, EngineError> {
        let mut events = Vec::new();
        for (index, frame) in frames.into_iter().enumerate() {
            match self.observe(frame) {
                Ok(mut ev) => events.append(&mut ev),
                Err(source) => {
                    return Err(EngineError::Batch { index, source: Box::new(source) });
                }
            }
        }
        Ok(events)
    }

    /// Advances the engine's clock to wall-clock time `t` **without a
    /// frame** — the event-driven close for quiet channels. Windows
    /// normally seal when a *later frame* arrives; on a silent channel
    /// that later frame may never come, stalling the open window's
    /// decision indefinitely. `advance_to(t)` asserts that the capture
    /// clock has reached `t` (same clock domain as the frame timestamps)
    /// and emits exactly the events a frame at `t` would have triggered,
    /// minus the frame: the training phase ends when `t` passes its
    /// boundary, and an open detection window whose end lies at or
    /// before `t` seals and scores.
    ///
    /// A tick at or before the newest frame's timestamp is a no-op
    /// (monitor wall clocks may lag the capture path slightly); a tick
    /// *ahead* of the stream advances the monotonicity floor, so frames
    /// older than `t` are subsequently rejected as
    /// [`EngineError::NonMonotonicFrame`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Finished`] after [`MultiEngine::finish`], or
    /// [`EngineError::Core`] from ending the training phase.
    pub fn advance_to(&mut self, t: Nanos) -> Result<Vec<MultiEvent>, EngineError> {
        if matches!(self.phase, MultiPhase::Finished { .. }) {
            return Err(EngineError::Finished);
        }
        let mut events = Vec::new();
        if self.front.last_t().is_some_and(|last| t <= last) {
            return Ok(events);
        }
        // Advancing the wall clock first flushes every reorder-buffered
        // frame at or before `t` (in timestamp order) and raises the
        // delivered watermark, so a window can never seal ahead of a
        // frame still waiting in the buffer.
        for frame in self.front.release_until(t) {
            self.ingest(&frame, &mut events)?;
        }
        if let MultiPhase::Training { duration, .. } = &self.phase {
            let Some(origin) = self.origin else { return Ok(events) };
            if t.saturating_sub(origin) < *duration {
                return Ok(events);
            }
            self.end_training(&mut events)?;
        }
        let MultiPhase::Detecting(state) = &mut self.phase else {
            unreachable!("advance_to handled Training and Finished above");
        };
        if let Some(sealed) = state.clock.advance_to(t) {
            close_multi_window(
                &self.settings,
                state,
                &mut self.scratches,
                &mut self.front.health,
                sealed,
                &mut events,
            );
            self.windows_closed += 1;
        }
        Ok(events)
    }

    /// Forces a decision on the still-open detection window *now*:
    /// advances the clock to the window's own end (see
    /// [`MultiEngine::advance_to`]), sealing and scoring it immediately.
    /// A no-op while training (the training boundary needs a wall-clock
    /// timestamp, which a bare tick does not carry) or when no window is
    /// open.
    ///
    /// # Errors
    ///
    /// [`EngineError::Finished`] after [`MultiEngine::finish`].
    pub fn tick(&mut self) -> Result<Vec<MultiEvent>, EngineError> {
        if matches!(self.phase, MultiPhase::Finished { .. }) {
            return Err(EngineError::Finished);
        }
        let end = match &self.phase {
            MultiPhase::Detecting(state) => state.clock.current_end(),
            _ => None,
        };
        match end {
            Some(t) => self.advance_to(t),
            None => Ok(Vec::new()),
        }
    }

    /// Ends the session: drains any frames still waiting in the reorder
    /// buffer, seals the still-open trailing window (emitting its events
    /// so the last partial window is never silently dropped), or — when
    /// the stream never outlived the training phase — ends training and
    /// emits the [`MultiEvent::Enrolled`] events, making a training-only
    /// run the enrollment entry point (finish, then take the databases
    /// with [`MultiEngine::into_references`]).
    ///
    /// Idempotent: a second call returns an empty event list (the
    /// trailing window is only ever scored once).
    ///
    /// # Errors
    ///
    /// [`EngineError::Core`] if sealing the references fails.
    pub fn finish(&mut self) -> Result<Vec<MultiEvent>, EngineError> {
        let mut events = Vec::new();
        if matches!(self.phase, MultiPhase::Finished { .. }) {
            return Ok(events);
        }
        // Everything the reorder buffer still holds is delivered now, in
        // timestamp order, before the trailing window seals.
        for frame in self.front.drain() {
            self.ingest(&frame, &mut events)?;
        }
        if matches!(self.phase, MultiPhase::Training { .. }) {
            self.end_training(&mut events)?;
        }
        let MultiPhase::Detecting(mut state) =
            std::mem::replace(&mut self.phase, MultiPhase::Finished { references: Vec::new() })
        else {
            unreachable!("finish handled Training and Finished above");
        };
        if let Some(sealed) = state.clock.finish() {
            close_multi_window(
                &self.settings,
                &mut state,
                &mut self.scratches,
                &mut self.front.health,
                sealed,
                &mut events,
            );
            self.windows_closed += 1;
        }
        self.phase = MultiPhase::Finished { references: state.references };
        Ok(events)
    }

    /// The engine's lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> EnginePhase {
        match self.phase {
            MultiPhase::Training { .. } => EnginePhase::Training,
            MultiPhase::Detecting(_) => EnginePhase::Detecting,
            MultiPhase::Finished { .. } => EnginePhase::Finished,
        }
    }

    /// The fusion spec the engine runs.
    #[must_use]
    pub fn spec(&self) -> &FusionSpec {
        &self.settings.spec
    }

    /// The shared configuration the engine runs.
    #[must_use]
    pub fn config(&self) -> &MultiConfig {
        &self.settings.cfg
    }

    /// One parameter's (frozen) reference database, once one exists —
    /// `None` while still training or for a parameter outside the spec.
    #[must_use]
    pub fn reference(&self, parameter: NetworkParameter) -> Option<&ReferenceDb> {
        let idx = self.settings.spec.parameters().position(|p| p == parameter)?;
        match &self.phase {
            MultiPhase::Training { .. } => None,
            MultiPhase::Detecting(state) => state.references.get(idx),
            MultiPhase::Finished { references } => references.get(idx),
        }
    }

    /// Consumes the engine, handing over the per-parameter reference
    /// databases (empty while still training) — ready to seed another
    /// engine's [`MultiEngineBuilder::references`].
    #[must_use]
    pub fn into_references(self) -> BTreeMap<NetworkParameter, ReferenceDb> {
        let references = match self.phase {
            MultiPhase::Training { .. } => Vec::new(),
            MultiPhase::Detecting(state) => state.references,
            MultiPhase::Finished { references } => references,
        };
        self.settings.spec.parameters().zip(references).collect()
    }

    /// Frames observed so far (training + detection).
    #[must_use]
    pub fn frames_observed(&self) -> u64 {
        self.frames
    }

    /// Frames that fell into the training phase.
    #[must_use]
    pub fn train_frames(&self) -> u64 {
        self.train_frames
    }

    /// Detection windows closed so far.
    #[must_use]
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// The ingest-health counter block: frames seen/duplicate/corrupt/
    /// late-dropped/reordered and windows that closed with a degraded
    /// fused score. Cheap (a `Copy` snapshot); poll it any time.
    #[must_use]
    pub fn health(&self) -> EngineHealth {
        self.front.health
    }

    /// The resilience configuration the engine runs.
    #[must_use]
    pub fn resilience(&self) -> &ResilienceConfig {
        self.front.config()
    }

    /// Frames admitted but still waiting in the reorder buffer (always 0
    /// outside [`LateFramePolicy::Reorder`](super::LateFramePolicy::Reorder)).
    #[must_use]
    pub fn pending_frames(&self) -> usize {
        self.front.pending_frames()
    }

    /// Training → detection: per parameter, enroll the devices that met
    /// the floor, freeze, emit [`MultiEvent::Enrolled`]s. A parameter
    /// that enrolled nobody degrades to an empty (frozen) database: the
    /// engine keeps running and flags its candidates as new.
    fn end_training(&mut self, events: &mut Vec<MultiEvent>) -> Result<(), EngineError> {
        let MultiPhase::Training { devices, .. } =
            std::mem::replace(&mut self.phase, MultiPhase::Finished { references: Vec::new() })
        else {
            unreachable!("end_training is only called while training");
        };
        // `max(1)`: a parameter a device never produced an observation
        // for has an empty signature in the fused per-device vector;
        // the batch SignatureBuilder never tracks such a device at all,
        // and the reference database rejects empty rows.
        let Settings { spec, cfg, .. } = &self.settings;
        let min = cfg.min_observations.max(1);
        let mut references: Vec<ReferenceDb> =
            (0..spec.len()).map(|_| ReferenceDb::with_config(cfg.match_config)).collect();
        for (device, sigs) in devices {
            let mut observations = Vec::new();
            for ((i, sig), param) in sigs.into_iter().enumerate().zip(spec.parameters()) {
                if sig.observation_count() >= min {
                    observations.push((param, sig.observation_count()));
                    // A failed insert leaves the engine poisoned: the
                    // phase is already `Finished`.
                    references[i].insert(device, sig)?;
                }
            }
            if !observations.is_empty() {
                events.push(MultiEvent::Enrolled { device, observations });
            }
        }
        for db in &mut references {
            db.freeze();
        }
        // Detection starts with a fresh timing history (none across the
        // split), like the batch flow's separate validation windows, so
        // decisions stay bit-identical to it.
        self.extractor.reset_history();
        self.phase = MultiPhase::Detecting(DetectState::new(references, cfg.window));
        Ok(())
    }
}

/// A [`MatchScratch`] checked out of the engine's warm pool for one
/// fan-out worker; returning it on drop keeps the buffers (grown to the
/// reference size) alive across window closes.
struct PooledScratch<'a> {
    pool: &'a std::sync::Mutex<Vec<MatchScratch>>,
    inner: MatchScratch,
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Ok(mut pool) = self.pool.lock() {
            pool.push(std::mem::take(&mut self.inner));
        }
    }
}

/// Scores sealed window `window` from the detection state's open
/// candidate map: per parameter, sweep the qualifying candidates
/// against that parameter's reference matrix in
/// [`MATCH_TILE`]-wide tiles, then fuse each candidate's per-parameter
/// vectors into the combined score, and emit the fused events (ascending
/// device address) plus the terminator. A candidate with only a quorum
/// of scored parameters gets a fused score over the survivors, with the
/// missing parameters listed in the event's `degraded` marker;
/// `health.windows_degraded` counts windows emitting at least one such
/// event.
#[allow(clippy::too_many_lines)] // qualify → fan-out sweep → fuse, one linear pass
fn close_multi_window(
    settings: &Settings,
    state: &mut DetectState,
    scratches: &mut Vec<MatchScratch>,
    health: &mut EngineHealth,
    window: usize,
    events: &mut Vec<MultiEvent>,
) {
    // One qualifying candidate: per device, which parameters met the
    // floor and (further down) their similarity views.
    struct Candidate {
        device: MacAddr,
        /// Per spec parameter: the qualifying signature, if any.
        sigs: Vec<Option<Signature>>,
        /// Per spec parameter: the similarity view (filled below).
        views: Vec<Option<MatchOutcome>>,
    }

    let Settings { ref spec, ref cfg, score_unknown, quorum, .. } = *settings;
    let candidates = std::mem::take(&mut state.current);
    // Shared from here on: the per-parameter sweeps fan out to workers.
    let state = &*state;
    // `max(1)`: parameters with zero observations stay out, exactly as
    // they never enter a batch window's candidate map.
    let min = cfg.min_observations.max(1);
    let n_params = spec.len();

    // Qualifying candidates, in the map's ascending-address order.
    let mut qualified: Vec<Candidate> = candidates
        .into_iter()
        .filter_map(|(device, sigs)| {
            let sigs: Vec<Option<Signature>> = sigs
                .into_iter()
                .map(|s| (s.observation_count() >= min).then_some(s))
                .collect();
            sigs.iter().any(Option::is_some).then(|| Candidate {
                device,
                views: vec![None; n_params],
                sigs,
            })
        })
        .collect();

    // One tiled sweep per parameter over the candidates that qualified
    // for it, skipping strangers when their scoring is off. The sweeps
    // are independent by construction (each reads its own sharded reference
    // database), so with the `parallel` feature they fan out across
    // `batch::map_tiles_with_scratch` — one parameter per work unit, one
    // scratch per worker; on 1-CPU hosts the map degrades to the serial
    // loop.
    // Workers borrow warm scratches from the engine's pool (returned on
    // drop), so repeated window closes stay allocation-free once the
    // buffers have grown to the reference size.
    let pool = std::sync::Mutex::new(std::mem::take(scratches));
    let checkout = || PooledScratch {
        pool: &pool,
        inner: pool.lock().map_or_else(|_| MatchScratch::new(), |mut p| p.pop().unwrap_or_default()),
    };
    let params: Vec<usize> = (0..n_params).collect();
    let per_param: Vec<Vec<(usize, MatchOutcome)>> = crate::batch::map_tiles_with_scratch(
        &params,
        1,
        checkout,
        |pooled, chunk| {
            let scratch = &mut pooled.inner;
            chunk
                .iter()
                .map(|&p| {
                    let db = &state.references[p];
                    let to_score: Vec<usize> = qualified
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| {
                            c.sigs[p].is_some() && (score_unknown || db.contains(&c.device))
                        })
                        .map(|(i, _)| i)
                        .collect();
                    let mut outcomes = Vec::with_capacity(to_score.len());
                    for tile_ids in to_score.chunks(MATCH_TILE) {
                        let sigs: Vec<&Signature> = tile_ids
                            .iter()
                            .map(|&i| qualified[i].sigs[p].as_ref().expect("qualified"))
                            .collect();
                        let tile = db.match_tile(&sigs, SimilarityMeasure::Cosine, scratch);
                        outcomes.extend(
                            tile_ids.iter().zip(tile.views()).map(|(&i, v)| (i, v.to_outcome())),
                        );
                    }
                    outcomes
                })
                .collect()
        },
    );
    *scratches = pool.into_inner().unwrap_or_default();
    for (p, outcomes) in per_param.into_iter().enumerate() {
        for (i, outcome) in outcomes {
            qualified[i].views[p] = Some(outcome);
        }
    }

    let total = qualified.len();
    let mut known = 0usize;
    let mut any_degraded = false;
    for candidate in qualified {
        let Candidate { device, sigs, views } = candidate;
        let in_common = state.common.binary_search(&device).is_ok();
        // The fused score wants a scored view for every parameter, but a
        // degraded capture may starve some of them below the floor: fuse
        // over the survivors when at least `quorum` parameters scored,
        // naming the missing ones in `degraded`. The views are borrowed
        // here and handed over to the per-parameter decisions below, no
        // clones. Strangers get no fused score when their scoring is off.
        let survivors: Vec<&MatchOutcome> = views.iter().flatten().collect();
        let unscored = !in_common && !score_unknown;
        let (fused, degraded) = if unscored || state.common.is_empty() || survivors.len() < quorum
        {
            (None, Vec::new())
        } else if survivors.len() == n_params {
            (Some(fuse_outcomes(spec, &survivors, &state.common)), Vec::new())
        } else {
            // Renormalise over the surviving parameters: a sub-spec of
            // the scored (parameter, weight) pairs, weights re-scaled by
            // `fuse_outcomes` itself (it divides by the weight sum).
            let sub = FusionSpec {
                parameters: spec
                    .parameters
                    .iter()
                    .zip(&views)
                    .filter_map(|(&pw, v)| v.is_some().then_some(pw))
                    .collect(),
            };
            let missing: Vec<NetworkParameter> = spec
                .parameters()
                .zip(&views)
                .filter(|(_, v)| v.is_none())
                .map(|(p, _)| p)
                .collect();
            (Some(fuse_outcomes(&sub, &survivors, &state.common)), missing)
        };
        let mut scores = Vec::with_capacity(n_params);
        let mut signatures = Vec::new();
        for (p, ((param, sig), view)) in spec.parameters().zip(sigs).zip(views).enumerate() {
            let Some(sig) = sig else { continue };
            scores.push(ParameterDecision {
                parameter: param,
                known: state.references[p].contains(&device),
                view: view.unwrap_or_else(MatchOutcome::empty),
            });
            if !in_common {
                signatures.push((param, sig));
            }
        }
        any_degraded |= !degraded.is_empty();
        if in_common {
            known += 1;
            events.push(MultiEvent::FusedMatch { window, device, scores, fused, degraded });
        } else {
            events.push(MultiEvent::FusedNewDevice {
                window,
                device,
                signatures,
                scores,
                fused,
                degraded,
            });
        }
    }
    if any_degraded {
        health.windows_degraded += 1;
    }
    events.push(MultiEvent::WindowClosed {
        window,
        candidates: total,
        known,
        unknown: total - known,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_ieee80211::{Frame, Rate};

    fn cfg(window_secs: u64, min_obs: u64) -> MultiConfig {
        MultiConfig::default()
            .with_min_observations(min_obs)
            .with_window(Nanos::from_secs(window_secs))
    }

    fn frame(from: u64, t_us: u64, payload: usize) -> CapturedFrame {
        let sta = MacAddr::from_index(from);
        let ap = MacAddr::from_index(99);
        let f = Frame::data_to_ds(sta, ap, ap, payload);
        CapturedFrame::from_frame(&f, Rate::R24M, Nanos::from_micros(t_us), -55)
    }

    /// Two devices with complementary behaviour: same sizes but
    /// different periods (1 vs 2), plus a third with a distinct size.
    fn training_frames() -> Vec<CapturedFrame> {
        let mut frames = Vec::new();
        for i in 0..40u64 {
            frames.push(frame(1, 1_000 + i * 40_000, 300));
            frames.push(frame(2, 2_500 + i * 40_000, 300));
            frames.push(frame(3, 3_900 + i * 25_000, 900));
        }
        frames.sort_by_key(|f| f.t_end);
        frames
    }

    /// Five-parameter references enrolled from [`training_frames`] by a
    /// training-only session.
    fn trained_references() -> BTreeMap<NetworkParameter, ReferenceDb> {
        let mut trainer = MultiEngine::builder()
            .config(cfg(10, 5))
            .train_for(Nanos::from_secs(3600))
            .build()
            .unwrap();
        trainer.observe_all(&training_frames()).unwrap();
        trainer.finish().unwrap();
        trainer.into_references()
    }

    /// A detecting five-parameter engine against [`trained_references`].
    fn detector(resilience: ResilienceConfig) -> MultiEngine {
        MultiEngine::builder()
            .config(cfg(1, 5))
            .references(trained_references())
            .resilience(resilience)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_incomplete_or_conflicting_setups() {
        assert!(matches!(
            MultiEngine::builder().build(),
            Err(EngineError::MissingReference)
        ));
        assert!(matches!(
            MultiEngine::builder()
                .references(BTreeMap::new())
                .train_for(Nanos::from_secs(5))
                .build(),
            Err(EngineError::ConflictingReference)
        ));
        assert!(matches!(
            MultiEngine::builder().references(BTreeMap::new()).build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
        assert!(matches!(
            MultiEngine::builder().train_for(Nanos::ZERO).build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
        assert!(matches!(
            MultiEngine::builder()
                .config(cfg(0, 5))
                .train_for(Nanos::from_secs(5))
                .build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
        let empty_spec = FusionSpec { parameters: vec![] };
        assert!(matches!(
            MultiEngine::builder().spec(empty_spec).train_for(Nanos::from_secs(5)).build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn references_mode_requires_every_parameter_nonempty() {
        // Build per-parameter databases via a training-only session.
        let mut dbs = trained_references();
        assert_eq!(dbs.len(), NetworkParameter::COUNT);
        assert!(dbs.values().all(|db| db.is_frozen() && !db.is_empty()));

        // Missing one parameter's database is rejected.
        let incomplete: BTreeMap<_, _> = dbs
            .iter()
            .filter(|(&p, _)| p != NetworkParameter::FrameSize)
            .map(|(&p, db)| (p, db.snapshot()))
            .collect();
        assert!(matches!(
            MultiEngine::builder().config(cfg(10, 5)).references(incomplete).build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
        // An empty database is rejected too.
        dbs.insert(NetworkParameter::FrameSize, ReferenceDb::new());
        assert!(matches!(
            MultiEngine::builder().config(cfg(10, 5)).references(dbs).build(),
            Err(EngineError::Core(CoreError::EmptyDatabase))
        ));
    }

    #[test]
    fn per_parameter_decisions_match_five_single_engines() {
        // The fused engine must reproduce each one-parameter engine's
        // decisions: same (window, device) sequence per parameter, same
        // argmax, same scores.
        let mcfg = cfg(1, 5);
        let train = Nanos::from_secs(2);
        let mut frames = training_frames();
        // Detection phase: devices 1 and 3 return; a stranger 7 appears.
        for i in 0..60u64 {
            frames.push(frame(1, 2_100_000 + i * 40_000, 300));
            frames.push(frame(3, 2_103_000 + i * 25_000, 900));
            frames.push(frame(7, 2_106_000 + i * 60_000, 300));
        }
        frames.sort_by_key(|f| f.t_end);

        let mut multi = MultiEngine::builder()
            .config(mcfg.clone())
            .train_for(train)
            .build()
            .unwrap();
        let mut multi_events = multi.observe_all(&frames).unwrap();
        multi_events.append(&mut multi.finish().unwrap());

        for param in NetworkParameter::ALL {
            let mut single = MultiEngine::builder()
                .spec(FusionSpec::single(param))
                .config(mcfg.clone())
                .train_for(train)
                .build()
                .unwrap();
            let mut single_events = single.observe_all(&frames).unwrap();
            single_events.append(&mut single.finish().unwrap());

            // Reference databases agree.
            let sdb = single.reference(param).expect("trained");
            let mdb = multi.reference(param).expect("trained");
            assert_eq!(
                sdb.devices().collect::<Vec<_>>(),
                mdb.devices().collect::<Vec<_>>(),
                "{param}: enrolled devices"
            );

            // Per-window decisions agree exactly: both engines sweep the
            // same candidates against the same references in the same
            // tiles.
            let decisions = |events: &[MultiEvent]| -> Vec<(usize, MacAddr, MatchOutcome)> {
                events
                    .iter()
                    .filter_map(|e| match e {
                        MultiEvent::FusedMatch { window, device, scores, .. }
                        | MultiEvent::FusedNewDevice { window, device, scores, .. } => scores
                            .iter()
                            .find(|d| d.parameter == param)
                            .map(|d| (*window, *device, d.view.clone())),
                        _ => None,
                    })
                    .collect()
            };
            let single_decisions = decisions(&single_events);
            assert!(!single_decisions.is_empty(), "{param}: no decisions to compare");
            assert_eq!(single_decisions, decisions(&multi_events), "{param}: decisions");
        }
    }

    #[test]
    fn fused_score_is_the_weighted_average_of_parameter_scores() {
        let mcfg = cfg(1, 5);
        let spec = FusionSpec {
            parameters: vec![
                (NetworkParameter::FrameSize, 3.0),
                (NetworkParameter::InterArrivalTime, 1.0),
            ],
        };
        let mut engine = MultiEngine::builder()
            .spec(spec.clone())
            .config(mcfg)
            .train_for(Nanos::from_secs(2))
            .build()
            .unwrap();
        let mut frames = training_frames();
        for i in 0..40u64 {
            frames.push(frame(1, 2_100_000 + i * 40_000, 300));
        }
        frames.sort_by_key(|f| f.t_end);
        let mut events = engine.observe_all(&frames).unwrap();
        events.append(&mut engine.finish().unwrap());

        let mut checked = 0;
        for event in &events {
            let MultiEvent::FusedMatch { scores, fused: Some(fused), .. } = event else {
                continue;
            };
            assert_eq!(scores.len(), 2);
            for &(device, got) in fused.similarities() {
                let a = scores[0].view.similarity_to(&device).unwrap_or(0.0);
                let b = scores[1].view.similarity_to(&device).unwrap_or(0.0);
                let want = (3.0 * a + 1.0 * b) / 4.0;
                assert!((got - want).abs() < 1e-12, "{got} vs {want}");
            }
            checked += 1;
        }
        assert!(checked > 0, "at least one fused decision");
    }

    #[test]
    fn strangers_surface_as_fused_new_devices_with_a_closest_reference() {
        let mcfg = cfg(1, 5);
        let mut frames = training_frames();
        // A stranger behaving exactly like device 1.
        for i in 0..60u64 {
            frames.push(frame(1, 2_100_000 + i * 40_000, 300));
            frames.push(frame(7, 2_101_000 + i * 40_000, 300));
        }
        frames.sort_by_key(|f| f.t_end);
        let mut engine = MultiEngine::builder()
            .config(mcfg)
            .train_for(Nanos::from_secs(2))
            .build()
            .unwrap();
        let mut events = engine.observe_all(&frames).unwrap();
        events.append(&mut engine.finish().unwrap());

        let stranger = MacAddr::from_index(7);
        let fused_view = events
            .iter()
            .find_map(|e| match e {
                MultiEvent::FusedNewDevice { device, fused: Some(f), signatures, .. }
                    if *device == stranger =>
                {
                    assert!(!signatures.is_empty(), "candidate signatures handed over");
                    Some(f.clone())
                }
                _ => None,
            })
            .expect("stranger flagged with a fused view");
        // Fused across parameters, the clone points at device 1.
        assert_eq!(fused_view.best().unwrap().0, MacAddr::from_index(1));
    }

    #[test]
    fn advance_to_emits_what_a_later_frame_would_have() {
        // Identical prefixes; then one engine sees a much later frame,
        // the other a tick at the same timestamp. The sealed window's
        // decisions must be identical (the frame itself only opens the
        // next window).
        let mut by_frame = detector(ResilienceConfig::default());
        let mut by_tick = detector(ResilienceConfig::default());
        for i in 0..30u64 {
            let f = frame(1, 10_000_000 + i * 30_000, 300);
            assert!(by_frame.observe(&f).unwrap().is_empty());
            assert!(by_tick.observe(&f).unwrap().is_empty());
        }
        let later = Nanos::from_micros(12_000_000);
        let frame_events = by_frame.observe(&frame(2, 12_000_000, 300)).unwrap();
        let tick_events = by_tick.advance_to(later).unwrap();
        assert_eq!(frame_events.len(), tick_events.len());
        for (a, b) in frame_events.iter().zip(&tick_events) {
            match (a, b) {
                (
                    MultiEvent::FusedMatch { window: wa, device: da, fused: fa, .. },
                    MultiEvent::FusedMatch { window: wb, device: db_, fused: fb, .. },
                ) => {
                    assert_eq!((wa, da), (wb, db_));
                    assert_eq!(
                        fa.as_ref().map(FusedOutcome::similarities),
                        fb.as_ref().map(FusedOutcome::similarities)
                    );
                }
                (MultiEvent::WindowClosed { window: wa, .. }, MultiEvent::WindowClosed { window: wb, .. }) => {
                    assert_eq!(wa, wb);
                }
                other => panic!("event sequences diverged: {other:?}"),
            }
        }
        // The tick advanced the monotonicity floor: older frames are
        // now rejected rather than silently mis-windowed.
        assert!(matches!(
            by_tick.observe(&frame(1, 11_000_000, 300)),
            Err(EngineError::NonMonotonicFrame { .. })
        ));
        // A finish after the tick does not re-close the sealed window.
        let tail = by_tick.finish().unwrap();
        assert!(tail.is_empty(), "tick already sealed the trailing window: {tail:?}");
    }

    #[test]
    fn tick_seals_the_open_window_without_a_timestamp() {
        let mut engine = detector(ResilienceConfig::default());
        assert!(engine.tick().unwrap().is_empty(), "no open window yet");
        for i in 0..30u64 {
            engine.observe(&frame(1, 10_000_000 + i * 30_000, 300)).unwrap();
        }
        let events = engine.tick().unwrap();
        assert!(
            events.iter().any(|e| matches!(e,
                MultiEvent::FusedMatch { device, .. } if *device == MacAddr::from_index(1))),
            "tick forces the pending decision: {events:?}"
        );
        assert!(engine.tick().unwrap().is_empty(), "second tick has nothing to seal");
        assert_eq!(engine.windows_closed(), 1);
    }

    #[test]
    fn finish_scores_the_trailing_partial_window() {
        // Regression (quiet-channel fix): a stream that ends mid-window
        // still gets its last window scored — the frames are not
        // silently dropped just because no later frame arrived.
        let mut engine = detector(ResilienceConfig::default());
        // 10 frames spanning 0.3 s: the 1 s window never closes on its
        // own.
        for i in 0..10u64 {
            assert!(engine.observe(&frame(1, 10_000_000 + i * 30_000, 300)).unwrap().is_empty());
        }
        let tail = engine.finish().unwrap();
        let Some(MultiEvent::FusedMatch { window: 0, device, fused: Some(fused), .. }) =
            tail.first()
        else {
            panic!("expected a scored trailing-window decision, got {tail:?}");
        };
        assert_eq!(*device, MacAddr::from_index(1));
        assert_eq!(fused.best().unwrap().0, MacAddr::from_index(1));
        assert!(matches!(
            tail.last(),
            Some(MultiEvent::WindowClosed { window: 0, candidates: 1, known: 1, unknown: 0 })
        ));
    }

    #[test]
    fn training_only_session_is_the_enrollment_entry_point() {
        let mut engine = MultiEngine::builder()
            .config(cfg(10, 5))
            .train_for(Nanos::from_secs(3600))
            .build()
            .unwrap();
        assert_eq!(engine.phase(), EnginePhase::Training);
        engine.observe_all(&training_frames()).unwrap();
        let events = engine.finish().unwrap();
        assert_eq!(engine.phase(), EnginePhase::Finished);
        let enrolled: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                MultiEvent::Enrolled { device, observations } => Some((*device, observations)),
                _ => None,
            })
            .collect();
        assert_eq!(enrolled.len(), 3);
        // Ascending device order; every parameter qualified; the
        // history-based parameters observe one frame fewer.
        for (i, (device, observations)) in enrolled.iter().enumerate() {
            assert_eq!(*device, MacAddr::from_index(i as u64 + 1));
            assert_eq!(observations.len(), NetworkParameter::COUNT);
            let by_param: BTreeMap<_, _> = observations.iter().copied().collect();
            assert_eq!(by_param[&NetworkParameter::FrameSize], 40);
            assert!(by_param[&NetworkParameter::InterArrivalTime] <= 40);
        }
        let dbs = engine.into_references();
        assert!(dbs.values().all(|db| db.len() == 3 && db.is_frozen()));
    }

    #[test]
    fn finished_engine_rejects_further_use() {
        let mut engine = MultiEngine::builder()
            .config(cfg(10, 5))
            .train_for(Nanos::from_secs(3600))
            .build()
            .unwrap();
        engine.observe(&frame(1, 1_000, 300)).unwrap();
        engine.finish().unwrap();
        assert!(matches!(engine.observe(&frame(1, 2_000, 300)), Err(EngineError::Finished)));
        assert!(matches!(engine.advance_to(Nanos::from_secs(10)), Err(EngineError::Finished)));
        assert!(matches!(engine.tick(), Err(EngineError::Finished)));
        // finish() itself is idempotent: no error, no duplicate trailing
        // window — just an empty event list.
        assert!(engine.finish().unwrap().is_empty());
        assert!(engine.finish().unwrap().is_empty());
    }

    #[test]
    fn out_of_order_frames_are_rejected_without_corrupting_state() {
        let mut engine = MultiEngine::builder()
            .config(cfg(10, 1))
            .train_for(Nanos::from_secs(3600))
            .build()
            .unwrap();
        engine.observe(&frame(1, 5_000, 300)).unwrap();
        assert!(matches!(
            engine.observe(&frame(1, 4_000, 300)),
            Err(EngineError::NonMonotonicFrame { .. })
        ));
        engine.observe(&frame(1, 6_000, 300)).unwrap();
        assert_eq!(engine.frames_observed(), 2);
    }

    #[test]
    fn single_parameter_spec_behaves_like_one_engine_with_fusion_identity() {
        // FusionSpec::single is the drop-in shape: the fused score IS
        // the one parameter's score over the enrolled set.
        let mcfg = cfg(1, 5);
        let spec = FusionSpec::single(NetworkParameter::FrameSize);
        let mut engine = MultiEngine::builder()
            .spec(spec)
            .config(mcfg)
            .train_for(Nanos::from_secs(2))
            .build()
            .unwrap();
        let mut frames = training_frames();
        for i in 0..40u64 {
            frames.push(frame(3, 2_100_000 + i * 25_000, 900));
        }
        frames.sort_by_key(|f| f.t_end);
        let mut events = engine.observe_all(&frames).unwrap();
        events.append(&mut engine.finish().unwrap());
        let mut seen = 0;
        for event in &events {
            let MultiEvent::FusedMatch { scores, fused: Some(fused), .. } = event else {
                continue;
            };
            for &(device, got) in fused.similarities() {
                let single = scores[0].view.similarity_to(&device).unwrap_or(0.0);
                assert!((got - single).abs() < 1e-12);
            }
            seen += 1;
        }
        assert!(seen > 0);
    }

    #[test]
    fn degraded_window_fuses_over_surviving_parameters_under_quorum() {
        // A sparse window: exactly 5 frames from device 1. The per-frame
        // parameters (size, rate, transmission time) observe all 5; the
        // history-based ones (inter-arrival, medium access) observe 4 —
        // under the floor — so the window closes with 3 of 5 views.
        let sparse_run = |resilience: ResilienceConfig| {
            let mut engine = detector(resilience);
            for i in 0..5u64 {
                engine.observe(&frame(1, 10_000_000 + i * 30_000, 300)).unwrap();
            }
            let events = engine.finish().unwrap();
            let health = engine.health();
            (events, health)
        };

        // Default (strict): a missing view poisons the fused score.
        let (events, health) = sparse_run(ResilienceConfig::default());
        let Some(MultiEvent::FusedMatch { fused, degraded, .. }) = events.first() else {
            panic!("expected a trailing-window decision, got {events:?}");
        };
        assert!(fused.is_none(), "all-parameter quorum unmet: no fused score");
        assert!(degraded.is_empty());
        assert_eq!(health.windows_degraded, 0);

        // Quorum 1: fuse over the survivors, name the missing ones.
        let (events, health) = sparse_run(ResilienceConfig::default().with_fusion_quorum(Some(1)));
        let Some(MultiEvent::FusedMatch { device, fused: Some(fused), degraded, .. }) =
            events.first()
        else {
            panic!("expected a degraded fused decision, got {events:?}");
        };
        assert_eq!(*device, MacAddr::from_index(1));
        assert_eq!(fused.best().unwrap().0, MacAddr::from_index(1));
        assert_eq!(degraded.len(), 2, "the two history-based parameters starved");
        assert!(degraded.contains(&NetworkParameter::InterArrivalTime));
        assert!(degraded.contains(&NetworkParameter::MediumAccessTime));
        assert_eq!(health.windows_degraded, 1);

        // A quorum above the surviving count still refuses to fuse.
        let (events, _) = sparse_run(ResilienceConfig::default().with_fusion_quorum(Some(4)));
        let Some(MultiEvent::FusedMatch { fused, degraded, .. }) = events.first() else {
            panic!("expected a trailing-window decision, got {events:?}");
        };
        assert!(fused.is_none(), "3 surviving views < quorum 4");
        assert!(degraded.is_empty());
    }

    #[test]
    fn observe_all_reports_the_failing_frame_index() {
        let mut engine = MultiEngine::builder()
            .config(cfg(10, 1))
            .train_for(Nanos::from_secs(3600))
            .build()
            .unwrap();
        let frames =
            vec![frame(1, 5_000, 300), frame(1, 6_000, 300), frame(1, 4_000, 300)];
        let err = engine.observe_all(&frames).unwrap_err();
        let EngineError::Batch { index, source } = err else {
            panic!("expected a batch error, got {err:?}");
        };
        assert_eq!(index, 2);
        assert!(matches!(*source, EngineError::NonMonotonicFrame { .. }));
        // The two good frames were processed; the caller can skip past
        // index 2 and resume.
        assert_eq!(engine.frames_observed(), 2);
        engine.observe(&frame(1, 7_000, 300)).unwrap();
    }

    #[test]
    fn reorder_policy_restores_shuffled_streams_bit_identically() {
        use crate::engine::LateFramePolicy;
        // Same traffic, one stream locally shuffled within a 4-frame
        // horizon: with `Reorder { max_lateness: 8 }` the emitted events
        // must be bit-identical to the in-order run.
        let build = |resilience: ResilienceConfig| {
            MultiEngine::builder()
                .config(cfg(1, 5))
                .train_for(Nanos::from_secs(2))
                .resilience(resilience)
                .build()
                .unwrap()
        };
        let mut frames = training_frames();
        // Strictly distinct timestamps (40 kµs and 25 kµs lattices never
        // meet off a 13 kµs offset), so re-sequencing is unambiguous.
        for i in 0..60u64 {
            frames.push(frame(1, 2_100_000 + i * 40_000, 300));
            frames.push(frame(3, 2_113_000 + i * 25_000, 900));
        }
        frames.sort_by_key(|f| f.t_end);
        let mut shuffled = frames.clone();
        for chunk in shuffled.chunks_mut(4) {
            chunk.reverse();
        }

        let run = |engine: &mut MultiEngine, frames: &[CapturedFrame]| {
            let mut events = engine.observe_all(frames).unwrap();
            events.append(&mut engine.finish().unwrap());
            events
        };
        let mut in_order = build(ResilienceConfig::default());
        let reorder_cfg = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 8 });
        let mut resequenced = build(reorder_cfg);
        let expected = run(&mut in_order, &frames);
        let got = run(&mut resequenced, &shuffled);
        assert_eq!(format!("{expected:?}"), format!("{got:?}"));
        assert!(resequenced.health().frames_reordered > 0, "the shuffle was real");
        assert_eq!(resequenced.health().frames_late_dropped, 0);
    }

    #[test]
    fn deadline_tick_inside_the_reorder_horizon_keeps_buffered_frames() {
        use crate::engine::LateFramePolicy;
        // The fused-engine twin of the single-engine regression test: a
        // watchdog-style deadline tick landing inside the reorder
        // buffer's horizon must flush only frames at or before it — the
        // later buffered frames stay pending, are neither dropped nor
        // re-shuffled, and arrive in order at the final drain.
        let resilience = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 16 });
        let mut engine = MultiEngine::builder()
            .config(cfg(1, 1))
            .train_for(Nanos::from_secs(3600))
            .resilience(resilience)
            .build()
            .unwrap();
        for t_us in [50_000u64, 10_000, 30_000, 70_000, 20_000] {
            assert!(engine.observe(&frame(1, t_us, 300)).unwrap().is_empty());
        }
        assert_eq!(engine.pending_frames(), 5);
        // Deadline at 35 ms: flushes 10/20/30 ms into the core, keeps
        // 50/70 ms buffered.
        assert!(engine.advance_to(Nanos::from_micros(35_000)).unwrap().is_empty());
        assert_eq!(engine.frames_observed(), 3);
        assert_eq!(engine.pending_frames(), 2);
        assert_eq!(engine.health().frames_late_dropped, 0, "the tick dropped nothing");
        // The drain delivers the stragglers: every frame reaches the core.
        engine.finish().unwrap();
        assert_eq!(engine.frames_observed(), 5);
        assert_eq!(engine.pending_frames(), 0);
        assert_eq!(engine.health().frames_late_dropped, 0);
    }
}
