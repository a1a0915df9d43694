//! The streaming engine: the production entry point of the crate.
//!
//! The paper's detector is inherently *online* — a passive monitor
//! watches frames and must flag devices per 5-minute detection window
//! (§V-A) — so the production API is frame-at-a-time, not batch.
//! [`MultiEngine`] is a builder-configured facade over the whole
//! ingest → window → match → fuse path: push every [`CapturedFrame`]
//! once, in capture order, and receive typed [`MultiEvent`]s as
//! detection windows close. Matching runs through the same tiled column
//! sweep ([`ReferenceDb::match_tile`]) as the batch paths,
//! incrementally, one window at a time — no end-of-trace sweep and no
//! whole-trace buffering.
//!
//! A [`FusionSpec`] names the parameters the engine runs.
//! [`FusionSpec::single`] is the paper's per-parameter evaluation
//! (Tables II–III): one parameter, whose fused score is that parameter's
//! score. [`FusionSpec::all_equal`] runs all five from one fused frame
//! parse on one shared window clock, with per-parameter *and* fused
//! (weighted-average) scores per event — see the [`multi`] module docs.
//!
//! The engine is frame-driven *and* clock-driven: windows normally seal
//! when a later frame arrives, and [`MultiEngine::advance_to`] /
//! [`MultiEngine::tick`] seal them on wall clock instead, so a channel
//! that goes quiet cannot stall the final decision.
//!
//! # Lifecycle
//!
//! An engine is in one of three phases ([`EnginePhase`]):
//!
//! * **Training** — entered with [`MultiEngineBuilder::train_for`]:
//!   frames enroll devices. When the configured duration elapses (on the
//!   stream's own clock), the learned devices are enrolled into one
//!   [`ReferenceDb`] per parameter, the databases are frozen
//!   ([`ReferenceDb::freeze`]), one [`MultiEvent::Enrolled`] fires per
//!   device, and the engine moves to detection. A training phase that
//!   enrolls nobody degrades to an all-[`MultiEvent::FusedNewDevice`]
//!   detector rather than killing a live capture session.
//! * **Detecting** — entered directly with
//!   [`MultiEngineBuilder::references`] (the databases are frozen on
//!   entry), or from training. The engine runs only dense sweeps, which
//!   score every row bit for bit alike in any layout, so it takes its
//!   references as they are laid out; stores grow shards only for the
//!   pruned top-k sweeps of the [`linker`] and of metropolis-scale
//!   stores, so trained references stay flat. Frames build per-device
//!   candidate signatures inside sliding detection windows; when a frame
//!   lands past the current window's end, the window seals and every
//!   qualifying candidate is matched against the references:
//!   [`MultiEvent::FusedMatch`] for enrolled devices,
//!   [`MultiEvent::FusedNewDevice`] for strangers (scored too — "who does
//!   this newcomer most resemble" is the MAC-randomisation tracking
//!   question), then one [`MultiEvent::WindowClosed`] terminator.
//! * **Finished** — after [`MultiEngine::finish`] seals the trailing
//!   window. `finish()` is idempotent: a second call returns no events.
//!
//! # Degraded input, overload and rotating addresses
//!
//! Three submodules harden and extend the core, each documented in
//! full on its own:
//!
//! * [`resilience`] — degraded *frames*. By default frames must arrive
//!   in capture order ([`EngineError::NonMonotonicFrame`]) and are
//!   trusted verbatim; a [`ResilienceConfig`]
//!   ([`MultiEngineBuilder::resilience`]) drops or re-sequences late
//!   frames ([`LateFramePolicy`], bit-identical to the in-order stream
//!   under `Reorder`), suppresses duplicates and runts, and fuses sparse
//!   windows over a quorum of parameters. Every dropped frame is counted
//!   in [`EngineHealth`] ([`MultiEngine::health`]).
//! * [`ingest`] — degraded *flow*. An [`IngestPipeline`] runs the engine
//!   on a supervised worker behind a bounded ring: an [`OverloadPolicy`]
//!   sheds bursts, a frame whose sweep panics is quarantined
//!   ([`Quarantined`]), a stall watchdog drives [`MultiEngine::tick`],
//!   and the one worker delivers events in the order the engine emitted
//!   them — bit-identical to synchronous [`MultiEngine::observe`] under
//!   [`OverloadPolicy::Block`]. Everything reconciles through
//!   [`EngineHealth::conserves`]:
//!   `seen = delivered + dropped + shed + quarantined + pending`.
//! * [`linker`] — rotating addresses. The engine keys everything on the
//!   claimed transmitter address, which modern clients randomize; a
//!   [`RotationLinker`] consumes the per-parameter signatures
//!   [`MultiEvent::FusedNewDevice`] carries
//!   ([`RotationLinker::observe_multi`]) and chains rotated addresses
//!   back to stable [`IdentityId`]s, emitting typed [`LinkEvent`]s and
//!   conserving [`LinkerStats`].
//!
//! # Example
//!
//! ```
//! use wifiprint_core::engine::{MultiConfig, MultiEngine, MultiEvent};
//! use wifiprint_core::{FusionSpec, NetworkParameter};
//! use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
//! use wifiprint_radiotap::CapturedFrame;
//!
//! let cfg = MultiConfig::default()
//!     .with_min_observations(20)
//!     .with_window(Nanos::from_secs(1));
//! let mut engine = MultiEngine::builder()
//!     .spec(FusionSpec::single(NetworkParameter::InterArrivalTime))
//!     .config(cfg)
//!     .train_for(Nanos::from_secs(2))
//!     .build()
//!     .expect("valid engine configuration");
//!
//! // One station sending every 10 ms: 2 s of training, 3 s of detection.
//! let sta = MacAddr::from_index(1);
//! let ap = MacAddr::from_index(2);
//! let mut events = Vec::new();
//! for i in 0..500u64 {
//!     let f = Frame::data_to_ds(sta, ap, ap, 400);
//!     let cap = CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_millis(10 * (i + 1)), -50);
//!     events.extend(engine.observe(&cap).expect("in-order frame"));
//! }
//! events.extend(engine.finish().expect("finish once"));
//!
//! assert!(matches!(events[0], MultiEvent::Enrolled { device, .. } if device == sta));
//! let matches = events.iter().filter(|e| matches!(e, MultiEvent::FusedMatch { .. })).count();
//! assert!(matches >= 3, "one match per closed detection window");
//! ```
//!
//! [`CapturedFrame`]: wifiprint_radiotap::CapturedFrame
//! [`FusionSpec`]: crate::FusionSpec
//! [`FusionSpec::single`]: crate::FusionSpec::single
//! [`FusionSpec::all_equal`]: crate::FusionSpec::all_equal
//! [`ReferenceDb`]: crate::ReferenceDb
//! [`ReferenceDb::freeze`]: crate::ReferenceDb::freeze
//! [`ReferenceDb::match_tile`]: crate::ReferenceDb::match_tile

pub mod ingest;
pub mod linker;
pub mod multi;
pub mod resilience;

pub use ingest::{
    IngestConfig, IngestPipeline, IngestReport, IngestStats, OverloadPolicy, Quarantined,
    SubmitOutcome,
};
pub use linker::{IdentityId, LinkEvent, LinkerConfig, LinkerStats, RotationLinker};
pub use multi::{MultiConfig, MultiEngine, MultiEngineBuilder, MultiEvent, ParameterDecision};
pub use resilience::{
    EngineHealth, LateFramePolicy, ResilienceConfig, MIN_PLAUSIBLE_FRAME_SIZE,
};

use std::fmt;

use wifiprint_ieee80211::Nanos;

use crate::error::CoreError;

/// A failure of the streaming engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// [`MultiEngineBuilder::build`] with neither pre-learned
    /// [`MultiEngineBuilder::references`] nor an online
    /// [`MultiEngineBuilder::train_for`] phase: the engine would have
    /// nothing to match against and no way to learn.
    MissingReference,
    /// [`MultiEngineBuilder::build`] with *both* reference databases and
    /// a training phase — it is ambiguous which should win.
    ConflictingReference,
    /// A frame older than its predecessor was observed. Frames must
    /// arrive in capture order (monitor taps and pcap files both
    /// guarantee this); reordered input would silently corrupt window
    /// attribution, so under the default
    /// [`LateFramePolicy::Reject`] it is rejected instead.
    /// [`ResilienceConfig`] selects more tolerant policies for degraded
    /// captures ([`LateFramePolicy::Reorder`]).
    NonMonotonicFrame {
        /// Timestamp of the previously observed frame.
        last: Nanos,
        /// The offending earlier timestamp.
        got: Nanos,
    },
    /// [`MultiEngine::observe`], [`MultiEngine::advance_to`] or
    /// [`MultiEngine::tick`] after [`MultiEngine::finish`] sealed the
    /// session.
    Finished,
    /// A frame inside a [`MultiEngine::observe_all`] batch failed;
    /// `index` is its position in the batch, so callers can resume after
    /// it or skip it.
    Batch {
        /// Zero-based position of the failing frame in the batch.
        index: usize,
        /// The underlying per-frame failure.
        source: Box<EngineError>,
    },
    /// The supervised ingest front failed outside its panic isolation:
    /// the worker thread could not be spawned, or it died in a way the
    /// supervisor could not contain (a supervision bug, not a poison
    /// frame — poison frames are quarantined, never surfaced as
    /// errors).
    Supervisor {
        /// What the supervisor observed.
        reason: String,
    },
    /// A data-level failure from the underlying primitives.
    Core(CoreError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MissingReference => {
                write!(f, "engine builder needs a reference database or a training phase")
            }
            EngineError::ConflictingReference => {
                write!(f, "engine builder got both a reference database and a training phase")
            }
            EngineError::NonMonotonicFrame { last, got } => write!(
                f,
                "frame at {} ns arrived after one at {} ns; frames must be in capture order",
                got.as_nanos(),
                last.as_nanos()
            ),
            EngineError::Finished => write!(f, "engine session is already finished"),
            EngineError::Batch { index, source } => {
                write!(f, "frame #{index} of batch: {source}")
            }
            EngineError::Supervisor { reason } => {
                write!(f, "ingest supervisor failure: {reason}")
            }
            EngineError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Batch { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

/// Which stage of its lifecycle a [`MultiEngine`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Accumulating the reference databases from the stream.
    Training,
    /// Matching per-window candidates against the frozen references.
    Detecting,
    /// [`MultiEngine::finish`] sealed the session.
    Finished,
}

/// The one-parameter deployment — a [`MultiEngine`] over
/// [`FusionSpec::single`] — held to the single-parameter contract:
/// per-window decisions equal to the batch sweep, the lifecycle edge
/// cases, and the error surface.
#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::fusion::FusionSpec;
    use crate::matching::{MatchOutcome, MatchScratch, ReferenceDb};
    use crate::params::NetworkParameter::{self, FrameSize};
    use crate::signature::Signature;
    use crate::similarity::SimilarityMeasure;
    use crate::windows::WindowedSignatures;
    use wifiprint_ieee80211::{Frame, FrameKind, MacAddr, Rate};
    use wifiprint_radiotap::CapturedFrame;

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

    fn mac(index: u64) -> MacAddr {
        MacAddr::from_index(index)
    }

    /// Observes `n` frames of `payload` bytes from device `dev`, `step_us`
    /// apart from `start_us`; returns the events they triggered.
    fn feed(
        engine: &mut MultiEngine,
        dev: u64,
        start_us: u64,
        step_us: u64,
        n: u64,
        payload: usize,
    ) -> Vec<MultiEvent> {
        let frames: Vec<CapturedFrame> =
            (0..n).map(|i| frame(dev, start_us + i * step_us, payload)).collect();
        engine.observe_all(&frames).unwrap()
    }

    /// Frame-size references: device 1 sends 200-byte frames, device 2
    /// 1200-byte ones.
    fn references(c: &MultiConfig) -> BTreeMap<NetworkParameter, ReferenceDb> {
        let eval = c.eval_config(FrameSize);
        let mut db = ReferenceDb::new();
        for (i, size) in [(1u64, 200.0), (2, 1200.0)] {
            let mut sig = Signature::new();
            for _ in 0..50 {
                sig.record(FrameKind::Data, size, &eval);
            }
            db.insert(mac(i), sig).unwrap();
        }
        BTreeMap::from([(FrameSize, db)])
    }

    fn builder(c: &MultiConfig) -> MultiEngineBuilder {
        MultiEngine::builder().spec(FusionSpec::single(FrameSize)).config(c.clone())
    }

    /// A one-parameter engine detecting against [`references`].
    fn detector(c: &MultiConfig) -> MultiEngine {
        builder(c).references(references(c)).build().unwrap()
    }

    /// Every per-candidate decision: window, device and the parameter's
    /// similarity view.
    fn decisions(events: &[MultiEvent]) -> Vec<(usize, MacAddr, &MatchOutcome)> {
        events
            .iter()
            .filter_map(|e| match e {
                MultiEvent::FusedMatch { window, device, scores, .. }
                | MultiEvent::FusedNewDevice { window, device, scores, .. } => {
                    Some((*window, *device, &scores[0].view))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn builder_rejects_incomplete_or_conflicting_setups() {
        let c = cfg(10, 1);
        assert!(matches!(builder(&c).build(), Err(EngineError::MissingReference)));
        assert!(matches!(
            builder(&c).references(references(&c)).train_for(Nanos::from_secs(5)).build(),
            Err(EngineError::ConflictingReference)
        ));
        assert!(matches!(
            builder(&c).references(BTreeMap::from([(FrameSize, ReferenceDb::new())])).build(),
            Err(EngineError::Core(CoreError::EmptyDatabase))
        ));
        let other = BTreeMap::from([(NetworkParameter::InterArrivalTime, ReferenceDb::new())]);
        assert!(matches!(
            builder(&c).references(other).build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
        assert!(matches!(
            builder(&c).train_for(Nanos::ZERO).build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
        assert!(matches!(
            builder(&cfg(0, 1)).train_for(Nanos::from_secs(5)).build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn reference_mode_matches_per_window() {
        let c = cfg(1, 5);
        let mut engine = detector(&c);
        assert_eq!(engine.phase(), EnginePhase::Detecting);
        assert!(engine.reference(FrameSize).unwrap().is_frozen());

        // Device 1 sends its signature size in windows 0 and 1; a
        // stranger (device 7) appears in window 1.
        let mut events = feed(&mut engine, 1, 1_000, 10_000, 10, 176);
        assert!(events.is_empty(), "window 0 still open");
        for i in 0..10u64 {
            events.extend(engine.observe(&frame(1, 1_000_000 + i * 10_000, 176)).unwrap());
            events.extend(engine.observe(&frame(7, 1_001_000 + i * 10_000, 176)).unwrap());
        }
        // Window 0 sealed: one match (device 1) + terminator.
        assert_eq!(events.len(), 2);
        let MultiEvent::FusedMatch { window: 0, device, scores, fused: Some(fused), .. } =
            &events[0]
        else {
            panic!("expected FusedMatch, got {:?}", events[0]);
        };
        assert_eq!(*device, mac(1));
        assert_eq!(scores[0].view.best().unwrap().0, mac(1));
        // One parameter: the fused score is that parameter's score.
        assert_eq!(fused.similarities().collect::<Vec<_>>(), scores[0].view.similarities().collect::<Vec<_>>());
        assert!(matches!(
            events[1],
            MultiEvent::WindowClosed { window: 0, candidates: 1, known: 1, unknown: 0 }
        ));

        // finish() seals window 1 with both devices.
        let tail = engine.finish().unwrap();
        assert_eq!(engine.phase(), EnginePhase::Finished);
        assert_eq!(tail.len(), 3);
        assert!(matches!(&tail[0], MultiEvent::FusedMatch { window: 1, device, .. }
            if *device == mac(1)));
        let MultiEvent::FusedNewDevice { window: 1, device, signatures, scores, .. } = &tail[1]
        else {
            panic!("expected FusedNewDevice, got {:?}", tail[1]);
        };
        assert_eq!(*device, mac(7));
        assert_eq!(signatures[0].1.observation_count(), 10);
        // The stranger sent device 1's frame size, so it resembles
        // device 1 most.
        assert_eq!(scores[0].view.best().unwrap().0, mac(1));
        assert!(matches!(
            tail[2],
            MultiEvent::WindowClosed { window: 1, candidates: 2, known: 1, unknown: 1 }
        ));
        assert_eq!(engine.windows_closed(), 2);
    }

    #[test]
    fn training_transition_enrolls_freezes_and_detects() {
        let mut engine = builder(&cfg(1, 5)).train_for(Nanos::from_secs(2)).build().unwrap();
        assert_eq!(engine.phase(), EnginePhase::Training);
        assert!(engine.reference(FrameSize).is_none());

        let mut events = Vec::new();
        // Two devices during training (2 s), then device 1 again.
        for i in 0..20u64 {
            events.extend(engine.observe(&frame(1, 1_000 + i * 50_000, 300)).unwrap());
            events.extend(engine.observe(&frame(2, 2_000 + i * 50_000, 900)).unwrap());
        }
        assert!(events.is_empty());
        assert_eq!(engine.phase(), EnginePhase::Training);

        // First frame past 2 s triggers enrollment (address order).
        let transition = engine.observe(&frame(1, 2_001_000, 300)).unwrap();
        assert_eq!(engine.phase(), EnginePhase::Detecting);
        assert_eq!(transition.len(), 2);
        assert!(matches!(&transition[0], MultiEvent::Enrolled { device, observations }
            if *device == mac(1) && *observations == [(FrameSize, 20)]));
        assert!(matches!(&transition[1], MultiEvent::Enrolled { device, .. }
            if *device == mac(2)));
        assert!(engine.reference(FrameSize).unwrap().is_frozen());
        assert_eq!(engine.train_frames(), 40);

        // Detection: device 1 fills the first detection window.
        assert!(feed(&mut engine, 1, 2_021_000, 20_000, 9, 300).is_empty());
        let tail = engine.finish().unwrap();
        assert!(matches!(&tail[0], MultiEvent::FusedMatch { window: 0, device, scores, .. }
            if *device == mac(1) && scores[0].view.best().unwrap().0 == mac(1)));
    }

    #[test]
    fn empty_training_degrades_to_new_device_detection() {
        // Nobody reaches the 50-observation floor during training.
        let mut engine = builder(&cfg(1, 50)).train_for(Nanos::from_secs(1)).build().unwrap();
        engine.observe(&frame(1, 0, 300)).unwrap();
        let transition = engine.observe(&frame(1, 1_000_100, 300)).unwrap();
        assert!(transition.is_empty(), "no Enrolled events");
        assert_eq!(engine.phase(), EnginePhase::Detecting);
        assert!(engine.reference(FrameSize).unwrap().is_empty());

        // A chatty device in detection is flagged as new, with an empty
        // similarity view and no fused score.
        feed(&mut engine, 1, 1_010_100, 10_000, 59, 300);
        let tail = engine.finish().unwrap();
        assert!(matches!(&tail[0], MultiEvent::FusedNewDevice { device, scores, fused: None, .. }
            if *device == mac(1) && scores[0].view.best().is_none()));
    }

    #[test]
    fn training_only_session_is_the_enrollment_entry_point() {
        let mut engine = builder(&cfg(10, 5)).train_for(Nanos::from_secs(3600)).build().unwrap();
        feed(&mut engine, 4, 1_000, 1_000, 10, 500);
        let events = engine.finish().unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], MultiEvent::Enrolled { device, observations }
            if *device == mac(4) && *observations == [(FrameSize, 10)]));
        let db = engine.into_references().remove(&FrameSize).expect("reference after finish");
        assert!(db.is_frozen());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn score_unknown_off_skips_the_stranger_sweep_but_keeps_events() {
        let c = cfg(1, 3);
        let frames: Vec<CapturedFrame> = (0..40u64)
            .map(|i| frame(i % 4 + 1, 1_000 + i * 20_000, 176)) // devices 1,2 enrolled; 3,4 strangers
            .collect();

        let run = |score: bool| {
            let mut engine =
                builder(&c).references(references(&c)).score_unknown(score).build().unwrap();
            let mut events = engine.observe_all(&frames).unwrap();
            events.extend(engine.finish().unwrap());
            events
        };
        let rich = run(true);
        let lean = run(false);
        assert_eq!(rich.len(), lean.len(), "same event sequence either way");
        let mut strangers = 0;
        for (a, b) in rich.iter().zip(&lean) {
            match (a, b) {
                // Enrolled devices score identically.
                (
                    MultiEvent::FusedMatch { window: wa, device: da, scores: sa, fused: fa, .. },
                    MultiEvent::FusedMatch { window: wb, device: db_, scores: sb, fused: fb, .. },
                ) => {
                    assert_eq!((da, wa), (db_, wb));
                    assert_eq!(sa[0].view.similarities().collect::<Vec<_>>(), sb[0].view.similarities().collect::<Vec<_>>());
                    assert_eq!(fa, fb);
                }
                // Strangers keep their event but lose the (costly) views.
                (
                    MultiEvent::FusedNewDevice { device: da, scores: sa, fused: fa, .. },
                    MultiEvent::FusedNewDevice { device: db_, scores: sb, fused: fb, .. },
                ) => {
                    assert_eq!(da, db_);
                    assert!(sa[0].view.similarities().next().is_some() && fa.is_some());
                    assert!(sb[0].view.similarities().next().is_none() && fb.is_none());
                    strangers += 1;
                }
                (MultiEvent::WindowClosed { .. }, MultiEvent::WindowClosed { .. }) => {}
                other => panic!("event sequences diverged: {other:?}"),
            }
        }
        assert!(strangers > 0);
    }

    #[test]
    fn finish_terminates_a_candidateless_trailing_window() {
        // A trailing window whose devices all miss the observation floor
        // still gets its WindowClosed terminator from finish(), exactly
        // as a mid-stream seal would have emitted it.
        let c = cfg(1, 5);
        let mut engine = detector(&c);
        assert!(feed(&mut engine, 1, 1_000, 10_000, 3, 176).is_empty());
        let tail = engine.finish().unwrap();
        assert_eq!(tail.len(), 1);
        assert!(matches!(
            tail[0],
            MultiEvent::WindowClosed { window: 0, candidates: 0, known: 0, unknown: 0 }
        ));
        assert_eq!(engine.windows_closed(), 1);

        // With no detection frame at all, there is no trailing window.
        let mut idle = detector(&c);
        assert!(idle.finish().unwrap().is_empty());
        assert_eq!(idle.windows_closed(), 0);
    }

    #[test]
    fn advance_to_closes_a_window_exactly_like_a_later_frame() {
        // Streaming == batch parity, extended to tick-driven closes: a
        // bare advance_to(t) must emit the same sealed-window events a
        // frame at t would have (minus the frame's own contribution).
        let c = cfg(1, 5);
        let mut by_frame = detector(&c);
        let mut by_tick = detector(&c);
        assert!(feed(&mut by_frame, 1, 1_000, 10_000, 10, 176).is_empty());
        assert!(feed(&mut by_tick, 1, 1_000, 10_000, 10, 176).is_empty());
        let later = Nanos::from_micros(2_500_000);
        let frame_events = by_frame.observe(&frame(2, 2_500_000, 176)).unwrap();
        let tick_events = by_tick.advance_to(later).unwrap();
        assert_eq!(decisions(&tick_events).len(), 1);
        assert_eq!(format!("{frame_events:?}"), format!("{tick_events:?}"));
        assert_eq!(by_tick.windows_closed(), 1);
        // The tick advanced the monotonicity floor...
        assert!(matches!(
            by_tick.observe(&frame(1, 2_000_000, 176)),
            Err(EngineError::NonMonotonicFrame { .. })
        ));
        // ...a repeat tick is a no-op, and finish() does not re-close
        // the already-sealed trailing window.
        assert!(by_tick.advance_to(later).unwrap().is_empty());
        assert!(by_tick.finish().unwrap().is_empty());
    }

    #[test]
    fn advance_to_ends_an_elapsed_training_phase() {
        let mut engine = builder(&cfg(1, 5)).train_for(Nanos::from_secs(2)).build().unwrap();
        feed(&mut engine, 1, 1_000, 50_000, 20, 300);
        assert_eq!(engine.phase(), EnginePhase::Training);
        // Before the boundary: still training. After: enrollment fires
        // from the clock alone, with no frame needed.
        assert!(engine.advance_to(Nanos::from_millis(1_500)).unwrap().is_empty());
        assert_eq!(engine.phase(), EnginePhase::Training);
        let events = engine.advance_to(Nanos::from_secs(3)).unwrap();
        assert_eq!(engine.phase(), EnginePhase::Detecting);
        assert!(matches!(&events[0], MultiEvent::Enrolled { device, observations }
            if *device == mac(1) && *observations == [(FrameSize, 20)]));
    }

    #[test]
    fn tick_forces_the_pending_window_decision() {
        let mut engine = detector(&cfg(1, 5));
        assert!(engine.tick().unwrap().is_empty(), "no open window yet");
        feed(&mut engine, 1, 1_000, 10_000, 10, 176);
        let events = engine.tick().unwrap();
        assert!(matches!(&events[0], MultiEvent::FusedMatch { window: 0, device, .. }
            if *device == mac(1)));
        assert!(engine.tick().unwrap().is_empty(), "nothing further to seal");
        assert_eq!(engine.windows_closed(), 1);
    }

    #[test]
    fn finish_scores_the_trailing_partial_window() {
        // Regression (quiet-channel fix): frames in a window that never
        // saw a successor still produce their decision at finish(),
        // score and all.
        let mut engine = detector(&cfg(1, 5));
        assert!(feed(&mut engine, 1, 1_000, 10_000, 10, 176).is_empty());
        let tail = engine.finish().unwrap();
        let MultiEvent::FusedMatch { window: 0, device, scores, .. } = &tail[0] else {
            panic!("expected a scored trailing-window match, got {tail:?}");
        };
        assert_eq!(*device, mac(1));
        assert_eq!(scores[0].view.best().unwrap().0, mac(1));
        assert!(matches!(
            tail[1],
            MultiEvent::WindowClosed { window: 0, candidates: 1, known: 1, unknown: 0 }
        ));
    }

    #[test]
    fn out_of_order_frames_are_rejected_without_corrupting_state() {
        let mut engine = detector(&cfg(1, 1));
        engine.observe(&frame(1, 5_000, 176)).unwrap();
        let err = engine.observe(&frame(1, 4_000, 176)).unwrap_err();
        assert!(matches!(err, EngineError::NonMonotonicFrame { .. }));
        assert!(err.to_string().contains("capture order"));
        // The engine keeps running; in-order frames still work.
        engine.observe(&frame(1, 6_000, 176)).unwrap();
        assert_eq!(engine.frames_observed(), 2);
    }

    #[test]
    fn finished_engine_rejects_further_use() {
        let mut engine = detector(&cfg(1, 1));
        engine.observe(&frame(1, 1_000, 176)).unwrap();
        let tail = engine.finish().unwrap();
        assert!(!tail.is_empty(), "first finish seals the trailing window");
        assert!(matches!(engine.observe(&frame(1, 2_000, 176)), Err(EngineError::Finished)));
        assert!(matches!(engine.advance_to(Nanos::from_secs(10)), Err(EngineError::Finished)));
        assert!(matches!(engine.tick(), Err(EngineError::Finished)));
        // finish() itself is idempotent: a second call has nothing left
        // to seal and returns no events.
        assert!(engine.finish().unwrap().is_empty());
        assert!(engine.finish().unwrap().is_empty());
        // The reference stays reachable after finish.
        assert!(engine.reference(FrameSize).is_some());
    }

    #[test]
    fn engine_decisions_equal_the_batch_sweep() {
        // The streaming path must produce exactly the batch path's
        // decisions: same windows, same candidates, same scores.
        let c = cfg(1, 3);
        let frames: Vec<CapturedFrame> = (0..200u64)
            .map(|i| {
                let dev = i % 3 + 1; // devices 1, 2 and a stranger 3
                frame(dev, 10_000 + i * 17_000, 150 + 500 * dev as usize)
            })
            .collect();

        // Batch: windowed candidates, then one evaluate-style sweep.
        let mut windows = WindowedSignatures::new(&c.eval_config(FrameSize));
        for f in &frames {
            windows.push(f);
        }
        let batch = windows.finish();

        // Streaming: the engine, frame at a time.
        let mut engine = detector(&c);
        let mut streamed = engine.observe_all(&frames).unwrap();
        streamed.append(&mut engine.finish().unwrap());

        let decisions = decisions(&streamed);
        assert_eq!(decisions.len(), batch.len());
        let db = &references(&c)[&FrameSize];
        let mut scratch = MatchScratch::new();
        for (cand, (window, device, view)) in batch.iter().zip(&decisions) {
            assert_eq!((cand.index, cand.device), (*window, *device));
            let tile = db.match_tile(
                std::slice::from_ref(&cand.signature),
                SimilarityMeasure::Cosine,
                &mut scratch,
            );
            assert_eq!(view.similarities().collect::<Vec<_>>(), tile.candidate(0).similarities().collect::<Vec<_>>());
        }
    }

    #[test]
    fn observe_all_reports_the_failing_frame_index() {
        let mut engine = detector(&cfg(10, 1));
        let frames = vec![frame(1, 5_000, 176), frame(1, 6_000, 176), frame(1, 4_000, 176)];
        let err = engine.observe_all(&frames).unwrap_err();
        let EngineError::Batch { index, source } = err else {
            panic!("expected a batch error, got {err:?}");
        };
        assert_eq!(index, 2);
        assert!(matches!(*source, EngineError::NonMonotonicFrame { .. }));
        // The two good frames were processed; the caller can skip past
        // the bad frame and resume the stream.
        assert_eq!(engine.frames_observed(), 2);
        engine.observe(&frame(1, 7_000, 176)).unwrap();
    }

    #[test]
    fn advance_to_exactly_on_the_window_boundary_seals_it() {
        let mut engine = detector(&cfg(1, 1));
        assert!(feed(&mut engine, 1, 1_000, 10_000, 5, 176).is_empty());
        // The first window spans [1 ms, 1 ms + 1 s); its end boundary is
        // exclusive, so advancing exactly to it seals the window.
        let boundary = Nanos::from_micros(1_000) + Nanos::from_secs(1);
        let events = engine.advance_to(boundary).unwrap();
        assert!(
            matches!(events.last(), Some(MultiEvent::WindowClosed { window: 0, candidates: 1, .. })),
            "boundary tick seals window 0: {events:?}"
        );
        // A second advance to the very same t is a no-op — the window
        // cannot close twice.
        assert!(engine.advance_to(boundary).unwrap().is_empty());
        assert_eq!(engine.windows_closed(), 1);
        // A frame exactly at the boundary lands in the next window.
        assert!(engine.observe(&frame(1, 1_001_000, 176)).unwrap().is_empty());
        let tail = engine.finish().unwrap();
        assert!(matches!(tail.last(), Some(MultiEvent::WindowClosed { window: 1, .. })), "{tail:?}");
    }

    #[test]
    fn advance_inside_the_reorder_watermark_keeps_buffered_frames() {
        // A tick landing *inside* the reorder buffer's horizon flushes
        // only the frames at or before it; the rest stay pending and are
        // delivered (in order) by the final drain.
        let c = cfg(1, 1);
        let resilience = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 16 });
        let mut engine =
            builder(&c).references(references(&c)).resilience(resilience).build().unwrap();
        for t_us in [50_000u64, 10_000, 30_000, 70_000, 20_000] {
            assert!(engine.observe(&frame(1, t_us, 176)).unwrap().is_empty());
        }
        assert_eq!(engine.pending_frames(), 5);
        // Tick at 35 ms: flushes 10/20/30 ms, keeps 50/70 ms pending.
        assert!(engine.advance_to(Nanos::from_micros(35_000)).unwrap().is_empty());
        assert_eq!(engine.frames_observed(), 3);
        assert_eq!(engine.pending_frames(), 2);
        // A frame older than the raised watermark is now dropped late…
        assert!(engine.observe(&frame(1, 25_000, 176)).unwrap().is_empty());
        assert_eq!(engine.health().frames_late_dropped, 1);
        // …and the drain delivers the stragglers before the window seals.
        let tail = engine.finish().unwrap();
        assert_eq!(engine.frames_observed(), 5);
        assert_eq!(engine.pending_frames(), 0);
        assert!(
            matches!(tail.last(), Some(MultiEvent::WindowClosed { window: 0, candidates: 1, .. })),
            "{tail:?}"
        );
    }

    #[test]
    fn batch_error_names_the_frame_index_and_exposes_its_source() {
        let mut engine = detector(&cfg(1, 1));
        // Frame #2 of the batch travels back in time; the strict default
        // policy rejects it as non-monotonic.
        let batch = [frame(1, 10_000, 176), frame(1, 20_000, 176), frame(1, 5_000, 176)];
        let err = engine.observe_all(&batch).unwrap_err();
        let EngineError::Batch { index, ref source } = err else {
            panic!("expected Batch, got {err:?}");
        };
        assert_eq!(index, 2);
        assert!(matches!(**source, EngineError::NonMonotonicFrame { .. }));
        // Display names the failing index and chains the inner message…
        let shown = err.to_string();
        assert!(shown.contains("frame #2"), "display: {shown}");
        assert!(shown.contains("capture order"), "display: {shown}");
        // …and std::error::Error::source() exposes the inner error for
        // error-chain walkers.
        let source = std::error::Error::source(&err).expect("batch has a source");
        assert!(source.to_string().contains("capture order"), "source: {source}");
    }
}
