//! The end-to-end evaluation pipeline of §V: split a trace into training
//! and validation portions, learn a reference database, build per-window
//! candidate signatures, and score both tests for every network parameter
//! — and for their fused score — in one streaming pass.
//!
//! The pipeline is a thin driver of **one** fused [`MultiEngine`]: a
//! single header parse per frame feeds all configured parameters
//! (trained online for the configured prefix), one shared window clock
//! closes their detection windows together, and every window is matched
//! the moment it closes. One private collector turns the engine's
//! [`MultiEvent`]s into the paper's two accuracy tests: the
//! per-parameter decisions of each [`MultiEvent::FusedMatch`] /
//! [`MultiEvent::FusedNewDevice`] become per-parameter [`MatchSet`]s,
//! and the fused score the engine emits becomes one more. The
//! synchronous [`StreamingEvaluator`], the supervised
//! [`evaluate_frames_supervised`] and the Pang-style
//! [`baseline`](crate::baseline) all feed that collector.

use std::collections::BTreeMap;

use wifiprint_core::batch::map_tiles_with_scratch;
use wifiprint_core::{
    EngineError, EngineHealth, EvalOutcome, FusionSpec, IngestConfig, IngestPipeline, IngestStats,
    MatchConfig, MatchSet, MultiConfig, MultiEngine, MultiEvent, NetworkParameter, ReferenceDb,
    ResilienceConfig,
};
use wifiprint_ieee80211::Nanos;
use wifiprint_radiotap::CapturedFrame;

/// Pipeline settings; the defaults follow the paper (§V-A).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Length of the training prefix (1 h for the 7-hour traces, 20 min
    /// for the 1-hour traces).
    pub train_duration: Nanos,
    /// Detection window length (5 minutes).
    pub window: Nanos,
    /// Minimum observations per signature (50).
    pub min_observations: u64,
    /// The parameters to evaluate (all five by default). Their
    /// equally weighted fusion is [`TraceEvaluation::fused`].
    pub parameters: Vec<NetworkParameter>,
    /// Row precision of the per-parameter reference databases the
    /// training prefix builds (`f32` by default; see [`MatchConfig`]).
    /// They stay flat: the engine runs only dense sweeps.
    pub match_config: MatchConfig,
    /// Ingest hardening for the underlying engine (late-frame policy,
    /// duplicate suppression, runt gate, degraded-fusion quorum). The
    /// default is strict — identical to the engine's historical
    /// behaviour; use [`ResilienceConfig::tolerant`] when the frame
    /// source is a degraded capture.
    pub resilience: ResilienceConfig,
    /// When set, [`evaluate_frames`] runs the engine behind the
    /// supervised ingest front ([`IngestPipeline`]) with this
    /// configuration — bounded ring, overload policy, panic isolation,
    /// stall watchdog. `None` (the default) drives the engine
    /// synchronously.
    pub ingest: Option<IngestConfig>,
}

impl PipelineConfig {
    /// The paper's configuration for a 7-hour trace: first hour trains.
    pub fn long_trace() -> Self {
        PipelineConfig {
            train_duration: Nanos::from_secs(3600),
            window: Nanos::from_secs(300),
            min_observations: 50,
            parameters: NetworkParameter::ALL.to_vec(),
            match_config: MatchConfig::default(),
            resilience: ResilienceConfig::default(),
            ingest: None,
        }
    }

    /// The paper's configuration for a 1-hour trace: first 20 minutes
    /// train.
    pub fn short_trace() -> Self {
        PipelineConfig { train_duration: Nanos::from_secs(1200), ..Self::long_trace() }
    }

    /// A miniature configuration for tests: `train` seconds of training,
    /// `window` second windows, a lowered observation floor.
    pub fn miniature(train_secs: u64, window_secs: u64, min_obs: u64) -> Self {
        PipelineConfig {
            train_duration: Nanos::from_secs(train_secs),
            window: Nanos::from_secs(window_secs),
            min_observations: min_obs,
            parameters: NetworkParameter::ALL.to_vec(),
            match_config: MatchConfig::default(),
            resilience: ResilienceConfig::default(),
            ingest: None,
        }
    }

    /// Swaps in a different ingest-hardening configuration (builder
    /// style), e.g. [`ResilienceConfig::tolerant`] for degraded
    /// captures.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Runs the engine behind the supervised ingest front with the
    /// given configuration (builder style); see
    /// [`PipelineConfig::ingest`].
    pub fn with_ingest(mut self, ingest: IngestConfig) -> Self {
        self.ingest = Some(ingest);
        self
    }

    /// The shared engine configuration this pipeline projects onto a
    /// [`MultiEngine`].
    pub(crate) fn multi_config(&self) -> MultiConfig {
        MultiConfig::default()
            .with_min_observations(self.min_observations)
            .with_window(self.window)
            .with_match_config(self.match_config)
    }
}

/// Everything measured for one trace: per-parameter and fused outcomes
/// plus the Table I-style features.
#[derive(Debug)]
pub struct TraceEvaluation {
    /// Per-parameter test outcomes.
    pub outcomes: BTreeMap<NetworkParameter, EvalOutcome>,
    /// Both tests over the engine's fused score: the equally weighted
    /// average of the configured parameters' similarities (§VIII's
    /// combined parameters). Its instances are the candidates that met
    /// the observation floor for every parameter (or the configured
    /// fusion quorum) and are enrolled for all of them; every candidate
    /// not enrolled for all of them counts as unknown. With one
    /// configured parameter it equals that parameter's outcome.
    pub fused: EvalOutcome,
    /// Reference databases (kept for follow-up matching, e.g. examples).
    pub databases: BTreeMap<NetworkParameter, ReferenceDb>,
    /// Number of reference devices (per parameter they can differ
    /// slightly; this is the inter-arrival count the paper tabulates).
    pub ref_devices: usize,
    /// Frames fed to the training phase.
    pub train_frames: u64,
    /// Frames fed to the validation phase.
    pub validation_frames: u64,
    /// The engine's ingest-health counters for the whole run: duplicates
    /// suppressed, runts rejected, late frames dropped, reordered frames
    /// restored, windows fused degraded.
    pub health: EngineHealth,
}

impl TraceEvaluation {
    /// AUC of the similarity test for one parameter (Table II).
    pub fn auc(&self, parameter: NetworkParameter) -> f64 {
        self.outcomes[&parameter].auc()
    }

    /// Identification ratio at a target FPR for one parameter (Table III).
    pub fn identification(&self, parameter: NetworkParameter, fpr: f64) -> f64 {
        self.outcomes[&parameter].identification_at_fpr(fpr)
    }

    /// Mean AUC over the parameters that produced candidate instances
    /// (0 when none did).
    pub fn mean_auc(&self) -> f64 {
        self.mean_over_scored(EvalOutcome::auc)
    }

    /// Mean identification ratio at the given FPR over the parameters
    /// that produced candidate instances (0 when none did).
    pub fn mean_identification(&self, fpr: f64) -> f64 {
        self.mean_over_scored(|o| o.identification_at_fpr(fpr))
    }

    fn mean_over_scored(&self, metric: impl Fn(&EvalOutcome) -> f64) -> f64 {
        let values: Vec<f64> =
            self.outcomes.values().filter(|o| o.instances > 0).map(metric).collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }
}

/// The window decisions one accuracy test is computed over.
#[derive(Debug, Default)]
struct Decisions {
    /// One match set per enrolled candidate; enrolled devices carry
    /// ground truth, and the accuracy tests are defined over them.
    sets: Vec<MatchSet>,
    /// Candidates that were not enrolled.
    unknown: usize,
}

/// The one accumulator every driver feeds: it counts the
/// train/validation split of the frames pushed and folds each
/// [`MultiEvent`] into per-parameter and fused [`Decisions`].
#[derive(Debug)]
struct Collector {
    train_duration: Nanos,
    origin: Option<Nanos>,
    train_frames: u64,
    validation_frames: u64,
    /// One entry per configured parameter, engine spec order.
    parameters: Vec<(NetworkParameter, Decisions)>,
    fused: Decisions,
}

impl Collector {
    fn new(cfg: &PipelineConfig) -> Self {
        Collector {
            train_duration: cfg.train_duration,
            origin: None,
            train_frames: 0,
            validation_frames: 0,
            parameters: cfg.parameters.iter().map(|&p| (p, Decisions::default())).collect(),
            fused: Decisions::default(),
        }
    }

    /// Counts one frame into the training or the validation portion.
    fn count(&mut self, frame: &CapturedFrame) {
        let origin = *self.origin.get_or_insert(frame.t_end);
        if frame.t_end.saturating_sub(origin) < self.train_duration {
            self.train_frames += 1;
        } else {
            self.validation_frames += 1;
        }
    }

    /// Folds a batch of engine events into the decisions: each event's
    /// [`ParameterDecision`](wifiprint_core::ParameterDecision) list
    /// carries one entry per parameter the candidate qualified for,
    /// flagged with per-parameter enrollment, and a fused score exists
    /// exactly for the candidates the fused test is defined over.
    fn absorb(&mut self, events: &[MultiEvent]) {
        for event in events {
            let (device, scores) = match event {
                MultiEvent::FusedMatch { device, scores, fused, .. } => {
                    if let Some(fused) = fused {
                        let set = MatchSet::from_similarities(*device, fused.similarities());
                        self.fused.sets.push(set);
                    }
                    (device, scores)
                }
                MultiEvent::FusedNewDevice { device, scores, .. } => {
                    self.fused.unknown += 1;
                    (device, scores)
                }
                MultiEvent::Enrolled { .. } | MultiEvent::WindowClosed { .. } => continue,
            };
            for decision in scores {
                let Some((_, decisions)) =
                    self.parameters.iter_mut().find(|(p, _)| *p == decision.parameter)
                else {
                    continue;
                };
                if decision.known {
                    decisions
                        .sets
                        .push(MatchSet::from_similarities(*device, decision.view.similarities()));
                } else {
                    decisions.unknown += 1;
                }
            }
        }
    }

    /// Aggregates the decisions into both of the paper's tests, per
    /// parameter and fused. The threshold sweeps are independent, so
    /// they fan out one work unit each.
    fn finish(
        self,
        databases: BTreeMap<NetworkParameter, ReferenceDb>,
        health: EngineHealth,
    ) -> TraceEvaluation {
        let Collector { parameters, fused, train_frames, validation_frames, .. } = self;
        let mut work: Vec<&Decisions> =
            parameters.iter().map(|(_, decisions)| decisions).chain([&fused]).collect();
        let mut results = map_tiles_with_scratch(
            &mut work,
            1,
            &mut Vec::<()>::new(),
            |(), chunk| {
                chunk.iter().map(|d| EvalOutcome::from_match_sets(&d.sets, d.unknown)).collect()
            },
        );
        let fused = results.pop().expect("the fused test is the last work unit");
        let outcomes = parameters.iter().map(|&(p, _)| p).zip(results).collect();
        // The paper tabulates the inter-arrival count; fall back to the
        // largest database when inter-arrival enrolled nobody.
        let ref_devices = match databases.get(&NetworkParameter::InterArrivalTime) {
            Some(db) if !db.is_empty() => db.len(),
            _ => databases.values().map(ReferenceDb::len).max().unwrap_or(0),
        };
        TraceEvaluation {
            outcomes,
            fused,
            databases,
            ref_devices,
            train_frames,
            validation_frames,
            health,
        }
    }
}

/// Streaming evaluator: push every captured frame once (in capture
/// order); one fused [`MultiEngine`] extracts every configured parameter
/// from that single pass, and every detection window is matched the
/// moment it closes.
#[derive(Debug)]
pub struct StreamingEvaluator {
    engine: MultiEngine,
    collector: Collector,
    /// First engine failure, latched so `push` stays usable inside
    /// infallible capture sinks.
    error: Option<EngineError>,
}

impl StreamingEvaluator {
    /// A fresh evaluator for the given pipeline configuration.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when the configuration cannot drive an engine
    /// (zero-length detection window or training prefix, an empty or
    /// repeated parameter list).
    pub fn new(cfg: &PipelineConfig) -> Result<Self, EngineError> {
        Self::with_engine_config(cfg, cfg.multi_config())
    }

    /// An evaluator whose engine runs `engine_config` in place of the
    /// one `cfg` projects (the baseline's broadcast-only filter and
    /// lowered floor).
    pub(crate) fn with_engine_config(
        cfg: &PipelineConfig,
        engine_config: MultiConfig,
    ) -> Result<Self, EngineError> {
        Ok(StreamingEvaluator {
            engine: build_multi_engine(cfg, engine_config)?,
            collector: Collector::new(cfg),
            error: None,
        })
    }

    /// Processes one captured frame. Engine failures (e.g. out-of-order
    /// frames) latch and surface from [`StreamingEvaluator::finish`];
    /// subsequent frames are ignored.
    pub fn push(&mut self, frame: &CapturedFrame) {
        self.collector.count(frame);
        if self.error.is_some() {
            return;
        }
        match self.engine.observe(frame) {
            Ok(events) => self.collector.absorb(&events),
            Err(e) => self.error = Some(e),
        }
    }

    /// Finalises: seals the trailing window and aggregates the
    /// accumulated per-window decisions into both of the paper's tests,
    /// per parameter and fused. The matching work already happened
    /// online, window by window, as frames were pushed.
    ///
    /// # Errors
    ///
    /// The first engine failure encountered during the run.
    pub fn finish(self) -> Result<TraceEvaluation, EngineError> {
        let StreamingEvaluator { mut engine, mut collector, error } = self;
        if let Some(e) = error {
            return Err(e);
        }
        collector.absorb(&engine.finish()?);
        let health = engine.health();
        Ok(collector.finish(engine.into_references(), health))
    }
}

/// Builds the fused engine a [`PipelineConfig`] describes over
/// `engine_config` (shared by the synchronous and supervised paths).
fn build_multi_engine(
    cfg: &PipelineConfig,
    engine_config: MultiConfig,
) -> Result<MultiEngine, EngineError> {
    MultiEngine::builder()
        .spec(FusionSpec::equal_weights(cfg.parameters.iter().copied()))
        .config(engine_config)
        .train_for(cfg.train_duration)
        .resilience(cfg.resilience.clone())
        // The accuracy tests only *count* unknown candidates, so
        // skip the reference sweep for them (the batch pipeline
        // never scored strangers either).
        .score_unknown(false)
        .build()
}

/// Convenience: evaluates an in-memory frame sequence. When
/// [`PipelineConfig::ingest`] is set, the run goes through the
/// supervised ingest front ([`evaluate_frames_supervised`]).
///
/// # Errors
///
/// [`EngineError`] from building or driving the underlying engine.
pub fn evaluate_frames<'a>(
    cfg: &PipelineConfig,
    frames: impl IntoIterator<Item = &'a CapturedFrame>,
) -> Result<TraceEvaluation, EngineError> {
    if cfg.ingest.is_some() {
        return evaluate_frames_supervised(cfg, frames).map(|(eval, _)| eval);
    }
    let mut ev = StreamingEvaluator::new(cfg)?;
    for f in frames {
        ev.push(f);
    }
    ev.finish()
}

/// Evaluates a frame sequence through the supervised ingest front: the
/// fused engine runs on its worker thread behind the bounded ring
/// described by [`PipelineConfig::ingest`] (defaulted when `None`), with
/// back-pressure or shedding, panic isolation and the stall watchdog
/// active. Returns the usual [`TraceEvaluation`] — its `health` is the
/// *merged* ledger, including shed/quarantined/restarted counters —
/// plus the pipeline's [`IngestStats`] (shed rate, queueing latency,
/// watchdog ticks).
///
/// Under `OverloadPolicy::Block` with no chaos knobs armed, the result
/// is identical to the synchronous [`evaluate_frames`] run — the
/// pipeline's event stream is bit-identical to `observe` (proven by
/// property test in the core crate).
///
/// # Errors
///
/// [`EngineError`] from building the engine, spawning the supervisor,
/// or a supervision failure outside panic isolation.
pub fn evaluate_frames_supervised<'a>(
    cfg: &PipelineConfig,
    frames: impl IntoIterator<Item = &'a CapturedFrame>,
) -> Result<(TraceEvaluation, IngestStats), EngineError> {
    let ingest = cfg.ingest.unwrap_or_default();
    let pipeline = IngestPipeline::spawn(build_multi_engine(cfg, cfg.multi_config())?, ingest)?;
    let mut collector = Collector::new(cfg);
    for f in frames {
        collector.count(f);
        pipeline.submit(f)?;
    }
    let report = pipeline.finish()?;
    collector.absorb(&report.events);
    let eval = collector.finish(report.engine.into_references(), report.health);
    Ok((eval, report.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_ieee80211::{Frame, MacAddr, Rate};

    /// Builds a synthetic trace of `n_dev` devices with very distinct
    /// inter-arrival signatures (device i sends every (300 + 120·i) µs).
    fn synthetic_trace(n_dev: u64, total_us: u64) -> Vec<CapturedFrame> {
        let ap = MacAddr::from_index(999);
        let mut frames = Vec::new();
        for dev in 0..n_dev {
            let addr = MacAddr::from_index(dev + 1);
            let period = 300 + 120 * dev;
            let mut t = 100 + dev * 17;
            while t < total_us {
                let f = Frame::data_to_ds(addr, ap, ap, 200 + dev as usize * 90);
                frames.push(CapturedFrame::from_frame(
                    &f,
                    Rate::R54M,
                    Nanos::from_micros(t),
                    -50,
                ));
                t += period;
            }
        }
        frames.sort_by_key(|f| f.t_end);
        frames
    }

    #[test]
    fn pipeline_separates_well_separated_devices() {
        // 4 devices over 40 simulated seconds; train on 10 s, 5 s windows.
        let cfg = PipelineConfig {
            train_duration: Nanos::from_secs(10),
            window: Nanos::from_secs(5),
            min_observations: 30,
            parameters: vec![
                NetworkParameter::InterArrivalTime,
                NetworkParameter::FrameSize,
            ],
            match_config: MatchConfig::default(),
            resilience: ResilienceConfig::default(),
            ingest: None,
        };
        let frames = synthetic_trace(4, 40_000_000);
        let eval = evaluate_frames(&cfg, &frames).expect("pipeline run");
        assert_eq!(eval.ref_devices, 4);
        assert!(eval.train_frames > 0 && eval.validation_frames > 0);
        let auc_ia = eval.auc(NetworkParameter::InterArrivalTime);
        assert!(auc_ia > 0.95, "inter-arrival AUC = {auc_ia}");
        let auc_fs = eval.auc(NetworkParameter::FrameSize);
        assert!(auc_fs > 0.95, "frame-size AUC = {auc_fs}");
        // Identification is near-perfect for these caricature devices.
        assert!(eval.identification(NetworkParameter::InterArrivalTime, 0.1) > 0.9);
    }

    #[test]
    fn pipeline_counts_candidates_per_window() {
        let cfg = PipelineConfig {
            train_duration: Nanos::from_secs(10),
            window: Nanos::from_secs(5),
            min_observations: 10,
            parameters: vec![NetworkParameter::InterArrivalTime],
            match_config: MatchConfig::default(),
            resilience: ResilienceConfig::default(),
            ingest: None,
        };
        let frames = synthetic_trace(3, 40_000_000);
        let eval = evaluate_frames(&cfg, &frames).expect("pipeline run");
        // 30 s of validation in 5 s windows → 6 windows × 3 devices.
        let n = eval.outcomes[&NetworkParameter::InterArrivalTime].instances;
        assert!((15..=18).contains(&n), "candidates = {n}");
    }

    #[test]
    fn indistinct_devices_score_poorly_on_identification() {
        // Two devices with IDENTICAL behaviour: matching cannot do better
        // than chance on identification.
        let ap = MacAddr::from_index(999);
        let mut frames = Vec::new();
        for dev in 0..2u64 {
            let addr = MacAddr::from_index(dev + 1);
            let mut t = 100 + dev * 250; // interleaved, same 500 µs period
            while t < 30_000_000 {
                let f = Frame::data_to_ds(addr, ap, ap, 300);
                frames.push(CapturedFrame::from_frame(
                    &f,
                    Rate::R54M,
                    Nanos::from_micros(t),
                    -50,
                ));
                t += 500;
            }
        }
        frames.sort_by_key(|f| f.t_end);
        let cfg = PipelineConfig {
            train_duration: Nanos::from_secs(10),
            window: Nanos::from_secs(5),
            min_observations: 30,
            parameters: vec![NetworkParameter::InterArrivalTime],
            match_config: MatchConfig::default(),
            resilience: ResilienceConfig::default(),
            ingest: None,
        };
        let eval = evaluate_frames(&cfg, &frames).expect("pipeline run");
        // Identification at a strict FPR cannot be high for clones: with
        // two identical devices the argmax is a coin flip.
        let ident = eval.identification(NetworkParameter::InterArrivalTime, 0.01);
        assert!(ident < 0.75, "clone identification = {ident}");
    }

    /// Devices distinguishable only by combining parameters: pairs share
    /// inter-arrival periods, other pairs share sizes.
    fn complementary_trace() -> Vec<CapturedFrame> {
        let ap = MacAddr::from_index(99);
        let mut frames = Vec::new();
        // (period µs, payload) — no single column is unique, the pair is.
        let spec = [(400u64, 200usize), (400, 600), (700, 200), (700, 600)];
        for (dev, &(period, payload)) in spec.iter().enumerate() {
            let addr = MacAddr::from_index(dev as u64 + 1);
            let mut t = 1000 + dev as u64 * 53;
            while t < 40_000_000 {
                let f = Frame::data_to_ds(addr, ap, ap, payload);
                frames.push(CapturedFrame::from_frame(
                    &f,
                    Rate::R54M,
                    Nanos::from_micros(t),
                    -50,
                ));
                t += period;
            }
        }
        frames.sort_by_key(|f| f.t_end);
        frames
    }

    /// A miniature pipeline over `parameters`.
    fn miniature_over(parameters: &[NetworkParameter]) -> PipelineConfig {
        PipelineConfig { parameters: parameters.to_vec(), ..PipelineConfig::miniature(10, 5, 30) }
    }

    /// The fused outcome of a miniature pipeline over `parameters`.
    fn fused(parameters: &[NetworkParameter], frames: &[CapturedFrame]) -> EvalOutcome {
        evaluate_frames(&miniature_over(parameters), frames).expect("pipeline run").fused
    }

    #[test]
    fn fusion_beats_single_parameters_on_complementary_devices() {
        let frames = complementary_trace();
        let single_ia = fused(&[NetworkParameter::InterArrivalTime], &frames);
        let single_fs = fused(&[NetworkParameter::FrameSize], &frames);
        let fused =
            fused(&[NetworkParameter::InterArrivalTime, NetworkParameter::FrameSize], &frames);
        let ident = |o: &EvalOutcome| o.identification_at_fpr(0.1);
        // Frame size alone confuses the size-clone pairs; the fusion must
        // rescue it, and must not fall below its strongest member.
        assert!(
            ident(&fused) > ident(&single_fs),
            "fusion {:.2} did not rescue frame size {:.2}",
            ident(&fused),
            ident(&single_fs)
        );
        assert!(
            ident(&fused) + 0.05 >= ident(&single_ia),
            "fusion {:.2} fell below inter-arrival {:.2}",
            ident(&fused),
            ident(&single_ia)
        );
        assert!(fused.auc() > 0.95, "fused auc = {}", fused.auc());
        assert!(ident(&fused) > 0.9, "fused ident = {}", ident(&fused));
    }

    #[test]
    fn fusion_requires_all_parameters_enrolled() {
        let outcome = fused(&NetworkParameter::ALL, &complementary_trace());
        // The synthetic trace has no rate variation or medium-access
        // structure, but every candidate still passes the floor for all
        // five parameters (same observations, different projections).
        assert!(outcome.instances > 0);
        assert!((0.0..=1.0).contains(&outcome.auc()));
    }

    #[test]
    fn degenerate_specs_are_rejected_up_front() {
        assert!(StreamingEvaluator::new(&miniature_over(&[])).is_err());
        let dup = [NetworkParameter::FrameSize, NetworkParameter::FrameSize];
        assert!(StreamingEvaluator::new(&miniature_over(&dup)).is_err());
    }

    #[test]
    fn a_one_parameter_fusion_is_that_parameter() {
        let frames = complementary_trace();
        for p in NetworkParameter::ALL {
            let eval = evaluate_frames(&miniature_over(&[p]), &frames).expect("pipeline run");
            assert!(eval.fused.instances > 0, "{p:?}: no fused instances");
            assert_eq!(format!("{:?}", eval.fused), format!("{:?}", eval.outcomes[&p]), "{p:?}");
        }
    }
}
