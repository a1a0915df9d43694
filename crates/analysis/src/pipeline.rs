//! The end-to-end evaluation pipeline of §V: split a trace into training
//! and validation portions, learn a reference database, build per-window
//! candidate signatures, and score both tests for every network parameter
//! in one streaming pass.
//!
//! Since the fused [`MultiEngine`] became the production API, this
//! pipeline is a thin driver of **one** engine: a single fused header
//! parse per frame feeds all configured parameters (trained online for
//! the configured prefix), one shared window clock closes their
//! detection windows together, and the per-parameter decisions carried
//! by each [`MultiEvent::FusedMatch`] / [`MultiEvent::FusedNewDevice`]
//! are accumulated into [`MatchSet`]s and aggregated into the paper's
//! two accuracy tests at the end. The matching itself — the tiled column
//! sweep — happens *incrementally* as each detection window closes,
//! not in an end-of-trace sweep. (The previous design ran five
//! single-parameter engines side by side, one worker thread each; the
//! fused parse made that fan-out redundant — extraction and history
//! bookkeeping now happen once per frame instead of five times.)

use std::collections::BTreeMap;

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
    /// The parameters to evaluate (all five by default).
    pub parameters: Vec<NetworkParameter>,
    /// Shard layout of the per-parameter reference databases the
    /// training prefix builds (dominant-histogram sharding by default;
    /// see [`MatchConfig`]).
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

/// Everything measured for one trace: per-parameter outcomes plus the
/// Table I-style features.
#[derive(Debug)]
pub struct TraceEvaluation {
    /// Per-parameter test outcomes.
    pub outcomes: BTreeMap<NetworkParameter, EvalOutcome>,
    /// Reference databases (kept for follow-up matching, e.g. examples).
    pub databases: BTreeMap<NetworkParameter, ReferenceDb>,
    /// Number of reference devices (per parameter they can differ
    /// slightly; this is the inter-arrival count the paper tabulates).
    pub ref_devices: usize,
    /// Candidate instances evaluated per parameter.
    pub candidate_instances: BTreeMap<NetworkParameter, usize>,
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
}

/// Per-parameter accumulator of the engine's window decisions.
#[derive(Debug, Default)]
struct ParamCollector {
    sets: Vec<MatchSet>,
    unknown: usize,
}

/// Streaming evaluator: push every captured frame once (in capture
/// order); one fused [`MultiEngine`] extracts every configured parameter
/// from that single pass, and every detection window is matched the
/// moment it closes.
#[derive(Debug)]
pub struct StreamingEvaluator {
    engine: MultiEngine,
    /// One collector per configured parameter, engine spec order.
    collectors: Vec<(NetworkParameter, ParamCollector)>,
    /// First engine failure, latched so `push` stays usable inside
    /// infallible capture sinks.
    error: Option<EngineError>,
    origin: Option<Nanos>,
    train_duration: Nanos,
    train_frames: u64,
    validation_frames: u64,
}

impl StreamingEvaluator {
    /// A fresh evaluator for the given pipeline configuration.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when the configuration cannot drive an engine
    /// (zero-length detection window or training prefix, a repeated
    /// parameter).
    pub fn new(cfg: &PipelineConfig) -> Result<Self, EngineError> {
        let engine = build_multi_engine(cfg)?;
        Ok(StreamingEvaluator {
            engine,
            collectors: cfg
                .parameters
                .iter()
                .map(|&p| (p, ParamCollector::default()))
                .collect(),
            error: None,
            origin: None,
            train_duration: cfg.train_duration,
            train_frames: 0,
            validation_frames: 0,
        })
    }

    /// Processes one captured frame. Engine failures (e.g. out-of-order
    /// frames) latch and surface from [`StreamingEvaluator::finish`];
    /// subsequent frames are ignored.
    pub fn push(&mut self, frame: &CapturedFrame) {
        let origin = *self.origin.get_or_insert(frame.t_end);
        if frame.t_end.saturating_sub(origin) < self.train_duration {
            self.train_frames += 1;
        } else {
            self.validation_frames += 1;
        }
        if self.error.is_some() {
            return;
        }
        match self.engine.observe(frame) {
            Ok(events) => absorb(&mut self.collectors, &events),
            Err(e) => self.error = Some(e),
        }
    }

    /// Finalises: seals the trailing window and aggregates the
    /// accumulated per-window decisions into both of the paper's tests
    /// per parameter. The matching work already happened online, window
    /// by window, as frames were pushed.
    ///
    /// # Errors
    ///
    /// The first engine failure encountered during the run.
    pub fn finish(self) -> Result<TraceEvaluation, EngineError> {
        let StreamingEvaluator {
            mut engine,
            mut collectors,
            error,
            train_frames,
            validation_frames,
            ..
        } = self;
        if let Some(e) = error {
            return Err(e);
        }
        let events = engine.finish()?;
        absorb(&mut collectors, &events);
        let health = engine.health();
        let databases = engine.into_references();
        Ok(finalize(collectors, databases, health, train_frames, validation_frames))
    }
}

/// Builds the fused engine a [`PipelineConfig`] describes (shared by the
/// synchronous and supervised paths).
fn build_multi_engine(cfg: &PipelineConfig) -> Result<MultiEngine, EngineError> {
    MultiEngine::builder()
        .spec(FusionSpec::equal_weights(cfg.parameters.iter().copied()))
        .config(cfg.multi_config())
        .train_for(cfg.train_duration)
        .resilience(cfg.resilience.clone())
        // The accuracy tests only *count* unknown candidates, so
        // skip the reference sweep for them (the batch pipeline
        // never scored strangers either).
        .score_unknown(false)
        .build()
}

/// Aggregates the accumulated per-window decisions into the paper's two
/// tests per parameter and assembles the [`TraceEvaluation`].
fn finalize(
    collectors: Vec<(NetworkParameter, ParamCollector)>,
    mut databases: BTreeMap<NetworkParameter, ReferenceDb>,
    health: EngineHealth,
    train_frames: u64,
    validation_frames: u64,
) -> TraceEvaluation {
    let work: Vec<(NetworkParameter, ReferenceDb, ParamCollector)> = collectors
        .into_iter()
        .map(|(param, collector)| {
            let db = databases.remove(&param).unwrap_or_default();
            (param, db, collector)
        })
        .collect();
    let results = aggregate_parameters(work);

    let mut outcomes = BTreeMap::new();
    let mut databases = BTreeMap::new();
    let mut candidate_instances = BTreeMap::new();
    let mut ref_devices = 0usize;
    for (param, db, outcome) in results {
        if param == NetworkParameter::InterArrivalTime {
            ref_devices = db.len();
        }
        candidate_instances.insert(param, outcome.instances);
        outcomes.insert(param, outcome);
        databases.insert(param, db);
    }
    // Fallback if inter-arrival was not evaluated.
    if ref_devices == 0 {
        ref_devices = databases.values().map(ReferenceDb::len).max().unwrap_or(0);
    }
    TraceEvaluation {
        outcomes,
        databases,
        ref_devices,
        candidate_instances,
        train_frames,
        validation_frames,
        health,
    }
}

/// Folds a batch of fused events into the per-parameter collectors: each
/// event's [`ParameterDecision`](wifiprint_core::ParameterDecision) list
/// carries one entry per parameter the candidate qualified for, flagged
/// with per-parameter enrollment — exactly the Match/NewDevice split the
/// five single engines used to report.
fn absorb(collectors: &mut [(NetworkParameter, ParamCollector)], events: &[MultiEvent]) {
    for event in events {
        let (device, scores) = match event {
            MultiEvent::FusedMatch { device, scores, .. }
            | MultiEvent::FusedNewDevice { device, scores, .. } => (device, scores),
            MultiEvent::Enrolled { .. } | MultiEvent::WindowClosed { .. } => continue,
        };
        for decision in scores {
            let Some((_, collector)) =
                collectors.iter_mut().find(|(p, _)| *p == decision.parameter)
            else {
                continue;
            };
            if decision.known {
                // Enrolled devices carry ground truth; the accuracy
                // tests are defined over them.
                collector
                    .sets
                    .push(MatchSet::from_similarities(*device, decision.view.similarities()));
            } else {
                collector.unknown += 1;
            }
        }
    }
}

/// Aggregates each parameter's accumulated match sets into an
/// [`EvalOutcome`] (threshold sweeps over every decision), in parallel
/// when the feature allows it. Results keep the input order.
fn aggregate_parameters(
    work: Vec<(NetworkParameter, ReferenceDb, ParamCollector)>,
) -> Vec<(NetworkParameter, ReferenceDb, EvalOutcome)> {
    let run = |(param, db, collector): (NetworkParameter, ReferenceDb, ParamCollector)| {
        let outcome = EvalOutcome::from_match_sets(&collector.sets, collector.unknown);
        (param, db, outcome)
    };
    #[cfg(feature = "parallel")]
    if work.len() > 1 {
        return std::thread::scope(|scope| {
            let handles: Vec<_> =
                work.into_iter().map(|item| scope.spawn(move || run(item))).collect();
            handles.into_iter().map(|h| h.join().expect("parameter worker panicked")).collect()
        });
    }
    work.into_iter().map(run).collect()
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
    let pipeline = IngestPipeline::spawn(build_multi_engine(cfg)?, ingest)?;
    let mut origin: Option<Nanos> = None;
    let mut train_frames = 0u64;
    let mut validation_frames = 0u64;
    for f in frames {
        let o = *origin.get_or_insert(f.t_end);
        if f.t_end.saturating_sub(o) < cfg.train_duration {
            train_frames += 1;
        } else {
            validation_frames += 1;
        }
        pipeline.submit(f)?;
    }
    let report = pipeline.finish()?;
    let mut collectors: Vec<(NetworkParameter, ParamCollector)> =
        cfg.parameters.iter().map(|&p| (p, ParamCollector::default())).collect();
    absorb(&mut collectors, &report.events);
    let stats = report.stats;
    let health = report.health;
    let databases = report.engine.into_references();
    Ok((finalize(collectors, databases, health, train_frames, validation_frames), stats))
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
        let n = eval.candidate_instances[&NetworkParameter::InterArrivalTime];
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
}
