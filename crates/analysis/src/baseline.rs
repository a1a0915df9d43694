//! The Pang-et-al-style baseline (§V-B2 of the paper).
//!
//! Pang et al. (`MobiCom` 2007) identify users from *implicit identifiers*;
//! of their four features, **broadcast frame sizes** is the one that
//! survives encryption and maps onto our observables. The baseline
//! fingerprints a device solely from the size distribution of its
//! group-addressed data frames — no per-frame-type weighting, no timing —
//! and runs through the same detection methodology, so the comparison in
//! the paper's §V-B2 ("we achieve comparable results") can be regenerated.
//! It is the pipeline's own evaluator over a one-parameter engine: frame
//! size, a broadcast-only frame filter and a lowered observation floor.

use wifiprint_core::{EngineError, EvalOutcome, FrameFilter, NetworkParameter, ReferenceDb};
use wifiprint_radiotap::CapturedFrame;

use crate::pipeline::{PipelineConfig, StreamingEvaluator};

/// Streaming evaluator for the baseline.
#[derive(Debug)]
pub struct BaselineEvaluator(StreamingEvaluator);

impl BaselineEvaluator {
    /// A fresh baseline evaluator aligned with `pipeline`'s split,
    /// window, row precision and ingest hardening.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when `pipeline` cannot drive an engine
    /// (zero-length detection window or training prefix).
    pub fn new(pipeline: &PipelineConfig) -> Result<Self, EngineError> {
        let cfg = PipelineConfig {
            // Broadcast traffic is sparse; Pang et al. fingerprint with
            // far fewer samples than the paper's 50-frame floor.
            min_observations: pipeline.min_observations.min(10),
            parameters: vec![NetworkParameter::FrameSize],
            ..pipeline.clone()
        };
        let engine_config = cfg
            .multi_config()
            .with_filter(FrameFilter { broadcast_only: true, ..FrameFilter::default() });
        StreamingEvaluator::with_engine_config(&cfg, engine_config).map(BaselineEvaluator)
    }

    /// Processes one captured frame. Engine failures latch and surface
    /// from [`BaselineEvaluator::finish`].
    pub fn push(&mut self, frame: &CapturedFrame) {
        self.0.push(frame);
    }

    /// Finalises the baseline evaluation into its outcome and reference
    /// database. An empty learning phase (no device reached the
    /// observation floor on broadcast traffic alone) yields the
    /// all-unknown outcome: the engine keeps running on the empty
    /// database and counts every candidate as new.
    ///
    /// # Errors
    ///
    /// The first engine failure encountered during the run.
    ///
    /// # Panics
    ///
    /// Never in practice: the engine evaluates frame size, so its
    /// outcome and database are always present.
    pub fn finish(self) -> Result<(EvalOutcome, ReferenceDb), EngineError> {
        let mut eval = self.0.finish()?;
        let size = NetworkParameter::FrameSize;
        let outcome = eval.outcomes.remove(&size).expect("the baseline evaluates frame size");
        let db = eval.databases.remove(&size).expect("the baseline evaluates frame size");
        Ok((outcome, db))
    }
}

/// Convenience: runs the baseline over an in-memory frame sequence.
///
/// # Errors
///
/// [`EngineError`] from building or driving the underlying engine.
pub fn evaluate_baseline<'a>(
    pipeline: &PipelineConfig,
    frames: impl IntoIterator<Item = &'a CapturedFrame>,
) -> Result<(EvalOutcome, ReferenceDb), EngineError> {
    let mut ev = BaselineEvaluator::new(pipeline)?;
    for f in frames {
        ev.push(f);
    }
    ev.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_core::{evaluate, EvalConfig, SignatureBuilder, WindowedSignatures};
    use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
    use wifiprint_scenarios::{ConferenceScenario, OfficeScenario};

    /// Two devices whose *broadcast* frame sizes differ; plus identical
    /// unicast chatter that the baseline must ignore.
    fn trace() -> Vec<CapturedFrame> {
        let ap = MacAddr::from_index(99);
        let mut frames = Vec::new();
        for dev in 0..2u64 {
            let addr = MacAddr::from_index(dev + 1);
            let mut t = 1000 + dev * 137;
            while t < 30_000_000 {
                // Broadcast service frame with a device-specific size.
                let f =
                    Frame::data_to_ds(addr, ap, MacAddr::BROADCAST, 100 + 300 * dev as usize);
                frames.push(CapturedFrame::from_frame(
                    &f,
                    Rate::R11M,
                    Nanos::from_micros(t),
                    -55,
                ));
                // Unicast frame with an identical size on both devices.
                let u = Frame::data_to_ds(addr, ap, ap, 700);
                frames.push(CapturedFrame::from_frame(
                    &u,
                    Rate::R11M,
                    Nanos::from_micros(t + 400),
                    -55,
                ));
                t += 100_000;
            }
        }
        frames.sort_by_key(|f| f.t_end);
        frames
    }

    /// The batch recipe the baseline ran on before it moved onto the
    /// engine: a `SignatureBuilder` over the training prefix,
    /// `WindowedSignatures` over the rest, and `evaluate` against the
    /// learned database — the all-unknown outcome when it is empty.
    fn batch_baseline(pipeline: &PipelineConfig, frames: &[CapturedFrame]) -> EvalOutcome {
        let mut cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize)
            .with_filter(FrameFilter { broadcast_only: true, ..FrameFilter::default() })
            .with_min_observations(pipeline.min_observations.min(10));
        cfg.window = pipeline.window;
        let mut trainer = SignatureBuilder::new(&cfg);
        let mut validator = WindowedSignatures::new(&cfg);
        let origin = frames[0].t_end;
        for f in frames {
            if f.t_end.saturating_sub(origin) < pipeline.train_duration {
                trainer.push(f);
            } else {
                validator.push(f);
            }
        }
        let db = ReferenceDb::from_signatures(trainer.finish().unwrap_or_default());
        let candidates = validator.finish();
        if db.is_empty() {
            EvalOutcome::from_match_sets(&[], candidates.len())
        } else {
            evaluate(&db, &candidates).expect("non-empty database")
        }
    }

    #[test]
    fn baseline_separates_devices_by_broadcast_sizes() {
        let pipeline = PipelineConfig::miniature(10, 5, 5);
        let (outcome, db) = evaluate_baseline(&pipeline, &trace()).expect("baseline run");
        assert_eq!(db.len(), 2);
        assert!(outcome.instances > 0);
        assert!(outcome.auc() > 0.9, "baseline auc = {}", outcome.auc());
    }

    #[test]
    fn baseline_ignores_unicast_frames() {
        let pipeline = PipelineConfig::miniature(10, 5, 5);
        let (_, db) = evaluate_baseline(&pipeline, &trace()).expect("baseline run");
        assert!(!db.is_empty(), "broadcast devices qualify");
        // Only the broadcast frames contribute: every recorded size is a
        // broadcast size (128 + overheads or 428 + overheads), never 700+.
        for (_, sig) in db.iter() {
            for (_, hist) in sig.iter() {
                for (center, freq) in hist.points() {
                    if freq > 0.0 {
                        assert!(center < 600.0, "unicast size leaked: {center}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_engine_baseline_matches_the_batch_recipe() {
        let pipeline = PipelineConfig::miniature(60, 20, 5);
        let traces = [
            ("office", OfficeScenario::small(42, 240, 16).run_collect().frames),
            ("conference", ConferenceScenario::small(7, 240, 24).run_collect().frames),
        ];
        for (name, frames) in &traces {
            let (engine, _) = evaluate_baseline(&pipeline, frames).expect("baseline run");
            let batch = batch_baseline(&pipeline, frames);
            assert!(engine.instances > 0, "{name}: no candidate instances");
            assert_eq!(format!("{engine:?}"), format!("{batch:?}"), "{name}: engine vs batch");
        }
    }
}
