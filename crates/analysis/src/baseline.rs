//! The Pang-et-al-style baseline (§V-B2 of the paper).
//!
//! Pang et al. (`MobiCom` 2007) identify users from *implicit identifiers*;
//! of their four features, **broadcast frame sizes** is the one that
//! survives encryption and maps onto our observables. The baseline
//! fingerprints a device solely from the size distribution of its
//! group-addressed data frames — no per-frame-type weighting, no timing —
//! and runs through the same detection methodology, so the comparison in
//! the paper's §V-B2 ("we achieve comparable results") can be regenerated.

use wifiprint_core::{
    evaluate, EvalConfig, EvalOutcome, FrameFilter, NetworkParameter, ReferenceDb,
    SignatureBuilder, WindowedSignatures,
};
use wifiprint_ieee80211::Nanos;
use wifiprint_radiotap::CapturedFrame;

use crate::pipeline::PipelineConfig;

/// The baseline's evaluation configuration: frame sizes over
/// group-addressed frames only.
pub fn baseline_config(pipeline: &PipelineConfig) -> EvalConfig {
    let mut cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize)
        .with_filter(FrameFilter { broadcast_only: true, ..FrameFilter::default() })
        // Broadcast traffic is sparse; Pang et al. fingerprint with far
        // fewer samples than the paper's 50-frame floor.
        .with_min_observations(pipeline.min_observations.min(10));
    cfg.window = pipeline.window;
    cfg
}

/// Streaming evaluator for the baseline.
#[derive(Debug)]
pub struct BaselineEvaluator {
    train_duration: Nanos,
    origin: Option<Nanos>,
    trainer: SignatureBuilder,
    validator: WindowedSignatures,
}

impl BaselineEvaluator {
    /// A fresh baseline evaluator aligned with `pipeline`'s split.
    pub fn new(pipeline: &PipelineConfig) -> Self {
        let cfg = baseline_config(pipeline);
        BaselineEvaluator {
            train_duration: pipeline.train_duration,
            origin: None,
            trainer: SignatureBuilder::new(&cfg),
            validator: WindowedSignatures::new(&cfg),
        }
    }

    /// Processes one captured frame.
    pub fn push(&mut self, frame: &CapturedFrame) {
        let origin = *self.origin.get_or_insert(frame.t_end);
        if frame.t_end.saturating_sub(origin) < self.train_duration {
            self.trainer.push(frame);
        } else {
            self.validator.push(frame);
        }
    }

    /// Finalises the baseline evaluation. An empty learning phase (no
    /// device reached the observation floor on broadcast traffic alone)
    /// degrades to the all-unknown outcome rather than erroring: the
    /// baseline is a *comparison* curve, not a production entry point.
    ///
    /// # Panics
    ///
    /// Never in practice: the only `expect` guards the non-empty
    /// database branch it sits in.
    pub fn finish(self) -> (EvalOutcome, ReferenceDb) {
        let db = ReferenceDb::from_signatures(self.trainer.finish().unwrap_or_default());
        let candidates = self.validator.finish();
        let outcome = if db.is_empty() {
            EvalOutcome::from_match_sets(&[], candidates.len())
        } else {
            evaluate(&db, &candidates).expect("non-empty database")
        };
        (outcome, db)
    }
}

/// Convenience: runs the baseline over an in-memory frame sequence.
pub fn evaluate_baseline<'a>(
    pipeline: &PipelineConfig,
    frames: impl IntoIterator<Item = &'a CapturedFrame>,
) -> (EvalOutcome, ReferenceDb) {
    let mut ev = BaselineEvaluator::new(pipeline);
    for f in frames {
        ev.push(f);
    }
    ev.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_ieee80211::{Frame, MacAddr, Rate};

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

    #[test]
    fn baseline_separates_devices_by_broadcast_sizes() {
        let pipeline = PipelineConfig::miniature(10, 5, 5);
        let (outcome, db) = evaluate_baseline(&pipeline, &trace());
        assert_eq!(db.len(), 2);
        assert!(outcome.instances > 0);
        assert!(outcome.auc() > 0.9, "baseline auc = {}", outcome.auc());
    }

    #[test]
    fn baseline_ignores_unicast_frames() {
        let pipeline = PipelineConfig::miniature(10, 5, 5);
        let cfg = baseline_config(&pipeline);
        let mut builder = SignatureBuilder::new(&cfg);
        for f in trace() {
            builder.push(&f);
        }
        let sigs = builder.finish().expect("broadcast devices qualify");
        // Only the broadcast frames contribute: every recorded size is a
        // broadcast size (128 + overheads or 428 + overheads), never 700+.
        for sig in sigs.values() {
            for (_, hist) in sig.iter() {
                for (center, freq) in hist.points() {
                    if freq > 0.0 {
                        assert!(center < 600.0, "unicast size leaked: {center}");
                    }
                }
            }
        }
    }
}
