//! The four evaluation traces (Table I) and their pipeline runs.

use wifiprint_analysis::{PipelineConfig, StreamingEvaluator, TraceEvaluation};
use wifiprint_core::EvalOutcome;
use wifiprint_ieee80211::Nanos;
use wifiprint_scenarios::{ConferenceScenario, OfficeScenario, TraceReport};

/// Which of the paper's four traces to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Conference 1: the full 7-hour open-network capture.
    Conference1,
    /// Conference 2: its first hour.
    Conference2,
    /// Office 1: 7 hours, WPA.
    Office1,
    /// Office 2: 1 hour, WPA.
    Office2,
}

impl TraceKind {
    /// All four traces in the paper's column order.
    pub const ALL: [TraceKind; 4] =
        [TraceKind::Conference1, TraceKind::Conference2, TraceKind::Office1, TraceKind::Office2];

    /// The paper's name for this trace.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Conference1 => "Conf. 1",
            TraceKind::Conference2 => "Conf. 2",
            TraceKind::Office1 => "Office 1",
            TraceKind::Office2 => "Office 2",
        }
    }

    /// `true` for the 7-hour traces.
    pub fn is_long(self) -> bool {
        matches!(self, TraceKind::Conference1 | TraceKind::Office1)
    }

    /// The paper's Table I descriptions (total, reference, candidate
    /// durations and encryption).
    pub fn descriptions(self, quick: bool) -> (&'static str, &'static str, &'static str, &'static str) {
        match (self, quick) {
            (TraceKind::Conference1, false) => ("7 hours", "1 hour", "6 hours", "None"),
            (TraceKind::Conference1, true) => ("2 hours", "1 hour", "1 hour", "None"),
            (TraceKind::Conference2, _) => ("1 hour", "20 min", "40 min", "None"),
            (TraceKind::Office1, false) => ("7 hours", "1 hour", "6 hours", "WPA"),
            (TraceKind::Office1, true) => ("2 hours", "1 hour", "1 hour", "WPA"),
            (TraceKind::Office2, _) => ("1 hour", "20 min", "40 min", "WPA"),
        }
    }

    /// The pipeline configuration (training split) for this trace.
    pub fn pipeline(self) -> PipelineConfig {
        if self.is_long() {
            PipelineConfig::long_trace()
        } else {
            PipelineConfig::short_trace()
        }
    }
}

/// One evaluated trace: its pipeline results plus the simulator report.
#[derive(Debug)]
pub struct TraceRun {
    /// Which trace this is.
    pub kind: TraceKind,
    /// Pipeline outcomes per parameter.
    pub eval: TraceEvaluation,
    /// The Pang-style baseline outcome (broadcast frame sizes).
    pub baseline: EvalOutcome,
    /// Simulation report (stats, ground truth).
    pub report: TraceReport,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
}

/// Regenerates one trace and evaluates the full pipeline on it.
///
/// With `quick`, the 7-hour traces are shortened to 2 hours (the 1-hour
/// traces are already quick); the qualitative shape is preserved while the
/// whole reproduction stays under a minute.
pub fn evaluate_scenario(kind: TraceKind, quick: bool, seed: u64) -> TraceRun {
    let start = std::time::Instant::now();
    let cfg = kind.pipeline();
    let mut ev = StreamingEvaluator::new(&cfg).expect("valid pipeline configuration");
    let mut baseline = wifiprint_analysis::baseline::BaselineEvaluator::new(&cfg)
        .expect("valid baseline configuration");
    let mut sink = |f: &wifiprint_radiotap::CapturedFrame| {
        ev.push(f);
        baseline.push(f);
    };
    let report = match kind {
        TraceKind::Conference1 => {
            let mut sc = ConferenceScenario::conference1(seed);
            if quick {
                sc.duration = Nanos::from_secs(2 * 3600);
                sc.devices = 200;
            }
            sc.run_streaming(&mut sink)
        }
        TraceKind::Conference2 => ConferenceScenario::conference2(seed).run_streaming(&mut sink),
        TraceKind::Office1 => {
            let mut sc = OfficeScenario::office1(seed);
            if quick {
                sc.duration = Nanos::from_secs(2 * 3600);
            }
            sc.run_streaming(&mut sink)
        }
        TraceKind::Office2 => OfficeScenario::office2(seed).run_streaming(&mut sink),
    };
    let (baseline_outcome, _db) = baseline.finish().expect("engine run");
    TraceRun {
        kind,
        eval: ev.finish().expect("engine run"),
        baseline: baseline_outcome,
        report,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_kinds_cover_table_one() {
        assert_eq!(TraceKind::ALL.len(), 4);
        for k in TraceKind::ALL {
            assert!(!k.name().is_empty());
            let (_total, reference, _cand, enc) = k.descriptions(false);
            match k {
                TraceKind::Office1 | TraceKind::Office2 => assert_eq!(enc, "WPA"),
                _ => assert_eq!(enc, "None"),
            }
            if k.is_long() {
                assert_eq!(reference, "1 hour");
            } else {
                assert_eq!(reference, "20 min");
            }
        }
    }
}
