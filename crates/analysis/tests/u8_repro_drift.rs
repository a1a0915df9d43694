//! Accuracy drift of the quantized (`u8`) tier on a repro-shaped miniature.
//!
//! `u8_auc_drift` gates the tier on a synthetic trace. This test runs the
//! office and conference `small` scenarios through the same pipeline the
//! paper tables use, once on `f32` references and once on `u8`
//! references, and compares the paper's metrics per parameter: the AUC of
//! the similarity test and the identification ratio at FPR 0.01 and 0.1.
//!
//! The u8 tier's drift on these traces is a known finding, not a
//! tolerance: the row maximum maps to code 127, so every bin below
//! max/254 rounds to zero, and those are the rare sizes identification at
//! a low FPR relies on. `BASELINE` pins each drift as measured when this
//! test was written, so a change may shrink any of them but none may grow.
//! A quantizer that keeps rare bins should bring every identification
//! drift within one point (0.01) and then tighten this table.

use wifiprint_analysis::{evaluate_frames, PipelineConfig};
use wifiprint_core::{EvalOutcome, MatchConfig, NetworkParameter};
use wifiprint_radiotap::CapturedFrame;
use wifiprint_scenarios::{ConferenceScenario, OfficeScenario};

/// The metrics compared, in `BASELINE`'s column order.
const METRICS: [&str; 3] = ["AUC", "identification at FPR 0.01", "identification at FPR 0.1"];

/// `|u8 − f32|` per trace and parameter, rounded up to 1e-6: the drift
/// measured on seed 1, 600 s, 30 devices, 120 s training, 30 s windows
/// and a 20-observation floor.
const BASELINE: [((&str, NetworkParameter), [f64; 3]); 10] = [
    (("office", NetworkParameter::TransmissionRate), [0.000052, 0.008854, 0.000468]),
    (("office", NetworkParameter::FrameSize), [0.000104, 0.008351, 0.002053]),
    (("office", NetworkParameter::MediumAccessTime), [0.000300, 0.000000, 0.004385]),
    (("office", NetworkParameter::TransmissionTime), [0.000064, 0.023000, 0.001323]),
    (("office", NetworkParameter::InterArrivalTime), [0.000914, 0.000000, 0.003410]),
    (("conference", NetworkParameter::TransmissionRate), [0.000393, 0.000000, 0.000000]),
    (("conference", NetworkParameter::FrameSize), [0.000162, 0.019703, 0.059406]),
    (("conference", NetworkParameter::MediumAccessTime), [0.000015, 0.000000, 0.000000]),
    (("conference", NetworkParameter::TransmissionTime), [0.000267, 0.000000, 0.000000]),
    (("conference", NetworkParameter::InterArrivalTime), [0.000386, 0.000000, 0.000000]),
];

fn metrics(outcome: &EvalOutcome) -> [f64; 3] {
    [outcome.auc(), outcome.identification_at_fpr(0.01), outcome.identification_at_fpr(0.1)]
}

#[test]
fn u8_drift_on_the_repro_miniature_does_not_grow() {
    let traces: [(&str, Vec<CapturedFrame>); 2] = [
        ("office", OfficeScenario::small(1, 600, 30).run_collect().frames),
        ("conference", ConferenceScenario::small(1, 600, 30).run_collect().frames),
    ];
    let mut grown = Vec::new();
    for (trace, frames) in &traces {
        let mut cfg = PipelineConfig::miniature(120, 30, 20);
        let f32_eval = evaluate_frames(&cfg, frames).expect("f32 pipeline runs");
        cfg.match_config = MatchConfig::quantized();
        let u8_eval = evaluate_frames(&cfg, frames).expect("u8 pipeline runs");
        for p in NetworkParameter::ALL {
            let (f32_outcome, u8_outcome) = (&f32_eval.outcomes[&p], &u8_eval.outcomes[&p]);
            assert_eq!(f32_outcome.instances, u8_outcome.instances, "{trace} {p:?}");
            assert!(f32_outcome.instances >= 30, "{trace} {p:?}: too few instances");
            let pinned = BASELINE
                .iter()
                .find(|(key, _)| *key == (*trace, p))
                .map(|(_, drifts)| drifts)
                .expect("every trace and parameter is pinned");
            let (f32_values, u8_values) = (metrics(f32_outcome), metrics(u8_outcome));
            for (i, name) in METRICS.iter().enumerate() {
                let drift = (u8_values[i] - f32_values[i]).abs();
                if drift > pinned[i] + 1e-9 {
                    grown.push(format!(
                        "{trace} {p:?} {name}: f32 {:.6}, u8 {:.6}, drift {drift:.6} > {:.6}",
                        f32_values[i], u8_values[i], pinned[i]
                    ));
                }
            }
        }
    }
    assert!(grown.is_empty(), "u8 drift grew past its baseline:\n{}", grown.join("\n"));
}
