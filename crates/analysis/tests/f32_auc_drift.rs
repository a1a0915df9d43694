//! Accuracy-drift gate for the `f32` matching engine.
//!
//! The matching hot path stores reference rows, weights and norms as
//! `f32` (see `wifiprint_core::matching`). This test runs the repro
//! pipeline's scoring on a synthetic multi-device trace twice — once
//! through the packed f32 tiled sweep, once through the all-`f64` naive
//! baseline — and requires the paper's headline accuracy metrics (AUC of
//! the similarity test, identification ratio, per-instance best-match
//! identity) to agree within a tolerance far tighter than any effect the
//! paper reports.

use wifiprint_core::metrics::{identification_points, similarity_curve, MatchSet};
use wifiprint_core::{evaluate, NetworkParameter, ReferenceDb, F32_SCORE_TOLERANCE};
use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

use wifiprint_analysis::PipelineConfig;

/// AUC (an integral of thresholded score comparisons) may amplify the
/// per-score f32 drift where scores tie near a threshold; in practice it
/// stays orders of magnitude below this.
const AUC_TOLERANCE: f64 = 1e-3;

/// A trace of `n_dev` devices with close but distinct inter-arrival
/// periods — deliberately *not* trivially separable, so scores land in
/// the interior of [0, 1] where quantisation could matter.
fn synthetic_trace(n_dev: u64, total_us: u64) -> Vec<CapturedFrame> {
    let ap = MacAddr::from_index(999);
    let mut frames = Vec::new();
    for dev in 0..n_dev {
        let addr = MacAddr::from_index(dev + 1);
        let period = 400 + 35 * dev;
        let mut t = 100 + dev * 13;
        while t < total_us {
            let f = Frame::data_to_ds(addr, ap, ap, 200 + dev as usize * 40);
            frames.push(CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(t), -50));
            // A mild beat so windows differ from the training prefix.
            t += period + (t / 1_000_000) % 7;
        }
    }
    frames.sort_by_key(|f| f.t_end);
    frames
}

#[test]
fn f32_pipeline_metrics_match_f64_baseline() {
    let cfg = PipelineConfig::miniature(10, 5, 20);
    let frames = synthetic_trace(6, 40_000_000);

    // Reconstruct the pipeline's (db, candidates) split for one
    // parameter so both engines score the identical instances.
    let param = NetworkParameter::InterArrivalTime;
    let eval_cfg = {
        let mut c = wifiprint_core::EvalConfig::for_parameter(param)
            .with_min_observations(cfg.min_observations);
        c.window = cfg.window;
        c
    };
    let train_cutoff = frames[0].t_end.saturating_add(cfg.train_duration);
    let mut trainer = wifiprint_core::SignatureBuilder::new(&eval_cfg);
    let mut validator = wifiprint_core::WindowedSignatures::new(&eval_cfg);
    for f in &frames {
        if f.t_end < train_cutoff {
            trainer.push(f);
        } else {
            validator.push(f);
        }
    }
    let db = ReferenceDb::from_signatures(trainer.finish().expect("devices qualify"));
    let candidates = validator.finish();
    assert!(db.len() >= 4, "trace must learn several references");
    assert!(candidates.len() >= 10, "trace must produce many windows");

    // f32 engine: the production path.
    let fast = evaluate(&db, &candidates).expect("non-empty db");

    // f64 baseline: naive per-pair scoring of the same instances.
    let mut baseline_sets: Vec<MatchSet> = Vec::new();
    for cand in &candidates {
        if !db.contains(&cand.device) {
            continue;
        }
        let outcome = db.match_signature_naive(&cand.signature);
        let mut true_sim = 0.0;
        let mut wrong = Vec::new();
        for &(device, sim) in outcome.similarities() {
            if device == cand.device {
                true_sim = sim;
            } else {
                wrong.push(sim);
            }
        }
        let (best_device, best_sim) = outcome.best().expect("db nonempty");
        baseline_sets.push(MatchSet {
            true_device: cand.device,
            true_sim,
            wrong_sims: wrong,
            best_is_true: best_device == cand.device,
            best_sim,
        });
    }
    assert_eq!(fast.instances, baseline_sets.len());

    // Headline metrics agree within tolerance…
    let baseline_curve = similarity_curve(&baseline_sets, 512);
    let auc_drift = (fast.auc() - baseline_curve.auc).abs();
    assert!(
        auc_drift < AUC_TOLERANCE,
        "AUC drift {auc_drift} exceeds {AUC_TOLERANCE} (f32 {} vs f64 {})",
        fast.auc(),
        baseline_curve.auc
    );
    let baseline_ident = identification_points(&baseline_sets, 512);
    let last_fast = fast.ident_points.last().expect("points");
    let last_base = baseline_ident.last().expect("points");
    assert!((last_fast.ratio - last_base.ratio).abs() < AUC_TOLERANCE);

    // …and so does every per-instance decision and score. The fast sets
    // come back in candidate order, like the baseline loop above.
    let (fast_sets, _) =
        wifiprint_core::metrics::match_candidates(&db, &candidates);
    for (f, b) in fast_sets.iter().zip(&baseline_sets) {
        assert_eq!(f.true_device, b.true_device);
        assert_eq!(f.best_is_true, b.best_is_true, "best-match identity flipped");
        assert!((f.true_sim - b.true_sim).abs() < F32_SCORE_TOLERANCE);
        assert!((f.best_sim - b.best_sim).abs() < F32_SCORE_TOLERANCE);
    }
}
