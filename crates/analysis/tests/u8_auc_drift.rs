//! Accuracy-drift gate for the quantized (`u8`) matching tier.
//!
//! The `RowPrecision::U8` tier stores reference rows as 7-bit codes with
//! a per-row scale and sweeps them with exact integer kernels (see
//! `wifiprint_core::matching`, "Precision tiers"). This test runs the
//! repro pipeline's scoring on a synthetic multi-device trace twice —
//! once on the default `f32` store, once on the quantized store built
//! from the *same* signatures — and requires the paper's headline
//! accuracy metrics (AUC of the similarity test, identification ratio)
//! to agree within a pinned tolerance, with per-instance scores inside
//! `U8_SCORE_TOLERANCE` and best-match identities flipping only at
//! genuine near-ties.

use wifiprint_core::metrics::{identification_points, match_candidates, similarity_curve};
use wifiprint_core::{evaluate, MatchConfig, NetworkParameter, ReferenceDb, U8_SCORE_TOLERANCE};
use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

use wifiprint_analysis::PipelineConfig;

/// AUC aggregates thousands of thresholded score comparisons, so the
/// per-score quantization drift (≤ `U8_SCORE_TOLERANCE`) largely cancels;
/// the pinned gate is an order of magnitude tighter than the per-score
/// bound. Measured drift on this trace is ≈ 1e-4.
const U8_AUC_TOLERANCE: f64 = 5e-3;

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
            t += period + (t / 1_000_000) % 7;
        }
    }
    frames.sort_by_key(|f| f.t_end);
    frames
}

#[test]
fn quantized_pipeline_metrics_match_f32_store() {
    let cfg = PipelineConfig::miniature(10, 5, 20);
    let frames = synthetic_trace(6, 40_000_000);

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
    let signatures = trainer.finish().expect("devices qualify");
    let f32_db = ReferenceDb::from_signatures_with(signatures.clone(), MatchConfig::default());
    let u8_db = ReferenceDb::from_signatures_with(signatures, MatchConfig::quantized());
    let candidates = validator.finish();
    assert!(f32_db.len() >= 4, "trace must learn several references");
    assert!(candidates.len() >= 10, "trace must produce many windows");
    // The quantized store must actually be the smaller one.
    assert!(u8_db.row_bytes() * 2 <= f32_db.row_bytes());

    let fast = evaluate(&f32_db, &candidates).expect("non-empty db");
    let quant = evaluate(&u8_db, &candidates).expect("non-empty db");
    assert_eq!(fast.instances, quant.instances);

    // Headline metrics agree within the pinned gate…
    let auc_drift = (fast.auc() - quant.auc()).abs();
    assert!(
        auc_drift < U8_AUC_TOLERANCE,
        "AUC drift {auc_drift} exceeds {U8_AUC_TOLERANCE} (f32 {} vs u8 {})",
        fast.auc(),
        quant.auc()
    );
    // The curves come from the same instance population.
    let (fast_sets, _) = match_candidates(&f32_db, &candidates);
    let (quant_sets, _) = match_candidates(&u8_db, &candidates);
    assert_eq!(fast_sets.len(), quant_sets.len());
    assert!((similarity_curve(&fast_sets, 512).auc - fast.auc()).abs() < 1e-12);
    assert!(identification_points(&quant_sets, 512).last().is_some());

    // …and every per-instance score sits inside the documented
    // tolerance; the best-match identity may only flip where the f32
    // ranking itself was a near-tie, and only for a small minority of
    // instances (this bounds the identification-ratio drift directly:
    // the ratio is flips/instances-grained, so a continuous tolerance
    // would be vacuous or flaky at this population size).
    let mut flips = 0usize;
    for (f, q) in fast_sets.iter().zip(&quant_sets) {
        assert_eq!(f.true_device, q.true_device);
        assert!(
            (f.true_sim - q.true_sim).abs() < U8_SCORE_TOLERANCE,
            "true-sim drift: {} vs {}",
            f.true_sim,
            q.true_sim
        );
        assert!(
            (f.best_sim - q.best_sim).abs() < U8_SCORE_TOLERANCE,
            "best-sim drift: {} vs {}",
            f.best_sim,
            q.best_sim
        );
        if f.best_is_true != q.best_is_true {
            flips += 1;
            let f32_margin = (f.best_sim - f.true_sim).abs();
            assert!(
                f32_margin < 2.0 * U8_SCORE_TOLERANCE,
                "best-match flipped on a clear margin of {f32_margin}"
            );
        }
    }
    let flip_budget = fast_sets.len().div_ceil(20); // ≤ 5% of instances
    assert!(
        flips <= flip_budget,
        "{flips} best-match flips exceed the {flip_budget}-instance near-tie budget"
    );
    let last_fast = fast.ident_points.last().expect("points");
    let last_quant = quant.ident_points.last().expect("points");
    assert!(
        (last_fast.ratio - last_quant.ratio).abs()
            <= flips as f64 / fast_sets.len() as f64 + f64::EPSILON,
        "identification ratio drifted beyond the flip budget: f32 {} vs u8 {}",
        last_fast.ratio,
        last_quant.ratio
    );
}
