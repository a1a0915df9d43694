//! Chaos smoke: a seeded fault-injection matrix over the office and
//! conference scenarios, driven through the full streaming pipeline.
//!
//! For every (trace, seed) cell the sweep must complete without panics,
//! the engine's ingest-health counters must reconcile *exactly* with the
//! injector's fault ledger, and the degraded fused accuracy must stay
//! above a pinned floor. CI runs this file as its chaos gate.

use wifiprint_analysis::robustness::{evaluate_robustness, RobustnessSweep};
use wifiprint_analysis::PipelineConfig;
use wifiprint_core::{MatchConfig, NetworkParameter, ResilienceConfig};
use wifiprint_ieee80211::Nanos;
use wifiprint_radiotap::CapturedFrame;
use wifiprint_scenarios::{ConferenceScenario, FaultPlan, LossModel, OfficeScenario};

/// The chaos fault matrix: every fault family, one clean control.
fn grid() -> Vec<(String, FaultPlan)> {
    vec![
        ("clean".to_owned(), FaultPlan::clean()),
        ("loss 25%".to_owned(), FaultPlan::clean().with_loss(LossModel::Iid { rate: 0.25 })),
        ("reorder d8".to_owned(), FaultPlan::clean().with_reordering(8, 0.4)),
        ("corrupt 5%".to_owned(), FaultPlan::clean().with_corruption(0.05)),
        ("dup 5%".to_owned(), FaultPlan::clean().with_duplicates(0.05)),
        ("noisy mix".to_owned(), FaultPlan::noisy()),
    ]
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        train_duration: Nanos::from_secs(60),
        window: Nanos::from_secs(30),
        min_observations: 20,
        parameters: vec![
            NetworkParameter::InterArrivalTime,
            NetworkParameter::FrameSize,
            NetworkParameter::MediumAccessTime,
        ],
        match_config: MatchConfig::default(),
        resilience: ResilienceConfig::default(),
        ingest: None,
    }
}

/// Runs the matrix over one trace and checks every invariant the chaos
/// gate pins.
fn check_sweep(name: &str, frames: &[CapturedFrame], seed: u64) -> RobustnessSweep {
    let sweep =
        evaluate_robustness(name, &cfg(), frames, &grid(), seed).expect("chaos sweep runs");
    for point in &sweep.points {
        let health = point.eval.health;
        let label = format!("{name} seed {seed}: {}", point.label);
        // Exact reconciliation: every frame the injector emitted reached
        // the engine, and after `finish` none is still pending.
        assert_eq!(health.frames_seen, point.log.emitted, "{label}: seen vs emitted");
        assert_eq!(
            point.eval.train_frames + point.eval.validation_frames,
            point.log.emitted,
            "{label}: pipeline frame count"
        );
        // Per-family counters match the ledger exactly. (The noisy mix
        // composes faults, where truncated frames can also be lost or
        // displaced, so the single-fault points carry the exact pins.)
        if point.label.starts_with("corrupt") {
            assert!(point.log.corrupted > 0, "{label}: plan injected nothing");
            assert_eq!(health.frames_corrupt, point.log.corrupted, "{label}: corrupt");
            assert_eq!(health.frames_duplicate, 0, "{label}");
        }
        if point.label.starts_with("dup") {
            assert!(point.log.duplicated > 0, "{label}: plan injected nothing");
            assert_eq!(health.frames_duplicate, point.log.duplicated, "{label}: duplicates");
        }
        if point.label.starts_with("reorder") {
            assert!(point.log.inversions > 0, "{label}: plan injected nothing");
            assert_eq!(health.frames_reordered, point.log.inversions, "{label}: inversions");
            assert_eq!(health.frames_late_dropped, 0, "{label}: horizon covers the depth");
        }
        if point.label == "clean" {
            assert_eq!(health.frames_dropped(), 0, "{label}: clean control dropped frames");
            assert_eq!(point.log.emitted, point.log.input, "{label}: clean ledger");
        }
    }
    // Graceful degradation, not collapse: the clean control is accurate
    // and every degraded replica keeps a usable mean AUC.
    let clean_auc = sweep.points[0].eval.mean_auc();
    assert!(clean_auc > 0.80, "{name} seed {seed}: clean AUC = {clean_auc}");
    for point in &sweep.points[1..] {
        let auc = point.eval.mean_auc();
        assert!(auc > 0.60, "{name} seed {seed}: {} AUC = {auc}", point.label);
    }
    // The accuracy-vs-fault-rate table renders one row per fault model.
    let table = sweep.table();
    for (label, _) in grid() {
        assert!(table.contains(&label), "table missing {label}:\n{table}");
    }
    sweep
}

#[test]
fn office_trace_survives_the_fault_matrix() {
    for seed in [11u64, 73] {
        let trace = OfficeScenario::small(seed, 180, 8).run_collect();
        check_sweep("Office", &trace.frames, seed ^ 0xC4A0);
    }
}

#[test]
fn conference_trace_survives_the_fault_matrix() {
    for seed in [5u64, 29] {
        let trace = ConferenceScenario::small(seed, 180, 8).run_collect();
        check_sweep("Conference", &trace.frames, seed ^ 0xC4A0);
    }
}
