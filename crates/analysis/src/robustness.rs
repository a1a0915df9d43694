//! Robustness evaluation (beyond the paper): fingerprinting accuracy as
//! a function of capture degradation.
//!
//! The paper's §V evaluation assumes a clean monitor: every frame
//! captured exactly once, in order, with faithful timestamps. Real
//! passive captures degrade — monitors drop frames under load, USB
//! batching reorders deliveries, clocks jitter, and truncated or
//! mangled frames slip through. This module quantifies how gracefully
//! the fingerprinting accuracy decays: it wraps a trace in the seeded
//! [`FaultInjector`], runs the full streaming pipeline on each degraded
//! replica under a tolerant ingest configuration, and renders an
//! accuracy-vs-fault-rate table in the style of the paper's Tables
//! II/III.
//!
//! Everything is deterministic in the sweep seed, so a table produced in
//! CI pins exact numbers.
//!
//! A second sweep family, [`evaluate_overload`], measures the other axis
//! of robustness: what happens when the *monitor itself* cannot keep up.
//! Each point runs the full pipeline behind the supervised ingest front
//! ([`IngestPipeline`](wifiprint_core::IngestPipeline)) under a
//! different [`OverloadPolicy`] and ring size, and the table reports
//! accuracy *and latency* against offered load and shed rate. The
//! lossless `Block` row is bit-identical to the synchronous pipeline;
//! the shedding rows show how gracefully accuracy decays when frames
//! must be dropped at the door.

use std::time::Instant;

use wifiprint_core::{
    EngineError, IngestConfig, IngestStats, LateFramePolicy, OverloadPolicy, ResilienceConfig,
};
use wifiprint_radiotap::CapturedFrame;
use wifiprint_scenarios::{FaultInjector, FaultLog, FaultPlan};

use crate::pipeline::{
    evaluate_frames, evaluate_frames_supervised, PipelineConfig, TraceEvaluation,
};
use crate::tables::render_columns;

/// One evaluated cell of a robustness sweep: a fault plan, the
/// injector's ledger of what it actually did, and the pipeline results
/// on the degraded stream.
#[derive(Debug)]
pub struct RobustnessPoint {
    /// Human-readable fault-model label (e.g. `"loss 25%"`).
    pub label: String,
    /// The fault plan this point was degraded with.
    pub plan: FaultPlan,
    /// The injector's fault ledger for this replica.
    pub log: FaultLog,
    /// Full pipeline results on the degraded stream.
    pub eval: TraceEvaluation,
}

/// A full accuracy-vs-fault-rate sweep over one trace.
#[derive(Debug)]
pub struct RobustnessSweep {
    /// Trace name (e.g. `"Office 2"`).
    pub trace: String,
    /// The seed every fault replica derives from.
    pub seed: u64,
    /// One point per fault plan, grid order.
    pub points: Vec<RobustnessPoint>,
}

impl RobustnessSweep {
    /// Renders the accuracy-vs-fault-rate table: one row per fault
    /// model, with the injector/ingest frame accounting next to the
    /// paper's two accuracy metrics (averaged over the evaluated
    /// parameters).
    pub fn table(&self) -> String {
        let mut labels = vec![format!("{} fault model", self.trace)];
        let mut emitted = vec!["Frames".to_owned()];
        let mut dropped = vec!["Dropped".to_owned()];
        let mut degraded = vec!["Degr. wins".to_owned()];
        let mut auc = vec!["AUC".to_owned()];
        let mut ident = vec!["Ident@0.1".to_owned()];
        for p in &self.points {
            labels.push(p.label.clone());
            emitted.push(p.log.emitted.to_string());
            dropped.push(p.eval.health.frames_dropped().to_string());
            degraded.push(p.eval.health.windows_degraded.to_string());
            auc.push(format!("{:.1}%", 100.0 * p.eval.mean_auc()));
            ident.push(format!("{:.1}%", 100.0 * p.eval.mean_identification(0.1)));
        }
        render_columns(&[labels, emitted, dropped, degraded, auc, ident])
    }
}

/// One evaluated cell of an overload sweep: an ingest configuration,
/// the pipeline's ingest statistics under it, and the accuracy results
/// on whatever survived the ring.
#[derive(Debug)]
pub struct OverloadPoint {
    /// Human-readable ingest-configuration label (e.g. `"shed-oldest/8"`).
    pub label: String,
    /// The overload policy this point ran under.
    pub policy: OverloadPolicy,
    /// Offered load in frames per wall-clock second for this run.
    pub offered_fps: f64,
    /// The supervised pipeline's ingest statistics (sheds, queueing
    /// latency, watchdog ticks).
    pub stats: IngestStats,
    /// Full pipeline results on the frames that reached the engine.
    pub eval: TraceEvaluation,
}

/// A full accuracy-and-latency-vs-offered-load sweep over one trace.
#[derive(Debug)]
pub struct OverloadSweep {
    /// Trace name (e.g. `"Office 2"`).
    pub trace: String,
    /// One point per ingest configuration, grid order.
    pub points: Vec<OverloadPoint>,
}

impl OverloadSweep {
    /// Renders the overload table: one row per ingest configuration,
    /// with offered load, shed accounting and queueing latency next to
    /// the paper's two accuracy metrics.
    pub fn table(&self) -> String {
        let mut labels = vec![format!("{} ingest policy", self.trace)];
        let mut offered = vec!["Offered kfps".to_owned()];
        let mut shed = vec!["Shed".to_owned()];
        let mut shed_rate = vec!["Shed rate".to_owned()];
        let mut latency = vec!["Queue \u{b5}s".to_owned()];
        let mut auc = vec!["AUC".to_owned()];
        let mut ident = vec!["Ident@0.1".to_owned()];
        for p in &self.points {
            labels.push(p.label.clone());
            offered.push(format!("{:.1}", p.offered_fps / 1000.0));
            shed.push(p.stats.shed.to_string());
            shed_rate.push(format!("{:.1}%", 100.0 * p.stats.shed_rate()));
            latency.push(format!("{:.0}", p.stats.mean_latency_ns() / 1000.0));
            auc.push(format!("{:.1}%", 100.0 * p.eval.mean_auc()));
            ident.push(format!("{:.1}%", 100.0 * p.eval.mean_identification(0.1)));
        }
        render_columns(&[labels, offered, shed, shed_rate, latency, auc, ident])
    }
}

/// Runs the full supervised pipeline on `frames` once per ingest
/// configuration in `grid` and collects accuracy, shed accounting and
/// queueing latency for each.
///
/// Accuracy on a `Block` point is exactly the synchronous pipeline's
/// (the ingest front is lossless and bit-identical there). Shed counts
/// on the shedding points depend on real scheduling, so they are
/// reported — and their ledger checked — but not pinned to exact
/// values.
///
/// # Errors
///
/// [`EngineError`] from building or driving the underlying engine.
pub fn evaluate_overload(
    trace: &str,
    cfg: &PipelineConfig,
    frames: &[CapturedFrame],
    grid: &[(String, IngestConfig)],
) -> Result<OverloadSweep, EngineError> {
    let mut points = Vec::with_capacity(grid.len());
    for (label, ingest) in grid {
        let point_cfg = cfg.clone().with_ingest(*ingest);
        let start = Instant::now();
        let (eval, stats) = evaluate_frames_supervised(&point_cfg, frames)?;
        let elapsed = start.elapsed().as_secs_f64().max(f64::EPSILON);
        points.push(OverloadPoint {
            label: label.clone(),
            policy: ingest.overload,
            offered_fps: frames.len() as f64 / elapsed,
            stats,
            eval,
        });
    }
    Ok(OverloadSweep { trace: trace.to_owned(), points })
}

/// Degrades `frames` under every plan in `grid` (deterministically from
/// `seed`) and runs the full streaming pipeline on each replica.
///
/// The clean baseline runs under the caller's configured
/// [`ResilienceConfig`], so its row is exactly the undisturbed pipeline.
/// Every degraded replica runs under a tolerant ingest whose reordering
/// horizon covers the plan's displacement depth — the engine absorbs
/// what it can and degrades gracefully past that, which is the behaviour
/// this sweep measures.
///
/// # Errors
///
/// [`EngineError`] from building or driving the underlying engine.
pub fn evaluate_robustness(
    trace: &str,
    cfg: &PipelineConfig,
    frames: &[CapturedFrame],
    grid: &[(String, FaultPlan)],
    seed: u64,
) -> Result<RobustnessSweep, EngineError> {
    let mut points = Vec::with_capacity(grid.len());
    for (i, (label, plan)) in grid.iter().enumerate() {
        let injector = FaultInjector::new(plan.clone(), seed.wrapping_add(i as u64));
        let (degraded, log) = injector.degrade(frames);
        let point_cfg = if plan.is_clean() {
            cfg.clone()
        } else {
            let horizon = (4 * plan.reorder_depth).max(64);
            cfg.clone().with_resilience(
                ResilienceConfig::tolerant()
                    .with_late_policy(LateFramePolicy::Reorder { max_lateness: horizon }),
            )
        };
        let eval = evaluate_frames(&point_cfg, &degraded)?;
        points.push(RobustnessPoint { label: label.clone(), plan: plan.clone(), log, eval });
    }
    Ok(RobustnessSweep { trace: trace.to_owned(), seed, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_core::{MatchConfig, NetworkParameter};
    use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
    use wifiprint_scenarios::LossModel;

    /// Four devices with distinct inter-arrival and size signatures.
    fn trace() -> Vec<CapturedFrame> {
        let ap = MacAddr::from_index(99);
        let mut frames = Vec::new();
        let spec = [(400u64, 200usize), (550, 600), (700, 350), (850, 900)];
        for (dev, &(period, payload)) in spec.iter().enumerate() {
            let addr = MacAddr::from_index(dev as u64 + 1);
            let mut t = 1000 + dev as u64 * 53;
            while t < 30_000_000 {
                let f = Frame::data_to_ds(addr, ap, ap, payload);
                frames.push(CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(t), -50));
                t += period;
            }
        }
        frames.sort_by_key(|f| f.t_end);
        frames
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            train_duration: Nanos::from_secs(10),
            window: Nanos::from_secs(5),
            min_observations: 20,
            parameters: vec![NetworkParameter::InterArrivalTime, NetworkParameter::FrameSize],
            match_config: MatchConfig::default(),
            resilience: ResilienceConfig::default(),
            ingest: None,
        }
    }

    #[test]
    fn the_clean_point_is_the_undisturbed_pipeline() {
        let frames = trace();
        let grid = vec![("clean".to_owned(), FaultPlan::clean())];
        let sweep = evaluate_robustness("Synthetic", &cfg(), &frames, &grid, 7).expect("sweep");
        let point = &sweep.points[0];
        assert_eq!(point.log.emitted as usize, frames.len());
        assert_eq!(point.log.lost, 0);
        let plain = evaluate_frames(&cfg(), &frames).expect("plain pipeline");
        for (param, outcome) in &plain.outcomes {
            assert_eq!(outcome.auc(), point.eval.outcomes[param].auc(), "{param:?} AUC");
        }
        assert_eq!(point.eval.health, plain.health);
    }

    #[test]
    fn health_counters_reconcile_with_the_fault_ledger() {
        let frames = trace();
        let grid = vec![
            ("corrupt".to_owned(), FaultPlan::clean().with_corruption(0.05)),
            ("reorder".to_owned(), FaultPlan::clean().with_reordering(6, 0.4)),
            ("dup".to_owned(), FaultPlan::clean().with_duplicates(0.05)),
        ];
        let sweep = evaluate_robustness("Synthetic", &cfg(), &frames, &grid, 11).expect("sweep");
        let corrupt = &sweep.points[0];
        assert!(corrupt.log.corrupted > 0, "corruption plan did nothing");
        assert_eq!(corrupt.eval.health.frames_corrupt, corrupt.log.corrupted);
        let reorder = &sweep.points[1];
        assert!(reorder.log.inversions > 0, "reorder plan did nothing");
        assert_eq!(reorder.eval.health.frames_reordered, reorder.log.inversions);
        let dup = &sweep.points[2];
        assert!(dup.log.duplicated > 0, "duplicate plan did nothing");
        assert_eq!(dup.eval.health.frames_duplicate, dup.log.duplicated);
        for p in &sweep.points {
            assert_eq!(p.eval.health.frames_seen, p.log.emitted, "{}: seen vs emitted", p.label);
        }
    }

    #[test]
    fn the_block_overload_point_matches_the_synchronous_pipeline() {
        let frames = trace();
        let grid = vec![("block".to_owned(), IngestConfig::default())];
        let sweep = evaluate_overload("Synthetic", &cfg(), &frames, &grid).expect("sweep");
        let point = &sweep.points[0];
        assert_eq!(point.stats.shed, 0);
        assert_eq!(point.stats.submitted as usize, frames.len());
        let plain = evaluate_frames(&cfg(), &frames).expect("plain pipeline");
        for (param, outcome) in &plain.outcomes {
            assert_eq!(outcome.auc(), point.eval.outcomes[param].auc(), "{param:?} AUC");
        }
        assert_eq!(plain.fused.auc(), point.eval.fused.auc(), "fused AUC");
        assert_eq!(point.eval.health.frames_shed, 0);
        assert_eq!(point.eval.health.frames_seen, plain.health.frames_seen);
    }

    #[test]
    fn shedding_points_overflow_the_tiny_ring_and_keep_the_ledger_exact() {
        let frames = trace();
        let slow = IngestConfig::default()
            .with_capacity(4)
            .with_overload(OverloadPolicy::ShedOldest)
            .with_sweep_delay(std::time::Duration::from_micros(200));
        let grid = vec![("shed-oldest/4".to_owned(), slow)];
        let sweep = evaluate_overload("Synthetic", &cfg(), &frames, &grid).expect("sweep");
        let point = &sweep.points[0];
        assert!(point.stats.shed > 0, "tiny slow ring never overflowed");
        assert_eq!(point.eval.health.frames_shed, point.stats.shed);
        assert_eq!(point.eval.health.frames_seen as usize, frames.len());
        assert!(point.stats.shed_rate() > 0.0 && point.stats.shed_rate() < 1.0);
        let table = sweep.table();
        assert!(table.contains("shed-oldest/4"), "table:\n{table}");
        assert!(table.contains("Shed rate") && table.contains("Queue \u{b5}s"), "table:\n{table}");
    }

    #[test]
    fn accuracy_survives_moderate_loss_and_the_table_lists_every_row() {
        let frames = trace();
        let grid = vec![
            ("clean".to_owned(), FaultPlan::clean()),
            ("loss 25%".to_owned(), FaultPlan::clean().with_loss(LossModel::Iid { rate: 0.25 })),
        ];
        let sweep = evaluate_robustness("Synthetic", &cfg(), &frames, &grid, 42).expect("sweep");
        let clean = sweep.points[0].eval.mean_auc();
        let lossy = sweep.points[1].eval.mean_auc();
        assert!(clean > 0.9, "clean AUC = {clean}");
        // Histogram shapes survive thinning: accuracy decays, it does
        // not collapse.
        assert!(lossy > 0.8, "25%-loss AUC = {lossy}");
        let table = sweep.table();
        assert!(table.contains("clean") && table.contains("loss 25%"), "table:\n{table}");
        assert!(table.contains("AUC") && table.contains("Ident@0.1"), "table:\n{table}");
    }
}
