//! Overload & panic chaos gate: a fixed-seed matrix of monitor-side
//! failure modes — poison frames that panic the worker, periodic source
//! stalls, overload bursts against a deliberately tiny ring, and a
//! wall-clock watchdog cell — all driven through the supervised ingest
//! front.
//!
//! Every cell must terminate (no hang, no propagated panic), reconcile
//! its health ledger *exactly* against the fault injector's, and the
//! lossless `Block` rows must hold pinned accuracy floors. CI runs this
//! file alongside `chaos_smoke` as the robustness gate.

use std::time::Duration;

use wifiprint_analysis::robustness::evaluate_overload;
use wifiprint_analysis::{evaluate_frames_supervised, PipelineConfig};
use wifiprint_core::{
    FusionSpec, IngestConfig, IngestPipeline, MatchConfig, MultiConfig, MultiEngine,
    NetworkParameter, OverloadPolicy, ResilienceConfig,
};
use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;
use wifiprint_scenarios::{is_poison_frame, FaultInjector, FaultPlan, OfficeScenario};

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

/// Poison frames panic the worker mid-sweep and periodic stalls starve
/// whole windows; the pipeline must survive every panic, quarantine
/// exactly the poisoned frames, and keep a usable fused accuracy.
#[test]
fn poison_and_stall_chaos_is_quarantined_with_exact_accounting() {
    let trace = OfficeScenario::small(11, 180, 8).run_collect();
    let plan = FaultPlan::clean()
        .with_poison(0.01)
        .with_stalls(Nanos::from_secs(45), Nanos::from_secs(3));
    let injector = FaultInjector::new(plan, 0x0D0C);
    let (degraded, log) = injector.degrade(&trace.frames);
    assert!(log.poisoned > 0, "poison plan injected nothing");
    assert!(log.stalled > 0, "stall plan swallowed nothing");

    let ingest = IngestConfig::default().with_panic_probe(Some(is_poison_frame));
    let (eval, stats) =
        evaluate_frames_supervised(&cfg().with_ingest(ingest), &degraded).expect("survives");
    // Exact quarantine accounting: one quarantined frame and one worker
    // restart per poison frame, nothing else lost at the front.
    assert_eq!(stats.quarantined, log.poisoned, "quarantine vs poison ledger");
    assert_eq!(stats.worker_restarts, log.poisoned, "restart per panic");
    assert!(stats.worker_restarts >= 1);
    assert_eq!(stats.shed, 0, "Block policy must not shed");
    assert_eq!(eval.health.frames_quarantined, log.poisoned);
    assert_eq!(eval.health.workers_restarted, log.poisoned);
    assert_eq!(eval.health.frames_seen, log.emitted, "seen vs emitted");
    assert_eq!(
        eval.train_frames + eval.validation_frames,
        log.emitted,
        "pipeline frame count"
    );
    // Graceful degradation: a 1% poison rate plus short stalls must not
    // collapse the fused accuracy.
    let auc = eval.mean_auc();
    assert!(auc > 0.60, "poison+stall AUC = {auc}");
}

/// Overload bursts time-compress the stream while a tiny slow ring
/// forces real sheds; the lossless `Block` row pins the accuracy floor
/// and the shed rows must reconcile their ledger exactly.
#[test]
fn overload_bursts_shed_gracefully_and_reconcile() {
    let trace = OfficeScenario::small(29, 120, 6).run_collect();
    let plan = FaultPlan::clean().with_bursts(Nanos::from_secs(30), Nanos::from_secs(10), 3.0);
    let injector = FaultInjector::new(plan, 0x0D0C);
    let (degraded, log) = injector.degrade(&trace.frames);
    assert!(log.burst > 0, "burst plan warped nothing");

    let mut point_cfg = cfg();
    point_cfg.train_duration = Nanos::from_secs(40);
    point_cfg.window = Nanos::from_secs(20);
    let slow = |policy| {
        IngestConfig::default()
            .with_capacity(8)
            .with_overload(policy)
            .with_sweep_delay(Duration::from_micros(100))
    };
    let grid = vec![
        ("block".to_owned(), IngestConfig::default()),
        ("shed-newest/8".to_owned(), slow(OverloadPolicy::ShedNewest)),
        ("shed-oldest/8".to_owned(), slow(OverloadPolicy::ShedOldest)),
    ];
    let sweep = evaluate_overload("Office", &point_cfg, &degraded, &grid).expect("sweep");

    let block = &sweep.points[0];
    assert_eq!(block.stats.shed, 0, "Block row shed frames");
    assert_eq!(block.eval.health.frames_seen, log.emitted, "Block row seen vs emitted");
    let block_auc = block.eval.mean_auc();
    assert!(block_auc > 0.70, "Block row AUC = {block_auc}");

    for point in &sweep.points[1..] {
        assert!(point.stats.shed > 0, "{}: tiny slow ring never overflowed", point.label);
        // The shed ledger is exact even though the shed *count* depends
        // on real scheduling.
        assert_eq!(
            point.eval.health.frames_shed,
            point.stats.shed,
            "{}: merged ledger vs stats",
            point.label
        );
        assert_eq!(point.stats.submitted, log.emitted, "{}: submitted", point.label);
        assert!(point.stats.shed_rate() < 1.0, "{}: shed everything", point.label);
    }
    // The table renders one row per policy with the load/latency axes.
    let table = sweep.table();
    for (label, _) in &grid {
        assert!(table.contains(label), "table missing {label}:\n{table}");
    }
    assert!(table.contains("Shed rate") && table.contains("Offered kfps"), "table:\n{table}");
}

/// The wall-clock watchdog cell: the source goes silent mid-stream and
/// the deadline tick must seal the open window and keep events flowing
/// without a single further frame.
#[test]
fn the_watchdog_keeps_the_stream_alive_through_a_source_stall() {
    let multi_cfg = MultiConfig::default()
        .with_min_observations(3)
        .with_window(Nanos::from_millis(300));
    let engine = MultiEngine::builder()
        .spec(FusionSpec::all_equal())
        .config(multi_cfg)
        .train_for(Nanos::from_millis(600))
        .resilience(ResilienceConfig::default())
        .build()
        .expect("valid engine configuration");
    let ingest = IngestConfig::default().with_stall_timeout(Some(Duration::from_millis(10)));
    let pipeline = IngestPipeline::spawn(engine, ingest).expect("spawn");

    // 900 ms of traffic: 600 ms of training, then a detection window
    // opens and stays open past the last frame.
    let ap = MacAddr::from_index(99);
    let n = 1800u64;
    for i in 0..n {
        let sta = MacAddr::from_index(i % 3 + 1);
        let f = Frame::data_to_ds(sta, ap, ap, 200 + (i % 5) as usize * 100);
        let captured =
            CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(500 * (i + 1)), -50);
        pipeline.submit(&captured).expect("open pipeline");
    }
    // Wait for the worker to drain the ring, then discard the events the
    // frames themselves produced.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pipeline.stats().latency_samples < n && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(pipeline.stats().latency_samples, n, "worker drained the ring");
    pipeline.drain_events();

    // Source is now silent: only the watchdog can seal the open window.
    let mut stalled_events = Vec::new();
    while stalled_events.is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        stalled_events.extend(pipeline.drain_events());
    }
    assert!(!stalled_events.is_empty(), "watchdog never delivered the stalled window");
    assert!(pipeline.stats().watchdog_ticks >= 1);

    let report = pipeline.finish().expect("terminates");
    assert!(report.is_reconciled(), "health: {:?}", report.health);
    assert_eq!(report.health.frames_seen, n);
    assert_eq!(report.health.frames_shed, 0);
}
