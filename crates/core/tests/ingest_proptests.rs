//! Property tests for the supervised ingest front: under
//! `OverloadPolicy::Block` with no faults and no watchdog, the pipeline
//! delivers events *bit-identical* to synchronous `observe`; poison
//! frames quarantined by panic isolation behave exactly as if they had
//! never been captured; and every run reconciles exactly against the
//! `EngineHealth` conservation law. Every property runs on a
//! one-parameter and on the five-parameter spec.

use proptest::prelude::*;
use wifiprint_core::{
    FusionSpec, IngestConfig, IngestPipeline, MultiConfig, MultiEngine, NetworkParameter,
    ResilienceConfig,
};
use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

fn capture(dev: u64, t_us: u64, payload: usize, rate_idx: u8) -> CapturedFrame {
    let sta = MacAddr::from_index(dev + 1);
    let ap = MacAddr::from_index(99);
    let f = Frame::data_to_ds(sta, ap, ap, payload);
    CapturedFrame::from_frame(
        &f,
        Rate::ALL_BG[rate_idx as usize],
        Nanos::from_micros(t_us),
        -50,
    )
}

/// A capture-ordered stream with strictly increasing timestamps.
fn arb_ordered_stream() -> impl Strategy<Value = Vec<CapturedFrame>> {
    prop::collection::vec((0u64..4, 1u64..12_000, 60usize..800, 0u8..12), 30..120).prop_map(
        |specs| {
            let mut t_us = 0u64;
            specs
                .into_iter()
                .map(|(dev, gap, payload, rate)| {
                    t_us += gap;
                    capture(dev, t_us, payload, rate)
                })
                .collect()
        },
    )
}

/// The specs the properties run on: the paper's per-parameter
/// evaluation (one parameter) and all five parameters fused.
fn arb_spec() -> impl Strategy<Value = FusionSpec> {
    prop::sample::select(vec![
        FusionSpec::single(NetworkParameter::InterArrivalTime),
        FusionSpec::all_equal(),
    ])
}

fn build_multi(spec: &FusionSpec, resilience: ResilienceConfig) -> MultiEngine {
    let cfg = MultiConfig::default()
        .with_min_observations(3)
        .with_window(Nanos::from_millis(300));
    MultiEngine::builder()
        .spec(spec.clone())
        .config(cfg)
        .train_for(Nanos::from_millis(600))
        .resilience(resilience)
        .build()
        .expect("valid engine configuration")
}

/// The synchronous baseline: observe + finish, events as a Debug string.
fn sync_events(frames: &[CapturedFrame], spec: &FusionSpec) -> String {
    let mut engine = build_multi(spec, ResilienceConfig::default());
    let mut events = Vec::new();
    for f in frames {
        events.extend(engine.observe(f).expect("in-order frame"));
    }
    events.extend(engine.finish().expect("finish"));
    format!("{events:?}")
}

/// The chaos probe these tests arm: a zero-size frame is "poison".
fn is_poison(frame: &CapturedFrame) -> bool {
    frame.size == 0
}

/// The acceptance-criteria property: with `Block` (lossless
/// back-pressure), no faults and no watchdog, the supervised pipeline is
/// observationally indistinguishable from calling `observe`
/// synchronously — same events, bit for bit, and an exactly reconciled
/// ledger.
fn check_block_pipeline_is_bit_identical(
    frames: &[CapturedFrame],
    capacity: usize,
    spec: &FusionSpec,
) {
    let want = sync_events(frames, spec);
    let cfg = IngestConfig::default().with_capacity(capacity);
    let pipeline =
        IngestPipeline::spawn(build_multi(spec, ResilienceConfig::default()), cfg).expect("spawn");
    for f in frames {
        pipeline.submit(f).expect("open pipeline");
    }
    let report = pipeline.finish().expect("terminates");
    prop_assert_eq!(format!("{:?}", report.events), want);
    prop_assert_eq!(report.health.frames_seen as usize, frames.len());
    prop_assert_eq!(report.health.frames_shed, 0);
    prop_assert_eq!(report.health.frames_quarantined, 0);
    prop_assert_eq!(report.delivered as usize, frames.len());
    prop_assert!(report.is_reconciled(), "health: {:?}", report.health);
}

proptest! {
    // The single-parameter engine: the paper's per-parameter evaluation.
    #[test]
    fn block_pipeline_is_bit_identical_to_sync_observe_on_the_engine(
        frames in arb_ordered_stream(),
        capacity in 1usize..64,
    ) {
        let spec = FusionSpec::single(NetworkParameter::InterArrivalTime);
        check_block_pipeline_is_bit_identical(&frames, capacity, &spec);
    }

    // The fused five-parameter engine.
    #[test]
    fn block_pipeline_is_bit_identical_to_sync_observe_on_the_multi_engine(
        frames in arb_ordered_stream(),
        capacity in 1usize..64,
    ) {
        check_block_pipeline_is_bit_identical(&frames, capacity, &FusionSpec::all_equal());
    }

    // Panic isolation as a stream property: a pipeline whose worker
    // panics on every poison frame delivers exactly the events of the
    // poison-free stream — a quarantined frame is indistinguishable from
    // one that was never captured — and the ledger still balances.
    #[test]
    fn quarantined_poison_frames_are_as_if_never_captured(
        frames in arb_ordered_stream(),
        poison_mask in any::<u64>(),
        spec in arb_spec(),
    ) {
        let mut frames = frames;
        let mut poisoned = 0u64;
        for (i, f) in frames.iter_mut().enumerate() {
            // A sparse pseudo-random subset (~1 in 8) turns poison.
            if (poison_mask >> (i % 64)) & 0x7 == 0x7 {
                f.size = 0;
                poisoned += 1;
            }
        }
        let clean: Vec<CapturedFrame> =
            frames.iter().copied().filter(|f| !is_poison(f)).collect();
        let want = sync_events(&clean, &spec);

        let cfg = IngestConfig::default().with_panic_probe(Some(is_poison));
        let pipeline = IngestPipeline::spawn(build_multi(&spec, ResilienceConfig::default()), cfg)
            .expect("spawn");
        for f in &frames {
            pipeline.submit(f).expect("open pipeline");
        }
        let report = pipeline.finish().expect("survives every panic");
        prop_assert_eq!(format!("{:?}", report.events), want);
        prop_assert_eq!(report.health.frames_quarantined, poisoned);
        prop_assert_eq!(report.health.workers_restarted, poisoned);
        prop_assert_eq!(report.delivered as usize, clean.len());
        prop_assert!(report.is_reconciled(), "health: {:?}", report.health);
    }
}
