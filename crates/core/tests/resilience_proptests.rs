//! Property tests for the ingest-hardening layer: the `Reorder` policy
//! restores any stream shuffled within a bounded horizon to bit-identical
//! event streams, and dropping (`Reorder { max_lateness: 0 }`) or
//! rejecting (`Reject`) late frames never corrupts window
//! state — the engine behaves exactly as if the late frames had never
//! been captured. Every property runs on a one-parameter and on the
//! five-parameter spec.

use proptest::prelude::*;
use wifiprint_core::{
    EngineHealth, FusionSpec, LateFramePolicy, MultiConfig, MultiEngine, NetworkParameter,
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

/// A capture-ordered stream with strictly increasing timestamps (gaps of
/// at least 1 µs), so re-sequencing after a shuffle is unambiguous.
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

/// A dirty stream: arbitrary (wildly non-monotonic) timestamps.
fn arb_dirty_stream() -> impl Strategy<Value = Vec<CapturedFrame>> {
    prop::collection::vec((0u64..4, 0u64..2_000_000, 60usize..800, 0u8..12), 20..100).prop_map(
        |specs| {
            specs
                .into_iter()
                .map(|(dev, t_us, payload, rate)| capture(dev, t_us, payload, rate))
                .collect()
        },
    )
}

/// Shuffles within consecutive blocks of `block` frames (seeded
/// Fisher–Yates per block): every frame is displaced fewer than `block`
/// positions from capture order.
fn block_shuffle(frames: &[CapturedFrame], block: usize, seed: u64) -> Vec<CapturedFrame> {
    let mut out = frames.to_vec();
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    for chunk in out.chunks_mut(block) {
        for i in (1..chunk.len()).rev() {
            let j = next() % (i + 1);
            chunk.swap(i, j);
        }
    }
    out
}

/// The subsequence a `Reorder { max_lateness: 0 }` ingest actually
/// delivers: each frame whose
/// timestamp is not behind the newest already-kept one.
fn prefix_max_subsequence(frames: &[CapturedFrame]) -> Vec<CapturedFrame> {
    let mut kept: Vec<CapturedFrame> = Vec::new();
    let mut max_t: Option<Nanos> = None;
    for f in frames {
        if max_t.is_none_or(|m| f.t_end >= m) {
            max_t = Some(f.t_end);
            kept.push(*f);
        }
    }
    kept
}

/// The specs the properties run on: the paper's per-parameter
/// evaluation (one parameter) and all five parameters fused.
fn arb_spec() -> impl Strategy<Value = FusionSpec> {
    prop::sample::select(vec![
        FusionSpec::single(NetworkParameter::InterArrivalTime),
        FusionSpec::all_equal(),
    ])
}

/// Runs the engine over `frames`; `Err` from `observe` (a rejected late
/// frame) is skipped, which must leave the engine undisturbed. Returns
/// the Debug rendering of the full event stream, the final health
/// counters and the frames still buffered just before `finish`.
fn run_multi(
    frames: &[CapturedFrame],
    spec: &FusionSpec,
    resilience: ResilienceConfig,
) -> (String, EngineHealth, usize) {
    let cfg = MultiConfig::default()
        .with_min_observations(3)
        .with_window(Nanos::from_millis(300));
    let mut engine = MultiEngine::builder()
        .spec(spec.clone())
        .config(cfg)
        .train_for(Nanos::from_millis(600))
        .resilience(resilience)
        .build()
        .expect("valid engine configuration");
    let mut events = Vec::new();
    let mut rejected = 0u64;
    for f in frames {
        match engine.observe(f) {
            Ok(mut ev) => events.append(&mut ev),
            Err(_) => rejected += 1,
        }
    }
    let pending = engine.pending_frames();
    events.extend(engine.finish().expect("finish"));
    let mut health = engine.health();
    // Fold rejections into the late counter so both reject and drop runs
    // report drops the same way to the caller.
    health.frames_late_dropped += rejected;
    (format!("{events:?}"), health, pending)
}

/// The tentpole property: `Reorder { max_lateness ≥ horizon }` makes a
/// stream shuffled within that horizon yield *bit-identical* events to
/// the in-order stream — same enrollments, same windows, same
/// similarity scores.
fn check_reorder_restores_bounded_shuffle(
    frames: &[CapturedFrame],
    block: usize,
    seed: u64,
    spec: &FusionSpec,
) {
    let shuffled = block_shuffle(frames, block, seed);
    let resilience = ResilienceConfig::default().with_late_policy(LateFramePolicy::Reorder {
        max_lateness: 2 * block,
    });
    let (ordered, ordered_health, _) = run_multi(frames, spec, resilience.clone());
    let (restored, restored_health, _) = run_multi(&shuffled, spec, resilience);
    prop_assert_eq!(ordered, restored);
    prop_assert_eq!(
        restored_health.frames_late_dropped,
        0,
        "a 2x-horizon buffer never drops a block-shuffled frame"
    );
    prop_assert_eq!(ordered_health.frames_seen, restored_health.frames_seen);
    prop_assert_eq!(ordered_health.frames_reordered, 0);
}

proptest! {
    // The single-parameter engine: the paper's per-parameter evaluation.
    #[test]
    fn reorder_restores_bounded_shuffles_on_the_engine(
        frames in arb_ordered_stream(),
        block in 2usize..=8,
        seed in any::<u64>(),
    ) {
        let spec = FusionSpec::single(NetworkParameter::InterArrivalTime);
        check_reorder_restores_bounded_shuffle(&frames, block, seed, &spec);
    }

    // The fused five-parameter engine.
    #[test]
    fn reorder_restores_bounded_shuffles_on_the_multi_engine(
        frames in arb_ordered_stream(),
        block in 2usize..=8,
        seed in any::<u64>(),
    ) {
        check_reorder_restores_bounded_shuffle(&frames, block, seed, &FusionSpec::all_equal());
    }

    // `Reorder { max_lateness: 0 }` on a dirty stream behaves exactly
    // like the clean stream with the late frames never captured —
    // window state is untouched by what was dropped, every drop is
    // counted, and nothing is buffered or re-sequenced.
    #[test]
    fn drop_policy_equals_the_stream_with_late_frames_removed(
        dirty in arb_dirty_stream(),
        spec in arb_spec(),
    ) {
        let clean = prefix_max_subsequence(&dirty);
        let (want, _, _) = run_multi(&clean, &spec, ResilienceConfig::default());
        let drop_cfg = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 0 });
        let (got, health, pending) = run_multi(&dirty, &spec, drop_cfg);
        prop_assert_eq!(want, got);
        prop_assert_eq!(health.frames_late_dropped as usize, dirty.len() - clean.len());
        prop_assert_eq!(health.frames_seen as usize, dirty.len());
        prop_assert_eq!(health.frames_reordered, 0);
        prop_assert_eq!(pending, 0);
    }

    // Default `Reject` returns an error for each late frame but leaves
    // the engine state exactly as if the frame had never arrived: the
    // caller can skip it and the surviving stream is processed
    // identically to a clean capture.
    #[test]
    fn reject_policy_skips_late_frames_without_corrupting_state(
        dirty in arb_dirty_stream(),
        spec in arb_spec(),
    ) {
        let clean = prefix_max_subsequence(&dirty);
        let (want, _, _) = run_multi(&clean, &spec, ResilienceConfig::default());
        let (got, health, _) = run_multi(&dirty, &spec, ResilienceConfig::default());
        prop_assert_eq!(want, got);
        prop_assert_eq!(health.frames_late_dropped as usize, dirty.len() - clean.len());
    }
}
