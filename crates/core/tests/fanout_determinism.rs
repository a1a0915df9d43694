//! Serial ≡ threaded fan-out: a five-parameter `MultiEngine`, whose
//! window close spreads its `MATCH_TILE`-wide candidate tiles over
//! `batch::map_tiles_with_scratch`, and the tiled
//! `metrics::match_candidates` give the same events and the same match
//! sets with one worker (`WIFIPRINT_THREADS=1`, the route a 1-CPU host
//! takes) and with five.
//!
//! This file holds a single `#[test]`: the fan-out reads
//! `WIFIPRINT_THREADS` on every call, so a second test in this binary
//! could race the variable.

use std::collections::BTreeMap;

use wifiprint_core::metrics::{match_candidates, MatchSet};
use wifiprint_core::{
    CandidateWindow, EvalConfig, FusionSpec, MultiConfig, MultiEngine, MultiEvent,
    NetworkParameter, ReferenceDb, Signature, MATCH_TILE,
};
use wifiprint_ieee80211::{Frame, FrameKind, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

const DEVICES: u64 = 20;

/// A fixed 3 s stream from twenty devices, each with its own payload sizes,
/// rates and pacing, so every parameter's signatures differ per device.
/// With 600 ms of training and 300 ms windows it closes eight detection
/// windows.
fn stream() -> Vec<CapturedFrame> {
    let ap = MacAddr::from_index(99);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut t_us = 0u64;
    let mut frames = Vec::new();
    while t_us < 3_000_000 {
        let dev = next() % DEVICES;
        t_us += 200 + dev * 60 + next() % 400;
        let sta = MacAddr::from_index(dev + 1);
        let payload = 100 + dev as usize * 150 + (next() % 64) as usize;
        let rate = Rate::ALL_BG[(dev as usize * 2 + (next() % 2) as usize) % Rate::ALL_BG.len()];
        let f = Frame::data_to_ds(sta, ap, ap, payload);
        frames.push(CapturedFrame::from_frame(&f, rate, Nanos::from_micros(t_us), -50));
    }
    frames
}

fn engine_events(frames: &[CapturedFrame]) -> Vec<MultiEvent> {
    let mut engine = MultiEngine::builder()
        .spec(FusionSpec::all_equal())
        .config(
            MultiConfig::default()
                .with_min_observations(3)
                .with_window(Nanos::from_millis(300)),
        )
        .train_for(Nanos::from_millis(600))
        .build()
        .expect("valid engine configuration");
    let mut events = engine.observe_all(frames).expect("in-order frames");
    events.extend(engine.finish().expect("finish"));
    events
}

/// A frame-size reference of 40 devices and more than three
/// `MATCH_TILE`s of candidate windows, some from unknown devices.
fn match_sets() -> (Vec<MatchSet>, usize) {
    let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize);
    let signature = |center: u64, spread: u64| {
        let mut sig = Signature::new();
        for i in 0..40 {
            sig.record(FrameKind::Data, (center + i % spread) as f64, &cfg);
        }
        sig
    };
    let refs: BTreeMap<MacAddr, Signature> = (0..40u64)
        .map(|d| (MacAddr::from_index(d), signature(80 + d * 35, 7 + d % 5)))
        .collect();
    let db = ReferenceDb::from_signatures(refs);
    let candidates: Vec<CandidateWindow> = (0..3 * MATCH_TILE as u64 + 5)
        .map(|i| {
            let d = (i * 7) % 44; // devices 40..44 are unknown
            CandidateWindow {
                index: i as usize / 8,
                device: MacAddr::from_index(d),
                signature: signature(80 + d * 35 + i % 20, 5 + i % 9),
            }
        })
        .collect();
    match_candidates(&db, &candidates)
}

fn run() -> (Vec<MultiEvent>, (Vec<MatchSet>, usize)) {
    (engine_events(&stream()), match_sets())
}

#[test]
fn one_worker_and_five_workers_give_identical_events_and_match_sets() {
    std::env::set_var("WIFIPRINT_THREADS", "1");
    let (serial_events, serial_sets) = run();
    std::env::set_var("WIFIPRINT_THREADS", "5");
    let (threaded_events, threaded_sets) = run();
    std::env::remove_var("WIFIPRINT_THREADS");

    // The stream must actually exercise the close fan-out: every device
    // enrolls and fused decisions come out of several windows.
    let enrolled =
        serial_events.iter().filter(|e| matches!(e, MultiEvent::Enrolled { .. })).count();
    let fused: Vec<usize> = serial_events
        .iter()
        .filter_map(|e| match e {
            MultiEvent::FusedMatch { window, .. } => Some(*window),
            _ => None,
        })
        .collect();
    assert_eq!(enrolled, DEVICES as usize);
    assert!(fused.len() >= 4 * DEVICES as usize, "{} fused matches", fused.len());
    assert!(fused.iter().max() > fused.iter().min(), "decisions from more than one window");
    let widest = serial_events
        .iter()
        .filter_map(|e| match e {
            MultiEvent::WindowClosed { candidates, .. } => Some(*candidates),
            _ => None,
        })
        .max();
    assert!(widest > Some(2 * MATCH_TILE), "windows of several tiles: {widest:?} candidates");
    assert_eq!(format!("{serial_events:?}"), format!("{threaded_events:?}"));

    let (sets, unknown) = &serial_sets;
    assert!(sets.len() > 2 * MATCH_TILE, "{} known candidates span several tiles", sets.len());
    assert!(*unknown > 0);
    assert_eq!(format!("{serial_sets:?}"), format!("{threaded_sets:?}"));
}
