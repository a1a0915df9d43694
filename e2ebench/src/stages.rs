//! Isolated re-runs of each stage over a frame workload's own inputs:
//! pcap framing, radiotap decode, fused extraction, window recording,
//! the per-window reference sweep and score fusion — plus, for the
//! supervised workload, whose engine runs on the ingest worker, a direct
//! `observe` loop over the same frames.
//!
//! Record, sweep and fuse call the public building blocks the engine's
//! window path is made of (`WindowClock`, `Signature::record`,
//! `ReferenceDb::match_tile`, `fuse_outcomes`) in the order the engine
//! calls them; the sweep runs serially here, so it is CPU time, not the
//! wall time of the engine's per-parameter fan-out.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use wifiprint_core::{
    fuse_outcomes, EvalConfig, FusedExtractor, FusedObservation, FusionSpec, MatchOutcome,
    MatchScratch, MultiEvent, Signature, WindowClock, MATCH_TILE,
};
use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_pcap::SliceReader;
use wifiprint_radiotap::CapturedFrame;

use crate::trace;
use crate::workloads::{build_engine, FrameInputs};

/// One round of isolated stage costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCosts {
    pub framing_ns: f64,
    pub decode_ns: f64,
    pub extract_ns: f64,
    pub record_ns: f64,
    pub sweep_us_per_window: f64,
    /// Sweep time of all windows of one pass, in nanoseconds.
    pub sweep_total_ns: f64,
    pub rows_scored_per_window: f64,
    pub fuse_ns_per_candidate: f64,
    /// Direct `observe` re-run (supervised workload only).
    pub observe: Option<ObserveCosts>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ObserveCosts {
    pub observe_ns: f64,
    pub close_us: f64,
    pub allocs_per_frame: f64,
}

/// The decoded stream the later stages start from, built once.
pub struct Decoded<'a> {
    records: Vec<(&'a [u8], Nanos)>,
    frames: Vec<CapturedFrame>,
    observations: Vec<Option<FusedObservation>>,
}

impl<'a> Decoded<'a> {
    pub fn new(inp: &'a FrameInputs) -> Self {
        let mut reader = SliceReader::new(&inp.capture).expect("exported capture has a header");
        let mut records = Vec::with_capacity(inp.records as usize);
        while let Some((meta, bytes)) = reader.next_record().expect("exported capture is whole") {
            records.push((bytes, Nanos::from_nanos(meta.timestamp_nanos())));
        }
        let frames: Vec<CapturedFrame> = records
            .iter()
            .filter_map(|&(bytes, t)| CapturedFrame::from_radiotap_packet(bytes, t).ok())
            .collect();
        let mut extractor = extractor(inp);
        let observations = frames.iter().map(|f| extractor.push(f)).collect();
        Decoded {
            records,
            frames,
            observations,
        }
    }
}

fn extractor(inp: &FrameInputs) -> FusedExtractor {
    FusedExtractor::with_options(inp.config.estimator, inp.config.filter.clone())
}

fn per(elapsed: std::time::Duration, n: usize) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

/// Candidate signatures of one window: per device, one per parameter.
type Window = BTreeMap<MacAddr, Vec<Signature>>;

pub fn measure(inp: &FrameInputs, decoded: &Decoded<'_>) -> StageCosts {
    let mut costs = StageCosts::default();

    let t = Instant::now();
    let mut reader = SliceReader::new(&inp.capture).expect("exported capture has a header");
    let mut n = 0usize;
    while let Some(record) = reader.next_record().expect("exported capture is whole") {
        black_box(record);
        n += 1;
    }
    costs.framing_ns = per(t.elapsed(), n);

    let t = Instant::now();
    for &(bytes, fallback) in &decoded.records {
        let _ = black_box(CapturedFrame::from_radiotap_packet(
            black_box(bytes),
            fallback,
        ));
    }
    costs.decode_ns = per(t.elapsed(), decoded.records.len());

    let mut ex = extractor(inp);
    let t = Instant::now();
    for f in &decoded.frames {
        black_box(ex.push(black_box(f)));
    }
    costs.extract_ns = per(t.elapsed(), decoded.frames.len());

    let spec = FusionSpec::all_equal();
    let configs: Vec<EvalConfig> = spec
        .parameters()
        .map(|p| inp.config.eval_config(p))
        .collect();
    let t = Instant::now();
    let windows = record(inp, decoded, &spec, &configs);
    costs.record_ns = per(t.elapsed(), decoded.frames.len());

    let (sweep_ns, rows, views) = sweep(inp, &spec, &windows);
    costs.sweep_total_ns = sweep_ns;
    costs.sweep_us_per_window = sweep_ns / 1e3 / windows.len().max(1) as f64;
    costs.rows_scored_per_window = rows as f64 / windows.len().max(1) as f64;
    costs.fuse_ns_per_candidate = fuse(inp, &spec, &views);

    if inp.supervised {
        costs.observe = Some(observe(inp, &decoded.frames));
    }
    costs
}

/// Window clock + per-parameter signature recording, as the engine's
/// detection path does per frame.
fn record(
    inp: &FrameInputs,
    decoded: &Decoded<'_>,
    spec: &FusionSpec,
    configs: &[EvalConfig],
) -> Vec<Window> {
    let mut clock = WindowClock::new(inp.config.window);
    let mut windows = Vec::new();
    let mut current = Window::new();
    for (frame, obs) in decoded.frames.iter().zip(&decoded.observations) {
        if clock.observe(frame.t_end).is_some() {
            windows.push(std::mem::take(&mut current));
        }
        if let Some(obs) = obs {
            let sigs = current
                .entry(obs.device)
                .or_insert_with(|| vec![Signature::new(); configs.len()]);
            for ((sig, cfg), param) in sigs.iter_mut().zip(configs).zip(spec.parameters()) {
                if let Some(value) = obs.value(param) {
                    sig.record(obs.kind, value, cfg);
                }
            }
        }
    }
    windows.push(current);
    windows
}

/// Per window and parameter: the qualifying candidates in tiles of
/// `MATCH_TILE` through `ReferenceDb::match_tile`. Returns the total
/// sweep nanoseconds, the reference rows scored, and per candidate the
/// views of every parameter (input to the fuse stage).
fn sweep(
    inp: &FrameInputs,
    spec: &FusionSpec,
    windows: &[Window],
) -> (f64, u64, Vec<Vec<Option<MatchOutcome>>>) {
    let min = inp.config.min_observations.max(1);
    let mut scratch = MatchScratch::new();
    let mut total_ns = 0.0;
    let mut rows = 0u64;
    let mut all_views = Vec::new();
    for window in windows {
        let t = Instant::now();
        let qualified: Vec<Vec<Option<&Signature>>> = window
            .values()
            .map(|sigs| {
                sigs.iter()
                    .map(|s| (s.observation_count() >= min).then_some(s))
                    .collect()
            })
            .filter(|sigs: &Vec<Option<&Signature>>| sigs.iter().any(Option::is_some))
            .collect();
        let mut views: Vec<Vec<Option<MatchOutcome>>> =
            vec![vec![None; spec.len()]; qualified.len()];
        for (p, param) in spec.parameters().enumerate() {
            let db = &inp.references[&param];
            let to_score: Vec<usize> = (0..qualified.len())
                .filter(|&i| qualified[i][p].is_some())
                .collect();
            for tile_ids in to_score.chunks(MATCH_TILE) {
                let sigs: Vec<&Signature> = tile_ids
                    .iter()
                    .map(|&i| qualified[i][p].expect("qualified"))
                    .collect();
                let tile = db.match_tile(&sigs, inp.config.measure, &mut scratch);
                for (&i, view) in tile_ids.iter().zip(tile.views()) {
                    views[i][p] = Some(view.to_outcome());
                }
                rows += (sigs.len() * db.len()) as u64;
            }
        }
        total_ns += t.elapsed().as_nanos() as f64;
        all_views.extend(views);
    }
    (total_ns, rows, all_views)
}

/// Fuses every candidate scored for all parameters over the commonly
/// enrolled devices; nanoseconds per fused candidate.
fn fuse(inp: &FrameInputs, spec: &FusionSpec, views: &[Vec<Option<MatchOutcome>>]) -> f64 {
    let dbs: Vec<_> = spec.parameters().map(|p| &inp.references[&p]).collect();
    let common: Vec<MacAddr> = dbs[0]
        .devices()
        .filter(|d| dbs.iter().all(|db| db.contains(d)))
        .collect();
    let full: Vec<Vec<&MatchOutcome>> = views
        .iter()
        .filter_map(|v| v.iter().map(Option::as_ref).collect::<Option<Vec<_>>>())
        .collect();
    let t = Instant::now();
    for outcomes in &full {
        black_box(fuse_outcomes(spec, outcomes, &common));
    }
    per(t.elapsed(), full.len())
}

/// `MultiEngine::observe` called directly over the decoded frames with
/// the workload's engine configuration.
fn observe(inp: &FrameInputs, frames: &[CapturedFrame]) -> ObserveCosts {
    let mut engine = build_engine(inp);
    let (mut plain_ns, mut plain) = (0u128, 0u64);
    let (mut close_ns, mut closes) = (0u128, 0u64);
    trace::set_counting(true);
    let allocs_before = trace::thread_allocs();
    for f in frames {
        let t = Instant::now();
        let events = engine.observe(f);
        let dt = t.elapsed().as_nanos();
        let sealing = events.as_ref().is_ok_and(|ev| {
            ev.iter()
                .any(|e| matches!(e, MultiEvent::WindowClosed { .. }))
        });
        if sealing {
            close_ns += dt;
            closes += 1;
        } else {
            plain_ns += dt;
            plain += 1;
        }
        drop(black_box(events));
    }
    let allocs = trace::thread_allocs() - allocs_before;
    trace::set_counting(false);
    let t = Instant::now();
    drop(black_box(engine.finish()));
    close_ns += t.elapsed().as_nanos();
    closes += 1;
    ObserveCosts {
        observe_ns: plain_ns as f64 / plain.max(1) as f64,
        close_us: close_ns as f64 / 1e3 / closes as f64,
        allocs_per_frame: allocs as f64 / frames.len().max(1) as f64,
    }
}
