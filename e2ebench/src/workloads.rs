//! The three workloads: seeded set-up (simulate → export → train) and
//! one closed-loop end-to-end pass over the generated capture through the
//! public API.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use wifiprint_core::engine::linker::{LinkEvent, LinkerConfig, LinkerStats, RotationLinker};
use wifiprint_core::{
    EngineHealth, IngestConfig, IngestPipeline, IngestStats, MatchConfig, MultiConfig, MultiEngine,
    MultiEvent, NetworkParameter, ReferenceDb, ResilienceConfig, WindowClock,
};
use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_pcap::{LinkType, Replay, ReplayStats, Writer};
use wifiprint_radiotap::CapturedFrame;
use wifiprint_scenarios::export::to_pcap_record;
use wifiprint_scenarios::{
    rotate_frames, FaultInjector, FaultLog, FaultPlan, OfficeScenario, RotationPolicy,
};

use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["office_replay", "crowd_rotation", "noisy_supervised"];

/// Office capture: training half, then the replayed detection half, cut
/// to a fixed record count so the capture's size does not vary with the
/// seed's traffic volume.
const OFFICE_TRAIN: Nanos = Nanos::from_secs(90);
const OFFICE_DETECT: Nanos = Nanos::from_secs(180);
const OFFICE_RECORDS: usize = 300_000;
const OFFICE_WINDOW: Nanos = Nanos::from_secs(60);
/// Crowd: independently seeded office populations enrolled together, then
/// heard at once. Each population contributes `CROWD_DEVICES`
/// transmitters with exactly `CROWD_FRAMES` frames per window, so every
/// pass decides the same number of candidates over the same number of
/// records whatever the seed's traffic volume.
const CROWD_POPULATIONS: u64 = 8;
const CROWD_TRAIN: Nanos = Nanos::from_secs(60);
const CROWD_DETECT: Nanos = Nanos::from_secs(10);
const CROWD_WINDOW: Nanos = Nanos::from_secs(5);
const CROWD_DEVICES: usize = 32;
const CROWD_FRAMES: usize = 10;
const CROWD_MIN_OBSERVATIONS: u64 = 8;
/// Supervised submissions between two `drain_events` calls.
const DRAIN_EVERY: u64 = 64;

/// Wall time of each set-up phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub sim_s: f64,
    pub export_s: f64,
    pub train_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.sim_s + self.export_s + self.train_s
    }
}

/// A workload's inputs: the in-memory capture plus the trained
/// engine configuration.
#[derive(Debug)]
pub struct FrameInputs {
    pub capture: Vec<u8>,
    pub records: u64,
    pub references: BTreeMap<NetworkParameter, ReferenceDb>,
    pub config: MultiConfig,
    pub resilience: ResilienceConfig,
    pub supervised: bool,
    /// Rotated capture: each emitted address → the device's own address.
    pub true_device: BTreeMap<MacAddr, MacAddr>,
    /// Degraded capture: what the fault injector did.
    pub faults: Option<FaultLog>,
}

impl FrameInputs {
    /// A digest of the generated inputs: equal seeds must give equal
    /// inputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(&self.capture);
        for (param, db) in &self.references {
            h.u64(param.index() as u64);
            for (mac, sig) in db.iter() {
                h.bytes(&mac.octets());
                h.u64(sig.observation_count());
            }
        }
        h.finish()
    }
}

/// Builds a workload's inputs from its seed. `None` for an unknown name.
pub fn setup(workload: &str, seed: u64) -> Option<Result<(FrameInputs, SetupTimes), String>> {
    Some(match workload {
        "office_replay" => office(seed, false),
        "crowd_rotation" => crowd(seed),
        "noisy_supervised" => office(seed, true),
        _ => return None,
    })
}

/// An office2-shaped capture (135 clients, 3 APs, WPA); the first
/// `OFFICE_TRAIN` trains the references, the rest is replayed — clean,
/// or degraded by the noisy fault mix for the supervised workload.
fn office(seed: u64, noisy: bool) -> Result<(FrameInputs, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let frames = simulate(seed, OFFICE_TRAIN + OFFICE_DETECT);
    times.sim_s = t.elapsed().as_secs_f64();

    let config = MultiConfig::default()
        .with_window(OFFICE_WINDOW)
        .with_match_config(MatchConfig::quantized());
    let split = frames.partition_point(|f| f.t_end < OFFICE_TRAIN);
    let t = Instant::now();
    let references = train(&frames[..split], &config)?;
    times.train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut detect: Vec<CapturedFrame> = frames[split..]
        .iter()
        .take(OFFICE_RECORDS)
        .copied()
        .collect();
    let mut faults = None;
    if noisy {
        // pcap keeps microseconds: quantize before degrading, so the
        // injector's ledger describes exactly the stream the engine sees.
        for f in &mut detect {
            f.t_end = Nanos::from_micros(f.t_end.as_micros());
        }
        let (degraded, log) = FaultInjector::new(FaultPlan::noisy(), seed).degrade(&detect);
        detect = degraded;
        faults = Some(log);
    }
    let capture = export(&detect)?;
    times.export_s = t.elapsed().as_secs_f64();
    let resilience = if noisy {
        ResilienceConfig::tolerant()
    } else {
        ResilienceConfig::default()
    };
    Ok((
        FrameInputs {
            capture,
            records: detect.len() as u64,
            references,
            config,
            resilience,
            supervised: noisy,
            true_device: BTreeMap::new(),
            faults,
        },
        times,
    ))
}

/// `CROWD_POPULATIONS` independently seeded offices enrolled into one
/// u8 reference store per parameter (addresses moved to a per-population
/// OUI so they cannot collide); the next `CROWD_DETECT` of all of them,
/// merged into one capture, rotates every transmitter to a fresh random
/// address each window, so every candidate is a stranger carrying its
/// signatures to the linker.
fn crowd(seed: u64) -> Result<(FrameInputs, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let config = MultiConfig::default()
        .with_window(CROWD_WINDOW)
        .with_min_observations(CROWD_MIN_OBSERVATIONS)
        .with_match_config(MatchConfig::quantized());
    let mut references: BTreeMap<NetworkParameter, ReferenceDb> = BTreeMap::new();
    let mut detect = Vec::new();
    for k in 0..CROWD_POPULATIONS {
        let pop_seed = seed.wrapping_mul(CROWD_POPULATIONS).wrapping_add(k);
        let t = Instant::now();
        let mut frames = simulate(pop_seed, CROWD_TRAIN + CROWD_DETECT);
        let oui = [0x02, 0xB0, k as u8];
        for f in &mut frames {
            f.transmitter = f.transmitter.map(|m| m.with_oui(oui));
            if !f.receiver.is_multicast() {
                f.receiver = f.receiver.with_oui(oui);
            }
        }
        times.sim_s += t.elapsed().as_secs_f64();

        let split = frames.partition_point(|f| f.t_end < CROWD_TRAIN);
        let t = Instant::now();
        for (param, db) in train(&frames[..split], &config)? {
            let merged = references
                .entry(param)
                .or_insert_with(|| ReferenceDb::with_config(config.match_config));
            for (mac, sig) in db.iter() {
                merged
                    .insert(mac, sig.clone())
                    .map_err(|e| format!("enroll {mac}: {e}"))?;
            }
        }
        times.train_s += t.elapsed().as_secs_f64();
        detect.extend(shape_crowd(&frames[split..]));
    }

    let t = Instant::now();
    detect.sort_by_key(|f| f.t_end);
    // Originals in first-seen order: the rotation ledger's device index.
    let mut originals: Vec<MacAddr> = Vec::new();
    for f in &detect {
        if let Some(tx) = f.transmitter {
            if !originals.contains(&tx) {
                originals.push(tx);
            }
        }
    }
    let ledger = rotate_frames(
        &mut detect,
        RotationPolicy::Periodic { period: 1 },
        seed,
        CROWD_WINDOW,
    );
    let true_device = originals
        .iter()
        .enumerate()
        .flat_map(|(idx, &orig)| ledger.macs_of(idx).iter().map(move |&mac| (mac, orig)))
        .collect();
    let capture = export(&detect)?;
    times.export_s = t.elapsed().as_secs_f64();
    Ok((
        FrameInputs {
            capture,
            records: detect.len() as u64,
            references,
            config,
            resilience: ResilienceConfig::default(),
            supervised: false,
            true_device,
            faults: None,
        },
        times,
    ))
}

/// Keeps the first `CROWD_DEVICES` transmitters (by address) that send at
/// least `CROWD_FRAMES` frames in every detection window, and exactly
/// their first `CROWD_FRAMES` frames of each window.
fn shape_crowd(detect: &[CapturedFrame]) -> Vec<CapturedFrame> {
    let window_of = |f: &CapturedFrame| f.t_end.as_nanos() / CROWD_WINDOW.as_nanos();
    let windows: BTreeSet<u64> = detect.iter().map(window_of).collect();
    let mut counts: BTreeMap<MacAddr, BTreeMap<u64, usize>> = BTreeMap::new();
    for f in detect {
        if let Some(tx) = f.transmitter {
            *counts
                .entry(tx)
                .or_default()
                .entry(window_of(f))
                .or_default() += 1;
        }
    }
    let chosen: BTreeSet<MacAddr> = counts
        .iter()
        .filter(|(_, per)| {
            windows
                .iter()
                .all(|w| per.get(w).is_some_and(|&n| n >= CROWD_FRAMES))
        })
        .map(|(&tx, _)| tx)
        .take(CROWD_DEVICES)
        .collect();
    let mut kept: BTreeMap<(MacAddr, u64), usize> = BTreeMap::new();
    detect
        .iter()
        .filter(|f| {
            f.transmitter
                .filter(|tx| chosen.contains(tx))
                .is_some_and(|tx| {
                    let n = kept.entry((tx, window_of(f))).or_default();
                    *n += 1;
                    *n <= CROWD_FRAMES
                })
        })
        .copied()
        .collect()
}

fn simulate(seed: u64, duration: Nanos) -> Vec<CapturedFrame> {
    OfficeScenario {
        duration,
        ..OfficeScenario::office2(seed)
    }
    .run_collect()
    .frames
}

/// Trains per-parameter references on a capture prefix with the engine's
/// own enrollment phase.
fn train(
    frames: &[CapturedFrame],
    config: &MultiConfig,
) -> Result<BTreeMap<NetworkParameter, ReferenceDb>, String> {
    let mut engine = MultiEngine::builder()
        .config(config.clone())
        .train_for(Nanos::from_secs(24 * 3600))
        .build()
        .map_err(|e| e.to_string())?;
    for f in frames {
        engine.observe(f).map_err(|e| e.to_string())?;
    }
    engine.finish().map_err(|e| e.to_string())?;
    Ok(engine.into_references())
}

/// Writes frames as an in-memory radiotap pcap.
fn export(frames: &[CapturedFrame]) -> Result<Vec<u8>, String> {
    let mut writer =
        Writer::new(Vec::new(), LinkType::Ieee80211Radiotap).map_err(|e| e.to_string())?;
    for f in frames {
        writer
            .write_record(&to_pcap_record(f))
            .map_err(|e| e.to_string())?;
    }
    Ok(writer.into_inner())
}

/// The linker the frame workloads feed: the fused-engine shape.
fn frame_linker() -> RotationLinker {
    RotationLinker::new(LinkerConfig::default()).expect("default linker configuration is valid")
}

/// What one end-to-end pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    pub wall_ns: u64,
    pub inputs: u64,
    /// Per linker decision, in milliseconds: from the arrival of the first
    /// frame past its window's end (or the `finish` call) to the decision
    /// on that window's event.
    pub latencies_ms: Vec<f64>,
    pub digest: u64,
    /// Decode errors + engine rejections + quarantined + shed.
    pub failed: u64,
    /// Failed correctness checks, described.
    pub violations: Vec<String>,
    pub fused_matches: u64,
    pub fused_match_hits: u64,
    pub strangers_scored: u64,
    pub stranger_hits: u64,
    pub windows: u64,
    pub candidates: u64,
    pub linker: LinkerStats,
    pub health: EngineHealth,
    pub ingest: Option<IngestStats>,
}

/// Runs one pass of the workload, tracing the calls into each layer when
/// the tracer is on.
pub fn run_pass(inp: &FrameInputs, tracer: &mut Tracer) -> PassOutcome {
    if inp.supervised {
        frames_supervised(inp, tracer)
    } else {
        frames_direct(inp, tracer)
    }
}

/// Builds the detection engine; `pub` so the isolated stage runs use
/// the very same configuration.
pub fn build_engine(inp: &FrameInputs) -> MultiEngine {
    let refs = inp
        .references
        .iter()
        .map(|(&p, db)| (p, db.snapshot()))
        .collect();
    MultiEngine::builder()
        .config(inp.config.clone())
        .references(refs)
        .resilience(inp.resilience.clone())
        .build()
        .expect("trained references build a valid engine")
}

/// Event bookkeeping shared by the direct and supervised passes: digest,
/// accuracy, latency of sealed windows, and the hand-off to the linker.
struct Sink<'a> {
    inp: &'a FrameInputs,
    linker: RotationLinker,
    clock: WindowClock,
    t_max: Nanos,
    sealed: Vec<(usize, Instant)>,
    digest: Fnv,
    out: PassOutcome,
}

impl<'a> Sink<'a> {
    fn new(inp: &'a FrameInputs) -> Self {
        Sink {
            inp,
            linker: frame_linker(),
            clock: WindowClock::new(inp.config.window),
            t_max: Nanos::ZERO,
            sealed: Vec::new(),
            digest: Fnv::new(),
            out: PassOutcome::default(),
        }
    }

    /// Notes the arrival of a frame about to enter the engine: the first
    /// arrival past a window's end on the capture clock starts that
    /// window's decision latency.
    #[inline]
    fn arriving(&mut self, t: Nanos) {
        self.t_max = self.t_max.max(t);
        if let Some(w) = self.clock.observe(self.t_max) {
            self.sealed.push((w, Instant::now()));
        }
    }

    /// The stream is ending: the still-open window seals now.
    fn ending(&mut self) {
        if let Some(w) = self.clock.finish() {
            self.sealed.push((w, Instant::now()));
        }
    }

    fn events(&mut self, events: &[MultiEvent], tracer: &mut Tracer) {
        let window_ns = self.inp.config.window.as_nanos();
        for ev in events {
            match ev {
                MultiEvent::Enrolled { device, .. } => {
                    self.digest.u64(0);
                    self.digest.bytes(&device.octets());
                }
                MultiEvent::FusedMatch {
                    window,
                    device,
                    fused,
                    ..
                }
                | MultiEvent::FusedNewDevice {
                    window,
                    device,
                    fused,
                    ..
                } => {
                    let is_match = matches!(ev, MultiEvent::FusedMatch { .. });
                    let best = fused.as_ref().and_then(|f| f.best()).map(|(mac, _)| mac);
                    self.digest.u64(if is_match { 1 } else { 2 });
                    self.digest.u64(*window as u64);
                    self.digest.bytes(&device.octets());
                    self.digest.bytes(&best.unwrap_or(MacAddr::ZERO).octets());
                    if is_match {
                        self.out.fused_matches += 1;
                        self.out.fused_match_hits += u64::from(best == Some(*device));
                    } else if let (Some(truth), Some(best)) =
                        (self.inp.true_device.get(device), best)
                    {
                        self.out.strangers_scored += 1;
                        self.out.stranger_hits += u64::from(best == *truth);
                    }
                    let at = Nanos::from_nanos(*window as u64 * window_ns);
                    let s = tracer.open();
                    let decision = self.linker.observe_multi(ev, at);
                    tracer.close(s, "linker.observe_multi");
                    if let Some(d) = decision {
                        digest_link(&mut self.digest, &d);
                    }
                    if let Some(&(_, sealed)) = self.sealed.iter().find(|&&(w, _)| w == *window) {
                        self.out
                            .latencies_ms
                            .push(sealed.elapsed().as_secs_f64() * 1e3);
                    }
                }
                MultiEvent::WindowClosed {
                    window, candidates, ..
                } => {
                    self.digest.u64(3);
                    self.digest.u64(*window as u64);
                    self.digest.u64(*candidates as u64);
                    self.out.windows += 1;
                    self.out.candidates += *candidates as u64;
                    self.sealed.retain(|&(w, _)| w != *window);
                }
            }
        }
    }

    fn finish(mut self, start: Instant, replay: &ReplayStats) -> PassOutcome {
        self.out.wall_ns = start.elapsed().as_nanos() as u64;
        self.out.inputs = replay.records;
        self.out.failed += replay.decode_errors();
        if replay.decoded + replay.decode_errors() != replay.records {
            self.out
                .violations
                .push(format!("replay ledger leaks: {replay:?}"));
        }
        if replay.records != self.inp.records {
            self.out.violations.push(format!(
                "replayed {} records, exported {}",
                replay.records, self.inp.records
            ));
        }
        if !self.sealed.is_empty() {
            self.out
                .violations
                .push(format!("{} sealed windows never closed", self.sealed.len()));
        }
        self.out.linker = self.linker.stats();
        if !self.out.linker.conserves() {
            self.out
                .violations
                .push(format!("linker ledger leaks: {:?}", self.out.linker));
        }
        self.out.digest = self.digest.finish();
        self.out
    }
}

fn digest_link(h: &mut Fnv, d: &LinkEvent) {
    let (kind, id) = match d {
        LinkEvent::Linked { identity, .. } => (4, identity.0),
        LinkEvent::NewIdentity { identity, .. } => (5, identity.0),
        LinkEvent::Ambiguous { .. } => (6, 0),
    };
    h.u64(kind);
    h.u64(id);
}

fn is_close(events: &[MultiEvent]) -> bool {
    events
        .iter()
        .any(|e| matches!(e, MultiEvent::WindowClosed { .. }))
}

/// `Replay::from_slice` → `MultiEngine::observe`/`finish` →
/// `RotationLinker::observe_multi`, on the producer thread.
fn frames_direct(inp: &FrameInputs, tracer: &mut Tracer) -> PassOutcome {
    let mut engine = build_engine(inp);
    let mut sink = Sink::new(inp);
    let pass = tracer.open();
    let start = Instant::now();
    let mut replay = Replay::from_slice(&inp.capture).expect("exported capture is radiotap");
    loop {
        let s = tracer.open();
        let next = replay.next_frame();
        tracer.close(s, "pcap.next_frame");
        let frame = match next {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                sink.out
                    .violations
                    .push(format!("capture stream broke: {e}"));
                break;
            }
        };
        sink.arriving(frame.t_end);
        let s = tracer.open();
        let result = engine.observe(&frame);
        let sealing = result.as_ref().is_ok_and(|ev| is_close(ev));
        tracer.close(
            s,
            if sealing {
                "engine.observe_close"
            } else {
                "engine.observe"
            },
        );
        match result {
            Ok(events) => sink.events(&events, tracer),
            Err(_) => sink.out.failed += 1,
        }
    }
    sink.ending();
    let events = tracer.span("engine.finish", || engine.finish());
    match events {
        Ok(events) => sink.events(&events, tracer),
        Err(e) => sink.out.violations.push(format!("finish failed: {e}")),
    }
    let stats = replay.stats();
    let mut out = sink.finish(start, &stats);
    tracer.close(pass, "pass");
    tracer.end_pass();
    out.health = engine.health();
    if !out
        .health
        .conserves(engine.frames_observed(), engine.pending_frames() as u64)
    {
        out.violations
            .push(format!("engine health leaks: {:?}", out.health));
    }
    out
}

/// The same path with the engine behind the supervised ingest front:
/// `IngestPipeline::submit` under `Block`, events drained to the linker
/// every `DRAIN_EVERY` submissions and after `finish`.
fn frames_supervised(inp: &FrameInputs, tracer: &mut Tracer) -> PassOutcome {
    let engine = build_engine(inp);
    let mut sink = Sink::new(inp);
    let pass = tracer.open();
    let start = Instant::now();
    let pipeline =
        IngestPipeline::spawn(engine, IngestConfig::default()).expect("ingest worker spawns");
    let mut replay = Replay::from_slice(&inp.capture).expect("exported capture is radiotap");
    let mut submitted = 0u64;
    loop {
        let s = tracer.open();
        let next = replay.next_frame();
        tracer.close(s, "pcap.next_frame");
        let frame = match next {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                sink.out
                    .violations
                    .push(format!("capture stream broke: {e}"));
                break;
            }
        };
        sink.arriving(frame.t_end);
        let s = tracer.open();
        let submit = pipeline.submit(&frame);
        tracer.close(s, "ingest.submit");
        if submit.is_err() {
            sink.out.failed += 1;
        }
        submitted += 1;
        if submitted.is_multiple_of(DRAIN_EVERY) {
            let s = tracer.open();
            let events = pipeline.drain_events();
            tracer.close(s, "ingest.drain_events");
            sink.events(&events, tracer);
        }
    }
    sink.ending();
    let report = tracer.span("ingest.finish", || pipeline.finish());
    let stats = replay.stats();
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            let mut out = sink.finish(start, &stats);
            out.violations
                .push(format!("supervised session failed: {e}"));
            tracer.close(pass, "pass");
            tracer.end_pass();
            return out;
        }
    };
    sink.events(&report.events, tracer);
    let mut out = sink.finish(start, &stats);
    tracer.close(pass, "pass");
    tracer.end_pass();
    out.health = report.health;
    out.ingest = Some(report.stats);
    out.failed += report.health.frames_quarantined + report.health.frames_shed;
    if !report.is_reconciled() {
        out.violations
            .push(format!("ingest ledger leaks: {:?}", report.health));
    }
    if let Some(log) = inp.faults {
        let h = report.health;
        if h.frames_seen != log.emitted {
            out.violations
                .push(format!("seen {} vs emitted {}", h.frames_seen, log.emitted));
        }
        if h.frames_duplicate != log.duplicated {
            out.violations.push(format!(
                "duplicates {} vs injected {}",
                h.frames_duplicate, log.duplicated
            ));
        }
        // Inversions of dropped duplicates never reach the reorder
        // buffer, and the depth-8 displacement stays inside its 64-frame
        // horizon, so nothing may arrive too late.
        if h.frames_reordered == 0
            || h.frames_reordered > log.inversions
            || h.frames_late_dropped != 0
        {
            out.violations.push(format!(
                "reordered {} / late {} vs injected inversions {}",
                h.frames_reordered, h.frames_late_dropped, log.inversions
            ));
        }
    }
    out
}

/// 64-bit FNV-1a, for input and event digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_has_no_setup() {
        assert!(setup("no_such_workload", 1).is_none());
    }
}
