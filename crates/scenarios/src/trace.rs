//! Common trace infrastructure: scenario output types and the sim
//! runners — including [`run_multi_engine`], which streams a simulation
//! straight into a fingerprinting [`MultiEngine`] without collecting the
//! trace.

use std::collections::BTreeMap;

use wifiprint_core::{EngineError, MultiEngine, MultiEvent};
use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_netsim::{SimStats, Simulator};
use wifiprint_radiotap::CapturedFrame;

/// Ground truth and statistics for a generated trace.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Simulator statistics.
    pub stats: SimStats,
    /// Device address → profile name, for ground-truth checks.
    pub device_profiles: BTreeMap<MacAddr, String>,
    /// The APs present in the trace.
    pub aps: Vec<MacAddr>,
    /// The trace duration.
    pub duration: Nanos,
}

/// A fully collected trace: every captured frame in timestamp order plus
/// the report.
///
/// For very long scenarios prefer the streaming entry points, which avoid
/// holding millions of frames in memory.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Captured frames in timestamp order.
    pub frames: Vec<CapturedFrame>,
    /// Ground truth and statistics.
    pub report: TraceReport,
}

impl Trace {
    /// The set of transmitter addresses appearing in the trace.
    pub fn transmitters(&self) -> BTreeMap<MacAddr, usize> {
        let mut out = BTreeMap::new();
        for f in &self.frames {
            if let Some(t) = f.transmitter {
                *out.entry(t).or_insert(0) += 1;
            }
        }
        out
    }
}

/// Runs a prepared simulator, streaming captures into `sink`.
pub fn run_streaming(
    mut sim: Simulator,
    duration: Nanos,
    device_profiles: BTreeMap<MacAddr, String>,
    aps: Vec<MacAddr>,
    sink: &mut dyn FnMut(&CapturedFrame),
) -> TraceReport {
    let stats = sim.run(sink);
    TraceReport { stats, device_profiles, aps, duration }
}

/// Runs a prepared simulator, collecting all captures.
pub fn run_collect(
    sim: Simulator,
    duration: Nanos,
    device_profiles: BTreeMap<MacAddr, String>,
    aps: Vec<MacAddr>,
) -> Trace {
    let mut frames = Vec::new();
    let report = run_streaming(sim, duration, device_profiles, aps, &mut |f| frames.push(*f));
    Trace { frames, report }
}

/// Runs a prepared simulator, streaming every capture straight into a
/// fingerprinting [`MultiEngine`] — the online deployment shape: monitor
/// → engine, no trace collection. One header parse per frame feeds every
/// parameter of the engine's spec, with decisions as windows close. The
/// engine is *not* finished, so a caller can run several scenarios into
/// one engine before sealing the final window with
/// [`MultiEngine::finish`].
///
/// Built on [`run_streaming`]: the sink observes each frame and latches
/// the first engine error (subsequent frames are dropped, as a live
/// capture would drop them once its consumer died).
///
/// # Errors
///
/// The first [`MultiEngine::observe`] error, after the simulation
/// completes.
pub fn run_multi_engine(
    sim: Simulator,
    duration: Nanos,
    device_profiles: BTreeMap<MacAddr, String>,
    aps: Vec<MacAddr>,
    engine: &mut MultiEngine,
) -> Result<(Vec<MultiEvent>, TraceReport), EngineError> {
    let mut events = Vec::new();
    let mut failure: Option<EngineError> = None;
    let report = run_streaming(sim, duration, device_profiles, aps, &mut |f| {
        if failure.is_none() {
            match engine.observe(f) {
                Ok(mut ev) => events.append(&mut ev),
                Err(e) => failure = Some(e),
            }
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok((events, report)),
    }
}
