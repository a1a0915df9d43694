//! The supervised ingest front: back-pressure, overload shedding,
//! panic isolation and stall watchdogs around the streaming engine.
//!
//! [`ResilienceConfig`](super::ResilienceConfig) hardens the engine
//! against *degraded frames*; this module hardens it against *degraded
//! flow*. An [`IngestPipeline`] owns a [`MultiEngine`] on a supervised
//! worker thread behind a bounded multi-producer ring:
//!
//! * **Back-pressure** — the ring is bounded; an [`OverloadPolicy`]
//!   decides what a full ring does to a submission: `Block` (lossless,
//!   the default), `ShedNewest` (drop the submission) or `ShedOldest`
//!   (drop the stalest queued frame). Every shed is counted in
//!   [`EngineHealth::frames_shed`] and reconciles exactly against the
//!   conservation law ([`EngineHealth::conserves`]).
//!   [`IngestConfig::capacity`] bounds the *queued* frames. The worker
//!   takes up to 64 of them at a time under one lock and holds them
//!   until it has handed each to the engine, so at most 64 more frames
//!   are in flight beyond the ring, where no policy sheds them
//!   ([`IngestStats::ring_pending`] counts both).
//! * **Wake-ups** — a submitter wakes the worker only when the worker
//!   sleeps on an empty ring, and the worker wakes submitters only when
//!   one is blocked on a full ring. Under `Block` with a full ring, the
//!   blocked submitter therefore resumes once per batch the worker
//!   takes, not once per frame.
//! * **Panic isolation** — the worker wraps the window sweep in
//!   [`std::panic::catch_unwind`]. A frame whose sweep panics is
//!   quarantined together with the panic message (the most recent 32
//!   are retained, [`IngestPipeline::quarantined`]), the worker restarts
//!   around the *same* engine state and the rest of its batch, and the
//!   stream stays alive ([`EngineHealth::workers_restarted`]).
//!   Frames the engine rejects with an [`EngineError`] (e.g. a late
//!   frame under the strict policy) quarantine through the same path.
//! * **Stall watchdog** — with [`IngestConfig::stall_timeout`] set, a
//!   ring that stays empty past the deadline drives
//!   [`MultiEngine::tick`], so a silent source can never stall a window
//!   decision. The deadline runs while the worker waits for its next
//!   batch, once it has handed every held frame to the engine. The
//!   watchdog trades bit-exact replay determinism for liveness; leave it
//!   `None` when events must be bit-identical to the synchronous run.
//! * **Ordered delivery** — one worker pops the ring in FIFO order and
//!   appends each frame's, tick's or finish's events to one delivery
//!   buffer as soon as the engine returns them (per frame, never per
//!   batch), so events arrive in the order the engine emitted them. A
//!   shed or quarantined frame simply emits nothing. Under
//!   `OverloadPolicy::Block` with no faults and no watchdog, the
//!   delivered event stream is **bit-identical** to calling `observe`
//!   synchronously — a property test pins this for one-parameter and
//!   five-parameter specs.
//!
//! # Chaos probes
//!
//! Real poison frames are rare and not reproducible on demand, so the
//! supervision path is exercised through two explicitly-labelled chaos
//! knobs: [`IngestConfig::panic_probe`] makes the worker panic on
//! matching frames (simulating a sweep panic, inside the same
//! `catch_unwind` envelope that guards the real sweep), and
//! [`IngestConfig::sweep_delay`] simulates a slow sweep so overload is
//! reachable at test scale. Both default to off and add nothing to the
//! production path.
//!
//! # Example
//!
//! ```
//! use wifiprint_core::engine::ingest::{IngestConfig, IngestPipeline};
//! use wifiprint_core::{FusionSpec, MultiEngine, NetworkParameter};
//! use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
//! use wifiprint_radiotap::CapturedFrame;
//!
//! let engine = MultiEngine::builder()
//!     .spec(FusionSpec::single(NetworkParameter::InterArrivalTime))
//!     .train_for(Nanos::from_secs(3600))
//!     .build()
//!     .expect("valid engine configuration");
//! let pipeline = IngestPipeline::spawn(engine, IngestConfig::default())
//!     .expect("worker spawns");
//!
//! let sta = MacAddr::from_index(1);
//! let ap = MacAddr::from_index(2);
//! for i in 0..200u64 {
//!     let f = Frame::data_to_ds(sta, ap, ap, 500);
//!     let cap = CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(800 * (i + 1)), -50);
//!     pipeline.submit(&cap).expect("pipeline accepts while open");
//! }
//! let report = pipeline.finish().expect("supervised session terminates");
//! assert_eq!(report.health.frames_seen, 200);
//! assert!(report.is_reconciled(), "seen = delivered + dropped + shed + quarantined");
//! ```

mod state;

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use wifiprint_radiotap::CapturedFrame;

use self::state::{PopOutcome, RingState, Ticket};
use super::resilience::EngineHealth;
use super::{EngineError, MultiEngine, MultiEvent};

/// What a full ingest ring does to a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum OverloadPolicy {
    /// Apply back-pressure: the submitter blocks until the worker makes
    /// room. Lossless — the default, and the policy under which the
    /// pipeline's event stream is bit-identical to synchronous
    /// `observe`.
    #[default]
    Block,
    /// Shed the submission itself: the newest frame is dropped and
    /// counted, the submitter never blocks. Keeps stale queued frames —
    /// prefer when earlier frames carry more decision value.
    ShedNewest,
    /// Shed the stalest queued frame to make room for the submission.
    /// Keeps the stream fresh under sustained overload — the classic
    /// monitor ring-buffer behaviour.
    ShedOldest,
}

/// Configuration of a supervised [`IngestPipeline`].
#[derive(Clone, Copy)]
pub struct IngestConfig {
    /// Ring capacity in frames (default 1024; clamped to at least 1).
    /// It bounds the frames *queued*; the worker holds up to 64 more
    /// that it has taken from the ring and not yet handed to the engine.
    pub capacity: usize,
    /// Full-ring policy (default [`OverloadPolicy::Block`]).
    pub overload: OverloadPolicy,
    /// Stall watchdog deadline: when the ring stays empty this long,
    /// the worker drives the engine's [`MultiEngine::tick`] —
    /// `advance_to(open window's end)` — so the open window still gets
    /// its decision. Its later frames are late frames under the engine's
    /// [`LateFramePolicy`](super::LateFramePolicy): quarantined with their
    /// engine error under `Reject`, counted in
    /// [`EngineHealth::frames_late_dropped`] under `Reorder`, which a
    /// bursty or replayed source wants. `None` (default) disables the
    /// watchdog — required for bit-exact equivalence with synchronous
    /// `observe`.
    pub stall_timeout: Option<Duration>,
    /// Chaos knob: a per-frame artificial sweep cost, so overload
    /// behaviour is testable at small scale. `Duration::ZERO` (default)
    /// adds nothing to the processing path.
    pub sweep_delay: Duration,
    /// Chaos knob: frames matching the probe panic inside the worker's
    /// `catch_unwind` envelope, exercising quarantine + restart with a
    /// real unwinding panic. `None` (default) panics on nothing.
    pub panic_probe: Option<fn(&CapturedFrame) -> bool>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            capacity: 1024,
            overload: OverloadPolicy::Block,
            stall_timeout: None,
            sweep_delay: Duration::ZERO,
            panic_probe: None,
        }
    }
}

impl fmt::Debug for IngestConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestConfig")
            .field("capacity", &self.capacity)
            .field("overload", &self.overload)
            .field("stall_timeout", &self.stall_timeout)
            .field("sweep_delay", &self.sweep_delay)
            .field("panic_probe", &self.panic_probe.map(|_| "fn"))
            .finish()
    }
}

impl IngestConfig {
    /// Returns a copy with a different ring capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Returns a copy with a different overload policy.
    #[must_use]
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Returns a copy with a stall-watchdog deadline.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Returns a copy with an artificial per-frame sweep cost (chaos
    /// knob).
    #[must_use]
    pub fn with_sweep_delay(mut self, delay: Duration) -> Self {
        self.sweep_delay = delay;
        self
    }

    /// Returns a copy with a panic probe (chaos knob).
    #[must_use]
    pub fn with_panic_probe(mut self, probe: Option<fn(&CapturedFrame) -> bool>) -> Self {
        self.panic_probe = probe;
        self
    }
}

/// One quarantined frame: the frame and why it was poisoned (panic
/// message or engine error).
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// The frame itself, retained for offline inspection.
    pub frame: CapturedFrame,
    /// The panic payload (for an isolated panic) or the engine error's
    /// display (for a rejected frame).
    pub reason: String,
}

/// Quarantined frames retained for inspection; older entries are
/// evicted first. The cap bounds *retention*, not accounting: evicted
/// entries stay counted in [`EngineHealth::frames_quarantined`].
const QUARANTINE_CAPACITY: usize = 32;

/// A point-in-time snapshot of the pipeline-level counters, readable
/// while the worker is still running ([`IngestPipeline::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct IngestStats {
    /// Frames submitted to the ring.
    pub submitted: u64,
    /// Frames shed by the overload policy.
    pub shed: u64,
    /// Frames quarantined (panic or engine rejection).
    pub quarantined: u64,
    /// Worker restarts after an isolated panic.
    pub worker_restarts: u64,
    /// Watchdog deadline expiries that drove a `tick`.
    pub watchdog_ticks: u64,
    /// Frames submitted and not yet handed to the engine: those queued
    /// in the ring plus those the worker has popped and not yet observed
    /// (the rest of its batch and the frame in flight). With no shed and
    /// no panic, `submitted = latency_samples + ring_pending`, give or
    /// take the one frame the worker is retiring at that instant.
    pub ring_pending: u64,
    /// Sum of enqueue→processed latency over all processed frames, in
    /// nanoseconds.
    pub latency_ns_sum: u64,
    /// Processed frames contributing to the latency sum.
    pub latency_samples: u64,
    /// Worst single enqueue→processed latency, in nanoseconds.
    pub latency_max_ns: u64,
}

impl IngestStats {
    /// Shed fraction of everything submitted (0 when nothing was).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }

    /// Mean enqueue→processed latency in nanoseconds (0 with no
    /// samples).
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        if self.latency_samples == 0 {
            0.0
        } else {
            self.latency_ns_sum as f64 / self.latency_samples as f64
        }
    }
}

/// Pipeline-level counters, shared between submitters, the worker and
/// snapshot readers.
#[derive(Debug, Default)]
struct SharedStats {
    submitted: AtomicU64,
    shed: AtomicU64,
    quarantined: AtomicU64,
    worker_restarts: AtomicU64,
    watchdog_ticks: AtomicU64,
    latency_ns_sum: AtomicU64,
    latency_samples: AtomicU64,
    latency_max_ns: AtomicU64,
    /// Frames the engine core counted during an observe that then
    /// panicked — subtracted from `frames_observed()` so `delivered`
    /// and `quarantined` never double-count a frame.
    panic_observed_adjust: AtomicU64,
}

/// Everything the producers and the worker share.
#[derive(Debug)]
struct PipelineShared {
    ring: RingState,
    /// Delivered events not yet drained, in the order the engine
    /// emitted them.
    events: Mutex<Vec<MultiEvent>>,
    /// The most recent [`QUARANTINE_CAPACITY`] quarantined frames,
    /// oldest first.
    quarantine: Mutex<VecDeque<Quarantined>>,
    stats: SharedStats,
}

/// The outcome [`IngestPipeline::submit`] reports for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The frame was enqueued (possibly after blocking for room).
    Enqueued,
    /// [`OverloadPolicy::ShedNewest`]: the submitted frame was shed.
    ShedNewest,
    /// [`OverloadPolicy::ShedOldest`]: the frame was enqueued and the
    /// stalest queued frame was shed to make room.
    ShedOldest,
}

/// The terminal report of a supervised session: the ordered event
/// stream, the engine itself (for `into_references` etc.), the merged
/// health ledger, the pipeline counters, and the retained quarantine.
#[derive(Debug)]
pub struct IngestReport {
    /// Every delivered event, in the order the engine emitted it.
    pub events: Vec<MultiEvent>,
    /// The engine, already `finish()`ed by the worker.
    pub engine: MultiEngine,
    /// The merged health ledger: the engine's gate counters with
    /// `frames_seen` replaced by the submission count and the
    /// shed/quarantined/restarted counters filled in.
    pub health: EngineHealth,
    /// Final pipeline counters.
    pub stats: IngestStats,
    /// The retained quarantined frames, oldest first (the most recent
    /// 32; [`EngineHealth::frames_quarantined`] counts them all).
    pub quarantine: Vec<Quarantined>,
    /// Frames the engine core consumed, net of panic-interrupted ones.
    pub delivered: u64,
}

impl IngestReport {
    /// Whether the session satisfies the conservation law exactly:
    /// `seen = delivered + dropped + shed + quarantined` (everything is
    /// drained after `finish`, so `pending = 0`).
    #[must_use]
    pub fn is_reconciled(&self) -> bool {
        self.health.conserves(self.delivered, self.engine.pending_frames() as u64)
    }
}

/// A supervised ingest front around one [`MultiEngine`]: bounded ring,
/// overload policy, panic-isolating worker, stall watchdog and ordered
/// event delivery. See the [module docs](self).
#[derive(Debug)]
pub struct IngestPipeline {
    shared: Arc<PipelineShared>,
    worker: Option<JoinHandle<MultiEngine>>,
}

impl IngestPipeline {
    /// Spawns the supervised worker around `engine` and opens the ring
    /// for submissions.
    ///
    /// # Errors
    ///
    /// [`EngineError::Supervisor`] when the worker thread cannot be
    /// spawned.
    pub fn spawn(engine: MultiEngine, cfg: IngestConfig) -> Result<Self, EngineError> {
        let shared = Arc::new(PipelineShared {
            ring: RingState::new(cfg.capacity, cfg.overload),
            events: Mutex::new(Vec::new()),
            quarantine: Mutex::new(VecDeque::new()),
            stats: SharedStats::default(),
        });
        let worker_shared = Arc::clone(&shared);
        let stall_timeout = cfg.stall_timeout;
        let sweep_delay = cfg.sweep_delay;
        let probe = cfg.panic_probe;
        let worker = std::thread::Builder::new()
            .name("wifiprint-ingest".to_owned())
            .spawn(move || supervise(engine, &worker_shared, stall_timeout, sweep_delay, probe))
            .map_err(|e| EngineError::Supervisor { reason: format!("spawn worker: {e}") })?;
        Ok(IngestPipeline { shared, worker: Some(worker) })
    }

    /// Submits one frame under the configured overload policy (blocks
    /// only under [`OverloadPolicy::Block`] on a full ring). Any number
    /// of capture threads may submit at once by sharing
    /// `&IngestPipeline`, e.g. under [`std::thread::scope`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Finished`] once the pipeline is finishing.
    pub fn submit(&self, frame: &CapturedFrame) -> Result<SubmitOutcome, EngineError> {
        let outcome = self.shared.ring.push(frame)?;
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if outcome != SubmitOutcome::Enqueued {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        }
        Ok(outcome)
    }

    /// Takes every event delivered so far, in the order the engine
    /// emitted them.
    ///
    /// # Panics
    ///
    /// If the event lock is poisoned — impossible in practice: no code
    /// that can panic runs while it is held.
    pub fn drain_events(&self) -> Vec<MultiEvent> {
        std::mem::take(&mut *self.shared.events.lock().expect("events lock"))
    }

    /// A snapshot of the pipeline counters.
    #[must_use]
    pub fn stats(&self) -> IngestStats {
        let s = &self.shared.stats;
        IngestStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            quarantined: s.quarantined.load(Ordering::Relaxed),
            worker_restarts: s.worker_restarts.load(Ordering::Relaxed),
            watchdog_ticks: s.watchdog_ticks.load(Ordering::Relaxed),
            ring_pending: self.shared.ring.pending() as u64,
            latency_ns_sum: s.latency_ns_sum.load(Ordering::Relaxed),
            latency_samples: s.latency_samples.load(Ordering::Relaxed),
            latency_max_ns: s.latency_max_ns.load(Ordering::Relaxed),
        }
    }

    /// The retained quarantined frames so far, oldest first (clone; the
    /// worker keeps appending).
    ///
    /// # Panics
    ///
    /// If the quarantine lock is poisoned — impossible in practice: no
    /// code that can panic runs while it is held.
    #[must_use]
    pub fn quarantined(&self) -> Vec<Quarantined> {
        self.shared.quarantine.lock().expect("quarantine lock").iter().cloned().collect()
    }

    /// Closes the ring, lets the worker drain it and `finish()` the
    /// engine, joins the worker and returns the terminal
    /// [`IngestReport`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Supervisor`] if the worker died outside its panic
    /// isolation (a supervision bug, not a poison frame).
    ///
    /// # Panics
    ///
    /// If an internal lock is poisoned — impossible in practice: no code
    /// that can panic runs while one is held.
    pub fn finish(mut self) -> Result<IngestReport, EngineError> {
        self.shared.ring.close();
        let worker = self.worker.take().expect("finish consumes the only owner");
        let engine = worker.join().map_err(|_| EngineError::Supervisor {
            reason: "ingest worker died outside its panic isolation".to_owned(),
        })?;
        let events = self.drain_events();
        let stats = self.stats();
        let adjust = self.shared.stats.panic_observed_adjust.load(Ordering::Relaxed);
        let delivered = engine.frames_observed().saturating_sub(adjust);
        let mut health = engine.health();
        health.frames_seen = stats.submitted;
        health.frames_shed = stats.shed;
        health.frames_quarantined = stats.quarantined;
        health.workers_restarted = stats.worker_restarts;
        let quarantine = self.quarantined();
        Ok(IngestReport { events, engine, health, stats, quarantine, delivered })
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        // An abandoned pipeline must not leak its worker: close the
        // ring and wait for the drain. `finish()` takes the handle, so
        // this only runs for pipelines dropped without finishing.
        if let Some(worker) = self.worker.take() {
            self.shared.ring.close();
            let _ = worker.join();
        }
    }
}

/// The supervision loop: runs the worker under `catch_unwind`; on a
/// panic, quarantines the in-flight frame (with the panic message),
/// counts a restart, and re-enters the worker around the same engine.
/// The popped batch lives here, outside the unwind, so a restarted
/// worker resumes at the ticket after the poisoned one.
/// Returns the engine once the ring is closed and drained.
fn supervise(
    mut engine: MultiEngine,
    shared: &PipelineShared,
    stall_timeout: Option<Duration>,
    sweep_delay: Duration,
    probe: Option<fn(&CapturedFrame) -> bool>,
) -> MultiEngine {
    // The in-flight ticket, plus the engine-core frame count before its
    // observe — readable after an unwind, so the supervisor knows what
    // to quarantine and whether the core counted the doomed frame.
    let inflight: std::cell::Cell<Option<(Ticket, u64)>> = std::cell::Cell::new(None);
    let mut batch = VecDeque::new();
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(
                &mut engine,
                shared,
                &mut batch,
                &inflight,
                stall_timeout,
                sweep_delay,
                probe,
            );
        }));
        match run {
            Ok(()) => return engine,
            Err(payload) => {
                // `as_ref`, not `&payload`: coercing `&Box<dyn Any>`
                // would downcast against the Box itself and never match.
                let reason = panic_message(payload.as_ref());
                if let Some((ticket, observed_before)) = inflight.take() {
                    let double_counted =
                        engine.frames_observed().saturating_sub(observed_before);
                    shared
                        .stats
                        .panic_observed_adjust
                        .fetch_add(double_counted, Ordering::Relaxed);
                    quarantine_frame(shared, ticket, reason);
                    shared.ring.retire();
                } else {
                    // A panic outside frame processing (tick/finish):
                    // nothing to quarantine; restart and keep going.
                }
                shared.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn quarantine_frame(shared: &PipelineShared, ticket: Ticket, reason: String) {
    shared.stats.quarantined.fetch_add(1, Ordering::Relaxed);
    let mut quarantine = shared.quarantine.lock().expect("quarantine lock");
    if quarantine.len() == QUARANTINE_CAPACITY {
        quarantine.pop_front();
    }
    quarantine.push_back(Quarantined { frame: ticket.frame, reason });
}

/// Appends one frame's, tick's or finish's events to the delivery
/// buffer; an empty batch takes no lock.
fn deliver(shared: &PipelineShared, events: Vec<MultiEvent>) {
    if !events.is_empty() {
        shared.events.lock().expect("events lock").extend(events);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The worker proper: hands each held ticket to the engine and
/// delivers its events, popping the next batch once `batch` is empty.
/// The watchdog deadline runs only while waiting for a batch. Runs
/// until the ring is closed and drained; panics unwind to
/// [`supervise`].
fn worker_loop(
    engine: &mut MultiEngine,
    shared: &PipelineShared,
    batch: &mut VecDeque<Ticket>,
    inflight: &std::cell::Cell<Option<(Ticket, u64)>>,
    stall_timeout: Option<Duration>,
    sweep_delay: Duration,
    probe: Option<fn(&CapturedFrame) -> bool>,
) {
    loop {
        while let Some(ticket) = batch.pop_front() {
            inflight.set(Some((ticket, engine.frames_observed())));
            if !sweep_delay.is_zero() {
                std::thread::sleep(sweep_delay);
            }
            assert!(
                !probe.is_some_and(|p| p(&ticket.frame)),
                "chaos probe: poison frame at {} ns",
                ticket.frame.t_end.as_nanos()
            );
            let outcome = engine.observe(&ticket.frame);
            let latency = ticket.enqueued.elapsed().as_nanos() as u64;
            shared.stats.latency_ns_sum.fetch_add(latency, Ordering::Relaxed);
            shared.stats.latency_samples.fetch_add(1, Ordering::Relaxed);
            shared.stats.latency_max_ns.fetch_max(latency, Ordering::Relaxed);
            inflight.set(None);
            shared.ring.retire();
            match outcome {
                Ok(events) => deliver(shared, events),
                Err(e) => quarantine_frame(shared, ticket, e.to_string()),
            }
        }
        match shared.ring.pop_batch(batch, stall_timeout) {
            PopOutcome::Popped => {}
            PopOutcome::TimedOut => {
                // Stall watchdog: the source went silent past the
                // deadline — force the open window's decision so the
                // stream of decisions stays live.
                shared.stats.watchdog_ticks.fetch_add(1, Ordering::Relaxed);
                if let Ok(events) = engine.tick() {
                    deliver(shared, events);
                }
            }
            PopOutcome::Closed => {
                if let Ok(events) = engine.finish() {
                    deliver(shared, events);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::resilience::{LateFramePolicy, ResilienceConfig};
    use crate::engine::MultiConfig;
    use crate::fusion::FusionSpec;
    use crate::params::NetworkParameter;
    use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};

    fn capture(dev: u64, t_us: u64, payload: usize) -> CapturedFrame {
        let sta = MacAddr::from_index(dev + 1);
        let ap = MacAddr::from_index(99);
        let f = Frame::data_to_ds(sta, ap, ap, payload);
        CapturedFrame::from_frame(&f, Rate::R24M, Nanos::from_micros(t_us), -50)
    }

    fn stream(n: u64) -> Vec<CapturedFrame> {
        (0..n).map(|i| capture(i % 3, 500 * (i + 1), 200 + (i % 5) as usize * 100)).collect()
    }

    fn engine(resilience: ResilienceConfig) -> MultiEngine {
        MultiEngine::builder()
            .spec(FusionSpec::single(NetworkParameter::InterArrivalTime))
            .config(
                MultiConfig::default()
                    .with_min_observations(3)
                    .with_window(Nanos::from_millis(100)),
            )
            .train_for(Nanos::from_millis(200))
            .resilience(resilience)
            .build()
            .expect("valid engine configuration")
    }

    /// The poison marker the chaos probe recognises in these tests: a
    /// zero-size data frame (which no real capture produces here).
    fn is_poison(frame: &CapturedFrame) -> bool {
        frame.size == 0
    }

    /// The synchronous baseline: `observe` every frame, then `finish`.
    fn synchronous(engine: &mut MultiEngine, frames: &[CapturedFrame]) -> Vec<MultiEvent> {
        let mut events = engine.observe_all(frames).expect("accepted frames");
        events.extend(engine.finish().expect("finish"));
        events
    }

    /// Submits every frame through a supervised pipeline and finishes it.
    fn supervised(cfg: IngestConfig, frames: &[CapturedFrame]) -> IngestReport {
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        for f in frames {
            pipeline.submit(f).expect("open");
        }
        pipeline.finish().expect("terminates")
    }

    #[test]
    fn block_pipeline_matches_synchronous_observe() {
        let frames = stream(400);
        let want = synchronous(&mut engine(ResilienceConfig::default()), &frames);

        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), IngestConfig::default())
                .expect("spawn");
        for f in &frames {
            assert_eq!(pipeline.submit(f).expect("open"), SubmitOutcome::Enqueued);
        }
        let report = pipeline.finish().expect("terminates");
        assert_eq!(format!("{:?}", report.events), format!("{want:?}"));
        assert_eq!(report.health.frames_seen, 400);
        assert_eq!(report.health.frames_shed, 0);
        assert_eq!(report.delivered, 400);
        assert!(report.is_reconciled());
    }

    #[test]
    fn panic_probe_frames_are_quarantined_and_the_stream_survives() {
        let mut frames = stream(300);
        // Three poison frames scattered through the stream.
        for &i in &[50usize, 150, 250] {
            frames[i].size = 0;
        }
        let clean: Vec<CapturedFrame> =
            frames.iter().copied().filter(|f| !is_poison(f)).collect();
        let want = synchronous(&mut engine(ResilienceConfig::default()), &clean);

        let cfg = IngestConfig::default().with_panic_probe(Some(is_poison));
        let report = supervised(cfg, &frames);
        // A quarantined frame behaves exactly as if it was never
        // captured: the delivered event stream is the clean stream's.
        assert_eq!(format!("{:?}", report.events), format!("{want:?}"));
        assert_eq!(report.health.frames_quarantined, 3);
        assert_eq!(report.health.workers_restarted, 3);
        assert_eq!(report.quarantine.len(), 3);
        for q in &report.quarantine {
            assert!(q.reason.contains("chaos probe"), "reason: {}", q.reason);
            assert_eq!(q.frame.size, 0);
        }
        assert!(report.is_reconciled());
    }

    #[test]
    fn a_panic_mid_batch_loses_no_held_frame() {
        // A slow first frame lets the producer fill the ring, so the
        // worker's next pop takes a full batch with the poison frame in
        // its middle. The frames after it in that batch are held by the
        // worker, not queued: a restart must resume at the next one.
        let mut frames = stream(120);
        frames[40].size = 0;
        let clean: Vec<CapturedFrame> =
            frames.iter().copied().filter(|f| !is_poison(f)).collect();
        let want = synchronous(&mut engine(ResilienceConfig::default()), &clean);

        let cfg = IngestConfig::default()
            .with_panic_probe(Some(is_poison))
            .with_sweep_delay(Duration::from_millis(1));
        let report = supervised(cfg, &frames);
        assert_eq!(format!("{:?}", report.events), format!("{want:?}"));
        assert_eq!(report.health.frames_quarantined, 1);
        assert_eq!(report.health.workers_restarted, 1);
        assert_eq!(report.delivered, 119);
        assert!(report.is_reconciled(), "health: {:?}", report.health);
    }

    #[test]
    fn ring_pending_counts_the_frames_the_worker_holds() {
        // Each frame sleeps 100 ms in the worker, so for the first 100 ms
        // after the first submission no frame can have reached the
        // engine. Every snapshot taken wholly inside that span must
        // count all four frames pending, whether the worker has popped
        // them yet or not.
        let cfg = IngestConfig::default().with_sweep_delay(Duration::from_millis(100));
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        let start = std::time::Instant::now();
        for f in stream(4) {
            pipeline.submit(&f).expect("open");
        }
        let mut checked = 0;
        while start.elapsed() < Duration::from_millis(30) {
            let stats = pipeline.stats();
            if start.elapsed() >= Duration::from_millis(100) {
                break;
            }
            assert_eq!(stats.latency_samples, 0);
            assert_eq!(
                stats.ring_pending + stats.latency_samples,
                stats.submitted,
                "a popped, unobserved frame is still pending"
            );
            checked += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(checked > 0, "no snapshot fell inside the first frame's sweep delay");
        let report = pipeline.finish().expect("terminates");
        assert_eq!(report.stats.ring_pending, 0);
        assert_eq!(report.stats.latency_samples, 4);
    }

    #[test]
    fn rejected_frames_quarantine_with_their_engine_error() {
        // Strict policy + one late frame: the engine rejects it, the
        // pipeline quarantines it, the stream continues.
        let mut frames = stream(50);
        frames[20].t_end = Nanos::from_micros(1); // far behind the watermark
        let report = supervised(IngestConfig::default(), &frames);
        assert_eq!(report.health.frames_quarantined, 1);
        assert_eq!(report.health.workers_restarted, 0, "a rejection is not a panic");
        assert!(
            report.quarantine[0].reason.contains("capture order"),
            "reason: {}",
            report.quarantine[0].reason
        );
        assert!(report.is_reconciled());
    }

    #[test]
    fn shed_oldest_under_overload_keeps_the_ledger_exact() {
        let frames = stream(300);
        let cfg = IngestConfig::default()
            .with_capacity(8)
            .with_overload(OverloadPolicy::ShedOldest)
            .with_sweep_delay(Duration::from_micros(200));
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        let mut shed_seen = 0u64;
        for f in &frames {
            if pipeline.submit(f).expect("open") == SubmitOutcome::ShedOldest {
                shed_seen += 1;
            }
        }
        let report = pipeline.finish().expect("terminates");
        assert!(report.health.frames_shed > 0, "a 200 us sweep over an 8-slot ring sheds");
        assert_eq!(report.health.frames_shed, shed_seen);
        assert_eq!(report.health.frames_seen, 300);
        assert!(report.is_reconciled(), "health: {:?}", report.health);
        // Shedding the oldest keeps delivered frames in order, so the
        // engine saw a monotonic stream and dropped nothing as late.
        assert_eq!(report.health.frames_late_dropped, 0);
    }

    #[test]
    fn watchdog_closes_windows_while_the_source_is_silent() {
        let cfg = IngestConfig::default()
            .with_stall_timeout(Some(Duration::from_millis(10)));
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        // 300 ms of traffic: 200 ms of training, then a detection window
        // opens and stays open (its end is past the last frame).
        for f in stream(600) {
            pipeline.submit(&f).expect("open");
        }
        // Wait for the worker to drain the ring, then discard everything
        // the *frames* produced (the enrollment batch).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pipeline.stats().latency_samples < 600
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pipeline.stats().latency_samples, 600, "worker drained the ring");
        pipeline.drain_events();
        // Source goes silent. The watchdog must drive tick() and seal
        // the open detection window without any further frame.
        let mut events = Vec::new();
        while events.is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            events.extend(pipeline.drain_events());
        }
        assert!(!events.is_empty(), "watchdog never delivered the stalled window");
        assert!(pipeline.stats().watchdog_ticks > 0);
        let report = pipeline.finish().expect("terminates");
        assert!(report.is_reconciled());
    }

    #[test]
    fn watchdog_tick_does_not_disturb_the_reorder_buffer() {
        // Frames shuffled within the reorder horizon sit in the buffer
        // while the watchdog fires; they must still deliver in order,
        // with nothing dropped — the deadline only seals *windows*, it
        // never bypasses the re-sequencer.
        let resilience = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 8 });
        let mut frames = stream(200);
        frames.swap(120, 122);
        frames.swap(150, 153);
        let mut sync = engine(resilience.clone());
        let want = synchronous(&mut sync, &frames);

        let cfg = IngestConfig::default()
            .with_stall_timeout(Some(Duration::from_millis(5)));
        let pipeline = IngestPipeline::spawn(engine(resilience), cfg).expect("spawn");
        for (i, f) in frames.iter().enumerate() {
            pipeline.submit(f).expect("open");
            if i == 123 || i == 154 {
                // Let the watchdog fire while shuffled frames are
                // buffered.
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        let report = pipeline.finish().expect("terminates");
        assert_eq!(format!("{:?}", report.events), format!("{want:?}"));
        assert_eq!(report.health.frames_late_dropped, 0);
        assert_eq!(report.health.frames_reordered, sync.health().frames_reordered);
        assert!(report.health.frames_reordered > 0, "the shuffle was real");
        assert!(report.stats.watchdog_ticks > 0, "the stalls must have fired the watchdog");
        assert!(report.is_reconciled());
    }

    /// A paused source behind a watchdog: 1,200 frames in chunks of 150,
    /// each frame sleeping 100 µs in the worker, so a 64-frame batch takes
    /// longer than the 2 ms stall timeout. The source pauses after every
    /// chunk until the watchdog has fired, often in the middle of a
    /// detection window, so later frames of a window it sealed arrive
    /// late. Returns the report and the number of pauses.
    fn paused_source(resilience: ResilienceConfig) -> (IngestReport, u64) {
        let cfg = IngestConfig::default()
            .with_stall_timeout(Some(Duration::from_millis(2)))
            .with_sweep_delay(Duration::from_micros(100));
        let pipeline = IngestPipeline::spawn(engine(resilience), cfg).expect("spawn");
        let frames = stream(1_200);
        let chunks = frames.chunks(150);
        let pauses = chunks.len() as u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        for chunk in chunks {
            for f in chunk {
                pipeline.submit(f).expect("open");
            }
            let ticks = pipeline.stats().watchdog_ticks;
            while pipeline.stats().watchdog_ticks == ticks && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        (pipeline.finish().expect("terminates"), pauses)
    }

    #[test]
    fn watchdog_ticks_between_slow_batches_keep_the_ledger_and_window_order() {
        // The deadline must run only while the worker waits for a batch.
        // Under the default policy the frames a tick strands are
        // quarantined.
        let (report, pauses) = paused_source(ResilienceConfig::default());
        assert!(report.is_reconciled(), "health: {:?}", report.health);
        assert!(report.stats.watchdog_ticks >= pauses, "stats: {:?}", report.stats);

        // Window indices never decrease, and a window's candidate events
        // all precede its `WindowClosed`, which counts them.
        let (mut last_window, mut last_closed, mut pending) = (0, None, 0);
        let mut closed = 0;
        for event in &report.events {
            match *event {
                MultiEvent::FusedMatch { window, .. } | MultiEvent::FusedNewDevice { window, .. } => {
                    assert!(window >= last_window, "window {window} after {last_window}");
                    assert!(last_closed < Some(window), "window {window} after its close");
                    last_window = window;
                    pending += 1;
                }
                MultiEvent::WindowClosed { window, known, unknown, .. } => {
                    assert!(window >= last_window, "close of {window} after {last_window}");
                    assert!(last_closed < Some(window), "window {window} closed twice");
                    assert_eq!(known + unknown, pending, "window {window}'s candidates");
                    (last_window, last_closed, pending) = (window, Some(window), 0);
                    closed += 1;
                }
                MultiEvent::Enrolled { .. } => {}
            }
        }
        assert_eq!(pending, 0, "candidate events after the last close");
        assert!(closed >= 2, "the stream must close several windows: {closed}");
    }

    #[test]
    fn frames_a_watchdog_tick_strands_are_late_frames_under_either_policy() {
        // A tick is `advance_to(open window's end)`: the rest of that
        // window's frames arrive behind the watermark. `Reject` refuses
        // them and the pipeline quarantines them with their engine error;
        // `Reorder` drops them as late. Either way the ledger balances.
        let (strict, _) = paused_source(ResilienceConfig::default());
        assert!(strict.is_reconciled(), "health: {:?}", strict.health);
        assert!(strict.health.frames_quarantined > 0, "health: {:?}", strict.health);
        assert_eq!(strict.health.frames_late_dropped, 0);
        assert_eq!(strict.health.workers_restarted, 0, "a rejection is not a panic");
        for q in &strict.quarantine {
            assert!(q.reason.contains("capture order"), "reason: {}", q.reason);
        }

        let reorder = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 8 });
        let (tolerant, _) = paused_source(reorder);
        assert!(tolerant.is_reconciled(), "health: {:?}", tolerant.health);
        assert!(tolerant.health.frames_late_dropped > 0, "health: {:?}", tolerant.health);
        assert_eq!(tolerant.health.frames_quarantined, 0);
        assert!(tolerant.quarantine.is_empty());
    }

    #[test]
    fn mpmc_handles_submit_from_several_threads() {
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::tolerant()), IngestConfig::default())
                .expect("spawn");
        let frames = stream(600);
        let mid = frames.len() / 2;
        let (a, b) = frames.split_at(mid);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for f in b {
                    pipeline.submit(f).expect("open");
                }
            });
            for f in a {
                pipeline.submit(f).expect("open");
            }
        });
        let report = pipeline.finish().expect("terminates");
        assert_eq!(report.health.frames_seen, 600);
        assert!(report.is_reconciled(), "health: {:?}", report.health);
    }

    #[test]
    fn quarantine_retention_is_capped_but_accounting_is_not() {
        let mut frames = stream(120);
        for f in frames.iter_mut().skip(40).take(40) {
            f.size = 0; // 40 poison frames, 8 past the retention cap
        }
        let cfg = IngestConfig::default().with_panic_probe(Some(is_poison));
        let report = supervised(cfg, &frames);
        assert_eq!(report.health.frames_quarantined, 40);
        assert_eq!(report.quarantine.len(), QUARANTINE_CAPACITY, "retention cap");
        // The oldest eight were evicted; the most recent 32 remain.
        assert_eq!(report.quarantine[0].frame.t_end, frames[48].t_end);
        assert_eq!(report.quarantine[31].frame.t_end, frames[79].t_end);
        assert!(report.is_reconciled(), "evictions must not lose accounting");
    }

    #[test]
    fn producer_side_reads_survive_a_probe_panic_mid_stream() {
        // The probe panics while the worker holds no ingest lock, so no
        // mutex is poisoned: every producer-side reader keeps working
        // while the restarted worker runs on.
        let mut frames = stream(400);
        frames[100].size = 0;
        let clean: Vec<CapturedFrame> =
            frames.iter().copied().filter(|f| !is_poison(f)).collect();
        let want = synchronous(&mut engine(ResilienceConfig::default()), &clean);

        let cfg = IngestConfig::default().with_panic_probe(Some(is_poison));
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        let (head, tail) = frames.split_at(200);
        for f in head {
            pipeline.submit(f).expect("open");
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (pipeline.stats().worker_restarts == 0 || pipeline.stats().quarantined == 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pipeline.stats();
        assert_eq!((stats.worker_restarts, stats.quarantined), (1, 1));
        let quarantined = pipeline.quarantined();
        assert_eq!(quarantined.len(), 1);
        assert!(quarantined[0].reason.contains("chaos probe"), "reason: {}", quarantined[0].reason);
        let mut events = pipeline.drain_events();
        for f in tail {
            pipeline.submit(f).expect("open after the restart");
        }
        events.extend(pipeline.drain_events());
        assert_eq!(pipeline.stats().submitted, 400);
        assert_eq!(pipeline.quarantined().len(), 1);

        let report = pipeline.finish().expect("terminates");
        assert_eq!(report.health.frames_quarantined, 1);
        assert_eq!(report.health.workers_restarted, 1);
        assert!(report.is_reconciled(), "health: {:?}", report.health);
        events.extend(report.events);
        assert_eq!(format!("{events:?}"), format!("{want:?}"), "no event lost across drains");
    }
}
