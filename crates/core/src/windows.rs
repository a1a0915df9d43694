//! Detection windows: splitting a validation trace into fixed-length
//! windows and building one candidate signature per (window, device).
//!
//! The paper uses 5-minute detection windows (§V-A) and matches every
//! candidate device against the reference database in each window.

use std::collections::BTreeMap;

use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_radiotap::CapturedFrame;

use crate::config::EvalConfig;
use crate::params::ParameterExtractor;
use crate::signature::Signature;

/// One candidate signature: a device observed within one detection window.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateWindow {
    /// Zero-based window index (window `i` covers
    /// `[start + i·window, start + (i+1)·window)`).
    pub index: usize,
    /// The candidate device (source MAC address).
    pub device: MacAddr,
    /// The signature built from that device's frames in the window.
    pub signature: Signature,
}

/// The shared detection-window clock: maps timestamps to window indices
/// and decides when the open window seals.
///
/// One clock can drive any number of per-parameter candidate builders —
/// the [`MultiEngine`](crate::engine::MultiEngine) runs all five network
/// parameters off a single `WindowClock`, and [`WindowedSignatures`]
/// embeds one for the single-parameter path — so every consumer agrees on
/// the same boundary rule: windows are anchored at the first observed
/// frame, window `i` covers `[origin + i·len, origin + (i+1)·len)`
/// (half-open on the right).
///
/// The clock advances on two inputs:
///
/// * [`WindowClock::observe`] — a frame's timestamp. The first frame
///   anchors the clock; a frame landing past the open window's end seals
///   it (and opens the frame's own window).
/// * [`WindowClock::advance_to`] — a bare timestamp with **no frame**:
///   the wall-clock statement "the capture clock has reached `t`". On a
///   quiet channel this is the only way the final window's decision can
///   be emitted before another frame happens to arrive.
///
/// A sealed window always contained at least one frame: `advance_to`
/// leaves the clock *closed* (no open window) rather than opening an
/// empty one, and the next frame re-opens at its own index.
#[derive(Debug, Clone)]
pub struct WindowClock {
    window_len: u64,
    origin: Option<Nanos>,
    current: usize,
    open: bool,
}

impl WindowClock {
    /// A clock over windows of length `window` (clamped to ≥ 1 ns).
    pub fn new(window: Nanos) -> Self {
        WindowClock { window_len: window.as_nanos().max(1), origin: None, current: 0, open: false }
    }

    /// The window index a timestamp falls into, once the clock is
    /// anchored.
    fn index_of(&self, t: Nanos, origin: Nanos) -> usize {
        (t.saturating_sub(origin).as_nanos() / self.window_len) as usize
    }

    /// Advances the clock to a frame at `t`, returning the index of the
    /// window this frame sealed (the previously open window, when the
    /// frame is the first to land past its end).
    pub fn observe(&mut self, t: Nanos) -> Option<usize> {
        let origin = *self.origin.get_or_insert(t);
        let idx = self.index_of(t, origin);
        if !self.open {
            // First frame ever, or first frame after a tick-driven seal:
            // open the frame's own window; nothing (further) to seal.
            self.current = idx;
            self.open = true;
            return None;
        }
        if idx == self.current {
            return None;
        }
        let closed = self.current;
        self.current = idx;
        Some(closed)
    }

    /// Advances the clock to wall-clock time `t` without a frame,
    /// returning the index of the window this seals — exactly the window
    /// a frame at `t` would have sealed. The clock is left closed; the
    /// next frame opens its own window.
    pub fn advance_to(&mut self, t: Nanos) -> Option<usize> {
        let origin = self.origin?;
        if !self.open || self.index_of(t, origin) <= self.current {
            return None;
        }
        self.open = false;
        Some(self.current)
    }

    /// Index of the currently open window, or `None` when no window is
    /// open (before the first frame, or right after a tick-driven seal).
    pub fn current_index(&self) -> Option<usize> {
        self.open.then_some(self.current)
    }

    /// End of the currently open window (`origin + (i+1)·len`) — the
    /// earliest timestamp whose [`WindowClock::advance_to`] seals it.
    pub fn current_end(&self) -> Option<Nanos> {
        let origin = self.origin?;
        self.open.then(|| {
            Nanos::from_nanos(
                origin
                    .as_nanos()
                    .saturating_add((self.current as u64 + 1).saturating_mul(self.window_len)),
            )
        })
    }

    /// Seals the currently open window unconditionally (stream end),
    /// returning its index.
    pub fn finish(&mut self) -> Option<usize> {
        let closed = self.current_index();
        self.open = false;
        closed
    }
}

/// Streaming builder of per-window candidate signatures.
///
/// Frames must be pushed in capture order. Windows are anchored at the
/// first frame's timestamp (one shared [`WindowClock`]). Inter-arrival
/// history is carried *across* window boundaries (the monitor sees one
/// continuous channel), but each observation is attributed to the window
/// containing its frame.
///
/// # Example
///
/// ```
/// use wifiprint_core::{EvalConfig, NetworkParameter, WindowedSignatures};
/// use wifiprint_radiotap::CapturedFrame;
/// use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
///
/// let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize)
///     .with_min_observations(2);
/// let mut windows = WindowedSignatures::new(&cfg);
/// let sta = MacAddr::from_index(1);
/// let ap = MacAddr::from_index(2);
/// // Two frames in window 0, two more 6 minutes later in window 1.
/// for t_us in [0u64, 1_000, 360_000_000, 360_001_000] {
///     let f = Frame::data_to_ds(sta, ap, ap, 100);
///     windows.push(&CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(t_us), -50));
/// }
/// let candidates = windows.finish();
/// assert_eq!(candidates.len(), 2);
/// assert_eq!(candidates[0].index, 0);
/// assert_eq!(candidates[1].index, 1);
/// ```
#[derive(Debug)]
pub struct WindowedSignatures {
    cfg: EvalConfig,
    extractor: ParameterExtractor,
    clock: WindowClock,
    current: BTreeMap<MacAddr, Signature>,
    finished: Vec<CandidateWindow>,
}

impl WindowedSignatures {
    /// A windowed builder using `cfg`'s parameter, filter, bins, window
    /// length and minimum observation count.
    pub fn new(cfg: &EvalConfig) -> Self {
        WindowedSignatures {
            extractor: ParameterExtractor::with_options(
                cfg.parameter,
                cfg.estimator,
                cfg.filter.clone(),
            ),
            clock: WindowClock::new(cfg.window),
            cfg: cfg.clone(),
            current: BTreeMap::new(),
            finished: Vec::new(),
        }
    }

    /// Processes one captured frame.
    ///
    /// Returns the index of the window this frame *sealed* — i.e. the
    /// previous window, when the frame is the first to land past its end
    /// — or `None` while the current window stays open. A seal is
    /// reported even when no device in the sealed window met the
    /// observation floor (the window still *closed*); windows that were
    /// skipped entirely (no frames at all) are never reported.
    ///
    /// Sealed candidates accumulate for [`WindowedSignatures::finish`];
    /// streaming consumers retrieve them incrementally with
    /// [`WindowedSignatures::drain_sealed`] instead.
    pub fn push(&mut self, frame: &CapturedFrame) -> Option<usize> {
        let sealed = self.clock.observe(frame.t_end);
        if let Some(window) = sealed {
            self.seal(window);
        }
        if let Some(obs) = self.extractor.push(frame) {
            self.current.entry(obs.device).or_default().record(obs.kind, obs.value, &self.cfg);
        }
        sealed
    }

    /// Advances the window clock to wall-clock time `t` **without a
    /// frame** (see [`WindowClock::advance_to`]): when `t` lies past the
    /// open window's end, the window seals exactly as a frame at `t`
    /// would have sealed it, and its candidates become available to
    /// [`WindowedSignatures::drain_sealed`] / the final
    /// [`WindowedSignatures::finish`]. On a quiet channel this is how a
    /// consumer gets the last window's candidates without waiting for
    /// traffic that may never come.
    pub fn advance_to(&mut self, t: Nanos) -> Option<usize> {
        let sealed = self.clock.advance_to(t);
        if let Some(window) = sealed {
            self.seal(window);
        }
        sealed
    }

    /// Processes a sequence of captured frames.
    pub fn extend(&mut self, frames: impl IntoIterator<Item = CapturedFrame>) {
        for f in frames {
            self.push(&f);
        }
    }

    fn seal(&mut self, window: usize) {
        let min = self.cfg.min_observations;
        for (device, signature) in std::mem::take(&mut self.current) {
            if signature.observation_count() >= min {
                self.finished.push(CandidateWindow { index: window, device, signature });
            }
        }
    }

    /// Index of the still-open window, or `None` when no window is open
    /// (before any frame has been pushed, or right after
    /// [`WindowedSignatures::advance_to`] sealed it).
    pub fn current_index(&self) -> Option<usize> {
        self.clock.current_index()
    }

    /// End of the still-open window — the earliest timestamp whose
    /// [`WindowedSignatures::advance_to`] seals it.
    pub fn current_end(&self) -> Option<Nanos> {
        self.clock.current_end()
    }

    /// Removes and returns the candidates of every window sealed so far
    /// (in (window, device) order), leaving the still-open window
    /// untouched. Calling this after every [`WindowedSignatures::push`]
    /// yields exactly one sealed window's candidates at a time, so a
    /// streaming consumer never buffers the whole trace.
    pub fn drain_sealed(&mut self) -> Vec<CandidateWindow> {
        std::mem::take(&mut self.finished)
    }

    /// Finalises the last window and returns all candidate signatures in
    /// (window, device) order (minus any drained earlier with
    /// [`WindowedSignatures::drain_sealed`]).
    pub fn finish(mut self) -> Vec<CandidateWindow> {
        if let Some(window) = self.clock.finish() {
            self.seal(window);
        }
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NetworkParameter;
    use wifiprint_ieee80211::{Frame, Rate};

    fn cfg(window_secs: u64, min_obs: u64) -> EvalConfig {
        let mut cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize)
            .with_min_observations(min_obs);
        cfg.window = Nanos::from_secs(window_secs);
        cfg
    }

    fn frame(from: u64, t_us: u64) -> CapturedFrame {
        let sta = MacAddr::from_index(from);
        let ap = MacAddr::from_index(99);
        let f = Frame::data_to_ds(sta, ap, ap, 200);
        CapturedFrame::from_frame(&f, Rate::R24M, Nanos::from_micros(t_us), -55)
    }

    #[test]
    fn windows_are_anchored_at_first_frame() {
        let c = cfg(10, 1);
        let mut w = WindowedSignatures::new(&c);
        // First frame at t=1000 s: still window 0.
        w.push(&frame(1, 1_000_000_000));
        w.push(&frame(1, 1_000_000_100));
        // 9.9 s later: same window; 10.1 s later: next window.
        w.push(&frame(1, 1_009_900_000));
        w.push(&frame(1, 1_010_100_000));
        let candidates = w.finish();
        assert_eq!(candidates.len(), 2);
        assert_eq!(candidates[0].index, 0);
        assert_eq!(candidates[0].signature.observation_count(), 3);
        assert_eq!(candidates[1].index, 1);
        assert_eq!(candidates[1].signature.observation_count(), 1);
    }

    #[test]
    fn devices_are_separated_within_a_window() {
        let c = cfg(60, 1);
        let mut w = WindowedSignatures::new(&c);
        w.push(&frame(1, 100));
        w.push(&frame(2, 200));
        w.push(&frame(1, 300));
        let candidates = w.finish();
        assert_eq!(candidates.len(), 2);
        let by_dev: BTreeMap<_, _> =
            candidates.iter().map(|c| (c.device, c.signature.observation_count())).collect();
        assert_eq!(by_dev[&MacAddr::from_index(1)], 2);
        assert_eq!(by_dev[&MacAddr::from_index(2)], 1);
    }

    #[test]
    fn min_observations_applies_per_window() {
        let c = cfg(10, 2);
        let mut w = WindowedSignatures::new(&c);
        w.push(&frame(1, 0));
        w.push(&frame(1, 1_000));
        // Window 1: only one observation for the device — dropped.
        w.push(&frame(1, 11_000_000));
        let candidates = w.finish();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].index, 0);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let c = cfg(1, 1);
        let mut w = WindowedSignatures::new(&c);
        w.push(&frame(1, 0));
        // Jump 100 windows ahead.
        w.push(&frame(1, 100_500_000));
        let candidates = w.finish();
        assert_eq!(candidates.len(), 2);
        assert_eq!(candidates[0].index, 0);
        assert_eq!(candidates[1].index, 100);
    }

    #[test]
    fn inter_arrival_history_crosses_window_boundary() {
        let mut c = cfg(1, 1);
        c.parameter = NetworkParameter::InterArrivalTime;
        let mut w = WindowedSignatures::new(&c);
        w.push(&frame(1, 0)); // origin; no observation (no history)
        w.push(&frame(1, 999_900)); // observation in window 0
        w.push(&frame(1, 1_000_100)); // observation in window 1, history kept
        let candidates = w.finish();
        assert_eq!(candidates.len(), 2);
        assert_eq!(candidates[0].index, 0);
        // The window-1 observation is the 200 µs gap across the boundary.
        assert_eq!(candidates[1].index, 1);
        assert_eq!(candidates[1].signature.observation_count(), 1);
    }

    #[test]
    fn boundary_frame_lands_in_the_next_window_not_the_previous() {
        // Regression: a frame timestamped exactly at `start + i·window`
        // belongs to window `i` (the interval is half-open on the right),
        // never to window `i − 1`.
        let c = cfg(10, 1);
        let mut w = WindowedSignatures::new(&c);
        let origin_us = 5_250_000; // a non-zero anchor
        assert_eq!(w.push(&frame(1, origin_us)), None);
        // One nanosecond before the boundary: still window 0, no seal.
        let mut before = frame(1, 0);
        before.t_end =
            Nanos::from_micros(origin_us + 10_000_000).saturating_sub(Nanos::from_nanos(1));
        assert_eq!(w.push(&before), None);
        // Exactly on `start + 1·window`: window 1, sealing window 0.
        assert_eq!(w.push(&frame(1, origin_us + 10_000_000)), Some(0));
        // Exactly on `start + 2·window`: window 2, sealing window 1.
        assert_eq!(w.push(&frame(1, origin_us + 20_000_000)), Some(1));
        let candidates = w.finish();
        let indices: Vec<usize> = candidates.iter().map(|c| c.index).collect();
        assert_eq!(indices, vec![0, 1, 2]);
        // The two pre-boundary frames stayed in window 0; each boundary
        // frame opened its own window.
        assert_eq!(candidates[0].signature.observation_count(), 2);
        assert_eq!(candidates[1].signature.observation_count(), 1);
        assert_eq!(candidates[2].signature.observation_count(), 1);
    }

    #[test]
    fn drain_sealed_hands_over_windows_incrementally() {
        let c = cfg(10, 1);
        let mut w = WindowedSignatures::new(&c);
        assert_eq!(w.push(&frame(1, 0)), None);
        assert!(w.drain_sealed().is_empty(), "open window must not drain");
        assert_eq!(w.push(&frame(2, 1_000)), None);
        // Next frame 25 s later seals window 0 (and skips empty window 1).
        assert_eq!(w.push(&frame(1, 25_000_000)), Some(0));
        let sealed = w.drain_sealed();
        assert_eq!(sealed.len(), 2);
        assert!(sealed.iter().all(|c| c.index == 0));
        assert!(w.drain_sealed().is_empty(), "drain must not repeat");
        // What was drained no longer appears in finish().
        let rest = w.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].index, 2);
    }

    #[test]
    fn no_frames_no_candidates() {
        let c = cfg(10, 1);
        let w = WindowedSignatures::new(&c);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn clock_seals_on_ticks_exactly_like_frames() {
        // advance_to(t) must agree with observe(t) on what seals: the
        // tick-driven close is the frame-driven close minus the frame.
        let mut by_frame = WindowClock::new(Nanos::from_secs(10));
        let mut by_tick = WindowClock::new(Nanos::from_secs(10));
        for clock in [&mut by_frame, &mut by_tick] {
            assert_eq!(clock.observe(Nanos::from_micros(5_250_000)), None);
        }
        let boundary = Nanos::from_micros(15_250_000);
        // One nanosecond before the boundary: no seal either way.
        assert_eq!(by_tick.advance_to(boundary.saturating_sub(Nanos::from_nanos(1))), None);
        // At the boundary both inputs seal window 0.
        assert_eq!(by_frame.observe(boundary), Some(0));
        assert_eq!(by_tick.advance_to(boundary), Some(0));
        // After a tick-driven seal there is no open window...
        assert_eq!(by_tick.current_index(), None);
        assert_eq!(by_tick.current_end(), None);
        assert_eq!(by_tick.advance_to(Nanos::from_secs(100)), None, "nothing more to seal");
        // ...until the next frame opens its own.
        assert_eq!(by_tick.observe(Nanos::from_micros(27_000_000)), None);
        assert_eq!(by_tick.current_index(), Some(2));
        assert_eq!(by_frame.current_index(), Some(1));
    }

    #[test]
    fn clock_before_first_frame_ignores_ticks() {
        let mut clock = WindowClock::new(Nanos::from_secs(1));
        assert_eq!(clock.advance_to(Nanos::from_secs(50)), None);
        assert_eq!(clock.finish(), None);
        // The first frame still anchors the clock at its own timestamp.
        assert_eq!(clock.observe(Nanos::from_secs(60)), None);
        assert_eq!(clock.current_index(), Some(0));
        assert_eq!(clock.current_end(), Some(Nanos::from_secs(61)));
    }

    #[test]
    fn advance_to_hands_over_the_quiet_trailing_window() {
        let c = cfg(10, 1);
        let mut w = WindowedSignatures::new(&c);
        w.push(&frame(1, 0));
        w.push(&frame(2, 1_000));
        assert!(w.drain_sealed().is_empty(), "window 0 still open");
        // The channel goes quiet; the wall clock passes the boundary.
        assert_eq!(w.advance_to(Nanos::from_secs(10)), Some(0));
        let sealed = w.drain_sealed();
        assert_eq!(sealed.len(), 2);
        assert!(sealed.iter().all(|c| c.index == 0));
        assert_eq!(w.current_index(), None, "tick leaves no open window");
        // A repeated tick does not re-seal; a later frame opens window 2.
        assert_eq!(w.advance_to(Nanos::from_secs(15)), None);
        assert_eq!(w.push(&frame(1, 25_000_000)), None);
        assert_eq!(w.current_index(), Some(2));
        let rest = w.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].index, 2);
    }

    #[test]
    fn tick_sealed_candidates_equal_frame_sealed_candidates() {
        let c = cfg(10, 1);
        let frames = [frame(1, 0), frame(2, 1_000), frame(1, 2_500)];
        let mut by_frame = WindowedSignatures::new(&c);
        let mut by_tick = WindowedSignatures::new(&c);
        for f in &frames {
            by_frame.push(f);
            by_tick.push(f);
        }
        // Frame-driven close vs tick-driven close at the same instant.
        assert_eq!(by_frame.push(&frame(9, 10_000_000)), Some(0));
        assert_eq!(by_tick.advance_to(Nanos::from_micros(10_000_000)), Some(0));
        let frame_sealed = by_frame.drain_sealed();
        let tick_sealed = by_tick.drain_sealed();
        assert_eq!(frame_sealed, tick_sealed);
    }
}
