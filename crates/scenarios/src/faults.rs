//! Deterministic fault injection for degraded-capture experiments.
//!
//! The paper's vantage point is a *passive* sniffer, where frame loss,
//! duplication, reordering and truncation are the normal operating
//! condition — not an exception. This module degrades any frame stream
//! the way a real monitor-mode capture path does, **reproducibly from a
//! seed**, so the engines' resilience layer
//! (`wifiprint_core::ResilienceConfig`) can be evaluated against known
//! fault counts:
//!
//! * **loss** — i.i.d. per-frame drops or bursty two-state
//!   Gilbert–Elliott loss ([`LossModel`]),
//! * **duplication** — drivers re-delivering a frame (the copy arrives
//!   adjacent to the original, as real re-deliveries do),
//! * **bounded reordering** — frames displaced by at most
//!   [`FaultPlan::reorder_depth`] positions, the USB/ring-buffer batching
//!   pattern,
//! * **truncation** — captures cut to runt length (caught by the
//!   engines' minimum-size gate),
//! * **poison frames** — frames re-attributed to a marked transmitter
//!   range ([`POISON_DEVICE_BASE`], [`is_poison_frame`]) so a chaos
//!   harness can arm the ingest pipeline's `panic_probe` against them
//!   and exercise panic isolation with real, identifiable frames,
//! * **source stalls** — deterministic periodic silent windows
//!   ([`FaultPlan::with_stalls`]): the capture source delivers nothing
//!   for `stall_len` out of every `stall_every`, the failure mode a
//!   stall watchdog must survive,
//! * **overload bursts** — a monotone piecewise time warp
//!   ([`FaultPlan::with_bursts`]) that compresses `burst_len` of every
//!   `burst_every` by `burst_factor`, so the same frames arrive
//!   `burst_factor`× faster during the burst — the offered-load shape
//!   that forces an ingest ring into its overload policy.
//!
//! Every applied fault is tallied in a [`FaultLog`], so a test can
//! reconcile the engine's `EngineHealth` counters *exactly* against what
//! was injected; the ledger identity is
//! `emitted = input - lost - stalled + duplicated`.
//!
//! # Example
//!
//! ```
//! use wifiprint_scenarios::{FaultInjector, FaultPlan, LossModel, OfficeScenario};
//!
//! let trace = OfficeScenario::small(7, 30, 4).run_collect();
//! let plan = FaultPlan::clean()
//!     .with_loss(LossModel::Iid { rate: 0.1 })
//!     .with_reordering(8, 0.2);
//! let (degraded, log) = FaultInjector::new(plan, 42).degrade(&trace.frames);
//! assert_eq!(log.input, trace.frames.len() as u64);
//! assert_eq!(log.emitted as usize, degraded.len());
//! assert_eq!(log.input, log.emitted + log.lost - log.duplicated);
//! ```

use std::collections::VecDeque;

use wifiprint_devices::InstanceRng;
use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_radiotap::CapturedFrame;

/// Transmitter index base for poison frames — a marked range (outside
/// every scenario population) that [`is_poison_frame`] recognises, so a
/// chaos harness can arm `IngestConfig::panic_probe` with it.
pub const POISON_DEVICE_BASE: u64 = 0x00DE_AD00;

/// `true` when `frame` was marked poison by a [`FaultInjector`]
/// ([`FaultPlan::with_poison`]). A plain `fn`, so it can be passed
/// directly as an ingest pipeline's `panic_probe`.
#[must_use]
pub fn is_poison_frame(frame: &CapturedFrame) -> bool {
    frame.transmitter.is_some_and(|t| {
        (0..8).any(|k| t == MacAddr::from_index(POISON_DEVICE_BASE + k))
    })
}

/// The frame-loss process a [`FaultInjector`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Independent per-frame loss with probability `rate`.
    Iid {
        /// Per-frame drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Two-state Gilbert–Elliott burst loss: a Markov chain alternating
    /// between a *good* and a *bad* (burst) state, with a per-state drop
    /// probability. The classic model for ring-buffer overflow bursts.
    GilbertElliott {
        /// Probability of entering the bad state from the good state,
        /// per frame.
        enter_bad: f64,
        /// Probability of leaving the bad state, per frame.
        exit_bad: f64,
        /// Drop probability while in the good state (usually ~0).
        loss_good: f64,
        /// Drop probability while in the bad state (usually high).
        loss_bad: f64,
    },
}

/// The composable fault mix a [`FaultInjector`] applies. Every knob
/// defaults to *off* ([`FaultPlan::clean`] — the identity transform);
/// compose with the `with_*` builders.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Frame-loss process (default [`LossModel::None`]).
    pub loss: LossModel,
    /// Fraction of surviving frames re-delivered as an adjacent exact
    /// duplicate.
    pub duplicate_rate: f64,
    /// Maximum positional displacement of a reordered frame; `0`
    /// disables reordering. An engine reorder buffer with
    /// `max_lateness >= reorder_depth` restores the stream exactly.
    pub reorder_depth: usize,
    /// Fraction of surviving frames given a random displacement in
    /// `[1, reorder_depth]`.
    pub reorder_rate: f64,
    /// Fraction of surviving frames truncated to a runt (< 8 on-air
    /// bytes) — detectable by the engines' minimum-size gate.
    pub corruption_rate: f64,
    /// Fraction of surviving frames re-attributed to the poison
    /// transmitter range ([`POISON_DEVICE_BASE`]); `0` disables.
    pub poison_rate: f64,
    /// Period of the deterministic source-stall cycle;
    /// [`Nanos::ZERO`] disables stalls.
    pub stall_every: Nanos,
    /// Silent tail of each stall period: frames whose (warped) elapsed
    /// time lands in the last `stall_len` of a `stall_every` cycle are
    /// swallowed by the stalled source.
    pub stall_len: Nanos,
    /// Period of the overload-burst time warp; [`Nanos::ZERO`]
    /// disables bursts.
    pub burst_every: Nanos,
    /// Leading slice of each burst period that is compressed: frames in
    /// it arrive [`FaultPlan::burst_factor`]× faster.
    pub burst_len: Nanos,
    /// Time-compression factor inside a burst (`>= 1`; `1` disables).
    pub burst_factor: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::clean()
    }
}

impl FaultPlan {
    /// The identity plan: no faults of any kind.
    #[must_use]
    pub fn clean() -> Self {
        FaultPlan {
            loss: LossModel::None,
            duplicate_rate: 0.0,
            reorder_depth: 0,
            reorder_rate: 0.0,
            corruption_rate: 0.0,
            poison_rate: 0.0,
            stall_every: Nanos::ZERO,
            stall_len: Nanos::ZERO,
            burst_every: Nanos::ZERO,
            burst_len: Nanos::ZERO,
            burst_factor: 1.0,
        }
    }

    /// A moderately hostile capture path: 10 % i.i.d. loss, 2 %
    /// duplicates, 8-deep reordering of 20 % of frames, 1 % truncation.
    #[must_use]
    pub fn noisy() -> Self {
        FaultPlan::clean()
            .with_loss(LossModel::Iid { rate: 0.10 })
            .with_duplicates(0.02)
            .with_reordering(8, 0.20)
            .with_corruption(0.01)
    }

    /// Returns a copy with a different loss model.
    #[must_use]
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Returns a copy with a different duplication rate.
    #[must_use]
    pub fn with_duplicates(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Returns a copy reordering `rate` of frames by up to `depth`
    /// positions.
    #[must_use]
    pub fn with_reordering(mut self, depth: usize, rate: f64) -> Self {
        self.reorder_depth = depth;
        self.reorder_rate = rate;
        self
    }

    /// Returns a copy truncating `rate` of frames to runts.
    #[must_use]
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corruption_rate = rate;
        self
    }

    /// Returns a copy re-attributing `rate` of surviving frames to the
    /// poison transmitter range ([`is_poison_frame`]).
    #[must_use]
    pub fn with_poison(mut self, rate: f64) -> Self {
        self.poison_rate = rate;
        self
    }

    /// Returns a copy with deterministic periodic source stalls: the
    /// source delivers nothing for the last `len` of every `every`.
    #[must_use]
    pub fn with_stalls(mut self, every: Nanos, len: Nanos) -> Self {
        self.stall_every = every;
        self.stall_len = len;
        self
    }

    /// Returns a copy with periodic overload bursts: the first `len` of
    /// every `every` is time-compressed by `factor` (frames arrive
    /// `factor`× faster), a monotone warp — capture order is preserved.
    #[must_use]
    pub fn with_bursts(mut self, every: Nanos, len: Nanos, factor: f64) -> Self {
        self.burst_every = every;
        self.burst_len = len;
        self.burst_factor = factor;
        self
    }

    /// `true` if this plan applies no fault at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.loss == LossModel::None
            && self.duplicate_rate == 0.0
            && (self.reorder_depth == 0 || self.reorder_rate == 0.0)
            && self.corruption_rate == 0.0
            && self.poison_rate == 0.0
            && (self.stall_every == Nanos::ZERO || self.stall_len == Nanos::ZERO)
            && (self.burst_every == Nanos::ZERO
                || self.burst_len == Nanos::ZERO
                || self.burst_factor == 1.0)
    }
}

/// Per-category tally of every fault a [`FaultInjector`] applied — the
/// injector-side ledger an engine's `EngineHealth` counters reconcile
/// against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Frames read from the wrapped stream.
    pub input: u64,
    /// Frames emitted downstream (survivors + duplicates).
    pub emitted: u64,
    /// Frames dropped by the loss model (never emitted).
    pub lost: u64,
    /// Exact adjacent duplicates emitted.
    pub duplicated: u64,
    /// Frames given a positional reorder displacement.
    pub displaced: u64,
    /// Emitted frames whose timestamp is behind the running maximum —
    /// the inversions an engine's reorder buffer must absorb (matches
    /// `EngineHealth::frames_reordered` on a reorder-only plan).
    pub inversions: u64,
    /// Frames truncated to runt length (emitted, but detectably
    /// corrupt).
    pub corrupted: u64,
    /// Frames re-attributed to the poison transmitter range (emitted —
    /// an armed `panic_probe` will panic on each one).
    pub poisoned: u64,
    /// Frames swallowed by a stalled source (never emitted).
    pub stalled: u64,
    /// Emitted frames that landed inside a compressed burst segment.
    pub burst: u64,
}

/// A seeded, deterministic fault injector: the same `(plan, seed)` pair
/// degrades the same stream identically, every run (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
}

impl FaultInjector {
    /// Creates an injector applying `plan`, reproducible from `seed`.
    #[must_use]
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector { plan, seed }
    }

    /// Wraps a frame stream, degrading it lazily with bounded buffering
    /// (at most `reorder_depth` + a handful of frames in flight). Read
    /// the [`FaultLog`] off the stream once it is exhausted.
    #[must_use]
    pub fn stream<I>(&self, inner: I) -> FaultedStream<I::IntoIter>
    where
        I: IntoIterator<Item = CapturedFrame>,
    {
        FaultedStream {
            inner: inner.into_iter(),
            plan: self.plan.clone(),
            rng: InstanceRng::new(self.seed, 0xFA01),
            buffer: VecDeque::new(),
            index: 0,
            seq: 0,
            origin: None,
            bad_state: false,
            t_max_emitted: None,
            exhausted: false,
            log: FaultLog::default(),
        }
    }

    /// Degrades a collected trace in one call, returning the degraded
    /// frames and the fault ledger.
    #[must_use]
    pub fn degrade(&self, frames: &[CapturedFrame]) -> (Vec<CapturedFrame>, FaultLog) {
        let mut stream = self.stream(frames.iter().copied());
        let mut out = Vec::with_capacity(frames.len());
        for f in stream.by_ref() {
            out.push(f);
        }
        (out, *stream.log())
    }
}

/// The lazily-degrading iterator [`FaultInjector::stream`] returns.
#[derive(Debug)]
pub struct FaultedStream<I> {
    inner: I,
    plan: FaultPlan,
    rng: InstanceRng,
    /// Pending emissions, sorted ascending by `(emit_key, seq)`. The
    /// emit key is the frame's input position plus its displacement, so
    /// a frame is held until every earlier-keyed frame has arrived.
    buffer: VecDeque<(u64, u64, CapturedFrame)>,
    /// Input frames consumed so far (the next input's position).
    index: u64,
    /// Global emission sequence (tie-break among equal keys, preserving
    /// enqueue order — duplicates stay adjacent to their original).
    seq: u64,
    origin: Option<Nanos>,
    /// Gilbert–Elliott burst state.
    bad_state: bool,
    /// Largest timestamp emitted, for counting inversions.
    t_max_emitted: Option<Nanos>,
    exhausted: bool,
    log: FaultLog,
}

impl<I: Iterator<Item = CapturedFrame>> FaultedStream<I> {
    /// The fault ledger so far (complete once the stream is exhausted).
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Sorted insert by `(key, seq)`; `seq` is strictly increasing, so
    /// inserting after all entries with `key <=` ours is stable.
    fn enqueue(&mut self, key: u64, frame: CapturedFrame) {
        let seq = self.seq;
        self.seq += 1;
        let pos = self.buffer.partition_point(|&(k, _, _)| k <= key);
        self.buffer.insert(pos, (key, seq, frame));
    }

    /// The burst time warp: a monotone piecewise-linear map of elapsed
    /// nanoseconds that compresses the first `burst_len` of every
    /// `burst_every` by `burst_factor`. Returns the warped elapsed time
    /// and whether `elapsed` fell inside a burst segment.
    fn burst_warp(&self, elapsed: u64) -> (u64, bool) {
        let every = self.plan.burst_every.as_nanos();
        let len = self.plan.burst_len.as_nanos().min(every);
        if every == 0 || len == 0 || self.plan.burst_factor <= 1.0 {
            return (elapsed, false);
        }
        let compressed_len = (len as f64 / self.plan.burst_factor).round() as u64;
        let warped_period = compressed_len + (every - len);
        let period = elapsed / every;
        let rem = elapsed % every;
        let in_burst = rem < len;
        let within = if in_burst {
            (rem as f64 / self.plan.burst_factor).round() as u64
        } else {
            compressed_len + (rem - len)
        };
        (period * warped_period + within, in_burst)
    }

    /// Applies the per-frame fault pipeline to one input frame:
    /// burst warp → stall → loss → poison/corruption → reorder key →
    /// enqueue (+ adjacent duplicate).
    fn consume(&mut self, frame: &CapturedFrame) {
        let i = self.index;
        self.index += 1;
        self.log.input += 1;
        let mut f = *frame;
        let origin = *self.origin.get_or_insert(f.t_end);

        let (warped, in_burst) =
            self.burst_warp(f.t_end.saturating_sub(origin).as_nanos());
        if in_burst {
            self.log.burst += 1;
        }
        f.t_end = Nanos::from_nanos(origin.as_nanos() + warped);

        // A stalled source swallows everything in the silent window —
        // no survivor, no duplicate.
        let stall_every = self.plan.stall_every.as_nanos();
        let stall_len = self.plan.stall_len.as_nanos().min(stall_every);
        if stall_every > 0 && stall_len > 0 {
            let elapsed = f.t_end.saturating_sub(origin).as_nanos();
            if elapsed % stall_every >= stall_every - stall_len {
                self.log.stalled += 1;
                return;
            }
        }

        let lost = match self.plan.loss {
            LossModel::None => false,
            LossModel::Iid { rate } => rate > 0.0 && self.rng.chance(rate),
            LossModel::GilbertElliott { enter_bad, exit_bad, loss_good, loss_bad } => {
                if self.bad_state {
                    if self.rng.chance(exit_bad) {
                        self.bad_state = false;
                    }
                } else if self.rng.chance(enter_bad) {
                    self.bad_state = true;
                }
                let p = if self.bad_state { loss_bad } else { loss_good };
                p > 0.0 && self.rng.chance(p)
            }
        };

        if lost {
            self.log.lost += 1;
        } else {
            if self.plan.poison_rate > 0.0 && self.rng.chance(self.plan.poison_rate) {
                // Re-attribute to the marked poison range; the frame is
                // otherwise intact, so only an armed `panic_probe`
                // (not any ingest gate) reacts to it.
                f.transmitter =
                    Some(MacAddr::from_index(POISON_DEVICE_BASE + self.rng.below(8)));
                self.log.poisoned += 1;
            } else if self.plan.corruption_rate > 0.0 && self.rng.chance(self.plan.corruption_rate) {
                // Truncate below any plausible on-air length: the
                // engines' runt gate (min_frame_size >= 8) always
                // catches these.
                f.size = self.rng.below(8) as usize;
                self.log.corrupted += 1;
            }
            let mut key = i;
            if self.plan.reorder_depth > 0
                && self.plan.reorder_rate > 0.0
                && self.rng.chance(self.plan.reorder_rate)
            {
                key = i + 1 + self.rng.below(self.plan.reorder_depth as u64);
                self.log.displaced += 1;
            }
            self.enqueue(key, f);
            if self.plan.duplicate_rate > 0.0 && self.rng.chance(self.plan.duplicate_rate) {
                self.log.duplicated += 1;
                self.enqueue(key, f);
            }
        }
    }
}

impl<I: Iterator<Item = CapturedFrame>> Iterator for FaultedStream<I> {
    type Item = CapturedFrame;

    fn next(&mut self) -> Option<CapturedFrame> {
        loop {
            // An entry keyed before the next input position can no
            // longer be preceded by anything: emit it. Once the inner
            // stream is exhausted, everything drains in key order.
            if let Some(&(key, _, _)) = self.buffer.front() {
                if self.exhausted || key < self.index {
                    let (_, _, f) = self.buffer.pop_front().expect("checked front");
                    if self.t_max_emitted.is_some_and(|m| f.t_end < m) {
                        self.log.inversions += 1;
                    }
                    self.t_max_emitted =
                        Some(self.t_max_emitted.map_or(f.t_end, |m| m.max(f.t_end)));
                    self.log.emitted += 1;
                    return Some(f);
                }
            } else if self.exhausted {
                return None;
            }
            match self.inner.next() {
                Some(frame) => self.consume(&frame),
                None => self.exhausted = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_ieee80211::{Frame, Rate};

    fn frames(n: u64) -> Vec<CapturedFrame> {
        (0..n)
            .map(|i| {
                let sta = MacAddr::from_index(1 + i % 3);
                let ap = MacAddr::from_index(99);
                let f = Frame::data_to_ds(sta, ap, ap, 200 + (i % 5) as usize * 100);
                CapturedFrame::from_frame(&f, Rate::R24M, Nanos::from_micros(1_000 + i * 500), -55)
            })
            .collect()
    }

    #[test]
    fn clean_plan_is_the_identity() {
        let input = frames(500);
        let (out, log) = FaultInjector::new(FaultPlan::clean(), 7).degrade(&input);
        assert_eq!(out, input);
        assert_eq!(log.input, 500);
        assert_eq!(log.emitted, 500);
        assert_eq!(log.lost + log.duplicated + log.corrupted + log.inversions, 0);
    }

    #[test]
    fn same_seed_same_degradation_different_seed_different() {
        let input = frames(400);
        let injector = FaultInjector::new(FaultPlan::noisy(), 11);
        let (a, log_a) = injector.degrade(&input);
        let (b, log_b) = injector.degrade(&input);
        assert_eq!(a, b, "same (plan, seed) is bit-identical");
        assert_eq!(log_a, log_b);
        let (c, _) = FaultInjector::new(FaultPlan::noisy(), 12).degrade(&input);
        assert_ne!(a, c, "a different seed degrades differently");
    }

    #[test]
    fn the_ledger_balances() {
        let input = frames(2_000);
        let (out, log) = FaultInjector::new(FaultPlan::noisy(), 3).degrade(&input);
        assert_eq!(log.input, 2_000);
        assert_eq!(log.emitted as usize, out.len());
        // input - lost survivors, each emitted once, plus duplicates.
        assert_eq!(log.emitted, log.input - log.lost + log.duplicated);
        assert!(log.lost > 100, "10% of 2000: {}", log.lost);
        assert!(log.duplicated > 0 && log.corrupted > 0);
    }

    #[test]
    fn reorder_displacement_is_bounded() {
        let input = frames(1_000);
        let plan = FaultPlan::clean().with_reordering(6, 0.5);
        let (out, log) = FaultInjector::new(plan, 19).degrade(&input);
        assert_eq!(out.len(), input.len());
        assert!(log.displaced > 300, "half the frames displaced: {}", log.displaced);
        assert!(log.inversions > 0, "displacement produced real inversions");
        // Same multiset, and no frame moved more than `depth` positions
        // from its original index.
        let mut sorted = out.clone();
        sorted.sort_by_key(|f| f.t_end);
        assert_eq!(sorted, input);
        for (j, f) in out.iter().enumerate() {
            let i = input.iter().position(|g| g == f).expect("same frames");
            assert!(i.abs_diff(j) <= 6, "frame {i} landed at {j}");
        }
    }

    #[test]
    fn gilbert_elliott_losses_come_in_bursts() {
        let input = frames(5_000);
        let model = LossModel::GilbertElliott {
            enter_bad: 0.01,
            exit_bad: 0.2,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let plan = FaultPlan::clean().with_loss(model);
        let (out, log) = FaultInjector::new(plan, 23).degrade(&input);
        assert!(log.lost > 0);
        assert_eq!(out.len() as u64 + log.lost, 5_000);
        // Burstiness: the longest run of consecutive losses is well
        // beyond what i.i.d. loss at the same rate would produce.
        let survivors: std::collections::BTreeSet<u64> =
            out.iter().map(|f| f.t_end.as_nanos()).collect();
        let mut longest = 0u32;
        let mut run = 0u32;
        for f in &input {
            if survivors.contains(&f.t_end.as_nanos()) {
                run = 0;
            } else {
                run += 1;
                longest = longest.max(run);
            }
        }
        assert!(longest >= 4, "expected a loss burst, longest run {longest}");
    }

    #[test]
    fn corruption_truncates_to_runts() {
        let input = frames(1_000);
        let plan = FaultPlan::clean().with_corruption(0.1);
        let (out, log) = FaultInjector::new(plan, 31).degrade(&input);
        let runts = out.iter().filter(|f| f.size < 8).count();
        assert_eq!(runts as u64, log.corrupted);
        assert!(log.corrupted > 50, "10% of 1000: {}", log.corrupted);
    }

    #[test]
    fn poison_frames_are_marked_counted_and_otherwise_intact() {
        let input = frames(1_000);
        let plan = FaultPlan::clean().with_poison(0.05);
        assert!(!plan.is_clean());
        let (out, log) = FaultInjector::new(plan, 37).degrade(&input);
        assert_eq!(out.len(), input.len(), "poison frames still emit");
        let marked = out.iter().filter(|f| is_poison_frame(f)).count();
        assert_eq!(marked as u64, log.poisoned);
        assert!(log.poisoned > 20, "5% of 1000: {}", log.poisoned);
        // Only attribution changes — timestamps and sizes are intact, so
        // no ingest gate reacts to a poison frame; only an armed
        // `panic_probe` does.
        for (a, b) in out.iter().zip(&input) {
            assert_eq!(a.t_end, b.t_end);
            assert_eq!(a.size, b.size);
        }
        assert!(input.iter().all(|f| !is_poison_frame(f)));
    }

    #[test]
    fn stalled_windows_swallow_their_frames() {
        // frames(2000) spans ~1 s at 500 µs spacing; a 30 ms silent tail
        // per 100 ms cycle swallows ~30% of it.
        let input = frames(2_000);
        let plan = FaultPlan::clean()
            .with_stalls(Nanos::from_millis(100), Nanos::from_millis(30));
        assert!(!plan.is_clean());
        let (out, log) = FaultInjector::new(plan, 41).degrade(&input);
        assert!(log.stalled > 0);
        assert_eq!(log.emitted + log.stalled, log.input);
        let rate = log.stalled as f64 / log.input as f64;
        assert!((rate - 0.30).abs() < 0.05, "stall rate {rate}");
        // The silence is real: nothing emitted lands inside a stall
        // window.
        let origin = input[0].t_end;
        for f in &out {
            let e = f.t_end.saturating_sub(origin).as_nanos();
            assert!(e % 100_000_000 < 70_000_000, "frame inside a stall window");
        }
    }

    #[test]
    fn bursts_compress_time_monotonically() {
        // 50 ms of every 100 ms compressed 10×: the warped span is
        // ~(5 + 50)/100 = 55% of the original, order is preserved.
        let input = frames(2_000);
        let plan = FaultPlan::clean()
            .with_bursts(Nanos::from_millis(100), Nanos::from_millis(50), 10.0);
        assert!(!plan.is_clean());
        let (out, log) = FaultInjector::new(plan, 43).degrade(&input);
        assert_eq!(out.len(), input.len());
        assert!(log.burst > 0, "burst segments saw frames");
        assert!(
            out.windows(2).all(|w| w[0].t_end <= w[1].t_end),
            "the warp is monotone"
        );
        let span_in = input.last().unwrap().t_end.as_nanos() - input[0].t_end.as_nanos();
        let span_out = out.last().unwrap().t_end.as_nanos() - out[0].t_end.as_nanos();
        let ratio = span_out as f64 / span_in as f64;
        assert!((ratio - 0.55).abs() < 0.02, "warped span ratio {ratio}");
    }

    #[test]
    fn the_extended_ledger_balances_with_every_knob_armed() {
        let input = frames(4_000);
        let plan = FaultPlan::noisy()
            .with_poison(0.02)
            .with_stalls(Nanos::from_millis(200), Nanos::from_millis(40))
            .with_bursts(Nanos::from_millis(150), Nanos::from_millis(50), 5.0);
        let (out, log) = FaultInjector::new(plan, 47).degrade(&input);
        assert_eq!(log.emitted as usize, out.len());
        assert_eq!(log.emitted, log.input - log.lost - log.stalled + log.duplicated);
        assert!(log.poisoned > 0 && log.stalled > 0 && log.burst > 0);
    }

    /// Order-sensitive FNV-1a digest of the frames' `Debug` rendering,
    /// which spells out every field of every frame.
    fn digest(frames: &[CapturedFrame]) -> u64 {
        format!("{frames:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Pins the exact ledger and emitted stream of two plans, so a random
    /// draw that moves (or a new draw on a path whose rate is zero) fails
    /// here rather than silently shifting every degraded-capture result
    /// built on the injector.
    #[test]
    fn injector_output_is_pinned() {
        let (out, log) = FaultInjector::new(FaultPlan::noisy(), 3).degrade(&frames(2_000));
        let expected = FaultLog {
            input: 2_000,
            emitted: 1_824,
            lost: 213,
            duplicated: 37,
            displaced: 343,
            inversions: 292,
            corrupted: 14,
            ..FaultLog::default()
        };
        assert_eq!(log, expected);
        assert_eq!(digest(&out), 0x914d_eeaf_2d9c_f1cc);

        let plan = FaultPlan::noisy()
            .with_poison(0.02)
            .with_stalls(Nanos::from_millis(200), Nanos::from_millis(40))
            .with_bursts(Nanos::from_millis(150), Nanos::from_millis(50), 5.0);
        let (out, log) = FaultInjector::new(plan, 47).degrade(&frames(4_000));
        let expected = FaultLog {
            input: 4_000,
            emitted: 3_012,
            lost: 324,
            duplicated: 56,
            displaced: 578,
            inversions: 471,
            corrupted: 29,
            poisoned: 50,
            stalled: 720,
            burst: 1_400,
        };
        assert_eq!(log, expected);
        assert_eq!(digest(&out), 0xcee9_47e7_560d_ffb7);
    }

    #[test]
    fn streaming_and_batch_paths_agree() {
        let input = frames(800);
        let injector = FaultInjector::new(FaultPlan::noisy(), 13);
        let (batch, log) = injector.degrade(&input);
        let streamed: Vec<CapturedFrame> = injector.stream(input.clone()).collect();
        assert_eq!(batch, streamed);
        assert!(log.emitted > 0);
    }
}
