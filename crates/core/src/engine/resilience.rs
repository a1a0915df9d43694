//! Degraded-capture resilience: the engine's ingest front.
//!
//! A passive monitor's view of the medium is imperfect by construction —
//! ring buffers overflow (loss), USB capture paths batch and reorder,
//! drivers re-deliver frames (duplicates), and truncated captures carry
//! garbage header fields. The default engine contract is strict: frames
//! must arrive in capture order ([`EngineError::NonMonotonicFrame`]) and
//! are trusted verbatim. [`ResilienceConfig`] relaxes that contract
//! *explicitly*, per deployment:
//!
//! * a [`LateFramePolicy`] decides what happens to a frame older than
//!   the stream's watermark — reject (default, today's behavior) or
//!   re-sequence through a bounded reorder buffer (`max_lateness: 0`
//!   drops and counts every late frame);
//! * duplicate suppression drops an exact re-delivery of any of the
//!   last `dedup_depth` frames that passed it (duplicates are never
//!   re-admitted; runts and late-dropped frames are);
//! * a minimum-size sanity gate drops truncated (runt) captures before
//!   they can poison signatures;
//! * a fusion quorum lets the [`MultiEngine`](super::MultiEngine) fuse
//!   over the *surviving* parameters when a window is too sparse for
//!   some of them, instead of withholding the fused score.
//!
//! Every dropped or rewritten frame is accounted for in [`EngineHealth`]
//! (readable via [`MultiEngine::health`](super::MultiEngine::health)), so operators can
//! reconcile engine-side counters against capture-side statistics.
//!
//! The **reorder** policy is a watermark re-sequencer: frames are held
//! in a buffer sorted by timestamp and released oldest-first once more
//! than `max_lateness` frames are pending. A stream whose frames are
//! displaced by at most `K` positions from capture order is re-sorted
//! *exactly* by a buffer of `max_lateness ≥ K` — the engine then emits
//! bit-identical events to the in-order stream (a property test pins
//! this for one-parameter and five-parameter specs).
//!
//! Per arrival the front costs `dedup_depth` timestamp compares (a full
//! frame comparison runs only on a timestamp hit) plus one
//! reorder-buffer insert, which appends without a search when the
//! frame is not older than the buffer's newest.

use std::collections::VecDeque;

use wifiprint_ieee80211::Nanos;
use wifiprint_radiotap::CapturedFrame;

use super::EngineError;

/// The shortest frame a monitor can capture whole: frame control +
/// duration + one address + FCS (an ACK/CTS is 14 bytes on air).
/// [`ResilienceConfig::tolerant`] uses it as the runt gate.
pub const MIN_PLAUSIBLE_FRAME_SIZE: usize = 14;

/// What to do with a frame older than the stream's watermark (the
/// newest delivered timestamp, also advanced by `advance_to`/`tick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LateFramePolicy {
    /// Reject the frame with [`EngineError::NonMonotonicFrame`] — the
    /// strict historical contract, and still the default. A rejected
    /// frame leaves the front untouched: it is not counted and does not
    /// enter the duplicate ring.
    Reject,
    /// Re-sequence through a bounded buffer: frames are delivered in
    /// timestamp order once more than `max_lateness` of them are
    /// pending, so any stream shuffled within a `max_lateness`-frame
    /// horizon is restored to capture order exactly. Frames that arrive
    /// *behind* the already-delivered watermark are dropped and counted
    /// in [`EngineHealth::frames_late_dropped`], and the stream stays
    /// alive. `max_lateness: 0` buffers nothing: every late frame is
    /// dropped and every other frame is delivered at once.
    Reorder {
        /// Maximum positional displacement the buffer absorbs (also its
        /// capacity in frames).
        max_lateness: usize,
    },
}

/// Ingest-hardening knobs of the [`MultiEngine`](super::MultiEngine);
/// set via
/// [`MultiEngineBuilder::resilience`](super::MultiEngineBuilder::resilience).
/// The default is **bit-for-bit** the historical strict behavior: late
/// frames rejected, nothing deduplicated, nothing gated, fused scores
/// requiring every parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Late-frame policy (default [`LateFramePolicy::Reject`]).
    pub late_policy: LateFramePolicy,
    /// Depth of the ring used for exact-duplicate suppression; `0`
    /// (default) disables it. The ring holds the last `dedup_depth`
    /// frames that passed the duplicate check — a dropped duplicate is
    /// never re-admitted, while a runt or late-dropped frame is. A frame
    /// equal in every field to one in the ring is dropped and counted in
    /// [`EngineHealth::frames_duplicate`]: at depth 2, arrivals A, B, B,
    /// A drop the second B *and* the second A. Costs `dedup_depth`
    /// timestamp compares per arrival.
    pub dedup_depth: usize,
    /// Frames smaller than this many on-air bytes are dropped as
    /// truncated/corrupt captures ([`EngineHealth::frames_corrupt`]);
    /// `0` (default) disables the gate.
    pub min_frame_size: usize,
    /// The minimum number of
    /// parameters a candidate must have scored views for to receive a
    /// fused score. `None` (default) requires **all** fused parameters —
    /// the historical behavior. `Some(q)` fuses over the surviving
    /// subset (weights renormalised) when at least `q` parameters
    /// scored and their weights do not sum to zero, marking the event
    /// as degraded.
    pub fusion_quorum: Option<usize>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            late_policy: LateFramePolicy::Reject,
            dedup_depth: 0,
            min_frame_size: 0,
            fusion_quorum: None,
        }
    }
}

impl ResilienceConfig {
    /// A preset for degraded captures: 64-frame reorder horizon,
    /// duplicate suppression against the last 64 frames that passed it,
    /// runt gate at [`MIN_PLAUSIBLE_FRAME_SIZE`], and fusion over
    /// whatever parameters survive (quorum 1).
    #[must_use]
    pub fn tolerant() -> Self {
        ResilienceConfig {
            late_policy: LateFramePolicy::Reorder { max_lateness: 64 },
            dedup_depth: 64,
            min_frame_size: MIN_PLAUSIBLE_FRAME_SIZE,
            fusion_quorum: Some(1),
        }
    }

    /// Returns a copy with a different late-frame policy.
    #[must_use]
    pub fn with_late_policy(mut self, policy: LateFramePolicy) -> Self {
        self.late_policy = policy;
        self
    }

    /// Returns a copy with a different duplicate-suppression depth.
    #[must_use]
    pub fn with_dedup_depth(mut self, depth: usize) -> Self {
        self.dedup_depth = depth;
        self
    }

    /// Returns a copy with a different runt-frame gate.
    #[must_use]
    pub fn with_min_frame_size(mut self, size: usize) -> Self {
        self.min_frame_size = size;
        self
    }

    /// Returns a copy with a different fusion quorum.
    #[must_use]
    pub fn with_fusion_quorum(mut self, quorum: Option<usize>) -> Self {
        self.fusion_quorum = quorum;
        self
    }
}

/// Ingest-health counters, readable via
/// [`MultiEngine::health`](super::MultiEngine::health).
///
/// The counters reconcile with the arrival stream by conservation:
/// every arrival is either delivered to the engine core
/// (`frames_observed()`), still pending in the reorder buffer, or
/// counted in exactly one of the drop counters below. The supervised
/// [`IngestPipeline`](super::ingest::IngestPipeline) extends the same
/// law with three front-of-engine counters — sheds, quarantines and
/// worker restarts — so that
///
/// ```text
/// seen = delivered + dropped + shed + quarantined + pending
/// ```
///
/// holds exactly for a supervised session too ([`EngineHealth::conserves`]).
/// On an unsupervised engine the three pipeline counters stay zero and
/// the law reduces to the PR 6 form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineHealth {
    /// Frames presented to `observe` (before any gating), except frames
    /// rejected under [`LateFramePolicy::Reject`], which are not
    /// counted. On a supervised pipeline: frames submitted to the
    /// ingest ring.
    pub frames_seen: u64,
    /// Exact duplicates dropped by the suppression ring.
    pub frames_duplicate: u64,
    /// Truncated/corrupt frames dropped by the minimum-size gate.
    pub frames_corrupt: u64,
    /// Late frames dropped behind the delivered watermark under
    /// [`LateFramePolicy::Reorder`].
    pub frames_late_dropped: u64,
    /// Frames that arrived out of timestamp order but were successfully
    /// re-sequenced by the reorder buffer.
    pub frames_reordered: u64,
    /// Windows whose fused decision was degraded (fused over a quorum
    /// subset of parameters). Always `0` for a one-parameter spec.
    pub windows_degraded: u64,
    /// Frames shed at the supervised ingest ring by an
    /// [`OverloadPolicy`](super::ingest::OverloadPolicy) — they never
    /// reached the engine. Always `0` on an unsupervised engine.
    pub frames_shed: u64,
    /// Frames quarantined by the supervised pipeline: poison frames
    /// whose sweep panicked, plus frames the engine rejected with an
    /// error. Always `0` on an unsupervised engine.
    pub frames_quarantined: u64,
    /// Times the supervising pipeline restarted its worker after an
    /// isolated panic. Not a frame counter — it does not participate in
    /// conservation. Always `0` on an unsupervised engine.
    pub workers_restarted: u64,
}

impl EngineHealth {
    /// Total frames dropped by the ingest front (duplicate + corrupt +
    /// late). Sheds and quarantines are counted separately — they happen
    /// in front of (or around) the engine, not inside its gates.
    #[must_use]
    pub fn frames_dropped(&self) -> u64 {
        self.frames_duplicate + self.frames_corrupt + self.frames_late_dropped
    }

    /// The conservation law every session must satisfy exactly:
    /// `seen = delivered + dropped + shed + quarantined + pending`,
    /// where `delivered` is the frame count the engine core consumed
    /// (`frames_observed()`, minus any frame a panic interrupted) and
    /// `pending` is what is still buffered (ingest ring + reorder
    /// buffer). Chaos gates assert this after every degraded run.
    #[must_use]
    pub fn conserves(&self, delivered: u64, pending: u64) -> bool {
        self.frames_seen
            == delivered
                + self.frames_dropped()
                + self.frames_shed
                + self.frames_quarantined
                + pending
    }
}

/// The gatekeeper between raw arrivals and the engine core: applies the
/// [`ResilienceConfig`] (dedup → runt gate → late policy) and owns the
/// stream's monotonicity watermark. With the default config this is
/// exactly the historical floor check — one comparison, no buffering.
#[derive(Debug)]
pub(crate) struct IngestFront {
    cfg: ResilienceConfig,
    /// The delivered watermark: the newest timestamp handed to the
    /// engine core, also advanced by `advance_to`. Frames behind it are
    /// late.
    floor: Option<Nanos>,
    /// Newest *arrival* timestamp, for counting re-sequenced frames.
    arrival_max: Option<Nanos>,
    /// The last `dedup_depth` frames that passed dedup.
    recent: DedupRing,
    /// Reorder buffer, sorted ascending by `t_end` (stable for ties).
    pending: VecDeque<CapturedFrame>,
    pub(crate) health: EngineHealth,
}

impl IngestFront {
    pub(crate) fn new(cfg: ResilienceConfig) -> Self {
        IngestFront {
            recent: DedupRing::new(cfg.dedup_depth),
            cfg,
            floor: None,
            arrival_max: None,
            pending: VecDeque::new(),
            health: EngineHealth::default(),
        }
    }

    pub(crate) fn config(&self) -> &ResilienceConfig {
        &self.cfg
    }

    /// The stream's watermark: the newest delivered (or ticked)
    /// timestamp — the engine's no-op floor for `advance_to`.
    pub(crate) fn last_t(&self) -> Option<Nanos> {
        self.floor
    }

    /// Admits one arrival. Returns at most one frame to deliver to the
    /// engine core *now* (the frame itself, or the oldest frame a full
    /// reorder buffer released to make room).
    ///
    /// # Errors
    ///
    /// [`EngineError::NonMonotonicFrame`] for a late frame under
    /// [`LateFramePolicy::Reject`] that is neither a duplicate nor a
    /// runt; the front is unchanged (no counter, no dedup entry), so the
    /// frame may be re-sent in order.
    pub(crate) fn admit(
        &mut self,
        frame: &CapturedFrame,
    ) -> Result<Option<CapturedFrame>, EngineError> {
        let t = frame.t_end;
        if let (LateFramePolicy::Reject, Some(last)) = (self.cfg.late_policy, self.floor) {
            if t < last && !self.absorbs(frame) {
                return Err(EngineError::NonMonotonicFrame { last, got: t });
            }
        }
        self.health.frames_seen += 1;
        if self.cfg.dedup_depth > 0 {
            if self.recent.contains(frame) {
                self.health.frames_duplicate += 1;
                return Ok(None);
            }
            self.recent.push(frame);
        }
        if frame.size < self.cfg.min_frame_size {
            self.health.frames_corrupt += 1;
            return Ok(None);
        }
        match self.cfg.late_policy {
            LateFramePolicy::Reject => {
                self.floor = Some(t);
                Ok(Some(*frame))
            }
            LateFramePolicy::Reorder { max_lateness } => {
                if self.floor.is_some_and(|last| t < last) {
                    // Behind the delivered watermark: the buffer cannot
                    // un-deliver, so this frame is beyond the horizon.
                    self.health.frames_late_dropped += 1;
                    return Ok(None);
                }
                if self.arrival_max.is_some_and(|m| t < m) {
                    self.health.frames_reordered += 1;
                }
                self.arrival_max = Some(self.arrival_max.map_or(t, |m| m.max(t)));
                // Stable insert: after all equal timestamps, preserving
                // arrival order among ties. Most arrivals are not older
                // than the newest buffered frame and append without a
                // search.
                let pos = match self.pending.back() {
                    Some(newest) if t < newest.t_end => {
                        self.pending.partition_point(|f| f.t_end <= t)
                    }
                    _ => self.pending.len(),
                };
                self.pending.insert(pos, *frame);
                if self.pending.len() > max_lateness {
                    let out = self.pending.pop_front().expect("len > max_lateness >= 0");
                    self.floor = Some(out.t_end);
                    return Ok(Some(out));
                }
                Ok(None)
            }
        }
    }

    /// Whether the duplicate ring or the runt gate drops `frame` before
    /// the late-frame policy sees it.
    fn absorbs(&self, frame: &CapturedFrame) -> bool {
        (self.cfg.dedup_depth > 0 && self.recent.contains(frame))
            || frame.size < self.cfg.min_frame_size
    }

    /// Releases every buffered frame with `t_end <= t` (in timestamp
    /// order), then raises the watermark to at least `t`. The engine
    /// calls this from `advance_to` *before* advancing its window
    /// clock, so buffered frames land in their proper windows.
    pub(crate) fn release_until(&mut self, t: Nanos) -> Vec<CapturedFrame> {
        let mut out = Vec::new();
        while self.pending.front().is_some_and(|f| f.t_end <= t) {
            out.push(self.pending.pop_front().expect("checked front"));
        }
        self.floor = Some(self.floor.map_or(t, |f| f.max(t)));
        out
    }

    /// Drains the whole reorder buffer in timestamp order (for
    /// `finish`).
    pub(crate) fn drain(&mut self) -> Vec<CapturedFrame> {
        if let Some(last) = self.pending.back() {
            self.floor = Some(self.floor.map_or(last.t_end, |f| f.max(last.t_end)));
        }
        self.pending.drain(..).collect()
    }

    /// Frames currently held by the reorder buffer.
    pub(crate) fn pending_frames(&self) -> usize {
        self.pending.len()
    }
}

/// The duplicate-suppression ring: the last `depth` frames that passed
/// dedup, beside a dense ring of their `t_end`s. Both rings are pushed
/// and evicted together in [`DedupRing::push`], so index `i` of one is
/// index `i` of the other. An arrival scans only the timestamps; the
/// full-frame comparison runs on a timestamp hit, which is exact
/// because equal frames have equal `t_end`.
#[derive(Debug)]
struct DedupRing {
    depth: usize,
    t_ends: VecDeque<Nanos>,
    frames: VecDeque<CapturedFrame>,
}

impl DedupRing {
    /// An empty ring; it grows as frames arrive, so a large `depth`
    /// reserves nothing up front.
    fn new(depth: usize) -> Self {
        DedupRing { depth, t_ends: VecDeque::new(), frames: VecDeque::new() }
    }

    /// Whether a frame equal to `frame` is in the ring.
    fn contains(&self, frame: &CapturedFrame) -> bool {
        let (older, newer) = self.t_ends.as_slices();
        let hit = |offset: usize, t_ends: &[Nanos]| {
            t_ends
                .iter()
                .enumerate()
                .any(|(i, &t)| t == frame.t_end && self.frames[offset + i] == *frame)
        };
        hit(0, older) || hit(older.len(), newer)
    }

    /// Records `frame`, evicting the oldest entry when full. The front
    /// pushes only when dedup is on (`depth >= 1`).
    fn push(&mut self, frame: &CapturedFrame) {
        if self.frames.len() == self.depth {
            self.t_ends.pop_front();
            self.frames.pop_front();
        }
        self.t_ends.push_back(frame.t_end);
        self.frames.push_back(*frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wifiprint_ieee80211::{FrameKind, MacAddr, Rate};

    fn frame(t_us: u64, size: usize) -> CapturedFrame {
        CapturedFrame {
            t_end: Nanos::from_micros(t_us),
            air_time: Nanos::from_micros(100),
            rate: Rate::R24M,
            size,
            kind: FrameKind::Data,
            transmitter: Some(MacAddr::from_index(1)),
            receiver: MacAddr::from_index(2),
            dest_group: false,
            retry: false,
            signal_dbm: -55,
        }
    }

    #[test]
    fn default_front_is_the_strict_floor_check() {
        let mut front = IngestFront::new(ResilienceConfig::default());
        assert_eq!(front.admit(&frame(10, 100)).unwrap(), Some(frame(10, 100)));
        assert!(matches!(
            front.admit(&frame(5, 100)),
            Err(EngineError::NonMonotonicFrame { .. })
        ));
        // Equal timestamps are in order (monitor clocks can tie).
        assert_eq!(front.admit(&frame(10, 100)).unwrap(), Some(frame(10, 100)));
        // The rejected frame is not counted.
        assert_eq!(front.health.frames_seen, 2);
        assert_eq!(front.health.frames_dropped(), 0);
    }

    #[test]
    fn rejected_frame_leaves_counters_and_dedup_ring_untouched() {
        let cfg = ResilienceConfig::default().with_dedup_depth(1);
        let mut front = IngestFront::new(cfg);
        let mut delivered = Vec::new();
        // Arrivals A@1 µs, B@3, C@2 (rejected and skipped), then B@3
        // re-delivered: the ring still holds B, so the re-delivery is a
        // duplicate and B reaches the engine once.
        for t in [1u64, 3, 2, 3] {
            match front.admit(&frame(t, 100)) {
                Ok(Some(f)) => delivered.push(f.t_end.as_nanos() / 1_000),
                Ok(None) => {}
                Err(EngineError::NonMonotonicFrame { .. }) => assert_eq!(t, 2),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(delivered, vec![1, 3], "B delivered once");
        assert_eq!(front.health.frames_duplicate, 1);
        assert_eq!(front.health.frames_seen, 3);
        assert!(front.health.conserves(delivered.len() as u64, front.pending_frames() as u64));
    }

    #[test]
    fn drop_policy_counts_and_continues() {
        let cfg = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 0 });
        let mut front = IngestFront::new(cfg);
        assert!(front.admit(&frame(10, 100)).unwrap().is_some());
        assert!(front.admit(&frame(5, 100)).unwrap().is_none());
        assert!(front.admit(&frame(12, 100)).unwrap().is_some());
        assert_eq!(front.health.frames_late_dropped, 1);
        assert_eq!(front.health.frames_reordered, 0);
        assert_eq!(front.pending_frames(), 0);
    }

    #[test]
    fn reorder_restores_a_bounded_shuffle() {
        let cfg = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 2 });
        let mut front = IngestFront::new(cfg);
        let mut delivered = Vec::new();
        // Arrival order 30, 10, 20, 40 (displacement ≤ 2).
        for t in [30u64, 10, 20, 40] {
            if let Some(f) = front.admit(&frame(t, 100)).unwrap() {
                delivered.push(f.t_end.as_nanos());
            }
        }
        delivered.extend(front.drain().into_iter().map(|f| f.t_end.as_nanos()));
        assert_eq!(delivered, vec![10_000, 20_000, 30_000, 40_000]);
        assert_eq!(front.health.frames_reordered, 2, "10 and 20 arrived late");
        assert_eq!(front.health.frames_late_dropped, 0);
    }

    #[test]
    fn reorder_drops_frames_behind_the_delivered_watermark() {
        let cfg = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 1 });
        let mut front = IngestFront::new(cfg);
        assert!(front.admit(&frame(10, 100)).unwrap().is_none());
        // Buffer over capacity: 10 is delivered, watermark = 10.
        assert_eq!(front.admit(&frame(20, 100)).unwrap().unwrap().t_end, Nanos::from_micros(10));
        // A frame behind the watermark is beyond the horizon.
        assert!(front.admit(&frame(5, 100)).unwrap().is_none());
        assert_eq!(front.health.frames_late_dropped, 1);
        assert_eq!(front.pending_frames(), 1);
    }

    #[test]
    fn release_until_flushes_in_order_and_raises_the_watermark() {
        let cfg = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 8 });
        let mut front = IngestFront::new(cfg);
        for t in [30u64, 10, 20, 50] {
            assert!(front.admit(&frame(t, 100)).unwrap().is_none());
        }
        let released: Vec<u64> = front
            .release_until(Nanos::from_micros(25))
            .into_iter()
            .map(|f| f.t_end.as_nanos() / 1_000)
            .collect();
        assert_eq!(released, vec![10, 20]);
        assert_eq!(front.last_t(), Some(Nanos::from_micros(25)));
        assert_eq!(front.pending_frames(), 2);
        // The raised watermark now rejects (drops) older arrivals.
        assert!(front.admit(&frame(22, 100)).unwrap().is_none());
        assert_eq!(front.health.frames_late_dropped, 1);
    }

    #[test]
    fn dedup_ring_drops_exact_re_deliveries() {
        let cfg = ResilienceConfig::default().with_dedup_depth(2);
        let mut front = IngestFront::new(cfg);
        let f = frame(10, 100);
        assert!(front.admit(&f).unwrap().is_some());
        assert!(front.admit(&f).unwrap().is_none(), "exact duplicate");
        // A frame differing in any field is not a duplicate (same
        // timestamp keeps the strict monotonicity check out of play).
        assert!(front.admit(&frame(10, 101)).unwrap().is_some());
        // The ring is bounded: after two newer frames, f is forgotten.
        assert!(front.admit(&frame(10, 102)).unwrap().is_some());
        assert!(front.admit(&f).unwrap().is_some());
        assert_eq!(front.health.frames_duplicate, 1);
    }

    #[test]
    fn unbounded_dedup_depth_reserves_nothing_up_front() {
        let cfg = ResilienceConfig::default().with_dedup_depth(usize::MAX);
        let mut engine = crate::engine::MultiEngine::builder()
            .train_for(Nanos::from_secs(1))
            .resilience(cfg)
            .build()
            .unwrap();
        let f = frame(10, 100);
        engine.observe(&f).unwrap();
        engine.observe(&f).unwrap();
        assert_eq!(engine.health().frames_duplicate, 1);
    }

    #[test]
    fn runt_gate_drops_truncated_frames() {
        let cfg = ResilienceConfig::tolerant();
        let mut front = IngestFront::new(cfg);
        assert!(front.admit(&frame(10, 4)).unwrap().is_none());
        assert_eq!(front.health.frames_corrupt, 1);
        // A duplicate of a runt counts as duplicate, not corrupt twice:
        // the dedup ring sees every arrival first.
        assert!(front.admit(&frame(10, 4)).unwrap().is_none());
        assert_eq!(front.health.frames_corrupt, 1);
        assert_eq!(front.health.frames_duplicate, 1);
    }

    #[test]
    fn conservation_law_covers_the_pipeline_counters() {
        // Unsupervised front: seen = delivered + dropped + pending.
        let cfg = ResilienceConfig::tolerant();
        let mut front = IngestFront::new(cfg);
        let mut delivered = 0u64;
        for t in [30u64, 10, 20, 40] {
            if front.admit(&frame(t, 100)).unwrap().is_some() {
                delivered += 1;
            }
        }
        assert!(front.admit(&frame(40, 4)).unwrap().is_none(), "runt");
        assert!(front.health.conserves(delivered, front.pending_frames() as u64));

        // Supervised counters extend the same identity: a shed and a
        // quarantined frame are each accounted exactly once.
        let mut health = front.health;
        health.frames_seen += 2;
        health.frames_shed += 1;
        health.frames_quarantined += 1;
        health.workers_restarted += 1; // not a frame counter: no effect
        assert!(health.conserves(delivered, front.pending_frames() as u64));
        // Losing a frame from every bucket breaks the law.
        health.frames_seen += 1;
        assert!(!health.conserves(delivered, front.pending_frames() as u64));
    }

    #[test]
    fn tolerant_preset_and_builders_compose() {
        let cfg = ResilienceConfig::tolerant()
            .with_dedup_depth(8)
            .with_min_frame_size(0)
            .with_fusion_quorum(Some(3))
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 0 });
        assert_eq!(cfg.dedup_depth, 8);
        assert_eq!(cfg.min_frame_size, 0);
        assert_eq!(cfg.fusion_quorum, Some(3));
        assert_eq!(cfg.late_policy, LateFramePolicy::Reorder { max_lateness: 0 });
        assert_eq!(ResilienceConfig::default().late_policy, LateFramePolicy::Reject);
    }

    /// Reference model of the front, the oracle for the property below:
    /// a full-frame `VecDeque::contains` dedup scan and a
    /// `partition_point` reorder insert.
    struct Model {
        cfg: ResilienceConfig,
        floor: Option<Nanos>,
        arrival_max: Option<Nanos>,
        recent: VecDeque<CapturedFrame>,
        pending: VecDeque<CapturedFrame>,
        health: EngineHealth,
    }

    impl Model {
        fn new(cfg: ResilienceConfig) -> Self {
            Model {
                cfg,
                floor: None,
                arrival_max: None,
                recent: VecDeque::new(),
                pending: VecDeque::new(),
                health: EngineHealth::default(),
            }
        }

        fn absorbs(&self, frame: &CapturedFrame) -> bool {
            (self.cfg.dedup_depth > 0 && self.recent.contains(frame))
                || frame.size < self.cfg.min_frame_size
        }

        /// `Err(last)` stands for `NonMonotonicFrame { last, .. }`.
        fn admit(&mut self, frame: &CapturedFrame) -> Result<Option<CapturedFrame>, Nanos> {
            let t = frame.t_end;
            if let (LateFramePolicy::Reject, Some(last)) = (self.cfg.late_policy, self.floor) {
                if t < last && !self.absorbs(frame) {
                    return Err(last);
                }
            }
            self.health.frames_seen += 1;
            if self.cfg.dedup_depth > 0 {
                if self.recent.contains(frame) {
                    self.health.frames_duplicate += 1;
                    return Ok(None);
                }
                if self.recent.len() == self.cfg.dedup_depth {
                    self.recent.pop_front();
                }
                self.recent.push_back(*frame);
            }
            if frame.size < self.cfg.min_frame_size {
                self.health.frames_corrupt += 1;
                return Ok(None);
            }
            match self.cfg.late_policy {
                LateFramePolicy::Reject => {
                    self.floor = Some(t);
                    Ok(Some(*frame))
                }
                LateFramePolicy::Reorder { max_lateness } => {
                    if self.floor.is_some_and(|last| t < last) {
                        self.health.frames_late_dropped += 1;
                        return Ok(None);
                    }
                    if self.arrival_max.is_some_and(|m| t < m) {
                        self.health.frames_reordered += 1;
                    }
                    self.arrival_max = Some(self.arrival_max.map_or(t, |m| m.max(t)));
                    let pos = self.pending.partition_point(|f| f.t_end <= t);
                    self.pending.insert(pos, *frame);
                    if self.pending.len() > max_lateness {
                        let out = self.pending.pop_front().expect("len > max_lateness");
                        self.floor = Some(out.t_end);
                        return Ok(Some(out));
                    }
                    Ok(None)
                }
            }
        }

        fn release_until(&mut self, t: Nanos) -> Vec<CapturedFrame> {
            let mut out = Vec::new();
            while self.pending.front().is_some_and(|f| f.t_end <= t) {
                out.push(self.pending.pop_front().expect("checked front"));
            }
            self.floor = Some(self.floor.map_or(t, |f| f.max(t)));
            out
        }

        fn drain(&mut self) -> Vec<CapturedFrame> {
            if let Some(last) = self.pending.back() {
                self.floor = Some(self.floor.map_or(last.t_end, |f| f.max(last.t_end)));
            }
            self.pending.drain(..).collect()
        }
    }

    enum Op {
        Admit(CapturedFrame),
        Release(Nanos),
    }

    /// A fresh frame whose non-timestamp fields vary with `x`.
    fn varied(t_us: u64, size: usize, x: u64) -> CapturedFrame {
        CapturedFrame {
            rate: Rate::ALL_BG[(x / 3 % 12) as usize],
            transmitter: Some(MacAddr::from_index(x % 3)),
            retry: x % 2 == 1,
            signal_dbm: -((x % 40) as i8),
            ..frame(t_us, size)
        }
    }

    /// Materialises `(kind, x, y)` specs for a ring of `depth`: fresh
    /// frames with timestamps jittered up to `spread` µs ahead of a
    /// slow clock (ties and reorders), runts, exact re-deliveries at
    /// distances `0..=2 * depth` back, near-duplicates that keep
    /// `t_end` and change one other field, and watermark advances to
    /// the clock.
    fn materialise(specs: &[(u8, u64, u64)], depth: usize, spread: u64) -> Vec<Op> {
        let mut arrivals: Vec<CapturedFrame> = Vec::new();
        let mut ops = Vec::new();
        for (i, &(kind, x, y)) in specs.iter().enumerate() {
            let t_us = i as u64 / 2 + x % spread;
            let back = (x % (2 * depth as u64 + 1)) as usize;
            let earlier = arrivals.len().checked_sub(1 + back).map(|j| arrivals[j]);
            let size = MIN_PLAUSIBLE_FRAME_SIZE + y as usize;
            let f = match (kind, earlier) {
                (5, _) => varied(t_us, y as usize % MIN_PLAUSIBLE_FRAME_SIZE, x),
                (6 | 7, Some(f)) => f,
                (8, Some(mut f)) => {
                    match y % 5 {
                        0 => f.size += 1,
                        1 => f.signal_dbm = f.signal_dbm.wrapping_sub(1),
                        2 => f.retry = !f.retry,
                        3 => f.transmitter = None,
                        _ => f.air_time = Nanos::from_nanos(f.air_time.as_nanos() + 1),
                    }
                    f
                }
                (9, _) => {
                    ops.push(Op::Release(Nanos::from_micros(i as u64 / 2)));
                    continue;
                }
                _ => varied(t_us, size, x),
            };
            arrivals.push(f);
            ops.push(Op::Admit(f));
        }
        ops
    }

    proptest! {
        // The timestamp-indexed dedup ring and the appending reorder
        // insert deliver, count and buffer exactly what the full-frame
        // scan and the searched insert did, on streams long enough to
        // wrap every ring.
        #[test]
        fn front_matches_the_contains_and_partition_point_model(
            specs in prop::collection::vec((0u8..10, 0u64..1 << 20, 0u64..256), 130..400),
            spread in prop::sample::select(vec![1u64, 4, 64, 10_000]),
        ) {
            let policies = [0, 1, 8, 64]
                .map(|max_lateness| LateFramePolicy::Reorder { max_lateness });
            for depth in [1, 2, 3, 64] {
                let ops = materialise(&specs, depth, spread);
                for policy in std::iter::once(LateFramePolicy::Reject).chain(policies) {
                    let cfg = ResilienceConfig::default()
                        .with_dedup_depth(depth)
                        .with_min_frame_size(MIN_PLAUSIBLE_FRAME_SIZE)
                        .with_late_policy(policy);
                    let mut front = IngestFront::new(cfg.clone());
                    let mut model = Model::new(cfg);
                    for op in &ops {
                        match op {
                            Op::Admit(f) => {
                                let got = front.admit(f).map_err(|e| match e {
                                    EngineError::NonMonotonicFrame { last, .. } => last,
                                    other => panic!("unexpected error: {other}"),
                                });
                                prop_assert_eq!(got, model.admit(f), "{:?} depth {}", policy, depth);
                            }
                            Op::Release(t) => {
                                prop_assert_eq!(front.release_until(*t), model.release_until(*t));
                            }
                        }
                        prop_assert_eq!(front.health, model.health, "{:?} depth {}", policy, depth);
                        prop_assert_eq!(front.pending_frames(), model.pending.len());
                    }
                    prop_assert_eq!(front.drain(), model.drain());
                    prop_assert_eq!(front.last_t(), model.floor);
                }
            }
        }
    }
}
