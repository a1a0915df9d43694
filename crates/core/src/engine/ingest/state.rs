//! Shared state of the bounded MPMC ingest ring.
//!
//! All queue state (the ring, the sequence counter, the closed flag)
//! lives behind one mutex here, and the condition variables are the only
//! blocking primitive. Producers and the pipeline's worker call
//! `RingState` directly.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use wifiprint_radiotap::CapturedFrame;

use super::OverloadPolicy;

/// One queued frame, tagged with its submission sequence number (the
/// sequencer's ordering key) and its enqueue instant (for latency
/// accounting).
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    /// Submission order, assigned under the ring lock — dense across
    /// all producers, with sheds leaving explicit gaps the sequencer is
    /// told about.
    pub seq: u64,
    /// The submitted frame.
    pub frame: CapturedFrame,
    /// When the frame entered the ring (queueing-latency anchor).
    pub enqueued: Instant,
}

/// What [`RingState::push`] did with a submission.
#[derive(Debug)]
pub(crate) enum PushOutcome {
    /// The frame was enqueued.
    Enqueued,
    /// [`OverloadPolicy::ShedNewest`]: the ring was full and the
    /// submitted frame itself was shed; `seq` is its (never-enqueued)
    /// sequence number, which the caller must report to the sequencer
    /// as a gap.
    ShedNewest { seq: u64 },
    /// [`OverloadPolicy::ShedOldest`]: the submitted frame was enqueued
    /// and the oldest queued ticket was shed to make room.
    ShedOldest { dropped: Ticket },
    /// The channel is closed (the pipeline is finishing); nothing was
    /// enqueued.
    Closed,
}

/// What [`RingState::pop_timeout`] returned to a consumer.
#[derive(Debug)]
pub(crate) enum PopOutcome {
    /// The oldest queued ticket.
    Item(Ticket),
    /// The ring stayed empty past the deadline — the stall-watchdog
    /// signal.
    TimedOut,
    /// The channel is closed *and* drained: no ticket will ever arrive
    /// again.
    Closed,
}

#[derive(Debug)]
struct Ring {
    queue: VecDeque<Ticket>,
    next_seq: u64,
    closed: bool,
}

/// The bounded MPMC ring: a mutex-guarded queue with two condition
/// variables. Producers of any count share [`RingState::push`];
/// consumers of any count share [`RingState::pop_timeout`] — the
/// supervised pipeline runs one consumer today, but nothing in the
/// state assumes that.
#[derive(Debug)]
pub(crate) struct RingState {
    capacity: usize,
    overload: OverloadPolicy,
    ring: Mutex<Ring>,
    /// Signalled on enqueue and on close.
    not_empty: Condvar,
    /// Signalled on dequeue and on close (for blocked producers).
    not_full: Condvar,
}

impl RingState {
    pub(crate) fn new(capacity: usize, overload: OverloadPolicy) -> Self {
        RingState {
            capacity: capacity.max(1),
            overload,
            ring: Mutex::new(Ring { queue: VecDeque::new(), next_seq: 0, closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Submits one frame under the configured [`OverloadPolicy`].
    /// `Block` waits for room; the shed policies never wait.
    pub(crate) fn push(&self, frame: &CapturedFrame) -> PushOutcome {
        let mut ring = self.ring.lock().expect("ring lock");
        if ring.closed {
            return PushOutcome::Closed;
        }
        if ring.queue.len() >= self.capacity {
            match self.overload {
                OverloadPolicy::Block => {
                    while ring.queue.len() >= self.capacity && !ring.closed {
                        ring = self.not_full.wait(ring).expect("ring lock");
                    }
                    if ring.closed {
                        return PushOutcome::Closed;
                    }
                }
                OverloadPolicy::ShedNewest => {
                    let seq = ring.next_seq;
                    ring.next_seq += 1;
                    return PushOutcome::ShedNewest { seq };
                }
                OverloadPolicy::ShedOldest => {
                    let dropped = ring.queue.pop_front().expect("len >= capacity >= 1");
                    let seq = ring.next_seq;
                    ring.next_seq += 1;
                    ring.queue.push_back(Ticket { seq, frame: *frame, enqueued: Instant::now() });
                    self.not_empty.notify_one();
                    return PushOutcome::ShedOldest { dropped };
                }
            }
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.queue.push_back(Ticket { seq, frame: *frame, enqueued: Instant::now() });
        self.not_empty.notify_one();
        PushOutcome::Enqueued
    }

    /// Pops the oldest ticket, waiting up to `timeout` (forever when
    /// `None`). A `TimedOut` return means the ring stayed empty for the
    /// whole deadline — the watchdog's cue to force a window decision.
    pub(crate) fn pop_timeout(&self, timeout: Option<Duration>) -> PopOutcome {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut ring = self.ring.lock().expect("ring lock");
        loop {
            if let Some(ticket) = ring.queue.pop_front() {
                self.not_full.notify_one();
                return PopOutcome::Item(ticket);
            }
            if ring.closed {
                return PopOutcome::Closed;
            }
            match deadline {
                None => ring = self.not_empty.wait(ring).expect("ring lock"),
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return PopOutcome::TimedOut;
                    }
                    let (guard, _) =
                        self.not_empty.wait_timeout(ring, remaining).expect("ring lock");
                    ring = guard;
                }
            }
        }
    }

    /// Allocates a fresh sequence number for a non-frame emission (a
    /// watchdog tick or the final `finish` batch), so those events slot
    /// into the sequencer's total order after everything already
    /// submitted.
    pub(crate) fn alloc_seq(&self) -> u64 {
        let mut ring = self.ring.lock().expect("ring lock");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        seq
    }

    /// Closes the channel: producers fail fast, blocked producers wake
    /// with [`PushOutcome::Closed`], and consumers drain the remainder
    /// then see [`PopOutcome::Closed`].
    pub(crate) fn close(&self) {
        let mut ring = self.ring.lock().expect("ring lock");
        ring.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Tickets currently queued.
    pub(crate) fn len(&self) -> usize {
        self.ring.lock().expect("ring lock").queue.len()
    }
}

/// Reassembles per-ticket event batches into submission order.
///
/// Workers insert each processed ticket's events under its sequence
/// number; sheds and quarantines close their sequence numbers as gaps.
/// Events release strictly in ascending sequence order, buffering
/// out-of-order insertions until the gap fills — with today's single
/// supervised worker insertions already arrive in order and the
/// sequencer is pass-through, but a future per-shard worker pool
/// delivers through the same component unchanged.
#[derive(Debug)]
pub struct EventSequencer<T> {
    next: u64,
    /// Out-of-order batches (`None` marks a closed gap).
    pending: BTreeMap<u64, Option<Vec<T>>>,
    ready: VecDeque<T>,
}

impl<T> Default for EventSequencer<T> {
    fn default() -> Self {
        EventSequencer { next: 0, pending: BTreeMap::new(), ready: VecDeque::new() }
    }
}

impl<T> EventSequencer<T> {
    /// A sequencer expecting sequence numbers from 0.
    #[must_use]
    pub fn new() -> Self {
        EventSequencer::default()
    }

    /// Inserts the event batch of sequence number `seq`; releases it —
    /// and everything contiguously after it — once every earlier
    /// sequence number has been inserted or closed.
    pub fn insert(&mut self, seq: u64, events: Vec<T>) {
        if seq == self.next {
            self.ready.extend(events);
            self.next += 1;
            self.flush();
        } else if seq > self.next {
            self.pending.insert(seq, Some(events));
        }
        // seq < next: a duplicate of an already-released batch; ignore.
    }

    /// Marks `seq` as never coming (the ticket was shed or its frame
    /// quarantined), so later sequence numbers can release past it.
    pub fn close_gap(&mut self, seq: u64) {
        if seq == self.next {
            self.next += 1;
            self.flush();
        } else if seq > self.next {
            self.pending.insert(seq, None);
        }
    }

    fn flush(&mut self) {
        while let Some(entry) = self.pending.remove(&self.next) {
            if let Some(events) = entry {
                self.ready.extend(events);
            }
            self.next += 1;
        }
    }

    /// Takes every event released so far, in submission order.
    pub fn drain_ready(&mut self) -> Vec<T> {
        self.ready.drain(..).collect()
    }

    /// Event batches still buffered behind a gap.
    #[must_use]
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_ieee80211::{FrameKind, MacAddr, Nanos, Rate};

    fn frame(t_us: u64) -> CapturedFrame {
        CapturedFrame {
            t_end: Nanos::from_micros(t_us),
            air_time: Nanos::from_micros(100),
            rate: Rate::R24M,
            size: 200,
            kind: FrameKind::Data,
            transmitter: Some(MacAddr::from_index(1)),
            receiver: MacAddr::from_index(2),
            dest_group: false,
            retry: false,
            signal_dbm: -55,
        }
    }

    #[test]
    fn shed_newest_drops_the_submission_itself() {
        let ring = RingState::new(2, OverloadPolicy::ShedNewest);
        assert!(matches!(ring.push(&frame(1)), PushOutcome::Enqueued));
        assert!(matches!(ring.push(&frame(2)), PushOutcome::Enqueued));
        assert!(matches!(ring.push(&frame(3)), PushOutcome::ShedNewest { seq: 2 }));
        assert_eq!(ring.len(), 2);
        // The queue still holds the two oldest frames.
        let PopOutcome::Item(t) = ring.pop_timeout(Some(Duration::from_millis(1))) else {
            panic!("expected an item");
        };
        assert_eq!(t.seq, 0);
        assert_eq!(t.frame.t_end, Nanos::from_micros(1));
    }

    #[test]
    fn shed_oldest_makes_room_for_the_newest() {
        let ring = RingState::new(2, OverloadPolicy::ShedOldest);
        ring.push(&frame(1));
        ring.push(&frame(2));
        let PushOutcome::ShedOldest { dropped } = ring.push(&frame(3)) else {
            panic!("expected ShedOldest");
        };
        assert_eq!(dropped.seq, 0);
        assert_eq!(dropped.frame.t_end, Nanos::from_micros(1));
        let seqs: Vec<u64> = (0..2)
            .map(|_| match ring.pop_timeout(Some(Duration::from_millis(1))) {
                PopOutcome::Item(t) => t.seq,
                other => panic!("expected an item, got {other:?}"),
            })
            .collect();
        assert_eq!(seqs, [1, 2], "the second-oldest survives, the newest is queued");
    }

    #[test]
    fn close_wakes_consumers_and_fails_producers() {
        let ring = RingState::new(4, OverloadPolicy::Block);
        ring.push(&frame(1));
        ring.close();
        assert!(matches!(ring.push(&frame(2)), PushOutcome::Closed));
        // The queued ticket still drains before Closed.
        assert!(matches!(ring.pop_timeout(None), PopOutcome::Item(_)));
        assert!(matches!(ring.pop_timeout(None), PopOutcome::Closed));
    }

    #[test]
    fn empty_ring_times_out_for_the_watchdog() {
        let ring = RingState::new(4, OverloadPolicy::Block);
        assert!(matches!(
            ring.pop_timeout(Some(Duration::from_millis(5))),
            PopOutcome::TimedOut
        ));
    }

    #[test]
    fn blocked_producer_resumes_when_a_consumer_makes_room() {
        use std::sync::Arc;
        let ring = Arc::new(RingState::new(1, OverloadPolicy::Block));
        ring.push(&frame(1));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(&frame(2)))
        };
        // The producer is (about to be) blocked on a full ring; popping
        // one ticket unblocks it.
        loop {
            match ring.pop_timeout(Some(Duration::from_millis(50))) {
                PopOutcome::Item(_) => break,
                PopOutcome::TimedOut => {}
                PopOutcome::Closed => panic!("ring closed unexpectedly"),
            }
        }
        assert!(matches!(producer.join().expect("producer"), PushOutcome::Enqueued));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn two_producers_interleave_with_dense_sequence_numbers() {
        use std::sync::Arc;
        let ring = Arc::new(RingState::new(64, OverloadPolicy::Block));
        let a = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for t in 0..10u64 {
                    ring.push(&frame(t));
                }
            })
        };
        for t in 10..20u64 {
            ring.push(&frame(t));
        }
        a.join().expect("producer");
        let mut seqs = Vec::new();
        for _ in 0..20 {
            let PopOutcome::Item(ticket) = ring.pop_timeout(Some(Duration::from_millis(50)))
            else {
                panic!("expected 20 tickets");
            };
            seqs.push(ticket.seq);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, (0..20u64).collect::<Vec<_>>());
    }

    #[test]
    fn sequencer_releases_in_order_across_out_of_order_inserts() {
        let mut seq = EventSequencer::new();
        seq.insert(2, vec!["c"]);
        seq.insert(0, vec!["a1", "a2"]);
        assert_eq!(seq.drain_ready(), vec!["a1", "a2"]);
        assert_eq!(seq.pending_batches(), 1, "batch 2 waits for 1");
        seq.insert(1, vec!["b"]);
        assert_eq!(seq.drain_ready(), vec!["b", "c"]);
    }

    #[test]
    fn sequencer_gaps_release_what_they_were_blocking() {
        let mut seq = EventSequencer::new();
        seq.insert(1, vec!["b"]);
        seq.insert(3, vec!["d"]);
        assert!(seq.drain_ready().is_empty());
        seq.close_gap(0); // shed ticket 0
        assert_eq!(seq.drain_ready(), vec!["b"]);
        seq.close_gap(2); // quarantined ticket 2
        assert_eq!(seq.drain_ready(), vec!["d"]);
        assert_eq!(seq.pending_batches(), 0);
    }

    #[test]
    fn sequencer_ignores_duplicate_and_stale_batches() {
        let mut seq = EventSequencer::new();
        seq.insert(0, vec!["a"]);
        seq.insert(0, vec!["stale"]);
        seq.close_gap(0);
        seq.insert(1, vec!["b"]);
        assert_eq!(seq.drain_ready(), vec!["a", "b"]);
    }
}
