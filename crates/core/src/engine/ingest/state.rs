//! Shared state of the bounded ingest ring.
//!
//! All queue state (the ring and the closed flag) lives behind one
//! mutex here, and the condition variables are the only blocking
//! primitive. Any number of producers share [`RingState::push`]; the
//! pipeline's one worker pops with [`RingState::pop_timeout`] in FIFO
//! order, so the frames it hands the engine keep the ring's order.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use wifiprint_radiotap::CapturedFrame;

use super::{EngineError, OverloadPolicy, SubmitOutcome};

/// One queued frame, tagged with its enqueue instant (for latency
/// accounting).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    /// The submitted frame.
    pub(crate) frame: CapturedFrame,
    /// When the frame entered the ring (queueing-latency anchor).
    pub(crate) enqueued: Instant,
}

/// What [`RingState::pop_timeout`] returned to the consumer.
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
    closed: bool,
}

/// The bounded ring: a mutex-guarded queue with two condition variables.
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
            ring: Mutex::new(Ring { queue: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Submits one frame under the configured [`OverloadPolicy`].
    /// `Block` waits for room; the shed policies never wait.
    ///
    /// # Errors
    ///
    /// [`EngineError::Finished`] once the ring is closed; nothing was
    /// enqueued.
    pub(crate) fn push(&self, frame: &CapturedFrame) -> Result<SubmitOutcome, EngineError> {
        let mut ring = self.ring.lock().expect("ring lock");
        if ring.closed {
            return Err(EngineError::Finished);
        }
        let mut outcome = SubmitOutcome::Enqueued;
        if ring.queue.len() >= self.capacity {
            match self.overload {
                OverloadPolicy::Block => {
                    while ring.queue.len() >= self.capacity && !ring.closed {
                        ring = self.not_full.wait(ring).expect("ring lock");
                    }
                    if ring.closed {
                        return Err(EngineError::Finished);
                    }
                }
                OverloadPolicy::ShedNewest => return Ok(SubmitOutcome::ShedNewest),
                OverloadPolicy::ShedOldest => {
                    ring.queue.pop_front();
                    outcome = SubmitOutcome::ShedOldest;
                }
            }
        }
        ring.queue.push_back(Ticket { frame: *frame, enqueued: Instant::now() });
        self.not_empty.notify_one();
        Ok(outcome)
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

    /// Closes the channel: producers fail fast, blocked producers wake
    /// with [`EngineError::Finished`], and the consumer drains the
    /// remainder then sees [`PopOutcome::Closed`].
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

    /// Pops one ticket (waiting at most 5 s for it) and returns its
    /// frame's capture time in microseconds.
    fn pop_t_us(ring: &RingState) -> u64 {
        match ring.pop_timeout(Some(Duration::from_secs(5))) {
            PopOutcome::Item(t) => t.frame.t_end.as_nanos() / 1_000,
            other => panic!("expected an item, got {other:?}"),
        }
    }

    #[test]
    fn shed_newest_drops_the_submission_itself() {
        let ring = RingState::new(2, OverloadPolicy::ShedNewest);
        assert!(matches!(ring.push(&frame(1)), Ok(SubmitOutcome::Enqueued)));
        assert!(matches!(ring.push(&frame(2)), Ok(SubmitOutcome::Enqueued)));
        assert!(matches!(ring.push(&frame(3)), Ok(SubmitOutcome::ShedNewest)));
        assert_eq!(ring.len(), 2);
        // The queue still holds the two oldest frames.
        assert_eq!([pop_t_us(&ring), pop_t_us(&ring)], [1, 2]);
    }

    #[test]
    fn shed_oldest_makes_room_for_the_newest() {
        let ring = RingState::new(2, OverloadPolicy::ShedOldest);
        ring.push(&frame(1)).expect("open");
        ring.push(&frame(2)).expect("open");
        assert!(matches!(ring.push(&frame(3)), Ok(SubmitOutcome::ShedOldest)));
        assert_eq!(ring.len(), 2);
        assert_eq!(
            [pop_t_us(&ring), pop_t_us(&ring)],
            [2, 3],
            "the second-oldest survives, the newest is queued"
        );
    }

    #[test]
    fn close_wakes_consumers_and_fails_producers() {
        let ring = RingState::new(4, OverloadPolicy::Block);
        ring.push(&frame(1)).expect("open");
        ring.close();
        assert!(matches!(ring.push(&frame(2)), Err(EngineError::Finished)));
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
        ring.push(&frame(1)).expect("open");
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
        assert!(matches!(producer.join().expect("producer"), Ok(SubmitOutcome::Enqueued)));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn two_producers_each_pop_in_their_own_push_order() {
        use std::sync::{Arc, Barrier};
        // Producer A pushes t = 0..100 µs, producer B t = 100..200 µs,
        // released together so their pushes interleave. A ring of 8
        // forces both to block and resume many times.
        let ring = Arc::new(RingState::new(8, OverloadPolicy::Block));
        let start = Arc::new(Barrier::new(3));
        let producers: Vec<_> = [0..100u64, 100..200]
            .into_iter()
            .map(|range| {
                let (ring, start) = (Arc::clone(&ring), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for t in range {
                        ring.push(&frame(t)).expect("open");
                    }
                })
            })
            .collect();
        start.wait();
        let popped: Vec<u64> = (0..200).map(|_| pop_t_us(&ring)).collect();
        for p in producers {
            p.join().expect("producer");
        }
        assert_eq!(ring.len(), 0, "nothing left behind");
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>(), "every frame pops exactly once");
        let a: Vec<u64> = popped.iter().copied().filter(|&t| t < 100).collect();
        let b: Vec<u64> = popped.iter().copied().filter(|&t| t >= 100).collect();
        assert_eq!(a, (0..100).collect::<Vec<_>>(), "producer A's frames keep its order");
        assert_eq!(b, (100..200).collect::<Vec<_>>(), "producer B's frames keep its order");
    }
}
