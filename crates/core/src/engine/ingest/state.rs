//! Shared state of the bounded ingest ring.
//!
//! All queue state (the ring, the closed flag and who sleeps on it)
//! lives behind one mutex here, and the condition variables are the only
//! blocking primitive. Any number of producers share [`RingState::push`];
//! the pipeline's one worker moves up to [`BATCH`] tickets at a time into
//! its own buffer with [`RingState::pop_batch`], in FIFO order, so the
//! frames it hands the engine keep the ring's order.
//!
//! Each side signals the other only when the other is asleep: `push`
//! wakes the consumer only if it waits on an empty ring, and `pop_batch`
//! wakes producers only if one is blocked on a full ring. Under `Block`
//! a steady producer thus sleeps and wakes once per batch rather than
//! once per frame. `close` wakes everyone.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use wifiprint_radiotap::CapturedFrame;

use super::{EngineError, OverloadPolicy, SubmitOutcome};

/// Most tickets one [`RingState::pop_batch`] moves to the consumer.
const BATCH: usize = 64;

/// One queued frame, tagged with its enqueue instant (for latency
/// accounting).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    /// The submitted frame.
    pub(crate) frame: CapturedFrame,
    /// When the frame entered the ring (queueing-latency anchor).
    pub(crate) enqueued: Instant,
}

/// What [`RingState::pop_batch`] returned to the consumer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PopOutcome {
    /// At least one ticket was moved into the consumer's buffer.
    Popped,
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
    /// The consumer sleeps on `not_empty`.
    consumer_waiting: bool,
    /// Producers sleeping on `not_full`.
    producers_blocked: usize,
}

/// The bounded ring: a mutex-guarded queue with two condition variables.
#[derive(Debug)]
pub(crate) struct RingState {
    capacity: usize,
    overload: OverloadPolicy,
    ring: Mutex<Ring>,
    /// Signalled on enqueue while the consumer waits, and on close.
    not_empty: Condvar,
    /// Signalled on dequeue while a producer is blocked, and on close.
    not_full: Condvar,
    /// Tickets the consumer has popped but not yet [retired](Self::retire).
    /// Raised under the ring lock, so [`pending`](Self::pending) never
    /// misses a ticket in transit between the queue and the consumer.
    held: AtomicUsize,
}

impl RingState {
    pub(crate) fn new(capacity: usize, overload: OverloadPolicy) -> Self {
        RingState {
            capacity: capacity.max(1),
            overload,
            ring: Mutex::new(Ring {
                queue: VecDeque::new(),
                closed: false,
                consumer_waiting: false,
                producers_blocked: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            held: AtomicUsize::new(0),
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
                        ring.producers_blocked += 1;
                        ring = self.not_full.wait(ring).expect("ring lock");
                        ring.producers_blocked -= 1;
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
        if ring.consumer_waiting {
            self.not_empty.notify_one();
        }
        Ok(outcome)
    }

    /// Moves up to [`BATCH`] of the oldest tickets to the back of
    /// `batch`, waiting up to `timeout` (forever when `None`) for the
    /// first. A `TimedOut` return means the ring stayed empty for the
    /// whole deadline — the watchdog's cue to force a window decision.
    /// Every popped ticket counts as [pending](Self::pending) until the
    /// consumer [retires](Self::retire) it.
    pub(crate) fn pop_batch(
        &self,
        batch: &mut VecDeque<Ticket>,
        timeout: Option<Duration>,
    ) -> PopOutcome {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut ring = self.ring.lock().expect("ring lock");
        loop {
            let taken = ring.queue.len().min(BATCH);
            if taken > 0 {
                batch.extend(ring.queue.drain(..taken));
                self.held.fetch_add(taken, Ordering::Relaxed);
                // A batch may free room for every blocked producer; those
                // that find the ring full again go back to sleep.
                if ring.producers_blocked > 0 {
                    self.not_full.notify_all();
                }
                return PopOutcome::Popped;
            }
            if ring.closed {
                return PopOutcome::Closed;
            }
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|r| r.is_zero()) {
                return PopOutcome::TimedOut;
            }
            ring.consumer_waiting = true;
            ring = match remaining {
                None => self.not_empty.wait(ring).expect("ring lock"),
                Some(r) => self.not_empty.wait_timeout(ring, r).expect("ring lock").0,
            };
            ring.consumer_waiting = false;
        }
    }

    /// Marks one popped ticket as handed to the engine (or quarantined).
    pub(crate) fn retire(&self) {
        self.held.fetch_sub(1, Ordering::Relaxed);
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

    /// Tickets queued, plus those popped and not yet retired.
    pub(crate) fn pending(&self) -> usize {
        let ring = self.ring.lock().expect("ring lock");
        ring.queue.len() + self.held.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::{Arc, Barrier};
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

    /// Takes the oldest ticket, refilling `batch` from the ring (waiting
    /// at most 5 s) when it is empty, retires it and returns its frame's
    /// capture time in microseconds.
    fn pop_t_us(ring: &RingState, batch: &mut VecDeque<Ticket>) -> u64 {
        if batch.is_empty() {
            let outcome = ring.pop_batch(batch, Some(Duration::from_secs(5)));
            assert_eq!(outcome, PopOutcome::Popped);
        }
        let ticket = batch.pop_front().expect("a popped batch is not empty");
        ring.retire();
        ticket.frame.t_end.as_nanos() / 1_000
    }

    #[test]
    fn shed_newest_drops_the_submission_itself() {
        let ring = RingState::new(2, OverloadPolicy::ShedNewest);
        assert!(matches!(ring.push(&frame(1)), Ok(SubmitOutcome::Enqueued)));
        assert!(matches!(ring.push(&frame(2)), Ok(SubmitOutcome::Enqueued)));
        assert!(matches!(ring.push(&frame(3)), Ok(SubmitOutcome::ShedNewest)));
        assert_eq!(ring.pending(), 2);
        // The queue still holds the two oldest frames.
        let mut batch = VecDeque::new();
        assert_eq!([pop_t_us(&ring, &mut batch), pop_t_us(&ring, &mut batch)], [1, 2]);
    }

    #[test]
    fn shed_oldest_makes_room_for_the_newest() {
        let ring = RingState::new(2, OverloadPolicy::ShedOldest);
        ring.push(&frame(1)).expect("open");
        ring.push(&frame(2)).expect("open");
        assert!(matches!(ring.push(&frame(3)), Ok(SubmitOutcome::ShedOldest)));
        assert_eq!(ring.pending(), 2);
        let mut batch = VecDeque::new();
        assert_eq!(
            [pop_t_us(&ring, &mut batch), pop_t_us(&ring, &mut batch)],
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
        let mut batch = VecDeque::new();
        assert_eq!(ring.pop_batch(&mut batch, None), PopOutcome::Popped);
        assert_eq!(batch.len(), 1);
        assert_eq!(ring.pop_batch(&mut batch, None), PopOutcome::Closed);
    }

    #[test]
    fn empty_ring_times_out_for_the_watchdog() {
        let ring = RingState::new(4, OverloadPolicy::Block);
        let mut batch = VecDeque::new();
        assert_eq!(
            ring.pop_batch(&mut batch, Some(Duration::from_millis(5))),
            PopOutcome::TimedOut
        );
        assert!(batch.is_empty());
    }

    #[test]
    fn a_batch_takes_at_most_batch_tickets_and_counts_them_pending() {
        let ring = RingState::new(2 * BATCH, OverloadPolicy::Block);
        for t in 0..(BATCH + 5) as u64 {
            ring.push(&frame(t)).expect("open");
        }
        let mut batch = VecDeque::new();
        assert_eq!(ring.pop_batch(&mut batch, None), PopOutcome::Popped);
        assert_eq!(batch.len(), BATCH);
        assert_eq!(ring.pending(), BATCH + 5, "held tickets stay pending");
        ring.retire();
        assert_eq!(ring.pending(), BATCH + 4);
        assert_eq!(ring.pop_batch(&mut batch, None), PopOutcome::Popped);
        assert_eq!(batch.len(), BATCH + 5, "a pop appends to what the consumer holds");
    }

    #[test]
    fn blocked_producer_resumes_when_a_consumer_makes_room() {
        let ring = Arc::new(RingState::new(1, OverloadPolicy::Block));
        ring.push(&frame(1)).expect("open");
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(&frame(2)))
        };
        // The producer is (about to be) blocked on a full ring; popping
        // one ticket unblocks it.
        let mut batch = VecDeque::new();
        loop {
            match ring.pop_batch(&mut batch, Some(Duration::from_millis(50))) {
                PopOutcome::Popped => break,
                PopOutcome::TimedOut => {}
                PopOutcome::Closed => panic!("ring closed unexpectedly"),
            }
        }
        for _ in batch.drain(..) {
            ring.retire();
        }
        assert!(matches!(producer.join().expect("producer"), Ok(SubmitOutcome::Enqueued)));
        assert_eq!(ring.pending(), 1);
    }

    #[test]
    fn two_producers_each_pop_in_their_own_push_order() {
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
        let mut batch = VecDeque::new();
        let popped: Vec<u64> = (0..200).map(|_| pop_t_us(&ring, &mut batch)).collect();
        for p in producers {
            p.join().expect("producer");
        }
        assert_eq!(ring.pending(), 0, "nothing left behind");
        assert_per_producer_order(&popped, 100);
    }

    /// Every `t` in `0..2 * per` popped exactly once, and each producer's
    /// frames (`t < per` and `t >= per`) in its own push order.
    fn assert_per_producer_order(popped: &[u64], per: u64) {
        let mut sorted = popped.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2 * per).collect::<Vec<_>>(), "every frame pops exactly once");
        let a: Vec<u64> = popped.iter().copied().filter(|&t| t < per).collect();
        let b: Vec<u64> = popped.iter().copied().filter(|&t| t >= per).collect();
        assert_eq!(a, (0..per).collect::<Vec<_>>(), "producer A's frames keep its order");
        assert_eq!(b, (per..2 * per).collect::<Vec<_>>(), "producer B's frames keep its order");
    }

    #[test]
    fn no_wakeup_is_lost_between_two_producers_and_a_batch_consumer() {
        // Tiny rings keep both sides sleeping and waking on almost every
        // frame, the interleavings where a skipped notify would strand a
        // sleeper. The run goes on its own thread and is joined through
        // a channel with a deadline, so a lost wakeup fails the test
        // instead of hanging it.
        const PER: u64 = 5_000;
        for capacity in [1, 2] {
            for timeout in [None, Some(Duration::from_millis(1))] {
                let (done, joined) = mpsc::channel();
                std::thread::spawn(move || {
                    let ring = Arc::new(RingState::new(capacity, OverloadPolicy::Block));
                    let start = Arc::new(Barrier::new(3));
                    let producers: Vec<_> = [0..PER, PER..2 * PER]
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
                    let mut batch = VecDeque::new();
                    let mut popped = Vec::with_capacity(2 * PER as usize);
                    while popped.len() < 2 * PER as usize {
                        match ring.pop_batch(&mut batch, timeout) {
                            PopOutcome::Popped => {}
                            PopOutcome::TimedOut => continue,
                            PopOutcome::Closed => panic!("ring closed unexpectedly"),
                        }
                        assert!(batch.len() <= capacity, "a batch never exceeds the queue");
                        for ticket in batch.drain(..) {
                            ring.retire();
                            popped.push(ticket.frame.t_end.as_nanos() / 1_000);
                        }
                    }
                    for p in producers {
                        p.join().expect("producer");
                    }
                    assert_eq!(ring.pending(), 0, "nothing left behind");
                    let _ = done.send(popped);
                });
                let popped = joined
                    .recv_timeout(Duration::from_mins(1))
                    .unwrap_or_else(|e| {
                        panic!("capacity {capacity}, timeout {timeout:?}: no result ({e})")
                    });
                assert_per_producer_order(&popped, PER);
            }
        }
    }
}
