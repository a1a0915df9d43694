//! The shared wireless medium: transmission tracking, carrier sense and
//! collision detection for one channel.

use wifiprint_ieee80211::{FrameKind, MacAddr, Nanos, Rate};

/// A frame in flight (or just finished) on the medium, at MAC metadata
/// granularity — bodies are never materialised in the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxFrame {
    /// Frame kind (type + subtype).
    pub kind: FrameKind,
    /// Transmitter address (absent for ACK/CTS).
    pub transmitter: Option<MacAddr>,
    /// Receiver address (addr1).
    pub receiver: MacAddr,
    /// `true` if the logical destination (DA) is group-addressed.
    pub dest_group: bool,
    /// On-air size in bytes, including FCS.
    pub size: usize,
    /// PHY rate.
    pub rate: Rate,
    /// Retry flag.
    pub retry: bool,
    /// ToDS flag (uplink).
    pub to_ds: bool,
    /// FromDS flag (downlink).
    pub from_ds: bool,
    /// Whether the receiver should acknowledge.
    pub needs_ack: bool,
    /// NAV duration field value (µs).
    pub duration_field: u16,
    /// Sequence number (data/management frames).
    pub seq: u16,
    /// Power-management bit.
    pub power_mgmt: bool,
}

/// One active transmission on the medium.
#[derive(Debug, Clone)]
pub struct ActiveTx {
    /// Simulator-wide transmission id.
    pub tx_id: u64,
    /// Index of the transmitting station.
    pub station: usize,
    /// The frame metadata.
    pub frame: TxFrame,
    /// Start of transmission.
    pub t_start: Nanos,
    /// End of transmission.
    pub t_end: Nanos,
    /// Set when another transmission overlapped this one.
    pub collided: bool,
}

/// The single simulated channel.
#[derive(Debug, Default)]
pub struct Medium {
    active: Vec<ActiveTx>,
    /// Whether the most recent completed frame was corrupted (EIFS rule).
    last_frame_corrupted: bool,
    collisions: u64,
    transmissions: u64,
}

impl Medium {
    /// A fresh, idle medium.
    pub fn new() -> Self {
        Medium::default()
    }

    /// `true` while at least one transmission is in the air.
    pub fn is_busy(&self) -> bool {
        !self.active.is_empty()
    }

    /// `true` if the last completed frame ended corrupted — receivers must
    /// defer EIFS instead of DIFS.
    pub fn last_frame_corrupted(&self) -> bool {
        self.last_frame_corrupted
    }

    /// Total transmissions started.
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Transmissions that ended up collided.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Starts a transmission; marks collisions with anything already in
    /// the air. Returns whether the medium transitioned busy (i.e. this is
    /// the only active transmission).
    ///
    /// The newcomer always loses (its receiver is already mid-reception of
    /// something else). With `first_captures` the earliest-started active
    /// frame *survives* the overlap — the 802.11 capture effect, where the
    /// receiver keeps its preamble lock on the stronger/earlier frame.
    pub fn start_tx(&mut self, mut tx: ActiveTx, first_captures: bool) -> bool {
        self.transmissions += 1;
        let was_idle = self.active.is_empty();
        if !was_idle {
            tx.collided = true;
            self.collisions += 1;
            let first = self
                .active
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.t_start)
                .map(|(i, _)| i)
                .expect("active nonempty");
            for (i, other) in self.active.iter_mut().enumerate() {
                if i == first && first_captures {
                    continue;
                }
                if !other.collided {
                    other.collided = true;
                    self.collisions += 1;
                }
            }
        }
        self.active.push(tx);
        was_idle
    }

    /// Completes a transmission; returns the record and whether the medium
    /// transitioned to idle.
    ///
    /// # Panics
    ///
    /// Panics if `tx_id` is not active (a simulator logic error).
    pub fn finish_tx(&mut self, tx_id: u64) -> (ActiveTx, bool) {
        let idx = self
            .active
            .iter()
            .position(|t| t.tx_id == tx_id)
            .expect("finish_tx of unknown transmission");
        let tx = self.active.swap_remove(idx);
        let idle_now = self.active.is_empty();
        self.last_frame_corrupted = tx.collided;
        (tx, idle_now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> TxFrame {
        TxFrame {
            kind: FrameKind::Data,
            transmitter: Some(MacAddr::from_index(1)),
            receiver: MacAddr::from_index(2),
            dest_group: false,
            size: 100,
            rate: Rate::R11M,
            retry: false,
            to_ds: true,
            from_ds: false,
            needs_ack: true,
            duration_field: 0,
            seq: 0,
            power_mgmt: false,
        }
    }

    fn tx(id: u64, start_us: u64, end_us: u64) -> ActiveTx {
        ActiveTx {
            tx_id: id,
            station: id as usize,
            frame: frame(),
            t_start: Nanos::from_micros(start_us),
            t_end: Nanos::from_micros(end_us),
            collided: false,
        }
    }

    #[test]
    fn single_transmission_lifecycle() {
        let mut m = Medium::new();
        assert!(!m.is_busy());
        assert!(m.start_tx(tx(1, 0, 100), false));
        assert!(m.is_busy());
        let (done, idle) = m.finish_tx(1);
        assert!(idle);
        assert!(!done.collided);
        assert!(!m.is_busy());
        assert!(!m.last_frame_corrupted());
        assert_eq!(m.transmissions(), 1);
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn overlap_collides_both() {
        let mut m = Medium::new();
        assert!(m.start_tx(tx(1, 0, 100), false));
        assert!(!m.start_tx(tx(2, 50, 150), false));
        let (a, idle_a) = m.finish_tx(1);
        assert!(a.collided);
        assert!(!idle_a, "second tx still in flight");
        let (b, idle_b) = m.finish_tx(2);
        assert!(b.collided);
        assert!(idle_b);
        assert!(m.last_frame_corrupted());
        assert_eq!(m.collisions(), 2);
    }

    #[test]
    fn three_way_collision_counts_each_frame_once() {
        let mut m = Medium::new();
        m.start_tx(tx(1, 0, 100), false);
        m.start_tx(tx(2, 10, 90), false);
        m.start_tx(tx(3, 20, 80), false);
        assert_eq!(m.collisions(), 3);
        for id in [3, 2, 1] {
            let (t, _) = m.finish_tx(id);
            assert!(t.collided);
        }
        assert!(!m.is_busy());
    }

    #[test]
    fn back_to_back_transmissions_do_not_collide() {
        let mut m = Medium::new();
        m.start_tx(tx(1, 0, 100), false);
        m.finish_tx(1);
        m.start_tx(tx(2, 110, 200), false);
        let (b, _) = m.finish_tx(2);
        assert!(!b.collided);
        assert_eq!(m.collisions(), 0);
        assert!(!m.last_frame_corrupted());
    }

    #[test]
    #[should_panic(expected = "unknown transmission")]
    fn finishing_unknown_tx_panics() {
        let mut m = Medium::new();
        m.finish_tx(99);
    }
}
