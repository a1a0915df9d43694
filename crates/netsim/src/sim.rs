//! The discrete-event simulation engine: DCF contention, frame exchanges,
//! and the passive monitor tap.
//!
//! # Contention scheduling
//!
//! Backoff is event-lazy: instead of one timer event per contending
//! station (which thrashes under load), the simulator keeps the set of
//! contenders with their frozen backoff residues and schedules a **single
//! fire event** at the earliest attempt time of the current idle period.
//! Stations whose attempt falls within the clear-channel-assessment window
//! of a transmission that just started cannot sense it yet; they transmit
//! anyway and collide — that is how same-slot backoff draws become real
//! collisions.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use wifiprint_ieee80211::timing::{air_time, difs, eifs, Preamble, SlotTime, ACK_LEN, RTS_LEN, SIFS};
use wifiprint_ieee80211::{FrameKind, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

use crate::medium::{ActiveTx, Medium, TxFrame};
use crate::monitor::{Monitor, MonitorStats};
use crate::phy::frame_success_probability;
use crate::rng::SimRng;
use crate::station::{
    phy_for, Awaiting, ContendState, FrameJob, QueuedFrame, Role, Station, StationConfig,
    DATA_OVERHEAD,
};
use crate::traffic::Destination;

/// Clear-channel-assessment window: a transmission that started less than
/// this long ago is not yet detectable by carrier sense.
const CCA_WINDOW: Nanos = Nanos::from_micros(4);

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Root random seed; all streams derive from it.
    pub seed: u64,
    /// Slot-time regime of the channel.
    pub slot: SlotTime,
    /// The BSS basic rate set (control responses use the highest basic
    /// rate not above the data rate).
    pub basic_rates: Vec<Rate>,
    /// Beacon interval (the 802.11 default is 100 TU = 102.4 ms).
    pub beacon_interval: Nanos,
    /// Baseline monitor loss on top of SNR-driven loss.
    pub monitor_loss: f64,
    /// Probability that the earliest frame of an overlap survives it (the
    /// 802.11 capture effect); 0.0 makes every collision destroy all
    /// frames involved.
    pub capture_effect: f64,
    /// How long to simulate.
    pub duration: Nanos,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            slot: SlotTime::Long,
            basic_rates: vec![Rate::R1M, Rate::R2M, Rate::R5_5M, Rate::R11M],
            beacon_interval: Nanos::from_micros(102_400),
            monitor_loss: 0.01,
            capture_effect: 0.6,
            duration: Nanos::from_secs(60),
        }
    }
}

/// Statistics reported at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Monitor counters.
    pub monitor: MonitorStats,
    /// Transmissions started on the medium.
    pub transmissions: u64,
    /// Transmissions that collided.
    pub collisions: u64,
    /// Events processed.
    pub events: u64,
    /// The simulated end time.
    pub sim_time: Nanos,
}

#[derive(Debug)]
enum EventKind {
    Arrival { station: usize, source: usize },
    /// The earliest contender's backoff expires.
    ContentionFire { gen: u64 },
    /// A station inside the CCA race window transmits blindly.
    ForcedAttempt { station: usize, gen: u64 },
    TxEnd { tx_id: u64 },
    Response { station: usize, frame: Box<TxFrame> },
    RespTimeout { station: usize, gen: u64 },
    Beacon { station: usize },
    LinkUpdate { station: usize },
}

#[derive(Debug)]
struct Ev {
    at: Nanos,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The 802.11 channel simulator.
///
/// Add stations with [`Simulator::add_station`], then call
/// [`Simulator::run`] with a sink receiving every frame the monitor
/// captures.
///
/// # Example
///
/// ```
/// use wifiprint_netsim::{
///     CbrSource, LinkQuality, SimConfig, Simulator, StationConfig,
/// };
/// use wifiprint_ieee80211::{MacAddr, Nanos};
///
/// let mut sim = Simulator::new(SimConfig {
///     duration: Nanos::from_secs(2),
///     ..SimConfig::default()
/// });
/// let ap = MacAddr::from_index(0xA9);
/// sim.add_station(StationConfig::ap(ap, LinkQuality::static_link(35.0)));
/// let mut sta = StationConfig::client(
///     MacAddr::from_index(1),
///     ap,
///     LinkQuality::static_link(30.0),
/// );
/// sta.sources.push(Box::new(CbrSource::new(Nanos::from_millis(20), 800)));
/// sim.add_station(sta);
///
/// let mut frames = Vec::new();
/// let stats = sim.run(&mut |f| frames.push(*f));
/// assert!(stats.monitor.captured > 0);
/// assert!(!frames.is_empty());
/// ```
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    now: Nanos,
    events: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    stations: Vec<Station>,
    addr_index: HashMap<MacAddr, usize>,
    ap_indices: Vec<usize>,
    medium: Medium,
    medium_newest_start: Nanos,
    monitor: Monitor,
    delivery_rng: SimRng,
    next_tx_id: u64,
    /// Stations currently in contention (want the medium).
    contenders: Vec<usize>,
    /// Invalidates outstanding `ContentionFire` events.
    contention_gen: u64,
    events_processed: u64,
}

impl Simulator {
    /// A simulator with no stations yet.
    pub fn new(cfg: SimConfig) -> Self {
        let monitor = Monitor::new(cfg.seed, cfg.monitor_loss);
        let delivery_rng = SimRng::derive(cfg.seed, 0xDE11_4E55);
        Simulator {
            cfg,
            now: Nanos::ZERO,
            events: BinaryHeap::new(),
            seq: 0,
            stations: Vec::new(),
            addr_index: HashMap::new(),
            ap_indices: Vec::new(),
            medium: Medium::new(),
            medium_newest_start: Nanos::ZERO,
            monitor,
            delivery_rng,
            next_tx_id: 0,
            contenders: Vec::new(),
            contention_gen: 0,
            events_processed: 0,
        }
    }

    /// Registers a station; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if another station already uses the same MAC address.
    pub fn add_station(&mut self, cfg: StationConfig) -> usize {
        let idx = self.stations.len();
        let prev = self.addr_index.insert(cfg.addr, idx);
        assert!(prev.is_none(), "duplicate station address {}", cfg.addr);
        if matches!(cfg.role, Role::Ap { .. }) {
            self.ap_indices.push(idx);
        }
        self.stations.push(Station::new(cfg, self.cfg.seed, idx));
        idx
    }

    /// Attaches additional traffic sources to an existing station.
    ///
    /// Must be called before [`Simulator::run`]; sources added later are
    /// never scheduled. Useful for wiring AP downlink streams once client
    /// addresses are known.
    pub fn add_sources(
        &mut self,
        station: usize,
        sources: impl IntoIterator<Item = Box<dyn crate::traffic::TrafficSource>>,
    ) {
        self.stations[station].sources.extend(sources);
    }

    /// Runs the simulation to completion, delivering every monitor-captured
    /// frame to `sink` in timestamp order.
    pub fn run(&mut self, sink: &mut dyn FnMut(&CapturedFrame)) -> SimStats {
        self.bootstrap();
        let end = self.cfg.duration;
        while let Some(Reverse(ev)) = self.events.pop() {
            if ev.at > end {
                break;
            }
            self.now = ev.at;
            self.events_processed += 1;
            self.dispatch(ev.kind, sink);
        }
        self.now = end;
        SimStats {
            monitor: self.monitor.stats(),
            transmissions: self.medium.transmissions(),
            collisions: self.medium.collisions(),
            events: self.events_processed,
            sim_time: end,
        }
    }

    // ----- bootstrap -------------------------------------------------------

    fn bootstrap(&mut self) {
        for idx in 0..self.stations.len() {
            let from = self.stations[idx].active_from;
            for src in 0..self.stations[idx].sources.len() {
                let st = &mut self.stations[idx];
                let delay = st.sources[src].initial_delay(&mut st.rng);
                self.push_event(from + delay, EventKind::Arrival { station: idx, source: src });
            }
            if self.stations[idx].is_ap() {
                let offset = Nanos::from_micros(self.stations[idx].rng.below(100_000));
                self.stations[idx].beacon_target = from + offset;
                let at = self.stations[idx].beacon_target;
                self.push_event(at, EventKind::Beacon { station: idx });
            }
            let every = self.stations[idx].link.update_every;
            if every < self.cfg.duration {
                self.push_event(from + every, EventKind::LinkUpdate { station: idx });
            }
        }
    }

    fn push_event(&mut self, at: Nanos, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Ev { at, seq: self.seq, kind }));
    }

    fn dispatch(&mut self, kind: EventKind, sink: &mut dyn FnMut(&CapturedFrame)) {
        match kind {
            EventKind::Arrival { station, source } => self.handle_arrival(station, source),
            EventKind::ContentionFire { gen } => self.handle_contention_fire(gen),
            EventKind::ForcedAttempt { station, gen } => self.handle_forced_attempt(station, gen),
            EventKind::TxEnd { tx_id } => self.handle_tx_end(tx_id, sink),
            EventKind::Response { station, frame } => self.start_transmission(station, *frame),
            EventKind::RespTimeout { station, gen } => self.handle_resp_timeout(station, gen),
            EventKind::Beacon { station } => self.handle_beacon(station),
            EventKind::LinkUpdate { station } => self.handle_link_update(station),
        }
    }

    // ----- traffic ---------------------------------------------------------

    fn handle_arrival(&mut self, s: usize, source: usize) {
        let now = self.now;
        {
            let st = &mut self.stations[s];
            if let Some(until) = st.active_until {
                if now >= until {
                    return; // station left; source dies
                }
            }
            let emission = st.sources[source].poll(now, &mut st.rng);
            for msdu in emission.msdus {
                st.enqueue_msdu(msdu);
            }
            if let Some(next) = emission.next_in {
                let at = now + next;
                self.push_event(at, EventKind::Arrival { station: s, source });
            }
        }
        self.request_medium(s);
    }

    fn handle_beacon(&mut self, s: usize) {
        let now = self.now;
        let payload = match self.stations[s].role {
            Role::Ap { beacon_payload } => beacon_payload,
            Role::Client => return,
        };
        if let Some(until) = self.stations[s].active_until {
            if now >= until {
                return;
            }
        }
        {
            let st = &mut self.stations[s];
            st.queue.push_back(QueuedFrame { job: FrameJob::Beacon { payload }, retry: false });
            let next = st.behavior.local_duration(self.cfg.beacon_interval);
            st.beacon_target += next;
        }
        let at = self.stations[s].beacon_target;
        self.push_event(at, EventKind::Beacon { station: s });
        self.request_medium(s);
    }

    fn handle_link_update(&mut self, s: usize) {
        let now = self.now;
        {
            let st = &mut self.stations[s];
            st.link.step(&mut st.rng);
            let snr = st.link.snr_ap_db;
            st.rate_ctrl.on_snr_hint(snr);
        }
        let every = self.stations[s].link.update_every;
        let still_active = self.stations[s].active_until.is_none_or(|u| now < u);
        if still_active {
            self.push_event(now + every, EventKind::LinkUpdate { station: s });
        }
    }

    // ----- contention ------------------------------------------------------

    /// Enrols a station into contention if it has traffic and is free.
    fn request_medium(&mut self, s: usize) {
        if self.stations[s].contend != ContendState::Idle || !self.stations[s].wants_medium() {
            return;
        }
        let base_ifs = self.current_ifs();
        {
            let st = &mut self.stations[s];
            st.contend = ContendState::Contending;
            // Not armed for any idle period yet; the sentinel keeps the
            // freeze/race logic from misreading stale values.
            st.attempt_difs_end = Nanos::MAX;
            st.attempt_at = Nanos::MAX;
            if st.backoff_remaining.is_none() {
                let w = st.behavior.backoff_wait(st.cw, self.cfg.slot.duration(), &mut st.rng);
                st.backoff_remaining = Some(w);
            }
        }
        self.contenders.push(s);
        if !self.medium.is_busy() {
            // DIFS counts from now for a fresh contender (it must observe
            // the medium idle for DIFS from when it has data).
            self.arm_contender(s, base_ifs);
            self.reschedule_fire();
        }
    }

    /// Sets a contender's DIFS end and attempt time for the current idle
    /// period, starting the DIFS at `self.now`.
    fn arm_contender(&mut self, s: usize, base_ifs: Nanos) {
        let st = &mut self.stations[s];
        let ifs = st.behavior.local_duration(base_ifs);
        st.attempt_difs_end = self.now + ifs;
        st.attempt_at = st.attempt_difs_end + st.backoff_remaining.unwrap_or(Nanos::ZERO);
    }

    fn current_ifs(&self) -> Nanos {
        if self.medium.last_frame_corrupted() {
            eifs(self.cfg.slot, self.lowest_basic(), Preamble::Long)
        } else {
            difs(self.cfg.slot)
        }
    }

    /// Schedules (or reschedules) the single contention-fire event at the
    /// earliest contender attempt.
    fn reschedule_fire(&mut self) {
        self.prune_contenders();
        let Some(earliest) = self
            .contenders
            .iter()
            .map(|&s| self.stations[s].attempt_at)
            .min()
        else {
            return;
        };
        self.contention_gen += 1;
        let gen = self.contention_gen;
        self.push_event(earliest.max(self.now), EventKind::ContentionFire { gen });
    }

    /// Drops contenders that no longer want the medium.
    fn prune_contenders(&mut self) {
        let stations = &mut self.stations;
        self.contenders.retain(|&s| {
            let keep = stations[s].contend == ContendState::Contending && stations[s].wants_medium();
            if !keep && stations[s].contend == ContendState::Contending {
                stations[s].contend = ContendState::Idle;
            }
            keep
        });
    }

    /// The earliest contender transmits; contenders within the CCA window
    /// of its start transmit blindly right after.
    fn handle_contention_fire(&mut self, gen: u64) {
        if gen != self.contention_gen || self.medium.is_busy() {
            return;
        }
        self.prune_contenders();
        let Some(&winner) = self
            .contenders
            .iter()
            .min_by_key(|&&s| (self.stations[s].attempt_at, s))
        else {
            return;
        };
        let win_at = self.stations[winner].attempt_at;
        debug_assert!(win_at <= self.now + Nanos::from_nanos(1));
        self.unenrol(winner);
        self.transmit_head(winner);
        // start_transmission → on_medium_busy handles the CCA racers.
    }

    fn handle_forced_attempt(&mut self, s: usize, gen: u64) {
        if self.stations[s].attempt_gen != gen {
            return;
        }
        if self.stations[s].awaiting.is_some() || !self.stations[s].wants_medium() {
            return;
        }
        self.transmit_head(s);
    }

    /// Removes a station from the contender set.
    fn unenrol(&mut self, s: usize) {
        self.stations[s].contend = ContendState::Idle;
        if let Some(pos) = self.contenders.iter().position(|&x| x == s) {
            self.contenders.swap_remove(pos);
        }
    }

    /// Freezes contenders when the medium turns busy; contenders whose
    /// attempt is within the CCA window transmit blindly (collision).
    fn on_medium_busy(&mut self, busy_start: Nanos) {
        self.contention_gen += 1; // cancel any outstanding fire event
        let slot_ns = self.cfg.slot.duration().as_nanos();
        let mut racers = Vec::new();
        for i in 0..self.contenders.len() {
            let s = self.contenders[i];
            let st = &mut self.stations[s];
            if st.contend != ContendState::Contending {
                continue;
            }
            if st.attempt_difs_end == Nanos::MAX {
                continue; // enrolled while busy: no DIFS countdown yet
            }
            if st.attempt_at <= busy_start + CCA_WINDOW {
                racers.push(s);
                continue;
            }
            // Freeze: consume the whole slots elapsed after DIFS.
            if let Some(rem) = st.backoff_remaining {
                let elapsed = busy_start.saturating_sub(st.attempt_difs_end).as_nanos();
                let consumed = (elapsed / slot_ns) * slot_ns;
                st.backoff_remaining = Some(rem.saturating_sub(Nanos::from_nanos(consumed)));
            }
            // De-arm until the next idle period.
            st.attempt_difs_end = Nanos::MAX;
            st.attempt_at = Nanos::MAX;
        }
        for s in racers {
            let at = self.stations[s].attempt_at.max(busy_start);
            self.unenrol(s);
            let gen = {
                let st = &mut self.stations[s];
                st.attempt_gen += 1;
                st.attempt_gen
            };
            self.push_event(at, EventKind::ForcedAttempt { station: s, gen });
        }
    }

    /// Re-arms contention when the medium goes idle.
    fn on_medium_idle(&mut self) {
        let base_ifs = self.current_ifs();
        for i in 0..self.contenders.len() {
            let s = self.contenders[i];
            if self.stations[s].contend == ContendState::Contending {
                self.arm_contender(s, base_ifs);
            }
        }
        self.reschedule_fire();
    }

    // ----- transmission ----------------------------------------------------

    fn transmit_head(&mut self, s: usize) {
        let frame = self.build_head_frame(s, true);
        self.stations[s].backoff_remaining = None;
        self.start_transmission(s, frame);
    }

    /// Builds the on-air frame for the queue head. With `allow_rts`, a
    /// unicast data frame above the RTS threshold becomes an RTS instead
    /// (the data frame itself is built with `allow_rts = false` once the
    /// CTS arrives).
    fn build_head_frame(&mut self, s: usize, allow_rts: bool) -> TxFrame {
        let basic = self.cfg.basic_rates.clone();
        let st = &mut self.stations[s];
        let head = st.queue.front().expect("transmit_head with empty queue").clone();
        let retry = head.retry;
        let size = st.head_wire_size(&head.job);
        let rate = st.head_rate(&head.job);
        let is_ap = st.is_ap();

        // RTS/CTS above the device's threshold (unicast data only, §VI-A2).
        let unicast_data = matches!(
            &head.job,
            FrameJob::Data { dest: Destination::Ap | Destination::Station(_), .. }
        );
        if allow_rts && unicast_data && st.behavior.rts_threshold.is_some_and(|thr| size > thr) {
            let data_air = air_time(phy_for(rate, st.behavior.short_preamble), size);
            let rts_rate = rate.clamp_to_set(&basic);
            let receiver = match &head.job {
                FrameJob::Data { dest: Destination::Station(a), .. } => *a,
                _ => st.bssid,
            };
            return TxFrame {
                kind: FrameKind::Rts,
                transmitter: Some(st.addr),
                receiver,
                dest_group: false,
                size: RTS_LEN,
                rate: rts_rate,
                retry,
                to_ds: false,
                from_ds: false,
                needs_ack: false,
                duration_field: st.behavior.duration_model.rts_duration(data_air, rts_rate),
                seq: st.seq.peek(),
                power_mgmt: false,
            };
        }

        let seq = st.seq.next();
        let (kind, receiver, dest_group, needs_ack, to_ds, from_ds, power_mgmt) = match &head.job {
            FrameJob::Data { dest, .. } => match dest {
                Destination::Ap => (FrameKind::Data, st.bssid, false, true, !is_ap, false, false),
                Destination::Group(g) => {
                    if is_ap {
                        // APs put group traffic directly on air.
                        (FrameKind::Data, *g, true, false, false, true, false)
                    } else {
                        // Clients send group traffic uplink through the AP.
                        (FrameKind::Data, st.bssid, true, true, true, false, false)
                    }
                }
                Destination::Station(a) => {
                    (FrameKind::Data, *a, false, true, !is_ap, is_ap, false)
                }
            },
            FrameJob::Null { power_save } => {
                (FrameKind::NullFunction, st.bssid, false, true, true, false, *power_save)
            }
            FrameJob::ProbeReq { .. } => {
                (FrameKind::ProbeReq, MacAddr::BROADCAST, true, false, false, false, false)
            }
            FrameJob::ProbeResp { to, .. } => {
                (FrameKind::ProbeResp, *to, false, true, false, false, false)
            }
            FrameJob::Beacon { .. } => {
                (FrameKind::Beacon, MacAddr::BROADCAST, true, false, false, false, false)
            }
        };
        let duration_field = if needs_ack {
            st.behavior.duration_model.data_frame_duration(rate, &basic, false)
        } else {
            0
        };
        TxFrame {
            kind,
            transmitter: Some(st.addr),
            receiver,
            dest_group,
            size,
            rate,
            retry,
            to_ds,
            from_ds,
            needs_ack,
            duration_field,
            seq,
            power_mgmt,
        }
    }

    fn start_transmission(&mut self, s: usize, frame: TxFrame) {
        let sp = self.stations[s].behavior.short_preamble;
        let air = air_time(phy_for(frame.rate, sp), frame.size);
        let t_end = self.now + air;
        let tx_id = self.next_tx_id;
        self.next_tx_id += 1;
        let first_captures =
            self.medium.is_busy() && self.delivery_rng.chance(self.cfg.capture_effect);
        let was_idle = self.medium.start_tx(
            ActiveTx { tx_id, station: s, frame, t_start: self.now, t_end, collided: false },
            first_captures,
        );
        self.medium_newest_start = self.now;
        if was_idle {
            self.on_medium_busy(self.now);
        }
        self.push_event(t_end, EventKind::TxEnd { tx_id });
    }

    fn handle_tx_end(&mut self, tx_id: u64, sink: &mut dyn FnMut(&CapturedFrame)) {
        let (tx, idle_now) = self.medium.finish_tx(tx_id);
        let s = tx.station;

        // 1. The passive monitor's view.
        let sp = self.stations[s].behavior.short_preamble;
        if let Some(cf) = self.monitor.observe(&tx, &self.stations[s].link, sp) {
            sink(&cf);
        }

        // 2. Transmitter follow-up.
        match tx.frame.kind {
            FrameKind::Rts => {
                let timeout = self.response_timeout(tx.frame.rate);
                let gen = {
                    let st = &mut self.stations[s];
                    st.awaiting = Some(Awaiting::Cts);
                    st.ack_gen += 1;
                    st.ack_gen
                };
                self.push_event(self.now + timeout, EventKind::RespTimeout { station: s, gen });
            }
            FrameKind::Ack | FrameKind::Cts => {}
            _ if tx.frame.needs_ack => {
                let timeout = self.response_timeout(tx.frame.rate);
                let gen = {
                    let st = &mut self.stations[s];
                    st.awaiting = Some(Awaiting::Ack);
                    st.ack_gen += 1;
                    st.ack_gen
                };
                self.push_event(self.now + timeout, EventKind::RespTimeout { station: s, gen });
            }
            _ => {
                // Unacknowledged frame (broadcast data, probe request,
                // beacon): complete immediately.
                let st = &mut self.stations[s];
                st.queue.pop_front();
                st.reset_contention();
            }
        }

        // 3. Receiver processing.
        if !tx.collided {
            self.deliver(&tx);
        }

        // 4. Idle transition re-arms contention; the transmitter itself
        // re-enrols if it still has traffic.
        self.request_medium(s);
        if idle_now {
            self.on_medium_idle();
        }
    }

    fn response_timeout(&self, data_rate: Rate) -> Nanos {
        let ack_rate = data_rate.clamp_to_set(&self.cfg.basic_rates);
        let ack_air = air_time(phy_for(ack_rate, false), ACK_LEN);
        SIFS + ack_air + self.cfg.slot.duration() * 2
    }

    fn lowest_basic(&self) -> Rate {
        self.cfg.basic_rates.iter().copied().min().unwrap_or(Rate::R1M)
    }

    // ----- reception -------------------------------------------------------

    fn deliver(&mut self, tx: &ActiveTx) {
        if tx.frame.kind == FrameKind::ProbeReq {
            self.deliver_probe_req(tx);
            return;
        }
        let Some(&r_idx) = self.addr_index.get(&tx.frame.receiver) else {
            return; // group-addressed or outside the simulation
        };
        if r_idx == tx.station || !self.stations[r_idx].is_active(self.now) {
            return;
        }

        // Reception roll: client↔AP links are symmetric; use the client
        // side's link state for either direction.
        let link_owner = if self.stations[r_idx].is_ap() { tx.station } else { r_idx };
        let snr = self.stations[link_owner].link.snr_at_ap(&mut self.delivery_rng);
        let p = frame_success_probability(tx.frame.rate, snr, tx.frame.size);
        if !self.delivery_rng.chance(p) {
            return;
        }

        match tx.frame.kind {
            FrameKind::Rts => self.respond_cts(r_idx, tx),
            FrameKind::Cts => self.on_cts_received(r_idx),
            FrameKind::Ack => self.on_ack_received(r_idx),
            kind if tx.frame.needs_ack => {
                self.respond_ack(r_idx, tx);
                if self.stations[r_idx].is_ap()
                    && tx.frame.to_ds
                    && tx.frame.dest_group
                    && kind.carries_data()
                {
                    self.relay_group_frame(r_idx, tx);
                }
            }
            _ => {}
        }
    }

    fn deliver_probe_req(&mut self, tx: &ActiveTx) {
        let Some(sender) = tx.frame.transmitter else { return };
        for i in 0..self.ap_indices.len() {
            let ap = self.ap_indices[i];
            if !self.stations[ap].is_active(self.now) {
                continue;
            }
            let snr = self.stations[tx.station].link.snr_at_ap(&mut self.delivery_rng);
            let p = frame_success_probability(tx.frame.rate, snr, tx.frame.size);
            if !self.delivery_rng.chance(p) {
                continue;
            }
            let payload = match self.stations[ap].role {
                Role::Ap { beacon_payload } => beacon_payload,
                Role::Client => continue,
            };
            self.stations[ap].queue.push_back(QueuedFrame {
                job: FrameJob::ProbeResp { to: sender, payload },
                retry: false,
            });
            self.request_medium(ap);
        }
    }

    fn respond_cts(&mut self, r_idx: usize, tx: &ActiveTx) {
        let Some(rts_sender) = tx.frame.transmitter else { return };
        let (delay, frame) = {
            let st = &mut self.stations[r_idx];
            let delay = st.behavior.response_delay(SIFS, &mut st.rng);
            let cts_air = air_time(phy_for(tx.frame.rate, false), ACK_LEN);
            let spent = (SIFS + cts_air).as_micros() as u16;
            let frame = TxFrame {
                kind: FrameKind::Cts,
                transmitter: None,
                receiver: rts_sender,
                dest_group: false,
                size: ACK_LEN,
                rate: tx.frame.rate,
                retry: false,
                to_ds: false,
                from_ds: false,
                needs_ack: false,
                duration_field: tx.frame.duration_field.saturating_sub(spent),
                seq: 0,
                power_mgmt: false,
            };
            (delay, frame)
        };
        let at = self.now + delay;
        self.push_event(at, EventKind::Response { station: r_idx, frame: Box::new(frame) });
    }

    fn respond_ack(&mut self, r_idx: usize, tx: &ActiveTx) {
        let Some(data_sender) = tx.frame.transmitter else { return };
        let ack_rate = tx.frame.rate.clamp_to_set(&self.cfg.basic_rates);
        let (delay, frame) = {
            let st = &mut self.stations[r_idx];
            let delay = st.behavior.response_delay(SIFS, &mut st.rng);
            let frame = TxFrame {
                kind: FrameKind::Ack,
                transmitter: None,
                receiver: data_sender,
                dest_group: false,
                size: ACK_LEN,
                rate: ack_rate,
                retry: false,
                to_ds: false,
                from_ds: false,
                needs_ack: false,
                duration_field: 0,
                seq: 0,
                power_mgmt: false,
            };
            (delay, frame)
        };
        let at = self.now + delay;
        self.push_event(at, EventKind::Response { station: r_idx, frame: Box::new(frame) });
    }

    fn on_cts_received(&mut self, r_idx: usize) {
        if self.stations[r_idx].awaiting != Some(Awaiting::Cts) {
            return;
        }
        {
            let st = &mut self.stations[r_idx];
            st.ack_gen += 1; // cancel the CTS timeout
            st.awaiting = None;
        }
        // Send the protected data frame after SIFS, bypassing contention.
        let frame = self.build_head_frame(r_idx, false);
        let delay = {
            let st = &mut self.stations[r_idx];
            st.behavior.response_delay(SIFS, &mut st.rng)
        };
        let at = self.now + delay;
        self.push_event(at, EventKind::Response { station: r_idx, frame: Box::new(frame) });
    }

    fn on_ack_received(&mut self, r_idx: usize) {
        if self.stations[r_idx].awaiting != Some(Awaiting::Ack) {
            return;
        }
        let st = &mut self.stations[r_idx];
        st.ack_gen += 1; // cancel the ACK timeout
        st.awaiting = None;
        st.rate_ctrl.on_success();
        st.queue.pop_front();
        st.reset_contention();
        self.request_medium(r_idx);
    }

    fn relay_group_frame(&mut self, ap_idx: usize, tx: &ActiveTx) {
        let payload = tx
            .frame
            .size
            .saturating_sub(DATA_OVERHEAD + self.stations[tx.station].encryption_overhead);
        let group = MacAddr::BROADCAST;
        self.stations[ap_idx].queue.push_back(QueuedFrame {
            job: FrameJob::Data { payload, dest: Destination::Group(group) },
            retry: false,
        });
        self.request_medium(ap_idx);
    }

    fn handle_resp_timeout(&mut self, s: usize, gen: u64) {
        if self.stations[s].ack_gen != gen || self.stations[s].awaiting.is_none() {
            return;
        }
        {
            let st = &mut self.stations[s];
            st.awaiting = None;
            st.rate_ctrl.on_failure();
            st.retries += 1;
            if st.retries > st.behavior.retry_limit {
                st.queue.pop_front();
                st.reset_contention();
            } else {
                if let Some(head) = st.queue.front_mut() {
                    head.retry = true;
                }
                st.cw = st.behavior.next_cw(st.cw);
                st.backoff_remaining = None; // redraw with the larger window
            }
        }
        self.request_medium(s);
    }
}
