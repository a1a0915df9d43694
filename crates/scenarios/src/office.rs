//! The office scenario: a static, WPA-protected enterprise network,
//! reproducing the shape of the paper's *office 1* (7 h) and *office 2*
//! (1 h) traces.

use std::collections::BTreeMap;

use wifiprint_devices::{
    apply_churn, sample_population, Environment, InstanceRng, PopulationConfig,
};
use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_netsim::{
    CbrSource, Destination, LinkQuality, MobilityModel, SimConfig, Simulator, StationConfig,
};
use wifiprint_radiotap::CapturedFrame;

use crate::trace::{run_collect, run_multi_engine, run_streaming, Trace, TraceReport};

/// Configuration of an office capture.
#[derive(Debug, Clone)]
pub struct OfficeScenario {
    /// Root seed.
    pub seed: u64,
    /// Capture duration.
    pub duration: Nanos,
    /// Number of client devices.
    pub devices: usize,
    /// Number of APs.
    pub aps: usize,
    /// Per-frame encryption overhead (WPA/CCMP adds 16 bytes).
    pub encryption_overhead: usize,
    /// Baseline monitor loss.
    pub monitor_loss: f64,
}

impl OfficeScenario {
    /// The paper's *office 1* shape: 7 hours, WPA (158 reference devices
    /// were extracted from it at the 50-observation floor).
    pub fn office1(seed: u64) -> Self {
        OfficeScenario {
            seed,
            duration: Nanos::from_secs(7 * 3600),
            devices: 170,
            aps: 3,
            encryption_overhead: 16,
            monitor_loss: 0.01,
        }
    }

    /// The paper's *office 2* shape: 1 hour, WPA (120 reference devices).
    pub fn office2(seed: u64) -> Self {
        OfficeScenario {
            seed,
            duration: Nanos::from_secs(3600),
            devices: 135,
            aps: 3,
            encryption_overhead: 16,
            monitor_loss: 0.01,
        }
    }

    /// A miniature office for tests and examples.
    pub fn small(seed: u64, secs: u64, devices: usize) -> Self {
        OfficeScenario {
            seed,
            duration: Nanos::from_secs(secs),
            devices,
            aps: 1,
            encryption_overhead: 16,
            monitor_loss: 0.0,
        }
    }

    fn build(&self) -> (Simulator, BTreeMap<MacAddr, String>, Vec<MacAddr>) {
        let mut sim = Simulator::new(SimConfig {
            seed: self.seed,
            duration: self.duration,
            monitor_loss: self.monitor_loss,
            // An 802.11g office: OFDM basic rates keep control responses
            // short (ACKs at 24 Mb/s rather than 11 Mb/s CCK).
            basic_rates: vec![
                wifiprint_ieee80211::Rate::R6M,
                wifiprint_ieee80211::Rate::R12M,
                wifiprint_ieee80211::Rate::R24M,
            ],
            ..SimConfig::default()
        });

        // APs: static, strong links, occasional downlink streams.
        let ap_addrs: Vec<MacAddr> =
            (0..self.aps).map(|i| MacAddr::from_index(0xAC_0000 + i as u64)).collect();
        for (i, &addr) in ap_addrs.iter().enumerate() {
            let mut link = LinkQuality::static_link(36.0 + i as f64 * 2.0);
            link.monitor_offset_db = -2.0;
            let mut ap = StationConfig::ap(addr, link);
            ap.encryption_overhead = self.encryption_overhead;
            sim.add_station(ap);
        }

        // Client population: static links, office application mixes, mild
        // churn (people come and go over a workday).
        let pop_cfg = PopulationConfig {
            devices: self.devices,
            seed: self.seed,
            environment: Environment::Office,
            encryption_overhead: self.encryption_overhead,
            addr_base: 0x0F_0000,
        };
        let n_aps = ap_addrs.len();
        let ap_for = {
            let ap_addrs = ap_addrs.clone();
            move |i: usize, _rng: &mut InstanceRng| ap_addrs[i % n_aps]
        };
        let mut devices = sample_population(
            &pop_cfg,
            |_, rng| {
                // Desk positions: stable SNR between 18 and 38 dB with a
                // device-specific monitor offset and a gentle walk (lids
                // open and close, people shift, doors move).
                let snr = 12.0 + rng.f64() * 26.0;
                let mut link = LinkQuality::static_link(snr);
                link.monitor_offset_db = -6.0 + rng.f64() * 12.0;
                link.fading_std_db = 1.6;
                link.mobility = MobilityModel::RandomWalk {
                    step_db: 0.5,
                    min_db: (snr - 5.0).max(8.0),
                    max_db: snr + 5.0,
                };
                link.update_every = Nanos::from_secs(20);
                link
            },
            ap_for,
        );
        apply_churn(
            &mut devices,
            self.seed,
            self.duration,
            // Most devices are present from the start in an office: joins
            // spread over the first tenth of the capture.
            self.duration / 10,
            0.10,
            Nanos::from_secs(1200).min(self.duration / 2),
        );

        let mut profiles = BTreeMap::new();
        let client_addrs: Vec<MacAddr> = devices.iter().map(|d| d.station.addr).collect();
        for dev in devices {
            profiles.insert(dev.station.addr, dev.profile_name.clone());
            sim.add_station(dev.station);
        }

        // Downlink streams from each AP to a few clients (file servers,
        // intranet video) so APs have data-frame signatures too.
        for i in 0..ap_addrs.len() {
            let mut rng = InstanceRng::new(self.seed ^ 0xD0_0000, i as u64);
            let mut down_sources: Vec<Box<dyn wifiprint_netsim::TrafficSource>> = Vec::new();
            for k in 0..3usize {
                if client_addrs.is_empty() {
                    break;
                }
                let target = client_addrs
                    [(rng.below(client_addrs.len() as u64) as usize + k) % client_addrs.len()];
                let mut cbr = CbrSource::new(
                    Nanos::from_millis(40 + rng.below(120)),
                    600 + rng.below(800) as usize,
                );
                cbr.dest = Destination::Station(target);
                down_sources.push(Box::new(cbr));
            }
            sim.add_sources(i, down_sources);
        }

        (sim, profiles, ap_addrs)
    }

    /// Runs the scenario, collecting every captured frame.
    pub fn run_collect(&self) -> Trace {
        let (sim, profiles, aps) = self.build();
        run_collect(sim, self.duration, profiles, aps)
    }

    /// Runs the scenario, streaming captures into `sink`.
    pub fn run_streaming(&self, sink: &mut dyn FnMut(&CapturedFrame)) -> TraceReport {
        let (sim, profiles, aps) = self.build();
        run_streaming(sim, self.duration, profiles, aps, sink)
    }

    /// Runs the scenario, streaming every capture straight into a
    /// fingerprinting engine (see [`run_multi_engine`]).
    ///
    /// # Errors
    ///
    /// The first `MultiEngine::observe` error, after the simulation
    /// completes.
    pub fn run_multi_engine(
        &self,
        engine: &mut wifiprint_core::MultiEngine,
    ) -> Result<(Vec<wifiprint_core::MultiEvent>, TraceReport), wifiprint_core::EngineError> {
        let (sim, profiles, aps) = self.build();
        run_multi_engine(sim, self.duration, profiles, aps, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_ieee80211::FrameKind;

    #[test]
    fn small_office_produces_heterogeneous_traffic() {
        let trace = OfficeScenario::small(42, 30, 12).run_collect();
        assert!(trace.frames.len() > 300, "frames = {}", trace.frames.len());
        let kinds: std::collections::BTreeSet<_> =
            trace.frames.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FrameKind::Data));
        assert!(kinds.contains(&FrameKind::Beacon));
        assert!(kinds.contains(&FrameKind::Ack));
        // Most clients speak within 30 s.
        let speakers = trace.transmitters();
        assert!(speakers.len() >= 8, "speakers = {}", speakers.len());
    }

    #[test]
    fn office_is_seed_deterministic() {
        let a = OfficeScenario::small(7, 10, 5).run_collect();
        let b = OfficeScenario::small(7, 10, 5).run_collect();
        assert_eq!(a.frames, b.frames);
        let c = OfficeScenario::small(8, 10, 5).run_collect();
        assert_ne!(a.frames, c.frames);
    }

    #[test]
    fn encrypted_frames_are_bigger_than_open() {
        let mut open = OfficeScenario::small(3, 15, 6);
        open.encryption_overhead = 0;
        let wpa = OfficeScenario::small(3, 15, 6);
        let open_trace = open.run_collect();
        let wpa_trace = wpa.run_collect();
        let mean_data = |t: &Trace| {
            let sizes: Vec<usize> = t
                .frames
                .iter()
                .filter(|f| f.kind == FrameKind::Data && !f.dest_group)
                .map(|f| f.size)
                .collect();
            sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64
        };
        assert!(mean_data(&wpa_trace) > mean_data(&open_trace));
    }
}
