//! The conference scenario: an open network with mobile, churning
//! attendees, reproducing the shape of the paper's *conference 1* (7 h)
//! and *conference 2* (1 h) subsets of the Sigcomm 2008 trace.
//!
//! The decisive difference from the office: devices **move**, so their SNR
//! — and with it the rate-adaptation choice and loss pattern — drifts over
//! the capture. That is what collapses the transmission-rate fingerprint
//! while the inter-arrival fingerprint survives; `repro claims` prints
//! whether that ordering holds on the simulated traces.

use std::collections::BTreeMap;

use wifiprint_devices::{
    apply_churn, sample_population, Environment, InstanceRng, PopulationConfig,
};
use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_netsim::{LinkQuality, MobilityModel, SimConfig, Simulator, StationConfig};
use wifiprint_radiotap::CapturedFrame;

use crate::trace::{run_collect, run_multi_engine, run_streaming, Trace, TraceReport};

/// Configuration of a conference capture.
#[derive(Debug, Clone)]
pub struct ConferenceScenario {
    /// Root seed.
    pub seed: u64,
    /// Capture duration.
    pub duration: Nanos,
    /// Number of client devices.
    pub devices: usize,
    /// Number of APs.
    pub aps: usize,
    /// Baseline monitor loss (crowded rooms are harder to monitor).
    pub monitor_loss: f64,
    /// Fraction of devices that leave before the end.
    pub churn: f64,
}

impl ConferenceScenario {
    /// The paper's *conference 1* shape: the full 7-hour Sigcomm capture
    /// (188 reference devices), open network.
    pub fn conference1(seed: u64) -> Self {
        ConferenceScenario {
            seed,
            duration: Nanos::from_secs(7 * 3600),
            devices: 230,
            aps: 4,
            monitor_loss: 0.03,
            churn: 0.6,
        }
    }

    /// The paper's *conference 2* shape: the first hour only (97 reference
    /// devices).
    pub fn conference2(seed: u64) -> Self {
        ConferenceScenario {
            seed,
            duration: Nanos::from_secs(3600),
            devices: 140,
            aps: 4,
            monitor_loss: 0.03,
            churn: 0.45,
        }
    }

    /// A miniature conference for tests and examples.
    pub fn small(seed: u64, secs: u64, devices: usize) -> Self {
        ConferenceScenario {
            seed,
            duration: Nanos::from_secs(secs),
            devices,
            aps: 2,
            monitor_loss: 0.0,
            churn: 0.3,
        }
    }

    fn build(&self) -> (Simulator, BTreeMap<MacAddr, String>, Vec<MacAddr>) {
        let mut sim = Simulator::new(SimConfig {
            seed: self.seed,
            duration: self.duration,
            monitor_loss: self.monitor_loss,
            // Mixed b/g conference network with OFDM basics for control
            // responses (the 2008 Sigcomm network ran 802.11g).
            basic_rates: vec![
                wifiprint_ieee80211::Rate::R6M,
                wifiprint_ieee80211::Rate::R12M,
                wifiprint_ieee80211::Rate::R24M,
            ],
            ..SimConfig::default()
        });

        let ap_addrs: Vec<MacAddr> =
            (0..self.aps).map(|i| MacAddr::from_index(0xCA_0000 + i as u64)).collect();
        for (i, &addr) in ap_addrs.iter().enumerate() {
            let mut link = LinkQuality::static_link(34.0 + (i % 3) as f64 * 3.0);
            link.monitor_offset_db = -3.0;
            sim.add_station(StationConfig::ap(addr, link));
        }

        let pop_cfg = PopulationConfig {
            devices: self.devices,
            seed: self.seed,
            environment: Environment::Conference,
            encryption_overhead: 0, // open network
            addr_base: 0xC0_0000,
        };
        let n_aps = ap_addrs.len();
        let ap_for = {
            let ap_addrs = ap_addrs.clone();
            move |i: usize, rng: &mut InstanceRng| {
                // Attendees associate with a random AP, roughly balanced.
                ap_addrs[(i + rng.below(2) as usize) % n_aps]
            }
        };
        let mut devices = sample_population(
            &pop_cfg,
            |_, rng| {
                // Attendees start near the front (good links during the
                // training hour) and disperse as the day goes on: waypoint
                // mobility with a negative SNR trend. The systematic drift
                // is what makes transmission-rate references go stale —
                // the paper's conference-trace rate collapse.
                let snr = 22.0 + rng.f64() * 12.0;
                let update_every = Nanos::from_millis(1500 + rng.below(1500));
                // Scale the per-update trend so the expected decline over
                // the capture is ~12–18 dB regardless of update cadence.
                let updates_per_capture =
                    self.duration.as_secs_f64() / update_every.as_secs_f64();
                let trend_db = -(18.0 + rng.f64() * 10.0) / updates_per_capture;
                LinkQuality {
                    snr_ap_db: snr,
                    monitor_offset_db: -8.0 + rng.f64() * 14.0,
                    fading_std_db: 2.6,
                    mobility: MobilityModel::DriftingCrowd {
                        step_db: 2.4,
                        jump_p: 0.002,
                        min_db: 2.0,
                        max_db: 36.0,
                        trend_db,
                    },
                    update_every,
                }
            },
            ap_for,
        );
        apply_churn(
            &mut devices,
            self.seed,
            self.duration,
            // Arrivals spread over the first two thirds of the capture.
            self.duration * 2 / 3,
            self.churn,
            Nanos::from_secs(600).min(self.duration / 3),
        );

        let mut profiles = BTreeMap::new();
        for dev in devices {
            profiles.insert(dev.station.addr, dev.profile_name.clone());
            sim.add_station(dev.station);
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
    fn small_conference_runs_with_probes_and_churn() {
        let trace = ConferenceScenario::small(21, 60, 20).run_collect();
        assert!(trace.frames.len() > 200, "frames = {}", trace.frames.len());
        let probes =
            trace.frames.iter().filter(|f| f.kind == FrameKind::ProbeReq).count();
        assert!(probes > 5, "probes = {probes}");
    }

    #[test]
    fn conference_rates_drift_over_time() {
        // The same device's rate distribution early vs late should differ
        // for at least some mobile SNR-driven devices.
        let trace = ConferenceScenario::small(5, 120, 16).run_collect();
        let half = Nanos::from_secs(60);
        let mut early: BTreeMap<MacAddr, Vec<f64>> = BTreeMap::new();
        let mut late: BTreeMap<MacAddr, Vec<f64>> = BTreeMap::new();
        for f in &trace.frames {
            if f.kind != FrameKind::Data {
                continue;
            }
            let Some(t) = f.transmitter else { continue };
            let bucket = if f.t_end < half { &mut early } else { &mut late };
            bucket.entry(t).or_default().push(f.rate.mbps());
        }
        let mut drifted = 0;
        for (dev, e) in &early {
            let Some(l) = late.get(dev) else { continue };
            if e.len() < 10 || l.len() < 10 {
                continue;
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            if (mean(e) - mean(l)).abs() > 3.0 {
                drifted += 1;
            }
        }
        assert!(drifted >= 1, "no device showed rate drift");
    }

    #[test]
    fn open_network_has_no_encryption_overhead() {
        let trace = ConferenceScenario::small(9, 20, 8).run_collect();
        assert!(!trace.frames.is_empty());
        // Deterministic reruns.
        let again = ConferenceScenario::small(9, 20, 8).run_collect();
        assert_eq!(trace.frames.len(), again.frames.len());
    }
}
