//! The §VI figure experiments (Figs. 2, 4–8): controlled rigs isolating
//! the factors that shape inter-arrival histograms.

use std::collections::BTreeMap;

use wifiprint_core::{FrameFilter, NetworkParameter, ParameterExtractor, TxTimeEstimator};
use wifiprint_core::{BinSpec, Histogram};
use wifiprint_devices::{profile_catalog, AppProfile, DeviceProfile, InstanceRng};
use wifiprint_ieee80211::{FrameKind, MacAddr, Nanos, Rate};
use wifiprint_netsim::LinkQuality;
use wifiprint_radiotap::CapturedFrame;
use wifiprint_scenarios::{FaradayRig, OfficeScenario, Trace, FARADAY_AP, FARADAY_DEVICE};

/// Builds an inter-arrival histogram from a trace with the given frame
/// filter and bins, over the Faraday device only.
fn ia_histogram(
    frames: &[CapturedFrame],
    device: MacAddr,
    filter: FrameFilter,
    bins: BinSpec,
) -> Histogram {
    let mut ex = ParameterExtractor::with_options(
        NetworkParameter::InterArrivalTime,
        TxTimeEstimator::SizeOverRate,
        filter,
    );
    let mut hist = Histogram::new(bins);
    for f in frames {
        if let Some(obs) = ex.push(f) {
            if obs.device == device {
                hist.add(obs.value);
            }
        }
    }
    hist
}

/// Fig. 2: an example inter-arrival histogram of one ordinary office
/// device over 0–2500 µs.
pub fn fig2_example_histogram(seed: u64) -> (MacAddr, Histogram) {
    let trace = OfficeScenario::small(seed, 120, 8).run_collect();
    // Pick the busiest client.
    let busiest = *trace
        .transmitters()
        .iter()
        .filter(|(addr, _)| !trace.report.aps.contains(addr))
        .max_by_key(|(_, n)| **n)
        .expect("nonempty trace")
        .0;
    let hist = ia_histogram(
        &trace.frames,
        busiest,
        FrameFilter::default(),
        BinSpec::uniform_to(2500.0, 25.0),
    );
    (busiest, hist)
}

fn faraday_trace(profile: &DeviceProfile, seed: u64, secs: u64) -> Trace {
    FaradayRig::for_profile(profile, seed, Nanos::from_secs(secs)).run()
}

/// Fig. 4: backoff implementation differences. Two devices with different
/// chipsets stream UDP in the cage; only first-transmission data frames at
/// 54 Mb/s are histogrammed, over 250–450 µs with 2 µs bins.
pub fn fig4_backoff(seed: u64) -> Vec<(String, Histogram)> {
    let catalog = profile_catalog();
    // aero5210 (uniform backoff) vs wavemax23 (extra early slot).
    let picks = [&catalog[0], &catalog[2]];
    let filter = FrameFilter {
        kinds: Some(vec![FrameKind::Data]),
        rate: Some(Rate::R54M),
        exclude_retries: true,
        broadcast_only: false,
    };
    picks
        .iter()
        .map(|p| {
            let trace = faraday_trace(p, seed, 20);
            let hist = ia_histogram(
                &trace.frames,
                FARADAY_DEVICE,
                filter.clone(),
                BinSpec::uniform_to(500.0, 2.0),
            );
            (p.chipset.name.to_owned(), hist)
        })
        .collect()
}

/// Fig. 5: the same device with virtual carrier sensing off vs an RTS
/// threshold of 2000 bytes, in a busy lab.
pub fn fig5_rts(seed: u64) -> Vec<(String, Histogram)> {
    let catalog = profile_catalog();
    let profile = &catalog[0];
    [None, Some(2000usize)]
        .into_iter()
        .map(|threshold| {
            // A 2200-byte UDP payload exceeds the 2000-byte threshold, so
            // virtual carrier sensing actually triggers in the second run.
            let mut rng = InstanceRng::new(seed ^ 0xF165, 0);
            let station = profile.instantiate(
                FARADAY_DEVICE,
                FARADAY_AP,
                LinkQuality::static_link(40.0),
                &[AppProfile::IperfUdp {
                    interval: Nanos::from_millis(3),
                    payload: 2200,
                }],
                0,
                false,
                &mut rng,
            );
            let mut rig = FaradayRig::for_station(station, seed, Nanos::from_secs(20));
            rig.station.behavior.rts_threshold = threshold;
            let trace = rig.with_background(3).run();
            let hist = ia_histogram(
                &trace.frames,
                FARADAY_DEVICE,
                FrameFilter::kinds_only([FrameKind::Data]),
                BinSpec::uniform_to(2000.0, 20.0),
            );
            let label = match threshold {
                None => "RTS deactivated".to_owned(),
                Some(t) => format!("RTS threshold {t} B"),
            };
            (label, hist)
        })
        .collect()
}

/// Fig. 6: two devices with different rate-adaptation behaviour on a
/// fluctuating link: inter-arrival histograms plus the transmission-rate
/// distributions that explain them.
pub fn fig6_rates(seed: u64) -> Vec<(String, Histogram, BTreeMap<String, f64>)> {
    let catalog = profile_catalog();
    // femto-g1/turbonet (SNR-driven, eager) vs aero5210/opendrv (ARF).
    let picks = [&catalog[12], &catalog[0]];
    picks
        .iter()
        .map(|p| {
            let mut rig = FaradayRig::for_profile(p, seed, Nanos::from_secs(20));
            // A marginal, fluctuating channel makes the controllers move.
            rig.station.link = LinkQuality {
                snr_ap_db: 19.0,
                monitor_offset_db: 15.0, // keep the monitor reliable
                fading_std_db: 3.0,
                mobility: wifiprint_netsim::MobilityModel::RandomWalk {
                    step_db: 2.0,
                    min_db: 10.0,
                    max_db: 30.0,
                },
                update_every: Nanos::from_millis(500),
            };
            let trace = rig.run();
            let hist = ia_histogram(
                &trace.frames,
                FARADAY_DEVICE,
                FrameFilter::kinds_only([FrameKind::Data]),
                BinSpec::uniform_to(1000.0, 10.0),
            );
            // Rate distribution over the device's data frames.
            let mut rates: BTreeMap<String, u64> = BTreeMap::new();
            let mut total = 0u64;
            for f in &trace.frames {
                if f.transmitter == Some(FARADAY_DEVICE) && f.kind == FrameKind::Data {
                    *rates.entry(f.rate.to_string()).or_insert(0) += 1;
                    total += 1;
                }
            }
            let dist: BTreeMap<String, f64> = rates
                .into_iter()
                .map(|(r, n)| (r, n as f64 / total.max(1) as f64))
                .collect();
            (p.name.clone(), hist, dist)
        })
        .collect()
}

/// Fig. 7: two instances of the *same* device model whose service stacks
/// differ — histograms over their group-addressed (broadcast) data frames
/// only.
pub fn fig7_services(seed: u64) -> Vec<(String, Histogram)> {
    let catalog = profile_catalog();
    let profile = &catalog[1]; // aero5210 + vendahl + windows stack
    (0..2u64)
        .map(|instance| {
            let mut rng = InstanceRng::new(seed ^ 0xF1607, instance);
            let mut station = profile.instantiate(
                FARADAY_DEVICE,
                FARADAY_AP,
                LinkQuality::static_link(40.0),
                &[AppProfile::Background],
                0,
                true, // service variation: the two netbooks differ here
                &mut rng,
            );
            station.link.fading_std_db = 0.5;
            let trace =
                FaradayRig::for_station(station, seed + instance, Nanos::from_secs(600)).run();
            let hist = ia_histogram(
                &trace.frames,
                FARADAY_DEVICE,
                FrameFilter { broadcast_only: true, ..FrameFilter::default() },
                BinSpec::uniform_to(2500.0, 25.0),
            );
            (format!("netbook instance {}", instance + 1), hist)
        })
        .collect()
}

/// Fig. 8: null-function-frame histograms for two different wireless
/// cards in the same environment.
pub fn fig8_power_save(seed: u64) -> Vec<(String, Histogram)> {
    let catalog = profile_catalog();
    // wavemax23 (fast PS cycle, nulls at basic rate) vs longhaul31 (slow
    // cycle, CWmin 31).
    let picks = [&catalog[2], &catalog[9]];
    picks
        .iter()
        .map(|p| {
            let trace = faraday_trace(p, seed, 600);
            let hist = ia_histogram(
                &trace.frames,
                FARADAY_DEVICE,
                FrameFilter::kinds_only([FrameKind::NullFunction, FrameKind::QosNull]),
                BinSpec::uniform_to(2500.0, 25.0),
            );
            (p.chipset.name.to_owned(), hist)
        })
        .collect()
}

/// The Fig. 1 worked example: the paper's six-frame sequence and which
/// observations the extraction rules attribute.
pub fn fig1_worked_example() -> Vec<String> {
    use wifiprint_ieee80211::Frame;
    let a = MacAddr::new([0x02, 0, 0, 0, 0, 0xA]);
    let c = MacAddr::new([0x02, 0, 0, 0, 0, 0xC]);
    let ap = MacAddr::new([0x02, 0, 0, 0, 0, 0xF]);
    let t = [1000u64, 1100, 1500, 1600, 2000, 2100];
    let frames = vec![
        ("DATA (A)", CapturedFrame::from_frame(&Frame::data_to_ds(a, ap, ap, 500), Rate::R11M, Nanos::from_micros(t[0]), -50)),
        ("ACK", CapturedFrame::from_frame(&Frame::ack(a), Rate::R11M, Nanos::from_micros(t[1]), -50)),
        ("DATA (A)", CapturedFrame::from_frame(&Frame::data_to_ds(a, ap, ap, 500), Rate::R11M, Nanos::from_micros(t[2]), -50)),
        ("ACK", CapturedFrame::from_frame(&Frame::ack(a), Rate::R11M, Nanos::from_micros(t[3]), -50)),
        ("RTS (C)", CapturedFrame::from_frame(&Frame::rts(ap, c, 300), Rate::R2M, Nanos::from_micros(t[4]), -50)),
        ("CTS", CapturedFrame::from_frame(&Frame::cts(c, 200), Rate::R2M, Nanos::from_micros(t[5]), -50)),
    ];
    let mut ex = ParameterExtractor::new(NetworkParameter::InterArrivalTime);
    let mut lines = Vec::new();
    for (label, frame) in &frames {
        match ex.push(frame) {
            Some(obs) => lines.push(format!(
                "{label:>9} at t={:>5} µs  ->  P^{}({}) += {:.0} µs",
                frame.t_end.as_micros(),
                obs.kind,
                obs.device,
                obs.value
            )),
            None => lines.push(format!(
                "{label:>9} at t={:>5} µs  ->  dropped (no sender or no predecessor)",
                frame.t_end.as_micros()
            )),
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_attributes_like_the_paper() {
        let lines = fig1_worked_example();
        assert_eq!(lines.len(), 6);
        // First frame: no predecessor.
        assert!(lines[0].contains("dropped"));
        // ACKs dropped.
        assert!(lines[1].contains("dropped"));
        assert!(lines[3].contains("dropped"));
        assert!(lines[5].contains("dropped"));
        // DATA attributed to A with i2 = t2 - t1 = 400 µs.
        assert!(lines[2].contains("400"), "{}", lines[2]);
        // RTS attributed to C with i4 = t4 - t3 = 400 µs.
        assert!(lines[4].contains("rts"), "{}", lines[4]);
    }

    #[test]
    fn fig4_histograms_differ_between_chipsets() {
        let hists = fig4_backoff(11);
        assert_eq!(hists.len(), 2);
        for (name, h) in &hists {
            assert!(h.total() > 200, "{name}: {} obs", h.total());
        }
        // The two densities must differ materially (different backoff).
        let a = hists[0].1.frequencies();
        let b = hists[1].1.frequencies();
        let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 > 0.3, "backoff histograms too similar: L1 = {l1}");
    }

    #[test]
    fn fig5_rts_shifts_mass() {
        let hists = fig5_rts(13);
        assert_eq!(hists.len(), 2);
        let (ref off_label, ref off) = hists[0];
        let (ref on_label, ref on) = hists[1];
        assert!(off_label.contains("deactivated"));
        assert!(on_label.contains("2000"));
        assert!(off.total() > 100 && on.total() > 100);
        let l1: f64 = off
            .frequencies()
            .iter()
            .zip(on.frequencies())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(l1 > 0.25, "RTS on/off histograms too similar: L1 = {l1}");
    }

    #[test]
    fn fig7_same_model_instances_differ() {
        let hists = fig7_services(17);
        assert_eq!(hists.len(), 2);
        assert!(hists[0].1.total() > 10, "instance 1 broadcast obs");
        assert!(hists[1].1.total() > 10, "instance 2 broadcast obs");
        assert_ne!(hists[0].1.frequencies(), hists[1].1.frequencies());
    }

    #[test]
    fn fig8_null_frames_present() {
        let hists = fig8_power_save(19);
        for (name, h) in &hists {
            assert!(h.total() > 20, "{name}: {} null-frame obs", h.total());
        }
    }
}
