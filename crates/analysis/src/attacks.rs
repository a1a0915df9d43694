//! Attack evaluation (§VII-A): how well does a mimicry attacker forge a
//! victim's signature?
//!
//! The paper argues (§VII-A1) that an attacker may *"send traffic at a
//! constant transmission rate and vary the frame sizes for each frame type
//! to reproduce the distribution of the histogram"* — and that this forges
//! application-level features (frame sizes) far more easily than the
//! driver/chipset-level timing features. This module implements exactly
//! that attacker and measures which parameters it fools.

use std::collections::BTreeMap;

use wifiprint_core::{
    EngineError, FusionSpec, MatchScratch, MultiEngine, NetworkParameter, ReferenceDb, Signature,
    SimilarityMeasure,
};
use wifiprint_ieee80211::{Frame, FrameKind, MacAddr, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

/// The outcome of a mimicry attempt for one network parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MimicryResult {
    /// The parameter under attack.
    pub parameter: NetworkParameter,
    /// Similarity of the victim's *own* later traffic to its reference.
    pub genuine_similarity: f64,
    /// Similarity of the attacker's forged traffic to the victim's
    /// reference.
    pub attacker_similarity: f64,
}

impl MimicryResult {
    /// `true` if the attacker scores at least `fraction` of the genuine
    /// similarity (i.e. the forgery is competitive).
    pub fn forged(&self, fraction: f64) -> bool {
        self.attacker_similarity >= fraction * self.genuine_similarity
    }
}

/// Builds the §VII-A1 mimicry attacker's traffic: replaying the victim's
/// *frame-size distribution* per frame type at a constant rate with the
/// attacker's own (regular, software-paced) timing.
///
/// The attacker can shape sizes byte-perfectly from userspace, but its
/// inter-frame timing comes from its own card, driver and pacing loop —
/// modelled here as a fixed software pacing interval plus small jitter.
pub fn mimicry_frames(
    victim_reference: &wifiprint_core::Signature,
    attacker_mac: MacAddr,
    bssid: MacAddr,
    frames_to_send: usize,
    pacing: Nanos,
    seed: u64,
) -> Vec<CapturedFrame> {
    // Rebuild a sampleable size distribution from the victim's frame-size
    // signature (the attacker learned it exactly as we did).
    let mut sizes: Vec<(f64, f64)> = Vec::new(); // (size, cumulative weight)
    let mut acc = 0.0;
    for (kind, hist) in victim_reference.iter() {
        if kind != FrameKind::Data {
            continue; // the attacker forges application data only (§VII-A)
        }
        for (center, freq) in hist.points() {
            if freq > 0.0 {
                acc += freq;
                sizes.push((center, acc));
            }
        }
    }
    if sizes.is_empty() {
        return Vec::new();
    }
    let total = acc;

    let mut rng = wifiprint_netsim::SimRng::derive(seed, 0xA77A);
    let mut out = Vec::with_capacity(frames_to_send);
    let mut t = Nanos::from_micros(1000);
    for _ in 0..frames_to_send {
        let roll = rng.f64() * total;
        let size = sizes
            .iter()
            .find(|(_, cum)| *cum >= roll)
            .map_or(sizes[sizes.len() - 1].0, |(s, _)| *s);
        let payload = (size as usize).saturating_sub(36).max(1);
        let frame = Frame::data_to_ds(attacker_mac, bssid, bssid, payload);
        // Constant transmission rate (§VII-A1) + software pacing jitter.
        out.push(CapturedFrame::from_frame(&frame, Rate::R24M, t, -55));
        let jitter = Nanos::from_nanos(rng.below(60_000));
        t += pacing + jitter;
    }
    out
}

/// Every parameter's signature of `device` over `frames`: a
/// training-only run of the fused engine, whose enrollment is the
/// signature learning of the paper's reference phase. A parameter the
/// device did not reach the observation floor for is absent.
fn learn_signatures(
    frames: &[CapturedFrame],
    device: MacAddr,
) -> Result<BTreeMap<NetworkParameter, Signature>, EngineError> {
    let mut engine =
        MultiEngine::builder().spec(FusionSpec::all_equal()).train_for(Nanos::MAX).build()?;
    engine.observe_all(frames)?;
    engine.finish()?;
    Ok(engine
        .into_references()
        .into_iter()
        .filter_map(|(parameter, db)| Some((parameter, db.get(&device)?.clone())))
        .collect())
}

/// Runs the full §VII-A1 experiment: learn the victim, replay its size
/// distribution from attacker hardware, and compare similarities per
/// parameter. Parameters the victim or the attacker did not reach the
/// observation floor for are left out; a victim too sparse to learn any
/// frame-size signature yields no results.
///
/// # Errors
///
/// [`EngineError`] when a capture is not in timestamp order.
pub fn evaluate_mimicry(
    victim_training: &[CapturedFrame],
    victim_later: &[CapturedFrame],
    victim: MacAddr,
    bssid: MacAddr,
    seed: u64,
) -> Result<Vec<MimicryResult>, EngineError> {
    let attacker = MacAddr::new([0x02, 0xBA, 0xDB, 0xAD, 0, 1]);
    let mut results = Vec::new();

    // The attacker learns the victim's frame-size signature once.
    let reference = learn_signatures(victim_training, victim)?;
    let Some(victim_size_sig) = reference.get(&NetworkParameter::FrameSize) else {
        return Ok(results);
    };
    let forged = mimicry_frames(
        victim_size_sig,
        attacker,
        bssid,
        4000,
        Nanos::from_micros(900),
        seed,
    );
    let genuine = learn_signatures(victim_later, victim)?;
    let attack = learn_signatures(&forged, attacker)?;

    for parameter in NetworkParameter::ALL {
        let (Some(reference), Some(genuine), Some(attack)) =
            (reference.get(&parameter), genuine.get(&parameter), attack.get(&parameter))
        else {
            continue;
        };
        let mut db = ReferenceDb::new();
        db.insert(victim, reference.clone())?;
        let mut scratch = MatchScratch::new();
        let mut sim = |sig: &Signature| {
            db.match_tile(std::slice::from_ref(sig), SimilarityMeasure::Cosine, &mut scratch)
                .candidate(0)
                .similarity_to(&victim)
                .unwrap_or(0.0)
        };
        results.push(MimicryResult {
            parameter,
            genuine_similarity: sim(genuine),
            attacker_similarity: sim(attack),
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_scenarios::{FaradayRig, FARADAY_AP, FARADAY_DEVICE};

    fn victim_traces() -> (Vec<CapturedFrame>, Vec<CapturedFrame>) {
        let catalog = wifiprint_devices::profile_catalog();
        let t1 = FaradayRig::for_profile(&catalog[0], 1, Nanos::from_secs(8)).run();
        let t2 = FaradayRig::for_profile(&catalog[0], 2, Nanos::from_secs(8)).run();
        (t1.frames, t2.frames)
    }

    #[test]
    fn mimicry_forges_sizes_but_not_timing() {
        let (training, later) = victim_traces();
        let results =
            evaluate_mimicry(&training, &later, FARADAY_DEVICE, FARADAY_AP, 7).expect("in order");
        assert_eq!(results.len(), 5);
        let get = |p: NetworkParameter| {
            *results.iter().find(|r| r.parameter == p).expect("result")
        };
        let size = get(NetworkParameter::FrameSize);
        let ia = get(NetworkParameter::InterArrivalTime);
        // The size forgery is competitive...
        assert!(
            size.forged(0.7),
            "size forgery too weak: attacker {:.3} vs genuine {:.3}",
            size.attacker_similarity,
            size.genuine_similarity
        );
        // ...but the timing forgery is not (§VII-A: "more difficult to
        // forge than application level data").
        assert!(
            !ia.forged(0.7),
            "inter-arrival unexpectedly forged: attacker {:.3} vs genuine {:.3}",
            ia.attacker_similarity,
            ia.genuine_similarity
        );
        assert!(ia.attacker_similarity < size.attacker_similarity);
    }

    #[test]
    fn mimicry_frames_reproduce_the_size_distribution() {
        let (training, _) = victim_traces();
        let victim_sig = learn_signatures(&training, FARADAY_DEVICE)
            .expect("in order")
            .remove(&NetworkParameter::FrameSize)
            .expect("victim qualifies");
        let attacker = MacAddr::from_index(0xBAD);
        let forged = mimicry_frames(
            &victim_sig,
            attacker,
            FARADAY_AP,
            3000,
            Nanos::from_micros(800),
            3,
        );
        assert_eq!(forged.len(), 3000);
        assert!(forged.iter().all(|f| f.transmitter == Some(attacker)));
        // Forged sizes cover the victim's dominant size bin.
        let dominant = victim_sig
            .histogram(FrameKind::Data)
            .unwrap()
            .points()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
        assert!(
            forged.iter().any(|f| (f.size as f64 - dominant).abs() < 16.0),
            "no forged frame near the dominant size {dominant}"
        );
    }
}
