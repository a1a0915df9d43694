//! Device signatures: weighted per-frame-type histograms (Definition 1).

use std::collections::BTreeMap;

use wifiprint_ieee80211::{FrameKind, MacAddr};
use wifiprint_radiotap::CapturedFrame;

use crate::config::EvalConfig;
use crate::error::CoreError;
use crate::histogram::Histogram;
use crate::params::{Observation, ParameterExtractor};

/// A device signature: one histogram per observed frame type, with weights
/// proportional to the number of observations of that type (§IV-A,
/// Definition 1).
///
/// `Sig(s) = {(weight^ftype(s), hist^ftype(s)) | ∀ ftype}`
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    entries: BTreeMap<FrameKind, Histogram>,
    total: u64,
}

impl Signature {
    /// An empty signature.
    pub fn new() -> Self {
        Signature { entries: BTreeMap::new(), total: 0 }
    }

    /// Builds a signature directly from per-kind histograms.
    pub fn from_histograms(entries: BTreeMap<FrameKind, Histogram>) -> Self {
        let total = entries.values().map(Histogram::total).sum();
        Signature { entries, total }
    }

    /// Records one observation into the appropriate histogram, creating it
    /// with `cfg`'s bins when first seen.
    pub fn record(&mut self, kind: FrameKind, value: f64, cfg: &EvalConfig) {
        // A plain lookup for the per-frame case (the kind already has a
        // histogram) keeps this hot path independent of whether the
        // compiler inlines `Entry::or_insert_with`.
        if let Some(hist) = self.entries.get_mut(&kind) {
            hist.add(value);
        } else {
            let mut hist = Histogram::new(cfg.bins.clone());
            hist.add(value);
            self.entries.insert(kind, hist);
        }
        self.total += 1;
    }

    /// Total observations across all frame types (`Σ |P^ftype(s)|`).
    pub fn observation_count(&self) -> u64 {
        self.total
    }

    /// The weight of one frame type: `|P^ftype(s)| / Σ |P^ftype(s)|`.
    ///
    /// Returns 0.0 for unobserved frame types.
    pub fn weight(&self, kind: FrameKind) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.entries.get(&kind).map_or(0.0, |h| h.total() as f64 / self.total as f64)
    }

    /// The histogram for one frame type, if observed.
    pub fn histogram(&self, kind: FrameKind) -> Option<&Histogram> {
        self.entries.get(&kind)
    }

    /// Iterates `(frame kind, histogram)` entries in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (FrameKind, &Histogram)> {
        self.entries.iter().map(|(&k, h)| (k, h))
    }

    /// The frame kinds present in this signature.
    pub fn kinds(&self) -> impl Iterator<Item = FrameKind> + '_ {
        self.entries.keys().copied()
    }

    /// Number of distinct frame types observed.
    pub fn kind_count(&self) -> usize {
        self.entries.len()
    }

    /// Merges another signature (same bins assumed) into this one.
    pub fn merge(&mut self, other: &Signature) {
        for (kind, hist) in &other.entries {
            match self.entries.get_mut(kind) {
                Some(existing) => existing.merge(hist),
                None => {
                    self.entries.insert(*kind, hist.clone());
                }
            }
        }
        self.total += other.total;
    }
}

impl Default for Signature {
    fn default() -> Self {
        Signature::new()
    }
}

/// Builds per-device signatures from a capture stream (the learning phase
/// of §IV-B, and candidate extraction in the detection phase).
///
/// Push frames in capture order, then call [`SignatureBuilder::finish`] to
/// obtain the signatures meeting the configured minimum observation count.
#[derive(Debug)]
pub struct SignatureBuilder {
    cfg: EvalConfig,
    extractor: ParameterExtractor,
    devices: BTreeMap<MacAddr, Signature>,
}

impl SignatureBuilder {
    /// A builder for the configured parameter.
    pub fn new(cfg: &EvalConfig) -> Self {
        SignatureBuilder {
            cfg: cfg.clone(),
            extractor: ParameterExtractor::with_options(
                cfg.parameter,
                cfg.estimator,
                cfg.filter.clone(),
            ),
            devices: BTreeMap::new(),
        }
    }

    /// Processes one captured frame.
    pub fn push(&mut self, frame: &CapturedFrame) {
        if let Some(obs) = self.extractor.push(frame) {
            self.record(obs);
        }
    }

    /// Records a pre-extracted observation (used when one extraction pass
    /// feeds several builders).
    pub fn record(&mut self, obs: Observation) {
        self.devices.entry(obs.device).or_default().record(obs.kind, obs.value, &self.cfg);
    }

    /// Processes a sequence of captured frames.
    pub fn extend(&mut self, frames: impl IntoIterator<Item = CapturedFrame>) {
        for frame in frames {
            self.push(&frame);
        }
    }

    /// Number of devices currently tracked (before the minimum-observation
    /// cut).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Finalises, keeping only devices with at least
    /// [`EvalConfig::min_observations`] observations (the paper's 50).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoQualifiedDevices`] when no tracked device reached
    /// the observation floor — there is nothing to enroll. Callers for
    /// whom an empty learning phase is an acceptable outcome (not a
    /// failure) can recover with `finish().unwrap_or_default()`.
    pub fn finish(self) -> Result<BTreeMap<MacAddr, Signature>, CoreError> {
        let min = self.cfg.min_observations;
        let tracked = self.devices.len();
        let qualified: BTreeMap<MacAddr, Signature> =
            self.devices.into_iter().filter(|(_, sig)| sig.observation_count() >= min).collect();
        if qualified.is_empty() {
            return Err(CoreError::NoQualifiedDevices { tracked, min_observations: min });
        }
        Ok(qualified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NetworkParameter;
    use wifiprint_ieee80211::{Frame, Nanos, Rate};

    fn cfg() -> EvalConfig {
        EvalConfig::for_parameter(NetworkParameter::FrameSize).with_min_observations(3)
    }

    fn frame(from: MacAddr, t_us: u64, payload: usize) -> CapturedFrame {
        let f = Frame::data_to_ds(from, MacAddr::from_index(9), MacAddr::from_index(9), payload);
        CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(t_us), -50)
    }

    fn probe(from: MacAddr, t_us: u64) -> CapturedFrame {
        let f = Frame::probe_req(from, vec![0; 30]);
        CapturedFrame::from_frame(&f, Rate::R1M, Nanos::from_micros(t_us), -50)
    }

    #[test]
    fn weights_follow_frame_type_distribution() {
        let c = cfg();
        let mut sig = Signature::new();
        for _ in 0..3 {
            sig.record(FrameKind::Data, 100.0, &c);
        }
        sig.record(FrameKind::ProbeReq, 60.0, &c);
        assert_eq!(sig.observation_count(), 4);
        assert!((sig.weight(FrameKind::Data) - 0.75).abs() < 1e-12);
        assert!((sig.weight(FrameKind::ProbeReq) - 0.25).abs() < 1e-12);
        assert_eq!(sig.weight(FrameKind::Beacon), 0.0);
        // Weights over observed kinds sum to 1.
        let total: f64 = sig.kinds().map(|k| sig.weight(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_signature_weight_is_zero() {
        let sig = Signature::new();
        assert_eq!(sig.weight(FrameKind::Data), 0.0);
        assert_eq!(sig.observation_count(), 0);
        assert_eq!(sig.kind_count(), 0);
    }

    #[test]
    fn builder_groups_by_device_and_kind() {
        let c = cfg();
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        let mut builder = SignatureBuilder::new(&c);
        builder.push(&frame(a, 100, 100));
        builder.push(&frame(a, 200, 100));
        builder.push(&probe(a, 300));
        builder.push(&frame(b, 400, 500));
        assert_eq!(builder.device_count(), 2);
        let sigs = builder.finish().expect("a qualified");
        // b has 1 < 3 observations and is dropped.
        assert_eq!(sigs.len(), 1);
        let sig_a = &sigs[&a];
        assert_eq!(sig_a.observation_count(), 3);
        assert_eq!(sig_a.kind_count(), 2);
        assert!(sig_a.histogram(FrameKind::Data).is_some());
        assert!(sig_a.histogram(FrameKind::ProbeReq).is_some());
    }

    #[test]
    fn min_observations_enforced() {
        let c = cfg().with_min_observations(100);
        let a = MacAddr::from_index(1);
        let mut builder = SignatureBuilder::new(&c);
        for i in 0..99 {
            builder.push(&frame(a, 100 * (i + 1), 100));
        }
        match builder.finish() {
            Err(CoreError::NoQualifiedDevices { tracked, min_observations }) => {
                assert_eq!(tracked, 1);
                assert_eq!(min_observations, 100);
            }
            other => panic!("expected NoQualifiedDevices, got {other:?}"),
        }
        // The tolerant form degrades to an empty map.
        let builder = SignatureBuilder::new(&c);
        assert!(builder.finish().unwrap_or_default().is_empty());
    }

    #[test]
    fn merge_combines_histograms_and_totals() {
        let c = cfg();
        let mut s1 = Signature::new();
        s1.record(FrameKind::Data, 100.0, &c);
        let mut s2 = Signature::new();
        s2.record(FrameKind::Data, 100.0, &c);
        s2.record(FrameKind::Beacon, 200.0, &c);
        s1.merge(&s2);
        assert_eq!(s1.observation_count(), 3);
        assert_eq!(s1.histogram(FrameKind::Data).unwrap().total(), 2);
        assert_eq!(s1.histogram(FrameKind::Beacon).unwrap().total(), 1);
    }

    #[test]
    fn from_histograms_counts_total() {
        let c = cfg();
        let mut h = Histogram::new(c.bins.clone());
        h.add_n(50.0, 7);
        let mut map = BTreeMap::new();
        map.insert(FrameKind::QosData, h);
        let sig = Signature::from_histograms(map);
        assert_eq!(sig.observation_count(), 7);
        assert_eq!(sig.weight(FrameKind::QosData), 1.0);
    }
}
