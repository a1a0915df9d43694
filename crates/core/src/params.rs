//! The five network parameters (§III) and their extraction from a capture
//! stream (§IV-A).

use core::fmt;
use core::str::FromStr;

use wifiprint_ieee80211::{FrameKind, MacAddr, Nanos};
use wifiprint_radiotap::CapturedFrame;

use crate::config::{FrameFilter, TxTimeEstimator};

/// The global network parameters the paper evaluates as fingerprint
/// candidates. All are observable passively with a standard wireless card.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetworkParameter {
    /// The PHY rate each frame was sent at (Mb/s).
    TransmissionRate,
    /// The on-air frame size (bytes).
    FrameSize,
    /// The idle gap before the frame: `mtimeᵢ = (tᵢ − ttᵢ) − tᵢ₋₁` (µs).
    MediumAccessTime,
    /// The estimated time to transmit the frame: `ttᵢ = sizeᵢ/rateᵢ` (µs).
    TransmissionTime,
    /// The gap between ends of reception: `iᵢ = tᵢ − tᵢ₋₁` (µs).
    InterArrivalTime,
}

impl NetworkParameter {
    /// How many network parameters the paper defines.
    pub const COUNT: usize = 5;

    /// All five parameters, in the paper's presentation order.
    pub const ALL: [NetworkParameter; NetworkParameter::COUNT] = [
        NetworkParameter::TransmissionRate,
        NetworkParameter::FrameSize,
        NetworkParameter::MediumAccessTime,
        NetworkParameter::TransmissionTime,
        NetworkParameter::InterArrivalTime,
    ];

    /// This parameter's position in [`NetworkParameter::ALL`] — the slot
    /// a [`FusedObservation`] stores its value under.
    pub const fn index(self) -> usize {
        match self {
            NetworkParameter::TransmissionRate => 0,
            NetworkParameter::FrameSize => 1,
            NetworkParameter::MediumAccessTime => 2,
            NetworkParameter::TransmissionTime => 3,
            NetworkParameter::InterArrivalTime => 4,
        }
    }

    /// Human-readable name matching the paper's tables.
    pub const fn label(self) -> &'static str {
        match self {
            NetworkParameter::TransmissionRate => "transmission rate",
            NetworkParameter::FrameSize => "frame size",
            NetworkParameter::MediumAccessTime => "medium access time",
            NetworkParameter::TransmissionTime => "transmission time",
            NetworkParameter::InterArrivalTime => "inter-arrival time",
        }
    }

    /// Kebab-case identifier used in persisted databases and CLI flags.
    pub const fn slug(self) -> &'static str {
        match self {
            NetworkParameter::TransmissionRate => "transmission-rate",
            NetworkParameter::FrameSize => "frame-size",
            NetworkParameter::MediumAccessTime => "medium-access-time",
            NetworkParameter::TransmissionTime => "transmission-time",
            NetworkParameter::InterArrivalTime => "inter-arrival-time",
        }
    }
}

impl fmt::Display for NetworkParameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error parsing a [`NetworkParameter`] slug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetworkParameterError(String);

impl fmt::Display for ParseNetworkParameterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown network parameter {:?}", self.0)
    }
}

impl std::error::Error for ParseNetworkParameterError {}

impl FromStr for NetworkParameter {
    type Err = ParseNetworkParameterError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        NetworkParameter::ALL
            .into_iter()
            .find(|p| p.slug() == s)
            .ok_or_else(|| ParseNetworkParameterError(s.to_owned()))
    }
}

/// One extracted parameter value, attributed to a device and frame type
/// (the paper's `pᵢ` added to `P^ftype(sᵢ)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The transmitting device `sᵢ`.
    pub device: MacAddr,
    /// The frame type the observation is grouped under.
    pub kind: FrameKind,
    /// The parameter value (µs, bytes or Mb/s depending on the parameter).
    pub value: f64,
    /// End-of-reception time of the observed frame.
    pub t_end: Nanos,
}

/// Streaming extractor turning captured frames into [`Observation`]s for
/// one network parameter.
///
/// Frames must be pushed in increasing `t_end` order (capture order). The
/// extractor implements the attribution rules of §IV-A / Fig. 1:
///
/// * frames without a transmitter address (ACK, CTS) yield no observation
///   but **do** advance the previous-frame timestamp used by the
///   inter-arrival and medium-access parameters;
/// * filtered-out frames likewise advance time without being reported.
///
/// # Example
///
/// ```
/// use wifiprint_core::{NetworkParameter, ParameterExtractor};
/// use wifiprint_radiotap::CapturedFrame;
/// use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
///
/// let sta = MacAddr::from_index(1);
/// let ap = MacAddr::from_index(9);
/// let mut ex = ParameterExtractor::new(NetworkParameter::InterArrivalTime);
///
/// let data = Frame::data_to_ds(sta, ap, ap, 100);
/// let f0 = CapturedFrame::from_frame(&data, Rate::R54M, Nanos::from_micros(1000), -40);
/// let ack = CapturedFrame::from_frame(&Frame::ack(sta), Rate::R24M, Nanos::from_micros(1050), -45);
/// let f2 = CapturedFrame::from_frame(&data, Rate::R54M, Nanos::from_micros(1800), -40);
///
/// assert!(ex.push(&f0).is_none());        // no previous frame yet
/// assert!(ex.push(&ack).is_none());       // anonymous sender: dropped...
/// let obs = ex.push(&f2).expect("observation");
/// assert_eq!(obs.value, 750.0);           // ...but its timestamp counts.
/// ```
#[derive(Debug, Clone)]
pub struct ParameterExtractor {
    param: NetworkParameter,
    estimator: TxTimeEstimator,
    filter: FrameFilter,
    prev_t_end: Option<Nanos>,
}

impl ParameterExtractor {
    /// An extractor with the paper's defaults (size/rate transmission-time
    /// estimator, no frame filtering).
    pub fn new(param: NetworkParameter) -> Self {
        Self::with_options(param, TxTimeEstimator::SizeOverRate, FrameFilter::default())
    }

    /// An extractor with an explicit estimator and frame filter.
    pub fn with_options(
        param: NetworkParameter,
        estimator: TxTimeEstimator,
        filter: FrameFilter,
    ) -> Self {
        ParameterExtractor { param, estimator, filter, prev_t_end: None }
    }

    /// The parameter being extracted.
    pub fn parameter(&self) -> NetworkParameter {
        self.param
    }

    /// Processes the next captured frame, returning an observation when the
    /// frame has a known sender, passes the filter, and the parameter is
    /// computable (history-based parameters need a predecessor).
    pub fn push(&mut self, frame: &CapturedFrame) -> Option<Observation> {
        let prev = self.prev_t_end.replace(frame.t_end);
        let sender = frame.transmitter?;
        if !self.filter.matches(frame) {
            return None;
        }
        let value = match self.param {
            NetworkParameter::TransmissionRate => frame.rate.mbps(),
            NetworkParameter::FrameSize => frame.size as f64,
            NetworkParameter::TransmissionTime => self.estimator.tx_time_micros(frame),
            NetworkParameter::InterArrivalTime => {
                let prev = prev?;
                micros_between(prev, frame.t_end)
            }
            NetworkParameter::MediumAccessTime => {
                let prev = prev?;
                micros_between(prev, frame.t_end) - self.estimator.tx_time_micros(frame)
            }
        };
        Some(Observation { device: sender, kind: frame.kind, value, t_end: frame.t_end })
    }

    /// Forgets the previous-frame timestamp (e.g. at a capture gap).
    pub fn reset_history(&mut self) {
        self.prev_t_end = None;
    }
}

fn micros_between(earlier: Nanos, later: Nanos) -> f64 {
    later.saturating_sub(earlier).as_micros_f64()
}

/// All five parameter values extracted from one captured frame — the
/// output of [`FusedExtractor::push`].
///
/// Values are indexed by [`NetworkParameter::index`]; a `None` slot means
/// the parameter was not computable for this frame (the history-based
/// parameters need a predecessor). The rate, size and transmission-time
/// slots are always populated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedObservation {
    /// The transmitting device `sᵢ`.
    pub device: MacAddr,
    /// The frame type the observations are grouped under.
    pub kind: FrameKind,
    /// End-of-reception time of the observed frame.
    pub t_end: Nanos,
    /// Parameter values, indexed by [`NetworkParameter::index`].
    pub values: [Option<f64>; NetworkParameter::COUNT],
}

impl FusedObservation {
    /// The value extracted for one parameter, if computable.
    pub fn value(&self, param: NetworkParameter) -> Option<f64> {
        self.values[param.index()]
    }

    /// Projects one parameter's slot into a standalone [`Observation`] —
    /// exactly what a single-parameter [`ParameterExtractor`] would have
    /// produced for this frame.
    pub fn observation(&self, param: NetworkParameter) -> Option<Observation> {
        self.value(param).map(|value| Observation {
            device: self.device,
            kind: self.kind,
            value,
            t_end: self.t_end,
        })
    }
}

/// Streaming extractor producing **all five** parameter observations from
/// a single pass over each captured frame.
///
/// The per-parameter [`ParameterExtractor`]s each keep their own
/// previous-frame timestamp and re-derive the shared quantities (the gap
/// to the predecessor, the transmission-time estimate) per parameter.
/// Running five of them — as the pre-`MultiEngine` pipeline did — parses
/// every frame five times. `FusedExtractor` keeps **one** timing history
/// and computes every parameter from it in one shot; a property test pins
/// its output to the five independent extractors, parameter by parameter.
///
/// Attribution rules are identical to [`ParameterExtractor`]: anonymous
/// frames (ACK, CTS) and filtered-out frames yield no observation but
/// still advance the previous-frame timestamp.
///
/// # Example
///
/// ```
/// use wifiprint_core::{FusedExtractor, NetworkParameter};
/// use wifiprint_radiotap::CapturedFrame;
/// use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
///
/// let sta = MacAddr::from_index(1);
/// let ap = MacAddr::from_index(9);
/// let mut ex = FusedExtractor::new();
///
/// let data = Frame::data_to_ds(sta, ap, ap, 100);
/// let f0 = CapturedFrame::from_frame(&data, Rate::R54M, Nanos::from_micros(1000), -40);
/// let f1 = CapturedFrame::from_frame(&data, Rate::R54M, Nanos::from_micros(1800), -40);
///
/// let first = ex.push(&f0).expect("known sender");
/// assert!(first.value(NetworkParameter::TransmissionRate).is_some());
/// assert!(first.value(NetworkParameter::InterArrivalTime).is_none()); // no history yet
/// let second = ex.push(&f1).expect("known sender");
/// assert_eq!(second.value(NetworkParameter::InterArrivalTime), Some(800.0));
/// ```
#[derive(Debug, Clone)]
pub struct FusedExtractor {
    estimator: TxTimeEstimator,
    filter: FrameFilter,
    prev_t_end: Option<Nanos>,
}

impl Default for FusedExtractor {
    fn default() -> Self {
        FusedExtractor::new()
    }
}

impl FusedExtractor {
    /// A fused extractor with the paper's defaults (size/rate
    /// transmission-time estimator, no frame filtering).
    pub fn new() -> Self {
        Self::with_options(TxTimeEstimator::SizeOverRate, FrameFilter::default())
    }

    /// A fused extractor with an explicit estimator and frame filter.
    ///
    /// The filter and estimator are shared by all five parameters — the
    /// point of fusing is that one decision per frame covers every
    /// projection of it.
    pub fn with_options(estimator: TxTimeEstimator, filter: FrameFilter) -> Self {
        FusedExtractor { estimator, filter, prev_t_end: None }
    }

    /// Processes the next captured frame, returning all computable
    /// parameter values when the frame has a known sender and passes the
    /// filter.
    pub fn push(&mut self, frame: &CapturedFrame) -> Option<FusedObservation> {
        let prev = self.prev_t_end.replace(frame.t_end);
        let sender = frame.transmitter?;
        if !self.filter.matches(frame) {
            return None;
        }
        // The shared quantities each single-parameter extractor would
        // re-derive: one transmission-time estimate, one predecessor gap.
        let tx_time = self.estimator.tx_time_micros(frame);
        let gap = prev.map(|p| micros_between(p, frame.t_end));
        let mut values = [None; NetworkParameter::COUNT];
        values[NetworkParameter::TransmissionRate.index()] = Some(frame.rate.mbps());
        values[NetworkParameter::FrameSize.index()] = Some(frame.size as f64);
        values[NetworkParameter::TransmissionTime.index()] = Some(tx_time);
        values[NetworkParameter::InterArrivalTime.index()] = gap;
        values[NetworkParameter::MediumAccessTime.index()] = gap.map(|g| g - tx_time);
        Some(FusedObservation { device: sender, kind: frame.kind, t_end: frame.t_end, values })
    }

    /// Forgets the previous-frame timestamp (e.g. at a capture gap, or at
    /// the training → detection hand-over where the single-parameter path
    /// starts a fresh extractor).
    pub fn reset_history(&mut self) {
        self.prev_t_end = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_ieee80211::{Frame, Rate};

    fn sta(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn data_frame(from: MacAddr, t_us: u64, size: usize, rate: Rate) -> CapturedFrame {
        let f = Frame::data_to_ds(from, sta(99), sta(99), size.saturating_sub(28));
        CapturedFrame::from_frame(&f, rate, Nanos::from_micros(t_us), -50)
    }

    #[test]
    fn figure_1_scenario() {
        // DATA(A) ACK DATA(A) ACK RTS(C) CTS — the paper's Fig. 1.
        let a = sta(1);
        let c = sta(3);
        let t = [1000u64, 1100, 1500, 1600, 2000, 2100];
        let f0 = data_frame(a, t[0], 500, Rate::R11M);
        let f1 = CapturedFrame::from_frame(&Frame::ack(a), Rate::R11M, Nanos::from_micros(t[1]), -50);
        let f2 = data_frame(a, t[2], 500, Rate::R11M);
        let f3 = CapturedFrame::from_frame(&Frame::ack(a), Rate::R11M, Nanos::from_micros(t[3]), -50);
        let f4 = CapturedFrame::from_frame(&Frame::rts(sta(9), c, 300), Rate::R2M, Nanos::from_micros(t[4]), -50);
        let f5 = CapturedFrame::from_frame(&Frame::cts(c, 200), Rate::R2M, Nanos::from_micros(t[5]), -50);

        let mut ex = ParameterExtractor::new(NetworkParameter::InterArrivalTime);
        let obs: Vec<_> = [&f0, &f1, &f2, &f3, &f4, &f5].into_iter().filter_map(|f| ex.push(f)).collect();

        // f0 has no predecessor; f1/f3/f5 are anonymous; so observations
        // come from f2 (A, vs ACK f1) and f4 (C, vs ACK f3).
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].device, a);
        assert_eq!(obs[0].value, (t[2] - t[1]) as f64);
        assert_eq!(obs[0].kind, FrameKind::Data);
        assert_eq!(obs[1].device, c);
        assert_eq!(obs[1].value, (t[4] - t[3]) as f64);
        assert_eq!(obs[1].kind, FrameKind::Rts);
    }

    #[test]
    fn rate_and_size_parameters() {
        let a = sta(1);
        let f = data_frame(a, 1000, 528, Rate::R5_5M);
        let mut rate_ex = ParameterExtractor::new(NetworkParameter::TransmissionRate);
        assert_eq!(rate_ex.push(&f).unwrap().value, 5.5);
        let mut size_ex = ParameterExtractor::new(NetworkParameter::FrameSize);
        assert_eq!(size_ex.push(&f).unwrap().value, f.size as f64);
    }

    #[test]
    fn transmission_time_uses_size_over_rate() {
        let a = sta(1);
        let f = data_frame(a, 1000, 528, Rate::R11M);
        let mut ex = ParameterExtractor::new(NetworkParameter::TransmissionTime);
        let obs = ex.push(&f).unwrap();
        assert!((obs.value - 8.0 * f.size as f64 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn medium_access_time_subtracts_tx_time() {
        let a = sta(1);
        let f0 = data_frame(a, 1000, 300, Rate::R54M);
        let f1 = data_frame(a, 1400, 300, Rate::R54M);
        let mut ex = ParameterExtractor::new(NetworkParameter::MediumAccessTime);
        assert!(ex.push(&f0).is_none()); // needs history
        let obs = ex.push(&f1).unwrap();
        let tt = 8.0 * f1.size as f64 / 54.0;
        assert!((obs.value - (400.0 - tt)).abs() < 1e-9);
    }

    #[test]
    fn measured_estimator_includes_plcp() {
        let a = sta(1);
        let f = data_frame(a, 1000, 300, Rate::R54M);
        let mut paper = ParameterExtractor::with_options(
            NetworkParameter::TransmissionTime,
            TxTimeEstimator::SizeOverRate,
            FrameFilter::default(),
        );
        let mut measured = ParameterExtractor::with_options(
            NetworkParameter::TransmissionTime,
            TxTimeEstimator::MeasuredAirTime,
            FrameFilter::default(),
        );
        let p = paper.push(&f).unwrap().value;
        let m = measured.push(&f).unwrap().value;
        assert!(m > p, "air time {m} must exceed size/rate {p} (PLCP overhead)");
    }

    #[test]
    fn filter_drops_but_advances_history() {
        let a = sta(1);
        let filter = FrameFilter { exclude_retries: true, ..FrameFilter::default() };
        let mut ex = ParameterExtractor::with_options(
            NetworkParameter::InterArrivalTime,
            TxTimeEstimator::SizeOverRate,
            filter,
        );
        let f0 = data_frame(a, 1000, 100, Rate::R54M);
        let mut retry = data_frame(a, 1500, 100, Rate::R54M);
        retry.retry = true;
        let f2 = data_frame(a, 2100, 100, Rate::R54M);
        assert!(ex.push(&f0).is_none());
        assert!(ex.push(&retry).is_none(), "retry filtered");
        let obs = ex.push(&f2).unwrap();
        // History advanced past the retry: 2100 - 1500, not 2100 - 1000.
        assert_eq!(obs.value, 600.0);
    }

    #[test]
    fn reset_history_clears_predecessor() {
        let a = sta(1);
        let mut ex = ParameterExtractor::new(NetworkParameter::InterArrivalTime);
        let f0 = data_frame(a, 1000, 100, Rate::R54M);
        let f1 = data_frame(a, 1200, 100, Rate::R54M);
        ex.push(&f0);
        ex.reset_history();
        assert!(ex.push(&f1).is_none());
    }

    #[test]
    fn labels_and_slugs_round_trip() {
        for p in NetworkParameter::ALL {
            assert_eq!(p.slug().parse::<NetworkParameter>().unwrap(), p);
            assert!(!p.label().is_empty());
        }
        assert!("bogus".parse::<NetworkParameter>().is_err());
    }

    #[test]
    fn parameter_indices_are_the_all_order() {
        for (i, p) in NetworkParameter::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn fused_extractor_matches_five_single_extractors_on_fig_1() {
        // The paper's Fig. 1 sequence again, this time checking that the
        // fused single-pass extraction projects to exactly what each
        // standalone extractor reports (the property test in
        // tests/proptests.rs covers arbitrary sequences).
        let a = sta(1);
        let c = sta(3);
        let frames = [
            data_frame(a, 1000, 500, Rate::R11M),
            CapturedFrame::from_frame(&Frame::ack(a), Rate::R11M, Nanos::from_micros(1100), -50),
            data_frame(a, 1500, 500, Rate::R11M),
            CapturedFrame::from_frame(&Frame::ack(a), Rate::R11M, Nanos::from_micros(1600), -50),
            CapturedFrame::from_frame(&Frame::rts(sta(9), c, 300), Rate::R2M, Nanos::from_micros(2000), -50),
            CapturedFrame::from_frame(&Frame::cts(c, 200), Rate::R2M, Nanos::from_micros(2100), -50),
        ];
        let mut fused = FusedExtractor::new();
        let mut singles: Vec<ParameterExtractor> =
            NetworkParameter::ALL.into_iter().map(ParameterExtractor::new).collect();
        for frame in &frames {
            let got = fused.push(frame);
            for (p, single) in NetworkParameter::ALL.into_iter().zip(&mut singles) {
                let want = single.push(frame);
                let projected = got.as_ref().and_then(|o| o.observation(p));
                assert_eq!(projected, want, "{p} diverged on frame {frame:?}");
            }
        }
    }

    #[test]
    fn fused_extractor_shares_the_filter_across_parameters() {
        let a = sta(1);
        let filter = FrameFilter { exclude_retries: true, ..FrameFilter::default() };
        let mut ex = FusedExtractor::with_options(TxTimeEstimator::SizeOverRate, filter);
        let f0 = data_frame(a, 1000, 100, Rate::R54M);
        let mut retry = data_frame(a, 1500, 100, Rate::R54M);
        retry.retry = true;
        let f2 = data_frame(a, 2100, 100, Rate::R54M);
        assert!(ex.push(&f0).is_some());
        assert!(ex.push(&retry).is_none(), "retry filtered for every parameter at once");
        let obs = ex.push(&f2).unwrap();
        // History advanced past the filtered retry, as in the single path.
        assert_eq!(obs.value(NetworkParameter::InterArrivalTime), Some(600.0));
    }

    #[test]
    fn fused_reset_history_clears_the_shared_predecessor() {
        let a = sta(1);
        let mut ex = FusedExtractor::new();
        ex.push(&data_frame(a, 1000, 100, Rate::R54M));
        ex.reset_history();
        let obs = ex.push(&data_frame(a, 1200, 100, Rate::R54M)).unwrap();
        assert_eq!(obs.value(NetworkParameter::InterArrivalTime), None);
        assert_eq!(obs.value(NetworkParameter::MediumAccessTime), None);
        assert!(obs.value(NetworkParameter::FrameSize).is_some());
    }
}
