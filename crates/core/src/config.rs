//! Evaluation configuration: bin specs, filters, estimators and the
//! paper's default settings.

use std::sync::Arc;

use wifiprint_ieee80211::{FrameKind, Nanos, Rate};
use wifiprint_radiotap::CapturedFrame;

use crate::error::CoreError;
use crate::histogram::BinSpec;
use crate::params::NetworkParameter;

/// How the transmission time `ttᵢ` is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TxTimeEstimator {
    /// The paper's estimator: `ttᵢ = sizeᵢ / rateᵢ` from header fields
    /// only (ignores PLCP overhead).
    #[default]
    SizeOverRate,
    /// The actual air time including PLCP preamble/header — an ablation
    /// showing how much the cheap estimator costs.
    MeasuredAirTime,
}

impl TxTimeEstimator {
    /// The transmission-time estimate for a frame, in microseconds.
    pub fn tx_time_micros(self, frame: &CapturedFrame) -> f64 {
        match self {
            TxTimeEstimator::SizeOverRate => 8.0 * frame.size as f64 / frame.rate.mbps(),
            TxTimeEstimator::MeasuredAirTime => frame.air_time.as_micros_f64(),
        }
    }
}

/// Selects which frames contribute observations (used by the §VI figure
/// experiments, e.g. "only data frames at 54 Mb/s, no retries").
///
/// Filtered-out frames still advance the extractor's previous-frame
/// timestamp — they occupied the medium.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameFilter {
    /// Keep only these frame kinds (all kinds when `None`).
    pub kinds: Option<Vec<FrameKind>>,
    /// Keep only frames at this rate.
    pub rate: Option<Rate>,
    /// Drop retransmissions (Frame Control retry bit).
    pub exclude_retries: bool,
    /// Keep only frames whose logical destination is group-addressed
    /// (Fig. 7's "data broadcast frames").
    pub broadcast_only: bool,
}

impl FrameFilter {
    /// A filter keeping only the given kinds.
    pub fn kinds_only(kinds: impl IntoIterator<Item = FrameKind>) -> Self {
        FrameFilter { kinds: Some(kinds.into_iter().collect()), ..FrameFilter::default() }
    }

    /// `true` if the frame passes the filter.
    pub fn matches(&self, frame: &CapturedFrame) -> bool {
        if let Some(kinds) = &self.kinds {
            if !kinds.contains(&frame.kind) {
                return false;
            }
        }
        if let Some(rate) = self.rate {
            if frame.rate != rate {
                return false;
            }
        }
        if self.exclude_retries && frame.retry {
            return false;
        }
        if self.broadcast_only && !frame.is_group_destined() {
            return false;
        }
        true
    }
}

/// The default histogram bins for each parameter.
///
/// The paper does not specify bin widths; these defaults are chosen to
/// match its figures (inter-arrival histograms plotted over 0–2500 µs,
/// Fig. 2/7/8) and to keep every histogram around 100–150 bins.
pub fn default_bins(param: NetworkParameter) -> BinSpec {
    match param {
        NetworkParameter::TransmissionRate => BinSpec::Categorical {
            centers: Rate::ALL_BG.iter().map(|r| r.mbps()).collect(),
        },
        NetworkParameter::FrameSize => BinSpec::uniform_to(2400.0, 16.0),
        NetworkParameter::TransmissionTime => BinSpec::uniform_to(2000.0, 10.0),
        // 10 µs bins expose the slot comb (20 µs) and the sub-slot
        // implementation quirks of §VI-A that coarser bins would smear.
        NetworkParameter::MediumAccessTime | NetworkParameter::InterArrivalTime => {
            BinSpec::uniform_to(2500.0, 10.0)
        }
    }
}

/// Complete configuration of a fingerprinting evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// The network parameter under evaluation.
    pub parameter: NetworkParameter,
    /// Histogram bins for that parameter, shared by every histogram
    /// recorded with this configuration.
    pub bins: Arc<BinSpec>,
    /// Minimum observations per signature (the paper uses 50, §V-C).
    pub min_observations: u64,
    /// Transmission-time estimator.
    pub estimator: TxTimeEstimator,
    /// Frame filter applied during extraction.
    pub filter: FrameFilter,
    /// Detection window length (the paper uses 5 minutes, §I/§V-A).
    pub window: Nanos,
}

impl EvalConfig {
    /// The paper's configuration for a given parameter: default bins,
    /// 50-observation minimum, 5-minute windows.
    pub fn for_parameter(parameter: NetworkParameter) -> Self {
        EvalConfig {
            parameter,
            bins: Arc::new(default_bins(parameter)),
            min_observations: 50,
            estimator: TxTimeEstimator::SizeOverRate,
            filter: FrameFilter::default(),
            window: Nanos::from_secs(300),
        }
    }

    /// Returns a copy with a different frame filter.
    #[must_use]
    pub fn with_filter(mut self, filter: FrameFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Returns a copy with a different minimum observation count.
    #[must_use]
    pub fn with_min_observations(mut self, min: u64) -> Self {
        self.min_observations = min;
        self
    }

    /// Returns a copy with different histogram bins.
    #[must_use]
    pub fn with_bins(mut self, bins: BinSpec) -> Self {
        self.bins = Arc::new(bins);
        self
    }

    /// Checks that the configuration can drive an evaluation at all.
    /// The [`engine`](crate::engine) builder calls this before starting
    /// a session.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for a zero-length detection window
    /// or an empty bin specification.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.window == Nanos::ZERO {
            return Err(CoreError::InvalidConfig { reason: "zero-length detection window" });
        }
        if self.bins.bin_count() == 0 {
            return Err(CoreError::InvalidConfig { reason: "empty histogram bin specification" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiprint_ieee80211::{Frame, MacAddr};

    fn cap(kind_frame: &Frame, rate: Rate, retry: bool) -> CapturedFrame {
        let mut c = CapturedFrame::from_frame(kind_frame, rate, Nanos::from_micros(100), -50);
        c.retry = retry;
        c
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime);
        assert_eq!(cfg.min_observations, 50);
        assert_eq!(cfg.window, Nanos::from_secs(300));
        assert_eq!(cfg.estimator, TxTimeEstimator::SizeOverRate);
    }

    #[test]
    fn default_bins_cover_all_parameters() {
        for p in NetworkParameter::ALL {
            let bins = default_bins(p);
            assert!(bins.bin_count() > 1, "{p}");
        }
        // The rate parameter is categorical over the 12 b/g rates.
        match default_bins(NetworkParameter::TransmissionRate) {
            BinSpec::Categorical { centers } => assert_eq!(centers.len(), 12),
            other @ BinSpec::Uniform { .. } => panic!("expected categorical bins, got {other:?}"),
        }
    }

    #[test]
    fn filter_combinations() {
        let sta = MacAddr::from_index(1);
        let ap = MacAddr::from_index(2);
        let data = Frame::data_to_ds(sta, ap, ap, 100);
        let bcast = Frame::data_from_ds(MacAddr::BROADCAST, ap, sta, 100);

        let all = FrameFilter::default();
        assert!(all.matches(&cap(&data, Rate::R54M, false)));

        let kinds = FrameFilter::kinds_only([FrameKind::NullFunction]);
        assert!(!kinds.matches(&cap(&data, Rate::R54M, false)));

        let rate = FrameFilter { rate: Some(Rate::R54M), ..FrameFilter::default() };
        assert!(rate.matches(&cap(&data, Rate::R54M, false)));
        assert!(!rate.matches(&cap(&data, Rate::R11M, false)));

        let no_retry = FrameFilter { exclude_retries: true, ..FrameFilter::default() };
        assert!(!no_retry.matches(&cap(&data, Rate::R54M, true)));

        let bc = FrameFilter { broadcast_only: true, ..FrameFilter::default() };
        assert!(bc.matches(&cap(&bcast, Rate::R1M, false)));
        assert!(!bc.matches(&cap(&data, Rate::R1M, false)));
    }

    #[test]
    fn estimators_differ_by_plcp() {
        let sta = MacAddr::from_index(1);
        let f = Frame::data_to_ds(sta, sta, sta, 1000);
        let c = CapturedFrame::from_frame(&f, Rate::R11M, Nanos::from_micros(5000), -50);
        let paper = TxTimeEstimator::SizeOverRate.tx_time_micros(&c);
        let real = TxTimeEstimator::MeasuredAirTime.tx_time_micros(&c);
        // The paper's ttᵢ = sizeᵢ / rateᵢ: bits over Mb/s gives µs.
        assert_eq!(paper, 8.0 * 1028.0 / 11.0);
        assert!((real - paper - 192.0).abs() < 1.0, "long DSSS preamble is 192 µs");
    }

    #[test]
    fn validate_rejects_unusable_configs() {
        let good = EvalConfig::for_parameter(NetworkParameter::FrameSize);
        assert!(good.validate().is_ok());
        let mut zero_window = good.clone();
        zero_window.window = Nanos::ZERO;
        assert!(zero_window.validate().is_err());
        let no_bins = good.with_bins(BinSpec::Categorical { centers: vec![] });
        assert!(no_bins.validate().is_err());
    }

    #[test]
    fn builder_style_updates() {
        let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize)
            .with_min_observations(10)
            .with_bins(BinSpec::uniform_to(100.0, 10.0))
            .with_filter(FrameFilter { broadcast_only: true, ..FrameFilter::default() });
        assert_eq!(cfg.min_observations, 10);
        assert!(cfg.filter.broadcast_only);
    }
}
