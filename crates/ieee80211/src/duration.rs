//! NAV duration-field computation, including per-card quirk models.
//!
//! Cache (2006), cited by the paper as a passive fingerprinting source,
//! observed that *"each wireless card computes the duration field in a
//! slightly different way"*. This module provides a standard-conformant
//! computation plus a parameterised quirk model so simulated devices can
//! reproduce that behavioural diversity.

use crate::rate::Rate;
use crate::time::Nanos;
use crate::timing::{air_time, PhyTx, ACK_LEN, SIFS};

/// How a card computes the duration/ID (NAV) field of its data frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DurationModel {
    /// Standard-conformant: `SIFS + ACK at the highest basic rate ≤ data
    /// rate`, zero for group-addressed frames.
    #[default]
    Standard,
    /// Computes the ACK time at the *data* rate instead of the basic rate —
    /// a common firmware shortcut.
    AckAtDataRate,
    /// Standard value rounded up to a multiple of the given microsecond
    /// quantum (some cards round to 8 or 16 µs).
    RoundedUp(
        /// Rounding quantum in microseconds.
        u16,
    ),
    /// Adds a fixed pad (µs) to the standard value.
    Padded(
        /// Pad in microseconds.
        u16,
    ),
    /// Always writes the same constant (µs) regardless of rate — observed
    /// on some drivers.
    Constant(
        /// The constant value in microseconds.
        u16,
    ),
    /// Always writes zero, even for unicast frames.
    AlwaysZero,
}

impl DurationModel {
    /// Computes the duration field (µs) for a unicast data frame expecting
    /// an ACK, given the data `rate` and the set of `basic_rates` of the
    /// BSS.
    ///
    /// `broadcast` frames get 0 under the standard model (no ACK follows).
    #[must_use] 
    pub fn data_frame_duration(self, rate: Rate, basic_rates: &[Rate], broadcast: bool) -> u16 {
        if broadcast && !matches!(self, DurationModel::Constant(_)) {
            return 0;
        }
        let ack_rate = match self {
            DurationModel::AckAtDataRate => rate,
            _ => rate.clamp_to_set(basic_rates),
        };
        let standard = SIFS + air_time(PhyTx::erp_or_dsss(ack_rate), ACK_LEN);
        let us = standard.as_micros() as u16;
        match self {
            DurationModel::Standard | DurationModel::AckAtDataRate => us,
            DurationModel::RoundedUp(q) => {
                let q = q.max(1);
                us.div_ceil(q) * q
            }
            DurationModel::Padded(pad) => us.saturating_add(pad),
            DurationModel::Constant(v) => v,
            DurationModel::AlwaysZero => 0,
        }
    }

    /// Computes the duration field (µs) an RTS should carry: time for
    /// `CTS + data + ACK` plus three SIFS.
    #[must_use] 
    pub fn rts_duration(self, data_air: Nanos, ack_rate: Rate) -> u16 {
        let cts = air_time(PhyTx::erp_or_dsss(ack_rate), ACK_LEN);
        let ack = cts;
        let total = SIFS * 3 + cts + data_air + ack;
        let us = total.as_micros().min(32767) as u16;
        match self {
            DurationModel::RoundedUp(q) => {
                let q = q.max(1);
                us.div_ceil(q) * q
            }
            DurationModel::Padded(pad) => us.saturating_add(pad),
            DurationModel::Constant(v) => v,
            DurationModel::AlwaysZero => 0,
            _ => us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASIC: [Rate; 4] = [Rate::R1M, Rate::R2M, Rate::R5_5M, Rate::R11M];

    #[test]
    fn standard_unicast_duration() {
        // Data at 11 Mb/s, basic rates b-only: ACK at 11 Mb/s CCK long
        // preamble = 192 + ceil(112/11) µs ≈ 203 µs; + SIFS = 213 µs.
        let d = DurationModel::Standard.data_frame_duration(Rate::R11M, &BASIC, false);
        let ack = air_time(PhyTx::dsss_long(Rate::R11M), ACK_LEN);
        assert_eq!(u64::from(d), (SIFS + ack).as_micros());
    }

    #[test]
    fn broadcast_is_zero() {
        for model in [
            DurationModel::Standard,
            DurationModel::AckAtDataRate,
            DurationModel::RoundedUp(16),
            DurationModel::Padded(4),
            DurationModel::AlwaysZero,
        ] {
            assert_eq!(model.data_frame_duration(Rate::R54M, &BASIC, true), 0, "{model:?}");
        }
    }

    #[test]
    fn quirks_differ_from_standard() {
        let std_d = DurationModel::Standard.data_frame_duration(Rate::R54M, &BASIC, false);
        let data_rate = DurationModel::AckAtDataRate.data_frame_duration(Rate::R54M, &BASIC, false);
        // ACK at 54 Mb/s OFDM is much shorter than at 11 Mb/s CCK.
        assert!(data_rate < std_d);
        let rounded = DurationModel::RoundedUp(16).data_frame_duration(Rate::R54M, &BASIC, false);
        assert_eq!(rounded % 16, 0);
        assert!(rounded >= std_d);
        let padded = DurationModel::Padded(7).data_frame_duration(Rate::R54M, &BASIC, false);
        assert_eq!(padded, std_d + 7);
        assert_eq!(
            DurationModel::Constant(314).data_frame_duration(Rate::R54M, &BASIC, false),
            314
        );
        assert_eq!(DurationModel::AlwaysZero.data_frame_duration(Rate::R54M, &BASIC, false), 0);
    }

    #[test]
    fn rts_duration_covers_exchange() {
        let data_air = air_time(PhyTx::erp_ofdm(Rate::R54M), 1500);
        let d = DurationModel::Standard.rts_duration(data_air, Rate::R11M);
        let cts_ack = air_time(PhyTx::dsss_long(Rate::R11M), ACK_LEN);
        let expected = (SIFS * 3 + cts_ack * 2 + data_air).as_micros() as u16;
        assert_eq!(d, expected);
        assert!(d > data_air.as_micros() as u16);
    }

    #[test]
    fn rts_quirks() {
        let data_air = air_time(PhyTx::erp_ofdm(Rate::R24M), 500);
        let base = DurationModel::Standard.rts_duration(data_air, Rate::R2M);
        assert_eq!(DurationModel::AlwaysZero.rts_duration(data_air, Rate::R2M), 0);
        assert_eq!(DurationModel::Padded(3).rts_duration(data_air, Rate::R2M), base + 3);
        let r = DurationModel::RoundedUp(8).rts_duration(data_air, Rate::R2M);
        assert_eq!(r % 8, 0);
    }
}
