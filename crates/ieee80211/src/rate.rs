//! Transmission rates for 802.11b/g.

use core::fmt;

/// The modulation family a rate belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Direct-sequence spread spectrum (1, 2 Mb/s) and CCK (5.5, 11 Mb/s).
    Dsss,
    /// ERP-OFDM (6–54 Mb/s), i.e. 802.11g rates in the 2.4 GHz band.
    Ofdm,
}

/// A PHY transmission rate in units of 500 kb/s, as reported by Radiotap.
///
/// The constants cover the complete 802.11b/g rate set the paper's traces
/// contain (`1, 2, 5.5, 11, 6, 9, 12, 18, 24, 36, 48, 54` Mb/s).
///
/// # Example
///
/// ```
/// use wifiprint_ieee80211::{Modulation, Rate};
///
/// assert_eq!(Rate::R54M.mbps(), 54.0);
/// assert_eq!(Rate::R5_5M.to_raw(), 11);
/// assert_eq!(Rate::R11M.modulation(), Modulation::Dsss);
/// assert_eq!(Rate::R6M.modulation(), Modulation::Ofdm);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rate(u8);

impl Rate {
    /// 1 Mb/s DSSS — the lowest, most robust rate.
    pub const R1M: Rate = Rate(2);
    /// 2 Mb/s DSSS.
    pub const R2M: Rate = Rate(4);
    /// 5.5 Mb/s CCK.
    pub const R5_5M: Rate = Rate(11);
    /// 11 Mb/s CCK.
    pub const R11M: Rate = Rate(22);
    /// 6 Mb/s ERP-OFDM.
    pub const R6M: Rate = Rate(12);
    /// 9 Mb/s ERP-OFDM.
    pub const R9M: Rate = Rate(18);
    /// 12 Mb/s ERP-OFDM.
    pub const R12M: Rate = Rate(24);
    /// 18 Mb/s ERP-OFDM.
    pub const R18M: Rate = Rate(36);
    /// 24 Mb/s ERP-OFDM.
    pub const R24M: Rate = Rate(48);
    /// 36 Mb/s ERP-OFDM.
    pub const R36M: Rate = Rate(72);
    /// 48 Mb/s ERP-OFDM.
    pub const R48M: Rate = Rate(96);
    /// 54 Mb/s ERP-OFDM — the highest 802.11g rate.
    pub const R54M: Rate = Rate(108);

    /// The full 802.11b/g rate set in increasing speed order.
    pub const ALL_BG: [Rate; 12] = [
        Rate::R1M,
        Rate::R2M,
        Rate::R5_5M,
        Rate::R6M,
        Rate::R9M,
        Rate::R11M,
        Rate::R12M,
        Rate::R18M,
        Rate::R24M,
        Rate::R36M,
        Rate::R48M,
        Rate::R54M,
    ];

    /// The 802.11b-only rate set.
    pub const ALL_B: [Rate; 4] = [Rate::R1M, Rate::R2M, Rate::R5_5M, Rate::R11M];

    /// The ERP-OFDM (802.11g) rate set.
    pub const ALL_G: [Rate; 8] = [
        Rate::R6M,
        Rate::R9M,
        Rate::R12M,
        Rate::R18M,
        Rate::R24M,
        Rate::R36M,
        Rate::R48M,
        Rate::R54M,
    ];

    /// Creates a rate from a raw Radiotap value (units of 500 kb/s).
    ///
    /// Returns `None` for zero, which Radiotap uses for "unknown".
    #[inline]
    #[must_use] 
    pub const fn from_raw(half_mbps: u8) -> Option<Rate> {
        if half_mbps == 0 {
            None
        } else {
            Some(Rate(half_mbps))
        }
    }

    /// The raw Radiotap encoding (units of 500 kb/s).
    #[inline]
    #[must_use] 
    pub const fn to_raw(self) -> u8 {
        self.0
    }

    /// The rate in megabits per second.
    #[inline]
    #[must_use] 
    pub fn mbps(self) -> f64 {
        f64::from(self.0) / 2.0
    }

    /// Which modulation family this rate uses.
    ///
    /// Note 11 Mb/s (raw 22) is CCK while 12 Mb/s (raw 24) is OFDM.
    #[must_use] 
    pub const fn modulation(self) -> Modulation {
        match self.0 {
            2 | 4 | 11 | 22 => Modulation::Dsss,
            _ => Modulation::Ofdm,
        }
    }

    /// Data bits per 4 µs OFDM symbol. Zero for DSSS/CCK rates.
    ///
    /// For any OFDM rate — standard or not — this is `raw × 2`
    /// (`Mb/s × 4 µs`); computing it instead of table-lookup keeps
    /// nonstandard rates from corrupt capture headers out of the
    /// divide-by-zero path in `air_time`.
    #[must_use] 
    pub const fn bits_per_ofdm_symbol(self) -> u32 {
        match self.modulation() {
            Modulation::Dsss => 0,
            Modulation::Ofdm => self.0 as u32 * 2,
        }
    }

    /// The highest standard rate less than or equal to `self` in the given
    /// set, falling back to the set's lowest rate.
    #[must_use] 
    pub fn clamp_to_set(self, set: &[Rate]) -> Rate {
        let mut best: Option<Rate> = None;
        for &r in set {
            if r <= self && best.is_none_or(|b| r > b) {
                best = Some(r);
            }
        }
        best.or_else(|| set.iter().min().copied()).unwrap_or(self)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.mbps();
        if m.fract() == 0.0 {
            write!(f, "{}Mbps", m as u64)
        } else {
            write!(f, "{m}Mbps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_round_trip() {
        for r in Rate::ALL_BG {
            assert_eq!(Rate::from_raw(r.to_raw()), Some(r));
        }
        assert_eq!(Rate::from_raw(0), None);
    }

    #[test]
    fn mbps_values() {
        assert_eq!(Rate::R1M.mbps(), 1.0);
        assert_eq!(Rate::R5_5M.mbps(), 5.5);
        assert_eq!(Rate::R54M.mbps(), 54.0);
    }

    #[test]
    fn modulation_split() {
        for r in Rate::ALL_B {
            assert_eq!(r.modulation(), Modulation::Dsss);
        }
        for r in Rate::ALL_G {
            assert_eq!(r.modulation(), Modulation::Ofdm);
            assert!(r.bits_per_ofdm_symbol() > 0);
        }
        assert_eq!(Rate::R11M.bits_per_ofdm_symbol(), 0);
    }

    #[test]
    fn ofdm_symbol_bits() {
        assert_eq!(Rate::R6M.bits_per_ofdm_symbol(), 24);
        assert_eq!(Rate::R54M.bits_per_ofdm_symbol(), 216);
    }

    #[test]
    fn ordering_follows_speed() {
        let mut sorted = Rate::ALL_BG.to_vec();
        sorted.sort();
        let mbps: Vec<f64> = sorted.iter().map(|r| r.mbps()).collect();
        for pair in mbps.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn clamp_to_set() {
        assert_eq!(Rate::R54M.clamp_to_set(&Rate::ALL_B), Rate::R11M);
        assert_eq!(Rate::R9M.clamp_to_set(&Rate::ALL_B), Rate::R5_5M);
        assert_eq!(Rate::R1M.clamp_to_set(&Rate::ALL_G), Rate::R6M);
        assert_eq!(Rate::R24M.clamp_to_set(&Rate::ALL_BG), Rate::R24M);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Rate::R5_5M.to_string(), "5.5Mbps");
        assert_eq!(Rate::R54M.to_string(), "54Mbps");
    }
}
