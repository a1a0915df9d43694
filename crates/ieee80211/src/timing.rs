//! PHY and MAC timing: slot times, interframe spaces, contention windows
//! and frame air-time computation for 802.11b/g.
//!
//! All quantities are expressed as [`Nanos`]. The numbers follow IEEE
//! 802.11-2007 clauses 17 (ERP) and 18 (HR/DSSS).

use crate::rate::{Modulation, Rate};
use crate::time::Nanos;

/// Preamble length used by DSSS/CCK transmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Preamble {
    /// 144-bit preamble + 48-bit PLCP header, all at 1 Mb/s (192 µs).
    #[default]
    Long,
    /// 72-bit preamble at 1 Mb/s + PLCP header at 2 Mb/s (96 µs total).
    Short,
}

/// The slot-time regime of the BSS.
///
/// 802.11b and mixed b/g networks use 20 µs slots; g-only networks may use
/// the optional 9 µs short slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SlotTime {
    /// 20 µs (802.11b, and 802.11g protection mode).
    #[default]
    Long,
    /// 9 µs (802.11g-only BSS).
    Short,
}

impl SlotTime {
    /// The slot duration.
    #[inline]
    #[must_use] 
    pub const fn duration(self) -> Nanos {
        match self {
            SlotTime::Long => Nanos::from_micros(20),
            SlotTime::Short => Nanos::from_micros(9),
        }
    }
}

/// Short interframe space (both DSSS and ERP in 2.4 GHz): 10 µs.
pub const SIFS: Nanos = Nanos::from_micros(10);

/// ERP "signal extension" appended after OFDM transmissions in 2.4 GHz: 6 µs.
pub const SIGNAL_EXTENSION: Nanos = Nanos::from_micros(6);

/// OFDM PLCP preamble (16 µs) + SIGNAL field (4 µs).
pub const OFDM_PLCP: Nanos = Nanos::from_micros(20);

/// OFDM symbol duration: 4 µs.
pub const OFDM_SYMBOL: Nanos = Nanos::from_micros(4);

/// Long DSSS PLCP preamble + header: 192 µs.
pub const DSSS_LONG_PLCP: Nanos = Nanos::from_micros(192);

/// Short DSSS PLCP preamble + header: 96 µs.
pub const DSSS_SHORT_PLCP: Nanos = Nanos::from_micros(96);

/// Default minimum contention window for DSSS (802.11b): 31 slots.
pub const CW_MIN_DSSS: u32 = 31;

/// Default minimum contention window for ERP-OFDM (802.11g): 15 slots.
pub const CW_MIN_OFDM: u32 = 15;

/// Maximum contention window: 1023 slots.
pub const CW_MAX: u32 = 1023;

/// DCF interframe space: `SIFS + 2 × slot`.
#[inline]
#[must_use] 
pub const fn difs(slot: SlotTime) -> Nanos {
    Nanos::from_nanos(SIFS.as_nanos() + 2 * slot.duration().as_nanos())
}

/// Extended interframe space used after a reception error:
/// `SIFS + DIFS + ACK-time at the lowest basic rate`.
#[inline]
#[must_use] 
pub fn eifs(slot: SlotTime, lowest_basic: Rate, preamble: Preamble) -> Nanos {
    let ack_time = air_time(PhyTx::new(lowest_basic, preamble), ACK_LEN);
    SIFS + difs(slot) + ack_time
}

/// Length in bytes (incl. FCS) of an ACK or CTS frame.
pub const ACK_LEN: usize = 14;
/// Length in bytes (incl. FCS) of an RTS frame.
pub const RTS_LEN: usize = 20;

/// Everything the PHY needs to know to time one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhyTx {
    /// Data rate of the PSDU.
    pub rate: Rate,
    /// DSSS preamble length (ignored for OFDM rates).
    pub preamble: Preamble,
    /// Whether to append the 6 µs ERP signal extension after OFDM frames.
    pub signal_extension: bool,
}

impl PhyTx {
    /// A transmission at `rate` with the given DSSS preamble and the ERP
    /// signal extension enabled for OFDM rates.
    #[must_use] 
    pub const fn new(rate: Rate, preamble: Preamble) -> Self {
        PhyTx { rate, preamble, signal_extension: true }
    }

    /// An ERP-OFDM transmission (802.11g) with signal extension.
    #[must_use] 
    pub const fn erp_ofdm(rate: Rate) -> Self {
        PhyTx { rate, preamble: Preamble::Long, signal_extension: true }
    }

    /// A DSSS/CCK transmission with a long preamble.
    #[must_use] 
    pub const fn dsss_long(rate: Rate) -> Self {
        PhyTx { rate, preamble: Preamble::Long, signal_extension: false }
    }

    /// A DSSS/CCK transmission with a short preamble.
    #[must_use] 
    pub const fn dsss_short(rate: Rate) -> Self {
        PhyTx { rate, preamble: Preamble::Short, signal_extension: false }
    }

    /// Chooses ERP-OFDM or long-preamble DSSS timing automatically from the
    /// rate's modulation family — the common case for control responses.
    #[must_use] 
    pub const fn erp_or_dsss(rate: Rate) -> PhyTx {
        match rate.modulation() {
            Modulation::Ofdm => PhyTx::erp_ofdm(rate),
            Modulation::Dsss => PhyTx::dsss_long(rate),
        }
    }
}

/// Computes the time a frame of `len` bytes (including FCS) occupies the
/// medium when sent with PHY parameters `tx`.
///
/// For DSSS/CCK: `PLCP + ⌈8·len / rate⌉`. For ERP-OFDM:
/// `20 µs PLCP + 4 µs × ⌈(16 + 6 + 8·len) / bits-per-symbol⌉`, plus the 6 µs
/// signal extension when enabled.
///
/// # Example
///
/// ```
/// use wifiprint_ieee80211::{Rate, timing::{air_time, PhyTx}};
///
/// // A 1534-byte frame at 54 Mb/s: 20 + 4*ceil(12294/216) + 6 = 254 µs.
/// let t = air_time(PhyTx::erp_ofdm(Rate::R54M), 1534);
/// assert_eq!(t.as_micros(), 254);
///
/// // An ACK at 1 Mb/s long preamble: 192 + 112 = 304 µs.
/// let t = air_time(PhyTx::dsss_long(Rate::R1M), 14);
/// assert_eq!(t.as_micros(), 304);
/// ```
#[inline]
#[must_use] 
pub fn air_time(tx: PhyTx, len: usize) -> Nanos {
    let bits = 8 * len as u64;
    match tx.rate.modulation() {
        Modulation::Dsss => {
            let plcp = match tx.preamble {
                Preamble::Long => DSSS_LONG_PLCP,
                Preamble::Short => DSSS_SHORT_PLCP,
            };
            // Payload time: bits / (Mb/s) microseconds, rounded up to the
            // nearest microsecond (symbol granularity of 1 µs at 1 Mb/s is
            // the coarsest case; CCK uses 8-bit symbols but sub-µs detail
            // is below Radiotap's timestamp resolution anyway).
            let ns = (bits as f64 * 1000.0 / tx.rate.mbps()).ceil() as u64;
            plcp + Nanos::from_nanos(ns)
        }
        Modulation::Ofdm => {
            // 16 service bits + 6 tail bits + payload, in 4 µs symbols.
            // `.max(1)` guards the unreachable-but-fatal zero-width
            // symbol (a `Rate` of 0 cannot come out of the header
            // decoders, but a division by zero must not be possible).
            let n_dbps = u64::from(tx.rate.bits_per_ofdm_symbol().max(1));
            let total = 16 + 6 + bits;
            // Spelling out the standard divisors lets the compiler
            // strength-reduce each to a multiply — replay decodes
            // millions of frames per second, and a hardware divide per
            // frame is the single costliest instruction on that path.
            let symbols = match n_dbps {
                24 => total.div_ceil(24),
                36 => total.div_ceil(36),
                48 => total.div_ceil(48),
                72 => total.div_ceil(72),
                96 => total.div_ceil(96),
                144 => total.div_ceil(144),
                192 => total.div_ceil(192),
                216 => total.div_ceil(216),
                d => total.div_ceil(d),
            };
            let ext = if tx.signal_extension { SIGNAL_EXTENSION } else { Nanos::ZERO };
            OFDM_PLCP + OFDM_SYMBOL * symbols + ext
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_and_ifs_values() {
        assert_eq!(SlotTime::Long.duration().as_micros(), 20);
        assert_eq!(SlotTime::Short.duration().as_micros(), 9);
        assert_eq!(difs(SlotTime::Long).as_micros(), 50);
        assert_eq!(difs(SlotTime::Short).as_micros(), 28);
    }

    #[test]
    fn ofdm_air_time_formula() {
        // 100 bytes at 6 Mb/s: symbols = ceil((16+6+800)/24) = 35
        // => 20 + 140 + 6 = 166 µs.
        let t = air_time(PhyTx::erp_ofdm(Rate::R6M), 100);
        assert_eq!(t.as_micros(), 166);
        // Without signal extension: 160 µs.
        let mut tx = PhyTx::erp_ofdm(Rate::R6M);
        tx.signal_extension = false;
        assert_eq!(air_time(tx, 100).as_micros(), 160);
    }

    #[test]
    fn dsss_air_time_formula() {
        // 1000 bytes at 11 Mb/s CCK, long preamble:
        // 192 + ceil(8000/11) = 192 + 727.27->728 ... computed in ns.
        let t = air_time(PhyTx::dsss_long(Rate::R11M), 1000);
        let expected_payload_ns = (8000.0f64 * 1000.0 / 11.0).ceil() as u64;
        assert_eq!(t.as_nanos(), 192_000 + expected_payload_ns);
        // Short preamble saves 96 µs exactly.
        let ts = air_time(PhyTx::dsss_short(Rate::R11M), 1000);
        assert_eq!(t - ts, Nanos::from_micros(96));
    }

    #[test]
    fn air_time_monotonic_in_size() {
        for rate in Rate::ALL_BG {
            let tx = PhyTx::new(rate, Preamble::Long);
            let mut last = Nanos::ZERO;
            for len in [14, 100, 500, 1500, 2346] {
                let t = air_time(tx, len);
                assert!(t >= last, "rate {rate} len {len}");
                last = t;
            }
        }
    }

    #[test]
    fn air_time_antitone_in_rate_within_family() {
        // More speed, less air time, same family and size.
        let ofdm: Vec<Nanos> =
            Rate::ALL_G.iter().map(|&r| air_time(PhyTx::erp_ofdm(r), 1500)).collect();
        for pair in ofdm.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        let dsss: Vec<Nanos> =
            Rate::ALL_B.iter().map(|&r| air_time(PhyTx::dsss_long(r), 1500)).collect();
        for pair in dsss.windows(2) {
            assert!(pair[0] > pair[1]);
        }
    }

    #[test]
    fn eifs_exceeds_difs() {
        let e = eifs(SlotTime::Long, Rate::R1M, Preamble::Long);
        assert!(e > difs(SlotTime::Long));
        // SIFS + DIFS + 304 µs ACK = 10 + 50 + 304 = 364 µs.
        assert_eq!(e.as_micros(), 364);
    }
}
