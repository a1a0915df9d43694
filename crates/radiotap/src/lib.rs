//! Radiotap and Prism capture-header codecs for the wifiprint suite.
//!
//! A passive 802.11 monitor receives each frame prefixed with a
//! driver-generated metadata header. The paper's method reads **only** this
//! metadata (plus MAC addresses/types): reception timestamp, rate, size and
//! channel. Two header formats were in common use at the time and both are
//! supported here:
//!
//! * **Radiotap** — the de-facto standard, a TLV-ish format with a
//!   presence bitmap and naturally-aligned fields,
//! * **Prism** — the older fixed-size 144-byte wlan-ng header.
//!
//! The unified [`RxInfo`] type carries the monitor-side metadata, and its
//! [`to_radiotap`](RxInfo::to_radiotap) / [`from_radiotap`](RxInfo::from_radiotap)
//! and [`to_prism`](RxInfo::to_prism) / [`from_prism`](RxInfo::from_prism)
//! methods are the one public name of each header codec operation.
//!
//! # Example
//!
//! ```
//! use wifiprint_radiotap::{RxInfo, RxFlags};
//! use wifiprint_ieee80211::Rate;
//!
//! let info = RxInfo {
//!     tsft_us: Some(1_000_042),
//!     rate: Some(Rate::R54M),
//!     channel_mhz: Some(2437),
//!     signal_dbm: Some(-47),
//!     noise_dbm: Some(-95),
//!     antenna: Some(0),
//!     flags: RxFlags::FCS_INCLUDED,
//! };
//! let header = info.to_radiotap();
//! let (parsed, hdr_len) = RxInfo::from_radiotap(&header)?;
//! assert_eq!(hdr_len, header.len());
//! assert_eq!(parsed, info);
//! # Ok::<(), wifiprint_radiotap::HeaderError>(())
//! ```
//!
//! # Real-capture replay
//!
//! [`CapturedFrame`] is the interchange type between raw capture bytes and
//! the fingerprinting engines, and its packet decoders are the zero-copy
//! hot path of that pipeline: [`CapturedFrame::from_radiotap_packet`] and
//! the `_counted` decoders read a whole monitor-mode packet (capture
//! header + 802.11 frame) through the borrowed
//! [`WireFrame`](wifiprint_ieee80211::WireFrame) view — pure header
//! arithmetic over the input slice, no frame body copy, no heap
//! allocation. Every decoder ends in [`CapturedFrame::from_decoded`], the
//! one place where missing metadata (rate, signal, TSFT) falls back to
//! defaults; the `_counted` variants report which fields were defaulted
//! ([`DefaultedFields`]) so a replay can account for capture quality. The
//! `wifiprint-pcap` crate's `Replay` drives whole capture files through
//! these decoders into an engine; see its "Real-capture replay" docs for
//! the end-to-end example.
//!
//! ```
//! use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
//! use wifiprint_radiotap::{CapturedFrame, RxFlags, RxInfo};
//!
//! # fn main() -> Result<(), wifiprint_radiotap::DecodeError> {
//! let sta = MacAddr::from_index(1);
//! let ap = MacAddr::from_index(2);
//! let info = RxInfo {
//!     tsft_us: Some(1_000),
//!     rate: Some(Rate::R54M),
//!     signal_dbm: Some(-47),
//!     flags: RxFlags::FCS_INCLUDED,
//!     ..RxInfo::default()
//! };
//! let mut packet = info.to_radiotap();
//! packet.extend_from_slice(&Frame::data_to_ds(sta, ap, ap, 100).to_bytes());
//!
//! let frame = CapturedFrame::from_radiotap_packet(&packet, Nanos::ZERO)?;
//! assert_eq!(frame.transmitter, Some(sta));
//! assert_eq!(frame.rate, Rate::R54M);
//! assert_eq!(frame.signal_dbm, -47);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::pedantic)]
// Pedantic lints this crate opts out of, mirroring wifiprint-core:
#![allow(
    // Header codecs narrow into fixed-width wire fields and reinterpret
    // sign bytes (dBm values travel as raw u8) by design.
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    // The flagged `expect`s are fixed-size slice conversions
    // (`[u8; N]` from a length-checked slice) that cannot fail.
    clippy::missing_panics_doc,
    // Getter-heavy API: #[must_use] on every accessor is noise.
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    // Public items are re-exported from the crate root, so
    // module-qualified names repeat the module name.
    clippy::module_name_repetitions,
    // Capture-format jargon (wlan-ng, TSFT, …) trips the identifier
    // heuristic on prose that is not code.
    clippy::doc_markdown
)]

mod captured;
mod prism;
mod radiotap;

use core::fmt;

use wifiprint_ieee80211::Rate;

pub use captured::{CapturedFrame, DecodeError, DefaultedFields};

/// Flags describing how a frame was received (subset of Radiotap's `Flags`
/// field relevant to passive fingerprinting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RxFlags(u8);

impl RxFlags {
    /// No flags set.
    pub const EMPTY: RxFlags = RxFlags(0);
    /// Frame was sent with a short DSSS preamble.
    pub const SHORT_PREAMBLE: RxFlags = RxFlags(0x02);
    /// The captured bytes include the trailing FCS.
    pub const FCS_INCLUDED: RxFlags = RxFlags(0x10);
    /// The frame failed its FCS check.
    pub const BAD_FCS: RxFlags = RxFlags(0x40);

    /// Creates flags from the raw Radiotap `Flags` byte.
    #[must_use] 
    pub const fn from_raw(raw: u8) -> RxFlags {
        RxFlags(raw)
    }

    /// The raw Radiotap `Flags` byte.
    #[must_use] 
    pub const fn to_raw(self) -> u8 {
        self.0
    }

    /// `true` if every flag in `other` is set in `self`.
    #[must_use] 
    pub const fn contains(self, other: RxFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    #[must_use]
    pub const fn union(self, other: RxFlags) -> RxFlags {
        RxFlags(self.0 | other.0)
    }
}

impl core::ops::BitOr for RxFlags {
    type Output = RxFlags;
    fn bitor(self, rhs: RxFlags) -> RxFlags {
        self.union(rhs)
    }
}

impl fmt::Display for RxFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.contains(RxFlags::SHORT_PREAMBLE) {
            parts.push("short-preamble");
        }
        if self.contains(RxFlags::FCS_INCLUDED) {
            parts.push("fcs");
        }
        if self.contains(RxFlags::BAD_FCS) {
            parts.push("bad-fcs");
        }
        if parts.is_empty() {
            f.write_str("(none)")
        } else {
            f.write_str(&parts.join("+"))
        }
    }
}

/// Monitor-side reception metadata for one captured frame.
///
/// Every field the paper's five network parameters need is here: the
/// **end-of-reception timestamp** (`tsft_us`, the MAC time in microseconds),
/// the **rate**, and the channel/signal context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RxInfo {
    /// MAC timestamp (TSFT): microseconds, end of reception of the frame.
    pub tsft_us: Option<u64>,
    /// PHY rate the frame was received at.
    pub rate: Option<Rate>,
    /// Channel centre frequency in MHz.
    pub channel_mhz: Option<u16>,
    /// RF signal power at the antenna, dBm.
    pub signal_dbm: Option<i8>,
    /// RF noise power at the antenna, dBm.
    pub noise_dbm: Option<i8>,
    /// Antenna index.
    pub antenna: Option<u8>,
    /// Reception flags.
    pub flags: RxFlags,
}

impl RxInfo {
    /// Encodes as a Radiotap header (version 0).
    #[must_use] 
    pub fn to_radiotap(&self) -> Vec<u8> {
        radiotap::encode(self)
    }

    /// Parses a Radiotap header, returning the metadata and the total
    /// header length (the 802.11 frame starts at that offset).
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError`] if the buffer is too short, the version is
    /// unsupported, or the declared length is inconsistent.
    #[inline]
    pub fn from_radiotap(buf: &[u8]) -> Result<(RxInfo, usize), HeaderError> {
        radiotap::parse(buf)
    }

    /// Encodes as a 144-byte Prism (wlan-ng) header.
    #[must_use] 
    pub fn to_prism(&self, frame_len: u32) -> Vec<u8> {
        prism::encode(self, frame_len)
    }

    /// Parses a Prism (wlan-ng) header, returning the metadata and the
    /// fixed header length (144).
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError`] if the buffer is too short or the message
    /// code is not the wlan-ng monitor code.
    #[inline]
    pub fn from_prism(buf: &[u8]) -> Result<(RxInfo, usize), HeaderError> {
        prism::parse(buf)
    }

    /// Converts a 2.4 GHz channel number (1–14) to its centre frequency.
    #[must_use] 
    pub fn channel_to_mhz(channel: u8) -> u16 {
        match channel {
            14 => 2484,
            c => 2407 + 5 * u16::from(c),
        }
    }

    /// Converts a 2.4 GHz centre frequency back to its channel number,
    /// if it is one.
    #[must_use] 
    pub fn mhz_to_channel(mhz: u16) -> Option<u8> {
        match mhz {
            2484 => Some(14),
            2412..=2472 if (mhz - 2407).is_multiple_of(5) => Some(((mhz - 2407) / 5) as u8),
            _ => None,
        }
    }
}

/// Error type for capture-header parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// Buffer ended before the header was complete.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// Radiotap version byte was not 0.
    BadVersion(u8),
    /// The header's declared length is impossible.
    BadLength(usize),
    /// Prism message code was not the wlan-ng monitor code.
    BadMagic(u32),
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::Truncated { needed, available } => {
                write!(f, "capture header truncated: needed {needed} bytes, got {available}")
            }
            HeaderError::BadVersion(v) => write!(f, "unsupported radiotap version {v}"),
            HeaderError::BadLength(l) => write!(f, "inconsistent header length {l}"),
            HeaderError::BadMagic(m) => write!(f, "unexpected prism message code {m:#010x}"),
        }
    }
}

impl std::error::Error for HeaderError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_algebra() {
        let f = RxFlags::SHORT_PREAMBLE | RxFlags::FCS_INCLUDED;
        assert!(f.contains(RxFlags::SHORT_PREAMBLE));
        assert!(f.contains(RxFlags::FCS_INCLUDED));
        assert!(!f.contains(RxFlags::BAD_FCS));
        assert_eq!(f.to_raw(), 0x12);
        assert_eq!(RxFlags::from_raw(0x12), f);
        assert_eq!(f.to_string(), "short-preamble+fcs");
        assert_eq!(RxFlags::EMPTY.to_string(), "(none)");
    }

    #[test]
    fn channel_frequency_mapping() {
        assert_eq!(RxInfo::channel_to_mhz(1), 2412);
        assert_eq!(RxInfo::channel_to_mhz(6), 2437);
        assert_eq!(RxInfo::channel_to_mhz(11), 2462);
        assert_eq!(RxInfo::channel_to_mhz(14), 2484);
        for ch in 1..=14u8 {
            assert_eq!(RxInfo::mhz_to_channel(RxInfo::channel_to_mhz(ch)), Some(ch));
        }
        assert_eq!(RxInfo::mhz_to_channel(5180), None);
        assert_eq!(RxInfo::mhz_to_channel(2413), None);
    }
}
