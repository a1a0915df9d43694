//! IEEE 802.11 MAC-layer model for the wifiprint suite.
//!
//! This crate provides the 802.11 substrate that both the discrete-event
//! simulator (`wifiprint-netsim`) and the fingerprinting library
//! (`wifiprint-core`) build on:
//!
//! * [`MacAddr`] — 48-bit MAC addresses with OUI helpers,
//! * [`FrameControl`] / [`FrameKind`] — bit-exact Frame Control codec and the
//!   full management/control/data subtype table,
//! * [`Frame`] — wire-format serialisation and parsing of MAC frames with
//!   the ToDS/FromDS addressing rules,
//! * [`Rate`] — DSSS/CCK and ERP-OFDM rates in 500 kb/s units,
//! * [`timing`] — PHY timing constants (slot, SIFS, DIFS, EIFS, contention
//!   windows, PLCP preambles) and frame air-time computation,
//! * [`duration`] — NAV duration-field computation including the per-card
//!   quirk models observed by Cache (2006),
//! * [`elements`] — the information elements needed for beacons and probes.
//!
//! # Example
//!
//! ```
//! use wifiprint_ieee80211::{Frame, FrameKind, MacAddr, Rate, timing};
//!
//! # fn main() -> Result<(), wifiprint_ieee80211::FrameError> {
//! let sta = MacAddr::new([0x00, 0x1b, 0x77, 0x00, 0x00, 0x01]);
//! let ap = MacAddr::new([0x00, 0x14, 0x6c, 0x00, 0x00, 0xff]);
//! let frame = Frame::data_to_ds(sta, ap, ap, 1460);
//! let bytes = frame.to_bytes();
//! let parsed = Frame::parse(&bytes)?;
//! assert_eq!(parsed.transmitter(), Some(sta));
//! assert_eq!(parsed.kind(), FrameKind::Data);
//!
//! // How long does this frame occupy the medium at 54 Mb/s?
//! let t = timing::air_time(timing::PhyTx::erp_ofdm(Rate::R54M), bytes.len());
//! assert!(t.as_micros() > 200 && t.as_micros() < 300);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::pedantic)]
// Pedantic lints this crate opts out of, mirroring wifiprint-core:
#![allow(
    // Wire codecs narrow u64/usize into header fields whose widths the
    // 802.11 standard fixes; the bounds are checked where they matter.
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss,
    // Exact float compares pin deliberate sentinel values in tests.
    clippy::float_cmp,
    // Getter-heavy API: #[must_use] on every accessor is noise.
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    // Public items are re-exported from the crate root, so
    // module-qualified names repeat the module name.
    clippy::module_name_repetitions,
    // Frame parsing keeps one match arm per 802.11 subtype even when
    // neighbouring subtypes currently decode identically — the standard's
    // table structure is the point.
    clippy::match_same_arms,
    // The flagged `expect`s are fixed-size slice conversions
    // (`[u8; N]` from a length-checked slice) that cannot fail.
    clippy::missing_panics_doc,
    // FrameControl mirrors the standard's flag bits; each bool is one
    // wire bit, an enum would obscure the mapping.
    clippy::struct_excessive_bools,
    // 802.11 jargon (DSSS/CCK, Duration/ID, …) trips the identifier
    // heuristic on prose that is not code.
    clippy::doc_markdown
)]

pub mod duration;
pub mod elements;
mod fc;
mod frame;
mod mac;
mod rate;
mod seq;
mod time;
pub mod timing;
pub mod wire;

pub use fc::{FrameControl, FrameKind, FrameType};
pub use frame::{Frame, FrameError};
pub use mac::{MacAddr, ParseMacAddrError};
pub use rate::{Modulation, Rate};
pub use seq::SequenceCounter;
pub use time::Nanos;
pub use wire::WireFrame;
