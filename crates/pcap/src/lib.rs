//! Classic pcap capture-file reading and writing.
//!
//! A from-scratch, dependency-free implementation of the libpcap file
//! format, sufficient for the wifiprint suite to exchange 802.11 monitor
//! captures with standard tooling (tcpdump, Wireshark, the paper's own
//! Python/libpcap stack):
//!
//! * both magics — microsecond (`0xa1b2c3d4`) and nanosecond
//!   (`0xa1b23c4d`) timestamp precision,
//! * both byte orders (files written on foreign-endian machines),
//! * a borrowing [`SliceReader`] over an in-memory file and a streaming
//!   [`Writer`] over any [`std::io::Write`],
//! * snaplen-truncated records (`incl_len < orig_len`),
//! * the link types relevant to 802.11 monitoring ([`LinkType`]).
//!
//! # Example
//!
//! ```
//! use wifiprint_pcap::{LinkType, Record, SliceReader, Writer};
//!
//! # fn main() -> Result<(), wifiprint_pcap::PcapError> {
//! let mut file = Vec::new();
//! let mut writer = Writer::new(&mut file, LinkType::Ieee80211Radiotap)?;
//! writer.write_record(&Record::new(1_700_000_000, 123_456_000, b"frame-bytes".to_vec()))?;
//!
//! let mut reader = SliceReader::new(&file)?;
//! assert_eq!(reader.link_type(), LinkType::Ieee80211Radiotap);
//! let (meta, data) = reader.next_record()?.expect("one record");
//! assert_eq!(data, b"frame-bytes");
//! assert_eq!(meta.timestamp_micros(), 1_700_000_000_123_456);
//! # Ok(())
//! # }
//! ```
//!
//! # Real-capture replay
//!
//! The [`replay`] module turns a capture file into fingerprinting-engine
//! input without materializing a single owned frame: [`Replay`] decodes
//! each record through the borrowed
//! [`WireFrame`](wifiprint_ieee80211::WireFrame) view with **zero heap
//! allocations**: [`Replay::from_slice`] borrows every record of an
//! in-memory file in place ([`SliceReader`]) and never copies — or even
//! reads — record bodies. A file on disk is read whole first
//! (`std::fs::read`). [`ReplayStats`]
//! reports decode quality per file: error counts per layer and how often
//! the monitor omitted rate/signal/TSFT so decode fell back to defaults.
//!
//! Driving a whole capture into the engine is a plain loop over
//! [`Replay::next_frame`], feeding each frame to the engine's `observe`
//! (the engine lives in `wifiprint-core`, which this crate does not
//! depend on):
//!
//! ```
//! use wifiprint_core::{FusionSpec, MultiConfig, MultiEngine, MultiEvent};
//! use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
//! use wifiprint_pcap::{LinkType, Record, Replay, Writer};
//! use wifiprint_radiotap::{RxFlags, RxInfo};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A synthetic two-station radiotap capture, in memory.
//! let ap = MacAddr::from_index(0xA0);
//! let stations = [MacAddr::from_index(1), MacAddr::from_index(2)];
//! let mut file = Vec::new();
//! let mut writer = Writer::new(&mut file, LinkType::Ieee80211Radiotap)?;
//! for i in 0..2_000u64 {
//!     let sta = stations[(i % 2) as usize];
//!     let frame = Frame::data_to_ds(sta, ap, ap, 200 + (i % 2) as usize * 600);
//!     let ts_us = 2_000 * (i + 1);
//!     let info = RxInfo {
//!         tsft_us: Some(ts_us),
//!         rate: Some(Rate::R54M),
//!         signal_dbm: Some(if i % 2 == 0 { -48 } else { -61 }),
//!         flags: RxFlags::FCS_INCLUDED,
//!         ..RxInfo::default()
//!     };
//!     let mut packet = info.to_radiotap();
//!     packet.extend_from_slice(&frame.to_bytes());
//!     writer.write_record(&Record::from_micros(ts_us, packet))?;
//! }
//!
//! // Replay it into a fused engine: train 2 s, then 1 s windows.
//! let mut cfg = MultiConfig::default().with_min_observations(20);
//! cfg.window = Nanos::from_secs(1);
//! let mut engine = MultiEngine::builder()
//!     .spec(FusionSpec::all_equal())
//!     .config(cfg)
//!     .train_for(Nanos::from_secs(2))
//!     .build()?;
//! let mut replay = Replay::from_slice(&file)?;
//! let mut events = Vec::new();
//! while let Some(f) = replay.next_frame()? {
//!     events.extend(engine.observe(&f)?);
//! }
//! events.extend(engine.finish()?);
//! let stats = replay.stats();
//!
//! assert_eq!((stats.decoded, stats.decode_errors()), (2_000, 0));
//! let enrolled = events
//!     .iter()
//!     .filter(|e| matches!(e, MultiEvent::Enrolled { .. }))
//!     .count();
//! assert_eq!(enrolled, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::pedantic)]
// Pedantic lints this crate opts out of, mirroring wifiprint-core:
#![allow(
    // Record lengths narrow into the format's fixed u32 wire fields;
    // MAX_SANE_INCL_LEN bounds them first.
    clippy::cast_possible_truncation,
    // The flagged `expect`s are fixed-size slice conversions
    // (`[u8; N]` from a length-checked slice) that cannot fail.
    clippy::missing_panics_doc,
    // Getter-heavy API: #[must_use] on every accessor is noise.
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    // Public items are re-exported from the crate root, so
    // module-qualified names repeat the module name.
    clippy::module_name_repetitions,
    // Capture-tooling jargon (libpcap, tcpdump, snaplen, …) trips the
    // identifier heuristic on prose that is not code.
    clippy::doc_markdown
)]

mod format;
mod reader;
pub mod replay;
mod writer;

pub use format::{LinkType, PcapError, Record, RecordMeta, TsPrecision, MAGIC_MICROS, MAGIC_NANOS};
pub use reader::SliceReader;
pub use replay::{Replay, ReplayError, ReplayStats};
pub use writer::Writer;
