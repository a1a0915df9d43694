//! Zero-copy replay of capture files into fingerprinting-engine input.
//!
//! This module is the production data path the paper's method implies: raw
//! DLT-127/119/105 bytes off a capture file (or ring) are decoded straight
//! into [`CapturedFrame`] observations, ready for the engine's `observe`
//! — with **zero heap allocations** for the whole pass. The capture is
//! held in memory (read whole with `std::fs::read`, or memory-mapped) and
//! [`Replay::from_slice`] borrows each record in place through
//! [`SliceReader`], never copying (or even reading) record bodies. The
//! 802.11 header is read through the borrowed
//! [`WireFrame`](wifiprint_ieee80211::WireFrame) view (no body copy, no
//! `Frame` materialization), and `CapturedFrame` itself is a plain `Copy`
//! struct. An allocation-counting test pins this down.
//!
//! Every link type decodes through `wifiprint-radiotap`: DLT 127 and 119
//! records through their capture header, and raw DLT 105 records through
//! [`CapturedFrame::from_decoded`] with an empty header (FCS included), so
//! the defaults for missing metadata live in that one decoder.
//!
//! Alongside the frames, a [`ReplayStats`] tallies capture quality: how
//! many records decoded, how many failed (and at which layer), and how
//! often the monitor omitted rate/signal/TSFT so decode had to fall back
//! to defaults — silently-defaulted fields skew derived air times, and a
//! consumer deserves to know.
//!
//! # Example
//!
//! ```
//! use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
//! use wifiprint_pcap::{replay::Replay, LinkType, Record, Writer};
//! use wifiprint_radiotap::{RxFlags, RxInfo};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Write a one-record radiotap capture in memory…
//! let mut file = Vec::new();
//! let mut w = Writer::new(&mut file, LinkType::Ieee80211Radiotap)?;
//! let info = RxInfo {
//!     rate: Some(Rate::R11M),
//!     signal_dbm: Some(-55),
//!     flags: RxFlags::FCS_INCLUDED,
//!     ..RxInfo::default()
//! };
//! let mut packet = info.to_radiotap();
//! let sta = MacAddr::from_index(1);
//! let ap = MacAddr::from_index(2);
//! packet.extend_from_slice(&Frame::data_to_ds(sta, ap, ap, 100).to_bytes());
//! w.write_record(&Record::from_micros(1_000, packet))?;
//!
//! // …and replay it.
//! let mut replay = Replay::from_slice(&file)?;
//! let frame = replay.next_frame()?.expect("one frame");
//! assert_eq!(frame.transmitter, Some(sta));
//! assert_eq!(frame.rate, Rate::R11M);
//! assert!(replay.next_frame()?.is_none());
//! let stats = replay.stats();
//! assert_eq!((stats.records, stats.decoded), (1, 1));
//! assert_eq!(stats.defaulted_timestamp, 1); // no TSFT: pcap timestamp used
//! # Ok(())
//! # }
//! ```

use wifiprint_ieee80211::Nanos;
use wifiprint_radiotap::{CapturedFrame, DecodeError, DefaultedFields, RxFlags, RxInfo};

use crate::{LinkType, PcapError, SliceReader};

/// Per-file decode statistics accumulated by [`Replay`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records read from the file.
    pub records: u64,
    /// Records successfully decoded into a [`CapturedFrame`].
    pub decoded: u64,
    /// Records whose capture header (Radiotap/Prism) was malformed.
    pub header_errors: u64,
    /// Records whose 802.11 frame was malformed or truncated.
    pub frame_errors: u64,
    /// Decoded records with no rate field (1 Mb/s assumed).
    pub defaulted_rate: u64,
    /// Decoded records with no signal field (−70 dBm assumed).
    pub defaulted_signal: u64,
    /// Decoded records with no TSFT (pcap record timestamp used).
    pub defaulted_timestamp: u64,
}

impl ReplayStats {
    /// Total records that failed to decode, at either layer.
    #[must_use] 
    pub fn decode_errors(&self) -> u64 {
        self.header_errors + self.frame_errors
    }

    fn absorb(&mut self, defaulted: DefaultedFields) {
        self.decoded += 1;
        self.defaulted_rate += u64::from(defaulted.rate);
        self.defaulted_signal += u64::from(defaulted.signal);
        self.defaulted_timestamp += u64::from(defaulted.timestamp);
    }
}

/// Error replaying a capture file.
#[derive(Debug)]
pub enum ReplayError {
    /// The pcap stream itself was malformed or unreadable.
    Pcap(PcapError),
    /// The file's link type carries no 802.11 frames we can decode.
    UnsupportedLinkType(
        /// The offending link type.
        LinkType,
    ),
}

impl core::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReplayError::Pcap(e) => write!(f, "pcap: {e}"),
            ReplayError::UnsupportedLinkType(lt) => {
                write!(f, "cannot replay link type {lt}")
            }
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Pcap(e) => Some(e),
            ReplayError::UnsupportedLinkType(_) => None,
        }
    }
}

impl From<PcapError> for ReplayError {
    fn from(e: PcapError) -> Self {
        ReplayError::Pcap(e)
    }
}

/// An allocation-free stream of [`CapturedFrame`]s over an in-memory
/// pcap file.
///
/// Wraps a [`SliceReader`] with the borrowed decode path; corrupt
/// records are counted into [`ReplayStats`] and skipped rather than
/// aborting the pass, because real monitor captures contain them.
#[derive(Debug)]
pub struct Replay<'a> {
    source: SliceReader<'a>,
    stats: ReplayStats,
}

impl<'a> Replay<'a> {
    /// Replays a whole capture file already in memory, borrowing record
    /// bytes in place: nothing is copied, and the borrowed decoders only
    /// ever read each record's header bytes. The file's link type must
    /// be one of the 802.11 monitor formats (DLT 127 Radiotap, DLT 119
    /// Prism, DLT 105 raw).
    ///
    /// # Errors
    ///
    /// [`ReplayError::Pcap`] for a malformed global header,
    /// [`ReplayError::UnsupportedLinkType`] for a non-802.11 file.
    pub fn from_slice(file: &'a [u8]) -> Result<Self, ReplayError> {
        let source = SliceReader::new(file)?;
        match source.link_type() {
            LinkType::Ieee80211Radiotap | LinkType::Prism | LinkType::Ieee80211 => {
                Ok(Replay { source, stats: ReplayStats::default() })
            }
            other => Err(ReplayError::UnsupportedLinkType(other)),
        }
    }

    /// The file's link type.
    pub fn link_type(&self) -> LinkType {
        self.source.link_type()
    }

    /// Statistics over everything read so far.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Decodes the next record that holds a valid frame; `Ok(None)` at
    /// end of file. Undecodable records are tallied and skipped.
    ///
    /// # Errors
    ///
    /// [`PcapError`] only for a malformed *file* (truncated record,
    /// oversized length) — per-record decode failures are not errors
    /// here.
    pub fn next_frame(&mut self) -> Result<Option<CapturedFrame>, PcapError> {
        loop {
            let Some((meta, bytes)) = self.source.next_record()? else {
                return Ok(None);
            };
            self.stats.records += 1;
            let fallback = Nanos::from_nanos(meta.timestamp_nanos());
            let decoded = match self.source.link_type() {
                LinkType::Ieee80211Radiotap => {
                    CapturedFrame::from_radiotap_packet_counted(bytes, fallback)
                }
                LinkType::Prism => CapturedFrame::from_prism_packet_counted(bytes, fallback),
                // Raw 802.11: no capture header at all, so every
                // metadata field is a fallback by construction.
                _ => {
                    let info = RxInfo { flags: RxFlags::FCS_INCLUDED, ..RxInfo::default() };
                    CapturedFrame::from_decoded(&info, bytes, fallback)
                }
            };
            match decoded {
                Ok((frame, defaulted)) => {
                    self.stats.absorb(defaulted);
                    return Ok(Some(frame));
                }
                Err(DecodeError::Header(_)) => self.stats.header_errors += 1,
                Err(DecodeError::Frame(_)) => self.stats.frame_errors += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Record, Writer};
    use wifiprint_ieee80211::{Frame, MacAddr, Rate};

    fn radiotap_packet(frame: &Frame, rate: Option<Rate>, tsft_us: Option<u64>) -> Vec<u8> {
        let info = RxInfo {
            tsft_us,
            rate,
            signal_dbm: Some(-50),
            flags: RxFlags::FCS_INCLUDED,
            ..RxInfo::default()
        };
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&frame.to_bytes());
        packet
    }

    fn capture(link: LinkType, packets: &[(u64, Vec<u8>)]) -> Vec<u8> {
        let mut file = Vec::new();
        let mut w = Writer::new(&mut file, link).unwrap();
        for &(ts_us, ref packet) in packets {
            w.write_record(&Record::from_micros(ts_us, packet.clone())).unwrap();
        }
        file
    }

    fn sta() -> MacAddr {
        MacAddr::from_index(1)
    }
    fn ap() -> MacAddr {
        MacAddr::from_index(2)
    }

    #[test]
    fn replays_radiotap_capture_with_stats() {
        let data = Frame::data_to_ds(sta(), ap(), ap(), 200);
        let file = capture(
            LinkType::Ieee80211Radiotap,
            &[
                (1_000, radiotap_packet(&data, Some(Rate::R11M), Some(1_000))),
                // No rate and no TSFT: decodes, but both are defaulted.
                (2_000, radiotap_packet(&data, None, None)),
                // Garbage after a valid radiotap header: a frame error.
                (3_000, {
                    let mut p = RxInfo::default().to_radiotap();
                    p.extend_from_slice(&[1, 2, 3]);
                    p
                }),
            ],
        );
        let mut replay = Replay::from_slice(&file).unwrap();
        let first = replay.next_frame().unwrap().unwrap();
        assert_eq!(first.rate, Rate::R11M);
        assert_eq!(first.t_end, Nanos::from_micros(1_000));
        let second = replay.next_frame().unwrap().unwrap();
        assert_eq!(second.rate, Rate::R1M);
        assert_eq!(second.t_end, Nanos::from_micros(2_000));
        assert!(replay.next_frame().unwrap().is_none());

        let stats = replay.stats();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.decoded, 2);
        assert_eq!(stats.frame_errors, 1);
        assert_eq!(stats.header_errors, 0);
        assert_eq!(stats.decode_errors(), 1);
        assert_eq!(stats.defaulted_rate, 1);
        assert_eq!(stats.defaulted_signal, 0);
        // Only decoded records count: the second had no TSFT.
        assert_eq!(stats.defaulted_timestamp, 1);
    }

    #[test]
    fn replays_raw_80211_with_everything_defaulted() {
        use wifiprint_ieee80211::{FrameControl, FrameKind};

        // DLT 105 records are bare on-air frames, FCS included, one per
        // address layout; a garbage record in the middle is a frame error.
        let retried = FrameControl::new(FrameKind::Data).with_from_ds(true).with_retry(true);
        let frames = [
            Frame::data_to_ds(sta(), ap(), MacAddr::BROADCAST, 64).with_sequence(9),
            Frame::data_from_ds(sta(), ap(), MacAddr::from_index(3), 32).with_fc(retried),
            Frame::data_to_ds(sta(), ap(), ap(), 100).with_qos(5),
            Frame::beacon(ap(), vec![7; 20]),
            Frame::rts(ap(), sta(), 300),
            Frame::ack(sta()),
        ];
        let mut packets: Vec<(u64, Vec<u8>)> =
            frames.iter().zip(1..).map(|(f, i)| (500 * i, f.to_bytes())).collect();
        packets.insert(2, (750, vec![1, 2, 3]));
        let file = capture(LinkType::Ieee80211, &packets);

        let mut replay = Replay::from_slice(&file).unwrap();
        for (frame, i) in frames.iter().zip(1..) {
            let cap = replay.next_frame().unwrap().unwrap();
            let expected = CapturedFrame::from_frame(frame, Rate::R1M, Nanos::from_micros(500 * i), -70);
            assert_eq!(cap, expected, "record {i}");
        }
        assert!(replay.next_frame().unwrap().is_none());

        let n = frames.len() as u64;
        assert_eq!(
            replay.stats(),
            ReplayStats {
                records: n + 1,
                decoded: n,
                header_errors: 0,
                frame_errors: 1,
                defaulted_rate: n,
                defaulted_signal: n,
                defaulted_timestamp: n,
            }
        );
    }

    #[test]
    fn rejects_unsupported_link_type() {
        let file = capture(LinkType::Ethernet, &[]);
        let err = Replay::from_slice(&file).unwrap_err();
        assert!(matches!(err, ReplayError::UnsupportedLinkType(LinkType::Ethernet)));
        assert!(err.to_string().contains("EN10MB"));
    }

    #[test]
    fn header_errors_are_counted() {
        // DLT 127 records too short to hold a radiotap header.
        let file = capture(LinkType::Ieee80211Radiotap, &[(1, vec![0u8; 2])]);
        let mut replay = Replay::from_slice(&file).unwrap();
        assert!(replay.next_frame().unwrap().is_none());
        assert_eq!(replay.stats().header_errors, 1);
        assert_eq!(replay.stats().decoded, 0);
    }

    #[test]
    fn replayed_frames_drive_the_engine() {
        use wifiprint_core::{FusionSpec, MultiConfig, MultiEngine, MultiEvent};

        let mut packets = Vec::new();
        for i in 0..400u64 {
            let frame = Frame::data_to_ds(sta(), ap(), ap(), 400);
            let ts = 10_000 * (i + 1);
            packets.push((ts, radiotap_packet(&frame, Some(Rate::R54M), Some(ts))));
        }
        let file = capture(LinkType::Ieee80211Radiotap, &packets);

        let mut cfg = MultiConfig::default().with_min_observations(20);
        cfg.window = Nanos::from_secs(1);
        let mut engine = MultiEngine::builder()
            .spec(FusionSpec::all_equal())
            .config(cfg)
            .train_for(Nanos::from_secs(2))
            .build()
            .unwrap();
        let mut replay = Replay::from_slice(&file).unwrap();
        let mut events = Vec::new();
        while let Some(f) = replay.next_frame().unwrap() {
            events.extend(engine.observe(&f).unwrap());
        }
        events.extend(engine.finish().unwrap());
        assert_eq!(replay.stats().decoded, 400);
        assert!(events
            .iter()
            .any(|e| matches!(e, MultiEvent::Enrolled { device, .. } if *device == sta())));
    }
}
