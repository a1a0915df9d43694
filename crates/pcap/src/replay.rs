//! Zero-copy replay of capture files into fingerprinting-engine input.
//!
//! This module is the production data path the paper's method implies: raw
//! DLT-127/119/105 bytes off a capture file (or ring) are decoded straight
//! into [`CapturedFrame`] observations, ready for the engine's `observe`
//! — with **zero heap allocations per record** in steady state. Streaming
//! sources reuse one internal buffer across records
//! ([`Reader::read_record_into`]); in-memory files go further via
//! [`Replay::from_slice`], which borrows each record in place and never
//! copies (or even reads) record bodies at all. Either way the 802.11
//! header is read through the borrowed
//! [`WireFrame`] view (no body copy, no
//! `Frame` materialization), and `CapturedFrame` itself is a plain `Copy`
//! struct. An allocation-counting test pins this down.
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
//! use wifiprint_pcap::{replay::Replay, LinkType, Reader, Record, Writer};
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
//! let mut replay = Replay::new(Reader::new(&file[..])?)?;
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

use std::io::Read;

use wifiprint_ieee80211::{Nanos, WireFrame};
use wifiprint_radiotap::{CapturedFrame, DecodeError, DefaultedFields};

use crate::{LinkType, PcapError, Reader, RecordMeta, SliceReader};

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

/// Anything that can hand [`Replay`] one record's bytes at a time.
///
/// Two implementations ship with the crate: [`ReadSource`] copies each
/// record from a generic [`Read`] stream into one reused buffer (zero
/// allocations in steady state), and [`SliceReader`] borrows records
/// straight out of an in-memory file (zero copies, zero allocations —
/// record bodies are never even touched, since the borrowed decoders read
/// only header bytes).
pub trait RecordSource {
    /// The source's data-link type.
    fn link_type(&self) -> LinkType;

    /// Returns the next record's header fields and bytes, or `Ok(None)`
    /// at a clean end of stream.
    ///
    /// # Errors
    ///
    /// [`PcapError`] for a malformed or unreadable stream.
    fn next(&mut self) -> Result<Option<(RecordMeta, &[u8])>, PcapError>;
}

impl RecordSource for SliceReader<'_> {
    fn link_type(&self) -> LinkType {
        SliceReader::link_type(self)
    }

    fn next(&mut self) -> Result<Option<(RecordMeta, &[u8])>, PcapError> {
        self.next_record()
    }
}

/// A [`RecordSource`] over any [`Read`] stream: each record is copied into
/// one internal buffer that is reused across records
/// ([`Reader::read_record_into`]), so steady-state replay performs zero
/// heap allocations.
#[derive(Debug)]
pub struct ReadSource<R> {
    reader: Reader<R>,
    buf: Vec<u8>,
}

impl<R: Read> ReadSource<R> {
    /// Wraps a pcap reader.
    pub fn new(reader: Reader<R>) -> Self {
        ReadSource { reader, buf: Vec::new() }
    }
}

impl<R: Read> RecordSource for ReadSource<R> {
    fn link_type(&self) -> LinkType {
        self.reader.link_type()
    }

    fn next(&mut self) -> Result<Option<(RecordMeta, &[u8])>, PcapError> {
        Ok(self.reader.read_record_into(&mut self.buf)?.map(|meta| (meta, &self.buf[..])))
    }
}

/// An allocation-free stream of [`CapturedFrame`]s over a pcap file.
///
/// Wraps a [`RecordSource`] with the borrowed decode path; corrupt
/// records are counted into [`ReplayStats`] and skipped rather than
/// aborting the pass, because real monitor captures contain them.
/// Build one with [`Replay::new`] (streaming, one reused buffer) or
/// [`Replay::from_slice`] (in-memory file, no copies at all).
#[derive(Debug)]
pub struct Replay<S> {
    source: S,
    link: LinkType,
    stats: ReplayStats,
}

impl<R: Read> Replay<ReadSource<R>> {
    /// Wraps a pcap reader whose link type is one of the 802.11 monitor
    /// formats (DLT 127 Radiotap, DLT 119 Prism, DLT 105 raw).
    ///
    /// # Errors
    ///
    /// [`ReplayError::UnsupportedLinkType`] for anything else.
    pub fn new(reader: Reader<R>) -> Result<Self, ReplayError> {
        Self::with_source(ReadSource::new(reader))
    }
}

impl<'a> Replay<SliceReader<'a>> {
    /// Replays a whole capture file already in memory, borrowing record
    /// bytes in place — the fastest path, since nothing is copied and
    /// the borrowed decoders only ever read each record's header bytes.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Pcap`] for a malformed global header,
    /// [`ReplayError::UnsupportedLinkType`] for a non-802.11 file.
    pub fn from_slice(file: &'a [u8]) -> Result<Self, ReplayError> {
        Self::with_source(SliceReader::new(file)?)
    }
}

impl<S: RecordSource> Replay<S> {
    /// Wraps any [`RecordSource`] whose link type is one of the 802.11
    /// monitor formats (DLT 127 Radiotap, DLT 119 Prism, DLT 105 raw).
    ///
    /// # Errors
    ///
    /// [`ReplayError::UnsupportedLinkType`] for anything else.
    pub fn with_source(source: S) -> Result<Self, ReplayError> {
        let link = source.link_type();
        match link {
            LinkType::Ieee80211Radiotap | LinkType::Prism | LinkType::Ieee80211 => {
                Ok(Replay { source, link, stats: ReplayStats::default() })
            }
            other => Err(ReplayError::UnsupportedLinkType(other)),
        }
    }

    /// The file's link type.
    pub fn link_type(&self) -> LinkType {
        self.link
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
    /// [`PcapError`] only for a malformed *stream* (truncated record,
    /// oversized length, I/O failure) — per-record decode failures are
    /// not errors here.
    pub fn next_frame(&mut self) -> Result<Option<CapturedFrame>, PcapError> {
        loop {
            let Some((meta, bytes)) = self.source.next()? else {
                return Ok(None);
            };
            self.stats.records += 1;
            let fallback = Nanos::from_nanos(meta.timestamp_nanos());
            let decoded = match self.link {
                LinkType::Ieee80211Radiotap => {
                    CapturedFrame::from_radiotap_packet_counted(bytes, fallback)
                }
                LinkType::Prism => CapturedFrame::from_prism_packet_counted(bytes, fallback),
                // Raw 802.11: no capture header at all, so every
                // metadata field is a fallback by construction.
                _ => WireFrame::parse(bytes)
                    .map(|view| {
                        let cap = CapturedFrame::from_wire(
                            &view,
                            wifiprint_ieee80211::Rate::R1M,
                            fallback,
                            -70,
                        );
                        (cap, DefaultedFields { rate: true, signal: true, timestamp: true })
                    })
                    .map_err(DecodeError::Frame),
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
    use wifiprint_radiotap::{RxFlags, RxInfo};

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
        let mut replay = Replay::new(Reader::new(&file[..]).unwrap()).unwrap();
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
        let frame = Frame::data_to_ds(sta(), ap(), ap(), 64);
        let file = capture(LinkType::Ieee80211, &[(500, frame.to_bytes())]);
        let mut replay = Replay::new(Reader::new(&file[..]).unwrap()).unwrap();
        let cap = replay.next_frame().unwrap().unwrap();
        assert_eq!(cap.rate, Rate::R1M);
        assert_eq!(cap.t_end, Nanos::from_micros(500));
        assert_eq!(cap.signal_dbm, -70);
        let stats = replay.stats();
        assert_eq!(stats.defaulted_rate, 1);
        assert_eq!(stats.defaulted_signal, 1);
        assert_eq!(stats.defaulted_timestamp, 1);
    }

    #[test]
    fn rejects_unsupported_link_type() {
        let file = capture(LinkType::Ethernet, &[]);
        let err = Replay::new(Reader::new(&file[..]).unwrap()).unwrap_err();
        assert!(matches!(err, ReplayError::UnsupportedLinkType(LinkType::Ethernet)));
        assert!(err.to_string().contains("EN10MB"));
    }

    #[test]
    fn header_errors_are_counted() {
        // DLT 127 records too short to hold a radiotap header.
        let file = capture(LinkType::Ieee80211Radiotap, &[(1, vec![0u8; 2])]);
        let mut replay = Replay::new(Reader::new(&file[..]).unwrap()).unwrap();
        assert!(replay.next_frame().unwrap().is_none());
        assert_eq!(replay.stats().header_errors, 1);
        assert_eq!(replay.stats().decoded, 0);
    }

    #[test]
    fn slice_replay_matches_streaming_replay() {
        let mut packets = Vec::new();
        for i in 0..64u64 {
            let frame = Frame::data_to_ds(sta(), ap(), ap(), 100 + (i as usize % 5) * 50);
            let ts = 1_000 * (i + 1);
            packets.push((ts, radiotap_packet(&frame, Some(Rate::R54M), Some(ts))));
        }
        let file = capture(LinkType::Ieee80211Radiotap, &packets);

        let mut streaming = Replay::new(Reader::new(&file[..]).unwrap()).unwrap();
        let mut sliced = Replay::from_slice(&file).unwrap();
        assert_eq!(sliced.link_type(), LinkType::Ieee80211Radiotap);
        while let Some(expected) = streaming.next_frame().unwrap() {
            assert_eq!(sliced.next_frame().unwrap(), Some(expected));
        }
        assert!(sliced.next_frame().unwrap().is_none());
        assert_eq!(sliced.stats(), streaming.stats());
        assert_eq!(sliced.stats().decoded, 64);
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
        let mut replay = Replay::new(Reader::new(&file[..]).unwrap()).unwrap();
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
