//! The monitor-side view of one captured 802.11 frame.
//!
//! [`CapturedFrame`] is the interchange type of the whole suite: the
//! discrete-event simulator's monitor tap produces them, pcap decoding
//! produces them, and the fingerprinting pipeline consumes them. It carries
//! exactly the observables the paper's method is allowed to use — capture
//! metadata (timestamp, rate, size) plus the MAC header summary (type,
//! addresses, retry flag) — and nothing else.

use wifiprint_ieee80211::timing::{air_time, PhyTx};
use wifiprint_ieee80211::{Frame, FrameError, FrameKind, MacAddr, Nanos, Rate, WireFrame};

use crate::{HeaderError, RxFlags, RxInfo};

/// One frame as seen by a passive monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapturedFrame {
    /// End-of-reception time on the monitor's clock (the paper's `tᵢ`).
    pub t_end: Nanos,
    /// Time the frame occupied the medium; reception started at
    /// `t_end - air_time`.
    pub air_time: Nanos,
    /// PHY rate the frame was received at.
    pub rate: Rate,
    /// On-air frame size in bytes, including FCS (the paper's `sizeᵢ`).
    pub size: usize,
    /// Frame kind (type + subtype) — the paper's `ftype`.
    pub kind: FrameKind,
    /// Transmitter address, or `None` for ACK/CTS (the paper's `sᵢ = null`).
    pub transmitter: Option<MacAddr>,
    /// Receiver address (addr1).
    pub receiver: MacAddr,
    /// `true` if the logical destination (DA) is group-addressed. For
    /// uplink (`ToDS`) frames the DA is addr3, not the receiver — this flag
    /// is what "broadcast frames" means in Fig. 7 and the Pang baseline.
    pub dest_group: bool,
    /// Retry flag from Frame Control.
    pub retry: bool,
    /// Received signal strength, dBm.
    pub signal_dbm: i8,
}

/// The MAC header fields a capture keeps, read alike from an owned
/// [`Frame`] and a borrowed [`WireFrame`].
trait MacHeader {
    fn wire_len(&self) -> usize;
    fn kind(&self) -> FrameKind;
    fn retry(&self) -> bool;
    fn transmitter(&self) -> Option<MacAddr>;
    fn receiver(&self) -> MacAddr;
    fn destination(&self) -> Option<MacAddr>;
}

impl MacHeader for Frame {
    fn wire_len(&self) -> usize {
        Frame::wire_len(self)
    }
    fn kind(&self) -> FrameKind {
        Frame::kind(self)
    }
    fn retry(&self) -> bool {
        self.frame_control().retry()
    }
    fn transmitter(&self) -> Option<MacAddr> {
        Frame::transmitter(self)
    }
    fn receiver(&self) -> MacAddr {
        Frame::receiver(self)
    }
    fn destination(&self) -> Option<MacAddr> {
        Frame::destination(self)
    }
}

impl MacHeader for WireFrame<'_> {
    #[inline]
    fn wire_len(&self) -> usize {
        WireFrame::wire_len(self)
    }
    #[inline]
    fn kind(&self) -> FrameKind {
        WireFrame::kind(self)
    }
    #[inline]
    fn retry(&self) -> bool {
        WireFrame::retry(self)
    }
    #[inline]
    fn transmitter(&self) -> Option<MacAddr> {
        WireFrame::transmitter(self)
    }
    #[inline]
    fn receiver(&self) -> MacAddr {
        WireFrame::receiver(self)
    }
    #[inline]
    fn destination(&self) -> Option<MacAddr> {
        WireFrame::destination(self)
    }
}

impl CapturedFrame {
    /// Assembles a captured frame from a parsed MAC frame plus reception
    /// metadata, deriving air time from size and rate.
    pub fn from_frame(frame: &Frame, rate: Rate, t_end: Nanos, signal_dbm: i8) -> Self {
        Self::from_header(frame, rate, t_end, signal_dbm)
    }

    /// Assembles a captured frame from a borrowed wire view plus reception
    /// metadata — the zero-copy analogue of [`CapturedFrame::from_frame`].
    #[inline]
    pub fn from_wire(view: &WireFrame<'_>, rate: Rate, t_end: Nanos, signal_dbm: i8) -> Self {
        Self::from_header(view, rate, t_end, signal_dbm)
    }

    #[inline]
    fn from_header(header: &impl MacHeader, rate: Rate, t_end: Nanos, signal_dbm: i8) -> Self {
        let size = header.wire_len();
        CapturedFrame {
            t_end,
            air_time: air_time(PhyTx::erp_or_dsss(rate), size),
            rate,
            size,
            kind: header.kind(),
            transmitter: header.transmitter(),
            receiver: header.receiver(),
            dest_group: header.destination().is_some_and(MacAddr::is_multicast),
            retry: header.retry(),
            signal_dbm,
        }
    }

    /// Decodes a Radiotap-prefixed packet (as stored in a DLT 127 pcap
    /// record) into a captured frame.
    ///
    /// `fallback_t_end` is used when the header lacks a TSFT field — pcap
    /// record timestamps are the usual source. The size is always the
    /// on-air length, whether or not the capture kept the FCS (Radiotap
    /// flag 0x10).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when either the capture header or the MAC
    /// frame cannot be parsed.
    #[inline]
    pub fn from_radiotap_packet(
        bytes: &[u8],
        fallback_t_end: Nanos,
    ) -> Result<CapturedFrame, DecodeError> {
        Self::from_radiotap_packet_counted(bytes, fallback_t_end).map(|(cap, _)| cap)
    }

    /// Like [`CapturedFrame::from_radiotap_packet`], but also reports which
    /// capture-metadata fields were absent and had to be defaulted.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when either the capture header or the MAC
    /// frame cannot be parsed.
    #[inline]
    pub fn from_radiotap_packet_counted(
        bytes: &[u8],
        fallback_t_end: Nanos,
    ) -> Result<(CapturedFrame, DefaultedFields), DecodeError> {
        let (info, hdr_len) = RxInfo::from_radiotap(bytes)?;
        Self::from_decoded(&info, &bytes[hdr_len..], fallback_t_end)
    }

    /// Decodes a Prism-prefixed packet (DLT 119 pcap record) and reports
    /// which capture-metadata fields were absent and had to be defaulted.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when either the capture header or the MAC
    /// frame cannot be parsed.
    #[inline]
    pub fn from_prism_packet_counted(
        bytes: &[u8],
        fallback_t_end: Nanos,
    ) -> Result<(CapturedFrame, DefaultedFields), DecodeError> {
        let (info, hdr_len) = RxInfo::from_prism(bytes)?;
        Self::from_decoded(&info, &bytes[hdr_len..], fallback_t_end)
    }

    /// Decodes the 802.11 frame that follows an already-parsed capture
    /// header, filling each metadata field the header lacks with its
    /// default: 1 Mb/s for the rate, −70 dBm for the signal, and
    /// `fallback_t_end` for the timestamp. A raw 802.11 record (DLT 105)
    /// has no header at all: decode it with an `RxInfo` that holds only
    /// its FCS flag.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Frame`] when the MAC frame cannot be parsed.
    #[inline]
    pub fn from_decoded(
        info: &RxInfo,
        frame_bytes: &[u8],
        fallback_t_end: Nanos,
    ) -> Result<(CapturedFrame, DefaultedFields), DecodeError> {
        // Borrowed view: no body copy, no `Frame` materialization. The
        // parity proptests pin this to `Frame::parse` accessor for accessor.
        let view = if info.flags.contains(RxFlags::FCS_INCLUDED) {
            WireFrame::parse(frame_bytes)?
        } else {
            WireFrame::parse_without_fcs(frame_bytes)?
        };
        let defaulted = DefaultedFields {
            rate: info.rate.is_none(),
            signal: info.signal_dbm.is_none(),
            timestamp: info.tsft_us.is_none(),
        };
        let rate = info.rate.unwrap_or(Rate::R1M);
        let t_end = info.tsft_us.map_or(fallback_t_end, Nanos::from_micros);
        let signal = info.signal_dbm.unwrap_or(-70);
        // `wire_len` already includes the FCS, so the size is on-air
        // regardless of whether the capture stored those 4 bytes.
        Ok((CapturedFrame::from_wire(&view, rate, t_end, signal), defaulted))
    }

    /// Start-of-reception time (`t_end - air_time`).
    #[must_use] 
    pub fn t_start(&self) -> Nanos {
        self.t_end.saturating_sub(self.air_time)
    }

    /// `true` if the frame's logical destination is group-addressed
    /// (broadcast or multicast), regardless of the addr1 receiver.
    #[must_use] 
    pub fn is_group_destined(&self) -> bool {
        self.dest_group
    }

    /// `true` if the frame is addressed (addr1) to the broadcast address.
    #[must_use] 
    pub fn is_broadcast(&self) -> bool {
        self.receiver.is_broadcast()
    }
}

/// Which capture-metadata fields were missing from the Radiotap/Prism
/// header and were filled with defaults during decode.
///
/// Replay consumers aggregate these to judge capture quality: a monitor
/// that never reports rate skews every derived `air_time` toward the
/// 1 Mb/s worst case, and a missing TSFT falls back to the (coarser) pcap
/// record timestamp.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefaultedFields {
    /// No rate field: `Rate::R1M` was assumed.
    pub rate: bool,
    /// No signal field: `-70` dBm was assumed.
    pub signal: bool,
    /// No TSFT field: the caller-supplied fallback timestamp was used.
    pub timestamp: bool,
}

impl DefaultedFields {
    /// `true` if any field had to be defaulted.
    #[must_use] 
    pub fn any(self) -> bool {
        self.rate || self.signal || self.timestamp
    }

    /// Number of defaulted fields (0–3).
    #[must_use] 
    pub fn count(self) -> usize {
        usize::from(self.rate) + usize::from(self.signal) + usize::from(self.timestamp)
    }
}

/// Error decoding a capture record into a [`CapturedFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The capture header (Radiotap/Prism) was malformed.
    Header(HeaderError),
    /// The 802.11 frame after the header was malformed.
    Frame(FrameError),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Header(e) => write!(f, "capture header: {e}"),
            DecodeError::Frame(e) => write!(f, "802.11 frame: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Header(e) => Some(e),
            DecodeError::Frame(e) => Some(e),
        }
    }
}

impl From<HeaderError> for DecodeError {
    fn from(e: HeaderError) -> Self {
        DecodeError::Header(e)
    }
}

impl From<FrameError> for DecodeError {
    fn from(e: FrameError) -> Self {
        DecodeError::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sta() -> MacAddr {
        MacAddr::from_index(1)
    }
    fn ap() -> MacAddr {
        MacAddr::from_index(2)
    }

    #[test]
    fn from_frame_derives_air_time_and_sender() {
        let frame = Frame::data_to_ds(sta(), ap(), ap(), 1000);
        let cap = CapturedFrame::from_frame(&frame, Rate::R54M, Nanos::from_micros(500), -50);
        assert_eq!(cap.size, 1000 + 24 + 4);
        assert_eq!(cap.transmitter, Some(sta()));
        assert!(cap.air_time > Nanos::ZERO);
        assert_eq!(cap.t_start(), cap.t_end - cap.air_time);
        assert!(!cap.is_broadcast());
    }

    #[test]
    fn ack_has_no_transmitter() {
        let cap =
            CapturedFrame::from_frame(&Frame::ack(sta()), Rate::R11M, Nanos::from_micros(10), -60);
        assert_eq!(cap.transmitter, None);
        assert_eq!(cap.kind, FrameKind::Ack);
    }

    #[test]
    fn radiotap_packet_round_trip() {
        // A broadcast relayed by the AP: addr1 (receiver) is broadcast.
        let frame = Frame::data_from_ds(MacAddr::BROADCAST, ap(), sta(), 64);
        let info = RxInfo {
            tsft_us: Some(123_000),
            rate: Some(Rate::R11M),
            channel_mhz: Some(2437),
            signal_dbm: Some(-55),
            noise_dbm: None,
            antenna: None,
            flags: RxFlags::FCS_INCLUDED,
        };
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&frame.to_bytes());
        let cap = CapturedFrame::from_radiotap_packet(&packet, Nanos::ZERO).unwrap();
        assert_eq!(cap.t_end, Nanos::from_micros(123_000));
        assert_eq!(cap.rate, Rate::R11M);
        assert_eq!(cap.signal_dbm, -55);
        assert_eq!(cap.transmitter, Some(ap()));
        assert!(cap.is_broadcast());
        assert_eq!(cap.size, frame.wire_len());
    }

    #[test]
    fn fallback_timestamp_used_without_tsft() {
        let frame = Frame::ack(sta());
        let info = RxInfo { rate: Some(Rate::R1M), ..RxInfo::default() };
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&frame.to_bytes());
        let cap =
            CapturedFrame::from_radiotap_packet(&packet, Nanos::from_micros(777)).unwrap();
        assert_eq!(cap.t_end, Nanos::from_micros(777));
    }

    #[test]
    fn prism_packet_decodes() {
        let frame = Frame::null_function(sta(), ap(), true);
        let frame_bytes = frame.to_bytes();
        let info = RxInfo {
            tsft_us: Some(42),
            rate: Some(Rate::R2M),
            channel_mhz: Some(2412),
            signal_dbm: Some(-80),
            ..RxInfo::default()
        };
        let mut packet = info.to_prism(frame_bytes.len() as u32);
        packet.extend_from_slice(&frame_bytes);
        // Prism captures traditionally include the FCS.
        let (cap, _) = CapturedFrame::from_prism_packet_counted(&packet, Nanos::ZERO).unwrap();
        assert_eq!(cap.kind, FrameKind::NullFunction);
        assert_eq!(cap.rate, Rate::R2M);
        assert_eq!(cap.t_end, Nanos::from_micros(42));
    }

    #[test]
    fn counted_decode_reports_defaulted_fields() {
        let frame = Frame::ack(sta());
        // Only a rate: signal and TSFT must be reported as defaulted.
        let info = RxInfo { rate: Some(Rate::R1M), ..RxInfo::default() };
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&frame.to_bytes());
        let (cap, defaulted) =
            CapturedFrame::from_radiotap_packet_counted(&packet, Nanos::from_micros(9)).unwrap();
        assert_eq!(cap.t_end, Nanos::from_micros(9));
        assert!(!defaulted.rate);
        assert!(defaulted.signal);
        assert!(defaulted.timestamp);
        assert_eq!(defaulted.count(), 2);
        assert!(defaulted.any());

        // A fully-populated header defaults nothing.
        let full = RxInfo {
            tsft_us: Some(1),
            rate: Some(Rate::R11M),
            signal_dbm: Some(-40),
            ..RxInfo::default()
        };
        let mut packet = full.to_radiotap();
        packet.extend_from_slice(&frame.to_bytes());
        let (_, defaulted) =
            CapturedFrame::from_radiotap_packet_counted(&packet, Nanos::ZERO).unwrap();
        assert_eq!(defaulted, DefaultedFields::default());
        assert_eq!(defaulted.count(), 0);
    }

    #[test]
    fn from_wire_matches_from_frame() {
        let frame = Frame::data_to_ds(sta(), ap(), MacAddr::BROADCAST, 200).with_sequence(17);
        let bytes = frame.to_bytes();
        let view = WireFrame::parse(&bytes).unwrap();
        let a = CapturedFrame::from_frame(&frame, Rate::R24M, Nanos::from_micros(33), -48);
        let b = CapturedFrame::from_wire(&view, Rate::R24M, Nanos::from_micros(33), -48);
        assert_eq!(a, b);
    }

    #[test]
    fn decode_errors_are_classified() {
        let err = CapturedFrame::from_radiotap_packet(&[0u8; 2], Nanos::ZERO).unwrap_err();
        assert!(matches!(err, DecodeError::Header(_)));
        let info = RxInfo::default();
        let mut packet = info.to_radiotap();
        packet.extend_from_slice(&[1, 2, 3]); // not a full MAC frame
        let err = CapturedFrame::from_radiotap_packet(&packet, Nanos::ZERO).unwrap_err();
        assert!(matches!(err, DecodeError::Frame(_)));
    }
}
