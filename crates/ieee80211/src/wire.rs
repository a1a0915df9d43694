//! Borrowed, zero-copy view over an on-air 802.11 MAC frame.
//!
//! [`WireFrame`] parses exactly the header fields passive fingerprinting
//! needs — Frame Control, duration, addr1–3 (plus addr4 for WDS frames),
//! sequence control and the retry bit — directly from a byte slice. No
//! body copy is made and nothing is allocated: decoding a captured record
//! is pure header arithmetic. The view is proven field-for-field equal to
//! [`Frame::parse`](crate::Frame::parse) /
//! [`Frame::parse_without_fcs`](crate::Frame::parse_without_fcs) on every
//! valid frame (see the crate's property tests).
//!
//! # Example
//!
//! ```
//! use wifiprint_ieee80211::{Frame, MacAddr, WireFrame};
//!
//! let sta = MacAddr::from_index(1);
//! let ap = MacAddr::from_index(2);
//! let bytes = Frame::data_to_ds(sta, ap, ap, 100).to_bytes();
//!
//! // Borrow the on-air bytes; no allocation, no body copy.
//! let view = WireFrame::try_from(&bytes[..]).unwrap();
//! assert_eq!(view.transmitter(), Some(sta));
//! assert_eq!(view.receiver(), ap);
//! assert_eq!(view.wire_len(), bytes.len());
//! ```

use crate::fc::{FrameControl, FrameKind, FrameType};
use crate::frame::{FrameError, FCS_LEN};
use crate::mac::MacAddr;

/// A borrowed typed view over one on-air 802.11 MAC frame.
///
/// Construction validates the header demanded by the frame's kind and
/// flags; accessors then read addresses and control fields straight out of
/// the underlying slice. Use [`WireFrame::parse`] for buffers that end with
/// an FCS (the usual monitor capture) and [`WireFrame::parse_without_fcs`]
/// for captures whose driver stripped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFrame<'a> {
    buf: &'a [u8],
    fc: FrameControl,
    header_len: usize,
    has_fcs: bool,
}

impl<'a> WireFrame<'a> {
    /// Parses a borrowed view over a buffer that ends with a 4-byte FCS.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] if the buffer is shorter than the header
    /// demanded by the frame's kind and flags, and
    /// [`FrameError::ReservedType`] for type bits `0b11` — the same errors,
    /// with the same `needed` counts, as [`Frame::parse`](crate::Frame::parse).
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<WireFrame<'a>, FrameError> {
        Self::parse_inner(buf, true)
    }

    /// Parses a borrowed view over a buffer without a trailing FCS.
    ///
    /// # Errors
    ///
    /// Same as [`WireFrame::parse`].
    #[inline]
    pub fn parse_without_fcs(buf: &'a [u8]) -> Result<WireFrame<'a>, FrameError> {
        Self::parse_inner(buf, false)
    }

    #[inline]
    fn parse_inner(buf: &'a [u8], has_fcs: bool) -> Result<WireFrame<'a>, FrameError> {
        let err = |needed: usize| FrameError::Truncated { needed, available: buf.len() };
        if buf.len() < 10 {
            return Err(err(10));
        }
        let raw_fc = u16::from_le_bytes([buf[0], buf[1]]);
        if (raw_fc >> 2) & 0b11 == 3 {
            return Err(FrameError::ReservedType(3));
        }
        let fc = FrameControl::from_raw(raw_fc);
        let header_len = match fc.kind() {
            FrameKind::Cts | FrameKind::Ack => 10,
            FrameKind::Rts
            | FrameKind::PsPoll
            | FrameKind::CfEnd
            | FrameKind::CfEndCfAck
            | FrameKind::BlockAckReq
            | FrameKind::BlockAck => {
                if buf.len() < 16 {
                    return Err(err(16));
                }
                16
            }
            kind => {
                let mut need = 24;
                if fc.to_ds() && fc.from_ds() {
                    need += 6;
                }
                if kind.has_qos_control() {
                    need += 2;
                }
                if buf.len() < need {
                    return Err(err(need));
                }
                need
            }
        };
        Ok(WireFrame { buf, fc, header_len, has_fcs })
    }

    #[inline]
    fn addr_at(&self, off: usize) -> MacAddr {
        MacAddr::from_slice(&self.buf[off..]).expect("validated header length")
    }

    // ----- accessors (mirroring `Frame`) -----------------------------------

    /// The underlying captured bytes the view borrows.
    #[inline]
    #[must_use] 
    pub fn as_bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// The frame control field.
    #[inline]
    #[must_use] 
    pub fn frame_control(&self) -> FrameControl {
        self.fc
    }

    /// The frame kind (type + subtype).
    #[inline]
    #[must_use] 
    pub fn kind(&self) -> FrameKind {
        self.fc.kind()
    }

    /// Retry flag from Frame Control.
    #[inline]
    #[must_use] 
    pub fn retry(&self) -> bool {
        self.fc.retry()
    }

    /// The raw duration/ID field.
    #[inline]
    #[must_use] 
    pub fn duration(&self) -> u16 {
        u16::from_le_bytes([self.buf[2], self.buf[3]])
    }

    /// Receiver address (addr1), present on every frame.
    #[inline]
    #[must_use] 
    pub fn receiver(&self) -> MacAddr {
        self.addr_at(4)
    }

    /// Transmitter address (addr2), absent for ACK and CTS.
    ///
    /// This is the address the fingerprinting pipeline attributes
    /// observations to; `None` corresponds to the paper's `sᵢ = null`.
    #[inline]
    #[must_use] 
    pub fn transmitter(&self) -> Option<MacAddr> {
        if self.header_len >= 16 {
            Some(self.addr_at(10))
        } else {
            None
        }
    }

    /// The third address, when the kind carries one.
    #[inline]
    #[must_use] 
    pub fn addr3(&self) -> Option<MacAddr> {
        if self.header_len >= 24 {
            Some(self.addr_at(16))
        } else {
            None
        }
    }

    /// The fourth address (WDS frames with both `ToDS` and `FromDS` set).
    #[inline]
    #[must_use] 
    pub fn addr4(&self) -> Option<MacAddr> {
        if self.header_len >= 24 && self.fc.to_ds() && self.fc.from_ds() {
            Some(self.addr_at(24))
        } else {
            None
        }
    }

    /// Raw sequence-control field, when the frame carries one.
    #[inline]
    #[must_use] 
    pub fn sequence_control(&self) -> Option<u16> {
        if self.header_len >= 24 {
            Some(u16::from_le_bytes([self.buf[22], self.buf[23]]))
        } else {
            None
        }
    }

    /// Sequence number (0..=4095) when the frame carries one.
    #[inline]
    #[must_use] 
    pub fn sequence(&self) -> Option<u16> {
        self.sequence_control().map(|sc| sc >> 4)
    }

    /// `QoS` control field for `QoS` subtypes.
    #[inline]
    #[must_use] 
    pub fn qos_control(&self) -> Option<u16> {
        if self.fc.kind().has_qos_control() {
            let off = self.header_len - 2;
            Some(u16::from_le_bytes([self.buf[off], self.buf[off + 1]]))
        } else {
            None
        }
    }

    /// Logical destination address per the ToDS/FromDS rules.
    #[must_use] 
    pub fn destination(&self) -> Option<MacAddr> {
        match self.kind().frame_type() {
            FrameType::Management | FrameType::Control => Some(self.receiver()),
            FrameType::Data => {
                if self.fc.to_ds() {
                    self.addr3()
                } else {
                    Some(self.receiver())
                }
            }
        }
    }

    /// Logical source address per the ToDS/FromDS rules.
    #[must_use] 
    pub fn source(&self) -> Option<MacAddr> {
        match self.kind().frame_type() {
            FrameType::Management | FrameType::Control => self.transmitter(),
            FrameType::Data => match (self.fc.to_ds(), self.fc.from_ds()) {
                (false | true, false) => self.transmitter(),
                (false, true) => self.addr3(),
                (true, true) => self.addr4(),
            },
        }
    }

    /// BSSID per the ToDS/FromDS rules, when determinable.
    #[must_use] 
    pub fn bssid(&self) -> Option<MacAddr> {
        match self.kind().frame_type() {
            FrameType::Management => self.addr3(),
            FrameType::Control => match self.kind() {
                FrameKind::PsPoll => Some(self.receiver()),
                _ => None,
            },
            FrameType::Data => match (self.fc.to_ds(), self.fc.from_ds()) {
                (false, false) => self.addr3(),
                (true, false) => Some(self.receiver()),
                (false, true) => self.transmitter(),
                (true, true) => None,
            },
        }
    }

    /// Frame body (payload after the MAC header, before the FCS), borrowed.
    #[inline]
    #[must_use] 
    pub fn body(&self) -> &'a [u8] {
        &self.buf[self.header_len..self.body_end()]
    }

    #[inline]
    fn body_end(&self) -> usize {
        let tail = if self.has_fcs { FCS_LEN } else { 0 };
        self.buf.len().saturating_sub(tail).max(self.header_len)
    }

    /// Header length in bytes for this frame's kind and flags (no FCS).
    #[inline]
    #[must_use] 
    pub fn header_len(&self) -> usize {
        self.header_len
    }

    /// Total on-air length in bytes, including the 4-byte FCS — the
    /// paper's `sizeᵢ`, regardless of whether the capture stored the FCS.
    #[inline]
    #[must_use] 
    pub fn wire_len(&self) -> usize {
        self.body_end() + FCS_LEN
    }
}

/// The SNIPPETS-idiom entry point: a monitor capture's on-air bytes
/// (FCS included) viewed in place.
impl<'a> TryFrom<&'a [u8]> for WireFrame<'a> {
    type Error = FrameError;

    fn try_from(buf: &'a [u8]) -> Result<Self, Self::Error> {
        WireFrame::parse(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn sta() -> MacAddr {
        MacAddr::from_index(0x11)
    }
    fn ap() -> MacAddr {
        MacAddr::from_index(0x22)
    }
    fn peer() -> MacAddr {
        MacAddr::from_index(0x33)
    }

    /// Every accessor of the view must agree with the materializing parser.
    fn assert_matches_frame(bytes: &[u8], has_fcs: bool) {
        let (view, frame) = if has_fcs {
            (WireFrame::parse(bytes).unwrap(), Frame::parse(bytes).unwrap())
        } else {
            (
                WireFrame::parse_without_fcs(bytes).unwrap(),
                Frame::parse_without_fcs(bytes).unwrap(),
            )
        };
        assert_eq!(view.frame_control(), frame.frame_control());
        assert_eq!(view.kind(), frame.kind());
        assert_eq!(view.duration(), frame.duration());
        assert_eq!(view.receiver(), frame.receiver());
        assert_eq!(view.transmitter(), frame.transmitter());
        assert_eq!(view.addr3(), frame.addr3());
        assert_eq!(view.sequence(), frame.sequence());
        assert_eq!(view.qos_control(), frame.qos_control());
        assert_eq!(view.destination(), frame.destination());
        assert_eq!(view.source(), frame.source());
        assert_eq!(view.bssid(), frame.bssid());
        assert_eq!(view.body(), frame.body());
        assert_eq!(view.header_len(), frame.header_len());
        assert_eq!(view.wire_len(), frame.wire_len());
        assert_eq!(view.retry(), frame.frame_control().retry());
    }

    #[test]
    fn mirrors_frame_parse_on_representative_kinds() {
        let frames = [
            Frame::data_to_ds(sta(), ap(), peer(), 42).with_sequence(1234),
            Frame::data_from_ds(sta(), ap(), peer(), 10),
            Frame::data_ibss(sta(), ap(), peer(), 7),
            Frame::data_to_ds(sta(), ap(), peer(), 99).with_qos(6),
            Frame::null_function(sta(), ap(), true),
            Frame::beacon(ap(), vec![1, 2, 3]),
            Frame::probe_req(sta(), vec![]),
            Frame::rts(ap(), sta(), 314),
            Frame::cts(sta(), 200),
            Frame::ack(sta()),
            Frame::ps_poll(ap(), sta(), 5),
        ];
        for frame in frames {
            let bytes = frame.to_bytes();
            assert_matches_frame(&bytes, true);
            let stripped = &bytes[..bytes.len() - FCS_LEN];
            assert_matches_frame(stripped, false);
        }
    }

    #[test]
    fn four_address_frame_fields() {
        let fc = FrameControl::new(FrameKind::Data).with_to_ds(true).with_from_ds(true);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&fc.to_raw().to_le_bytes());
        bytes.extend_from_slice(&7u16.to_le_bytes());
        for addr in [ap(), sta(), peer(), MacAddr::from_index(0x44)] {
            bytes.extend_from_slice(&addr.octets());
            if bytes.len() == 22 {
                bytes.extend_from_slice(&((55u16) << 4).to_le_bytes());
            }
        }
        bytes.extend_from_slice(&[9; 20]);
        bytes.extend_from_slice(&[0; FCS_LEN]);
        let view = WireFrame::parse(&bytes).unwrap();
        assert_eq!(view.addr4(), Some(MacAddr::from_index(0x44)));
        assert_eq!(view.source(), Some(MacAddr::from_index(0x44)));
        assert_eq!(view.bssid(), None);
        assert_eq!(view.sequence(), Some(55));
        assert_matches_frame(&bytes, true);
    }

    #[test]
    fn truncation_errors_match_frame_parse() {
        let bytes = Frame::data_to_ds(sta(), ap(), peer(), 0).to_bytes();
        for cut in [0usize, 5, 9, 15, 23] {
            assert_eq!(
                WireFrame::parse(&bytes[..cut]).unwrap_err(),
                Frame::parse(&bytes[..cut]).unwrap_err(),
                "cut={cut}"
            );
        }
        let ack = Frame::ack(sta()).to_bytes();
        for cut in 0..ack.len() {
            assert_eq!(
                WireFrame::parse(&ack[..cut]).is_err(),
                Frame::parse(&ack[..cut]).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn reserved_type_rejected() {
        let raw: u16 = 0b0000_0000_0000_1100;
        let mut buf = vec![0u8; 20];
        buf[..2].copy_from_slice(&raw.to_le_bytes());
        assert_eq!(WireFrame::parse(&buf), Err(FrameError::ReservedType(3)));
    }

    #[test]
    fn try_from_assumes_fcs() {
        let bytes = Frame::ack(sta()).to_bytes();
        let view = WireFrame::try_from(&bytes[..]).unwrap();
        assert_eq!(view.wire_len(), bytes.len());
        assert_eq!(view.transmitter(), None);
        assert!(view.body().is_empty());
    }

    #[test]
    fn borrows_without_copying() {
        let bytes = Frame::data_to_ds(sta(), ap(), peer(), 16).to_bytes();
        let view = WireFrame::parse(&bytes).unwrap();
        // The body view points into the original buffer.
        assert_eq!(view.body().as_ptr(), bytes[24..].as_ptr());
        assert_eq!(view.as_bytes().as_ptr(), bytes.as_ptr());
    }
}
