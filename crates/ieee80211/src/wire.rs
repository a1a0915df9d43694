//! Borrowed, zero-copy view over an on-air 802.11 MAC frame.
//!
//! [`WireFrame`] reads exactly the header fields passive fingerprinting
//! needs — the frame kind, the retry bit, the receiver, transmitter and
//! logical destination addresses, and the on-air size — directly from a
//! byte slice. No body copy is made and nothing is allocated: decoding a
//! captured record is pure header arithmetic. Every accessor is proven
//! equal to its [`Frame`](crate::Frame) counterpart after
//! [`Frame::parse`](crate::Frame::parse) /
//! [`Frame::parse_without_fcs`](crate::Frame::parse_without_fcs) on every
//! valid frame, and both parsers reject the same buffers with the same
//! errors (see the crate's property tests).
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
//! let view = WireFrame::parse(&bytes).unwrap();
//! assert_eq!(view.transmitter(), Some(sta));
//! assert_eq!(view.receiver(), ap);
//! assert_eq!(view.wire_len(), bytes.len());
//! ```

use crate::fc::{FrameControl, FrameKind};
use crate::frame::{self, FrameError, FCS_LEN};
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
        let header_len = frame::header_len(fc);
        if buf.len() < header_len {
            return Err(err(header_len));
        }
        Ok(WireFrame { buf, fc, header_len, has_fcs })
    }

    #[inline]
    fn addr_at(&self, off: usize) -> MacAddr {
        MacAddr::from_slice(&self.buf[off..]).expect("validated header length")
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
        (self.header_len >= 16).then(|| self.addr_at(10))
    }

    /// The third address, when the kind carries one.
    #[inline]
    fn addr3(&self) -> Option<MacAddr> {
        (self.header_len >= 24).then(|| self.addr_at(16))
    }

    /// Logical destination address per the ToDS/FromDS rules.
    #[inline]
    #[must_use] 
    pub fn destination(&self) -> Option<MacAddr> {
        frame::destination(self.fc, self.receiver(), self.addr3())
    }

    /// Total on-air length in bytes, including the 4-byte FCS — the
    /// paper's `sizeᵢ`, regardless of whether the capture stored the FCS.
    #[inline]
    #[must_use] 
    pub fn wire_len(&self) -> usize {
        let tail = if self.has_fcs { FCS_LEN } else { 0 };
        self.buf.len().saturating_sub(tail).max(self.header_len) + FCS_LEN
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
        assert_eq!(view.kind(), frame.kind());
        assert_eq!(view.retry(), frame.frame_control().retry());
        assert_eq!(view.receiver(), frame.receiver());
        assert_eq!(view.transmitter(), frame.transmitter());
        assert_eq!(view.destination(), frame.destination());
        assert_eq!(view.wire_len(), frame.wire_len());
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
        assert_eq!(view.header_len, 30);
        assert_eq!(view.receiver(), ap());
        assert_eq!(view.transmitter(), Some(sta()));
        // ToDS: the destination is addr3, not the receiver.
        assert_eq!(view.destination(), Some(peer()));
        assert_eq!(view.wire_len(), 30 + 20 + FCS_LEN);
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
    fn parse_assumes_fcs() {
        let bytes = Frame::ack(sta()).to_bytes();
        let view = WireFrame::parse(&bytes).unwrap();
        assert_eq!(view.wire_len(), bytes.len());
        assert_eq!(view.transmitter(), None);
        // Without the FCS the same bytes are four bytes of body longer.
        let bare = WireFrame::parse_without_fcs(&bytes).unwrap();
        assert_eq!(bare.wire_len(), bytes.len() + FCS_LEN);
    }

    #[test]
    fn borrows_without_copying() {
        let bytes = Frame::data_to_ds(sta(), ap(), peer(), 16).to_bytes();
        let view = WireFrame::parse(&bytes).unwrap();
        // The view holds the captured buffer itself, not a copy.
        assert_eq!(view.buf.as_ptr(), bytes.as_ptr());
        assert_eq!(view.buf.len(), bytes.len());
    }
}
