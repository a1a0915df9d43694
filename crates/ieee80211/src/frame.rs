//! MAC frame representation, wire serialisation and parsing.

use core::fmt;

use crate::fc::{FrameControl, FrameKind, FrameType};
use crate::mac::MacAddr;

/// Number of FCS (CRC-32) bytes at the end of every frame.
pub const FCS_LEN: usize = 4;

/// A parsed or constructed 802.11 MAC frame.
///
/// The struct stores the fields that actually appear on air for the frame's
/// kind; accessors expose the addresses the fingerprinting pipeline reads
/// (transmitter, receiver and the logical destination derived from the
/// ToDS/FromDS rules of IEEE 802.11-2007 §7.2).
///
/// # Example
///
/// ```
/// use wifiprint_ieee80211::{Frame, FrameKind, MacAddr};
///
/// let sta = MacAddr::from_index(1);
/// let ap = MacAddr::from_index(2);
///
/// // An uplink data frame (ToDS=1): addr1=BSSID, addr2=SA, addr3=DA.
/// let f = Frame::data_to_ds(sta, ap, MacAddr::BROADCAST, 100);
/// assert_eq!(f.transmitter(), Some(sta));
/// assert_eq!(f.receiver(), ap);
/// assert_eq!(f.destination(), Some(MacAddr::BROADCAST));
///
/// // ACKs carry no transmitter address.
/// let ack = Frame::ack(sta);
/// assert_eq!(ack.transmitter(), None);
/// assert_eq!(ack.kind(), FrameKind::Ack);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    fc: FrameControl,
    duration: u16,
    addr1: MacAddr,
    addr2: Option<MacAddr>,
    addr3: Option<MacAddr>,
    addr4: Option<MacAddr>,
    seq_ctrl: Option<u16>,
    qos_ctrl: Option<u16>,
    body: Vec<u8>,
}

/// Error returned when parsing a byte buffer as an 802.11 frame fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the fixed header was complete.
    Truncated {
        /// Bytes needed for the header of this frame kind.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The two-bit type field held the reserved value 3.
    ReservedType(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, available } => {
                write!(f, "frame truncated: needed {needed} bytes, got {available}")
            }
            FrameError::ReservedType(bits) => {
                write!(f, "reserved frame type bits {bits:#04b}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    // ----- constructors ---------------------------------------------------

    /// Generic constructor from a prepared Frame Control field.
    ///
    /// Addresses beyond what the frame kind carries are ignored at
    /// serialisation time.
    #[must_use] 
    pub fn new(fc: FrameControl, addr1: MacAddr) -> Self {
        Frame {
            fc,
            duration: 0,
            addr1,
            addr2: None,
            addr3: None,
            addr4: None,
            seq_ctrl: if fc.kind().frame_type() == FrameType::Control {
                None
            } else {
                Some(0)
            },
            qos_ctrl: if fc.kind().has_qos_control() { Some(0) } else { None },
            body: Vec::new(),
        }
    }

    /// An uplink data frame (station → AP): ToDS=1, addr1=BSSID, addr2=SA,
    /// addr3=DA, with a zero-filled body of `payload_len` bytes.
    #[must_use] 
    pub fn data_to_ds(sa: MacAddr, bssid: MacAddr, da: MacAddr, payload_len: usize) -> Self {
        let fc = FrameControl::new(FrameKind::Data).with_to_ds(true);
        Frame {
            fc,
            duration: 0,
            addr1: bssid,
            addr2: Some(sa),
            addr3: Some(da),
            addr4: None,
            seq_ctrl: Some(0),
            qos_ctrl: None,
            body: vec![0; payload_len],
        }
    }

    /// A downlink data frame (AP → station): FromDS=1, addr1=DA,
    /// addr2=BSSID, addr3=SA.
    #[must_use] 
    pub fn data_from_ds(da: MacAddr, bssid: MacAddr, sa: MacAddr, payload_len: usize) -> Self {
        let fc = FrameControl::new(FrameKind::Data).with_from_ds(true);
        Frame {
            fc,
            duration: 0,
            addr1: da,
            addr2: Some(bssid),
            addr3: Some(sa),
            addr4: None,
            seq_ctrl: Some(0),
            qos_ctrl: None,
            body: vec![0; payload_len],
        }
    }

    /// An IBSS / ad-hoc data frame (ToDS=0, FromDS=0): addr1=DA, addr2=SA,
    /// addr3=BSSID.
    #[must_use] 
    pub fn data_ibss(da: MacAddr, sa: MacAddr, bssid: MacAddr, payload_len: usize) -> Self {
        let fc = FrameControl::new(FrameKind::Data);
        Frame {
            fc,
            duration: 0,
            addr1: da,
            addr2: Some(sa),
            addr3: Some(bssid),
            addr4: None,
            seq_ctrl: Some(0),
            qos_ctrl: None,
            body: vec![0; payload_len],
        }
    }

    /// A null-function frame used for power-save signalling (uplink).
    #[must_use] 
    pub fn null_function(sa: MacAddr, bssid: MacAddr, power_save: bool) -> Self {
        let fc = FrameControl::new(FrameKind::NullFunction)
            .with_to_ds(true)
            .with_power_management(power_save);
        Frame {
            fc,
            duration: 0,
            addr1: bssid,
            addr2: Some(sa),
            addr3: Some(bssid),
            addr4: None,
            seq_ctrl: Some(0),
            qos_ctrl: None,
            body: Vec::new(),
        }
    }

    /// A management frame: addr1=DA, addr2=SA, addr3=BSSID.
    #[must_use] 
    pub fn management(kind: FrameKind, da: MacAddr, sa: MacAddr, bssid: MacAddr, body: Vec<u8>) -> Self {
        debug_assert_eq!(kind.frame_type(), FrameType::Management);
        Frame {
            fc: FrameControl::new(kind),
            duration: 0,
            addr1: da,
            addr2: Some(sa),
            addr3: Some(bssid),
            addr4: None,
            seq_ctrl: Some(0),
            qos_ctrl: None,
            body,
        }
    }

    /// A broadcast probe request from `sa`.
    #[must_use] 
    pub fn probe_req(sa: MacAddr, body: Vec<u8>) -> Self {
        Self::management(FrameKind::ProbeReq, MacAddr::BROADCAST, sa, MacAddr::BROADCAST, body)
    }

    /// A beacon from `bssid`.
    #[must_use] 
    pub fn beacon(bssid: MacAddr, body: Vec<u8>) -> Self {
        Self::management(FrameKind::Beacon, MacAddr::BROADCAST, bssid, bssid, body)
    }

    /// An RTS: addr1=RA, addr2=TA.
    #[must_use] 
    pub fn rts(ra: MacAddr, ta: MacAddr, duration: u16) -> Self {
        Frame {
            fc: FrameControl::new(FrameKind::Rts),
            duration,
            addr1: ra,
            addr2: Some(ta),
            addr3: None,
            addr4: None,
            seq_ctrl: None,
            qos_ctrl: None,
            body: Vec::new(),
        }
    }

    /// A CTS: addr1=RA only; no transmitter address on air.
    #[must_use] 
    pub fn cts(ra: MacAddr, duration: u16) -> Self {
        Frame {
            fc: FrameControl::new(FrameKind::Cts),
            duration,
            addr1: ra,
            addr2: None,
            addr3: None,
            addr4: None,
            seq_ctrl: None,
            qos_ctrl: None,
            body: Vec::new(),
        }
    }

    /// An ACK: addr1=RA only; no transmitter address on air.
    #[must_use] 
    pub fn ack(ra: MacAddr) -> Self {
        Frame {
            fc: FrameControl::new(FrameKind::Ack),
            duration: 0,
            addr1: ra,
            addr2: None,
            addr3: None,
            addr4: None,
            seq_ctrl: None,
            qos_ctrl: None,
            body: Vec::new(),
        }
    }

    /// A PS-Poll: the duration field carries the association ID.
    #[must_use] 
    pub fn ps_poll(bssid: MacAddr, ta: MacAddr, aid: u16) -> Self {
        Frame {
            fc: FrameControl::new(FrameKind::PsPoll),
            duration: aid | 0xC000,
            addr1: bssid,
            addr2: Some(ta),
            addr3: None,
            addr4: None,
            seq_ctrl: None,
            qos_ctrl: None,
            body: Vec::new(),
        }
    }

    // ----- builder-style modifiers ----------------------------------------

    /// Sets the NAV duration field (or AID for PS-Poll) and returns `self`.
    #[must_use] 
    pub fn with_duration(mut self, duration: u16) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the sequence number (0..=4095), fragment 0, and returns `self`.
    /// No-op for control frames, which carry no sequence control field.
    #[must_use] 
    pub fn with_sequence(mut self, seq: u16) -> Self {
        if self.seq_ctrl.is_some() {
            self.seq_ctrl = Some((seq & 0x0fff) << 4);
        }
        self
    }

    /// Replaces the frame control field and returns `self`. The kind must
    /// stay compatible with the stored addresses; this is intended for flag
    /// tweaks (retry, protected, power management).
    #[must_use] 
    pub fn with_fc(mut self, fc: FrameControl) -> Self {
        self.fc = fc;
        self
    }

    /// Upgrades a plain data frame to `QoS` data with the given `QoS` Control
    /// field, adjusting the subtype, and returns `self`.
    #[must_use] 
    pub fn with_qos(mut self, qos_ctrl: u16) -> Self {
        let kind = match self.fc.kind() {
            FrameKind::Data => FrameKind::QosData,
            FrameKind::NullFunction => FrameKind::QosNull,
            other => other,
        };
        let mut fc = FrameControl::new(kind)
            .with_to_ds(self.fc.to_ds())
            .with_from_ds(self.fc.from_ds())
            .with_retry(self.fc.retry())
            .with_power_management(self.fc.power_management())
            .with_more_data(self.fc.more_data())
            .with_protected(self.fc.protected());
        fc = fc.with_more_fragments(self.fc.more_fragments()).with_order(self.fc.order());
        self.fc = fc;
        self.qos_ctrl = Some(qos_ctrl);
        self
    }

    // ----- accessors -------------------------------------------------------

    /// The frame control field.
    #[must_use] 
    pub fn frame_control(&self) -> FrameControl {
        self.fc
    }

    /// The frame kind (type + subtype).
    #[must_use] 
    pub fn kind(&self) -> FrameKind {
        self.fc.kind()
    }

    /// Receiver address (addr1), present on every frame.
    #[must_use] 
    pub fn receiver(&self) -> MacAddr {
        self.addr1
    }

    /// Transmitter address (addr2), absent for ACK and CTS.
    ///
    /// This is the address the fingerprinting pipeline attributes
    /// observations to; `None` corresponds to the paper's `sᵢ = null`.
    #[must_use] 
    pub fn transmitter(&self) -> Option<MacAddr> {
        self.addr2
    }

    /// Logical destination address per the ToDS/FromDS rules.
    #[must_use] 
    pub fn destination(&self) -> Option<MacAddr> {
        destination(self.fc, self.addr1, self.addr3)
    }

    /// Total on-air length in bytes, including the 4-byte FCS.
    #[must_use] 
    pub fn wire_len(&self) -> usize {
        header_len(self.fc) + self.body.len() + FCS_LEN
    }

    // ----- codec ------------------------------------------------------------

    /// Serialises the frame to its on-air byte representation, including a
    /// valid FCS.
    #[must_use] 
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.fc.to_raw().to_le_bytes());
        out.extend_from_slice(&self.duration.to_le_bytes());
        out.extend_from_slice(&self.addr1.octets());
        let header_len = header_len(self.fc);
        if header_len >= 16 {
            out.extend_from_slice(&self.addr2.unwrap_or(MacAddr::ZERO).octets());
        }
        if header_len >= 24 {
            out.extend_from_slice(&self.addr3.unwrap_or(MacAddr::ZERO).octets());
            out.extend_from_slice(&self.seq_ctrl.unwrap_or(0).to_le_bytes());
            if self.fc.to_ds() && self.fc.from_ds() {
                out.extend_from_slice(&self.addr4.unwrap_or(MacAddr::ZERO).octets());
            }
            if self.kind().has_qos_control() {
                out.extend_from_slice(&self.qos_ctrl.unwrap_or(0).to_le_bytes());
            }
        }
        out.extend_from_slice(&self.body);
        let fcs = crc32(&out);
        out.extend_from_slice(&fcs.to_le_bytes());
        out
    }

    /// Parses a frame from its on-air byte representation.
    ///
    /// The final four bytes are taken as the FCS and not validated; use
    /// [`Frame::verify_fcs`] to check integrity. Buffers without an FCS (as
    /// produced by some capture setups) can be parsed with
    /// [`Frame::parse_without_fcs`].
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Truncated`] if the buffer is shorter than the
    /// header demanded by the frame's kind and flags, and
    /// [`FrameError::ReservedType`] for type bits `0b11`.
    pub fn parse(buf: &[u8]) -> Result<Frame, FrameError> {
        Self::parse_inner(buf, true)
    }

    /// Parses a frame from a buffer that does not end with an FCS.
    ///
    /// # Errors
    ///
    /// Same as [`Frame::parse`].
    pub fn parse_without_fcs(buf: &[u8]) -> Result<Frame, FrameError> {
        Self::parse_inner(buf, false)
    }

    fn parse_inner(buf: &[u8], has_fcs: bool) -> Result<Frame, FrameError> {
        let err = |needed: usize| FrameError::Truncated { needed, available: buf.len() };
        if buf.len() < 10 {
            return Err(err(10));
        }
        let raw_fc = u16::from_le_bytes([buf[0], buf[1]]);
        if (raw_fc >> 2) & 0b11 == 3 {
            return Err(FrameError::ReservedType(3));
        }
        let fc = FrameControl::from_raw(raw_fc);
        let duration = u16::from_le_bytes([buf[2], buf[3]]);
        let addr1 = MacAddr::from_slice(&buf[4..]).expect("checked length");

        let mut frame = Frame {
            fc,
            duration,
            addr1,
            addr2: None,
            addr3: None,
            addr4: None,
            seq_ctrl: None,
            qos_ctrl: None,
            body: Vec::new(),
        };

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
                frame.addr2 = MacAddr::from_slice(&buf[10..]);
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
                frame.addr2 = MacAddr::from_slice(&buf[10..]);
                frame.addr3 = MacAddr::from_slice(&buf[16..]);
                frame.seq_ctrl = Some(u16::from_le_bytes([buf[22], buf[23]]));
                let mut off = 24;
                if fc.to_ds() && fc.from_ds() {
                    frame.addr4 = MacAddr::from_slice(&buf[off..]);
                    off += 6;
                }
                if kind.has_qos_control() {
                    frame.qos_ctrl = Some(u16::from_le_bytes([buf[off], buf[off + 1]]));
                    off += 2;
                }
                off
            }
        };

        let tail = if has_fcs { FCS_LEN } else { 0 };
        let body_end = buf.len().saturating_sub(tail).max(header_len);
        frame.body = buf[header_len..body_end].to_vec();
        Ok(frame)
    }

    /// Verifies the trailing FCS of an on-air byte buffer.
    ///
    /// Returns `false` for buffers too short to hold an FCS.
    #[must_use] 
    pub fn verify_fcs(buf: &[u8]) -> bool {
        if buf.len() < FCS_LEN {
            return false;
        }
        let (payload, fcs_bytes) = buf.split_at(buf.len() - FCS_LEN);
        let expected = u32::from_le_bytes(fcs_bytes.try_into().expect("4 bytes"));
        crc32(payload) == expected
    }
}

/// MAC header length in bytes (no FCS) for a frame with this Frame Control
/// field: the one layout rule the encoder and the borrowed decoder share.
/// [`Frame::parse`] keeps its own copy, so it stays an independent oracle.
#[inline]
pub(crate) fn header_len(fc: FrameControl) -> usize {
    match fc.kind() {
        FrameKind::Cts | FrameKind::Ack => 10,
        FrameKind::Rts | FrameKind::PsPoll | FrameKind::CfEnd | FrameKind::CfEndCfAck => 16,
        FrameKind::BlockAckReq | FrameKind::BlockAck => 16,
        kind => {
            let mut len = 24; // fc + dur + 3 addresses + seq
            if fc.to_ds() && fc.from_ds() {
                len += 6;
            }
            if kind.has_qos_control() {
                len += 2;
            }
            len
        }
    }
}

/// Logical destination address per the ToDS/FromDS rules: addr3 for a data
/// frame sent to the distribution system, addr1 for every other frame.
#[inline]
pub(crate) fn destination(fc: FrameControl, addr1: MacAddr, addr3: Option<MacAddr>) -> Option<MacAddr> {
    if fc.to_ds() && fc.kind().frame_type() == FrameType::Data {
        addr3
    } else {
        Some(addr1)
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) as used for the 802.11 FCS.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sta() -> MacAddr {
        MacAddr::from_index(0x11)
    }
    fn ap() -> MacAddr {
        MacAddr::from_index(0x22)
    }
    fn peer() -> MacAddr {
        MacAddr::from_index(0x33)
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn data_to_ds_round_trip() {
        let f = Frame::data_to_ds(sta(), ap(), peer(), 42).with_sequence(1234);
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), 24 + 42 + FCS_LEN);
        assert!(Frame::verify_fcs(&bytes));
        let parsed = Frame::parse(&bytes).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(parsed.transmitter(), Some(sta()));
        assert_eq!(parsed.receiver(), ap()); // the BSSID
        assert_eq!(parsed.destination(), Some(peer()));
        assert_eq!(bytes[16..22], peer().octets());
        assert_eq!(bytes[22..24], (1234u16 << 4).to_le_bytes());
    }

    #[test]
    fn data_from_ds_addressing() {
        let f = Frame::data_from_ds(sta(), ap(), peer(), 10);
        assert_eq!(f.receiver(), sta());
        assert_eq!(f.transmitter(), Some(ap())); // the BSSID
        assert_eq!(f.destination(), Some(sta()));
        let bytes = f.to_bytes();
        assert_eq!(bytes[16..22], peer().octets()); // the source
        assert_eq!(Frame::parse(&bytes).unwrap(), f);
    }

    #[test]
    fn control_frames_round_trip() {
        let rts = Frame::rts(ap(), sta(), 314);
        let bytes = rts.to_bytes();
        assert_eq!(bytes.len(), crate::timing::RTS_LEN);
        assert_eq!(bytes[2..4], 314u16.to_le_bytes());
        let parsed = Frame::parse(&bytes).unwrap();
        assert_eq!(parsed, rts);
        assert_eq!(parsed.transmitter(), Some(sta()));

        let cts = Frame::cts(sta(), 200);
        let bytes = cts.to_bytes();
        assert_eq!(bytes.len(), crate::timing::ACK_LEN);
        assert_eq!(Frame::parse(&bytes).unwrap().transmitter(), None);

        let ack = Frame::ack(sta());
        let bytes = ack.to_bytes();
        assert_eq!(bytes.len(), crate::timing::ACK_LEN);
        assert_eq!(Frame::parse(&bytes).unwrap(), ack);
    }

    #[test]
    fn qos_upgrade_adds_field_and_subtype() {
        let f = Frame::data_to_ds(sta(), ap(), peer(), 99).with_qos(6);
        assert_eq!(f.kind(), FrameKind::QosData);
        assert_eq!(header_len(f.frame_control()), 26);
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), 26 + 99 + FCS_LEN);
        assert_eq!(bytes[24..26], 6u16.to_le_bytes());
        assert_eq!(Frame::parse(&bytes).unwrap(), f);
    }

    #[test]
    fn null_function_flags() {
        let f = Frame::null_function(sta(), ap(), true);
        assert!(f.frame_control().power_management());
        assert!(f.kind().is_null_function());
        assert_eq!(f.wire_len(), 24 + FCS_LEN); // no body
        let parsed = Frame::parse(&f.to_bytes()).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn beacon_and_probe_are_broadcast_management() {
        let b = Frame::beacon(ap(), vec![1, 2, 3]);
        assert_eq!(b.kind().frame_type(), FrameType::Management);
        assert_eq!(b.destination(), Some(MacAddr::BROADCAST));
        assert_eq!(b.to_bytes()[16..22], ap().octets()); // the BSSID
        let p = Frame::probe_req(sta(), vec![]);
        assert_eq!(p.transmitter(), Some(sta()));
        assert_eq!(p.receiver(), MacAddr::BROADCAST);
    }

    #[test]
    fn ps_poll_carries_aid() {
        let f = Frame::ps_poll(ap(), sta(), 5);
        let bytes = f.to_bytes();
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]) & 0x3fff, 5);
        assert_eq!(f.receiver(), ap()); // the BSSID
        assert_eq!(Frame::parse(&bytes).unwrap(), f);
    }

    #[test]
    fn four_address_frame_round_trip() {
        let fc = FrameControl::new(FrameKind::Data).with_to_ds(true).with_from_ds(true);
        let mut f = Frame::new(fc, ap());
        f.addr2 = Some(sta());
        f.addr3 = Some(peer());
        f.addr4 = Some(MacAddr::from_index(0x44));
        f.body = vec![9; 20];
        assert_eq!(header_len(fc), 30);
        let bytes = f.to_bytes();
        assert_eq!(bytes[24..30], MacAddr::from_index(0x44).octets()); // the source
        assert_eq!(Frame::parse(&bytes).unwrap(), f);
        assert_eq!(f.destination(), Some(peer()));
    }

    #[test]
    fn parse_rejects_truncation() {
        let bytes = Frame::data_to_ds(sta(), ap(), peer(), 0).to_bytes();
        for cut in [0, 5, 9, 15, 23] {
            let e = Frame::parse(&bytes[..cut]);
            assert!(matches!(e, Err(FrameError::Truncated { .. })), "cut={cut}");
        }
    }

    #[test]
    fn parse_rejects_reserved_type() {
        // type bits = 3 => raw fc with bits 2..3 = 0b11.
        let raw: u16 = 0b0000_0000_0000_1100;
        let mut buf = vec![0u8; 20];
        buf[..2].copy_from_slice(&raw.to_le_bytes());
        assert_eq!(Frame::parse(&buf), Err(FrameError::ReservedType(3)));
    }

    #[test]
    fn parse_without_fcs_keeps_full_body() {
        let f = Frame::data_to_ds(sta(), ap(), peer(), 8);
        let mut bytes = f.to_bytes();
        bytes.truncate(bytes.len() - FCS_LEN); // strip FCS
        let parsed = Frame::parse_without_fcs(&bytes).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn corrupted_fcs_detected() {
        let mut bytes = Frame::ack(sta()).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(!Frame::verify_fcs(&bytes));
        assert!(!Frame::verify_fcs(&[1, 2]));
    }

    #[test]
    fn with_duration_and_retry_flags() {
        let f = Frame::data_to_ds(sta(), ap(), peer(), 1)
            .with_duration(44)
            .with_fc(FrameControl::new(FrameKind::Data).with_to_ds(true).with_retry(true));
        assert_eq!(f.to_bytes()[2..4], 44u16.to_le_bytes());
        assert!(f.frame_control().retry());
    }

    #[test]
    fn sequence_is_masked_to_12_bits() {
        let f = Frame::data_to_ds(sta(), ap(), peer(), 0).with_sequence(5000);
        // 5000 mod 4096, above the 4 fragment-number bits.
        assert_eq!(f.to_bytes()[22..24], (0x0388u16 << 4).to_le_bytes());
        // Control frames silently ignore sequence numbers.
        assert_eq!(Frame::ack(sta()).with_sequence(7), Frame::ack(sta()));
    }
}
