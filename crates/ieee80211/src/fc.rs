//! Frame Control field codec and the frame type/subtype table.

use core::fmt;

/// The three 802.11 frame classes encoded in bits 2–3 of Frame Control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameType {
    /// Management frames (beacons, probes, association, ...).
    Management,
    /// Control frames (RTS, CTS, ACK, ...).
    Control,
    /// Data frames (including `QoS` and null-function variants).
    Data,
}

impl FrameType {
    /// The on-air two-bit encoding.
    #[inline]
    #[must_use] 
    pub const fn bits(self) -> u8 {
        match self {
            FrameType::Management => 0,
            FrameType::Control => 1,
            FrameType::Data => 2,
        }
    }
}

impl fmt::Display for FrameType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameType::Management => "management",
            FrameType::Control => "control",
            FrameType::Data => "data",
        };
        f.write_str(s)
    }
}

/// Every 802.11-1999/2007 frame kind (type + subtype), plus a
/// [`FrameKind::Reserved`] escape hatch so arbitrary captures can be
/// represented without loss.
///
/// # Example
///
/// ```
/// use wifiprint_ieee80211::{FrameKind, FrameType};
///
/// assert_eq!(FrameKind::Beacon.frame_type(), FrameType::Management);
/// assert_eq!(FrameKind::from_type_subtype(1, 13), FrameKind::Ack);
/// assert!(FrameKind::Ack.is_sender_anonymous());
/// assert!(!FrameKind::Rts.is_sender_anonymous());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameKind {
    // --- Management (type 0) ---
    /// Association request (subtype 0).
    AssocReq,
    /// Association response (subtype 1).
    AssocResp,
    /// Reassociation request (subtype 2).
    ReassocReq,
    /// Reassociation response (subtype 3).
    ReassocResp,
    /// Probe request (subtype 4).
    ProbeReq,
    /// Probe response (subtype 5).
    ProbeResp,
    /// Beacon (subtype 8).
    Beacon,
    /// Announcement traffic indication message (subtype 9).
    Atim,
    /// Disassociation (subtype 10).
    Disassoc,
    /// Authentication (subtype 11).
    Auth,
    /// Deauthentication (subtype 12).
    Deauth,
    /// Action (subtype 13).
    Action,
    // --- Control (type 1) ---
    /// Block-ACK request (subtype 8).
    BlockAckReq,
    /// Block-ACK (subtype 9).
    BlockAck,
    /// Power-save poll (subtype 10).
    PsPoll,
    /// Request to send (subtype 11).
    Rts,
    /// Clear to send (subtype 12).
    Cts,
    /// Acknowledgement (subtype 13).
    Ack,
    /// Contention-free period end (subtype 14).
    CfEnd,
    /// CF-End + CF-Ack (subtype 15).
    CfEndCfAck,
    // --- Data (type 2) ---
    /// Plain data (subtype 0).
    Data,
    /// Data + CF-Ack (subtype 1).
    DataCfAck,
    /// Data + CF-Poll (subtype 2).
    DataCfPoll,
    /// Data + CF-Ack + CF-Poll (subtype 3).
    DataCfAckCfPoll,
    /// Null function — no data, used e.g. for power-save signalling
    /// (subtype 4). Central to Fig. 8 of the paper.
    NullFunction,
    /// CF-Ack, no data (subtype 5).
    CfAck,
    /// CF-Poll, no data (subtype 6).
    CfPoll,
    /// CF-Ack + CF-Poll, no data (subtype 7).
    CfAckCfPoll,
    /// `QoS` data (subtype 8).
    QosData,
    /// `QoS` data + CF-Ack (subtype 9).
    QosDataCfAck,
    /// `QoS` data + CF-Poll (subtype 10).
    QosDataCfPoll,
    /// `QoS` data + CF-Ack + CF-Poll (subtype 11).
    QosDataCfAckCfPoll,
    /// `QoS` null function (subtype 12).
    QosNull,
    /// `QoS` CF-Poll, no data (subtype 14).
    QosCfPoll,
    /// `QoS` CF-Ack + CF-Poll, no data (subtype 15).
    QosCfAckCfPoll,
    /// Any (type, subtype) combination not defined above.
    Reserved {
        /// Raw two-bit type field.
        type_bits: u8,
        /// Raw four-bit subtype field.
        subtype: u8,
    },
}

impl FrameKind {
    /// All concretely named kinds, in (type, subtype) order. Useful for
    /// exhaustive iteration in tests and histogram set-up.
    pub const ALL_NAMED: [FrameKind; 35] = [
        FrameKind::AssocReq,
        FrameKind::AssocResp,
        FrameKind::ReassocReq,
        FrameKind::ReassocResp,
        FrameKind::ProbeReq,
        FrameKind::ProbeResp,
        FrameKind::Beacon,
        FrameKind::Atim,
        FrameKind::Disassoc,
        FrameKind::Auth,
        FrameKind::Deauth,
        FrameKind::Action,
        FrameKind::BlockAckReq,
        FrameKind::BlockAck,
        FrameKind::PsPoll,
        FrameKind::Rts,
        FrameKind::Cts,
        FrameKind::Ack,
        FrameKind::CfEnd,
        FrameKind::CfEndCfAck,
        FrameKind::Data,
        FrameKind::DataCfAck,
        FrameKind::DataCfPoll,
        FrameKind::DataCfAckCfPoll,
        FrameKind::NullFunction,
        FrameKind::CfAck,
        FrameKind::CfPoll,
        FrameKind::CfAckCfPoll,
        FrameKind::QosData,
        FrameKind::QosDataCfAck,
        FrameKind::QosDataCfPoll,
        FrameKind::QosDataCfAckCfPoll,
        FrameKind::QosNull,
        FrameKind::QosCfPoll,
        FrameKind::QosCfAckCfPoll,
    ];

    /// Decodes a raw (type, subtype) pair. Unknown combinations map to
    /// [`FrameKind::Reserved`] rather than failing.
    #[must_use] 
    pub const fn from_type_subtype(type_bits: u8, subtype: u8) -> FrameKind {
        let type_bits = type_bits & 0b11;
        let subtype = subtype & 0b1111;
        match (type_bits, subtype) {
            (0, 0) => FrameKind::AssocReq,
            (0, 1) => FrameKind::AssocResp,
            (0, 2) => FrameKind::ReassocReq,
            (0, 3) => FrameKind::ReassocResp,
            (0, 4) => FrameKind::ProbeReq,
            (0, 5) => FrameKind::ProbeResp,
            (0, 8) => FrameKind::Beacon,
            (0, 9) => FrameKind::Atim,
            (0, 10) => FrameKind::Disassoc,
            (0, 11) => FrameKind::Auth,
            (0, 12) => FrameKind::Deauth,
            (0, 13) => FrameKind::Action,
            (1, 8) => FrameKind::BlockAckReq,
            (1, 9) => FrameKind::BlockAck,
            (1, 10) => FrameKind::PsPoll,
            (1, 11) => FrameKind::Rts,
            (1, 12) => FrameKind::Cts,
            (1, 13) => FrameKind::Ack,
            (1, 14) => FrameKind::CfEnd,
            (1, 15) => FrameKind::CfEndCfAck,
            (2, 0) => FrameKind::Data,
            (2, 1) => FrameKind::DataCfAck,
            (2, 2) => FrameKind::DataCfPoll,
            (2, 3) => FrameKind::DataCfAckCfPoll,
            (2, 4) => FrameKind::NullFunction,
            (2, 5) => FrameKind::CfAck,
            (2, 6) => FrameKind::CfPoll,
            (2, 7) => FrameKind::CfAckCfPoll,
            (2, 8) => FrameKind::QosData,
            (2, 9) => FrameKind::QosDataCfAck,
            (2, 10) => FrameKind::QosDataCfPoll,
            (2, 11) => FrameKind::QosDataCfAckCfPoll,
            (2, 12) => FrameKind::QosNull,
            (2, 14) => FrameKind::QosCfPoll,
            (2, 15) => FrameKind::QosCfAckCfPoll,
            _ => FrameKind::Reserved { type_bits, subtype },
        }
    }

    /// The frame class this kind belongs to.
    #[must_use] 
    pub const fn frame_type(self) -> FrameType {
        match self.type_subtype().0 {
            0 => FrameType::Management,
            1 => FrameType::Control,
            _ => FrameType::Data,
        }
    }

    /// The raw (type, subtype) encoding.
    #[must_use] 
    pub const fn type_subtype(self) -> (u8, u8) {
        match self {
            FrameKind::AssocReq => (0, 0),
            FrameKind::AssocResp => (0, 1),
            FrameKind::ReassocReq => (0, 2),
            FrameKind::ReassocResp => (0, 3),
            FrameKind::ProbeReq => (0, 4),
            FrameKind::ProbeResp => (0, 5),
            FrameKind::Beacon => (0, 8),
            FrameKind::Atim => (0, 9),
            FrameKind::Disassoc => (0, 10),
            FrameKind::Auth => (0, 11),
            FrameKind::Deauth => (0, 12),
            FrameKind::Action => (0, 13),
            FrameKind::BlockAckReq => (1, 8),
            FrameKind::BlockAck => (1, 9),
            FrameKind::PsPoll => (1, 10),
            FrameKind::Rts => (1, 11),
            FrameKind::Cts => (1, 12),
            FrameKind::Ack => (1, 13),
            FrameKind::CfEnd => (1, 14),
            FrameKind::CfEndCfAck => (1, 15),
            FrameKind::Data => (2, 0),
            FrameKind::DataCfAck => (2, 1),
            FrameKind::DataCfPoll => (2, 2),
            FrameKind::DataCfAckCfPoll => (2, 3),
            FrameKind::NullFunction => (2, 4),
            FrameKind::CfAck => (2, 5),
            FrameKind::CfPoll => (2, 6),
            FrameKind::CfAckCfPoll => (2, 7),
            FrameKind::QosData => (2, 8),
            FrameKind::QosDataCfAck => (2, 9),
            FrameKind::QosDataCfPoll => (2, 10),
            FrameKind::QosDataCfAckCfPoll => (2, 11),
            FrameKind::QosNull => (2, 12),
            FrameKind::QosCfPoll => (2, 14),
            FrameKind::QosCfAckCfPoll => (2, 15),
            FrameKind::Reserved { type_bits, subtype } => (type_bits, subtype),
        }
    }

    /// `true` for frames carrying no transmitter address on air (ACK, CTS).
    ///
    /// Per §IV-A of the paper, observations from these frames cannot be
    /// attributed to a sender and are dropped (`sᵢ = null`).
    #[must_use] 
    pub const fn is_sender_anonymous(self) -> bool {
        matches!(self, FrameKind::Ack | FrameKind::Cts)
    }

    /// `true` for `QoS` data subtypes, which carry a 2-byte `QoS` Control field.
    #[must_use] 
    pub const fn has_qos_control(self) -> bool {
        matches!(
            self,
            FrameKind::QosData
                | FrameKind::QosDataCfAck
                | FrameKind::QosDataCfPoll
                | FrameKind::QosDataCfAckCfPoll
                | FrameKind::QosNull
                | FrameKind::QosCfPoll
                | FrameKind::QosCfAckCfPoll
        )
    }

    /// `true` for data subtypes that carry a payload (excludes the
    /// null-function family).
    #[must_use] 
    pub const fn carries_data(self) -> bool {
        matches!(
            self,
            FrameKind::Data
                | FrameKind::DataCfAck
                | FrameKind::DataCfPoll
                | FrameKind::DataCfAckCfPoll
                | FrameKind::QosData
                | FrameKind::QosDataCfAck
                | FrameKind::QosDataCfPoll
                | FrameKind::QosDataCfAckCfPoll
        )
    }

    /// `true` for the null-function family (no payload; used for power
    /// management signalling).
    #[must_use] 
    pub const fn is_null_function(self) -> bool {
        matches!(self, FrameKind::NullFunction | FrameKind::QosNull)
    }

    /// Short lowercase label used in reports and persisted signatures.
    #[must_use] 
    pub fn label(self) -> String {
        match self {
            FrameKind::Reserved { type_bits, subtype } => {
                format!("reserved-{type_bits}-{subtype}")
            }
            _ => format!("{self}"),
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameKind::AssocReq => "assoc-req",
            FrameKind::AssocResp => "assoc-resp",
            FrameKind::ReassocReq => "reassoc-req",
            FrameKind::ReassocResp => "reassoc-resp",
            FrameKind::ProbeReq => "probe-req",
            FrameKind::ProbeResp => "probe-resp",
            FrameKind::Beacon => "beacon",
            FrameKind::Atim => "atim",
            FrameKind::Disassoc => "disassoc",
            FrameKind::Auth => "auth",
            FrameKind::Deauth => "deauth",
            FrameKind::Action => "action",
            FrameKind::BlockAckReq => "block-ack-req",
            FrameKind::BlockAck => "block-ack",
            FrameKind::PsPoll => "ps-poll",
            FrameKind::Rts => "rts",
            FrameKind::Cts => "cts",
            FrameKind::Ack => "ack",
            FrameKind::CfEnd => "cf-end",
            FrameKind::CfEndCfAck => "cf-end-cf-ack",
            FrameKind::Data => "data",
            FrameKind::DataCfAck => "data-cf-ack",
            FrameKind::DataCfPoll => "data-cf-poll",
            FrameKind::DataCfAckCfPoll => "data-cf-ack-cf-poll",
            FrameKind::NullFunction => "null-function",
            FrameKind::CfAck => "cf-ack",
            FrameKind::CfPoll => "cf-poll",
            FrameKind::CfAckCfPoll => "cf-ack-cf-poll",
            FrameKind::QosData => "qos-data",
            FrameKind::QosDataCfAck => "qos-data-cf-ack",
            FrameKind::QosDataCfPoll => "qos-data-cf-poll",
            FrameKind::QosDataCfAckCfPoll => "qos-data-cf-ack-cf-poll",
            FrameKind::QosNull => "qos-null",
            FrameKind::QosCfPoll => "qos-cf-poll",
            FrameKind::QosCfAckCfPoll => "qos-cf-ack-cf-poll",
            FrameKind::Reserved { .. } => "reserved",
        };
        f.write_str(s)
    }
}

/// Decoded 16-bit Frame Control field.
///
/// # Example
///
/// ```
/// use wifiprint_ieee80211::{FrameControl, FrameKind};
///
/// let fc = FrameControl::new(FrameKind::QosData).with_to_ds(true).with_retry(true);
/// let raw = fc.to_raw();
/// assert_eq!(FrameControl::from_raw(raw), fc);
/// assert!(fc.retry());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameControl {
    kind: FrameKind,
    protocol_version: u8,
    to_ds: bool,
    from_ds: bool,
    more_fragments: bool,
    retry: bool,
    power_management: bool,
    more_data: bool,
    protected: bool,
    order: bool,
}

impl FrameControl {
    /// Creates a Frame Control field for `kind` with all flags cleared.
    #[must_use] 
    pub const fn new(kind: FrameKind) -> Self {
        FrameControl {
            kind,
            protocol_version: 0,
            to_ds: false,
            from_ds: false,
            more_fragments: false,
            retry: false,
            power_management: false,
            more_data: false,
            protected: false,
            order: false,
        }
    }

    /// Decodes a host-order value of the little-endian on-air field.
    #[must_use] 
    pub const fn from_raw(raw: u16) -> Self {
        let type_bits = ((raw >> 2) & 0b11) as u8;
        let subtype = ((raw >> 4) & 0b1111) as u8;
        FrameControl {
            kind: FrameKind::from_type_subtype(type_bits, subtype),
            protocol_version: (raw & 0b11) as u8,
            to_ds: raw & (1 << 8) != 0,
            from_ds: raw & (1 << 9) != 0,
            more_fragments: raw & (1 << 10) != 0,
            retry: raw & (1 << 11) != 0,
            power_management: raw & (1 << 12) != 0,
            more_data: raw & (1 << 13) != 0,
            protected: raw & (1 << 14) != 0,
            order: raw & (1 << 15) != 0,
        }
    }

    /// Encodes to the host-order value of the little-endian on-air field.
    #[must_use] 
    pub const fn to_raw(self) -> u16 {
        let (type_bits, subtype) = self.kind.type_subtype();
        (self.protocol_version as u16 & 0b11)
            | ((type_bits as u16) << 2)
            | ((subtype as u16) << 4)
            | ((self.to_ds as u16) << 8)
            | ((self.from_ds as u16) << 9)
            | ((self.more_fragments as u16) << 10)
            | ((self.retry as u16) << 11)
            | ((self.power_management as u16) << 12)
            | ((self.more_data as u16) << 13)
            | ((self.protected as u16) << 14)
            | ((self.order as u16) << 15)
    }

    /// The frame kind (type + subtype).
    #[must_use] 
    pub const fn kind(self) -> FrameKind {
        self.kind
    }

    /// Protocol version bits (always 0 in deployed networks).
    #[must_use] 
    pub const fn protocol_version(self) -> u8 {
        self.protocol_version
    }

    /// To-DS flag.
    #[must_use] 
    pub const fn to_ds(self) -> bool {
        self.to_ds
    }

    /// From-DS flag.
    #[must_use] 
    pub const fn from_ds(self) -> bool {
        self.from_ds
    }

    /// More-fragments flag.
    #[must_use] 
    pub const fn more_fragments(self) -> bool {
        self.more_fragments
    }

    /// Retry flag — set on retransmissions. Fig. 4 of the paper filters
    /// retries out when isolating backoff behaviour.
    #[must_use] 
    pub const fn retry(self) -> bool {
        self.retry
    }

    /// Power-management flag — the station enters power save after this
    /// frame when set.
    #[must_use] 
    pub const fn power_management(self) -> bool {
        self.power_management
    }

    /// More-data flag (AP has queued frames for a dozing station).
    #[must_use] 
    pub const fn more_data(self) -> bool {
        self.more_data
    }

    /// Protected flag — payload is encrypted (WEP/TKIP/CCMP).
    #[must_use] 
    pub const fn protected(self) -> bool {
        self.protected
    }

    /// Order flag (strictly-ordered service class).
    #[must_use] 
    pub const fn order(self) -> bool {
        self.order
    }

    /// Returns a copy with the To-DS flag set to `v`.
    #[must_use] 
    pub const fn with_to_ds(mut self, v: bool) -> Self {
        self.to_ds = v;
        self
    }

    /// Returns a copy with the From-DS flag set to `v`.
    #[must_use] 
    pub const fn with_from_ds(mut self, v: bool) -> Self {
        self.from_ds = v;
        self
    }

    /// Returns a copy with the retry flag set to `v`.
    #[must_use] 
    pub const fn with_retry(mut self, v: bool) -> Self {
        self.retry = v;
        self
    }

    /// Returns a copy with the power-management flag set to `v`.
    #[must_use] 
    pub const fn with_power_management(mut self, v: bool) -> Self {
        self.power_management = v;
        self
    }

    /// Returns a copy with the more-data flag set to `v`.
    #[must_use] 
    pub const fn with_more_data(mut self, v: bool) -> Self {
        self.more_data = v;
        self
    }

    /// Returns a copy with the protected flag set to `v`.
    #[must_use] 
    pub const fn with_protected(mut self, v: bool) -> Self {
        self.protected = v;
        self
    }

    /// Returns a copy with the more-fragments flag set to `v`.
    #[must_use] 
    pub const fn with_more_fragments(mut self, v: bool) -> Self {
        self.more_fragments = v;
        self
    }

    /// Returns a copy with the order flag set to `v`.
    #[must_use] 
    pub const fn with_order(mut self, v: bool) -> Self {
        self.order = v;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_kind_round_trips() {
        for kind in FrameKind::ALL_NAMED {
            let (t, s) = kind.type_subtype();
            assert_eq!(FrameKind::from_type_subtype(t, s), kind, "{kind:?}");
        }
    }

    #[test]
    fn reserved_round_trips() {
        let kind = FrameKind::from_type_subtype(3, 5);
        assert_eq!(kind, FrameKind::Reserved { type_bits: 3, subtype: 5 });
        assert_eq!(kind.type_subtype(), (3, 5));
        assert_eq!(kind.label(), "reserved-3-5");
    }

    #[test]
    fn frame_type_classification() {
        assert_eq!(FrameKind::Beacon.frame_type(), FrameType::Management);
        assert_eq!(FrameKind::Rts.frame_type(), FrameType::Control);
        assert_eq!(FrameKind::QosData.frame_type(), FrameType::Data);
    }

    #[test]
    fn anonymous_senders_match_paper_rule() {
        // Fig. 1: ACK and CTS carry no transmitter address.
        assert!(FrameKind::Ack.is_sender_anonymous());
        assert!(FrameKind::Cts.is_sender_anonymous());
        // but RTS does (the paper attributes an RTS to station C).
        assert!(!FrameKind::Rts.is_sender_anonymous());
        assert!(!FrameKind::Data.is_sender_anonymous());
        assert!(!FrameKind::Beacon.is_sender_anonymous());
    }

    #[test]
    fn qos_and_null_classification() {
        assert!(FrameKind::QosData.has_qos_control());
        assert!(FrameKind::QosNull.has_qos_control());
        assert!(!FrameKind::Data.has_qos_control());
        assert!(FrameKind::NullFunction.is_null_function());
        assert!(FrameKind::QosNull.is_null_function());
        assert!(!FrameKind::QosNull.carries_data());
        assert!(FrameKind::QosData.carries_data());
        assert!(FrameKind::Data.carries_data());
    }

    #[test]
    fn frame_control_bit_layout() {
        // RTS = type 1, subtype 11: 0b1011_01_00 = 0xB4 in the low byte.
        let fc = FrameControl::new(FrameKind::Rts);
        assert_eq!(fc.to_raw(), 0x00B4);
        // ACK = 0xD4, CTS = 0xC4, Beacon = 0x80, Data = 0x08, QoS data = 0x88.
        assert_eq!(FrameControl::new(FrameKind::Ack).to_raw(), 0x00D4);
        assert_eq!(FrameControl::new(FrameKind::Cts).to_raw(), 0x00C4);
        assert_eq!(FrameControl::new(FrameKind::Beacon).to_raw(), 0x0080);
        assert_eq!(FrameControl::new(FrameKind::Data).to_raw(), 0x0008);
        assert_eq!(FrameControl::new(FrameKind::QosData).to_raw(), 0x0088);
    }

    #[test]
    fn flags_round_trip() {
        let fc = FrameControl::new(FrameKind::Data)
            .with_to_ds(true)
            .with_retry(true)
            .with_power_management(true)
            .with_protected(true);
        let raw = fc.to_raw();
        assert_eq!(raw & (1 << 8), 1 << 8);
        assert_eq!(raw & (1 << 11), 1 << 11);
        assert_eq!(raw & (1 << 12), 1 << 12);
        assert_eq!(raw & (1 << 14), 1 << 14);
        assert_eq!(FrameControl::from_raw(raw), fc);
    }

    #[test]
    fn from_raw_total_for_all_u16() {
        // The decoder must be total: every possible 16-bit value decodes and
        // re-encodes to the same value (type bits 3 map to Reserved).
        for raw in 0..=u16::MAX {
            let fc = FrameControl::from_raw(raw);
            assert_eq!(fc.to_raw(), raw, "raw={raw:#06x}");
        }
    }

    #[test]
    fn display_labels_are_stable() {
        assert_eq!(FrameKind::ProbeReq.to_string(), "probe-req");
        assert_eq!(FrameKind::NullFunction.label(), "null-function");
    }
}
