//! On-disk pcap format definitions.

use core::fmt;

/// Magic number of a microsecond-precision pcap file (native order).
pub const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// Magic number of a nanosecond-precision pcap file (native order).
pub const MAGIC_NANOS: u32 = 0xa1b2_3c4d;

/// Timestamp precision declared by the file's magic number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TsPrecision {
    /// Record timestamps carry microseconds in the fraction field.
    #[default]
    Micros,
    /// Record timestamps carry nanoseconds in the fraction field.
    Nanos,
}

/// Data-link types relevant to 802.11 capture, per the tcpdump registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkType {
    /// Raw IEEE 802.11 frames, no capture header (DLT 105).
    Ieee80211,
    /// 802.11 preceded by a Prism monitor header (DLT 119).
    Prism,
    /// 802.11 preceded by a Radiotap header (DLT 127).
    Ieee80211Radiotap,
    /// Ethernet (DLT 1) — accepted so foreign files can still be walked.
    Ethernet,
    /// Any other registered value.
    Other(
        /// Raw link-type number.
        u32,
    ),
}

impl LinkType {
    /// The registry number for this link type.
    #[must_use] 
    pub const fn to_raw(self) -> u32 {
        match self {
            LinkType::Ethernet => 1,
            LinkType::Ieee80211 => 105,
            LinkType::Prism => 119,
            LinkType::Ieee80211Radiotap => 127,
            LinkType::Other(v) => v,
        }
    }

    /// Decodes a registry number.
    #[must_use] 
    pub const fn from_raw(raw: u32) -> LinkType {
        match raw {
            1 => LinkType::Ethernet,
            105 => LinkType::Ieee80211,
            119 => LinkType::Prism,
            127 => LinkType::Ieee80211Radiotap,
            v => LinkType::Other(v),
        }
    }
}

impl fmt::Display for LinkType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkType::Ethernet => f.write_str("EN10MB"),
            LinkType::Ieee80211 => f.write_str("IEEE802_11"),
            LinkType::Prism => f.write_str("PRISM_HEADER"),
            LinkType::Ieee80211Radiotap => f.write_str("IEEE802_11_RADIO"),
            LinkType::Other(v) => write!(f, "DLT({v})"),
        }
    }
}

/// One captured packet record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Seconds since the Unix epoch.
    pub ts_sec: u32,
    /// Sub-second part, in nanoseconds regardless of file precision.
    /// (Microsecond files lose the last three digits on write.)
    pub ts_nanos: u32,
    /// Original on-air length of the packet in bytes.
    pub orig_len: u32,
    /// Captured bytes (may be shorter than `orig_len` due to snaplen).
    pub data: Vec<u8>,
}

impl Record {
    /// A record whose captured data is the complete packet.
    #[must_use] 
    pub fn new(ts_sec: u32, ts_nanos: u32, data: Vec<u8>) -> Self {
        let orig_len = data.len() as u32;
        Record { ts_sec, ts_nanos, orig_len, data }
    }

    /// A record truncated by a snapshot length.
    #[must_use] 
    pub fn truncated(ts_sec: u32, ts_nanos: u32, orig_len: u32, data: Vec<u8>) -> Self {
        Record { ts_sec, ts_nanos, orig_len, data }
    }

    /// Creates a record from an absolute microsecond timestamp.
    #[must_use] 
    pub fn from_micros(ts_micros: u64, data: Vec<u8>) -> Self {
        Record::new((ts_micros / 1_000_000) as u32, ((ts_micros % 1_000_000) * 1000) as u32, data)
    }
}

/// Header fields of one record, as returned by the borrowing
/// [`SliceReader::next_record`](crate::SliceReader::next_record) —
/// everything a [`Record`] carries except the owned payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Seconds since the Unix epoch.
    pub ts_sec: u32,
    /// Sub-second part, in nanoseconds regardless of file precision.
    pub ts_nanos: u32,
    /// Original on-air length of the packet in bytes.
    pub orig_len: u32,
}

impl RecordMeta {
    /// Absolute timestamp in microseconds since the epoch.
    #[must_use] 
    pub fn timestamp_micros(&self) -> u64 {
        u64::from(self.ts_sec) * 1_000_000 + u64::from(self.ts_nanos / 1000)
    }

    /// Absolute timestamp in nanoseconds since the epoch.
    #[must_use] 
    pub fn timestamp_nanos(&self) -> u64 {
        u64::from(self.ts_sec) * 1_000_000_000 + u64::from(self.ts_nanos)
    }
}

/// Errors produced while reading or writing pcap files.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with a known pcap magic number.
    BadMagic(u32),
    /// A record header declares an implausible capture length (checked
    /// only for files whose header declares no snapshot length).
    OversizedRecord {
        /// Declared capture length.
        incl_len: u32,
    },
    /// A record header declares a capture length above the file's
    /// nonzero snapshot length, which no record can legitimately exceed.
    RecordExceedsSnaplen {
        /// Declared capture length.
        incl_len: u32,
        /// The file's snapshot length.
        snaplen: u32,
    },
    /// The file ended in the middle of a header or record body.
    TruncatedFile,
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "i/o error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            PcapError::OversizedRecord { incl_len } => {
                write!(f, "record capture length {incl_len} exceeds sanity bound")
            }
            PcapError::RecordExceedsSnaplen { incl_len, snaplen } => {
                write!(f, "record capture length {incl_len} exceeds the file's snaplen {snaplen}")
            }
            PcapError::TruncatedFile => f.write_str("file truncated mid-record"),
        }
    }
}

impl std::error::Error for PcapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PcapError {
    fn from(e: std::io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Maximum capture length accepted per record of a file whose header
/// declares snaplen 0 (no bound of its own); generous upper bound used to
/// reject corrupt headers before attempting a huge allocation.
pub(crate) const MAX_SANE_INCL_LEN: u32 = 256 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_type_raw_round_trip() {
        for lt in [
            LinkType::Ethernet,
            LinkType::Ieee80211,
            LinkType::Prism,
            LinkType::Ieee80211Radiotap,
            LinkType::Other(228),
        ] {
            assert_eq!(LinkType::from_raw(lt.to_raw()), lt);
        }
    }

    #[test]
    fn record_timestamp_conversions() {
        let r = Record::from_micros(1_234_567_890_654_321, vec![1]);
        assert_eq!(r.ts_sec, 1_234_567_890);
        assert_eq!(r.ts_nanos, 654_321_000);
    }

    #[test]
    fn display_of_errors_and_linktypes() {
        assert_eq!(LinkType::Ieee80211Radiotap.to_string(), "IEEE802_11_RADIO");
        assert_eq!(LinkType::Other(9).to_string(), "DLT(9)");
        let e = PcapError::BadMagic(0xdead_beef);
        assert!(e.to_string().contains("0xdeadbeef"));
    }
}
